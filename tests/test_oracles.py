"""Independent-oracle cross-checks for the exact kernels.

Each oracle here deliberately avoids the code path it checks: invariant
factors against the gcd-of-minors formula, Fourier-Motzkin verdicts
against grid refutation, and Smith-based homology against rational-rank
computations.
"""

import random
from fractions import Fraction as Fr
from itertools import combinations, product
from math import gcd

from geotits import arrangement as arr
from geotits import collection as coll_mod
from geotits import complexes as cx
from geotits import exact
from geotits._kernel import IntMatrix, smith_normal_form
from geotits.exact import dot
from conftest import E2, S2, reference_feasible


def minors_gcd(dense, k):
    """gcd of all k x k minors (exact integer determinants)."""
    rows, cols = len(dense), len(dense[0])
    g = 0
    for ri in combinations(range(rows), k):
        for ci in combinations(range(cols), k):
            sub = [[Fr(dense[i][j]) for j in ci] for i in ri]
            det = _det(sub)
            g = gcd(g, abs(int(det)))
    return g


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = Fr(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det(minor)
    return total


def test_snf_against_minors_oracle():
    """d_1 ... d_k equals the gcd of all k x k minors."""
    rng = random.Random(13)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        dense = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        m = IntMatrix(
            rows, cols, {(i, j): dense[i][j] for i in range(rows) for j in range(cols)}
        )
        snf = smith_normal_form(m)
        prod_d = 1
        for k, d in enumerate(snf.invariant_factors, start=1):
            prod_d *= d
            assert minors_gcd(dense, k) == prod_d, (dense, snf.invariant_factors)
        if snf.rank < min(rows, cols):
            assert minors_gcd(dense, snf.rank + 1) == 0


def test_snf_exhaustive_2x2_oracle():
    """Every 2x2 integer matrix with small entries against the minors
    formula (covers the spec's diag(2,3) style cases exhaustively)."""
    for a, b, c, d in product(range(-3, 4), repeat=4):
        dense = [[a, b], [c, d]]
        m = IntMatrix(2, 2, {(0, 0): a, (0, 1): b, (1, 0): c, (1, 1): d})
        snf = smith_normal_form(m)
        g1 = gcd(gcd(abs(a), abs(b)), gcd(abs(c), abs(d)))
        det = abs(a * d - b * c)
        if g1 == 0:
            assert snf.invariant_factors == ()
        elif det == 0:
            assert snf.invariant_factors == (g1,)
        else:
            assert snf.invariant_factors == (g1, det // g1)


def test_fm_infeasible_verdict_sound():
    """When FM reports INFEASIBLE, no rational grid point satisfies the
    system (refutation on a dense grid)."""
    rng = random.Random(21)
    grid = [Fr(i, 3) for i in range(-9, 10)]
    checked_infeasible = 0
    for _ in range(150):
        nv = rng.randint(1, 2)
        strict = [tuple(rng.randint(-3, 3) for _ in range(nv + 1)) for _ in range(rng.randint(1, 4))]
        loose = [tuple(rng.randint(-3, 3) for _ in range(nv + 1)) for _ in range(rng.randint(0, 2))]
        w = reference_feasible(strict, loose, (), nv)
        if w is not None:
            continue
        checked_infeasible += 1
        for pt in product(grid, repeat=nv):
            ok = all(dot(r[:nv], pt) + r[nv] > 0 for r in strict) and all(
                dot(r[:nv], pt) + r[nv] >= 0 for r in loose
            )
            assert not ok, (strict, loose, pt)
    assert checked_infeasible > 5


def test_homology_against_rational_rank_oracle(triangle, four_lines, coord_s2):
    """Betti numbers recomputed with Fraction Gaussian elimination."""
    complexes = []
    for coll in (triangle, four_lines):
        complexes.append(cx.relative_st_complex(list(coll.members), coll.top()))
        complexes.append(cx.order_complex(coll.members))
    tri = cx.sphere_triangulation(coord_s2)
    complexes.append(cx.pt_bicomplex(coord_s2, tri))
    for which, complex_ in enumerate(complexes):
        h = cx.homology(complex_)
        for d in complex_.support():
            bd = complex_.boundary(d)
            bnext = complex_.boundary(d + 1)
            rk_d = exact.rank(_dense_rows(bd)) if bd.entries else 0
            rk_next = exact.rank(_dense_rows(bnext)) if bnext.entries else 0
            betti = complex_.dim(d) - rk_d - rk_next
            assert betti == h.betti(d), (which, d)


def _dense_rows(m):
    rows = [[0] * m.cols for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    return rows


def test_region_count_oracle_generic_lines():
    """Generic line arrangements: bounded regions = C(m-1, 2) (classical
    count), checked against the arrangement machinery."""
    line_sets = {
        3: [(0, 1, 0), (0, 0, 1), (1, -1, -1)],
        4: [(0, 1, 0), (0, 0, 1), (1, -1, -1), (2, -5, -1)],
        5: [(0, 1, 0), (0, 0, 1), (1, -1, -1), (2, -5, -1), (1, -3, 1)],
    }
    from math import comb

    for m_count, covs in line_sets.items():
        coll = coll_mod.closure_by_hyperplanes(E2, covs)
        # genericity: all C(m,2) crossings distinct
        assert len(coll.points()) == comb(m_count, 2)
        poset = arr.build_arrangement(coll)
        assert len(arr.region_basis(poset)) == comb(m_count - 1, 2)
        # total regions: 1 + m + C(m,2)
        assert len(poset.regions()) == 1 + m_count + comb(m_count, 2)


def test_spherical_region_count_oracle():
    """m generic great circles cut S^2 into m^2 - m + 2 regions."""
    covs = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 2, 3)]
    coll = coll_mod.closure_by_hyperplanes(S2, covs)
    # genericity: no three circles share an axis
    assert len(coll.grade(0)) == 6
    poset = arr.build_arrangement(coll)
    m = 4
    assert len(poset.regions()) == m * m - m + 2
