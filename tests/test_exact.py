import random
from fractions import Fraction as Fr
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from geotits import arrangement as arr
from geotits import exact
from geotits import geometry as geo
from geotits.exact import dot
from conftest import (
    F0,
    chart_dim,
    flat_orientation_vectors,
    min_norm_point,
    poset_from_cells,
    reference_check_witness,
    reference_coordinates,
    reference_det_sign,
    reference_feasible,
    reference_solve_unique,
    step_product,
    witness_row,
)


def _reference_rref(rows):
    """Gauss-Jordan over Fraction, kept as the oracle for ``exact.rref``."""
    mat = [list(map(Fr, r)) for r in rows]
    if not mat:
        return (), ()
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


ENTRIES = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)


@st.composite
def matrices(draw):
    """Wide, square and tall rational matrices with zero, repeated and
    rescaled rows mixed in."""
    ncols = draw(st.integers(1, 7))
    rows = draw(st.lists(
        st.lists(ENTRIES, min_size=ncols, max_size=ncols), min_size=1, max_size=7
    ))
    for _ in range(draw(st.integers(0, 2))):
        src = draw(st.sampled_from(rows))
        scale = draw(st.sampled_from([0, 1, -3, Fr(1, 2), Fr(-7, 5)]))
        rows.insert(draw(st.integers(0, len(rows))), [scale * x for x in src])
    return rows


def _primitive_positive(rational_rows):
    """Each Gauss-Jordan row (pivot entry 1) times the lcm of its
    denominators over the gcd of the result: coprime integers with a
    positive pivot."""
    out = []
    for row in rational_rows:
        den = lcm(*(x.denominator for x in row))
        ints = [x.numerator * (den // x.denominator) for x in row]
        g = gcd(*ints)
        out.append(tuple(v // g for v in ints))
    return tuple(out)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_rref_matches_reference(rows):
    """``rref`` is the Gauss-Jordan form scaled to primitive integer rows
    with positive pivots, and it builds no ``Fraction``."""
    got, pivots = exact.rref(rows)
    want, want_pivots = _reference_rref(rows)
    assert got == _primitive_positive(want)
    assert pivots == want_pivots
    assert all(type(x) is int for row in got for x in row)


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_sort_key_matches_fraction_reference(rows):
    """The member order (and so every report's labels) rests on
    ``sort_key``: it lists the Gauss-Jordan entries as
    ``(numerator, denominator)`` pairs."""
    sub = geo.LinearSubspace(len(rows[0]), rows)
    red, _ = _reference_rref(rows)
    want = (len(red), tuple((x.numerator, x.denominator) for row in red for x in row))
    assert sub.sort_key() == want


@st.composite
def subspace_and_vectors(draw):
    """A subspace with two probe vectors: free, zero or in its span."""
    rows = draw(matrices())
    ncols = len(rows[0])
    probes = st.one_of(
        st.lists(ENTRIES, min_size=ncols, max_size=ncols),
        st.just([0] * ncols),
        st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)).map(
            lambda cs: [sum(c * r[j] for c, r in zip(cs, rows)) for j in range(ncols)]
        ),
    )
    return rows, [draw(probes), draw(probes)]


@settings(max_examples=100, deadline=None)
@given(subspace_and_vectors())
def test_contains_vector_matches_reference(case):
    rows, probes = case
    sub = geo.LinearSubspace(len(rows[0]), rows)
    for v in probes:
        in_span = len(_reference_rref(list(sub.basis) + [v])[0]) == sub.dim
        assert sub.contains_vector(v) == in_span


def test_contains_vector_full_and_zero_space():
    full = geo.full_space(3)
    zero = geo.LinearSubspace(3)
    for v in [(0, 0, 0), (Fr(1, 3), -2, 0), (5, Fr(-7, 2), Fr(1, 9))]:
        assert full.contains_vector(v)
        assert zero.contains_vector(v) == (not any(v))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_flat_orientation_matches_reference_coordinates(seed):
    """Dim-many vectors (in the span, free, or zero) over subspaces of
    every dimension from zero (no rows) to full, with fraction entries:
    the orientation read from the pivot minor is the sign of the
    determinant of the vectors' coordinates, and 0 when one lies outside.
    This is the fact that products of step signs rest on, checked on the
    test-side rule that they replaced."""
    rng = random.Random(seed)
    ncols = rng.randint(1, 5)

    def entry():
        return Fr(rng.randint(-9, 9), rng.randint(1, 6))

    rows = [[entry() for _ in range(ncols)] for _ in range(rng.randint(0, ncols))]
    sub = geo.LinearSubspace(ncols, rows)

    def in_span():
        coeffs = [entry() for _ in rows]
        return [sum((c * r[j] for c, r in zip(coeffs, rows)), Fr(0)) for j in range(ncols)]

    vecs = [in_span() for _ in range(sub.dim)]
    if vecs and rng.random() < 0.4:
        vecs[rng.randrange(len(vecs))] = rng.choice([[0] * ncols, [entry() for _ in range(ncols)]])
    coords = [reference_coordinates(sub, v) for v in vecs]
    want = 0 if None in coords else reference_det_sign(coords)
    assert flat_orientation_vectors(sub, vecs) == want
    if vecs and want:
        flipped = [[-x for x in vecs[0]]] + vecs[1:]
        assert flat_orientation_vectors(sub, flipped) == -want


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_poset_orientation_matches_reference_coordinates(seed):
    """A flag of cells whose flats are the prefix spans of independent
    witness vectors, in E^n (chart points) and S^n (rays): the product of
    ``FacePoset.step_sign`` over the flag (``conftest.step_product``) is
    the sign of the determinant of the witnesses' coordinates in the top
    cell's flat.  Each cell keeps its witness as ``build_arrangement``
    does, as a primitive integer ambient row."""
    rng = random.Random(seed)
    kind, n = rng.choice("ES"), rng.randint(1, 3)
    g = geo.Geometry(kind, n)

    def witness():
        """A chart point (E) or a nonzero ray (S)."""
        while True:
            w = tuple(Fr(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(chart_dim(g)))
            if kind == "E" or any(w):
                return w

    k = rng.randint(1, g.ambient_dim)
    witnesses, vectors = [], []
    while len(witnesses) < k:
        w = witness()
        v = geo.chart_vector(g, w)
        if exact.rank(vectors + [v]) == len(vectors) + 1:
            witnesses.append(w)
            vectors.append(v)
    flag = [(i,) for i in range(k)]
    flats = [geo.LinearSubspace(g.ambient_dim, vectors[: i + 1]) for i in range(k)]
    cells = {s: arr.Cell(s, flats[i], i, witness_row(g, witnesses[i]))
             for i, s in enumerate(flag)}
    want = reference_det_sign([reference_coordinates(flats[-1], v) for v in vectors])
    assert want != 0
    assert step_product(poset_from_cells(g, (), cells), flag) == want


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6))
def test_det_sign_matches_fraction_reference(seed):
    """Square matrices from 1x1 to 5x5 with int and fraction entries of
    both signs and many zeros, made singular by a zero row or a rational
    combination of the other rows, or shuffled upper triangular so that
    the pivots need row swaps."""
    rng = random.Random(seed)
    n = rng.randint(1, 5)

    def entry():
        kind = rng.random()
        if kind < 0.25:
            return 0
        if kind < 0.6:
            return rng.randint(-9, 9)
        return Fr(rng.randint(-9, 9), rng.randint(1, 7))

    rows = [[entry() for _ in range(n)] for _ in range(n)]
    mode = rng.randrange(4)
    if mode == 1:
        rows[rng.randrange(n)] = [0] * n
    elif mode == 2 and n > 1:
        i = rng.randrange(n)
        coeffs = [entry() for _ in range(n)]
        rows[i] = [sum((c * r[j] for k, (c, r) in enumerate(zip(coeffs, rows)) if k != i), Fr(0))
                   for j in range(n)]
    elif mode == 3:
        rows = [[entry() if j > i else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            rows[i][i] = rng.choice([-1, 1]) * Fr(rng.randint(1, 9), rng.randint(1, 4))
        rng.shuffle(rows)
    want = reference_det_sign(rows)
    assert exact.det_sign(rows) == want
    if mode in (1, 2) and n > 1:
        assert want == 0
    assert exact.det_sign([[-x for x in rows[0]]] + rows[1:]) == -want
    assert exact.det_sign([[3 * x for x in r] for r in rows]) == want


def test_rref_identity():
    out, piv = exact.rref([[1, 0], [0, 1]])
    assert out == ((Fr(1), Fr(0)), (Fr(0), Fr(1)))


def test_rref_dependent_rows():
    out, _ = exact.rref([[2, 4], [1, 2]])
    assert out == ((Fr(1), Fr(2)),)


def test_rref_full_rank_3():
    out, piv = exact.rref([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    # hand Gaussian elimination: full rank, identity pivots
    assert len(out) == 3 and piv == (0, 1, 2)
    assert out == ((Fr(1), 0, 0), (0, Fr(1), 0), (0, 0, Fr(1)))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_rref_idempotent(seed):
    rng = random.Random(seed)
    rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(rng.randint(1, 4))]
    once, _ = exact.rref(rows)
    twice, _ = exact.rref(once) if once else ((), ())
    assert once == twice


def test_feasible_interval():
    w = reference_feasible(strict_rows=[(1, 0), (-1, 1)], nvars=1)
    assert w is not None and 0 < w[0] < 1


def test_feasible_empty():
    assert reference_feasible(strict_rows=[(1, 0), (-1, 0)], nvars=1) is None


def test_feasible_triangle_interior():
    w = reference_feasible(strict_rows=[(1, 0, 0), (0, 1, 0), (-1, -1, 1)], nvars=2)
    assert w[0] > 0 and w[1] > 0 and w[0] + w[1] < 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_feasible_witness_exact(seed):
    """Witnesses satisfy every constraint exactly on substitution
    (reference_feasible() itself hard-asserts this; here we re-check
    externally)."""
    rng = random.Random(seed)
    nv = rng.randint(1, 3)
    strict = [tuple(rng.randint(-3, 3) for _ in range(nv + 1)) for _ in range(rng.randint(0, 3))]
    loose = [tuple(rng.randint(-3, 3) for _ in range(nv + 1)) for _ in range(rng.randint(0, 3))]
    eqs = [tuple(rng.randint(-2, 2) for _ in range(nv + 1)) for _ in range(rng.randint(0, 1))]
    w = reference_feasible(strict, loose, eqs, nv)
    if w is None:
        return
    for r in strict:
        assert dot(r[:nv], w) + r[nv] > 0
    for r in loose:
        assert dot(r[:nv], w) + r[nv] >= 0
    for r in eqs:
        assert dot(r[:nv], w) + r[nv] == 0


def _reference_feasible(strict_rows, nonstrict_rows, eq_rows, nvars):
    """Fourier-Motzkin with ``Fraction`` substitution rows, kept as the
    oracle for ``conftest.reference_feasible``: rows are normalized once, then carried
    as rational rows without rescaling."""

    def normalize(r):
        row = exact.primitive_int_row(list(r[:nvars]) + [r[nvars]])
        return row[:-1], Fr(row[-1])

    ineqs = [normalize(r) + (True,) for r in strict_rows]
    ineqs += [normalize(r) + (False,) for r in nonstrict_rows]
    eqs = [normalize(r) for r in eq_rows]
    steps = []
    live = list(range(nvars))
    while live:
        pivot = next(((var, row) for row in eqs for var in live if row[0][var]), None)
        if pivot:
            var, (pc, pk) = pivot

            def subst(c, k):
                f = Fr(c[var], pc[var])
                return tuple(ci - f * pi for ci, pi in zip(c, pc)), k - f * pk

            ineqs = [subst(c, k) + (s,) if c[var] else (c, k, s) for c, k, s in ineqs]
            new_eqs = []
            for c, k in eqs:
                if (c, k) == (pc, pk):
                    continue
                if c[var]:
                    c, k = subst(c, k)
                    if not any(c[v] for v in live) and k == 0:
                        continue
                new_eqs.append((c, k))
            eqs = new_eqs
            steps.append(("eq", var, (pc, pk)))
            live.remove(var)
            continue
        costs = []
        for var in live:
            p = sum(1 for c, _, _ in ineqs if c[var] > 0)
            q = sum(1 for c, _, _ in ineqs if c[var] < 0)
            costs.append((p * q, var))
        var = min(costs, key=lambda t: t[0])[1]
        pos = [row for row in ineqs if row[0][var] > 0]
        neg = [row for row in ineqs if row[0][var] < 0]
        combined, seen = [], set()
        for pc, pk, ps in pos:
            for nc, nk, ns in neg:
                a, b = pc[var], -nc[var]
                cc = tuple(b * x + a * y for x, y in zip(pc, nc))
                kk = b * pk + a * nk
                key = exact.primitive_int_row(list(cc) + [kk]) + (ps or ns,)
                if key not in seen:
                    seen.add(key)
                    combined.append((cc, Fr(kk), ps or ns))
        ineqs = [row for row in ineqs if row[0][var] == 0] + combined
        steps.append(("fm", var, pos + neg))
        live.remove(var)
    if any(k != 0 for _, k in eqs):
        return None
    if any(not (k > 0 if s else k >= 0) for _, k, s in ineqs):
        return None
    x = [F0] * nvars

    def rest(c, k, var):
        return sum((c[j] * x[j] for j in range(nvars) if j != var and c[j]), F0) + k

    for kind, var, data in reversed(steps):
        if kind == "eq":
            pc, pk = data
            x[var] = -rest(pc, pk, var) / pc[var]
            continue
        lo = hi = None
        lo_s = hi_s = False
        for c, k, s in data:
            bound = -rest(c, k, var) / c[var]
            if c[var] > 0:
                if lo is None or bound > lo:
                    lo, lo_s = bound, s
                elif bound == lo:
                    lo_s = lo_s or s
            elif hi is None or bound < hi:
                hi, hi_s = bound, s
            elif bound == hi:
                hi_s = hi_s or s
        if lo is None and hi is None:
            x[var] = F0
        elif lo is None:
            x[var] = hi - 1 if hi_s else hi
        elif hi is None:
            x[var] = lo + 1 if lo_s else lo
        else:
            x[var] = (lo + hi) / 2 if lo != hi else lo
    return tuple(x)


def _random_system(rng):
    """Strict, nonstrict and equality rows over 1-4 variables with small
    integer or fraction entries, some repeated at a positive or negative
    scale (FM duplicates, equal and opposite equality pivots)."""
    nv = rng.randint(1, 4)

    def row(lo):
        return tuple(
            Fr(rng.randint(-lo, lo), rng.choice((1, 1, 1, 2, 3))) for _ in range(nv + 1)
        )

    groups = [
        [row(4) for _ in range(rng.randint(0, 5))],
        [row(4) for _ in range(rng.randint(0, 4))],
        [row(3) for _ in range(rng.randint(0, 2))],
    ]
    for _ in range(rng.randint(0, 2)):
        rows = rng.choice(groups)
        if rows:
            scale = rng.choice((2, Fr(1, 3), -1, -2))
            rows.append(tuple(scale * x for x in rng.choice(rows)))
    return groups, nv


def test_feasible_matches_fraction_reference():
    """The integer elimination returns the very witness of the rational
    one (every row is a positive multiple of its rational twin), and the
    same infeasibility verdicts, on feasible and infeasible systems."""
    rng = random.Random(20261018)
    verdicts = []
    for _ in range(1500):
        (strict, loose, eqs), nv = _random_system(rng)
        if not (strict or loose or eqs):
            continue
        got = reference_feasible(strict, loose, eqs, nv)
        assert got == _reference_feasible(strict, loose, eqs, nv)
        assert got is None or all(type(x) is Fr for x in got)
        verdicts.append(got is None)
    assert 300 < sum(verdicts) < len(verdicts) - 300


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_rational_results_never_float(seed):
    """Values that are rational numbers come back as ``Fraction``, even
    from integer input: solutions."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    ints = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    # unit upper triangular, so nonsingular
    square = [[1 if i == j else ints[i][j] if i < j else 0 for j in range(n)] for i in range(n)]
    rhs = [rng.randint(-9, 9) for _ in range(n)]
    sol = reference_solve_unique(square, rhs)
    assert [dot(r, sol) for r in square] == rhs
    assert all(type(x) is Fr for x in sol)


# x > 0, y >= 0 and x + y - 1 = 0, as integer rows or as their Fraction
# multiples by 1/3
WITNESS_ROWS = ([(1, 0, 0)], [(0, 1, 0)], [(1, 1, -1)])


@pytest.mark.parametrize("scale", [1, Fr(1, 3)])
@pytest.mark.parametrize("point, match", [
    ((Fr(1, 2), Fr(1, 2)), None),
    ((Fr(1), Fr(0)), None),  # y = 0 meets the nonstrict row
    ((Fr(0), Fr(1)), "strict constraint"),
    ((Fr(3, 2), Fr(-1, 2)), "violates constraint"),
    ((Fr(1, 2), Fr(1, 3)), "equality"),
])
def test_check_witness_rejects_a_nudged_witness(scale, point, match):
    """A witness moved off a strict, a nonstrict or an equality row fails
    the check; a witness on a nonstrict row's boundary passes."""
    strict, loose, eqs = ([tuple(scale * x for x in r) for r in g] for g in WITNESS_ROWS)
    if match is None:
        reference_check_witness(point, strict, loose, eqs)
    else:
        with pytest.raises(AssertionError, match=match):
            reference_check_witness(point, strict, loose, eqs)


def _chart_orientation(pts):
    """Orientation of n+1 chart points in E^n: the sign of the
    determinant of their chart vectors (1, p), which
    ``groups.pt_to_ls_element`` reads off positive rescales of them (the
    vertices' witness rows)."""
    g = geo.Geometry("E", len(pts[0]))
    return exact.det_sign([geo.chart_vector(g, p) for p in pts])


def test_orientation_examples():
    assert _chart_orientation([(0, 0), (1, 0), (0, 1)]) == 1
    assert _chart_orientation([(0, 0), (0, 1), (1, 0)]) == -1
    assert _chart_orientation([(0, 0), (1, 1), (2, 2)]) == 0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_orientation_alternating(seed):
    """The chart-vector determinant has the sign of the determinant of
    the differences p_i - p_0, and a swap of two points flips it."""
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    pts = [tuple(Fr(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)) for _ in range(n + 1)]
    base = _chart_orientation(pts)
    assert base == reference_det_sign([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]])
    i, j = rng.sample(range(n + 1), 2) if n >= 1 else (0, 1)
    swapped = list(pts)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert _chart_orientation(swapped) == -base


def test_min_norm_sq():
    assert min_norm_point([(1, 0, -1), (0, 1, -1), (-1, -1, 3)], [], 2)[0] == 2
    assert min_norm_point([(1, 0, 1)], [], 2)[0] == 0
    assert min_norm_point([(1, 0, -10)], [(0, 1, -3)], 2)[0] == 109


def test_nullspace_orthogonal():
    basis = exact.nullspace([(1, 1, 0)])
    assert len(basis) == 2
    for v in basis:
        assert dot(v, (1, 1, 0)) == 0


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda k: st.tuples(*[st.lists(ENTRIES, min_size=k, max_size=k)] * 2)
))
def test_dot_matches_fraction_reference(pair):
    """Native ``dot`` equals the sum of ``Fraction`` products and never
    returns a float: an int for int vectors, else a ``Fraction``."""
    a, b = pair
    got = dot(a, b)
    assert got == sum((Fr(x) * Fr(y) for x, y in zip(a, b)), Fr(0))
    if all(isinstance(x, int) for x in a + b):
        assert type(got) is int
    else:
        assert type(got) is Fr
