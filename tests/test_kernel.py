import itertools
import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from geotits import cli, resolution
from geotits import groups as grp
from geotits._kernel import (
    IntMatrix,
    kernel_basis,
    lattice_contains,
    lattices_equal,
    smith_normal_form,
)
from geotits._kernel.elim_py import eliminate
from geotits.complexes import (
    ChainComplex,
    HomologyClasses,
    face_complex,
    homology,
    pt_bicomplex,
    sphere_triangulation,
)
from conftest import dense_columns


def dense(m):
    out = [[0] * m.cols for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        out[i][j] = v
    return out


def matmul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_diag_2_3():
    snf = smith_normal_form(IntMatrix(2, 2, {(0, 0): 2, (1, 1): 3}))
    assert snf.invariant_factors == (1, 6)


def test_zero_matrix():
    assert smith_normal_form(IntMatrix(3, 4)).invariant_factors == ()


def test_hollow_triangle_boundary():
    # edge boundary of the 3-cycle: rank 2, no torsion
    m = IntMatrix(
        3, 3, {(0, 0): 1, (1, 0): -1, (1, 1): 1, (2, 1): -1, (0, 2): -1, (2, 2): 1}
    )
    assert smith_normal_form(m).invariant_factors == (1, 1)


def test_torsion_detected():
    # boundary of the projective-plane style relation x -> 2x
    m = IntMatrix(1, 1, {(0, 0): 2})
    assert smith_normal_form(m).invariant_factors == (2,)


def test_transform_certificates_random():
    """The reference elimination's U M V is the diagonal form; the
    kernel's V is unimodular and M V vanishes at the non-pivot columns."""
    rng = random.Random(3)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = IntMatrix(
            rows,
            cols,
            {
                (i, j): rng.randint(-9, 9)
                for i in range(rows)
                for j in range(cols)
                if rng.random() < 0.7
            },
        )
        pivots, prow, pcol, urows, vcols = _reference_eliminate(m.row_dicts(), rows, cols, True)
        u = [[urows[i].get(j, 0) for j in range(rows)] for i in range(rows)]
        v = [[vcols[j].get(i, 0) for j in range(cols)] for i in range(cols)]
        d = matmul(matmul(u, dense(m)), v)
        want = dict(zip(zip(prow, pcol), pivots))
        assert len(set(prow)) == len(set(pcol)) == len(want) == len(pivots)
        for i in range(rows):
            for j in range(cols):
                assert d[i][j] == want.get((i, j), 0)
        for a, b in zip(pivots, pivots[1:]):
            assert b % a == 0

        snf = smith_normal_form(m, want_transforms=True)
        v = [[snf.vcols[j].get(i, 0) for j in range(cols)] for i in range(cols)]
        v_rows = {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(v)}
        assert _fraction_eliminate(v_rows, range(cols), range(cols))[0] == 1
        mv = matmul(dense(m), v)
        assert all(mv[i][j] == 0 for i in range(rows) for j in range(cols)
                   if j not in snf.pivot_cols)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_unimodular_invariance(seed):
    """Invariant factors survive random unimodular row/column operations."""
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    m = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
    base = smith_normal_form(
        IntMatrix(rows, cols, {(i, j): m[i][j] for i in range(rows) for j in range(cols)})
    ).invariant_factors
    for _ in range(8):
        op = rng.randrange(4)
        if op == 0 and rows > 1:
            i, j = rng.sample(range(rows), 2)
            q = rng.randint(-3, 3)
            for c in range(cols):
                m[i][c] += q * m[j][c]
        elif op == 1 and cols > 1:
            i, j = rng.sample(range(cols), 2)
            q = rng.randint(-3, 3)
            for r in range(rows):
                m[r][i] += q * m[r][j]
        elif op == 2:
            i = rng.randrange(rows)
            for c in range(cols):
                m[i][c] = -m[i][c]
        else:
            i = rng.randrange(cols)
            for r in range(rows):
                m[r][i] = -m[r][i]
    after = smith_normal_form(
        IntMatrix(rows, cols, {(i, j): m[i][j] for i in range(rows) for j in range(cols)})
    ).invariant_factors
    assert base == after


def test_solve_and_kernel():
    rng = random.Random(11)
    for _ in range(50):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        m = IntMatrix(
            rows,
            cols,
            {
                (i, j): rng.randint(-5, 5)
                for i in range(rows)
                for j in range(cols)
                if rng.random() < 0.7
            },
        )
        x0 = [rng.randint(-4, 4) for _ in range(cols)]
        b = m.mul_vec(x0)
        assert lattice_contains(m, [b])
        x = _ref_solve(m, b)
        assert x is not None and m.mul_vec(x) == b
        for col in kernel_basis(m):
            assert all(v == 0 for v in m.mul_vec(col))


def test_solve_unsolvable():
    m = IntMatrix(1, 1, {(0, 0): 2})
    assert not lattice_contains(m, [[1]])
    assert _ref_solve(m, [1]) is None
    assert lattice_contains(m, [[4], [0]])
    assert _ref_solve(m, [4]) == [2]


def test_lattice_equality():
    a = [[2, 0], [0, 3]]
    b = [[2, 3], [4, 3]]
    assert lattices_equal(a, b, 2)
    assert not lattices_equal(a, [[1, 0]], 2)
    assert lattice_contains(IntMatrix.from_columns(2, a), [[2, 3]])


# ---------------------------------------------------------------------------
# Dense reference for the sparse certificates: U and V as dense matrices,
# rows of U and columns of V permuted so that pivot k sits at (k, k), and
# solving, kernel and homology coordinates read off that diagonal form.


def _dense_snf(m):
    pivots, prow, pcol, urows, vcols = _reference_eliminate(m.row_dicts(), m.rows, m.cols, True)
    order = sorted(range(len(pivots)), key=lambda k: pivots[k])
    row_perm = [prow[k] for k in order] + sorted(set(range(m.rows)) - set(prow))
    col_perm = [pcol[k] for k in order] + sorted(set(range(m.cols)) - set(pcol))
    u = [[urows[i].get(j, 0) for j in range(m.rows)] for i in row_perm]
    v = [[vcols[col_perm[j]].get(i, 0) for j in range(m.cols)] for i in range(m.cols)]
    return [pivots[k] for k in order], u, v


def _ref_kernel_basis(m):
    factors, _, v = _dense_snf(m)
    n = m.cols
    return [[v[i][j] for i in range(n)] for j in range(len(factors), n)]


def _ref_solve(m, b):
    """One integer solution x of M x = b, or None: with y = U b, M x = b
    is solvable exactly when d_k divides y_k for k < rank and y vanishes
    below."""
    factors, u, v = _dense_snf(m)
    rows, n = m.rows, m.cols
    y = [sum(u[i][j] * b[j] for j in range(rows) if b[j]) for i in range(rows)]
    z = [0] * n
    for i in range(rows):
        if i < len(factors):
            if y[i] % factors[i]:
                return None
            z[i] = y[i] // factors[i]
        elif y[i]:
            return None
    return [sum(v[i][j] * z[j] for j in range(n) if z[j]) for i in range(n)]


def _ref_coords(complex_, degree, cycle):
    kernel = _ref_kernel_basis(complex_.boundary(degree))
    k = len(kernel)
    kmat = IntMatrix.from_columns(complex_.dim(degree), kernel)
    rel = IntMatrix.from_columns(
        k, [_ref_solve(kmat, col) for col in dense_columns(complex_.boundary(degree + 1))]
    )
    a = _ref_solve(kmat, list(cycle))
    if a is None:
        return None
    factors, u, _ = _dense_snf(rel)
    w = [sum(u[i][j] * a[j] for j in range(k) if a[j]) for i in range(k)]
    return tuple(w[len(factors):]), tuple(w[i] % d for i, d in enumerate(factors) if d > 1)


def _random_matrix(rng, rows, cols, bound=5):
    # a common factor on every entry forces torsion into the invariant factors
    scale = rng.choice((1, 1, 2, 3, 6))
    return IntMatrix(
        rows,
        cols,
        {
            (i, j): scale * rng.randint(-bound, bound)
            for i in range(rows)
            for j in range(cols)
            if rng.random() < 0.7
        },
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_sparse_certificates_match_dense_reference(seed):
    rng = random.Random(seed)
    m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
    factors, _, _ = _dense_snf(m)
    assert list(smith_normal_form(m).invariant_factors) == factors
    assert kernel_basis(m) == _ref_kernel_basis(m)
    solvable = m.mul_vec([rng.randint(-4, 4) for _ in range(m.cols)])
    arbitrary = [rng.randint(-6, 6) for _ in range(m.rows)]
    for b in (solvable, arbitrary, [0] * m.rows):
        x = _ref_solve(m, b)
        assert lattice_contains(m, [b]) == (x is not None)
        if x is not None:
            assert m.mul_vec(x) == b
    assert lattice_contains(m, [solvable])


# ---------------------------------------------------------------------------
# Lattice answers.  ``lattice_contains``, ``lattices_equal`` and
# ``GroupHom.well_defined`` compare ranks and products of invariant factors
# of rank-only reductions; the oracle solves every vector on the reference
# elimination's U and V.


def _combination(rng, cols, length):
    coefs = [rng.randint(-2, 2) for _ in cols]
    return [sum(q * c[i] for q, c in zip(coefs, cols)) for i in range(length)]


def _in_lattice(m, vectors):
    return all(_ref_solve(m, v) is not None for v in vectors)


def _unimodular_change(rng, cols):
    """The same lattice in another basis: random elementary column
    operations and sign flips."""
    cols = [list(c) for c in cols]
    for _ in range(4):
        a = rng.randrange(len(cols))
        if len(cols) < 2 or rng.random() < 0.25:
            cols[a] = [-x for x in cols[a]]
            continue
        b = rng.choice([j for j in range(len(cols)) if j != a])
        q = rng.choice((-2, -1, 1, 2))
        cols[a] = [x + q * y for x, y in zip(cols[a], cols[b])]
    return cols


def _check_lattice_answers(rng):
    """One random case of each lattice question, checked against the
    reference.  M carries torsion when ``_random_matrix`` scales it (then
    phase B runs) and loses rank when a column is a combination of the
    others.  Returns the (question, answer) pairs and whether M's
    reduction reached phase B."""
    rows = rng.randint(1, 5)
    cols = dense_columns(_random_matrix(rng, rows, rng.randint(1, 4), bound=4))
    cols += [_combination(rng, cols, rows) for _ in range(rng.randint(0, 2))]
    m = IntMatrix.from_columns(rows, cols)
    snf = smith_normal_form(m)
    arbitrary = [rng.randint(-3, 3) for _ in range(rows)]
    top = max(snf.invariant_factors, default=1)
    answers = []
    for vectors in ([_combination(rng, cols, rows)],
                    [_combination(rng, cols, rows), arbitrary],
                    [[top * x for x in arbitrary]],
                    [[0] * rows]):
        want = _in_lattice(m, vectors)
        assert lattice_contains(m, vectors) == want
        answers.append(("contains", want))

    for other in (_unimodular_change(rng, cols),
                  [_combination(rng, cols, rows) for _ in cols],
                  cols + [arbitrary]):
        want = _in_lattice(m, other) and _in_lattice(IntMatrix.from_columns(rows, other), cols)
        assert lattices_equal(cols, other, rows) == want
        answers.append(("equal", want))

    # a hom Z^d / R -> Z^rows / C, where C holds some images of R (scaled
    # by 1 or 2) and some random relations
    dom_rel = _random_matrix(rng, rng.randint(0, 2), rng.randint(1, 3), bound=3)
    hom = _random_matrix(rng, rows, dom_rel.cols, bound=3)
    images = [hom.mul_vec(r) for r in dense(dom_rel)]
    scale = rng.choice((1, 1, 2))
    cod_rows = [[scale * x for x in img] for img in images if rng.random() < 0.7]
    cod_rows += dense(_random_matrix(rng, rng.randint(0, 2), rows, bound=3))
    dom = grp.GroupPresentation(range(dom_rel.cols), dom_rel)
    cod = grp.GroupPresentation(range(rows), IntMatrix(
        len(cod_rows), rows, {(i, j): v for i, r in enumerate(cod_rows) for j, v in enumerate(r)}))
    want = _in_lattice(cod.relation_lattice_matrix(), images)
    assert grp.GroupHom(dom, cod, hom).well_defined == want
    answers.append(("well_defined", want))
    return answers, snf.units < snf.rank


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_lattice_answers_match_reference_solving(seed):
    _check_lattice_answers(random.Random(seed))


def test_lattice_answers_cover_both_outcomes():
    """The random cases reach both answers to every question, and phase B."""
    seen = set()
    phase_b = 0
    for seed in range(40):
        answers, reached_b = _check_lattice_answers(random.Random(f"lattice/{seed}"))
        seen.update(answers)
        phase_b += reached_b
    assert seen == {(q, a) for q in ("contains", "equal", "well_defined") for a in (True, False)}
    assert phase_b


def test_well_defined_checks_every_relation():
    """Z/2 + Z/3 -> Z/6: x -> 3z, y -> 2z respects both relations; with
    y -> z the second relation 3y maps to 3z, outside 6Z."""
    dom = grp.GroupPresentation(["x", "y"], IntMatrix(2, 2, {(0, 0): 2, (1, 1): 3}))
    cod = grp.GroupPresentation(["z"], IntMatrix(1, 1, {(0, 0): 6}))
    assert grp.GroupHom(dom, cod, IntMatrix(1, 2, {(0, 0): 3, (0, 1): 2})).well_defined
    assert not grp.GroupHom(dom, cod, IntMatrix(1, 2, {(0, 0): 3, (0, 1): 1})).well_defined


def _dense_product_is_zero(a, b):
    da, db = dense(a), dense(b)
    return all(sum(da[i][k] * db[k][j] for k in range(a.cols)) == 0
               for i in range(a.rows) for j in range(b.cols))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_product_is_zero_matches_dense_product(seed):
    """The column-at-a-time check agrees with the dense product.  The
    right factor is built from kernel vectors of the left one, so that
    both answers occur and the terms of a product column cancel; a
    random column may be put in anywhere.  Either factor may have empty
    columns, and the left one no rows or no columns."""
    rng = random.Random(seed)
    a = _random_matrix(rng, rng.randint(0, 5), rng.randint(0, 6))
    if a.cols and rng.random() < 0.3:
        a = IntMatrix.from_col_dicts(a.rows, [{} if rng.random() < 0.3 else col
                                              for col in a.col_dicts])
    kern = kernel_basis(a)
    cols = [
        [sum(rng.randint(-2, 2) * k[i] for k in kern) for i in range(a.cols)]
        for _ in range(rng.randint(0, 4))
    ]
    if rng.random() < 0.5:
        cols.insert(rng.randint(0, len(cols)), [rng.randint(-3, 3) for _ in range(a.cols)])
    if rng.random() < 0.3:
        cols.insert(rng.randint(0, len(cols)), [0] * a.cols)
    b = IntMatrix.from_columns(a.cols, cols)
    assert a.product_is_zero(b) == _dense_product_is_zero(a, b)


def test_product_is_zero_on_cancelling_and_empty_columns():
    a = IntMatrix.from_columns(2, [[1, 2], [1, 2], [0, 0], [1, 3]])
    cancel = IntMatrix.from_columns(4, [[1, -1, 0, 0], [0, 0, 5, 0], [0] * 4])
    assert a.product_is_zero(cancel)
    # row 0 cancels, row 1 does not
    partial = IntMatrix.from_columns(4, [[1, -1, 0, 0], [1, 0, 0, -1]])
    assert not a.product_is_zero(partial)
    assert IntMatrix(0, 4).product_is_zero(partial)
    assert IntMatrix(3, 0).product_is_zero(IntMatrix(0, 5))
    assert IntMatrix(3, 4).product_is_zero(partial)
    with pytest.raises(ValueError):
        a.product_is_zero(IntMatrix(3, 1))


def test_int_matrix_refuses_non_integral_entries():
    with pytest.raises(ValueError):
        IntMatrix(1, 2, {(0, 0): Fraction(1, 2), (0, 1): 2.7})
    with pytest.raises(ValueError):
        IntMatrix(1, 1, {(0, 0): 2.7})
    with pytest.raises(ValueError):
        IntMatrix.from_col_dicts(2, [{1: Fraction(3, 2)}])
    with pytest.raises(ValueError):
        IntMatrix.from_columns(2, [[0, 0.5]])
    with pytest.raises(ValueError):
        IntMatrix.from_col_dicts(2, [{2: 1}])
    with pytest.raises(ValueError):
        IntMatrix(2, 2, {(0, 2): 1})
    m = IntMatrix(2, 3, {(0, 0): Fraction(4, 2), (1, 0): 0, (1, 1): 3.0, (0, 2): Fraction(0)})
    assert m.col_dicts == [{0: 2}, {1: 3}, {}]
    assert all(type(v) is int for col in m.col_dicts for v in col.values())
    assert IntMatrix.from_col_dicts(2, [{0: 0, 1: -4}]).col_dicts == [{1: -4}]
    assert smith_normal_form(m).invariant_factors == (1, 6)


def test_entries_is_a_read_only_view_of_the_columns():
    m = IntMatrix.from_col_dicts(3, [{2: 5}, {}, {0: -1, 1: 2}])
    assert dict(m.entries) == {(2, 0): 5, (0, 2): -1, (1, 2): 2}
    assert m == IntMatrix(3, 3, m.entries)
    with pytest.raises(TypeError):
        m.entries[(0, 0)] = 1
    with pytest.raises(AttributeError):
        m.entries = {}
    assert m.row_dicts() == [{2: -1}, {2: 2}, {0: 5}]
    assert m.transpose() == IntMatrix(3, 3, {(j, i): v for (i, j), v in m.entries.items()})


def _sparse_solver(m):
    """``b -> x`` with M x = b, or None, from one reference elimination
    kept sparse: y = U b must vanish off the pivot rows and d_k must
    divide y at pivot row k; then x sums the pivot columns of V weighted
    by y / d_k."""
    pivots, prow, pcol, urows, vcols = _reference_eliminate(m.row_dicts(), m.rows, m.cols, True)

    def solve(b):
        y = [sum(v * b[j] for j, v in row.items()) for row in urows]
        x = [0] * m.cols
        for d, i, j in zip(pivots, prow, pcol):
            q, rem = divmod(y[i], d)
            if rem:
                return None
            y[i] = 0
            for t, v in vcols[j].items():
                x[t] += v * q
        return None if any(y) else x

    return solve


def _reference_classes(complex_, degree):
    """The general ker/im reader, kept as the oracle for the top-degree
    ``HomologyClasses``: a kernel basis K of d_degree, the columns of
    d_(degree+1) solved in K as relations, and a class read off the
    relation SNF.  Returns ``(betti, torsion, coords)`` where
    ``coords(cycle)`` is the pair (free coordinates, torsion coordinates)
    and raises ``ValueError`` off the kernel lattice."""
    kernel = kernel_basis(complex_.boundary(degree))
    k = len(kernel)
    in_kernel = _sparse_solver(IntMatrix.from_columns(complex_.dim(degree), kernel))
    rel = IntMatrix.from_columns(
        k, [in_kernel(col) for col in dense_columns(complex_.boundary(degree + 1))]
    )
    factors, prow, _, urows, _ = _reference_eliminate(rel.row_dicts(), rel.rows, rel.cols, True)
    pivot_rows = set(prow)
    free_rows = [i for i in range(k) if i not in pivot_rows]

    def coords(cycle):
        a = in_kernel(list(cycle))
        if a is None:
            raise ValueError("not a cycle (or not in the kernel lattice)")
        # w = U a: free coordinates at the relation SNF's non-pivot rows,
        # torsion coordinates at its pivot rows
        w = [sum(v * a[j] for j, v in row.items()) for row in urows]
        return (
            tuple(w[i] for i in free_rows),
            tuple(w[i] % d for d, i in zip(factors, prow) if d > 1),
        )

    return k - len(factors), tuple(d for d in factors if d > 1), coords


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_homology_coords_match_dense_reference(seed):
    """H_1 of 0 <- C_0 <- C_1 <- C_2 with d_2 = K R for a kernel basis K of
    d_1 and a random R, so H_1 = Z^k / R Z^p carries R's torsion.  A
    middle degree, so the general reader answers it."""
    rng = random.Random(seed)
    n0, n1, n2 = rng.randint(1, 3), rng.randint(1, 6), rng.randint(0, 5)
    d1 = _random_matrix(rng, n0, n1, bound=3)
    kernel = _ref_kernel_basis(d1)
    r = _random_matrix(rng, len(kernel), n2, bound=3)
    d2 = IntMatrix.from_columns(
        n1,
        [
            [sum(kernel[t][i] * col[t] for t in range(len(kernel))) for i in range(n1)]
            for col in dense_columns(r)
        ],
    )
    cx = ChainComplex({0: range(n0), 1: range(n1), 2: range(n2)}, {1: d1, 2: d2})
    betti, torsion, coords = _reference_classes(cx, 1)
    factors, _, _ = _dense_snf(r)
    assert betti == len(kernel) - len(factors)
    assert torsion == tuple(d for d in factors if d > 1)
    for _ in range(4):
        a = [rng.randint(-4, 4) for _ in kernel]
        cycle = [sum(kernel[t][i] * a[t] for t in range(len(kernel))) for i in range(n1)]
        assert coords(cycle) == _ref_coords(cx, 1, cycle)
    chain = [rng.randint(-3, 3) for _ in range(n1)]
    want = _ref_coords(cx, 1, chain)
    if want is None:
        with pytest.raises(ValueError):
            coords(chain)
    else:
        assert coords(chain) == want


# ---------------------------------------------------------------------------
# Top-degree classes.  ``HomologyClasses`` reads a cycle's coordinates off
# one reduction of the top boundary; the general reader above is its oracle.


def _assert_classes_match_reference(complex_, degree, cycles):
    classes = HomologyClasses(complex_, degree)
    betti, torsion, coords = _reference_classes(complex_, degree)
    assert classes.betti == betti and torsion == ()
    for cycle in cycles:
        assert classes.coords(cycle) == coords(cycle)[0]
    return classes


def _top_complex(d1):
    return ChainComplex({0: range(d1.rows), 1: range(d1.cols)}, {1: d1})


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_top_degree_classes_match_reference(seed):
    """0 <- C_0 <- C_1 <- 0 with a random d_1, redrawn until its reduction
    retires every pivot in the unit phase; cycles are K a for the kernel
    basis K, and an arbitrary chain is a cycle for both readers or for
    neither."""
    rng = random.Random(seed)
    while True:
        d1 = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 7), bound=2)
        snf = smith_normal_form(d1, want_transforms=True)
        if snf.units == snf.rank:
            break
    kernel = kernel_basis(d1)
    cycles = []
    for _ in range(4):
        a = [rng.randint(-4, 4) for _ in kernel]
        cycles.append([sum(col[i] * q for col, q in zip(kernel, a)) for i in range(d1.cols)])
    chain = [rng.randint(-3, 3) for _ in range(d1.cols)]
    is_cycle = not any(d1.mul_vec(chain))
    if is_cycle:
        cycles.append(chain)
    classes = _assert_classes_match_reference(_top_complex(d1), 1, cycles)
    if not is_cycle:
        with pytest.raises(ValueError):
            classes.coords(chain)


def _scene(name):
    return cli.Scene(json.loads((cli.corpus_dir() / f"{name}.json").read_text()))


def test_top_degree_classes_match_reference_on_pt_apartments():
    """Every region's apartment in the PT bicomplex of the coordinate S^3."""
    scene = _scene("s3_coordinate")
    coll, _ = scene.collection()
    poset, basis = scene.arrangement(None)
    tri = sphere_triangulation(coll, poset)
    bic = pt_bicomplex(coll, tri)
    cycles = [grp.apartment_cycle_pt_spherical(s, coll, tri, bic) for s in basis]
    assert len(cycles) == 16
    _assert_classes_match_reference(bic, 3, cycles)


@pytest.mark.parametrize("name", ["e2_four_lines", "h2_triangle"])
def test_top_degree_classes_match_reference_on_st_apartments(name):
    """Every bounded region's apartment in the relative ST complex."""
    scene = _scene(name)
    coll, _ = scene.collection()
    poset, basis = scene.arrangement(None)
    st_model = grp.STModel(coll.members, coll.top())
    cycles = [grp.apartment_cycle_cell(poset, s, st_model) for s in basis]
    assert cycles
    _assert_classes_match_reference(st_model.complex, 2, cycles)


def _hollow_triangle():
    """Vertices 0, 1, 2 and edges 01, 02, 12: H_1 = Z, spanned by
    01 - 02 + 12."""
    return face_complex({0: [(0,), (1,), (2,)], 1: [(0, 1), (0, 2), (1, 2)]})


def test_top_degree_classes_refuse_non_cycles():
    """A chain off the kernel raises, also one that agrees with a cycle at
    every non-pivot column."""
    classes = HomologyClasses(_hollow_triangle(), 1)
    assert classes.betti == 1
    cycle = [1, -1, 1]
    (a,) = classes.coords(cycle)
    assert abs(a) == 1
    for j in range(3):
        chain = list(cycle)
        chain[j] += 1
        with pytest.raises(ValueError):
            classes.coords(chain)


def test_top_degree_classes_refuse_lower_degrees():
    with pytest.raises(AssertionError):
        HomologyClasses(_hollow_triangle(), 0)


def test_top_degree_classes_refuse_phase_b_pivots():
    """d_1 = [[2, 3]] holds no +-1 entry, so phase B retires its only
    pivot, and V's non-pivot column need not be e_j plus pivot entries."""
    d1 = IntMatrix(1, 2, {(0, 0): 2, (0, 1): 3})
    snf = smith_normal_form(d1, want_transforms=True)
    assert (snf.units, snf.rank) == (0, 1)
    with pytest.raises(AssertionError):
        HomologyClasses(_top_complex(d1), 1)


def _reference_eliminate(rows, m, n, want_transforms):
    """``eliminate`` as a sorted rescan of the whole active matrix for
    every pivot, kept as the oracle for the kernel's pivot heaps: with
    transforms the kernel returns the same pivots, positions and sparse
    U/V; rank-only it returns the same invariant factors.
    """
    cols = [set() for _ in range(n)]
    for i in range(m):
        for j in rows[i]:
            cols[j].add(i)

    if want_transforms:
        urows = [{i: 1} for i in range(m)]
        vcols = [{j: 1} for j in range(n)]
    else:
        urows = None
        vcols = None

    active_rows = set(i for i in range(m) if rows[i])
    pivots = []
    pivot_rows = []
    pivot_cols = []

    def row_axpy(i, ip, q):
        # row_i -= q * row_ip
        if q == 0:
            return
        target = rows[i]
        for j, v in rows[ip].items():
            w = target.get(j, 0) - q * v
            if w:
                target[j] = w
                cols[j].add(i)
            elif j in target:
                del target[j]
                cols[j].discard(i)
        if urows is not None:
            tu = urows[i]
            for j, v in urows[ip].items():
                w = tu.get(j, 0) - q * v
                if w:
                    tu[j] = w
                elif j in tu:
                    del tu[j]

    def col_axpy(j, jp, q):
        # col_j -= q * col_jp
        if q == 0:
            return
        for i in list(cols[jp]):
            v = rows[i][jp]
            w = rows[i].get(j, 0) - q * v
            if w:
                rows[i][j] = w
                cols[j].add(i)
            elif j in rows[i]:
                del rows[i][j]
                cols[j].discard(i)
        if vcols is not None:
            tv = vcols[j]
            for i2, v in vcols[jp].items():
                w = tv.get(i2, 0) - q * v
                if w:
                    tv[i2] = w
                elif i2 in tv:
                    del tv[i2]

    def negate_row(i):
        for j in rows[i]:
            rows[i][j] = -rows[i][j]
        if urows is not None:
            for j in urows[i]:
                urows[i][j] = -urows[i][j]

    def retire(i0, j0):
        d = rows[i0][j0]
        if d < 0:
            negate_row(i0)
            d = -d
        pivots.append(d)
        pivot_rows.append(i0)
        pivot_cols.append(j0)
        del rows[i0][j0]
        cols[j0].discard(i0)
        active_rows.discard(i0)

    # Phase A: +-1 pivots, cheapest fill first.
    while True:
        best = None
        for i in sorted(active_rows):
            ri = rows[i]
            rlen = len(ri)
            for j in sorted(ri):
                v = ri[j]
                if v == 1 or v == -1:
                    cost = (rlen - 1) * (len(cols[j]) - 1)
                    key = (cost, i, j)
                    if best is None or key < best:
                        best = key
        if best is None:
            break
        _, i0, j0 = best
        p = rows[i0][j0]
        for i in list(cols[j0]):
            if i != i0:
                row_axpy(i, i0, rows[i][j0] * p)  # p in {1,-1}: q = v/p = v*p
        for j in list(rows[i0]):
            if j != j0:
                col_axpy(j, j0, rows[i0][j] * p)
        retire(i0, j0)

    # Phase B: general pivots with divisibility enforcement.
    while True:
        best = None
        for i in sorted(active_rows):
            ri = rows[i]
            for j in sorted(ri):
                key = (abs(ri[j]), i, j)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        _, i0, j0 = best
        while True:
            p = rows[i0][j0]
            for i in list(cols[j0]):
                if i != i0:
                    row_axpy(i, i0, rows[i][j0] // p)
            for j in list(rows[i0]):
                if j != j0:
                    col_axpy(j, j0, rows[i0][j] // p)
            # Floor-division remainders may survive; the smallest of them
            # becomes the better pivot and the loop shrinks |p| strictly.
            if any(i != i0 for i in cols[j0]) or any(j != j0 for j in rows[i0]):
                p_abs = abs(rows[i0][j0])
                cand = None
                for i in sorted(active_rows):
                    for j in sorted(rows[i]):
                        if abs(rows[i][j]) < p_abs:
                            cand = (i, j)
                            p_abs = abs(rows[i][j])
                if cand is not None:
                    i0, j0 = cand
                continue
            p = rows[i0][j0]
            offender = None
            for i in sorted(active_rows):
                if i == i0:
                    continue
                for j in sorted(rows[i]):
                    if rows[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_axpy(i0, offender, -1)  # fold offending row into pivot row
        retire(i0, j0)

    return pivots, pivot_rows, pivot_cols, urows, vcols


def _assert_matches_reference(m):
    """Certificate calls match the reference in every output but U, which
    the kernel does not keep: pivots, positions and sparse V.  Rank-only
    calls pin only the invariant factors: their pivots may sit elsewhere,
    at distinct rows and columns in range."""
    pivots, prow, pcol, _, vcols = _reference_eliminate(m.row_dicts(), m.rows, m.cols, True)
    assert eliminate(m.row_dicts(), m.rows, m.cols, True)[:4] == (pivots, prow, pcol, vcols)
    factors, prow, pcol, vcols, _ = eliminate(m.row_dicts(), m.rows, m.cols, False)
    assert factors == pivots
    assert vcols is None
    assert len(set(prow)) == len(set(pcol)) == len(pivots)
    assert all(0 <= i < m.rows for i in prow) and all(0 <= j < m.cols for j in pcol)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_eliminate_matches_sorted_reference(seed):
    rng = random.Random(seed)
    for scale in (1, 2, 3, 6):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        density = rng.choice((0.3, 0.7, 1.0))
        _assert_matches_reference(IntMatrix(rows, cols, {
            (i, j): scale * rng.randint(-5, 5)
            for i in range(rows) for j in range(cols) if rng.random() < density
        }))


def _workload_complex(model):
    if model == "s3_coordinate pt":
        return cli.homology_model(_scene("s3_coordinate"), "pt")[0]
    if model == "s3_four_generic pt":
        path = pathlib.Path(__file__).resolve().parent / "scenes" / "s3_four_generic.json"
        return cli.homology_model(cli.Scene(json.loads(path.read_text())), "pt")[0]
    return resolution.build_resolution(4)[0]


@pytest.mark.parametrize("model", ["s3_coordinate pt", "s3_four_generic pt", "resolution 4"])
def test_eliminate_matches_sorted_reference_on_workload_boundaries(model):
    """The boundaries the benchmark workloads reduce: the PT bicomplexes
    of the coordinate S^3 (up to 1248 x 720) and of the pinned generic
    S^3 that the s3_generic workload verifies, and the ordered resolution
    of a 4-region basis."""
    complex_ = _workload_complex(model)
    for d in complex_.support():
        _assert_matches_reference(complex_.boundary(d))


# A 6-vertex triangulation of RP^2: reduced homology Z/2 in degree 1.
RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
       (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]
# Its suspension, with apexes 6 and 7: Z/2 in degree 2.
SUSPENDED_RP2 = [f + (apex,) for apex in (6, 7) for f in RP2]


def _simplicial(facets):
    """Simplicial chains on the closure of ``facets``, with the empty
    simplex in degree -1 so that homology is reduced."""
    simplices = {()}
    for f in facets:
        for r in range(1, len(f) + 1):
            simplices.update(itertools.combinations(f, r))
    degrees = {}
    for s in simplices:
        degrees.setdefault(len(s) - 1, []).append(s)
    return face_complex({d: sorted(v) for d, v in degrees.items()})


def _change_bases(complex_, rng, steps):
    """The same complex in random bases.  Each step takes an elementary
    unimodular E on one chain group C_d (a sign flip, or I + q e_a e_b^T)
    and replaces d_d by d_d E and d_(d+1) by E^-1 d_(d+1)."""
    mats = {d: dense(complex_.boundary(d)) for d in complex_.support()}
    for _ in range(steps):
        d = rng.choice(complex_.support())
        size = complex_.dim(d)
        if size < 2:
            continue
        a, b = rng.sample(range(size), 2)
        q = rng.choice((-2, -1, 1, 2, None))
        up = mats.get(d + 1)
        if q is None:
            for row in mats[d]:
                row[a] = -row[a]
            if up is not None:
                up[a] = [-x for x in up[a]]
            continue
        for row in mats[d]:
            row[b] += q * row[a]
        if up is not None:
            up[a] = [x - q * y for x, y in zip(up[a], up[b])]
    boundaries = {
        d: IntMatrix(complex_.dim(d - 1), complex_.dim(d),
                     {(i, j): v for i, row in enumerate(m) for j, v in enumerate(row)})
        for d, m in mats.items()
    }
    return ChainComplex(complex_.degrees, boundaries)


# ---------------------------------------------------------------------------
# Clearing.  ``homology`` reduces boundaries top-down and drops the columns
# of d_k at the rows where the unit phase of d_(k+1)'s reduction retired a
# pivot.  The oracle is the uncleared bottom-up loop, every boundary whole.


def _reference_homology(complex_):
    ranks = {}
    tors = {}
    for d in complex_.support():
        snf = smith_normal_form(complex_.boundary(d))
        ranks[d] = snf.rank
        tors[d] = snf.torsion
    return {
        d: (complex_.dim(d) - ranks.get(d, 0) - ranks.get(d + 1, 0), tors.get(d + 1, ()))
        for d in complex_.support()
    }


def _assert_clearing_matches_reference(complex_):
    assert homology(complex_).by_degree == _reference_homology(complex_)


@pytest.mark.parametrize("facets, degree", [(RP2, 1), (SUSPENDED_RP2, 2)])
def test_rank_only_torsion_survives_changes_of_basis(facets, degree):
    """Rank-only elimination finds the Z/2 of RP^2 and of its suspension
    in scrambled bases, with the reference's invariant factors in every
    degree, and clearing keeps the uncleared homology."""
    base = _simplicial(facets)
    for seed in range(3):
        complex_ = _change_bases(base, random.Random(seed), steps=40)
        h = homology(complex_)
        assert {d: v for d, v in h.by_degree.items() if v != (0, ())} == {degree: (0, (2,))}
        assert h.by_degree == _reference_homology(complex_)
        for d in complex_.support():
            b = complex_.boundary(d)
            assert (eliminate(b.row_dicts(), b.rows, b.cols, False)[0]
                    == _reference_eliminate(b.row_dicts(), b.rows, b.cols, True)[0])


def test_clearing_skips_phase_b_pivot_rows():
    """0 <- Z <- Z^2 <- Z <- 0 with d_2 = [[2], [3]] and d_1 = [[3, -2]] is
    exact.  d_2's reduction retires 1 at row 1 in phase B, from the
    remainder 3 - 2; dropping column 1 of d_1 would leave (3), a false
    Z/3 in H_0."""
    d1 = IntMatrix(1, 2, {(0, 0): 3, (0, 1): -2})
    d2 = IntMatrix(2, 1, {(0, 0): 2, (1, 0): 3})
    snf = smith_normal_form(d2)
    assert (snf.invariant_factors, snf.pivot_rows, snf.units) == ((1,), (1,), 0)
    cx = ChainComplex({0: ["v"], 1: ["a", "b"], 2: ["t"]}, {1: d1, 2: d2})
    assert homology(cx).by_degree == {0: (0, ()), 1: (0, ()), 2: (0, ())}
    _assert_clearing_matches_reference(cx)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from(RP2),
                  st.sets(st.integers(0, 6), min_size=1, max_size=4).map(sorted).map(tuple)),
        min_size=1, max_size=10,
    ),
    st.integers(0, 10**6),
)
def test_clearing_matches_reference_on_scrambled_simplicial_complexes(facets, seed):
    complex_ = _change_bases(_simplicial(facets), random.Random(seed), steps=30)
    _assert_clearing_matches_reference(complex_)


@pytest.mark.parametrize("ordered", [True, False])
def test_clearing_matches_reference_on_resolutions(ordered):
    for size in range(6):
        _assert_clearing_matches_reference(resolution.build_resolution(size, ordered=ordered)[0])


def _fraction_eliminate(rows, pivot_rows, pivot_cols):
    """Gaussian elimination over ``Fraction`` on sparse rows (dict of row
    index -> dict of column -> value), pivoting only inside
    pivot_rows x pivot_cols, in an order of its own (columns ascending,
    shortest row first).  Returns |det| of that minor and the rows left,
    which hold its Schur complement."""
    rows = {i: {j: Fraction(v) for j, v in r.items()} for i, r in rows.items()}
    free_rows = set(pivot_rows)
    det = Fraction(1)
    for j in sorted(pivot_cols):
        i = min((i for i in free_rows if rows[i].get(j)), key=lambda i: (len(rows[i]), i),
                default=None)
        if i is None:
            return 0, rows
        free_rows.remove(i)
        prow = rows.pop(i)
        p = prow[j]
        det *= p
        for r in rows.values():
            q = r.get(j)
            if q:
                f = q / p
                for c, v in prow.items():
                    w = r.get(c, 0) - f * v
                    if w:
                        r[c] = w
                    else:
                        del r[c]
    return abs(det), rows


def _unit_minor(m, want_transforms):
    """The SNF of ``m`` and, from ``_fraction_eliminate`` on the whole of
    ``m``, |det| of its minor at the unit phase's pivots and the Schur
    complement left."""
    snf = smith_normal_form(m, want_transforms=want_transforms)
    return snf, *_fraction_eliminate(dict(enumerate(m.row_dicts())),
                                     snf.pivot_rows[: snf.units], snf.pivot_cols[: snf.units])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_unit_pivots_carry_a_unimodular_minor(seed):
    """On random matrices the input's minor at the first ``units`` pivots
    has determinant +-1, and they are all of phase A's: the Schur
    complement left holds no +-1 entry, so phase A could not go on."""
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    density = rng.choice((0.3, 0.7, 1.0))
    m = IntMatrix(rows, cols, {
        (i, j): rng.choice((1, 1, 2, 3)) * rng.randint(-4, 4)
        for i in range(rows) for j in range(cols) if rng.random() < density
    })
    for want_transforms in (True, False):
        snf, det, rows_left = _unit_minor(m, want_transforms)
        assert det == 1
        assert snf.invariant_factors[: snf.units] == (1,) * snf.units
        assert all(abs(v) != 1 for r in rows_left.values() for v in r.values())


@pytest.mark.parametrize("model", ["s3_coordinate pt", "resolution 4"])
def test_unit_pivots_carry_a_unimodular_minor_on_workload_boundaries(model):
    complex_ = _workload_complex(model)
    for d in complex_.support():
        b = complex_.boundary(d)
        for want_transforms in (True, False):
            snf, det, _ = _unit_minor(b, want_transforms)
            assert det == 1 and snf.units == snf.rank
