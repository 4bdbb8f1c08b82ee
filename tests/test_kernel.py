import itertools
import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from geotits import cli, resolution
from geotits import groups as grp
from geotits._kernel import PINNED, RANK, IntMatrix, lattice_contains, smith_normal_form
from geotits._kernel import elim_py
from geotits._kernel.elim_py import MODES, eliminate
from geotits.complexes import (
    ChainComplex,
    HomologyClasses,
    STModel,
    face_complex,
    homology,
    pt_bicomplex,
    sphere_triangulation,
)
from conftest import (
    Budget,
    dense_columns,
    dense_snf,
    dense_vector,
    lattices_equal,
    reference_eliminate,
    reference_entry_heap_eliminate,
    reference_kernel_basis,
    sparse_vector,
)


def _mul(m, x):
    """M x for a dense vector x, as a dense list (through ``apply``)."""
    out = m.apply(sparse_vector(x))
    return [out.get(i, 0) for i in range(m.rows)]


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
    """The reference elimination's U M V is the diagonal form, whose
    pivots are the kernel's invariant factors."""
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
        pivots, prow, pcol, urows, vcols = reference_eliminate(m.row_dicts(), rows, cols, True)
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
        assert smith_normal_form(m).invariant_factors == tuple(pivots)


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
        b = _mul(m, x0)
        assert lattice_contains(m, [sparse_vector(b)])
        x = _ref_solve(m, b)
        assert x is not None and _mul(m, x) == b
        for col in reference_kernel_basis(m):
            assert not m.apply(sparse_vector(col))


def test_solve_unsolvable():
    m = IntMatrix(1, 1, {(0, 0): 2})
    assert not lattice_contains(m, [{0: 1}])
    assert _ref_solve(m, [1]) is None
    assert lattice_contains(m, [{0: 4}, {}])
    assert _ref_solve(m, [4]) == [2]


def test_lattice_equality():
    a = [[2, 0], [0, 3]]
    b = [[2, 3], [4, 3]]
    assert lattices_equal(a, b, 2)
    assert not lattices_equal(a, [[1, 0]], 2)
    assert lattice_contains(IntMatrix.from_columns(2, a), [{0: 2, 1: 3}])


# ---------------------------------------------------------------------------
# Solving and homology coordinates read off the diagonal form of the dense
# reference (``conftest.dense_snf``).


def _ref_solve(m, b):
    """One integer solution x of M x = b, or None: with y = U b, M x = b
    is solvable exactly when d_k divides y_k for k < rank and y vanishes
    below."""
    factors, u, v = dense_snf(m)
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
    kernel = reference_kernel_basis(complex_.boundary(degree))
    k = len(kernel)
    kmat = IntMatrix.from_columns(complex_.dim(degree), kernel)
    rel = IntMatrix.from_columns(
        k, [_ref_solve(kmat, col) for col in dense_columns(complex_.boundary(degree + 1))]
    )
    a = _ref_solve(kmat, list(cycle))
    if a is None:
        return None
    factors, u, _ = dense_snf(rel)
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
    factors, _, _ = dense_snf(m)
    assert list(smith_normal_form(m).invariant_factors) == factors
    kernel = reference_kernel_basis(m)
    assert len(kernel) == m.cols - len(factors)
    assert all(not m.apply(sparse_vector(col)) for col in kernel)
    solvable = _mul(m, [rng.randint(-4, 4) for _ in range(m.cols)])
    arbitrary = [rng.randint(-6, 6) for _ in range(m.rows)]
    for b in (solvable, arbitrary, [0] * m.rows):
        x = _ref_solve(m, b)
        assert lattice_contains(m, [sparse_vector(b)]) == (x is not None)
        if x is not None:
            assert _mul(m, x) == b
    assert lattice_contains(m, [sparse_vector(solvable)])


# ---------------------------------------------------------------------------
# Lattice answers.  ``lattice_contains`` and ``GroupHom.well_defined``
# compare ranks and products of invariant factors of rank-only reductions,
# as the oracle ``conftest.lattices_equal`` does on the reference
# elimination; the reference solves every vector on that elimination's U
# and V.


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
        assert lattice_contains(m, [sparse_vector(v) for v in vectors]) == want
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
    images = [_mul(hom, r) for r in dense(dom_rel)]
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
    kern = reference_kernel_basis(a)
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
    pivots, prow, pcol, urows, vcols = reference_eliminate(m.row_dicts(), m.rows, m.cols, True)

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
    and raises ``ValueError`` off the kernel lattice.  Every step runs on
    the reference elimination, none on the kernel it checks."""
    kernel = reference_kernel_basis(complex_.boundary(degree))
    k = len(kernel)
    in_kernel = _sparse_solver(IntMatrix.from_columns(complex_.dim(degree), kernel))
    rel = IntMatrix.from_columns(
        k, [in_kernel(col) for col in dense_columns(complex_.boundary(degree + 1))]
    )
    factors, prow, _, urows, _ = reference_eliminate(rel.row_dicts(), rel.rows, rel.cols, True)
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
    kernel = reference_kernel_basis(d1)
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
    factors, _, _ = dense_snf(r)
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
        assert classes.coords(cycle) == coords(dense_vector(cycle, complex_.dim(degree)))[0]
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
        snf = smith_normal_form(d1, PINNED)
        if snf.units == snf.rank:
            break
    kernel = reference_kernel_basis(d1)
    cycles = []
    for _ in range(4):
        a = [rng.randint(-4, 4) for _ in kernel]
        cycles.append(sparse_vector(
            [sum(col[i] * q for col, q in zip(kernel, a)) for i in range(d1.cols)]))
    chain = sparse_vector([rng.randint(-3, 3) for _ in range(d1.cols)])
    is_cycle = not d1.apply(chain)
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
    st_model = STModel(coll.members, coll.top())
    cycles = grp.cell_apartments(poset, basis, st_model)
    assert cycles
    _assert_classes_match_reference(st_model.complex, 2, cycles)


def _hollow_triangle():
    """Vertices 0, 1, 2 and edges 01, 02, 12: H_1 = Z, spanned by
    01 - 02 + 12."""
    return face_complex({0: [(0,), (1,), (2,)], 1: [(0, 1), (0, 2), (1, 2)]})


def test_top_degree_classes_refuse_non_cycles():
    """A chain off the kernel raises, also one that agrees with a cycle at
    every non-pivot column, and so does a position outside the degree."""
    classes = HomologyClasses(_hollow_triangle(), 1)
    assert classes.betti == 1
    cycle = {0: 1, 1: -1, 2: 1}
    (a,) = classes.coords(cycle)
    assert abs(a) == 1
    for j in range(3):
        with pytest.raises(ValueError, match="not a cycle"):
            classes.coords({**cycle, j: cycle[j] + 1})
    for j in (-1, 3):
        with pytest.raises(ValueError, match="outside"):
            classes.coords({**cycle, j: 1})


def test_top_degree_classes_refuse_lower_degrees():
    with pytest.raises(AssertionError):
        HomologyClasses(_hollow_triangle(), 0)


def test_top_degree_classes_refuse_phase_b_pivots():
    """d_1 = [[2, 3]] holds no +-1 entry, so phase B retires its only
    pivot, and V's non-pivot column need not be e_j plus pivot entries."""
    d1 = IntMatrix(1, 2, {(0, 0): 2, (0, 1): 3})
    snf = smith_normal_form(d1, PINNED)
    assert (snf.units, snf.rank) == (0, 1)
    with pytest.raises(AssertionError):
        HomologyClasses(_top_complex(d1), 1)


def _entry_heap_positions(m):
    """(pivots, pivot rows, pivot columns, units) of the heap with one key
    per +-1 entry."""
    pivots, prow, pcol, _, units = reference_entry_heap_eliminate(m.row_dicts(), m.rows, m.cols)
    return pivots, prow, pcol, units


def _assert_matches_reference(m):
    """``PINNED`` calls match the sorted reference in pivots and positions,
    and the heap with one key per +-1 entry in those and ``units``.
    ``RANK`` calls pin only the invariant factors: their pivots may sit
    elsewhere, at distinct rows and columns in range."""
    pivots, prow, pcol, _, _ = reference_eliminate(m.row_dicts(), m.rows, m.cols, False)
    got = eliminate(m.row_dicts(), m.rows, m.cols, PINNED)
    assert got[:3] == (pivots, prow, pcol)
    assert got == _entry_heap_positions(m)
    factors, prow, pcol, _ = eliminate(m.row_dicts(), m.rows, m.cols, RANK)
    assert factors == pivots
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


def test_column_keys_match_entry_heap_on_s4_coordinate():
    """The certificate matrix of S^4 cut by its 5 coordinate hyperplanes:
    d_4 of the PT bicomplex, 16680 x 7440."""
    path = pathlib.Path(__file__).resolve().parent / "scenes" / "s4_coordinate.json"
    with Budget("kernel", "S^4 coordinate d_4, column keys against entry heap", 30):
        d4 = cli.homology_model(cli.Scene(json.loads(path.read_text())), "pt")[0].boundary(4)
        assert (d4.rows, d4.cols) == (16680, 7440)
        got = eliminate(d4.row_dicts(), d4.rows, d4.cols, PINNED)
        assert got == _entry_heap_positions(d4)


def _pinned_case(rng):
    """Row dicts of a random m x n matrix, m, n <= 80: sparse or dense,
    with entries from one of three value sets (the last has no +-1, so
    phase A pivots nowhere), rows that sum two earlier rows (row
    operations cancel there), and some rows and columns emptied, cut to
    one entry or set to a single +-1 (cost-0 keys, tied on the cost)."""
    m, n = rng.randint(1, 80), rng.randint(1, 80)
    density = rng.choice((0.03, 0.08, 0.15, 0.3))
    values = rng.choice(((1, -1), (1, -1, 1, -1, 2, -2, 3), (2, -2, 3)))
    rows = [{j: rng.choice(values) for j in range(n) if rng.random() < density}
            for _ in range(m)]
    for i in range(2, m):
        if rng.random() < 0.15:
            a, b = rng.sample(range(i), 2)
            row = dict(rows[a])
            for j, v in rows[b].items():
                row[j] = row.get(j, 0) + v
            rows[i] = {j: v for j, v in row.items() if v}
    for _ in range(rng.randint(0, 3)):
        j = rng.randrange(n)
        keep = rng.choice([None] + [i for i in range(m) if j in rows[i]])
        for i in range(m):
            if i != keep:
                rows[i].pop(j, None)
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(m)
        rows[i] = rng.choice(({}, {rng.randrange(n): rng.choice((1, -1))}))
    return rows, m, n


@pytest.mark.parametrize("seed", range(6))
def test_column_keys_match_entry_heap_on_random_matrices(seed):
    """``PINNED`` against the heap with one key per +-1 entry: the same
    pivots, pivot rows, pivot columns and ``units`` on 50 random
    matrices per seed."""
    rng = random.Random(f"column keys/{seed}")
    for _ in range(50):
        rows, m, n = _pinned_case(rng)
        want = reference_entry_heap_eliminate([dict(r) for r in rows], m, n)
        got = eliminate([dict(r) for r in rows], m, n, PINNED)
        assert got == (*want[:3], want[4])


def test_column_keys_break_cost_ties_by_row_then_column():
    """Rows of length 1 key their columns at cost 0: the least row goes
    first, then the least column.  Column 1 has length 2 but its rows
    have length 1 too, so it ties at cost 0 with the singleton columns."""
    rows = [{3: 1}, {1: -1}, {0: 1}, {1: 1}, {2: -1}]
    want = reference_entry_heap_eliminate([dict(r) for r in rows], 5, 4)
    got = eliminate([dict(r) for r in rows], 5, 4, PINNED)
    assert (got[1], got[2]) == (want[1], want[2]) == ([0, 1, 2, 4], [3, 1, 0, 2])
    assert got[0] == [1, 1, 1, 1] and got[3] == 4


def test_column_keys_leave_a_matrix_without_a_unit_entry_to_phase_b():
    rows = [{0: 2, 1: 3}, {0: 4, 2: -2}, {}, {1: 6}]
    want = reference_entry_heap_eliminate([dict(r) for r in rows], 4, 4)
    got = eliminate([dict(r) for r in rows], 4, 4, PINNED)
    assert got[3] == want[4] == 0
    assert got[:3] == want[:3] and got[0] == [1, 2, 12]


# ---------------------------------------------------------------------------
# The pinned order's work.  A column is scanned again only when its best
# row (the shortest row with a +-1 there, ties to the least index) left
# it, lost its +-1 there, or got longer.


def _logged_scans(monkeypatch):
    """Log each column scan after the first pop of the pinned heap,
    with the least (row length, row) over every column's +-1 entries at
    the last pop, and whether the scan was justified by that pair."""
    log = []
    state = {"rows": None, "best": None}
    original_scan, original_pop = elim_py._least_unit_row, elim_py.heappop

    def pop(heap):
        best = {}
        for i, row in enumerate(state["rows"]):
            for j, v in row.items():
                if v == 1 or v == -1:
                    best[j] = min(best.get(j, (len(row), i)), (len(row), i))
        state["best"] = best
        log.append(("pop", None, None))
        return original_pop(heap)

    def scan(rows, col, j):
        if state["rows"] is None:
            state["rows"] = rows
        if state["best"] is not None:
            pair = state["best"].get(j)
            ok = pair is not None
            if ok:
                r, i = pair
                v = rows[i].get(j)
                ok = (v != 1 and v != -1) or len(rows[i]) > r
            log.append(("scan", j, ok))
        return original_scan(rows, col, j)

    monkeypatch.setattr(elim_py, "_least_unit_row", scan)
    monkeypatch.setattr(elim_py, "heappop", pop)
    return log


def test_a_column_is_scanned_again_only_when_its_best_row_moved(monkeypatch):
    """Block one: the pivot at (0, 0) leaves row 1 = {2: 1}, shorter and
    still the best row of column 2, and retires row 0, the best row of
    column 1 (scan 1).  Block two: the pivot at (3, 4) retires row 3,
    the best row of columns 5 and 6, and makes row 4, the best row of
    column 7, longer (scans 5, 6 and 7); the pivot at (4, 7) then moves
    no best row.  Rows 2, 5 and 6 are left to phase B."""
    log = _logged_scans(monkeypatch)
    rows = [
        {0: 1, 1: 1}, {0: 1, 1: 1, 2: 1}, {2: 2, 3: 2},
        {4: 1, 5: 1, 6: 1}, {4: 2, 7: 1, 8: 2}, {5: 2, 6: 2}, {7: 3},
    ]
    want = reference_entry_heap_eliminate([dict(r) for r in rows], 7, 9)
    got = eliminate(rows, 7, 9, PINNED)
    assert got == (*want[:3], want[4])
    assert got[1][:4] == [0, 1, 3, 4] and got[2][:4] == [0, 2, 4, 7] and got[3] == 4
    scans = []
    for kind, j, _ in log:
        if kind == "pop":
            scans.append([])
        else:
            scans[-1].append(j)
    assert [sorted(s) for s in scans if s] == [[1], [5, 6, 7]]
    assert all(ok for kind, _, ok in log if kind == "scan")


@pytest.mark.parametrize("seed", range(3))
def test_random_rescans_are_justified(monkeypatch, seed):
    """On random matrices every column scan after the first pop finds
    that the column's best row at the last pop left it, lost its +-1
    there, or got longer."""
    rng = random.Random(f"rescans/{seed}")
    for _ in range(20):
        rows, m, n = _pinned_case(rng)
        with monkeypatch.context() as patch:
            log = _logged_scans(patch)
            eliminate(rows, m, n, PINNED)
        assert all(ok for kind, _, ok in log if kind == "scan")


# ---------------------------------------------------------------------------
# The rank-only sweep.  A row without a +-1 entry is set aside
# and scanned again only once a row operation has changed it.


def _second_look_rows():
    """Row 0 holds no +-1 until row 1's pivot at (1, 0) subtracts 2 row 1
    from it, leaving {1: 1}; the determinant is 2 - 3 = -1."""
    return [{0: 2, 1: 3}, {0: 1, 1: 1}]


def test_a_row_with_a_unit_from_a_later_pivot_pivots_in_phase_a():
    m = IntMatrix.from_col_dicts(2, [{0: 2, 1: 1}, {0: 3, 1: 1}])
    assert m.row_dicts() == _second_look_rows()
    want, _, _, _, _ = reference_eliminate(_second_look_rows(), 2, 2, False)
    assert want == [1, 1]
    for mode in MODES:
        pivots, prow, pcol, units = eliminate(_second_look_rows(), 2, 2, mode)
        assert pivots == want and units == len(pivots) == 2, mode
        assert sorted(prow) == sorted(pcol) == [0, 1], mode
        assert smith_normal_form(m, mode).units == 2, mode


def test_removed_kernel_mode_is_refused():
    """No mode keeps the column transform V: ``"kernel"`` is refused, not
    run as ``RANK``."""
    assert MODES == (RANK, PINNED)
    with pytest.raises(ValueError, match="unknown elimination mode 'kernel'"):
        smith_normal_form(IntMatrix(1, 1, {(0, 0): 1}), "kernel")


class _LoggedRow(dict):
    """A row dict that logs each change of an entry as ("change", row)."""

    def __init__(self, index, log, entries):
        super().__init__(entries)
        self.index, self.log = index, log

    def __setitem__(self, key, value):
        self.log.append(("change", self.index))
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self.log.append(("change", self.index))
        super().__delitem__(key)


@pytest.mark.parametrize("mode", [RANK])
def test_a_set_aside_row_is_scanned_again_only_after_a_change(monkeypatch, mode):
    """Three copies of the second-look block, then a row {6: 2} that no
    operation touches.  The first sweep scans all 7 rows and sets aside
    rows 0, 2, 4 and 6; the pivots at rows 1, 3 and 5 change rows 0, 2
    and 4, which the second sweep scans and pivots; row 6 is scanned once
    and left to phase B.  Between two scans of a row, the row changed."""
    log = []
    original = elim_py._unit_entry

    def logged(row, cols):
        log.append(("scan", row.index))
        return original(row, cols)

    monkeypatch.setattr(elim_py, "_unit_entry", logged)
    rows = []
    for b in range(3):
        for entries in _second_look_rows():
            rows.append(_LoggedRow(len(rows), log, {2 * b + j: v for j, v in entries.items()}))
    rows.append(_LoggedRow(6, log, {6: 2}))
    pivots, _, _, units = eliminate(rows, 7, 7, mode)
    assert (pivots, units) == ([1] * 6 + [2], 6)
    scans = [i for kind, i in log if kind == "scan"]
    assert scans == [0, 1, 2, 3, 4, 5, 6, 0, 2, 4]
    for i in range(7):
        events = [kind for kind, j in log if j == i]
        at = [k for k, kind in enumerate(events) if kind == "scan"]
        assert all("change" in events[a:b] for a, b in zip(at, at[1:])), i


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
            assert (eliminate(b.row_dicts(), b.rows, b.cols, RANK)[0]
                    == reference_eliminate(b.row_dicts(), b.rows, b.cols, True)[0])


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


def _unit_minor(m, mode):
    """The SNF of ``m`` and, from ``_fraction_eliminate`` on the whole of
    ``m``, |det| of its minor at the unit phase's pivots and the Schur
    complement left."""
    snf = smith_normal_form(m, mode)
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
    for mode in MODES:
        snf, det, rows_left = _unit_minor(m, mode)
        assert det == 1
        assert snf.invariant_factors[: snf.units] == (1,) * snf.units
        assert all(abs(v) != 1 for r in rows_left.values() for v in r.values())


@pytest.mark.parametrize("model", ["s3_coordinate pt", "resolution 4"])
def test_unit_pivots_carry_a_unimodular_minor_on_workload_boundaries(model):
    complex_ = _workload_complex(model)
    for d in complex_.support():
        b = complex_.boundary(d)
        for mode in MODES:
            snf, det, _ = _unit_minor(b, mode)
            assert det == 1 and snf.units == snf.rank
