import json
import random
from fractions import Fraction as Fr

import pytest

from geotits import HypothesesError
from geotits import arrangement as arr
from geotits import collection as coll_mod
from geotits import exact, geometry as geo
from geotits.cli import Scene, corpus_dir
from conftest import E1, E2, H2, S0, TRIANGLE_COVS, ZERO, facet_map, subdivide


def test_e1_two_points():
    l = coll_mod.closure_by_hyperplanes(E1, [(0, 1), (-1, 1)])
    poset = arr.build_arrangement(l)
    assert poset.census() == {0: 2, 1: 3}
    assert len(arr.region_basis(poset)) == 1


def test_triangle_census(triangle):
    poset = arr.build_arrangement(triangle)
    assert poset.census() == {0: 3, 1: 9, 2: 7}
    assert len(arr.region_basis(poset)) == 1


def test_four_lines_basis(four_lines):
    poset = arr.build_arrangement(four_lines)
    assert len(arr.region_basis(poset)) == 3


def test_s2_coordinate_census(coord_s2):
    poset = arr.build_arrangement(coord_s2)
    assert poset.census() == {0: 6, 1: 12, 2: 8}
    assert len(arr.region_basis(poset)) == 8


def test_s0_census():
    l = coll_mod.closure_by_hyperplanes(S0, [(1,)])
    poset = arr.build_arrangement(l)
    assert poset.census() == {0: 2}
    assert len(arr.region_basis(poset)) == 2


def test_hyperbolic_ideal_regions():
    l = coll_mod.closure_by_hyperplanes(H2, [(0, 1, 0), (0, 0, 1), (5, -4, -4)])
    poset = arr.build_arrangement(l)
    for cell in poset.cells.values():
        assert sum(x * x for x in cell.witness) < 1
    assert len(arr.region_basis(poset)) == 0
    l2 = coll_mod.closure_by_hyperplanes(H2, [(0, 1, 0), (0, 0, 1), (1, -2, -2)])
    assert len(arr.region_basis(arr.build_arrangement(l2))) == 1


def test_partition_property(triangle, four_lines, coord_s2):
    """Every random rational point off all hyperplanes lies in exactly one
    region."""
    rng = random.Random(0)
    for coll in (triangle, four_lines, coord_s2):
        poset = arr.build_arrangement(coll)
        signs_set = {c.sign_vector for c in poset.regions()}
        g = coll.geometry
        done = 0
        while done < 25:
            if g.kind == geo.SPHERICAL:
                vec = tuple(Fr(rng.randint(-30, 30), rng.randint(1, 7)) for _ in range(g.n + 1))
                if not any(vec):
                    continue
            else:
                vec = (Fr(1),) + tuple(
                    Fr(rng.randint(-80, 80), rng.randint(1, 7)) for _ in range(g.n)
                )
            signs = tuple(
                1 if exact.dot(c, vec) > 0 else (-1 if exact.dot(c, vec) < 0 else 0)
                for c in poset.covectors
            )
            if 0 in signs:
                continue
            done += 1
            assert sum(1 for s in signs_set if s == signs) == 1


def test_region_sign_vectors_distinct(triangle, four_lines):
    for coll in (triangle, four_lines):
        poset = arr.build_arrangement(coll)
        signs = [c.sign_vector for c in poset.regions()]
        assert len(signs) == len(set(signs))


def test_indicator_vectors(triangle):
    poset = arr.build_arrangement(triangle)
    basis = arr.region_basis(poset)
    p = arr.region_polytope(poset, basis[0])
    assert arr.polytope_to_vector(p, basis, poset) == (1,)
    outside = geo.polytope_from_halfspaces(
        E2, [geo.HalfSpace((0, 1, 0)), geo.HalfSpace((0, 0, 1)), geo.HalfSpace((1, -2, -1))]
    )
    assert arr.polytope_to_vector(outside, basis, poset) == arr.NOT_L_POLYTOPE


def test_subdivide():
    t = geo.polytope_from_halfspaces(E2, [geo.HalfSpace(c) for c in TRIANGLE_COVS])
    assert len(subdivide(t, [(1, -4, 0)])) == 2
    assert len(subdivide(t, [(5, -1, -1)])) == 1
    square = geo.polytope_from_halfspaces(
        E2,
        [
            geo.HalfSpace((0, 1, 0)),
            geo.HalfSpace((0, 0, 1)),
            geo.HalfSpace((1, -1, 0)),
            geo.HalfSpace((1, 0, -1)),
        ],
    )
    assert len(subdivide(square, [(0, 1, -1), (1, -1, -1)])) == 4


def test_indicator_additive_under_subdivide(triangle, four_lines):
    """vector(P) = sum of vector(P_i) over any subdivision."""
    rng = random.Random(2)
    for coll in (triangle, four_lines):
        poset = arr.build_arrangement(coll)
        basis = arr.region_basis(poset)
        for sign in basis:
            p = arr.region_polytope(poset, sign)
            total = arr.polytope_to_vector(p, basis, poset)
            cutters = [c for c in poset.covectors if rng.random() < 0.8]
            pieces = subdivide(p, cutters) if cutters else [p]
            acc = [0] * len(basis)
            for piece in pieces:
                v = arr.polytope_to_vector(piece, basis, poset)
                assert v != arr.NOT_L_POLYTOPE
                acc = [a + b for a, b in zip(acc, v)]
            assert tuple(acc) == total


def test_subregion_cut_not_l_polytope(triangle):
    """Cutting along a hyperplane outside L leaves the normal form."""
    poset = arr.build_arrangement(triangle)
    basis = arr.region_basis(poset)
    t = arr.region_polytope(poset, basis[0])
    p1, p2 = subdivide(t, [(1, -4, 0)])
    assert arr.polytope_to_vector(p1, basis, poset) == arr.NOT_L_POLYTOPE


def test_indicator_kernel_is_subdivision_lattice(four_lines):
    """A signed combination of L-polytopes maps to zero iff all refined
    multiplicities vanish: the only relation among {R1 u R2, R1, R2},
    with R1 u R2 convex, is the subdivision relation."""
    from geotits._kernel import IntMatrix, kernel_basis, lattices_equal

    poset = arr.build_arrangement(four_lines)
    basis = arr.region_basis(poset)
    # the big triangle is a convex L-polytope covering two regions
    big = geo.polytope_from_halfspaces(E2, [geo.HalfSpace(c) for c in TRIANGLE_COVS])
    covered = [s for s, c in zip(basis, arr.polytope_to_vector(big, basis, poset)) if c]
    assert len(covered) == 2
    r1, r2 = (arr.region_polytope(poset, s) for s in covered)
    vecs = [
        arr.polytope_to_vector(x, basis, poset) for x in (big, r1, r2)
    ]
    assert all(v != arr.NOT_L_POLYTOPE for v in vecs)
    m = IntMatrix.from_columns(len(basis), [list(v) for v in vecs])
    kern = kernel_basis(m)
    assert lattices_equal(kern, [[1, -1, -1]], 3)


def test_facet_map_sides():
    t = geo.polytope_from_halfspaces(E2, [geo.HalfSpace(c) for c in TRIANGLE_COVS])
    side, _ = facet_map(t, (0, 0, 1))
    assert side == 1
    reflected = geo.polytope_from_halfspaces(
        E2,
        [geo.HalfSpace((0, 0, 1), sense=-1), geo.HalfSpace((0, 1, 0)), geo.HalfSpace((1, -1, 1))],
    )
    side2, _ = facet_map(reflected, (0, 0, 1))
    assert side2 == -1
    corner = geo.polytope_from_halfspaces(
        E2,
        [geo.HalfSpace((0, 1, 0)), geo.HalfSpace((0, -1, 1)), geo.HalfSpace((1, 0, -1))],
    )
    assert facet_map(corner, (0, 0, 1)) == ZERO
    square = geo.polytope_from_halfspaces(
        E2,
        [
            geo.HalfSpace((0, 1, 0)),
            geo.HalfSpace((0, 0, 1)),
            geo.HalfSpace((1, -1, 0)),
            geo.HalfSpace((1, 0, -1)),
        ],
    )
    assert facet_map(square, (1, -4, 0)) == ZERO  # cuts the interior


def test_facet_cofacet_roundtrip(triangle):
    """facet_map of cofacet_lift returns the original (n-1)-cell with + sign."""
    var = coll_mod.variants(triangle, (2, -5, -1))
    poset = arr.build_arrangement(var.cup)
    u = geo.canonical_covector((2, -5, -1))
    u_index = tuple(sorted(var.cup.hyperplane_covectors)).index(u)
    u_cells = [
        s
        for s, c in sorted(poset.cells.items())
        if c.dim == 1 and s[u_index] == 0 and arr.region_is_bounded(poset, c)
    ]
    assert u_cells
    for tau in u_cells:
        got = arr.cofacet_lift(poset, tau)
        assert got != arr.NO_LIFT
        region_sign, side = got
        q = arr.region_polytope(poset, region_sign)
        fside, vec = facet_map(q, u, poset, tuple(u_cells))
        assert fside == side
        assert vec[u_cells.index(tau)] == 1


def test_rank_additivity_corpus(triangle, four_lines, coord_s2):
    """|basis(L cup U)| = |basis(L)| + |basis(L cap U)| for U outside L."""
    cases = [
        (triangle, (2, -5, -1)),
        (triangle, (1, -3, 1)),
        (four_lines, (1, -3, 1)),
        (coord_s2, (1, 2, 3)),
    ]
    for coll, u in cases:
        var = coll_mod.variants(coll, u)
        poset = arr.build_arrangement(coll)
        cup_poset = arr.build_arrangement(var.cup)
        cu = geo.canonical_covector(u)
        ui = tuple(sorted(var.cup.hyperplane_covectors)).index(cu)
        u_cells = [
            s
            for s, c in sorted(cup_poset.cells.items())
            if c.dim == coll.geometry.n - 1
            and s[ui] == 0
            and (
                coll.geometry.kind == "S" or arr.region_is_bounded(cup_poset, c)
            )
        ]
        assert len(arr.region_basis(cup_poset)) == len(arr.region_basis(poset)) + len(
            u_cells
        )


def test_guards():
    too_many = coll_mod.Collection(
        E2,
        [geo.top_subspace(E2)],
        [(0, 1, k) for k in range(1, 18)],
    )
    with pytest.raises(HypothesesError, match="17 hyperplanes exceed the desk-scale guard 16"):
        arr.build_arrangement(too_many)


def test_duplicate_insertion_noop(triangle):
    """Re-closing with the same covectors yields identical cells."""
    poset1 = arr.build_arrangement(triangle)
    poset2 = arr.build_arrangement(
        coll_mod.closure_by_hyperplanes(E2, list(triangle.hyperplane_covectors))
    )
    assert set(poset1.cells) == set(poset2.cells)


def test_spherical_cofacet_both_sides(coord_s2):
    """A quarter-arc on a coordinate circle is a facet of the two adjacent
    octant triangles, one on each side of its wall."""
    poset = arr.build_arrangement(coord_s2)
    arcs = [s for s, c in sorted(poset.cells.items()) if c.dim == 1]
    tau = arcs[0]
    wall = arr.facet_wall(poset, tau)
    got = arr.cofacet_lift(poset, tau, bounded_required=False)
    assert got != arr.NO_LIFT
    region_sign, actual = got
    assert actual == 1 and region_sign[wall] == 1
    other = tuple(-1 if i == wall else x for i, x in enumerate(tau))
    lifts = {region_sign, other}
    assert all(poset.cells[s].dim == 2 for s in lifts)
    assert len(lifts) == 2


def test_rows_reach_feasible_as_ints(monkeypatch):
    """Every constraint row that build_arrangement hands to exact.feasible
    on a corpus scene, globally and within its window, is all-int."""
    rows = []
    feasible = exact.feasible

    def recording(strict=(), nonstrict=(), eqs=(), nvars=None):
        rows.extend([*strict, *nonstrict, *eqs])
        return feasible(strict, nonstrict, eqs, nvars)

    cases = []
    for path in sorted(corpus_dir().iterdir(), key=lambda p: p.name):
        if path.name.endswith(".json"):
            scene = Scene(json.loads(path.read_text()))
            coll, _ = scene.collection()
            cases += [(coll, within) for within in dict.fromkeys((None, scene.polytope_a))]
    monkeypatch.setattr(exact, "feasible", recording)
    for coll, within in cases:
        arr.build_arrangement(coll, within=within)
    assert len(rows) > 1000
    assert all(type(x) is int for row in rows for x in row)
