import json
import os
import random
import subprocess
import sys
from fractions import Fraction as Fr

import pytest

from geotits import HypothesesError
from geotits import arrangement as arr
from geotits import collection as coll_mod
from geotits import exact, geometry as geo
from geotits.cli import Scene, corpus_dir
from conftest import (
    E1, E2, H2, LINEAR_PROGRAM_NAMES, NOT_L_POLYTOPE, S0, TRIANGLE_COVS, ZERO, chart_point, cup,
    facet_map, lattices_equal, reference_build_arrangement, reference_kernel_basis, reference_polytope,
    reference_flat_signs, reference_polytope_from_halfspaces, reference_polytope_to_vector,
    region_polytope,
    src_calls, subdivide,
)


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
        assert sum(x * x for x in chart_point(H2, cell.witness)) < 1
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
    p = region_polytope(poset, basis[0])
    assert reference_polytope_to_vector(p.facet_halfspaces(), basis, poset) == (1,)
    outside = reference_polytope(
        E2, [geo.HalfSpace((0, 1, 0)), geo.HalfSpace((0, 0, 1)), geo.HalfSpace((1, -2, -1))]
    )
    assert reference_polytope_to_vector(outside.facet_halfspaces(), basis, poset) == NOT_L_POLYTOPE


def test_subdivide():
    t = arr.polytope_from_halfspaces(E2, [geo.HalfSpace(c) for c in TRIANGLE_COVS])
    assert len(subdivide(t, [(1, -4, 0)])) == 2
    assert len(subdivide(t, [(5, -1, -1)])) == 1
    square = arr.polytope_from_halfspaces(
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
            p = region_polytope(poset, sign)
            total = reference_polytope_to_vector(p.facet_halfspaces(), basis, poset)
            cutters = [c for c in poset.covectors if rng.random() < 0.8]
            pieces = subdivide(p, cutters) if cutters else [p]
            acc = [0] * len(basis)
            for piece in pieces:
                v = reference_polytope_to_vector(piece.facet_halfspaces(), basis, poset)
                assert v != NOT_L_POLYTOPE
                acc = [a + b for a, b in zip(acc, v)]
            assert tuple(acc) == total


def test_subregion_cut_not_l_polytope(triangle):
    """Cutting along a hyperplane outside L leaves the normal form."""
    poset = arr.build_arrangement(triangle)
    basis = arr.region_basis(poset)
    t = region_polytope(poset, basis[0])
    p1, p2 = subdivide(t, [(1, -4, 0)])
    assert reference_polytope_to_vector(p1.facet_halfspaces(), basis, poset) == NOT_L_POLYTOPE


def test_indicator_kernel_is_subdivision_lattice(four_lines):
    """A signed combination of L-polytopes maps to zero iff all refined
    multiplicities vanish: the only relation among {R1 u R2, R1, R2},
    with R1 u R2 convex, is the subdivision relation."""
    from geotits._kernel import IntMatrix

    poset = arr.build_arrangement(four_lines)
    basis = arr.region_basis(poset)
    # the big triangle is a convex L-polytope covering two regions
    big = reference_polytope(E2, [geo.HalfSpace(c) for c in TRIANGLE_COVS])
    big_vec = reference_polytope_to_vector(big.facet_halfspaces(), basis, poset)
    covered = [s for s, c in zip(basis, big_vec) if c]
    assert len(covered) == 2
    r1, r2 = (region_polytope(poset, s) for s in covered)
    vecs = [
        reference_polytope_to_vector(x.facet_halfspaces(), basis, poset) for x in (big, r1, r2)
    ]
    assert all(v != NOT_L_POLYTOPE for v in vecs)
    m = IntMatrix.from_columns(len(basis), [list(v) for v in vecs])
    kern = reference_kernel_basis(m)
    assert lattices_equal(kern, [[1, -1, -1]], 3)


def test_facet_map_sides():
    t = arr.polytope_from_halfspaces(E2, [geo.HalfSpace(c) for c in TRIANGLE_COVS])
    side, _ = facet_map(t, (0, 0, 1))
    assert side == 1
    reflected = arr.polytope_from_halfspaces(
        E2,
        [geo.HalfSpace((0, 0, -1)), geo.HalfSpace((0, 1, 0)), geo.HalfSpace((1, -1, 1))],
    )
    side2, _ = facet_map(reflected, (0, 0, 1))
    assert side2 == -1
    corner = arr.polytope_from_halfspaces(
        E2,
        [geo.HalfSpace((0, 1, 0)), geo.HalfSpace((0, -1, 1)), geo.HalfSpace((1, 0, -1))],
    )
    assert facet_map(corner, (0, 0, 1)) == ZERO
    square = arr.polytope_from_halfspaces(
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
    poset = arr.build_arrangement(cup(triangle, (2, -5, -1)))
    u = geo.canonical_covector((2, -5, -1))
    u_index = poset.covectors.index(u)
    u_cells = [
        s
        for s, c in sorted(poset.cells.items())
        if c.dim == 1 and s[u_index] == 0 and poset.bounded(s)
    ]
    assert u_cells
    for tau in u_cells:
        got = arr.cofacet_lift(poset, tau)
        assert got != arr.NO_LIFT
        region_sign, side = got
        q = region_polytope(poset, region_sign)
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
        poset = arr.build_arrangement(coll)
        cup_poset = arr.build_arrangement(cup(coll, u))
        cu = geo.canonical_covector(u)
        ui = cup_poset.covectors.index(cu)
        u_cells = [
            s
            for s, c in sorted(cup_poset.cells.items())
            if c.dim == coll.geometry.n - 1
            and s[ui] == 0
            and cup_poset.bounded(s)
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
    got = arr.cofacet_lift(poset, tau)
    assert got != arr.NO_LIFT
    region_sign, actual = got
    assert actual == 1 and region_sign[wall] == 1
    other = tuple(-1 if i == wall else x for i, x in enumerate(tau))
    lifts = {region_sign, other}
    assert all(poset.cells[s].dim == 2 for s in lifts)
    assert len(lifts) == 2


def test_build_makes_no_feasibility_call():
    """No feasibility or boundedness test is left to call: loading each
    corpus scene validates its window by arranging the window's walls,
    and build_arrangement, globally and within the window, calls none of
    ``LINEAR_PROGRAM_NAMES``."""
    assert not [(m.__name__, name) for m in (exact, geo, arr, coll_mod)
                for name in LINEAR_PROGRAM_NAMES if hasattr(m, name)]
    cases = []
    with src_calls() as loading:
        for path in sorted(corpus_dir().iterdir(), key=lambda p: p.name):
            if path.name.endswith(".json"):
                scene = Scene(json.loads(path.read_text()))
                coll, _ = scene.collection()
                cases += [(coll, within) for within in dict.fromkeys((None, scene.polytope_a))]
    windows = sum(within is not None for _, within in cases)
    assert windows > 0 and loading["window_arrangement"] >= windows
    with src_calls() as building:
        for coll, within in cases:
            arr.build_arrangement(coll, within=within)
    assert building["build_arrangement"] >= len(cases)
    assert not set(LINEAR_PROGRAM_NAMES) & (set(loading) | set(building))


def _assert_matches_reference(poset, ref):
    """Equal sign vectors (in order), flats and dims; every witness
    strictly in its cell (and in the Klein ball on H^n); and the
    reference's witness at each 0-cell of E^n and H^n."""
    g = poset.geometry
    assert list(poset.cells) == list(ref.cells)
    for s, cell in poset.cells.items():
        other = ref.cells[s]
        assert (cell.flat, cell.dim) == (other.flat, other.dim)
        v = geo.chart_vector(g, chart_point(g, cell.witness))
        assert tuple((x > 0) - (x < 0) for x in (exact.dot(c, v) for c in poset.covectors)) == s
        if g.kind == geo.HYPERBOLIC:
            assert sum(x * x for x in chart_point(g, cell.witness)) < 1
        if g.kind != geo.SPHERICAL and cell.dim == 0:
            assert cell.witness == other.witness


def test_build_matches_reference_on_corpus():
    """The flat-lattice build gives the Fourier-Motzkin build's cells on
    every corpus scene, globally and within its window."""
    cases = 0
    for path in sorted(corpus_dir().iterdir(), key=lambda p: p.name):
        if path.name.endswith(".json"):
            scene = Scene(json.loads(path.read_text()))
            coll, _ = scene.collection()
            for within in dict.fromkeys((None, scene.polytope_a)):
                _assert_matches_reference(arr.build_arrangement(coll, within=within),
                                          reference_build_arrangement(coll, within=within))
                cases += 1
    assert cases == 25


def _flat_signs_or_refusal(flat_signs, poset, carrier):
    try:
        return flat_signs(poset, carrier)
    except AssertionError:
        return "refused"


def test_flat_signs_match_linear_algebra_on_corpus():
    """``FacePoset.flat_signs``, a lookup in the lattice the poset was
    built from, gives the dot-product-and-rank signs of
    ``conftest.reference_flat_signs`` (or refuses with it) for every
    member of every corpus scene, on the whole and on the windowed
    poset, where members with no cell in the window still answer."""
    answered = empty = 0
    for path in sorted(corpus_dir().iterdir(), key=lambda p: p.name):
        if path.name.endswith(".json"):
            scene = Scene(json.loads(path.read_text()))
            coll, _ = scene.collection()
            for within in dict.fromkeys((None, scene.polytope_a)):
                poset = arr.build_arrangement(coll, within=within)
                for m in coll.members:
                    got = _flat_signs_or_refusal(arr.FacePoset.flat_signs, poset, m.carrier)
                    assert got == _flat_signs_or_refusal(reference_flat_signs, poset, m.carrier)
                    answered += got != "refused"
                    empty += got != "refused" and not poset.cells_in(got)
    assert answered >= 240 and empty > 0


DEGENERATE_DRAWS = {
    geo.EUCLIDEAN: ("generic", "parallel", "concurrent"),
    geo.HYPERBOLIC: ("generic", "concurrent", "ideal"),
    geo.SPHERICAL: ("generic", "concurrent", "rank"),
}


def _random_covectors(rng, g, draw, k):
    """Up to k distinct hyperplanes of g with small entries.  Most of a
    degenerate draw shares one normal ("parallel"), passes through the
    point (1/2, 0, ...) ("concurrent"), through the ideal point (1, 0, ...)
    ("ideal"), or contains the last coordinate axis ("rank", so the
    arrangement of S^n has rank below n + 1)."""
    covs = {}
    for _ in range(50 * k):
        c = [rng.randint(-3, 3) for _ in range(g.ambient_dim)]
        if rng.random() < 0.7:
            if draw == "parallel" and covs:
                c[1:] = rng.choice(list(covs))[1:]
            elif draw == "concurrent":
                c[1] = -2 * c[0]
            elif draw == "ideal":
                c[1] = -c[0]
            elif draw == "rank":
                c[-1] = 0
        if any(c) and geo.hyperplane_subspace(g, c) is not None:
            covs[geo.canonical_covector(c)] = None
        if len(covs) == k:
            break
    return list(covs)


@pytest.mark.parametrize("kind", [geo.EUCLIDEAN, geo.HYPERBOLIC, geo.SPHERICAL])
@pytest.mark.parametrize("n", [2, 3])
def test_build_matches_reference_on_random_scenes(kind, n):
    """Seeded scenes of each degenerate draw, globally and within a
    window: the box |x_i| <= 1/2 (its walls added to the scene) cut by
    one side of some of the scene's hyperplanes, when one of four tries
    at the sides leaves an interior."""
    g = geo.Geometry(kind, n)
    rng = random.Random(f"arrangement/{kind}{n}")
    box = [geo.HalfSpace([1] + [s * 2 * (k == i) for k in range(n)])
           for i in range(n) for s in (1, -1)]
    windows = 0
    for trial in range(12):
        draw = DEGENERATE_DRAWS[kind][trial % 3]
        covs = _random_covectors(rng, g, draw, rng.randint(2, 7 - n))
        coll = coll_mod.Collection(g, [geo.top_subspace(g)], covs)
        _assert_matches_reference(arr.build_arrangement(coll), reference_build_arrangement(coll))
        boxed = coll_mod.Collection(g, [geo.top_subspace(g)],
                                    set(covs) | {h.hyperplane for h in box})
        for _ in range(4):
            sides = []
            for c in covs:
                if rng.random() < 0.5:
                    sign = rng.choice((1, -1))
                    sides.append(geo.HalfSpace([sign * x for x in c]))
            window = arr.polytope_from_halfspaces(g, box + sides)
            if not isinstance(window, geo.Invalid):
                windows += 1
                _assert_matches_reference(arr.build_arrangement(boxed, within=window),
                                          reference_build_arrangement(boxed, within=window))
                break
    assert windows >= 10


def test_reference_keeps_spherical_windows():
    """On S^n a subsphere with no strict sign once took a basis vector as
    its witness with the window ignored, so a later hyperplane could give
    it a sign outside the window: here the arc (0, 0, +) of S^3, kept by
    the old build on the window's wrong side."""
    g = geo.Geometry("S", 3)
    coll = coll_mod.Collection(g, [geo.top_subspace(g)],
                               [(0, 1, -2, 2), (1, 0, -1, -2), (1, 1, 1, -1)])
    window = arr.polytope_from_halfspaces(g, [geo.HalfSpace((-1, -1, -1, 1))])
    poset = arr.build_arrangement(coll, within=window)
    assert (0, 0, 1) not in poset.cells and (0, 0, -1) in poset.cells
    _assert_matches_reference(poset, reference_build_arrangement(coll, within=window))


def _random_window(rng, g):
    """One to four half-spaces with entries in [-3, 3], with a box of
    half-width 1/8 to 1/2 about a center in [-1, 1]^n half the time (so
    in H^n some boxes leave the ball) and the opposite side of one wall
    a quarter of the time."""
    amb = g.ambient_dim
    hs = []
    while len(hs) < rng.randint(1, 4):
        f = [rng.randint(-3, 3) for _ in range(amb)]
        if any(f):
            hs.append(geo.HalfSpace(f))
    if rng.random() < 0.5:
        w = Fr(rng.randint(1, 4), 8)
        for i in range(1, amb):
            c = Fr(rng.randint(-8, 8), 8)
            unit = [int(k == i) for k in range(amb)]
            hs += [geo.HalfSpace([w - c] + unit[1:]), geo.HalfSpace([w + c] + [-x for x in unit[1:]])]
    if rng.random() < 0.25:
        hs.append(geo.HalfSpace([-x for x in rng.choice(hs).functional]))
    rng.shuffle(hs)
    return hs


# windows that random draws seldom give: an ideal vertex in H^n, opposite
# sides of one wall alone, an S^n cone that is {0}, a wall at infinity
SPECIAL_WINDOWS = {
    "E": [[(0, 1, 0), (0, -1, 0)], [(-1, 0, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, -1)]],
    "H": [TRIANGLE_COVS, [(0, 1), (1, -1)], [(2, 1, 1), (2, -1, 1), (0, 0, -1)],
          [(-2, 1, 0), (3, -1, 0), (0, 0, 1), (1, 0, -1)], [(1, 0, 0), (-1, 0, 0)]],
    "S": [[(1, 0), (-1, 0), (0, 1), (0, -1)], [(1, 0, 0), (-1, 0, 0)],
          [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (0, 0, -1)], [(1,), (1,)]],
}


@pytest.mark.parametrize("kind", "EHS")
def test_window_verdicts_match_reference(kind):
    """``polytope_from_halfspaces`` gives the Fourier-Motzkin reference's
    verdict on seeded windows in dimensions 1 to 3 and on
    ``SPECIAL_WINDOWS``, H^n decided in its Euclidean chart, and every
    reason occurs (S^n has no unbounded window).  A valid window's
    witness lies strictly inside it, and inside the ball in H^n."""
    rng = random.Random(f"windows/{kind}")
    cases = [(geo.Geometry(kind, len(covs[0]) - 1), [geo.HalfSpace(c) for c in covs])
             for covs in SPECIAL_WINDOWS[kind]]
    for trial in range(240):
        g = geo.Geometry(kind, 1 + trial % 3)
        cases.append((g, _random_window(rng, g)))
    reasons = []
    for g, hs in cases:
        got = arr.polytope_from_halfspaces(g, hs)
        want = reference_polytope_from_halfspaces(g, hs)
        reason = got.reason if isinstance(got, geo.Invalid) else "VALID"
        assert reason == (want.reason if isinstance(want, geo.Invalid) else "VALID"), (g, hs)
        reasons.append(reason)
        if reason == "VALID":
            point = chart_point(g, got.interior_witness)
            v = geo.chart_vector(g, point)
            assert all(exact.dot(h.functional, v) > 0 for h in hs)
            assert kind != "H" or sum(x * x for x in point) < 1
    want = {"EMPTY", "LOWER_DIMENSIONAL", "VALID"} | ({"UNBOUNDED"} if kind != "S" else set())
    assert set(reasons) == want
    assert min(reasons.count(r) for r in want) >= 5


HASH_SEED_SCRIPT = """
import json, sys
from geotits import arrangement as arr
from geotits.cli import Scene, corpus_dir
for name in sys.argv[1:]:
    coll, _ = Scene(json.loads((corpus_dir() / name).read_text())).collection()
    for s, c in arr.build_arrangement(coll).cells.items():
        print(s, c.flat.basis, c.dim, c.witness)
"""


def test_build_is_the_same_under_any_hash_seed():
    """One E, one H and one S arrangement give the same cells and
    witnesses, byte for byte, under two hash seeds."""
    outputs = set()
    for hash_seed in ("0", "12345"):
        proc = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT,
             "e2_six_lines.json", "h3_two_cubes.json", "s2_generic_three.json"],
            capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            timeout=60,
            check=True,
        )
        outputs.add(proc.stdout)
    (out,) = outputs
    assert out.count(b"\n") > 100
