import json
import random
from fractions import Fraction as Fr

import pytest

from geotits import arrangement as arr
from geotits import cli
from geotits import collection as coll_mod
from geotits import geometry as geo
from conftest import E2, S0, S2, H2, TRIANGLE_COVS, reference_restrict


def test_triangle_closure(triangle):
    assert len(triangle.members) == 7
    assert len(triangle.points()) == 3
    assert len(triangle.hyperplane_members()) == 3
    assert any(m.is_top() for m in triangle.members)


def test_parallel_closure():
    par = coll_mod.closure_by_hyperplanes(E2, [(0, 0, 1), (-1, 0, 1)])
    assert len(par.members) == 3


def test_coordinate_s2_closure(coord_s2):
    assert len(coord_s2.members) == 7
    assert len(coord_s2.grade(0)) == 3 and len(coord_s2.grade(1)) == 3


def test_closure_idempotent(triangle):
    again = coll_mod.closure_by_hyperplanes(E2, triangle.hyperplane_covectors)
    assert again.members == triangle.members


def test_closure_by_points():
    pts = [geo.point_subspace(E2, p) for p in ((0, 0), (1, 0), (0, 1))]
    cl, generating = coll_mod.closure_by_points(E2, pts)
    assert generating and len(cl.members) == 7
    collinear = [geo.point_subspace(E2, p) for p in ((0, 0), (1, 0), (2, 0))]
    cl2, generating2 = coll_mod.closure_by_points(E2, collinear)
    assert not generating2 and len(cl2.members) == 4


def test_s1_single_pair_not_generating():
    s1 = geo.Geometry("S", 1)
    pair = geo.GeoSubspace(s1, geo.subspace_from_vectors(2, [(1, 0)]))
    cl, generating = coll_mod.closure_by_points(s1, [pair])
    assert not generating and len(cl.members) == 1


def test_variants_counts(triangle):
    var = coll_mod.variants(triangle, (2, -5, -1))
    assert len(var.cup.members) == 11
    assert len(var.cap) == 4  # U itself plus three points on U
    same = coll_mod.variants(triangle, (0, 1, 0))
    assert same.cup.members == triangle.members


def test_restrict(triangle):
    a = arr.polytope_from_halfspaces(E2, [geo.HalfSpace(c) for c in TRIANGLE_COVS])
    assert len(coll_mod.restrict(triangle, a)) == 7
    far = coll_mod.closure_by_hyperplanes(E2, list(TRIANGLE_COVS) + [(5, -1, -1)])
    kept = coll_mod.restrict(far, a)
    missing_line = geo.hyperplane_subspace(E2, (5, -1, -1))
    assert missing_line not in kept
    assert len(kept) == 7


def test_restrict_intersection_outside_window():
    """Two lines of L|A meeting outside A: both kept, their point dropped."""
    # lines x - y = 3/4 and -x + 2y = 3/2 both meet the triangle window but
    # cross each other at (3, 9/4), far outside it
    covs = [(0, 1, 0), (0, 0, 1), (1, -1, -1), (-3, 4, -4), (-3, -2, 4)]
    coll = coll_mod.closure_by_hyperplanes(E2, covs)
    a = arr.polytope_from_halfspaces(E2, [geo.HalfSpace(c) for c in TRIANGLE_COVS])
    l1 = geo.hyperplane_subspace(E2, (-3, 4, -4))
    l2 = geo.hyperplane_subspace(E2, (-3, -2, 4))
    crossing = geo.meet_hyperplane(l1, (-3, -2, 4))
    kept = coll_mod.restrict(coll, a)
    assert l1 in kept and l2 in kept
    assert crossing in coll.members and crossing not in kept


def test_restrict_matches_reference_on_windowed_corpus_scenes():
    windowed = 0
    for path in sorted(cli.corpus_dir().glob("*.json")):
        scene = cli.Scene(json.loads(path.read_text()))
        if scene.polytope_a is not None:
            windowed += 1
            coll, _ = scene.collection()
            kept = coll_mod.restrict(coll, scene.polytope_a)
            assert kept == reference_restrict(coll, scene.polytope_a), path.name
    assert windowed == 2


def _random_windowed_collection(rng, g, mode):
    """(collection, window): 2-4 generic-ish hyperplanes, or 2-4 points,
    drawn until the closure exists, and a box about a point of the chart
    cut by one random half-space, drawn until it is a valid window."""
    amb = g.ambient_dim
    while True:
        try:
            if mode == "hyperplanes":
                covs = {geo.canonical_covector([rng.randint(-3, 3) for _ in range(amb)])
                        for _ in range(rng.randint(2, 4))}
                coll = coll_mod.closure_by_hyperplanes(g, sorted(covs))
            else:
                pts = [geo.point_subspace(g, [Fr(rng.randint(-4, 4), 5) for _ in range(g.n)]
                                          if g.kind != geo.SPHERICAL
                                          else [rng.randint(-3, 3) for _ in range(amb)])
                       for _ in range(rng.randint(2, 4))]
                coll, _ = coll_mod.closure_by_points(g, pts)
        except ValueError:  # a zero covector or point, or a hyperplane off H^n
            continue
        break
    while True:
        w = Fr(rng.randint(1, 4), 10)
        hs = []
        for i in range(1, amb):
            c = Fr(rng.randint(-3, 3), 10)
            unit = [int(k == i) for k in range(amb)]
            hs += [geo.HalfSpace([w - c] + unit[1:]), geo.HalfSpace([w + c] + [-x for x in unit[1:]])]
        if g.kind == geo.SPHERICAL and rng.random() < 0.5:
            hs = hs[1:]  # not pointed: in S^1, a hemisphere
        f = [rng.randint(-3, 3) for _ in range(amb)]
        if any(f) and rng.random() < 0.7:
            hs.append(geo.HalfSpace(f))
        window = arr.polytope_from_halfspaces(g, hs)
        if not isinstance(window, geo.Invalid):
            return coll, window


@pytest.mark.parametrize("mode", ["hyperplanes", "points"])
def test_restrict_matches_reference_on_random_collections(mode):
    """Seeded E/H/S collections in dimensions 1 to 3, each with a random
    valid window: ``restrict`` keeps the members the Fourier-Motzkin
    reference keeps."""
    rng = random.Random(f"restrict/{mode}")
    dropped = 0
    for trial in range(72):
        g = geo.Geometry("EHS"[trial % 3], 1 + trial // 3 % 3)
        coll, window = _random_windowed_collection(rng, g, mode)
        kept = coll_mod.restrict(coll, window)
        assert kept == reference_restrict(coll, window), (g, trial)
        dropped += len(kept) < len(coll.members)
    assert dropped >= 10


def test_restrict_matches_reference_on_non_generating_points():
    """Points on one line of E^2 do not generate: the points are members
    but not flats of the collection's one hyperplane.  The window keeps
    the line and the two points in it."""
    pts = [geo.point_subspace(E2, p) for p in [(0, 0), (Fr(1, 4), Fr(1, 4)), (3, 3)]]
    coll, generating = coll_mod.closure_by_points(E2, pts)
    assert not generating
    a = arr.polytope_from_halfspaces(E2, [geo.HalfSpace(c) for c in TRIANGLE_COVS])
    kept = coll_mod.restrict(coll, a)
    assert kept == reference_restrict(coll, a)
    assert pts[2] not in kept and {pts[0], pts[1]} < set(kept) and len(kept) == 3


def test_dualize(coord_s2):
    assert coll_mod.dualize(coord_s2).members == coord_s2.members
    one = coll_mod.closure_by_hyperplanes(S2, [(1, 0, 0)])
    d = coll_mod.dualize(one)
    assert len(d.members) == 2 and d.members[0].geo_dim == 0
    generic = coll_mod.closure_by_hyperplanes(S2, [(1, 0, 0), (0, 1, 0), (1, 2, 3)])
    dd = coll_mod.dualize(coll_mod.dualize(generic))
    assert dd.members == generic.members


def test_dualize_reverses_inclusion(coord_s2):
    proper = [m for m in coord_s2.members if not m.is_top()]
    duals = {
        m: geo.GeoSubspace(S2, m.carrier.orthogonal_complement()) for m in proper
    }
    for a in proper:
        for b in proper:
            assert a.contains(b) == duals[b].contains(duals[a])


def test_admissible():
    par = coll_mod.closure_by_hyperplanes(E2, [(0, 0, 1), (-1, 0, 1)])
    assert coll_mod.admissible(par) == coll_mod.NOT_ADMISSIBLE
    tri = coll_mod.closure_by_hyperplanes(E2, TRIANGLE_COVS)
    assert coll_mod.admissible(tri) == coll_mod.ADMISSIBLE
    coord = coll_mod.closure_by_hyperplanes(S2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert coll_mod.admissible(coord) == coll_mod.ADMISSIBLE
    shared = coll_mod.closure_by_hyperplanes(S2, [(1, 0, 0), (0, 1, 0)])
    assert coll_mod.admissible(shared) == coll_mod.NOT_ADMISSIBLE
    hyp = coll_mod.closure_by_hyperplanes(H2, [(1, -3, -2), (1, 3, -2), (1, 0, 4)])
    assert coll_mod.admissible(hyp) == coll_mod.NOT_DECIDABLE_FINITE


def test_admissible_inherited(triangle, four_lines):
    """Euclidean: L admissible and U in L implies L cap U admissible in U,
    i.e. every subspace of L contains a point of L^0."""
    for coll in (triangle, four_lines):
        assert coll_mod.admissible(coll) == coll_mod.ADMISSIBLE
        points = coll.points()
        for member in coll.members:
            if member.geo_dim == 0 or member.is_top():
                continue
            assert any(member.contains(p) for p in points)


def test_generated_by_both(triangle):
    assert coll_mod.generated_by_both(triangle)
    par = coll_mod.closure_by_hyperplanes(E2, [(0, 0, 1), (-1, 0, 1)])
    assert not coll_mod.generated_by_both(par)
    g3 = coll_mod.closure_by_hyperplanes(E2, [(0, 1, 0), (0, 0, 1), (1, -1, -2)])
    assert coll_mod.generated_by_both(g3)
    coord = coll_mod.closure_by_hyperplanes(S2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert coll_mod.generated_by_both(coord)


def test_duplicate_hyperplane_rejected():
    with pytest.raises(ValueError):
        coll_mod.closure_by_hyperplanes(E2, [(0, 1, 0), (0, 2, 0)])


def test_s0_collection():
    s0 = coll_mod.closure_by_hyperplanes(S0, [(1,)])
    assert len(s0.members) == 1 and s0.members[0].is_top()
    assert coll_mod.admissible(s0) == coll_mod.ADMISSIBLE


def test_hyperbolic_drops_outside_crossings():
    covs = [(0, 1, 0), (0, 0, 1), (5, -4, -4)]
    l = coll_mod.closure_by_hyperplanes(H2, covs)
    # crossings (5/4, 0), (0, 5/4) lie outside the Klein ball and are dropped
    assert len(l.members) == 5
    assert len(l.points()) == 1
