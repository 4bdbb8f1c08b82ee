"""The one-generator closure against the pairwise closures it replaced,
the hyperplane closure read off the lattice of flats against the
one-hyperplane walk it replaced, and the fail-fast generation checks
against the full-closure comparison.

The references below are the earlier closures, kept test-only: every
pair of members is met (through both orthogonal complements) or
spanned until nothing new appears.  They must give the same members.
"""

import json
import pathlib
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from geotits import cli, exact
from geotits import collection as coll_mod
from geotits import geometry as geo
from conftest import (E1, E2, E3, H2, H3, S1, S2, distinct_hyperplanes,
                      reference_closure_by_hyperplanes, small_hyperplanes)

S3 = geo.Geometry("S", 3)
TEST_SCENES = pathlib.Path(__file__).resolve().parent / "scenes"


def _reference_intersect(a, b):
    """Meet of two geodesic subspaces through their orthogonal complements;
    None when it misses the geometry."""
    g = a.geometry
    normals = a.carrier.orthogonal_complement().basis + b.carrier.orthogonal_complement().basis
    carrier = geo.LinearSubspace(g.ambient_dim, exact.nullspace(list(normals), g.ambient_dim))
    if not geo.geo_nonempty(carrier, g):
        return None
    return geo.GeoSubspace(g, carrier)


def _reference_pairwise_closure(seeds, combine):
    members = {m.carrier: m for m in seeds}
    frontier = list(members.values())
    while frontier:
        new = []
        current = list(members.values())
        for a in frontier:
            for b in current:
                if a.carrier == b.carrier:
                    continue
                c = combine(a, b)
                if c is not None and c.carrier not in members:
                    members[c.carrier] = c
                    new.append(c)
        frontier = new
    return list(members.values())


def _reference_by_hyperplanes(g, covs):
    seeds = [h for h in (geo.hyperplane_subspace(g, c) for c in covs) if h is not None]
    members = _reference_pairwise_closure(seeds, _reference_intersect)
    return coll_mod.Collection(g, members + [geo.top_subspace(g)])


def _reference_by_points(g, points):
    members = _reference_pairwise_closure(points, lambda a, b: geo.span_points([a, b]))
    return coll_mod.Collection(g, members)


def _check_hyperplanes(g, covs):
    got = coll_mod.closure_by_hyperplanes(g, covs)
    assert got.members == _reference_by_hyperplanes(g, covs).members
    return got


def _check_points(g, points):
    got, generating = coll_mod.closure_by_points(g, points)
    want = _reference_by_points(g, points)
    assert got.members == want.members
    assert generating == any(m.is_top() for m in want.members)
    return got


def test_corpus_closures_match_pairwise_reference():
    scenes = sorted(cli.corpus_dir().glob("*.json"))
    assert len(scenes) == 23
    for path in scenes:
        scene = cli.Scene(json.loads(path.read_text()))
        g = scene.geometry
        if scene.hyperplanes:
            _check_hyperplanes(g, scene.hyperplanes)
        if scene.points:
            _check_points(g, [geo.point_subspace(g, p) for p in scene.points])


def test_distinct_hyperplanes_refuses_a_count_it_cannot_reach():
    """H^1 meets three hyperplanes with entries in [-2, 2]: x1 = 0 and
    x0 = +-2 x1.  Asked for three it returns them; asked for four it
    raises instead of drawing forever."""
    h1 = geo.Geometry("H", 1)
    got = distinct_hyperplanes(random.Random(0), h1, 3)
    assert sorted(got) == sorted(small_hyperplanes(h1)) and len(set(got)) == 3
    with pytest.raises(ValueError, match="only 3 hyperplanes"):
        distinct_hyperplanes(random.Random(0), h1, 4)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_hyperplane_closure_matches_pairwise_reference(seed):
    rng = random.Random(seed)
    g, most = rng.choice([(E2, 6), (H2, 6), (S2, 5), (S3, 5)])
    _check_hyperplanes(g, distinct_hyperplanes(rng, g, rng.randint(1, most)))


def _check_walk(g, covs):
    """Members and covectors as the walk finds them, and a lattice that a
    collection built without one enumerates again the same."""
    got = coll_mod.closure_by_hyperplanes(g, covs)
    want = reference_closure_by_hyperplanes(g, covs)
    assert got.members == want.members
    assert got.hyperplane_covectors == want.hyperplane_covectors
    assert coll_mod.Collection(g, want.members, covs).lattice() == got.lattice()


def test_closures_match_walk_reference_on_every_scene():
    paths = sorted(cli.corpus_dir().glob("*.json")) + sorted(TEST_SCENES.glob("*.json"))
    checked = 0
    for path in paths:
        scene = cli.Scene(json.loads(path.read_text()))
        if scene.hyperplanes or scene.mode == "hyperplanes":
            _check_walk(scene.geometry, scene.hyperplanes)
            checked += 1
    assert checked >= 25


def test_closures_match_walk_reference_on_random_collections():
    """1,200 seeded collections in E^n, H^n and S^n, n <= 3, with entries
    in [-2, 2]: parallel, concurrent and (in H^n) non-crossing
    hyperplanes are common.  H^1 is left out: only three such hyperplanes
    meet it."""
    rng = random.Random(35)
    kinds = [E1, E2, E3, H2, H3, S1, S2, S3]
    for _ in range(1200):
        g = rng.choice(kinds)
        _check_walk(g, distinct_hyperplanes(rng, g, rng.randint(1, 6 if g.n < 3 else 5)))


def _random_points(rng, g, count):
    """Chart points of g; some repeated, some on one line (E^2) or one
    great circle (S^2)."""
    k = g.ambient_dim
    base = [tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(2)]
    coords = []
    while len(coords) < count:
        roll = rng.random()
        if coords and roll < 0.2:
            coords.append(rng.choice(coords))
            continue
        if roll < 0.5:
            s, t = rng.randint(-2, 2), rng.randint(-2, 2)
            v = tuple(s * x + t * y for x, y in zip(*base))
        else:
            v = tuple(rng.randint(-3, 3) for _ in range(k))
        if g.kind == "E" and v[0]:
            coords.append(tuple(Fr(x, v[0]) for x in v[1:]))
        elif g.kind == "S" and any(v):
            coords.append(v)
    return coords


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_point_closure_matches_pairwise_reference(seed):
    rng = random.Random(seed)
    g = rng.choice([E2, S2])
    coords = _random_points(rng, g, rng.randint(1, 6))
    _check_points(g, [geo.point_subspace(g, c) for c in coords])


def test_point_closure_collinear_and_repeated():
    line = [(0, 0), (1, 1), (2, 2), (1, 1), (Fr(-1, 2), Fr(-1, 2))]
    coll = _check_points(E2, [geo.point_subspace(E2, p) for p in line])
    assert [m.geo_dim for m in coll.members] == [0, 0, 0, 0, 1]
    circle = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 2, 0), (1, -3, 0)]
    coll = _check_points(S2, [geo.point_subspace(S2, p) for p in circle])
    assert [m.geo_dim for m in coll.members] == [0, 0, 0, 0, 1]


# ---------------------------------------------------------------------------
# Generation checks.  The references close the collection's points or
# hyperplanes in full and compare the result with the collection.


def _reference_generated_by_points(coll):
    pts = coll.points()
    if not pts:
        return False
    closed, generating = coll_mod.closure_by_points(coll.geometry, list(pts))
    return generating and closed.members == coll.members


def _reference_generated_by_hyperplanes(coll):
    covs = [geo.canonical_covector(exact.nullspace(m.carrier.basis)[0])
            for m in coll.hyperplane_members()]
    return coll_mod.closure_by_hyperplanes(coll.geometry, covs).members == coll.members


def _check_generation(coll):
    assert coll_mod.generated_by_points(coll) == _reference_generated_by_points(coll)
    assert coll_mod.generated_by_hyperplanes(coll) == _reference_generated_by_hyperplanes(coll)
    # without its first member the closure may reach a carrier outside it
    short = coll_mod.Collection(coll.geometry, coll.members[1:])
    assert coll_mod.generated_by_points(short) == _reference_generated_by_points(short)
    assert coll_mod.generated_by_hyperplanes(short) == _reference_generated_by_hyperplanes(short)


def test_corpus_generation_checks_match_full_closure():
    answers = set()
    for path in sorted(cli.corpus_dir().glob("*.json")):
        coll, _ = cli.Scene(json.loads(path.read_text())).collection()
        _check_generation(coll)
        answers.add((coll_mod.generated_by_points(coll), coll_mod.generated_by_hyperplanes(coll)))
    assert answers == {(True, True), (True, False), (False, True)}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_hyperplane_generation_checks_match_full_closure(seed):
    rng = random.Random(seed)
    g, most = rng.choice([(E2, 6), (H2, 6), (S2, 5), (S3, 5)])
    covs = distinct_hyperplanes(rng, g, rng.randint(1, most))
    _check_generation(coll_mod.closure_by_hyperplanes(g, covs))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_point_generation_checks_match_full_closure(seed):
    rng = random.Random(seed)
    g = rng.choice([E2, S2])
    points = [geo.point_subspace(g, c) for c in _random_points(rng, g, rng.randint(1, 6))]
    _check_generation(coll_mod.closure_by_points(g, points)[0])
