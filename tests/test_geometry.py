import collections
import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from geotits import arrangement as arr
from geotits import geometry as geo
from geotits.exact import dot
from conftest import (
    E2, H2, H3, S1, S2, face_span, reference_is_bounded, reference_polytope, reference_signature,
)


def test_geo_nonempty_examples():
    assert geo.geo_nonempty(geo.subspace_from_vectors(3, [(1, 0, 0)]), E2)
    assert not geo.geo_nonempty(geo.subspace_from_vectors(3, [(0, 1, 0)]), E2)
    h1 = geo.Geometry("H", 1)
    assert not geo.geo_nonempty(geo.subspace_from_vectors(2, [(1, 2)]), h1)
    assert geo.geo_nonempty(geo.subspace_from_vectors(2, [(2, 1)]), h1)


def test_geo_nonempty_minkowski_cases():
    """A timelike line meets H^n; a spacelike line, a null line (an ideal
    point) and a plane tangent to the ball along a null line miss it."""
    h1 = geo.Geometry("H", 1)
    assert geo.geo_nonempty(geo.subspace_from_vectors(2, [(1, 0)]), h1)
    assert not geo.geo_nonempty(geo.subspace_from_vectors(2, [(0, 1)]), h1)
    assert not geo.geo_nonempty(geo.subspace_from_vectors(2, [(1, 1)]), h1)
    assert geo.geo_nonempty(geo.full_space(3), H2)
    assert not geo.geo_nonempty(geo.subspace_from_vectors(3, [(1, 1, 0)]), H2)
    assert not geo.geo_nonempty(geo.subspace_from_vectors(3, [(1, 1, 0), (0, 0, 1)]), H2)
    assert geo.geo_nonempty(geo.subspace_from_vectors(3, [(2, 1, 0), (0, 0, 1)]), H2)
    assert not geo.geo_nonempty(geo.LinearSubspace(3), H2)


def _minkowski_gram(rows):
    return [[-u[0] * v[0] + dot(u[1:], v[1:]) for v in rows] for u in rows]


def _null_row(rng, n):
    """A null row of the Minkowski form: (1, +-e_i) or (5, +-3 e_i +- 4 e_j)."""
    tail = [0] * n
    if n >= 2 and rng.random() < 0.5:
        i, j = rng.sample(range(n), 2)
        tail[i], tail[j] = rng.choice([3, -3]), rng.choice([4, -4])
        return (5, *tail)
    tail[rng.randrange(n)] = rng.choice([1, -1])
    return (1, *tail)


def test_geo_nonempty_matches_signature_reference():
    """On H^1-H^4 a carrier meets the geometry exactly when the Minkowski
    form on its basis has negative index >= 1 (``reference_signature``),
    also for rows with x0 = 0 and for null rows such as (1, 1, 0)."""
    rng = random.Random("geo_nonempty/H")
    seen = collections.Counter()
    for _ in range(2000):
        n = rng.randint(1, 4)
        rows = []
        for _ in range(rng.randint(1, n + 1)):
            kind = rng.choice(["dense", "x0_zero", "null"])
            if kind == "null":
                rows.append(_null_row(rng, n))
            else:
                rows.append((0 if kind == "x0_zero" else rng.randint(-3, 3),
                             *(rng.randint(-3, 3) for _ in range(n))))
        carrier = geo.subspace_from_vectors(n + 1, rows)
        want = reference_signature(_minkowski_gram(carrier.basis))[1] >= 1
        assert geo.geo_nonempty(carrier, geo.Geometry("H", n)) == want
        seen[want] += 1
    assert min(seen[True], seen[False]) > 500


def test_span_points():
    p = geo.point_subspace(E2, (0, 0))
    q = geo.point_subspace(E2, (1, 0))
    assert geo.span_points([p]).carrier == p.carrier
    line = geo.span_points([p, q])
    assert line.geo_dim == 1
    # spherical: span of two antipodal pairs is the great circle
    a = geo.GeoSubspace(S2, geo.subspace_from_vectors(3, [(1, 0, 0)]))
    b = geo.GeoSubspace(S2, geo.subspace_from_vectors(3, [(0, 1, 0)]))
    circle = geo.span_points([a, b])
    assert circle.geo_dim == 1


def _random_point(rng, g):
    if g.kind == "S":
        while True:
            v = tuple(rng.randint(-3, 3) for _ in range(g.n + 1))
            if any(v):
                return geo.point_subspace(g, v)
    if g.kind == "H":
        return geo.point_subspace(g, tuple(Fr(rng.randint(-40, 40), 81) for _ in range(g.n)))
    return geo.point_subspace(g, tuple(Fr(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(g.n)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_span_points_meets_geometry(seed):
    """span_points skips the nonemptiness check; its spans still meet the
    geometry and equal the spans built by the checked constructor."""
    rng = random.Random(seed)
    g = rng.choice([E2, H2, H3, S2])
    members = [_random_point(rng, g) for _ in range(rng.randint(1, 4))]
    members.append(rng.choice(members))
    for _ in range(4):
        parts = rng.sample(members, rng.randint(1, min(3, len(members))))
        span = geo.span_points(parts)
        assert geo.geo_nonempty(span.carrier, g)
        vectors = [v for p in parts for v in p.carrier.basis]
        assert span == geo.GeoSubspace(g, geo.subspace_from_vectors(g.ambient_dim, vectors))
        members.append(span)


def test_vector_length_mismatch():
    line = geo.LinearSubspace(2, [(1, 0)])
    for bad in (
        lambda: geo.LinearSubspace(2, [(1, 1), (1, 0, 5)]),
        lambda: geo.LinearSubspace(2, [(0, 0, 0)]),
        lambda: line.contains_vector((1, 0, 5)),
        lambda: line.contains_vector((1,)),
    ):
        with pytest.raises(ValueError, match="vector length mismatch"):
            bad()


def test_intersect_subspaces():
    l1 = geo.hyperplane_subspace(E2, (0, 0, 1))
    pt = geo.meet_hyperplane(l1, (0, 1, 0))
    assert pt is not None and pt.geo_dim == 0
    assert geo.meet_hyperplane(l1, (-1, 0, 1)) is None  # parallel to l1
    assert geo.meet_hyperplane(l1, (0, 0, 2)) is l1  # l1 lies in its own kernel
    c1 = geo.hyperplane_subspace(S2, (1, 0, 0))
    pair = geo.meet_hyperplane(c1, (0, 1, 0))
    assert pair.geo_dim == 0
    assert pair.carrier == geo.subspace_from_vectors(3, [(0, 0, 1)])
    assert geo.meet_hyperplane(pair, (1, 1, 0)) is pair
    assert geo.meet_hyperplane(pair, (0, 1, 1)) is None  # the zero subspace
    with pytest.raises(ValueError, match="vector length mismatch"):
        geo.meet_hyperplane(c1, (0, 1))


def test_span_intersect_laws():
    p = geo.point_subspace(E2, (0, 0))
    q = geo.point_subspace(E2, (1, 0))
    r = geo.point_subspace(E2, (0, 1))
    assert geo.span_points([p, q]).carrier == geo.span_points([q, p]).carrier
    ab_c = geo.span_points([geo.span_points([p, q]), r])
    a_bc = geo.span_points([p, geo.span_points([q, r])])
    assert ab_c.carrier == a_bc.carrier
    l1 = geo.hyperplane_subspace(E2, (0, 0, 1))
    l2 = geo.hyperplane_subspace(E2, (1, -1, -1))
    m = geo.meet_hyperplane(l1, (1, -1, -1))
    assert l1.contains(m) and l2.contains(m)
    assert m == geo.meet_hyperplane(l2, (0, 0, 1))


def test_triangle_polytope():
    hs = [geo.HalfSpace((0, 1, 0)), geo.HalfSpace((0, 0, 1)), geo.HalfSpace((1, -1, -1))]
    p = reference_polytope(E2, hs)
    assert isinstance(p, geo.ConvexPolytope)
    assert len(p.vertices) == 3
    assert len(p.faces_of_dim(0)) == 3 and len(p.faces_of_dim(1)) == 3


def test_unbounded_invalid():
    p = arr.polytope_from_halfspaces(E2, [geo.HalfSpace((0, 1, 0)), geo.HalfSpace((0, 0, 1))])
    assert isinstance(p, geo.Invalid) and p.reason == geo.Invalid.UNBOUNDED


def test_empty_and_lower_dimensional():
    p = arr.polytope_from_halfspaces(
        E2, [geo.HalfSpace((0, 1, 0)), geo.HalfSpace((-1, -1, 0))]
    )  # x >= 0 and x <= -1
    assert isinstance(p, geo.Invalid) and p.reason == geo.Invalid.EMPTY
    q = arr.polytope_from_halfspaces(
        E2, [geo.HalfSpace((0, 1, 0)), geo.HalfSpace((0, -1, 0))]
    )  # x >= 0 and x <= 0
    assert isinstance(q, geo.Invalid) and q.reason == geo.Invalid.LOWER_DIMENSIONAL


def test_whole_circle_weakly_convex():
    """The whole circle, cut out by no half-space, has no interior witness
    and is refused.  A half circle is not pointed either: a polytope with
    a witness inside it, and no face lattice in the reference."""
    with pytest.raises(ValueError, match="at least one half-space"):
        arr.polytope_from_halfspaces(S1, [])
    half = reference_polytope(S1, [geo.HalfSpace((1, 0))])
    assert dot((1, 0), half.interior_witness) > 0
    assert half.faces is None and half.vertices is None
    with pytest.raises(ValueError, match="no face lattice"):
        half.faces_of_dim(0)


def test_klein_bounded_triangle():
    hs = [geo.HalfSpace(c) for c in ((1, -3, -2), (1, 3, -2), (1, 0, 4))]
    t = reference_polytope(H2, hs)
    assert isinstance(t, geo.ConvexPolytope)
    assert sorted(t.vertices) == [
        (Fr(-1, 2), Fr(-1, 4)),
        (Fr(0), Fr(1, 2)),
        (Fr(1, 2), Fr(-1, 4)),
    ]
    assert reference_is_bounded(hs, H2)


def test_ideal_vertex_unbounded():
    hs = [geo.HalfSpace((0, 1, 0)), geo.HalfSpace((0, 0, 1)), geo.HalfSpace((1, -1, -1))]
    t = arr.polytope_from_halfspaces(H2, hs)
    assert isinstance(t, geo.Invalid) and t.reason == geo.Invalid.UNBOUNDED
    assert not reference_is_bounded(hs, H2)


def test_strongly_convex_faces_pointed():
    """Every face cone of a strongly convex polytope has lineality {0}."""
    octant = reference_polytope(
        S2, [geo.HalfSpace(c) for c in ((1, 0, 0), (0, 1, 0), (1, 2, 3))]
    )
    from geotits import exact

    assert exact.rank([h.functional for h in octant.halfspaces]) == 3  # pointed
    for f in octant.faces:
        # x = c . span basis is in the lineality space iff every
        # functional vanishes on it
        system = [[dot(h.functional, b) for b in face_span(octant, f).basis]
                  for h in octant.halfspaces]
        assert exact.nullspace(system) == ()


def test_face_span_identities():
    """Prop-style identities: span F = meet of facet hyperplanes containing F
    and F = P cap span F (vertexwise)."""
    polys = [
        reference_polytope(
            E2,
            [geo.HalfSpace((0, 1, 0)), geo.HalfSpace((0, 0, 1)), geo.HalfSpace((1, -1, -1))],
        ),
        reference_polytope(
            E2,
            [
                geo.HalfSpace((0, 1, 0)),
                geo.HalfSpace((0, 0, 1)),
                geo.HalfSpace((1, -1, 0)),
                geo.HalfSpace((1, 0, -1)),
            ],
        ),
        reference_polytope(
            S2, [geo.HalfSpace(c) for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        ),
    ]
    from geotits import exact

    for p in polys:
        n = p.geometry.n
        facet_hyps = sorted({h.hyperplane for h in p.facet_halfspaces()})
        for f in p.faces:
            if f.dim == n:
                continue
            containing = []
            for hyp in facet_hyps:
                if all(
                    dot(hyp, v if p.geometry.kind == "S" else (1,) + tuple(v)) == 0
                    for v in (p.vertices[i] for i in f.vertex_ids)
                ):
                    containing.append(hyp)
            meet = geo.LinearSubspace(p.geometry.ambient_dim, exact.nullspace(containing, p.geometry.ambient_dim))
            span = face_span(p, f)
            assert meet == span
            # F = P cap span F at the vertex level
            on_span = {
                i
                for i, v in enumerate(p.vertices)
                if span.contains_vector(v if p.geometry.kind == "S" else (1,) + tuple(v))
            }
            assert on_span == set(f.vertex_ids)


def test_orthocomplement_examples():
    v = geo.subspace_from_vectors(3, [(1, 0, 0)])
    w = v.orthogonal_complement()
    assert w == geo.subspace_from_vectors(3, [(0, 1, 0), (0, 0, 1)])
    zero = geo.LinearSubspace(3)
    assert zero.orthogonal_complement().dim == 3
    v2 = geo.subspace_from_vectors(3, [(1, 1, 0)])
    w2 = v2.orthogonal_complement()
    assert w2.dim == 2 and all(dot(b, (1, 1, 0)) == 0 for b in w2.basis)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_orthocomplement_involution(seed):
    rng = random.Random(seed)
    amb = rng.randint(1, 4)
    k = rng.randint(0, amb)
    vectors = [tuple(rng.randint(-4, 4) for _ in range(amb)) for _ in range(k)]
    v = geo.subspace_from_vectors(amb, vectors)
    assert v.orthogonal_complement().orthogonal_complement() == v


def test_hyperbolic_point_validation():
    with pytest.raises(ValueError):
        geo.point_subspace(H2, (1, 0))
    geo.point_subspace(H2, (Fr(1, 2), Fr(1, 2)))
