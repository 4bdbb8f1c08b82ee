"""Finite collections of geodesic subspaces and their derived collections.

A collection is canonically sorted, so set equality is syntactic.  The
generating hyperplanes are kept as canonical integer covectors alongside
the member subspaces (for S^0 the unique "hyperplane" is the zero
subspace, which is not a geodesic member but still counts as a
generator).
"""

from geotits import exact, geometry as geo

ADMISSIBLE = "ADMISSIBLE"
NOT_ADMISSIBLE = "NOT_ADMISSIBLE"
NOT_DECIDABLE_FINITE = "NOT_DECIDABLE_FINITE"


class Collection:
    __slots__ = ("geometry", "members", "hyperplane_covectors")

    def __init__(self, geometry, members, hyperplane_covectors=()):
        self.geometry = geometry
        self.members = tuple(sorted(set(members), key=lambda m: m.sort_key()))
        self.hyperplane_covectors = tuple(sorted(hyperplane_covectors))

    def top(self):
        return geo.top_subspace(self.geometry)

    def grade(self, k):
        """Members of geometric dimension k."""
        return tuple(m for m in self.members if m.geo_dim == k)

    def points(self):
        return self.grade(0)

    def hyperplane_members(self):
        return self.grade(self.geometry.n - 1)

    def __eq__(self, other):
        return (
            isinstance(other, Collection)
            and self.geometry == other.geometry
            and self.members == other.members
        )

    def __hash__(self):
        return hash((self.geometry, self.members))

    def __repr__(self):
        return f"Collection({self.geometry}, {len(self.members)} members)"


def _closure(seeds, generators, step):
    """Every member reached from the seeds by adding one generator at a
    time.  Each member is visited once; ``step(member, generator)`` is
    the member with that generator added, or None when there is none."""
    members = {m.carrier: m for m in seeds}
    frontier = list(members.values())
    while frontier:
        new = []
        for m in frontier:
            for gen in generators:
                c = step(m, gen)
                if c is not None and c.carrier not in members:
                    members[c.carrier] = c
                    new.append(c)
        frontier = new
    return list(members.values())


def _covector(hyperplane):
    """The canonical covector of a hyperplane member."""
    return geo.canonical_covector(exact.nullspace(hyperplane.carrier.basis)[0])


def _add_point(member, point):
    return None if member.contains(point) else geo.span_points([member, point])


def closure_by_hyperplanes(geometry, covectors):
    """All nonempty intersections of the hyperplanes, plus the top space."""
    covs = []
    seen = set()
    for c in covectors:
        cc = geo.canonical_covector(c)
        if cc in seen:
            raise ValueError(f"duplicate hyperplane {cc}")
        seen.add(cc)
        covs.append(cc)
    seeds = []
    for c in covs:
        h = geo.hyperplane_subspace(geometry, c)
        if h is None:
            if geometry.kind == geo.SPHERICAL and geometry.n == 0:
                continue  # the zero subspace: generator without geodesic carrier
            raise ValueError(f"hyperplane {c} does not meet the geometry")
        seeds.append(h)
    members = _closure(seeds, covs, geo.meet_hyperplane)
    members.append(geo.top_subspace(geometry))
    return Collection(geometry, members, covs)


def closure_by_points(geometry, points):
    """All spans of nonempty subsets of the points.

    Returns (collection, generating) where ``generating`` records whether
    the spans reach the whole geometry (X^n in the collection).
    """
    for p in points:
        if p.geo_dim != 0:
            raise ValueError("closure_by_points needs 0-dimensional subspaces")
    if not points:
        raise ValueError("no points given")
    members = _closure(points, points, _add_point)
    generating = any(m.is_top() for m in members)
    covs = [_covector(m) for m in members if m.geo_dim == geometry.n - 1]
    return Collection(geometry, members, covs), generating


class Variants:
    """The derived collections for one extra hyperplane U."""

    __slots__ = ("cup", "cap", "u_member")

    def __init__(self, cup, cap, u_member):
        self.cup = cup
        self.cap = cap
        self.u_member = u_member


def variants(collection, u_covector):
    """L-cup-U and L-cap-U for a single hyperplane U."""
    u = geo.canonical_covector(u_covector)
    base = list(collection.hyperplane_covectors)
    covs = base if u in base else base + [u]
    cup = closure_by_hyperplanes(collection.geometry, covs)
    u_member = geo.hyperplane_subspace(collection.geometry, u)
    cap = tuple(m for m in cup.members if u_member.contains(m))
    return Variants(cup, cap, u_member)


def restrict(collection, polytope):
    """Sub-poset L|A of members meeting the convex polytope A: the top,
    and each member whose carrier holds a cell of the arrangement of A's
    walls in A (``arrangement.window_arrangement``)."""
    from geotits.arrangement import window_arrangement  # it imports this module

    return tuple(m for m in collection.members
                 if m.is_top() or window_arrangement(polytope, m.carrier).cells)


def dualize(collection):
    """Orthogonal-complement collection (spherical only)."""
    if collection.geometry.kind != geo.SPHERICAL:
        raise ValueError("dualize needs spherical geometry")
    g = collection.geometry
    members = [geo.top_subspace(g)]
    for m in collection.members:
        c = m.carrier.orthogonal_complement()
        if geo.geo_nonempty(c, g):
            members.append(geo.GeoSubspace(g, c))
    covs = [_covector(m) for m in members if m.geo_dim == g.n - 1 and not m.is_top()]
    return Collection(g, members, covs)


def admissible(collection):
    g = collection.geometry
    if g.kind == geo.EUCLIDEAN:
        return ADMISSIBLE if collection.points() else NOT_ADMISSIBLE
    if g.kind == geo.SPHERICAL:
        covs = collection.hyperplane_covectors
        if covs and exact.rank(covs) == g.ambient_dim:
            return ADMISSIBLE
        return NOT_ADMISSIBLE
    return NOT_DECIDABLE_FINITE


def hyperplane_intersection_carrier(collection):
    """Carrier of the intersection of all generating hyperplanes."""
    g = collection.geometry
    covs = collection.hyperplane_covectors
    if not covs:
        return geo.full_space(g.ambient_dim)
    return geo.LinearSubspace(g.ambient_dim, exact.nullspace(covs, g.ambient_dim))


def _generated(collection, seeds, generators, step):
    """True iff ``_closure`` of the seeds is exactly the collection, its
    top included.  The closure stops at the first member outside the
    collection: every later step returns None."""
    inside = {m.carrier for m in collection.members}
    escaped = False

    def inside_step(member, gen):
        nonlocal escaped
        if escaped:
            return None
        c = step(member, gen)
        if c is not None and c.carrier not in inside:
            escaped = True
            return None
        return c

    members = _closure(seeds, generators, inside_step)
    return (not escaped and {m.carrier for m in members} == inside
            and any(m.is_top() for m in members))


def generated_by_points(collection):
    pts = collection.points()
    return bool(pts) and _generated(collection, pts, pts, _add_point)


def generated_by_hyperplanes(collection):
    covs = [_covector(m) for m in collection.hyperplane_members()]
    top = geo.top_subspace(collection.geometry)
    return _generated(collection, [top], covs, geo.meet_hyperplane)


def generated_by_both(collection):
    return generated_by_points(collection) and generated_by_hyperplanes(collection)
