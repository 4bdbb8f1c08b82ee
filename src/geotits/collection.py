"""Finite collections of geodesic subspaces and their derived collections.

A collection is canonically sorted, so set equality is syntactic.  The
generating hyperplanes are kept as canonical integer covectors alongside
the member subspaces (for S^0 the unique "hyperplane" is the zero
subspace, which is not a geodesic member but still counts as a
generator).  The lattice of flats of the hyperplanes (``flats``) is
enumerated once per collection and kept on it (``Collection.lattice``).
"""

from geotits import exact, geometry as geo
from geotits.exact import dot

ADMISSIBLE = "ADMISSIBLE"
NOT_ADMISSIBLE = "NOT_ADMISSIBLE"
NOT_DECIDABLE_FINITE = "NOT_DECIDABLE_FINITE"


class Collection:
    __slots__ = ("geometry", "members", "hyperplane_covectors", "_lattice")

    def __init__(self, geometry, members, hyperplane_covectors=()):
        self.geometry = geometry
        self.members = tuple(sorted(set(members), key=lambda m: m.sort_key()))
        self.hyperplane_covectors = tuple(sorted(hyperplane_covectors))
        self._lattice = None

    def lattice(self):
        """``flats`` of the hyperplanes over the whole space, keyed by zero
        masks over ``hyperplane_covectors``: built on first use, or kept
        from ``closure_by_hyperplanes``; callers must not mutate it."""
        if self._lattice is None:
            self._lattice = flats(self.geometry, self.hyperplane_covectors,
                                  geo.full_space(self.geometry.ambient_dim))
        return self._lattice

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


def _zeros_on(covectors, rows):
    """Zero mask of span(rows): bit i set when hyperplane i contains it."""
    return sum(1 << i for i, c in enumerate(covectors) if all(dot(c, r) == 0 for r in rows))


def flats(geometry, covectors, carrier):
    """The flats of the hyperplanes inside the carrier that meet the
    geometry, keyed by zero mask (bit i set when hyperplane i contains the
    flat): carriers, and the masks of the flats one dimension lower that
    each contains.

    Top down from the carrier, whose mask holds the hyperplanes that
    contain it: each hyperplane j off a flat cuts it once
    (``geometry.meet_rows`` on its basis).  A flat that misses the
    geometry has no descendant that meets it, so it is dropped."""
    amb = geometry.ambient_dim
    top = _zeros_on(covectors, carrier.basis)
    carriers = {top: carrier}
    children = {}
    missed = set()
    level = [top]
    while level:
        lower = []
        for mask in level:
            rows = carriers[mask].basis
            kids = children[mask] = []
            if len(rows) == 1:
                continue  # a 0-flat: its cuts are the origin
            cut = mask
            for j, cov in enumerate(covectors):
                if cut >> j & 1:
                    continue
                meet = geo.meet_rows(rows, cov)
                child = mask | _zeros_on(covectors, meet)
                cut |= child
                if child not in carriers and child not in missed:
                    flat = geo.LinearSubspace(amb, meet)
                    if geo.geo_nonempty(flat, geometry):
                        carriers[child] = flat
                        lower.append(child)
                    else:
                        missed.add(child)
                if child in carriers:
                    kids.append(child)
        level = lower
    return carriers, children


def closure_by_hyperplanes(geometry, covectors):
    """All nonempty intersections of the hyperplanes, plus the top space:
    the flats of the whole space (``flats``), whose lattice the collection
    keeps.  ValueError for a duplicate hyperplane or one that misses the
    geometry (on S^0 the zero subspace is a generator without a member)."""
    covs = []
    seen = set()
    for c in covectors:
        cc = geo.canonical_covector(c)
        if len(cc) != geometry.ambient_dim:
            raise ValueError("vector length mismatch")
        if cc in seen:
            raise ValueError(f"duplicate hyperplane {cc}")
        seen.add(cc)
        covs.append(cc)
    order = sorted(covs)
    lattice = flats(geometry, order, geo.full_space(geometry.ambient_dim))
    carriers = lattice[0]
    if not (geometry.kind == geo.SPHERICAL and geometry.n == 0):
        for c in covs:
            if 1 << order.index(c) not in carriers:
                raise ValueError(f"hyperplane {c} does not meet the geometry")
    coll = Collection(geometry, [geo.GeoSubspace._nonempty(geometry, f)
                                 for f in carriers.values()], covs)
    coll._lattice = lattice
    return coll


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
