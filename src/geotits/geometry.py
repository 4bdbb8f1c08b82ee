"""The three geometries and their exact-rational subspace/polytope types.

Working charts (normative for all incidence decisions):

* Euclidean ``E^n``: affine chart ``x0 = 1``; chart points in Q^n.
* Hyperbolic ``H^n``: Klein chart, the open unit ball in the chart
  ``x0 = 1`` (projective coordinates x_i/x0).
* Spherical ``S^n``: homogeneous cone coordinates, S^n = (Q^(n+1)\\{0})
  modulo positive scaling.

A geodesic subspace is carried by a linear subspace of Q^(n+1) in
canonical form (``exact.rref``: primitive integer rows with positive
pivots), so equality of subspaces is syntactic.
"""

from math import gcd

from geotits import exact
from geotits.exact import F0, F1, dot, frac, primitive_int_row

EUCLIDEAN = "E"
HYPERBOLIC = "H"
SPHERICAL = "S"


class Geometry:
    """One of E^n, H^n, S^n."""

    __slots__ = ("kind", "n")

    def __init__(self, kind, n):
        if kind not in (EUCLIDEAN, HYPERBOLIC, SPHERICAL):
            raise ValueError(f"unknown geometry kind {kind!r}")
        if n < 0:
            raise ValueError("dimension must be >= 0")
        if kind in (EUCLIDEAN, HYPERBOLIC) and n < 1:
            raise ValueError(f"{kind}^{n}: Euclidean/hyperbolic need n >= 1")
        self.kind = kind
        self.n = n

    @property
    def ambient_dim(self):
        return self.n + 1

    @property
    def chart_dim(self):
        """Number of chart variables for feasibility systems."""
        return self.n if self.kind in (EUCLIDEAN, HYPERBOLIC) else self.n + 1

    def __eq__(self, other):
        return isinstance(other, Geometry) and (self.kind, self.n) == (other.kind, other.n)

    def __hash__(self):
        return hash((self.kind, self.n))

    def __repr__(self):
        return f"{self.kind}^{self.n}"


def minkowski_form(n):
    """Integer Gram matrix of -x0^2 + x1^2 + ... + xn^2."""
    rows = []
    for i in range(n + 1):
        row = [0] * (n + 1)
        row[i] = 1 if i else -1
        rows.append(tuple(row))
    return tuple(rows)


class LinearSubspace:
    """Linear subspace of Q^(ambient_dim) with the canonical basis of
    ``exact.rref``: primitive integer rows with positive pivots."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim, vectors=()):
        self.ambient_dim = ambient_dim
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("vector length mismatch")
        self.basis, self.pivots = exact.rref(vectors)

    @property
    def dim(self):
        return len(self.basis)

    def contains_vector(self, v):
        """Is v in the subspace?  Clears v at each pivot column with one
        integer multiple of that basis row; v is in the subspace exactly
        when nothing is left."""
        if len(v) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        w = primitive_int_row(v)
        for row, c in zip(self.basis, self.pivots):
            f = w[c]
            if f:
                pv = row[c]
                w = [pv * x - f * y for x, y in zip(w, row)]
        return not any(w)

    def contains(self, other):
        if other.dim > self.dim:
            return False
        return all(self.contains_vector(v) for v in other.basis)

    def orthogonal_complement(self):
        return LinearSubspace(self.ambient_dim, exact.nullspace(self.basis, self.ambient_dim))

    def sort_key(self):
        """(dim, the Gauss-Jordan entries as (numerator, denominator)):
        each entry x of a row with pivot entry pv is the fraction x/pv."""
        key = []
        for row, c in zip(self.basis, self.pivots):
            pv = row[c]
            for x in row:
                g = gcd(x, pv)
                key.append((x // g, pv // g))
        return self.dim, tuple(key)

    def __eq__(self, other):
        return (
            isinstance(other, LinearSubspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"LinearSubspace(dim={self.dim}/{self.ambient_dim})"


def subspace_from_vectors(ambient_dim, vectors):
    return LinearSubspace(ambient_dim, list(vectors))


def full_space(ambient_dim):
    return LinearSubspace(ambient_dim, exact.nullspace((), ambient_dim))


def geo_nonempty(carrier, geometry):
    """Does the linear subspace meet the geometry?"""
    if carrier.ambient_dim != geometry.ambient_dim:
        raise ValueError("ambient mismatch")
    if geometry.kind == EUCLIDEAN:
        return any(row[0] != 0 for row in carrier.basis)
    if geometry.kind == HYPERBOLIC:
        sig = exact.signature_on_subspace(minkowski_form(geometry.n), carrier.basis)
        return sig[1] >= 1
    return carrier.dim >= 1


class GeoSubspace:
    """Nonempty geodesic subspace of a geometry."""

    __slots__ = ("geometry", "carrier")

    def __init__(self, geometry, carrier):
        if not geo_nonempty(carrier, geometry):
            raise ValueError("carrier does not meet the geometry")
        self.geometry = geometry
        self.carrier = carrier

    @classmethod
    def _nonempty(cls, geometry, carrier):
        """Build without the nonemptiness check, for a carrier known to
        meet the geometry."""
        self = object.__new__(cls)
        self.geometry = geometry
        self.carrier = carrier
        return self

    @property
    def geo_dim(self):
        return self.carrier.dim - 1

    def is_top(self):
        return self.carrier.dim == self.geometry.ambient_dim

    def contains(self, other):
        return self.carrier.contains(other.carrier)

    def sort_key(self):
        return self.carrier.sort_key()

    def __eq__(self, other):
        return (
            isinstance(other, GeoSubspace)
            and self.geometry == other.geometry
            and self.carrier == other.carrier
        )

    def __hash__(self):
        return hash((self.geometry, self.carrier))

    def __repr__(self):
        return f"GeoSubspace({self.geometry}, geo_dim={self.geo_dim})"


def top_subspace(geometry):
    return GeoSubspace(geometry, full_space(geometry.ambient_dim))


def chart_vector(geometry, point):
    """Ambient vector of a chart point."""
    if geometry.kind in (EUCLIDEAN, HYPERBOLIC):
        if len(point) != geometry.n:
            raise ValueError("chart point length mismatch")
        return (F1,) + tuple(map(frac, point))
    if len(point) != geometry.n + 1:
        raise ValueError("homogeneous point length mismatch")
    v = tuple(map(frac, point))
    if all(x == 0 for x in v):
        raise ValueError("zero vector is not a spherical point")
    return v


def point_subspace(geometry, point):
    """The 0-dimensional geodesic subspace through a chart point."""
    v = chart_vector(geometry, point)
    if geometry.kind == HYPERBOLIC and sum(x * x for x in point) >= 1:
        raise ValueError("hyperbolic chart point must lie strictly inside the unit ball")
    return GeoSubspace(geometry, subspace_from_vectors(geometry.ambient_dim, [v]))


def canonical_covector(functional):
    """Primitive integer covector with positive leading nonzero entry."""
    row = primitive_int_row(functional)
    if all(v == 0 for v in row):
        raise ValueError("zero functional")
    for v in row:
        if v != 0:
            if v < 0:
                row = tuple(-x for x in row)
            break
    return row


def hyperplane_subspace(geometry, functional):
    """Geodesic hyperplane ker(functional) meet X^n; None if it misses."""
    cov = canonical_covector(functional)
    ker = LinearSubspace(geometry.ambient_dim, exact.nullspace([cov], geometry.ambient_dim))
    if not geo_nonempty(ker, geometry):
        return None
    return GeoSubspace(geometry, ker)


def functional_chart_row(geometry, functional):
    """Constraint row (vars..., const) of the functional in the chart: its
    entries as given, so an integer covector gives an integer row.  E/H
    move the x0 entry to the constant; S^n appends a constant 0."""
    f = tuple(functional)
    if geometry.kind in (EUCLIDEAN, HYPERBOLIC):
        return f[1:] + (f[0],)
    return f + (0,)


class HalfSpace:
    """functional . x >= 0 with a primitive integer functional."""

    __slots__ = ("functional",)

    def __init__(self, functional, sense=1):
        row = primitive_int_row(functional)
        if all(v == 0 for v in row):
            raise ValueError("zero functional in half-space")
        if sense not in (1, -1):
            raise ValueError("sense must be +1 (>=0) or -1 (<=0)")
        if sense < 0:
            row = tuple(-x for x in row)
        self.functional = row

    @property
    def hyperplane(self):
        return canonical_covector(self.functional)

    def chart_row(self, geometry):
        return functional_chart_row(geometry, self.functional)

    def __eq__(self, other):
        return isinstance(other, HalfSpace) and self.functional == other.functional

    def __hash__(self):
        return hash(self.functional)

    def __repr__(self):
        return f"HalfSpace({self.functional})"


class Invalid:
    """polytope_from_halfspaces failure verdict."""

    EMPTY = "EMPTY"
    LOWER_DIMENSIONAL = "LOWER_DIMENSIONAL"
    UNBOUNDED = "UNBOUNDED"

    __slots__ = ("reason",)

    def __init__(self, reason):
        self.reason = reason

    def __repr__(self):
        return f"Invalid({self.reason})"


class ConvexPolytope:
    """Convex polytope with nonempty interior in X^n, bounded per geometry,
    as its half-spaces and an exact interior witness."""

    __slots__ = ("geometry", "halfspaces", "interior_witness")

    def __init__(self, geometry, halfspaces, interior_witness):
        self.geometry = geometry
        self.halfspaces = tuple(halfspaces)
        self.interior_witness = interior_witness

    def __repr__(self):
        return f"ConvexPolytope({self.geometry}, facets<={len(self.halfspaces)})"


def recession_cone_nonzero(halfspaces, geometry):
    """Recession cone of the chart polyhedron is nonzero?  For E/H that
    is unboundedness; spherical chart rows are linear already, so for S
    it says the cone of the half-spaces is not {0}."""
    nv = geometry.chart_dim
    linear = [h.chart_row(geometry)[:nv] + (0,) for h in halfspaces]
    for i in range(nv):
        for s in (1, -1):
            eq = [0] * (nv + 1)
            eq[i] = s
            eq[nv] = -1
            if exact.feasible((), linear, [tuple(eq)], nv) is not None:
                return True
    return False


def _vertex_candidates(halfspaces, geometry):
    """Exact chart vertices of the (assumed bounded) chart polyhedron."""
    from itertools import combinations

    nv = geometry.n
    rows = [h.chart_row(geometry) for h in halfspaces]
    hyps = {}
    for i, h in enumerate(halfspaces):
        hyps.setdefault(h.hyperplane, []).append(i)
    distinct = sorted(hyps)
    verts = []
    seen = set()
    for combo in combinations(range(len(distinct)), nv):
        sel = [rows[hyps[distinct[i]][0]] for i in combo]
        sol = exact.solve_unique([r[:nv] for r in sel], [-r[nv] for r in sel])
        if sol is None:
            continue
        if sol in seen:
            continue
        if all(dot(r[:nv], sol) + r[nv] >= 0 for r in rows):
            seen.add(sol)
            verts.append(sol)
    return sorted(verts)


def polytope_from_halfspaces(geometry, halfspaces):
    """Build a convex polytope; Invalid(reason) when the definition fails.
    ValueError for no half-spaces: they would leave no interior witness
    on the sphere and an unbounded chart in E/H."""
    halfspaces = tuple(dict.fromkeys(halfspaces))  # drop exact duplicates
    if not halfspaces:
        raise ValueError("a polytope needs at least one half-space")
    g = geometry
    nv = g.chart_dim
    rows = [h.chart_row(g) for h in halfspaces]
    witness = exact.feasible(rows, (), (), nv)
    if witness is None:
        if exact.feasible((), rows, (), nv) is None:
            return Invalid(Invalid.EMPTY)
        if g.kind == SPHERICAL and not recession_cone_nonzero(halfspaces, g):
            return Invalid(Invalid.EMPTY)
        return Invalid(Invalid.LOWER_DIMENSIONAL)
    if not is_bounded(halfspaces, g):
        return Invalid(Invalid.UNBOUNDED)
    return ConvexPolytope(g, halfspaces, witness)


def is_bounded(halfspaces, geometry):
    """Boundedness per geometry (spec: vertex-norm test in the Klein chart)."""
    if geometry.kind == SPHERICAL:
        return True
    if recession_cone_nonzero(halfspaces, geometry):
        return False
    if geometry.kind == HYPERBOLIC:
        for v in _vertex_candidates(halfspaces, geometry):
            if sum((frac(x) * frac(x) for x in v), F0) >= 1:
                return False
    return True


def span_points(points):
    """Smallest geodesic subspace containing the given 0-dim subspaces."""
    if not points:
        raise ValueError("span of no points")
    g = points[0].geometry
    vectors = []
    for p in points:
        if p.geometry != g:
            raise ValueError("mixed geometries in span")
        vectors.extend(p.carrier.basis)
    # The span contains each input's carrier, which meets the geometry.
    return GeoSubspace._nonempty(g, subspace_from_vectors(g.ambient_dim, vectors))


def meet_hyperplane(subspace, covector):
    """The geodesic subspace cut from ``subspace`` by ker(covector); None
    when the cut misses the geometry.

    One elimination step on the basis rows b_i: with the values
    v_i = covector . b_i and v_k the first nonzero one, the rows
    v_k b_i - v_i b_k (i != k) span the intersection.  A subspace inside
    the hyperplane (every v_i zero) is its own intersection.
    """
    g = subspace.geometry
    if len(covector) != g.ambient_dim:
        raise ValueError("vector length mismatch")
    rows = subspace.carrier.basis
    values = [dot(covector, row) for row in rows]
    k = next((i for i, v in enumerate(values) if v), None)
    if k is None:
        return subspace
    vk, bk = values[k], rows[k]
    carrier = LinearSubspace(g.ambient_dim, [
        tuple(vk * x - vi * y for x, y in zip(row, bk))
        for i, (row, vi) in enumerate(zip(rows, values))
        if i != k
    ])
    if not geo_nonempty(carrier, g):
        return None
    return GeoSubspace._nonempty(g, carrier)
