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
from geotits.exact import F1, dot, frac, primitive_int_row

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

    def __eq__(self, other):
        return isinstance(other, HalfSpace) and self.functional == other.functional

    def __hash__(self):
        return hash(self.functional)

    def __repr__(self):
        return f"HalfSpace({self.functional})"


class Invalid:
    """``arrangement.polytope_from_halfspaces`` failure verdict."""

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


def meet_rows(rows, covector):
    """Rows spanning the cut of span(rows) by ker(covector), None when the
    covector vanishes on every row.

    One elimination step on the rows b_i: with the values
    v_i = covector . b_i and v_k the first nonzero one, the rows
    v_k b_i - v_i b_k (i != k) span the intersection.
    """
    values = [dot(covector, row) for row in rows]
    k = next((i for i, v in enumerate(values) if v), None)
    if k is None:
        return None
    vk, bk = values[k], rows[k]
    return [tuple(vk * x - vi * y for x, y in zip(row, bk))
            for i, (row, vi) in enumerate(zip(rows, values)) if i != k]


def meet_hyperplane(subspace, covector):
    """The geodesic subspace cut from ``subspace`` by ker(covector)
    (``meet_rows`` on its basis); None when the cut misses the geometry.
    A subspace inside the hyperplane is its own intersection.
    """
    g = subspace.geometry
    if len(covector) != g.ambient_dim:
        raise ValueError("vector length mismatch")
    rows = meet_rows(subspace.carrier.basis, covector)
    if rows is None:
        return subspace
    carrier = LinearSubspace(g.ambient_dim, rows)
    if not geo_nonempty(carrier, g):
        return None
    return GeoSubspace._nonempty(g, carrier)
