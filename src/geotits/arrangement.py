"""Hyperplane-arrangement cells, region bases and polytope normal forms.

Cells are keyed by sign vectors over the collection's hyperplanes (in
canonical covector order).  Regions are represented by sign vectors plus
exact interior witnesses, so unbounded regions are first class.  On the
sphere the two antipodes of a 0-flat are distinct cells with opposite
sign vectors.
"""

from itertools import combinations

from geotits import HypothesesError, exact, geometry as geo
from geotits.exact import F0, F1, dot, frac

MAX_DIM = 4
MAX_HYPERPLANES = 16

NOT_L_POLYTOPE = "NOT_L_POLYTOPE"
NO_LIFT = "NO_LIFT"


class Cell:
    __slots__ = ("sign_vector", "flat", "dim", "witness")

    def __init__(self, sign_vector, flat, dim, witness):
        self.sign_vector = sign_vector
        self.flat = flat
        self.dim = dim
        self.witness = witness

    def __repr__(self):
        return f"Cell({sign_key(self.sign_vector)}, dim={self.dim})"


def sign_key(sign_vector):
    return "".join("+" if s > 0 else "-" if s < 0 else "0" for s in sign_vector)


class FacePoset:
    """All cells of the arrangement, ordered by closure.

    Incidence is read off sign vectors (covectors, as in Björner et al.,
    *Oriented Matroids*, 1993).  A closed set cut out by arrangement
    hyperplanes has signs on some of them, given as (index, sign) pairs;
    a cell lies in the set exactly when its sign at each is 0 or that sign.
    """

    __slots__ = ("geometry", "covectors", "cells", "within", "_flat_signs", "_cells_in")

    def __init__(self, geometry, covectors, cells, within=None):
        self.geometry = geometry
        self.covectors = covectors
        self.cells = cells  # dict sign_vector -> Cell
        self.within = within
        self._flat_signs = {}  # carrier -> flat_signs(carrier)
        self._cells_in = {}  # signs -> cells_in(signs)

    def census(self):
        out = {}
        for c in self.cells.values():
            out[c.dim] = out.get(c.dim, 0) + 1
        return dict(sorted(out.items()))

    @staticmethod
    def leq(a, b):
        """Closure order: cell a lies in the closure of cell b."""
        return all(x == 0 or x == y for x, y in zip(a, b))

    def regions(self):
        n = self.geometry.n
        return [c for s, c in sorted(self.cells.items()) if c.dim == n]

    def flat_signs(self, carrier):
        """Signs of a flat of the collection: 0 on each hyperplane that
        vanishes on its carrier.  These hyperplanes cut the flat out
        (asserted once per carrier)."""
        signs = self._flat_signs.get(carrier)
        if signs is None:
            zeros = [
                i for i, cov in enumerate(self.covectors)
                if all(dot(cov, b) == 0 for b in carrier.basis)
            ]
            if exact.rank([self.covectors[i] for i in zeros]) + carrier.dim != carrier.ambient_dim:
                raise AssertionError("flat is not the intersection of the hyperplanes containing it")
            signs = self._flat_signs[carrier] = tuple((i, 0) for i in zeros)
        return signs

    def polytope_signs(self, polytope):
        """Signs of a closed L-polytope: the side of each facet half-space.
        ValueError names a facet hyperplane outside the arrangement."""
        signs = []
        for h in polytope.facet_halfspaces():
            hyp = h.hyperplane
            if hyp not in self.covectors:
                raise ValueError(
                    f"not an L-polytope: facet hyperplane {list(hyp)} is not in the arrangement"
                )
            side = 1 if h.functional == hyp else -1
            signs.append((self.covectors.index(hyp), side))
        return tuple(signs)

    def cells_in(self, signs):
        """Sign vectors of the cells lying in the closed set with these signs."""
        inside = self._cells_in.get(signs)
        if inside is None:
            inside = self._cells_in[signs] = frozenset(
                s for s in self.cells if self._agrees(s, signs)
            )
        return inside

    @staticmethod
    def _agrees(sign_vector, signs):
        return all(sign_vector[i] == 0 or sign_vector[i] == s for i, s in signs)


def _cell_rows(geometry, covectors, sign_vector, extra_nonstrict=()):
    """(strict, nonstrict, eq) chart rows realizing a sign vector."""
    strict, eqs = [], []
    for s, cov in zip(sign_vector, covectors):
        row = geo.functional_chart_row(geometry, cov)
        if s > 0:
            strict.append(row)
        elif s < 0:
            strict.append(tuple(-x for x in row))
        else:
            eqs.append(row)
    return strict, list(extra_nonstrict), eqs


def min_norm_point(nonstrict_rows, eq_rows, nvars):
    """(min ||x||^2, argmin) over the closed polyhedron, None if empty."""
    if exact.feasible((), nonstrict_rows, eq_rows, nvars) is None:
        return None
    ineq = [tuple(map(frac, r)) for r in nonstrict_rows]
    eqs = [tuple(map(frac, r)) for r in eq_rows]
    best = None
    for size in range(0, nvars + 1):
        for combo in combinations(range(len(ineq)), size):
            rows = eqs + [ineq[i] for i in combo]
            if rows:
                sol = exact.solve_affine(
                    [r[:nvars] for r in rows], [-r[nvars] for r in rows]
                )
                if sol is None:
                    continue
                x0, hom = sol
                if hom:
                    gram = [[dot(u, v) for v in hom] for u in hom]
                    rhs = [-dot(u, x0) for u in hom]
                    t = exact.solve_unique(gram, rhs)
                    x = list(x0)
                    for ti, h in zip(t, hom):
                        for j in range(nvars):
                            x[j] += ti * h[j]
                    x = tuple(x)
                else:
                    x = x0
            else:
                x = tuple([F0] * nvars)
            if not all(dot(r[:nvars], x) + r[nvars] >= 0 for r in ineq):
                continue
            if not all(dot(r[:nvars], x) + r[nvars] == 0 for r in eqs):
                continue
            val = dot(x, x)
            if best is None or val < best[0]:
                best = (val, x)
    return best


def _ball_interior_witness(strict, nonstrict, eqs, nv):
    """Witness of the system strictly inside the unit ball, or None."""
    w = exact.feasible(strict, nonstrict, eqs, nv)
    if w is None:
        return None
    if sum((x * x for x in w), F0) < 1:
        return w
    closed = list(strict) + list(nonstrict)
    got = min_norm_point(closed, eqs, nv)
    if got is None:  # pragma: no cover - strict feasible implies nonempty
        return None
    val, p = got
    if val >= 1:
        return None
    t = F1
    while True:
        cand = tuple(pi + t * (wi - pi) for pi, wi in zip(p, w))
        if sum((x * x for x in cand), F0) < 1:
            return cand
        t = t / 2


def _flat_of(geometry, covectors, sign_vector):
    zero_rows = [cov for s, cov in zip(sign_vector, covectors) if s == 0]
    if not zero_rows:
        return geo.full_space(geometry.ambient_dim)
    return geo.LinearSubspace(
        geometry.ambient_dim, exact.nullspace(zero_rows, geometry.ambient_dim)
    )


def _part_witness(geometry, covectors, sign_vector, within_rows):
    """Interior witness of the candidate cell, or None if empty."""
    g = geometry
    nv = g.chart_dim
    strict, nonstrict, eqs = _cell_rows(g, covectors, sign_vector, within_rows)
    if g.kind == geo.SPHERICAL:
        if not strict:
            flat = _flat_of(g, covectors, sign_vector)
            if flat.dim == 0:
                return None
            return flat.basis[0]
        return exact.feasible(strict, nonstrict, eqs, nv)
    if g.kind == geo.EUCLIDEAN or within_rows:
        # a bounded window A lies strictly inside the Klein ball already
        return exact.feasible(strict, nonstrict, eqs, nv)
    return _ball_interior_witness(strict, nonstrict, eqs, nv)


def _constant_on_cell_span(geometry, cov, flat):
    """Is the functional constant on the cell's chart span?"""
    if geometry.kind == geo.SPHERICAL:
        return all(dot(cov, b) == 0 for b in flat.basis)
    # RREF basis of a chart-meeting flat has exactly one row with x0 != 0;
    # the remaining rows span the direction space.
    return all(dot(cov, b) == 0 for b in flat.basis if b[0] == 0)


def size_guard(geometry, hyperplanes):
    """HypothesesError unless an arrangement of this many hyperplanes in
    this geometry is within the desk-scale guards."""
    if geometry.n > MAX_DIM:
        raise HypothesesError(f"dimension {geometry.n} exceeds the desk-scale guard {MAX_DIM}")
    if hyperplanes > MAX_HYPERPLANES:
        raise HypothesesError(
            f"{hyperplanes} hyperplanes exceed the desk-scale guard {MAX_HYPERPLANES}"
        )


def build_arrangement(coll, within=None):
    """Incremental construction by hyperplane insertion.

    ``within``: optional convex window polytope A whose facet hyperplanes
    belong to the collection; the arrangement is then restricted to the
    cells meeting A (the A-local form).  Hyperbolic global arrangements
    use exact Klein-ball membership tests.  HypothesesError when the
    collection exceeds the size guards or A is not an L-polytope.
    """
    g = coll.geometry
    covectors = tuple(sorted(coll.hyperplane_covectors))
    size_guard(g, len(covectors))
    within_rows = []
    if within is not None:
        known = set(covectors)
        if any(h.hyperplane not in known for h in within.halfspaces):
            raise HypothesesError("window polytope must be an L-polytope")
        within_rows = [h.chart_row(g) for h in within.halfspaces]

    nv = g.chart_dim
    if within is not None:
        base_witness = within.interior_witness
    elif g.kind == geo.SPHERICAL:
        base_witness = tuple([F1] + [F0] * (nv - 1))
    else:
        base_witness = tuple([F0] * nv)
    partial = {(): base_witness}

    for m, cov in enumerate(covectors):
        row = geo.functional_chart_row(g, cov)
        updated = {}
        for signs, witness in sorted(partial.items()):
            val = dot(row[:nv], witness) + row[nv]
            s0 = 1 if val > 0 else (-1 if val < 0 else 0)
            updated[signs + (s0,)] = witness
            flat = _flat_of(g, covectors[:m], signs)
            if _constant_on_cell_span(g, cov, flat):
                continue  # the hyperplane cannot split this cell
            for s in (-1, 0, 1):
                if s == s0:
                    continue
                cand = signs + (s,)
                w = _part_witness(g, covectors[: m + 1], cand, within_rows)
                if w is not None:
                    updated[cand] = w
        partial = updated

    cells = {}
    for signs, witness in sorted(partial.items()):
        flat = _flat_of(g, covectors, signs)
        cells[signs] = Cell(signs, flat, flat.dim - 1, witness)
    return FacePoset(g, covectors, cells, within=within)


def region_halfspaces(poset, sign_vector):
    halfspaces = []
    for s, cov in zip(sign_vector, poset.covectors):
        if s > 0:
            halfspaces.append(geo.HalfSpace(cov))
        elif s < 0:
            halfspaces.append(geo.HalfSpace(cov, sense=-1))
    if poset.within is not None:
        halfspaces.extend(poset.within.halfspaces)
    return tuple(dict.fromkeys(halfspaces))


def region_is_bounded(poset, cell):
    """Boundedness of a cell's closure (works in any cell dimension)."""
    halfspaces = list(region_halfspaces(poset, cell.sign_vector))
    for s, cov in zip(cell.sign_vector, poset.covectors):
        if s == 0:  # flat equations as opposite half-space pairs
            halfspaces += [geo.HalfSpace(cov), geo.HalfSpace(cov, sense=-1)]
    return geo.is_bounded(halfspaces, poset.geometry)


def region_basis(poset):
    """Deterministically ordered basis of the regions: the bounded ones
    for a global E/H arrangement, all of them otherwise."""
    bounded_only = poset.geometry.kind != geo.SPHERICAL and poset.within is None
    out = []
    for cell in poset.regions():
        if bounded_only and not region_is_bounded(poset, cell):
            continue
        out.append(cell.sign_vector)
    return tuple(sorted(out))


def region_polytope(poset, sign_vector):
    """The closed region as a ConvexPolytope."""
    p = geo.polytope_from_halfspaces(
        poset.geometry, region_halfspaces(poset, sign_vector)
    )
    if isinstance(p, geo.Invalid):
        raise AssertionError(
            f"region {sign_key(sign_vector)} not a valid polytope: {p.reason}"
        )
    return p


def cells_in_polytope(poset, polytope, dims=None):
    inside = poset.cells_in(poset.polytope_signs(polytope))
    return sorted(s for s in inside if dims is None or poset.cells[s].dim in dims)


def polytope_to_vector(polytope, basis, poset):
    """Indicator vector of a convex L-polytope over the region basis.

    Returns NOT_L_POLYTOPE when a facet hyperplane lies outside the
    collection or the polytope covers regions outside the basis.
    """
    vec = [0] * len(basis)
    index = {s: i for i, s in enumerate(basis)}
    try:
        covered = cells_in_polytope(poset, polytope, dims={poset.geometry.n})
    except ValueError:  # a facet hyperplane outside the collection
        return NOT_L_POLYTOPE
    for signs in covered:
        if signs not in index:
            return NOT_L_POLYTOPE
        vec[index[signs]] += 1
    return tuple(vec)


def facet_wall(poset, facet_sign):
    """Index of the unique hyperplane carrying an (n-1)-cell."""
    cell = poset.cells[facet_sign]
    if cell.dim != poset.geometry.n - 1:
        raise ValueError("not an (n-1)-cell")
    walls = [i for i, s in enumerate(facet_sign) if s == 0]
    if len(walls) != 1:  # pragma: no cover - distinct covectors, distinct kernels
        raise AssertionError("an (n-1)-cell must lie on exactly one hyperplane")
    return walls[0]


def cofacet_lift(poset, facet_sign, bounded_required=True):
    """Region of the arrangement having the given (n-1)-cell as a facet.

    Tries the positive side of the cell's wall first; falls back to the
    negative side when boundedness is required but fails there.  Returns
    (region_sign, actual_side) or NO_LIFT.
    """
    wall = facet_wall(poset, facet_sign)
    for s in (1, -1):
        cand = tuple((s if i == wall else x) for i, x in enumerate(facet_sign))
        if cand in poset.cells and poset.cells[cand].dim == poset.geometry.n:
            if not bounded_required or region_is_bounded(poset, poset.cells[cand]):
                return cand, s
    return NO_LIFT
