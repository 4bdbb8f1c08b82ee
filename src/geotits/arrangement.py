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

    __slots__ = ("geometry", "covectors", "cells", "_flat_signs", "_cells_in", "_witness_rows",
                 "_zero_masks", "_facet_zeros", "_facets", "_bounded")

    def __init__(self, geometry, covectors, cells):
        self.geometry = geometry
        self.covectors = covectors
        self.cells = cells  # dict sign_vector -> Cell
        self._flat_signs = {}  # carrier -> flat_signs(carrier)
        self._cells_in = {}  # signs -> cells_in(signs)
        self._witness_rows = {}  # sign vector -> primitive integer witness
        self._zero_masks = {}  # cell dim -> zero sets of its cells, as bit masks
        for s, c in cells.items():
            self._zero_masks.setdefault(c.dim, set()).add(_zero_mask(s))
        self._facet_zeros = {}  # zero mask -> zero masks of its facets' flats
        self._facets = {}  # sign vector -> facets(sign vector)
        self._bounded = {}  # sign vector -> bounded(sign vector)

    def census(self):
        out = {}
        for c in self.cells.values():
            out[c.dim] = out.get(c.dim, 0) + 1
        return dict(sorted(out.items()))

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

    def polytope_signs(self, facets):
        """Signs of a closed L-polytope: the side of each facet half-space.
        Every half-space passed must be a facet, since a redundant one on a
        hyperplane outside the arrangement would be refused too.
        ValueError names a facet hyperplane outside the arrangement."""
        signs = []
        for h in facets:
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

    def facets(self, sign):
        """The cells one dimension lower in the cell's closure, in
        sign-vector order.

        With Z the cell's zero set, each facet is the cell zeroed on the
        zero set Z' of the flat cut from its flat by a hyperplane j of its
        support: the one zero set of a cell one dimension lower holding Z
        and j, found once per Z.  Each candidate that is a cell is a facet."""
        got = self._facets.get(sign)
        if got is None:
            zeros = _zero_mask(sign)
            if zeros not in self._facet_zeros:
                lower = self._zero_masks.get(self.cells[sign].dim - 1, ())
                needs = (zeros | 1 << j for j, x in enumerate(sign) if x)
                walls = {next((z for z in lower if z & need == need), None) for need in needs}
                self._facet_zeros[zeros] = walls - {None}
            cands = (tuple(0 if z >> i & 1 else x for i, x in enumerate(sign))
                     for z in self._facet_zeros[zeros])
            got = self._facets[sign] = tuple(sorted(t for t in cands if t in self.cells))
        return got

    def bounded(self, sign):
        """Is the cell bounded?  Every cell of S^n is; in E^n and H^n a
        0-cell is, a 1-cell is when it has two facets, and a d-cell,
        d >= 2, is when it has facets and all of them are bounded.

        Why: close the d-cell in the closed chart ball (the Klein model
        for H^n; for E^n, the chart closed by its sphere of directions).
        That closure is compact and convex, so its relative boundary is
        a (d-1)-sphere, which is connected.  The boundary is the union of
        the facet closures and of the closure's points at infinity, two
        closed sets that are disjoint when every facet is bounded; then,
        with a facet, nothing lies at infinity.  A bounded cell has a
        nonempty boundary, so it has facets, and they are bounded.  On a
        window arrangement every cell lies in the window, so all are.
        """
        got = self._bounded.get(sign)
        if got is None:
            dim = self.cells[sign].dim
            if self.geometry.kind == geo.SPHERICAL or dim == 0:
                got = True
            elif dim == 1:
                got = len(self.facets(sign)) == 2
            else:
                facets = self.facets(sign)
                got = bool(facets) and all(map(self.bounded, facets))
            self._bounded[sign] = got
        return got

    def orientation(self, flag):
        """Orientation of a flag of cells, given by sign vectors with the
        top cell last, in the top cell's flat: the sign of the minor of
        their witness rows at that flat's pivots.

        Each witness is checked once against its own cell's flat and kept
        as a primitive integer row (a positive rescale of its ambient
        vector, which keeps every sign).  The cells of a flag lie in the
        top cell's closure, so their witnesses lie in its flat, where a
        vector's coordinate on the basis row with pivot column c is v[c]
        over that row's positive pivot entry.
        """
        rows = []
        for s in flag:
            row = self._witness_rows.get(s)
            if row is None:
                cell = self.cells[s]
                v = geo.chart_vector(self.geometry, cell.witness)
                if not cell.flat.contains_vector(v):
                    raise AssertionError("cell witness lies off its flat")
                row = self._witness_rows[s] = exact.primitive_int_row(v)
            rows.append(row)
        pivots = self.cells[flag[-1]].flat.pivots
        return exact.det_sign([[row[p] for p in pivots] for row in rows])


def _zero_mask(sign_vector):
    return sum(1 << i for i, x in enumerate(sign_vector) if x == 0)


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
    # each witness travels with its integer point, scaled once
    partial = {(): (base_witness, exact.int_point(base_witness))}

    for m, cov in enumerate(covectors):
        row = geo.functional_chart_row(g, cov)
        updated = {}
        for signs, (witness, point) in sorted(partial.items()):
            val = dot(row, point)
            s0 = 1 if val > 0 else (-1 if val < 0 else 0)
            updated[signs + (s0,)] = (witness, point)
            flat = _flat_of(g, covectors[:m], signs)
            if _constant_on_cell_span(g, cov, flat):
                continue  # the hyperplane cannot split this cell
            for s in (-1, 0, 1):
                if s == s0:
                    continue
                cand = signs + (s,)
                w = _part_witness(g, covectors[: m + 1], cand, within_rows)
                if w is not None:
                    updated[cand] = (w, exact.int_point(w))
        partial = updated

    cells = {}
    for signs, (witness, _) in sorted(partial.items()):
        flat = _flat_of(g, covectors, signs)
        cells[signs] = Cell(signs, flat, flat.dim - 1, witness)
    return FacePoset(g, covectors, cells)


def region_basis(poset):
    """Sorted basis of the bounded regions (``FacePoset.bounded``): all
    the regions on S^n and on a window arrangement."""
    return tuple(c.sign_vector for c in poset.regions() if poset.bounded(c.sign_vector))


def polytope_to_vector(facets, basis, poset):
    """Indicator vector over the region basis of the convex L-polytope cut
    out by these half-spaces, each of them a facet of it.

    Returns NOT_L_POLYTOPE when a facet hyperplane lies outside the
    collection or the polytope covers regions outside the basis.
    """
    try:
        signs = poset.polytope_signs(facets)
    except ValueError:  # a facet hyperplane outside the collection
        return NOT_L_POLYTOPE
    vec = [0] * len(basis)
    index = {s: i for i, s in enumerate(basis)}
    n = poset.geometry.n
    for s in poset.cells_in(signs):
        if poset.cells[s].dim == n:
            if s not in index:
                return NOT_L_POLYTOPE
            vec[index[s]] += 1
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


def cofacet_lift(poset, facet_sign):
    """(region_sign, actual_side) of a bounded region having the given
    (n-1)-cell as a facet, on the positive side of the cell's wall if
    that one is bounded; NO_LIFT when neither is."""
    wall = facet_wall(poset, facet_sign)
    for s in (1, -1):
        cand = tuple((s if i == wall else x) for i, x in enumerate(facet_sign))
        cell = poset.cells.get(cand)
        if cell is not None and cell.dim == poset.geometry.n and poset.bounded(cand):
            return cand, s
    return NO_LIFT
