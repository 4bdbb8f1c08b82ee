"""Hyperplane-arrangement cells, region bases and polytope normal forms.

Cells are keyed by sign vectors over the collection's hyperplanes (in
canonical covector order).  Regions are represented by sign vectors plus
exact interior witnesses, so unbounded regions are first class.  On the
sphere the two antipodes of a 0-flat are distinct cells with opposite
sign vectors.
"""

from fractions import Fraction
from math import gcd

from geotits import HypothesesError, exact, geometry as geo
from geotits.collection import Collection
from geotits.exact import dot

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
                 "_step_signs", "_zero_masks", "_facet_zeros", "_facets", "_bounded")

    def __init__(self, geometry, covectors, cells):
        self.geometry = geometry
        self.covectors = covectors
        self.cells = cells  # dict sign_vector -> Cell
        self._flat_signs = {}  # carrier -> flat_signs(carrier)
        self._cells_in = {}  # signs -> cells_in(signs)
        self._witness_rows = {}  # sign vector -> primitive integer witness
        self._step_signs = {}  # (lower sign vector or None, sign vector) -> step_sign
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
        """Orientation of a complete flag of cells, given by sign vectors
        from a 0-cell up, each a facet of the next, in the top cell's
        flat: the sign of the minor of their witness rows at that flat's
        pivots, read as a product of ``step_sign`` over the flag's steps.

        Why: with W the flat of the top cell's facet and V the top flat,
        the lower witnesses lie in W, so they are M times W's basis rows
        B_W, and the minor at V's pivots is det [[M, 0], [0, 1]] times the
        minor of B_W over the top witness.  At W's pivots B_W is diagonal
        with positive entries, so det M has the sign of the shorter
        flag's orientation in W.  Each step's sign is memoised, so a flag
        whose steps are known costs no determinant.
        """
        sign = self.step_sign(None, flag[0])
        for lower, cell in zip(flag, flag[1:]):
            sign *= self.step_sign(lower, cell)
        return sign

    def step_sign(self, lower, sign):
        """The sign of the minor, at the pivots of the cell's flat, of the
        basis rows of the flat of ``lower`` (a cell one dimension lower in
        its closure, or None for the empty face) followed by the cell's
        witness row; memoised per pair.

        Each witness is checked once against its own cell's flat and kept
        as a primitive integer row (a positive rescale of its ambient
        vector, which keeps every sign).  AssertionError when the minor
        is 0 or ``lower`` is not one dimension below the cell.
        """
        key = (lower, sign)
        got = self._step_signs.get(key)
        if got is None:
            cell = self.cells[sign]
            low = () if lower is None else self.cells[lower].flat.basis
            if len(low) != cell.dim:  # a cell's flat has dimension dim + 1
                raise AssertionError("flag step is not one dimension")
            row = self._witness_rows.get(sign)
            if row is None:
                v = geo.chart_vector(self.geometry, cell.witness)
                if not cell.flat.contains_vector(v):
                    raise AssertionError("cell witness lies off its flat")
                row = self._witness_rows[sign] = exact.primitive_int_row(v)
            pivots = cell.flat.pivots
            got = exact.det_sign([[r[p] for p in pivots] for r in (*low, row)])
            if not got:
                raise AssertionError("degenerate flag simplex")
            self._step_signs[key] = got
        return got


def _zero_mask(sign_vector):
    return sum(1 << i for i, x in enumerate(sign_vector) if x == 0)


def size_guard(geometry, hyperplanes):
    """HypothesesError unless an arrangement of this many hyperplanes in
    this geometry is within the desk-scale guards."""
    if geometry.n > MAX_DIM:
        raise HypothesesError(f"dimension {geometry.n} exceeds the desk-scale guard {MAX_DIM}")
    if hyperplanes > MAX_HYPERPLANES:
        raise HypothesesError(
            f"{hyperplanes} hyperplanes exceed the desk-scale guard {MAX_HYPERPLANES}"
        )


def _sign(x):
    return (x > 0) - (x < 0)


def _zeros_on(covectors, rows):
    """Zero mask of span(rows): bit i set when hyperplane i contains it."""
    return sum(1 << i for i, c in enumerate(covectors) if all(dot(c, r) == 0 for r in rows))


def _flats(geometry, covectors, carrier):
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


def _flat_points(geometry, carrier):
    """Ambient witnesses of the cells of a flat that no hyperplane cuts
    inside the geometry: its first basis row, a chart point in E^n (the
    first pivot is x0); the min-norm chart point in H^n (that row made
    orthogonal to the others, which have x0 = 0, by fraction-free
    Gram-Schmidt); on S^n a basis vector, and its antipode too when the
    flat is a 0-flat."""
    rows = carrier.basis
    point = rows[0]
    if geometry.kind == geo.HYPERBOLIC:
        done = []
        for r in rows[1:] + (point,):
            for o in done:
                oo, ro = dot(o, o), dot(r, o)
                r = exact.primitive_int_row([oo * x - ro * y for x, y in zip(r, o)])
            done.append(r)
        point = done[-1]
    if geometry.kind == geo.SPHERICAL and len(rows) == 1:
        return point, tuple(-x for x in point)
    return (point,)


def _step(geometry, w, values, u, u_values):
    """w + t u for t half the tightest bound that keeps the sign of every
    row nonzero at w (and x0 > 0 in E/H), halved again until the point is
    inside the ball in H^n: (primitive point, its row values)."""
    p = q = None
    pairs = list(zip(values, u_values))
    if geometry.kind != geo.SPHERICAL:
        pairs.append((w[0], u[0]))
    for a, b in pairs:
        if a * b < 0 and (p is None or abs(a) * q < p * abs(b)):
            p, q = abs(a), abs(b)
    p, q = (1, 1) if p is None else (p, 2 * q)
    while True:
        v = [q * x + p * y for x, y in zip(w, u)]
        if geometry.kind != geo.HYPERBOLIC or sum(x * x for x in v[1:]) < v[0] * v[0]:
            break
        q *= 2
    d = gcd(*v)
    return tuple(x // d for x in v), [(q * a + p * b) // d for a, b in zip(values, u_values)]


def build_arrangement(coll, within=None, carrier=None):
    """Every cell of the arrangement with an exact interior witness,
    built from the flats of the hyperplanes without a linear program.

    A cell is relatively open in its flat, so its zero set is the flat's.
    The flats that meet the geometry are found top down (``_flats``) and
    their cells lowest dimension first:

    * a flat that no hyperplane cuts inside the geometry is one cell (a
      0-flat of S^n is two, its antipodes), with witness ``_flat_points``;
    * any other flat F is cut, so each of its cells has a facet, a cell
      D of a flat G = F cut by the hyperplanes J.  On F these hyperplanes
      are multiples of one functional, so the cells of F next to D are
      D with its signs on J set by the two sides of G in F.  One basis
      row u of F off G gives those signs, and each witness is an exact
      step from D's witness along +u or -u (``_step``).

    Signs are read off before any witness is made, so a cell reached
    again from another facet costs a lookup.  Each witness is kept as a
    primitive integer ambient vector with its row values, and each
    new cell's values are checked against the signs it was reached with.

    ``within``: optional convex window polytope A whose facet hyperplanes
    belong to the collection; the arrangement is then restricted to the
    cells meeting A (the A-local form), those whose sign on each of its
    walls is 0 or A's side.  A's cells are reached from facets in A.
    HypothesesError when the collection exceeds the size guards or A is
    not an L-polytope.

    ``carrier``: optional linear subspace that meets the geometry; only
    the cells inside it are built, from the flats inside it (the whole
    space by default).
    """
    g = coll.geometry
    covectors = tuple(sorted(coll.hyperplane_covectors))
    size_guard(g, len(covectors))
    walls = ()
    if within is not None:
        index = {cov: i for i, cov in enumerate(covectors)}
        if any(h.hyperplane not in index for h in within.halfspaces):
            raise HypothesesError("window polytope must be an L-polytope")
        walls = tuple((index[h.hyperplane], 1 if h.functional == h.hyperplane else -1)
                      for h in within.halfspaces)
    if carrier is None:
        carrier = geo.full_space(g.ambient_dim)
    carriers, children = _flats(g, covectors, carrier)

    found = {}  # zero mask -> {sign vector: (witness, row values)}
    for mask in sorted(carriers, key=lambda m: carriers[m].dim):
        here = found[mask] = {}
        if not children[mask]:
            for w in _flat_points(g, carriers[mask]):
                values = [dot(c, w) for c in covectors]
                sign = tuple(map(_sign, values))
                if _zero_mask(sign) != mask:
                    raise AssertionError("a hyperplane cuts a flat it was found not to cut")
                if FacePoset._agrees(sign, walls):
                    here.setdefault(sign, (w, values))
            continue
        for child in children[mask]:
            cut = child & ~mask
            j = (cut & -cut).bit_length() - 1
            u = next(r for r in carriers[mask].basis if dot(covectors[j], r))
            u_values = [dot(c, u) for c in covectors]
            sides = [(u, u_values), (tuple(-x for x in u), [-x for x in u_values])]
            on_cut = [i for i in range(len(covectors)) if cut >> i & 1]
            for facet, (w, values) in found[child].items():
                for side, side_values in sides:
                    sign = list(facet)
                    for i in on_cut:
                        sign[i] = _sign(side_values[i])
                    sign = tuple(sign)
                    if sign in here or not FacePoset._agrees(sign, walls):
                        continue
                    point, point_values = _step(g, w, values, side, side_values)
                    if tuple(map(_sign, point_values)) != sign:
                        raise AssertionError("a step off a facet left the cell it was taken for")
                    here[sign] = (point, point_values)

    cells = {}
    for mask, here in found.items():
        flat = carriers[mask]
        for sign, (w, _) in here.items():
            if g.kind != geo.SPHERICAL:
                w = tuple(Fraction(x, w[0]) for x in w[1:])
            cells[sign] = Cell(sign, flat, flat.dim - 1, w)
    return FacePoset(g, covectors, dict(sorted(cells.items())))


def window_arrangement(window, carrier=None):
    """The arrangement of the window's walls restricted to the window,
    inside ``carrier`` (the whole space by default).

    H^n is read in its Euclidean chart, the same rows as E^n: the window
    is decided by its chart polyhedron, whose walls need not meet the
    ball, and a window inside the ball has the same cells in both."""
    g = window.geometry
    if g.kind == geo.HYPERBOLIC:
        g = geo.Geometry(geo.EUCLIDEAN, g.n)
    walls = Collection(g, (), {h.hyperplane for h in window.halfspaces})
    return build_arrangement(walls, within=window, carrier=carrier)


def polytope_from_halfspaces(geometry, halfspaces):
    """The convex polytope cut out by the half-spaces, or Invalid(reason),
    read off ``window_arrangement``: EMPTY when it has no cell,
    LOWER_DIMENSIONAL when it has cells but no region, UNBOUNDED when
    its one region is unbounded (``FacePoset.bounded``) or, in H^n, has
    a vertex on or outside the unit sphere of the Klein chart.  The
    polytope's interior witness is the region's.  ValueError for no
    half-spaces: they would leave no interior witness on the sphere and
    an unbounded chart in E/H."""
    halfspaces = tuple(dict.fromkeys(halfspaces))  # drop exact duplicates
    if not halfspaces:
        raise ValueError("a polytope needs at least one half-space")
    polytope = geo.ConvexPolytope(geometry, halfspaces, None)  # witness set below
    poset = window_arrangement(polytope)
    regions = poset.regions()
    if not regions:
        return geo.Invalid(geo.Invalid.LOWER_DIMENSIONAL if poset.cells else geo.Invalid.EMPTY)
    (region,) = regions  # the window's side of every wall
    vertices = (c.witness for c in poset.cells.values() if c.dim == 0)
    off_ball = geometry.kind == geo.HYPERBOLIC and any(sum(x * x for x in v) >= 1 for v in vertices)
    if off_ball or not poset.bounded(region.sign_vector):
        return geo.Invalid(geo.Invalid.UNBOUNDED)
    polytope.interior_witness = region.witness
    return polytope


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
