"""Hyperplane-arrangement cells, region bases, cofacet lifts and window
polytopes.

Cells are keyed by sign vectors over the collection's hyperplanes (in
canonical covector order).  Regions are represented by sign vectors plus
exact interior witnesses, so unbounded regions are first class.  On the
sphere the two antipodes of a 0-flat are distinct cells with opposite
sign vectors.
"""

from math import gcd

from geotits import HypothesesError, exact, geometry as geo
from geotits.collection import Collection, flats
from geotits.exact import dot

MAX_DIM = 4
MAX_HYPERPLANES = 16

NO_LIFT = "NO_LIFT"


class Cell:
    """A cell of the arrangement: its sign vector, its flat (a carrier of
    dimension ``dim + 1``) and its witness, a primitive integer ambient
    row inside the cell.  In E^n and H^n the row has x0 > 0 and the chart
    point is row[1:] / row[0]; on S^n the row is the ray."""

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

    __slots__ = ("geometry", "covectors", "cells", "_flat_masks", "_cells_in",
                 "_step_signs", "_zero_masks", "_facet_zeros", "_facets", "_bounded")

    def __init__(self, geometry, covectors, cells, flat_masks):
        self.geometry = geometry
        self.covectors = covectors
        self.cells = cells  # dict sign_vector -> Cell
        self._flat_masks = flat_masks  # carrier -> zero mask, every flat of the lattice
        self._cells_in = {}  # signs -> cells_in(signs)
        self._step_signs = {}  # (lower sign vector or None, sign vector) -> step_sign
        self._zero_masks = {}  # cell dim -> zero sets of its cells, as bit masks
        for s, c in cells.items():
            self._zero_masks.setdefault(c.dim, set()).add(zero_mask(s))
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

    def flat_mask(self, carrier):
        """Zero mask of a flat of the lattice the poset was built from (bit
        i set when hyperplane i contains it), whether or not a cell of the
        poset lies in it.  AssertionError for any other carrier: it is
        not an intersection of the hyperplanes that meets the geometry."""
        mask = self._flat_masks.get(carrier)
        if mask is None:
            raise AssertionError("flat is not the intersection of the hyperplanes containing it")
        return mask

    def flat_signs(self, carrier):
        """Signs of a flat of the lattice: 0 on each hyperplane that
        contains it (``flat_mask``), which cut it out."""
        mask = self.flat_mask(carrier)
        return tuple((i, 0) for i in range(len(self.covectors)) if mask >> i & 1)

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
            zeros = zero_mask(sign)
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

    def step_sign(self, lower, sign):
        """The sign of the minor, at the pivots of the cell's flat, of the
        basis rows of the flat of ``lower`` (a cell one dimension lower in
        its closure, or None for the empty face) followed by the cell's
        witness row; memoised per pair.  AssertionError when the minor
        is 0 or ``lower`` is not one dimension below the cell.

        The witness row is read as ``build_arrangement`` left it, which
        made it as a combination of the flat's basis rows and checked its
        signs there: the zero mask of each ``_flat_points`` witness and the
        sign vector of each ``_step``.  Zeros on exactly the flat's
        hyperplanes put the witness in their intersection, which is the
        flat (inside the build's ``carrier`` when one is given).

        A complete flag of cells, each a facet of the next, is oriented in
        its top cell's flat V by the minor of its witness rows at V's
        pivots: the product of its step signs, the first from None.  Why:
        the lower witnesses lie in the flat W of the top cell's facet, so
        they are M times W's basis rows B_W, and the minor at V's pivots
        is det [[M, 0], [0, 1]] times that of B_W over the top witness.
        At W's pivots B_W is diagonal and positive, so det M has the sign
        of the shorter flag's orientation in W.  So each cell chain is a
        cone over its facets' chains (``SphereTriangulation.cell_chain``,
        ``groups.cell_apartments``).
        """
        key = (lower, sign)
        got = self._step_signs.get(key)
        if got is None:
            cell = self.cells[sign]
            low = () if lower is None else self.cells[lower].flat.basis
            if len(low) != cell.dim:  # a cell's flat has dimension dim + 1
                raise AssertionError("flag step is not one dimension")
            pivots = cell.flat.pivots
            got = exact.det_sign([[r[p] for p in pivots] for r in (*low, cell.witness)])
            if not got:
                raise AssertionError("degenerate flag simplex")
            self._step_signs[key] = got
        return got


def zero_mask(sign_vector):
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


def _flat_points(geometry, carrier):
    """Ambient witnesses of the cells of a flat that no hyperplane cuts
    inside the geometry: its first basis row, a chart point in E^n (the
    first pivot is x0); the nearest chart point in H^n
    (``geometry.nearest_chart_point``, inside the ball); on S^n a basis
    vector, and its antipode too when the flat is a 0-flat."""
    if geometry.kind == geo.HYPERBOLIC:
        return (geo.nearest_chart_point(carrier),)
    point = carrier.basis[0]
    if geometry.kind == geo.SPHERICAL and carrier.dim == 1:
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
    The flats that meet the geometry (``collection.flats``: the
    collection's ``lattice`` over the whole space) give their cells
    lowest dimension first:

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
    covectors = coll.hyperplane_covectors
    size_guard(g, len(covectors))
    walls = ()
    if within is not None:
        index = {cov: i for i, cov in enumerate(covectors)}
        if any(h.hyperplane not in index for h in within.halfspaces):
            raise HypothesesError("window polytope must be an L-polytope")
        walls = tuple((index[h.hyperplane], 1 if h.functional == h.hyperplane else -1)
                      for h in within.halfspaces)
    if carrier is None:
        carriers, children = coll.lattice()
    else:
        carriers, children = flats(g, covectors, carrier)

    found = {}  # zero mask -> {sign vector: (witness, row values)}
    for mask in sorted(carriers, key=lambda m: carriers[m].dim):
        here = found[mask] = {}
        if not children[mask]:
            for w in _flat_points(g, carriers[mask]):
                values = [dot(c, w) for c in covectors]
                sign = tuple(map(_sign, values))
                if zero_mask(sign) != mask:
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
            cells[sign] = Cell(sign, flat, flat.dim - 1, w)
    flat_masks = {flat: mask for mask, flat in carriers.items()}
    return FacePoset(g, covectors, dict(sorted(cells.items())), flat_masks)


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
    off_ball = geometry.kind == geo.HYPERBOLIC and any(
        sum(x * x for x in v[1:]) >= v[0] * v[0] for v in vertices)
    if off_ball or not poset.bounded(region.sign_vector):
        return geo.Invalid(geo.Invalid.UNBOUNDED)
    polytope.interior_witness = region.witness
    return polytope


def region_basis(poset):
    """Sorted basis of the bounded regions (``FacePoset.bounded``): all
    the regions on S^n and on a window arrangement."""
    return tuple(c.sign_vector for c in poset.regions() if poset.bounded(c.sign_vector))


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
