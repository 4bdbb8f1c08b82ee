"""Chain-level models and integer homology.

All complexes carry named basis elements (tuples of indices into sorted
member/cell lists) and sparse integer boundaries, and every constructor
decides boundary-squared = 0 exactly.  Order complexes (T, ST, the local
model, the sphere triangulation) and the resolution probe are
semi-simplicial: they come as a face table, each simplex listing the
rows of its faces, and ``ChainComplex(degrees, faces=table)`` forms
their boundaries and certifies d∘d = 0 by the face identities
(``check_face_identities``).  One flag builder finds every face row of
the order complexes by index.  The PT bicomplex and its collapse model
are assembled from the triangulation's boundary columns, and the other
models are graded labels plus the alternating face rule
(``face_complex``); those are given by their boundaries, whose products
d_(d-1) d_d are formed and checked.  Relative models (``STModel``'s
anchored flags, quotient complexes) compute the reduced homology of the
spaces they model directly; plain order complexes carry the empty flag
in degree -1, so their homology is reduced as well.
"""

from bisect import bisect_left, bisect_right
from itertools import combinations

from geotits import collection as coll_mod, geometry as geo
from geotits._kernel import PINNED, IntMatrix, smith_normal_form


class ChainComplex:
    """Graded basis labels with integer boundary matrices d: C_d -> C_{d-1}.

    Give either ``boundaries`` (degree -> ``IntMatrix``), and each product
    d_(d-1) d_d is formed and checked to vanish, or a semi-simplicial face
    table ``faces`` (see ``check_face_identities``), from which each
    boundary is formed as the alternating sum of the face maps and
    d∘d = 0 is certified by the face identities, with no product formed.
    """

    __slots__ = ("degrees", "boundaries", "_zero", "_index", "_pinned")

    def __init__(self, degrees, boundaries=None, faces=None):
        if (boundaries is None) == (faces is None):
            raise TypeError("give either boundaries or faces")
        self.degrees = {d: tuple(labels) for d, labels in degrees.items() if labels}
        if faces is not None:
            check_face_identities(self.degrees, faces)
            boundaries = {d: _alternating_sum(self.dim(d - 1), rows)
                          for d, rows in faces.items() if rows}
        self.boundaries = boundaries
        self._zero = {}  # degree without a stored boundary -> its zero d_d
        self._index = {}  # degree -> index(degree)
        self._pinned = {}  # degree -> pinned_reduction(degree)
        self._validate(product=faces is None)

    def dim(self, d):
        return len(self.degrees.get(d, ()))

    def boundary(self, d):
        """d_d; a degree without a stored boundary gets a zero one, built
        once per degree and kept apart from ``boundaries``, which callers
        may share between complexes."""
        b = self.boundaries.get(d)
        if b is None:
            b = self._zero.get(d)
            if b is None:
                b = self._zero[d] = IntMatrix(self.dim(d - 1), self.dim(d))
        return b

    def index(self, d):
        """Label -> position in degree d, built once per degree; callers
        must not mutate it."""
        idx = self._index.get(d)
        if idx is None:
            idx = self._index[d] = {label: i for i, label in enumerate(self.degrees.get(d, ()))}
        return idx

    def pinned_reduction(self, d):
        """The ``PINNED`` reduction of d_d, built once per degree;
        ``homology`` reuses it instead of reducing d_d again."""
        snf = self._pinned.get(d)
        if snf is None:
            snf = self._pinned[d] = smith_normal_form(self.boundary(d), PINNED)
        return snf

    def support(self):
        return sorted(self.degrees)

    def as_json(self):
        """JSON-ready export: basis labels plus sparse boundary triplets."""
        def enc(label):
            if isinstance(label, tuple):
                return [enc(x) for x in label]
            return label

        return {
            "degrees": {str(d): [enc(l) for l in labels] for d, labels in self.degrees.items()},
            "boundaries": {
                str(d): sorted([i, j, v] for (i, j), v in self.boundary(d).entries.items())
                for d in self.support()
            },
        }

    def _validate(self, product):
        for d in self.support():
            b = self.boundary(d)
            if b.rows != self.dim(d - 1) or b.cols != self.dim(d):
                raise AssertionError(f"boundary shape mismatch in degree {d}")
            if product and self.dim(d - 1) and not self.boundary(d - 1).product_is_zero(b):
                raise AssertionError(f"boundary squared nonzero at degree {d}")


def check_face_identities(degrees, faces):
    """Certify d∘d = 0 for the boundaries of a semi-simplicial face table.

    ``faces[d][k]`` lists the rows, in degree d - 1, of the faces
    d_0, ..., d_(n-1) of simplex k of degree d; every simplex of a degree
    has the same number n of faces, and a degree d - 1 that has faces too
    has n - 1 of them.  ``ChainComplex`` forms the boundary of simplex x
    as dx = sum_i (-1)^i d_i x, summing a repeated face.

    Proof that the identities d_i d_j = d_(j-1) d_i (i < j), checked here
    on every simplex of every degree whose level below has faces, give
    d∘d = 0 (May, *Simplicial Objects in Algebraic Topology*, 1967, §1).
    ddx is the sum over 0 <= j < n and 0 <= i < n - 1 of
    (-1)^(i+j) d_i d_j x.  For i < j the term (-1)^(i+j) d_i d_j x equals,
    by the identity, (-1)^(i+j) d_(j-1) d_i x, which cancels the term
    (-1)^(i+j-1) d_(j-1) d_i x of the pair (j - 1, i).  The map
    (i, j) -> (j - 1, i) is a bijection from the pairs with i < j onto the
    pairs (i', j') with j' <= i', so every term cancels and ddx = 0.  The
    sum runs over faces with their multiplicity, so a repeated face
    changes nothing.  A degree whose level below has no faces has a zero
    boundary below it, and there d∘d = 0 holds with nothing to check.

    A table that does not have this shape raises ``ValueError``: a row
    count other than the degree's size, rows of unequal length, or a row
    outside the level below.  That includes a row in a repeated face
    whose signs cancel, which no boundary entry shows, and a negative
    row, which a lookup would wrap.  A failed identity raises
    ``AssertionError`` and names the degree.
    """
    below_degree = below = None
    for d in sorted(faces):
        rows = faces[d]
        size, lower = len(degrees.get(d, ())), len(degrees.get(d - 1, ()))
        if len(rows) != size:
            raise ValueError(f"{len(rows)} face rows for the {size} simplices of degree {d}")
        here = list(zip(*rows))  # here[i][k] = row of d_i of simplex k
        if rows and set(map(len, rows)) != {len(here)}:
            raise ValueError(f"face rows of unequal length in degree {d}")
        for col in here:
            if min(col) < 0 or max(col) >= lower:
                raise ValueError(f"a face row of degree {d} is outside the {lower} "
                                 f"simplices of degree {d - 1}")
        if below_degree == d - 1 and rows:
            if len(below) != len(here) - 1:
                raise ValueError(f"degree {d} has {len(here)} faces and degree {d - 1} "
                                 f"{len(below)}")
            for j in range(1, len(here)):
                for i in range(j):
                    d_i, d_j1 = below[i], below[j - 1]
                    if [d_i[r] for r in here[j]] != [d_j1[r] for r in here[i]]:
                        raise AssertionError(
                            f"face identity d_{i} d_{j} = d_{j - 1} d_{i} fails at degree {d}")
        below_degree, below = d, here


def _alternating_sum(lower, rows):
    """The boundary sum_i (-1)^i d_i of face rows in a level of ``lower``
    simplices; each column lists its faces in order d_0, d_1, ..., and a
    repeated face gets the sum of its signs."""
    width = len(rows[0])
    signs = [(-1) ** i for i in range(width)]
    columns = [dict(zip(row, signs)) for row in rows]
    if min(map(len, columns)) < width:
        for k, row in enumerate(rows):
            if len(columns[k]) < width:  # a face repeats: sum its signs
                col = columns[k] = {}
                for r, sign in zip(row, signs):
                    col[r] = col.get(r, 0) + sign
    return IntMatrix.from_col_dicts(lower, columns)


class HomologySummary:
    """Per-degree betti rank and torsion invariant factors."""

    __slots__ = ("by_degree",)

    def __init__(self, by_degree):
        self.by_degree = dict(sorted(by_degree.items()))

    def betti(self, d):
        return self.by_degree.get(d, (0, ()))[0]

    def torsion(self, d):
        return self.by_degree.get(d, (0, ()))[1]

    def nonzero_degrees(self):
        return [d for d, (b, t) in self.by_degree.items() if b or t]

    def as_dict(self):
        return {
            str(d): {"betti": b, "torsion": list(t)}
            for d, (b, t) in self.by_degree.items()
            if b or t
        }

    def __eq__(self, other):
        if not isinstance(other, HomologySummary):
            return NotImplemented
        mine = {d: v for d, v in self.by_degree.items() if v[0] or v[1]}
        theirs = {d: v for d, v in other.by_degree.items() if v[0] or v[1]}
        return mine == theirs

    def __repr__(self):
        parts = [
            f"H_{d}=Z^{b}" + ("+" + "+".join(f"Z/{t}" for t in tors) if tors else "")
            for d, (b, tors) in self.by_degree.items()
            if b or tors
        ]
        return "HomologySummary(" + (", ".join(parts) if parts else "0") + ")"


def homology(complex_):
    """Betti + torsion per degree via Smith normal form.

    Boundaries are reduced from the top degree down, with clearing
    (Chen & Kerber, "Persistent homology computation with a twist",
    2011): the rows where the unit phase of ``d_(d+1)``'s reduction
    retired a pivot carry a +-1 minor of ``d_(d+1)``, so its image and
    the unit vectors outside those rows span ``C_d``.  As ``d_d`` kills
    that image, dropping its columns at those rows keeps its column
    lattice, and with it its rank and invariant factors.

    A degree whose ``pinned_reduction`` the complex already holds (the
    top degree, once ``HomologyClasses`` has read it) takes its rank,
    invariant factors and unit pivot rows from it: clearing holds for
    any reduction's unit phase.  Every other degree is reduced rank-only,
    by the cheaper index-order sweep.
    """
    ranks = {}
    tors = {}
    cleared = {}  # degree d -> columns of d_d at d_(d+1)'s unit-pivot rows
    for d in reversed(complex_.support()):
        snf = complex_._pinned.get(d)
        if snf is None:
            b = complex_.boundary(d)
            drop = cleared.get(d)
            if drop:
                b = IntMatrix.from_col_dicts(
                    b.rows, [{} if j in drop else col for j, col in enumerate(b.col_dicts)])
            snf = smith_normal_form(b)
        ranks[d] = snf.rank
        tors[d] = snf.torsion
        cleared[d - 1] = set(snf.pivot_rows[: snf.units])
    out = {}
    for d in complex_.support():
        betti = complex_.dim(d) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        torsion = tors.get(d + 1, ())
        out[d] = (betti, torsion)
    return HomologySummary(out)


def wedge_verdict(summary, n):
    """Homology-level wedge-of-n-spheres certificate.

    True iff the reduced homology is free and concentrated in degree n
    (any rank including zero) with no torsion anywhere.
    """
    for d, (b, t) in summary.by_degree.items():
        if t:
            return False
        if b and d != n:
            return False
    return True


class HomologyClasses:
    """Coordinates of cycles in the top degree, where H = ker d is free.

    The complex's ``pinned_reduction`` of ``d_degree`` is read, never a
    kernel basis.  When its unit phase retires every pivot, the input's
    minor at the pivot rows and columns P is +-1, so a kernel vector
    that vanishes at the non-pivot columns N is zero.  Hence the kernel
    has a basis K with K[N] = I: it is integral, and a cycle's
    coordinates in it are the cycle's own entries at N (index order).
    K is never formed; a chain is a cycle exactly when d c = 0.  A
    reduction with a later pivot is refused.
    """

    def __init__(self, complex_, degree):
        if complex_.dim(degree + 1):
            raise AssertionError(f"degree {degree} is not the top degree")
        snf = complex_.pinned_reduction(degree)
        if snf.units < snf.rank:
            raise AssertionError("top boundary has a pivot outside the unit phase")
        pivots = set(snf.pivot_cols)
        self._boundary = complex_.boundary(degree)
        self._nonpivot = [j for j in range(self._boundary.cols) if j not in pivots]
        self.betti = len(self._nonpivot)

    def coords(self, cycle):
        """The class of a cycle, a sparse chain {position: coefficient}:
        its entries at N, once d c = 0 holds over its support.  A
        position outside the degree raises ``ValueError``."""
        if self._boundary.apply(cycle):
            raise ValueError("not a cycle")
        return tuple(cycle.get(j, 0) for j in self._nonpivot)


# ---------------------------------------------------------------------------
# Flag / order complexes


def _drop_one(label):
    """Alternating deletion: drop entry i with sign (-1)**i."""
    for i in range(len(label)):
        yield label[:i] + label[i + 1 :], (-1) ** i


def face_complex(degrees):
    """Chain complex whose boundary is the alternating sum of the faces
    of each label (``_drop_one``); each sign is added at (row of the face
    in degree d-1, column of the label), and faces absent from the basis
    map to zero.
    """
    boundaries = {}
    for d in sorted(degrees):
        lower = {lab: i for i, lab in enumerate(degrees.get(d - 1, ()))}
        columns = []
        for lab in degrees[d]:
            col = {}
            for face, sign in _drop_one(lab):
                row = lower.get(face)
                if row is not None:
                    col[row] = col.get(row, 0) + sign
            columns.append(col)
        boundaries[d] = IntMatrix.from_col_dicts(len(degrees.get(d - 1, ())), columns)
    return ChainComplex(degrees, boundaries)


def _above(members):
    """For members sorted by ``sort_key``, the ascending positions of the
    members that strictly contain each one.  Sort keys lead with the
    dimension, so only later members of higher dimension are tested."""
    dims = [m.carrier.dim for m in members]
    return [[j for j in range(bisect_right(dims, dims[i]), len(members)) if members[j].contains(m)]
            for i, m in enumerate(members)]


def _flag_complex(above):
    """(degrees, faces) of the strict chains of a finite order given by
    ``above`` (ascending lists), a chain of k elements in degree k - 1,
    with ``faces[m][k]`` the rows of the faces 0, ..., m of chain k of
    degree m in degree m - 1 (the table ``ChainComplex`` takes).

    The root is the empty chain in degree -1, and every element lies
    above it.  Chains are built level by level: each is its parent, one
    element shorter, extended by an element c above the parent's tail
    (its last element, or the root).  As the ``above`` lists ascend,
    every level comes out sorted.  Face i of a chain is its parent's
    face i extended by c, except the last face, which is the parent
    itself.  A chain extended by c sits at its children's offset plus
    the slot of c among the elements above its tail, so every face row
    is found by index, and the next level reads them from this one.
    """
    n = len(above)
    above = [*above, range(n)]  # the root's tail is n
    slot = [{c: k for k, c in enumerate(cells)} for cells in above]
    level, tails, rows_here = [()], [n], [()]
    degrees = {-1: level}
    faces = {}
    below_slot = start = None  # the slots of the level under ``level``, its children's offsets
    m = -1
    while True:
        chains, heads, offsets, table = [], [], [], []
        ids = list(range(len(level)))  # one int object per row, shared by the faces naming it
        for q, chain in enumerate(level):
            offsets.append(len(chains))
            for c in above[tails[q]]:
                rows = [ids[start[r] + below_slot[r][c]] for r in rows_here[q]]
                rows.append(ids[q])
                chains.append(chain + (c,))
                heads.append(c)
                table.append(rows)
        if not chains:
            return degrees, faces
        m += 1
        degrees[m] = chains
        faces[m] = table
        below_slot = [slot[t] for t in tails]
        start, rows_here, level, tails = offsets, table, chains, heads


def order_complex(members):
    """The Tits complex T: simplicial chains on flags of the proper
    members (the top is dropped).  The empty flag sits in degree -1 as
    the face of every vertex, so homology() reports reduced homology;
    the empty complex has H_(-1) = Z.
    """
    elems = sorted((m for m in members if not m.is_top()), key=lambda m: m.sort_key())
    degrees, faces = _flag_complex(_above(elems))
    return ChainComplex(degrees, faces=faces)


class STModel:
    """The relative chains of (CT, T) on flags of the members other than
    ``top`` (``proper``, sorted by ``sort_key``) anchored at the top: ST,
    or with the members in a window, the local model.  ``position`` maps
    each proper member's carrier to its index in ``proper``.

    Degree p basis: flags U_0 < ... < U_{p-1} < top of proper members;
    the empty flag (the bare anchor) sits in degree 0.  Faces dropping
    the anchor die, so this is the order complex of the proper members
    one degree up, and H_p equals the reduced homology of the suspended
    Tits complex.
    """

    __slots__ = ("top", "proper", "position", "complex")

    def __init__(self, members, top):
        self.top = top
        self.proper = sorted((m for m in members if m != top), key=lambda m: m.sort_key())
        for m in self.proper:
            if not top.contains(m):
                raise ValueError("member not contained in the top subspace")
        degrees, faces = _flag_complex(_above(self.proper))
        self.complex = ChainComplex({d + 1: labs for d, labs in degrees.items()},
                                    faces={d + 1: rows for d, rows in faces.items()})
        self.position = {m.carrier: i for i, m in enumerate(self.proper)}


def tpl_complex(points, geometry):
    """Relative chains of the full simplex on the points modulo the
    subcomplex of tuples spanning a proper subspace.

    Basis in degree d: strictly increasing (d+1)-tuples of point indices
    whose span is the whole geometry; boundary faces that become
    degenerate (span a proper subspace) die.
    """
    pts = sorted(points, key=lambda p: p.sort_key())
    amb = geometry.ambient_dim
    # fewer than ``amb`` points span a proper subspace
    degrees = {size - 1: [combo for combo in combinations(range(len(pts)), size)
                          if geo.span_points([pts[i] for i in combo]).carrier.dim == amb]
               for size in range(amb, len(pts) + 1)}
    return face_complex(degrees), pts


# ---------------------------------------------------------------------------
# Spherical triangulation and the polytopal-Tits models


def _cells_above(cell_order):
    """For each cell, the positions of the cells above it in closure
    order: the cells that agree with it on its support (Björner, Las
    Vergnas, Sturmfels, White & Ziegler, *Oriented Matroids*, 1993).
    Cells are grouped by zero set; one pass over the cells per zero set,
    keyed by their signs on its support, replaces all-pairs order tests.
    """
    by_zeros = {}
    for i, s in enumerate(cell_order):
        by_zeros.setdefault(tuple(k for k, x in enumerate(s) if x == 0), []).append(i)
    above = [None] * len(cell_order)
    for members in by_zeros.values():
        support = [k for k, x in enumerate(cell_order[members[0]]) if x != 0]
        agree = {}
        for j, s in enumerate(cell_order):
            agree.setdefault(tuple(s[k] for k in support), []).append(j)
        for i in members:
            above[i] = [j for j in agree[tuple(cell_order[i][k] for k in support)] if j != i]
    return above


class SphereTriangulation:
    """Barycentric flag model of an admissible spherical arrangement.

    Vertices are arrangement cells; m-simplices are strict closure
    chains of m+1 cells.  For every flat V of the collection, the chains
    whose top cell lies in V triangulate the subsphere S(V).  Each
    cell's fundamental chain and incidence signs are built once, on
    first use (``cell_chain``).
    """

    __slots__ = ("poset", "cell_order", "simplices", "complex", "_by_top", "_cell_chains")

    def __init__(self, poset):
        self.poset = poset
        self.cell_order = tuple(sorted(poset.cells))
        degrees, faces = _flag_complex(_cells_above(self.cell_order))
        # the triangulation is not augmented: the faces of a 1-simplex's
        # faces would lie in the deleted degree -1, so none are checked
        del degrees[-1], faces[0]
        self.complex = ChainComplex(degrees, faces=faces)
        self.simplices = self.complex.degrees
        self._by_top = {}  # (m, top cell sign vector) -> positions of its m-simplices
        for m, labs in self.simplices.items():
            for s, lab in enumerate(labs):
                self._by_top.setdefault((m, self.cell_order[lab[-1]]), []).append(s)
        self._cell_chains = {}  # sign vector -> (chain, incidences)

    def _positions(self, m, tops):
        return sorted(s for t in tops for s in self._by_top.get((m, t), ()))

    def positions_in_carrier(self, carrier):
        """m -> positions in degree m, ascending, of the m-simplices of
        S(carrier): those whose top cell lies in the flat, that is,
        vanishes on every hyperplane containing it.  Degrees without such
        a simplex are left out."""
        tops = self.poset.cells_in(self.poset.flat_signs(carrier))
        out = {m: self._positions(m, tops) for m in self.simplices}
        return {m: pos for m, pos in out.items() if pos}

    def cell_chain(self, sign):
        """(chain, incidences) of a cell's closure, built once per cell.

        The chain maps each top-dimensional simplex of the closure (the
        simplices ending at the cell) to the orientation of its witnesses
        in the cell's flat.  It is the cone over the facets' chains
        (Munkres, *Elements of Algebraic Topology*, 1984): a simplex
        ending at the cell is a facet's simplex extended by the cell, and
        its orientation is the facet simplex's times
        ``FacePoset.step_sign`` of (facet, cell), so a cell costs one
        determinant per facet and no per-flag one.  The E/H cell
        apartments (``groups.cell_apartments``) are cones by the same rule.

        With e_F = ``step_sign(F, cell)`` and c the sum of e_F times the
        facet chains, the chain is the cone c * p from the cell p, and
        d(c * p) = (dc) * p + (-1)^d c for a d-cell.  So the incidences map
        each facet (in sign-vector order) to eta_F = (-1)^d e_F, and the
        boundary is the sum of eta_F times the facet chains exactly when
        dc = 0: as distinct cells' chains have disjoint, nonzero supports,
        when sum_F e_F eta_(F,G) = 0 at each ridge G (for d = 1 the 0-cells'
        chain coefficients stand in for eta), checked here.  A 0-cell has
        no incidences.  Callers must not mutate either.
        """
        got = self._cell_chains.get(sign)
        if got is None:
            got = self._cell_chains[sign] = self._build_cell_chain(sign)
        return got

    def _build_cell_chain(self, sign):
        cell = self.poset.cells[sign]
        pos = bisect_left(self.cell_order, sign)
        step = self.poset.step_sign
        if not cell.dim:
            return {(pos,): step(None, sign)}, {}
        cone = []
        incidences = {}
        ridges = {}
        for facet in self.poset.facets(sign):
            e = step(facet, sign)
            fchain, below = self.cell_chain(facet)
            cone.extend((lab + (pos,), s * e) for lab, s in fchain.items())
            incidences[facet] = -e if cell.dim % 2 else e
            if cell.dim == 1:  # the 0-cell's chain coefficient, on the empty face
                below = {None: step(None, facet)}
            for ridge, eta in below.items():
                ridges[ridge] = ridges.get(ridge, 0) + e * eta
        chain = dict(sorted(cone))
        if len(chain) != len(self._by_top[cell.dim, sign]):
            raise AssertionError("facet chains miss simplices of the cell")
        if any(ridges.values()):
            raise AssertionError("boundary leaks outside the facet chains")
        return chain, incidences


def sphere_triangulation(coll, poset):
    """Triangulation of S^n subordinate to an admissible collection, on
    its arrangement ``poset``."""
    # admissibility (the hyperplanes have full rank) makes every cell's
    # closed cone pointed (strongly convex), which is what turns closure
    # chains into a triangulation; every caller decides it first, so
    # failing here is a bug
    if coll_mod.admissible(coll) != coll_mod.ADMISSIBLE:
        raise AssertionError("NOT_ADMISSIBLE: sphere triangulation needs admissibility")
    return SphereTriangulation(poset)


def pt_bicomplex(coll, tri):
    """Total complex of the poset-of-flats diagram of subsphere chains,
    relative to the sub-diagram below the top flat.

    Degree (k + m) basis: (flag of k proper members V_0 < ... < V_{k-1}
    anchored at the top, m-simplex of the S(V_0) triangulation); for the
    empty flag the simplex ranges over the whole sphere model.  Labels
    sort by flag, then by simplex, so a degree lists the flags in order,
    each followed by its pool of simplices in the triangulation's order.

    The boundary of (flag, sigma) is assembled by index arithmetic.  Flag
    faces carry (-1)**i at (flag without entry i, sigma); they are always
    in the basis, since dropping ``flag[0]`` only widens the pool.
    Simplex faces are the column of sigma in the triangulation's
    boundary, times (-1)**k and re-indexed into the flag's pool: a face's
    top cell lies below sigma's, so in the same flat.
    """
    proper = [m for m in coll.members if not m.is_top()]  # sorted, as members are
    flags = sorted(f for labs in _flag_complex(_above(proper))[0].values() for f in labs)
    # pool key (flag[0], or None for the empty flag) -> m -> the positions
    # of its m-simplices in the triangulation, and their inverse
    pools = {None: {m: range(len(labs)) for m, labs in tri.simplices.items()}}
    for c in sorted({flag[0] for flag in flags if flag}):
        pools[c] = tri.positions_in_carrier(proper[c].carrier)
    where = {c: {m: pool if c is None else {s: p for p, s in enumerate(pool)}
                 for m, pool in by_m.items()}
             for c, by_m in pools.items()}  # a range is its own inverse
    degrees = {}
    offset = {}  # (flag, m) -> row of the flag's first label in degree len(flag) + m
    for flag in flags:
        for m, pool in pools[flag[0] if flag else None].items():
            labs = degrees.setdefault(len(flag) + m, [])
            offset[flag, m] = len(labs)
            simplices = tri.simplices[m]
            labs.extend((flag, simplices[s]) for s in pool)
    columns = {d: [] for d in degrees}
    for flag in flags:
        k = len(flag)
        c = flag[0] if flag else None
        for m, pool in pools[c].items():
            drops = []
            for i in range(k):
                face = flag[:i] + flag[i + 1:]
                drops.append((offset[face, m], where[face[0] if face else None][m], (-1) ** i))
            out = columns[k + m]
            bd = tri.complex.boundary(m).col_dicts  # empty columns when m = 0
            low, low_at = offset.get((flag, m - 1)), where[c].get(m - 1)
            sign = (-1) ** k
            for s in pool:
                col = {off + at[s]: e for off, at, e in drops}
                for r, v in bd[s].items():
                    col[low + low_at[r]] = sign * v
                out.append(col)
    return ChainComplex({d: degrees[d] for d in sorted(degrees)}, {
        d: IntMatrix.from_col_dicts(len(degrees.get(d - 1, ())), cols)
        for d, cols in columns.items()
    })


def pt_collapse_complex(coll, tri):
    """Strict-colimit model: chains of S^n relative to the proper-flat union.

    Basis: simplices of the sphere triangulation whose top cell is a
    full-dimensional region; faces falling into proper flats die.  So
    the model is the triangulation's complex restricted, in rows and
    columns, to those simplices.
    """
    n = coll.geometry.n
    region = [tri.poset.cells[s].dim == n for s in tri.cell_order]
    degrees = {}
    boundaries = {}
    at = {}  # position in degree m - 1 of the triangulation -> row here
    for m in sorted(tri.simplices):
        labs = tri.simplices[m]
        keep = [s for s, lab in enumerate(labs) if region[lab[-1]]]
        bd = tri.complex.boundary(m).col_dicts
        boundaries[m] = IntMatrix.from_col_dicts(len(at), [
            {at[r]: v for r, v in bd[s].items() if r in at} for s in keep])
        degrees[m] = [labs[s] for s in keep]
        at = {s: p for p, s in enumerate(keep)}
    return ChainComplex(degrees, boundaries)
