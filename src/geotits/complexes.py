"""Chain-level models and integer homology.

All complexes carry named basis elements (tuples of indices into sorted
member/cell lists) and sparse integer boundaries; every constructor
asserts boundary-squared = 0 exactly.  Most models are graded labels plus
the alternating face rule (``face_complex``): the boundary of a label is
the signed sum of its faces that lie in the basis.  The spherical PT
bicomplex and its collapse model are assembled instead from the columns
of the sphere triangulation's boundary, by index arithmetic with no
lookup of face labels.  Relative models (anchored-flag
complexes, quotient complexes) compute the reduced homology of the
spaces they model directly; plain order complexes carry the empty flag
in degree -1, so their homology is reduced as well.
"""

from bisect import bisect_left

from geotits import geometry as geo
from geotits._kernel import PINNED, IntMatrix, smith_normal_form


class ChainComplex:
    """Graded basis labels with integer boundary matrices d: C_d -> C_{d-1}."""

    __slots__ = ("degrees", "boundaries", "_zero", "_index", "_pinned")

    def __init__(self, degrees, boundaries):
        self.degrees = {d: tuple(labels) for d, labels in degrees.items() if labels}
        self.boundaries = boundaries
        self._zero = {}  # degree without a stored boundary -> its zero d_d
        self._index = {}  # degree -> index(degree)
        self._pinned = {}  # degree -> pinned_reduction(degree)
        self._validate()

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

    def _validate(self):
        for d in self.support():
            b = self.boundary(d)
            if b.rows != self.dim(d - 1) or b.cols != self.dim(d):
                raise AssertionError(f"boundary shape mismatch in degree {d}")
            if self.dim(d - 1) and not self.boundary(d - 1).product_is_zero(b):
                raise AssertionError(f"boundary squared nonzero at degree {d}")


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
    on the cheaper row-length order.
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
        """The class of a cycle: its entries at N, once d c = 0 holds."""
        if len(cycle) != self._boundary.cols:
            raise ValueError(f"chain of length {len(cycle)}, not {self._boundary.cols}")
        if any(self._boundary.mul_vec(cycle)):
            raise ValueError("not a cycle")
        return tuple(cycle[j] for j in self._nonpivot)


# ---------------------------------------------------------------------------
# Flag / order complexes


def _chains(n, leq):
    """All strictly increasing index chains of a finite strict order.

    ``leq(a, b)`` decides a < b strictly; the empty chain is included.
    """
    above = [[j for j in range(n) if j != i and leq(i, j)] for i in range(n)]
    chains = [()]
    frontier = [(i,) for i in range(n)]
    chains.extend(frontier)
    while frontier:
        frontier = [chain + (j,) for chain in frontier for j in above[chain[-1]]]
        chains.extend(frontier)
    return chains


def _graded(labels, degree):
    """Labels grouped by ``degree(label)``, each degree sorted."""
    degrees = {}
    for label in labels:
        degrees.setdefault(degree(label), []).append(label)
    return {d: sorted(v) for d, v in sorted(degrees.items())}


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


def order_complex(members):
    """The Tits complex T: simplicial chains on flags of the proper
    members (the top is dropped).  The empty flag sits in degree -1 as
    the face of every vertex, so homology() reports reduced homology;
    the empty complex has H_(-1) = Z.
    """
    elems = sorted((m for m in members if not m.is_top()), key=lambda m: m.sort_key())
    leq = lambda i, j: elems[j].contains(elems[i]) and elems[i] != elems[j]
    return face_complex(_graded(_chains(len(elems), leq), lambda c: len(c) - 1))


def relative_st_complex(members, top):
    """Relative chains of (CT, T): flags anchored at the given top.

    Degree p basis: flags U_0 < ... < U_{p-1} < top of proper members;
    the empty flag (the bare anchor) sits in degree 0.  Faces dropping
    the anchor die; H_p equals the reduced homology of the suspended
    Tits complex.
    """
    proper = sorted(
        (m for m in members if m != top), key=lambda m: m.sort_key()
    )
    for m in proper:
        if not top.contains(m):
            raise ValueError("member not contained in the top subspace")
    leq = lambda i, j: proper[j].contains(proper[i]) and proper[i] != proper[j]
    # the anchor never appears in labels, so plain face deletion with
    # absent faces mapping to zero is exactly the relative boundary
    return face_complex(_graded(_chains(len(proper), leq), len))


def tpl_complex(points, geometry):
    """Relative chains of the full simplex on the points modulo the
    subcomplex of tuples spanning a proper subspace.

    Basis in degree d: strictly increasing (d+1)-tuples of point indices
    whose span is the whole geometry; boundary faces that become
    degenerate (span a proper subspace) die.
    """
    pts = sorted(points, key=lambda p: p.sort_key())
    amb = geometry.ambient_dim
    from itertools import combinations

    full = [
        combo
        for size in range(1, len(pts) + 1)
        for combo in combinations(range(len(pts)), size)
        if geo.span_points([pts[i] for i in combo]).carrier.dim == amb
    ]
    return face_complex(_graded(full, lambda c: len(c) - 1)), pts


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


def _flag_complex(above):
    """Chain complex of the strict chains of a finite order given by
    ``above`` (ascending lists), the empty chain left out.

    Chains are built level by level: each is its parent, one cell
    shorter, extended by a cell c above the parent's last.  As the
    ``above`` lists ascend, every level comes out sorted.  Face i of a
    chain is its parent's face i extended by c, except the last face,
    which is the parent itself.  A chain extended by c sits at its
    children's offset plus the slot of c among the cells above its last,
    so every face row is found by index.  The boundary's column dicts
    list the faces in order, and the next level reads them from there.
    """
    level = [(i,) for i in range(len(above))]
    degrees = {0: level}
    boundaries = {}
    slot = [{c: k for k, c in enumerate(cells)} for cells in above]
    below = start = faces = None  # the level under ``level``, its children's offsets, face rows
    m = 0
    while True:
        signs = [(-1) ** i for i in range(m + 2)]
        chains, offsets, cols = [], [], []
        ids = list(range(len(level)))  # one int object per row, shared by the columns naming it
        for q, chain in enumerate(level):
            offsets.append(len(chains))
            for c in above[chain[-1]]:
                if m:
                    rows = [ids[start[r] + slot[below[r][-1]][c]] for r in faces[q]]
                    rows.append(ids[q])
                else:  # the edge (q, c): its faces are the vertices c and q
                    rows = (ids[c], ids[q])
                chains.append(chain + (c,))
                cols.append(dict(zip(rows, signs)))
        if not chains:
            break
        m += 1
        degrees[m] = chains
        boundaries[m] = IntMatrix.from_col_dicts(len(level), cols)
        below, start, faces, level = level, offsets, cols, chains
    return ChainComplex(degrees, boundaries)


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
        self.complex = _flag_complex(_cells_above(self.cell_order))
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
        in the cell's flat (``FacePoset.orientation``).  It is the cone
        over the facets' chains (Munkres, *Elements of Algebraic
        Topology*, 1984): a simplex ending at the cell is a facet's
        simplex extended by the cell, and its orientation is the facet
        simplex's times ``FacePoset.step_sign`` of (facet, cell), so a
        cell costs one determinant per facet and no per-flag one.  The
        incidences map each facet (in sign-vector order) to the unit e
        such that the chain's boundary is the sum of e times the facet
        chains, checked on the boundary; a 0-cell has none.  Callers
        must not mutate either.
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
        for facet in self.poset.facets(sign):
            e = step(facet, sign)
            cone.extend((lab + (pos,), s * e) for lab, s in self.cell_chain(facet)[0].items())
        chain = dict(sorted(cone))
        if len(chain) != len(self._by_top[cell.dim, sign]):
            raise AssertionError("facet chains miss simplices of the cell")
        incidences = {}
        remaining = {}
        for lab, s in chain.items():
            for low, sign_low in _drop_one(lab):
                remaining[low] = remaining.get(low, 0) + sign_low * s
        remaining = {lab: v for lab, v in remaining.items() if v}
        for facet in self.poset.facets(sign):
            fchain = self.cell_chain(facet)[0]
            etas = {remaining.get(lab, 0) * s for lab, s in fchain.items()}  # s is +-1
            if len(etas) != 1 or 0 in etas:
                raise AssertionError("facet chain is not a signed copy")
            eta = etas.pop()
            if eta not in (1, -1):
                raise AssertionError("incidence sign not a unit")
            incidences[facet] = eta
            for lab in fchain:
                remaining.pop(lab, None)
        if remaining:
            raise AssertionError("boundary leaks outside the facet chains")
        return chain, incidences


def sphere_triangulation(coll, poset=None):
    """Triangulation of S^n subordinate to an admissible collection."""
    from geotits import collection as coll_mod
    from geotits.arrangement import build_arrangement

    # admissibility (the hyperplanes have full rank) makes every cell's
    # closed cone pointed (strongly convex), which is what turns closure
    # chains into a triangulation; every caller decides it first, so
    # failing here is a bug
    if coll_mod.admissible(coll) != coll_mod.ADMISSIBLE:
        raise AssertionError("NOT_ADMISSIBLE: sphere triangulation needs admissibility")
    if poset is None:
        poset = build_arrangement(coll)
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
    proper = sorted((m for m in coll.members if not m.is_top()),
                    key=lambda m: m.sort_key())
    carrier = [m.carrier for m in proper]
    leq = lambda i, j: carrier[j].contains(carrier[i]) and carrier[i] != carrier[j]
    flags = sorted(_chains(len(proper), leq))
    # pool key (flag[0], or None for the empty flag) -> m -> the positions
    # of its m-simplices in the triangulation, and their inverse
    pools = {None: {m: range(len(labs)) for m, labs in tri.simplices.items()}}
    for c in sorted({flag[0] for flag in flags if flag}):
        pools[c] = tri.positions_in_carrier(carrier[c])
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
