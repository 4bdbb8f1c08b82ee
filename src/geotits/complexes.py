"""Chain-level models and integer homology.

All complexes carry named basis elements (tuples of indices into sorted
member/cell lists) and sparse integer boundaries; every constructor
asserts boundary-squared = 0 exactly.  Every model is graded labels plus
a face rule (``face_complex``): the boundary of a label is the signed
sum of its faces that lie in the basis.  Relative models (anchored-flag
complexes, quotient complexes) compute the reduced homology of the
spaces they model directly; plain order complexes carry the empty flag
in degree -1, so their homology is reduced as well.
"""

from geotits import geometry as geo
from geotits._kernel import (
    IntMatrix,
    kernel_basis,
    smith_normal_form,
    solve_int,
)
from geotits.arrangement import FacePoset


class ChainComplex:
    """Graded basis labels with integer boundary matrices d: C_d -> C_{d-1}."""

    __slots__ = ("degrees", "boundaries")

    def __init__(self, degrees, boundaries):
        self.degrees = {d: tuple(labels) for d, labels in degrees.items() if labels}
        self.boundaries = boundaries
        self._validate()

    def dim(self, d):
        return len(self.degrees.get(d, ()))

    def boundary(self, d):
        b = self.boundaries.get(d)
        if b is None:
            return IntMatrix(self.dim(d - 1), self.dim(d))
        return b

    def index(self, d):
        return {label: i for i, label in enumerate(self.degrees.get(d, ()))}

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
            if self.dim(d - 1):
                bb = self.boundary(d - 1).compose(b)
                if not bb.is_zero():
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
    """Betti + torsion per degree via rank-only Smith normal form.

    Boundaries are reduced from the top degree down, with clearing
    (Chen & Kerber, "Persistent homology computation with a twist",
    2011): the rows where the unit phase of ``d_(d+1)``'s reduction
    retired a pivot carry a +-1 minor of ``d_(d+1)``, so its image and
    the unit vectors outside those rows span ``C_d``.  As ``d_d`` kills
    that image, dropping its columns at those rows keeps its column
    lattice, and with it its rank and invariant factors.
    """
    ranks = {}
    tors = {}
    cleared = {}  # degree d -> columns of d_d at d_(d+1)'s unit-pivot rows
    for d in reversed(complex_.support()):
        b = complex_.boundary(d)
        drop = cleared.get(d)
        if drop:
            kept = IntMatrix(b.rows, b.cols)
            kept.entries = {ij: v for ij, v in b.entries.items() if ij[1] not in drop}
            b = kept
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
    """Coordinates of cycles in H_degree = ker / im, over a fixed basis."""

    def __init__(self, complex_, degree):
        self.complex = complex_
        self.degree = degree
        bd = complex_.boundary(degree)
        self.kernel = kernel_basis(bd)  # columns
        k = len(self.kernel)
        self._kmat = IntMatrix.from_columns(complex_.dim(degree), self.kernel)
        self._ksnf = smith_normal_form(self._kmat, want_transforms=True)
        bnext = complex_.boundary(degree + 1)
        img_cols = []
        for col in bnext.columns():
            coords = solve_int(self._kmat, col, snf=self._ksnf)
            if coords is None:  # pragma: no cover - boundaries are cycles
                raise AssertionError("boundary not in kernel lattice")
            img_cols.append(coords)
        self._rel = IntMatrix.from_columns(k, img_cols)
        self._rsnf = smith_normal_form(self._rel, want_transforms=True)
        self.betti = k - self._rsnf.rank
        self.torsion = self._rsnf.torsion
        pivot_rows = set(self._rsnf.pivot_rows)
        self._free_rows = [i for i in range(k) if i not in pivot_rows]

    def coords(self, cycle):
        """(free coords, torsion coords) of a cycle's homology class."""
        a = solve_int(self._kmat, list(cycle), snf=self._ksnf)
        if a is None:
            raise ValueError("not a cycle (or not in the kernel lattice)")
        # w = U a: free coordinates sit at the non-pivot rows of the
        # relation SNF, torsion coordinates at its pivot rows.
        rsnf = self._rsnf
        w = [sum(v * a[j] for j, v in row.items()) for row in rsnf.urows]
        free = tuple(w[i] for i in self._free_rows)
        torsion = tuple(
            w[i] % d for d, i in zip(rsnf.invariant_factors, rsnf.pivot_rows) if d > 1
        )
        return free, torsion


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


def face_complex(degrees, faces=_drop_one):
    """Chain complex whose boundary is the signed sum of face maps.

    ``faces(label)`` yields ``(face, sign)`` pairs; each sign is added at
    (row of the face in degree d-1, column of the label), and faces
    absent from the basis map to zero.
    """
    boundaries = {}
    for d in sorted(degrees):
        lower = {lab: i for i, lab in enumerate(degrees.get(d - 1, ()))}
        entries = {}
        for j, lab in enumerate(degrees[d]):
            for face, sign in faces(lab):
                row = lower.get(face)
                if row is not None:
                    entries[(row, j)] = entries.get((row, j), 0) + sign
        boundaries[d] = IntMatrix(len(degrees.get(d - 1, ())), len(degrees[d]), entries)
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


def local_complex(coll, window):
    """Relative ST model on the sub-poset of members meeting the window.

    The window must be a valid (bounded, full-dimensional) convex
    polytope whose facet hyperplanes belong to the collection.
    """
    from geotits import collection as coll_mod

    if not isinstance(window, geo.ConvexPolytope):
        raise ValueError("window must be a convex polytope (bounded)")
    known = {m.carrier for m in coll.members}
    for h in window.halfspaces:
        hs = geo.hyperplane_subspace(coll.geometry, h.hyperplane)
        if hs is None or hs.carrier not in known:
            raise ValueError("window facets must be hyperplanes of the collection")
    members = coll_mod.restrict(coll, window)
    return relative_st_complex(list(members), coll.top())


# ---------------------------------------------------------------------------
# Spherical triangulation and the polytopal-Tits models


class SphereTriangulation:
    """Barycentric flag model of an admissible spherical arrangement.

    Vertices are arrangement cells; m-simplices are strict closure
    chains of m+1 cells.  For every flat V of the collection, the chains
    whose top cell lies in V triangulate the subsphere S(V).
    """

    __slots__ = ("poset", "cell_order", "simplices", "complex", "orientations", "_by_top")

    def __init__(self, poset):
        self.poset = poset
        self.cell_order = tuple(sorted(poset.cells))
        leq = lambda i, j: i != j and FacePoset.leq(
            self.cell_order[i], self.cell_order[j]
        )
        chains = _chains(len(self.cell_order), leq)[1:]  # no empty simplex
        self.complex = face_complex(_graded(chains, lambda c: len(c) - 1))
        self.simplices = self.complex.degrees
        # label -> orientation sign of its witnesses in its top cell's flat
        self.orientations = {}
        self._by_top = {}  # (m, top cell sign vector) -> m-simplices
        for m, labs in self.simplices.items():
            for lab in labs:
                self._by_top.setdefault((m, self.cell_order[lab[-1]]), []).append(lab)

    def top_cell(self, label):
        return self.poset.cells[self.cell_order[label[-1]]]

    def labels_with_top(self, m, tops):
        """The m-simplices whose top cell is one of these sign vectors, in
        basis order."""
        return sorted(lab for s in tops for lab in self._by_top.get((m, s), ()))

    def labels_in_carrier(self, carrier, m):
        """The m-simplices of S(carrier): those whose top cell lies in the
        flat, that is, vanishes on every hyperplane containing it."""
        return self.labels_with_top(m, self.poset.cells_in(self.poset.flat_signs(carrier)))


def sphere_triangulation(coll, poset=None):
    """Triangulation of S^n subordinate to an admissible collection."""
    from geotits import collection as coll_mod
    from geotits.arrangement import build_arrangement

    if coll_mod.admissible(coll) != coll_mod.ADMISSIBLE:
        raise ValueError("NOT_ADMISSIBLE: sphere triangulation needs admissibility")
    if poset is None:
        poset = build_arrangement(coll)
    # admissibility makes every cell's closed cone pointed (strongly
    # convex), which is what turns closure chains into a triangulation
    from geotits import exact

    for sign, cell in poset.cells.items():
        closed = [cov for s_i, cov in zip(sign, poset.covectors) if s_i == 0]
        closed += [cov for s_i, cov in zip(sign, poset.covectors) if s_i != 0]
        if exact.rank(closed) != coll.geometry.ambient_dim:  # pragma: no cover
            raise AssertionError("arrangement cell is not strongly convex")
    return SphereTriangulation(poset)


def _bicomplex_faces(label):
    """Flag faces (-1)**drop, then simplex faces (-1)**k (-1)**i; the
    empty simplex is not a face."""
    flag, sigma = label
    for face, sign in _drop_one(flag):
        yield (face, sigma), sign
    k_sign = (-1) ** len(flag)
    for face, sign in _drop_one(sigma):
        if face:
            yield (flag, face), k_sign * sign


def pt_bicomplex(coll, tri):
    """Total complex of the poset-of-flats diagram of subsphere chains,
    relative to the sub-diagram below the top flat.

    Degree (k + m) basis: (flag of k proper members V_0 < ... < V_{k-1}
    anchored at the top, m-simplex of the S(V_0) triangulation); for the
    empty flag the simplex ranges over the whole sphere model.
    """
    proper = sorted((m for m in coll.members if not m.is_top()),
                    key=lambda m: m.sort_key())
    carrier = [m.carrier for m in proper]
    leq = lambda i, j: carrier[j].contains(carrier[i]) and carrier[i] != carrier[j]
    labels = []
    for flag in _chains(len(proper), leq):
        for m, whole in tri.simplices.items():
            pool = tri.labels_in_carrier(carrier[flag[0]], m) if flag else whole
            labels.extend((flag, sigma) for sigma in pool)
    return face_complex(_graded(labels, lambda l: len(l[0]) + len(l[1]) - 1),
                        _bicomplex_faces)


def pt_collapse_complex(coll, tri):
    """Strict-colimit model: chains of S^n relative to the proper-flat union.

    Basis: simplices of the sphere triangulation whose top cell is a
    full-dimensional region; faces falling into proper flats die.
    """
    n = coll.geometry.n
    return face_complex({
        m: [lab for lab in labs if tri.top_cell(lab).dim == n]
        for m, labs in tri.simplices.items()
    })


def collapse_chain_map(bicomplex, collapse):
    """Chain map from the bicomplex to the collapse model.

    Sends (empty flag, sigma) to sigma when sigma survives in the
    collapse model, and every generator with a nonempty flag to zero.
    """
    maps = {}
    for d in bicomplex.support():
        tgt_index = collapse.index(d)
        entries = {}
        for j, (flag, sigma) in enumerate(bicomplex.degrees[d]):
            if flag:
                continue
            row = tgt_index.get(sigma)
            if row is not None:
                entries[(row, j)] = 1
        maps[d] = IntMatrix(collapse.dim(d), bicomplex.dim(d), entries)
    # verify chain map: d q = q d
    for d in bicomplex.support():
        if d - 1 not in maps:
            continue
        left = collapse.boundary(d).compose(maps[d])
        right = maps[d - 1].compose(bicomplex.boundary(d))
        if left != right:
            raise AssertionError("collapse is not a chain map")
    return maps
