"""Polytope and Lee-Szczarba groups, apartment classes, theorem checkers.

Sign conventions: the standard orientation of each chart orients X^n;
apartment signs are witness minors at the pivots of the top cell's flat,
read as products of memoised step signs, one per (facet, cell)
incidence (``FacePoset.orientation``).  Only well-definedness and
iso-ness are ever asserted, never an absolute sign.
"""

from itertools import combinations, permutations

from geotits import HypothesesError
from geotits import arrangement as arr
from geotits import collection as coll_mod
from geotits import complexes as cx
from geotits import exact, geometry as geo
from geotits._kernel import (
    IntMatrix,
    kernel_basis,
    lattice_contains,
    lattices_equal,
    smith_normal_form,
)
from geotits.exact import dot, frac


# ---------------------------------------------------------------------------
# Finitely presented abelian groups


class GroupPresentation:
    """Generators plus a relation matrix (one relation per row)."""

    __slots__ = ("generators", "relations", "_snf")

    def __init__(self, generators, relations=None):
        self.generators = tuple(generators)
        g = len(self.generators)
        if relations is None:
            relations = IntMatrix(0, g)
        if relations.cols != g:
            raise ValueError("relation width mismatch")
        self.relations = relations
        self._snf = smith_normal_form(relations)

    @property
    def free_rank(self):
        return len(self.generators) - self._snf.rank

    @property
    def torsion(self):
        return self._snf.torsion

    def relation_lattice_matrix(self):
        """Relations as columns (lattice in Z^generators)."""
        return self.relations.transpose()

    def __repr__(self):
        t = "+".join(f"Z/{d}" for d in self.torsion)
        return f"GroupPresentation(Z^{self.free_rank}{'+' + t if t else ''})"


class GroupHom:
    """Matrix on generators with a well-definedness certificate."""

    __slots__ = ("domain", "codomain", "matrix", "well_defined")

    def __init__(self, domain, codomain, matrix):
        if matrix.rows != len(codomain.generators) or matrix.cols != len(domain.generators):
            raise ValueError("hom matrix shape mismatch")
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix
        self.well_defined = self._check_well_defined()

    def _check_well_defined(self):
        """Does every domain relation map into the codomain's relations?"""
        width = self.domain.relations.cols
        images = [self.matrix.mul_vec([row.get(j, 0) for j in range(width)])
                  for row in self.domain.relations.row_dicts()]
        return lattice_contains(self.codomain.relation_lattice_matrix(), images)

    def is_surjective(self):
        g = len(self.codomain.generators)
        stacked = IntMatrix.from_col_dicts(
            g, self.matrix.col_dicts + self.codomain.relations.row_dicts())
        return _unit_snf(stacked, g)

    def kernel_lattice(self):
        """Generators (columns) of {x : M x lies in the codomain relations}:
        a kernel basis of [M | -R] cut to the domain coordinates, so
        columns repeat or vanish when the relations are dependent."""
        gc = len(self.codomain.generators)
        gd = len(self.domain.generators)
        rel = self.codomain.relations
        block = IntMatrix.from_col_dicts(
            gc, self.matrix.col_dicts + [{j: -v for j, v in row.items()} for row in rel.row_dicts()])
        cols = kernel_basis(block)
        return [col[:gd] for col in cols]

    def is_isomorphism(self):
        """Well-defined and surjective between isomorphic groups: a
        surjection of a finitely generated abelian group onto an
        isomorphic one is injective, so (free rank, torsion) decide."""
        dom, cod = self.domain, self.codomain
        return (self.well_defined and self.is_surjective()
                and (dom.free_rank, dom.torsion) == (cod.free_rank, cod.torsion))


# ---------------------------------------------------------------------------
# Apartment cycles
#
# Each builder returns its chain as a tuple of integers over the target
# complex's degree-n basis; the spherical one sums the face chains and
# incidence signs that the triangulation builds once per cell.
# ``apartment_matrix`` certifies every chain it is given:
# ``HomologyClasses.coords`` checks d c = 0 exactly and reads the chain's
# entries at the non-pivot columns of the pinned Markowitz reduction of
# d_n, which the complex keeps for ``homology`` to reuse.


def apartment_cycle_tuple(members_tuple, st_model):
    """Apartment cycle of an (n+1)-tuple of points in the relative ST model.

    The plain alternating chain: the sum over permutations of
    sign(sigma) times the flag of prefix spans.  Degenerate tuples are
    accepted (their classes are boundaries).
    """
    n = st_model.top.geometry.n
    if len(members_tuple) != n + 1:
        raise ValueError("need an (n+1)-tuple")
    pos = {m: i for i, m in enumerate(st_model.proper)}
    idx = st_model.complex.index(n)
    vec = [0] * st_model.complex.dim(n)
    for sigma in permutations(range(n + 1)):
        sgn = _perm_sign(sigma)
        flats = []
        ok = True
        for k in range(n):
            span = geo.span_points([members_tuple[sigma[i]] for i in range(k + 1)])
            if span.carrier.dim != k + 1:
                ok = False  # repeated span: flag not strict
                break
            flats.append(span)
        if not ok:
            continue
        label = tuple(pos[f] for f in flats)
        if label not in idx:
            raise ValueError("span flag leaves the collection")
        vec[idx[label]] += sgn
    return tuple(vec)


def _perm_sign(sigma):
    sgn = 1
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            if sigma[i] > sigma[j]:
                sgn = -sgn
    return sgn


# ---------------------------------------------------------------------------
# Spherical PT apartments (bicomplex cycles with face-flag corrections)


def apartment_cycle_pt_spherical(region_sign, coll, tri, bicomplex):
    """Relative apartment cycle of a closed region (given by its sign
    vector in ``tri.poset``) in the polytopal-Tits total complex.

    Column 0 is the signed sum of flag simplices contained in the
    region; lower columns add face-flag correction terms so that the
    total boundary vanishes exactly.
    """
    n = coll.geometry.n
    cells = tri.poset.cells
    proper = sorted((m for m in coll.members if not m.is_top()),
                    key=lambda m: m.sort_key())
    member_pos = {m.carrier: i for i, m in enumerate(proper)}
    idx = bicomplex.index(n)
    vec = [0] * bicomplex.dim(n)

    def emit(flag_faces, base_face, outer_sign):
        flag_label = tuple(member_pos[cells[f].flat] for f in flag_faces)
        for lab, s in tri.cell_chain(base_face)[0].items():
            key = (flag_label, lab)
            if key not in idx:
                raise ValueError("face span leaves the collection")
            vec[idx[key]] += outer_sign * s

    emit((), region_sign, 1)
    # flags of faces, lowest first, each with the product of the
    # incidence signs along it
    flags = [((region_sign,), 1)]
    for k in range(1, n + 1):
        flags = [((f,) + fl, eta_prod * eta)
                 for fl, eta_prod in flags
                 for f, eta in tri.cell_chain(fl[0])[1].items()]
        s_k = -1 if (k * (k + 1) // 2) % 2 else 1
        for fl, eta_prod in flags:
            emit(fl[:-1], fl[0], s_k * eta_prod)
    return tuple(vec)


# ---------------------------------------------------------------------------
# ST models and apartment matrices


class STModel:
    """Relative ST complex together with its proper-member order."""

    __slots__ = ("top", "proper", "complex")

    def __init__(self, members, top):
        self.top = top
        self.proper = tuple(
            sorted((m for m in members if m != top), key=lambda m: m.sort_key())
        )
        self.complex = cx.relative_st_complex(members, top)


def apartment_cycle_cell(poset, region_sign, st_model):
    """Apartment cycle of a closed cell via complete flags of its faces,
    each signed by ``poset.orientation`` in the cell's own flat.

    The flags are walked down ``poset.facets``; the faces' flats are
    exactly the face spans.
    """
    if poset.geometry.kind == geo.SPHERICAL:
        raise ValueError("cell apartments are for the E/H suspended model")
    cells = poset.cells
    d = cells[region_sign].dim
    flags = [(region_sign,)]
    for _ in range(d):
        flags = [(f,) + fl for fl in flags for f in poset.facets(fl[0])]
    if not flags:
        raise ValueError("region has no complete boundary flags (unbounded?)")
    pos = {m.carrier: i for i, m in enumerate(st_model.proper)}
    idx = st_model.complex.index(d)
    vec = [0] * st_model.complex.dim(d)
    for fl in flags:
        sign = poset.orientation(fl)
        label = tuple(pos[cells[s].flat] for s in fl[:-1])
        if label not in idx:
            raise ValueError("face span leaves the collection")
        vec[idx[label]] += sign
    return tuple(vec)


class ApartmentMatrixResult:
    __slots__ = ("matrix", "betti", "iso")

    def __init__(self, matrix, betti, iso):
        self.matrix = matrix
        self.betti = betti
        self.iso = iso


def apartment_matrix(complex_, degree, cycles):
    """Classes of the apartment cycles in the basis of H_degree (the top
    degree) read off ``HomologyClasses``, one column per cycle; ``iso``
    says the matrix is unimodular.  A chain that is not a cycle raises
    ``ValueError``."""
    classes = cx.HomologyClasses(complex_, degree)
    cols = [list(classes.coords(cyc)) for cyc in cycles]
    matrix = IntMatrix.from_columns(classes.betti, cols)
    return ApartmentMatrixResult(matrix, classes.betti, _unimodular(matrix))


def _unimodular(matrix):
    return matrix.rows == matrix.cols and _unit_snf(matrix, matrix.rows)


def _unit_snf(matrix, rank):
    """Has the matrix this rank, with every invariant factor 1?"""
    snf = smith_normal_form(matrix)
    return snf.rank == rank and all(d == 1 for d in snf.invariant_factors)


def _image_is_kernel(inc, fac):
    """For fac @ inc = 0: is the column lattice of inc the kernel of fac?
    The kernel is saturated, so an image inside it equals it exactly when
    the image is saturated of the same rank."""
    return _unit_snf(inc, fac.cols - smith_normal_form(fac).rank)


def pt_group(basis):
    """Free presentation of the polytope group on a region basis."""
    return GroupPresentation([arr.sign_key(s) for s in basis])


def ls_group(coll):
    """(presentation, points) of the Lee-Szczarba group: nondegenerate
    increasing (n+1)-tuples modulo boundaries of nondegenerate
    (n+2)-tuples.  The collection is generated by points; its callers
    decide that."""
    g = coll.geometry
    n = g.n
    complex_, pts = cx.tpl_complex(list(coll.points()), g)
    gens = complex_.degrees.get(n, ())
    bd = complex_.boundary(n + 1)
    relations = bd.transpose()  # one relation per (n+2)-tuple
    return GroupPresentation(gens, relations), pts


def ls_apartment_matrix(ls_data, st_model):
    """Apartment classes of the Lee-Szczarba generators in H_n of the
    relative ST model; ``iso`` says the map Ls -> H_n they define is an
    isomorphism.  The map is asserted to respect the simplicial
    relations."""
    pres, pts = ls_data
    # The Ls -> H map uses the plain alternating apartment: the
    # simplicial relations hold in that normalization.
    cycles = [apartment_cycle_tuple(tuple(pts[i] for i in gen), st_model)
              for gen in pres.generators]
    result = apartment_matrix(st_model.complex, st_model.top.geometry.n, cycles)
    hom = GroupHom(pres, GroupPresentation(range(result.betti)), result.matrix)
    if not hom.well_defined:
        raise AssertionError("apartment map does not respect the simplicial relations")
    result.iso = hom.is_isomorphism()
    return result


# ---------------------------------------------------------------------------
# The canonical map Pt -> Ls


def pt_to_ls_element(poset, region_sign, ls_data):
    """Image of a bounded region under the canonical map Pt -> Ls: the
    increasing tuple of its vertices (the 0-cells in its closure, by
    point index) with the sign of the determinant of their chart
    vectors, (1, x) in E/H and the ray itself in S^n.

    The region is a simplex, since the collection is generated by both
    points and hyperplanes.  Its vertices, the 0-cells of the
    arrangement, are points of the collection, and the hyperplane
    through any n affinely independent ones is in the arrangement.  The
    region does not cross that hyperplane, so it carries a facet.  A
    polytope in which every n affinely independent vertices share a
    facet is a simplex: by induction every facet is one, and for a
    facet F each vertex outside F is the apex of the facet next to F
    across each ridge, so there is only one such vertex.

    AssertionError unless the region has n + 1 vertices with a nonzero
    determinant.
    """
    g = poset.geometry
    pres, pts = ls_data
    pair_index = {p.carrier: i for i, p in enumerate(pts)}
    cells = poset.cells
    vertices = sorted((pair_index[cells[s].flat], s)
                      for s in poset.cells_in(tuple(enumerate(region_sign)))
                      if cells[s].dim == 0)
    sign = 0
    if len(vertices) == g.n + 1:
        sign = exact.det_sign([geo.chart_vector(g, cells[s].witness) for _, s in vertices])
    if sign == 0:
        raise AssertionError(f"region {arr.sign_key(region_sign)} is not a simplex")
    out = [0] * len(pres.generators)
    out[pres.generators.index(tuple(i for i, _ in vertices))] = sign
    return tuple(out)


def pt_to_ls_hom(coll, poset, basis):
    """The canonical map Pt -> Ls as a GroupHom on the region basis,
    with the Lee-Szczarba data it maps to."""
    ls_data = ls_group(coll)
    pres = ls_data[0]
    cols = [list(pt_to_ls_element(poset, s, ls_data)) for s in basis]
    matrix = IntMatrix.from_columns(len(pres.generators), cols)
    return GroupHom(pt_group(basis), pres, matrix), ls_data


def join_sublattice(coll, poset, basis, ls_data):
    """Generators of J: indicator vectors of joins {x,-x} * P.

    P runs over (n-1)-simplices with vertices in the point pairs, over
    all sign choices of representatives.
    """
    g = coll.geometry
    n = g.n
    pts = list(coll.points())
    reps = [p.carrier.basis[0] for p in pts]
    vectors = []
    seen = set()
    for xi in range(len(pts)):
        others = [k for k in range(len(pts)) if k != xi]
        for combo in combinations(others, n):
            base = [reps[k] for k in combo]
            if exact.rank([reps[xi]] + base) != n + 1:
                continue
            for signs in _sign_patterns(n):
                simplex_rays = [reps[xi]] + [
                    tuple(s * frac(x) for x in base[j]) for j, s in enumerate(signs)
                ]
                join_vec = _join_indicator(simplex_rays, poset, basis, g)
                if join_vec is not None and any(join_vec) and join_vec not in seen:
                    seen.add(join_vec)
                    vectors.append(list(join_vec))
    return vectors


def _sign_patterns(n):
    out = [()]
    for _ in range(n):
        out = [p + (s,) for p in out for s in (1, -1)]
    return out


def _join_indicator(simplex_rays, poset, basis, g):
    """Indicator of {x,-x} * simplex(base rays): the two opposite cones."""
    x = simplex_rays[0]
    base = simplex_rays[1:]
    total = [0] * len(basis)
    for x_sign in (1, -1):
        rays = [tuple(x_sign * frac(v) for v in x)] + list(base)
        hs = _cone_halfspaces(rays, g)
        if hs is None:
            return None
        vec = arr.polytope_to_vector(hs, basis, poset)
        if vec == arr.NOT_L_POLYTOPE:
            return None
        total = [a + b for a, b in zip(total, vec)]
    return tuple(total)


def _cone_halfspaces(rays, g):
    """Half-space description of the simplicial cone spanned by the rays,
    or None unless they are a basis: then every half-space is a facet."""
    amb = g.ambient_dim
    if exact.rank(rays) != amb:
        return None
    hs = []
    for drop in range(len(rays)):
        rest = [rays[k] for k in range(len(rays)) if k != drop]
        ker = exact.nullspace(rest, amb)
        if len(ker) != 1:
            return None
        f = ker[0]
        val = dot(f, rays[drop])
        if val < 0:
            f = tuple(-x for x in f)
        hs.append(geo.HalfSpace(f))
    return hs


# ---------------------------------------------------------------------------
# Theorem checkers


def verify_pt_ls(coll, poset=None, basis=None):
    """Certify the canonical map Pt -> Ls (iso for E/H; for S surjective
    with kernel equal to the join sublattice).  The collection is
    generated by both points and hyperplanes; its callers decide that."""
    g = coll.geometry
    if poset is None:
        poset = arr.build_arrangement(coll)
    if basis is None:
        basis = arr.region_basis(poset)
    hom, ls_data = pt_to_ls_hom(coll, poset, basis)
    pres = ls_data[0]
    report = {
        "claim": "canonical map Pt -> Ls",
        "geometry": f"{g.kind}^{g.n}",
        "pt_rank": len(basis),
        "ls_invariants": [pres.free_rank, list(pres.torsion)],
        "well_defined": hom.well_defined,
    }
    if g.kind in (geo.EUCLIDEAN, geo.HYPERBOLIC):
        iso = hom.is_isomorphism()
        report["isomorphism"] = iso
        report["verdict"] = "PASS" if iso and hom.well_defined else "FAIL"
        return report
    surj = hom.is_surjective()
    kernel = hom.kernel_lattice()
    joins = join_sublattice(coll, poset, basis, ls_data)
    kernel_eq = lattices_equal(kernel, joins, len(basis))
    kernel_rank = smith_normal_form(IntMatrix.from_columns(len(basis), kernel)).rank
    report.update(
        {
            "surjective": surj,
            "kernel_rank": kernel_rank,
            "join_generators": len(joins),
            "kernel_equals_join_lattice": kernel_eq,
            "verdict": "PASS" if surj and kernel_eq and hom.well_defined else "FAIL",
        }
    )
    return report


def exact_sequence_hypotheses(coll, u_covector, window=None):
    """HypothesesError unless the exact sequence for L = ``coll`` and U
    applies, and L cup U (one more hyperplane than L) is within the size
    guards.  Needs no arrangement, so callers decide it before they
    build one."""
    g = coll.geometry
    u = geo.canonical_covector(u_covector)
    if u in coll.hyperplane_covectors:
        raise HypothesesError("U already belongs to the collection (sequence fails)")
    if g.kind == geo.EUCLIDEAN and window is None:
        if coll_mod.admissible(coll) != coll_mod.ADMISSIBLE:
            raise HypothesesError("Euclidean collection not admissible")
    if g.kind == geo.HYPERBOLIC and window is None:
        raise HypothesesError("hyperbolic global form needs a window polytope A")
    if geo.hyperplane_subspace(g, u) is None:
        raise HypothesesError("U does not meet the geometry")
    arr.size_guard(g, len(coll.hyperplane_covectors) + 1)


def exact_sequence_check(coll, u_covector, window=None, poset=None, basis=None):
    """Verify 0 -> Pt(L) -> Pt(L cup U) -> Pt(L cap U on U) -> 0 at matrix
    level, plus rank additivity and the homology counterpart, once its
    callers have decided ``exact_sequence_hypotheses``.  ``poset`` and
    ``basis``, when given, are L's arrangement within ``window`` and its
    region basis."""
    g = coll.geometry
    u = geo.canonical_covector(u_covector)
    var = coll_mod.variants(coll, u)
    cup = var.cup
    if poset is None:
        poset = arr.build_arrangement(coll, within=window)
    if basis is None:
        basis = arr.region_basis(poset)
    cup_poset = arr.build_arrangement(cup, within=window)
    cup_basis = arr.region_basis(cup_poset)
    cup_covs = tuple(sorted(cup.hyperplane_covectors))
    u_index = cup_covs.index(u)
    base_positions = [cup_covs.index(c) for c in sorted(coll.hyperplane_covectors)]
    # basis of the (L cap U)-polytope group: the bounded (n-1)-cells on U
    u_cells = tuple(s for s, c in sorted(cup_poset.cells.items())
                    if c.dim == g.n - 1 and s[u_index] == 0 and cup_poset.bounded(s))

    # inclusion: a cup-region lies in the L-region with the restricted signs
    basis_index = {s: i for i, s in enumerate(basis)}
    inc_entries = {}
    for j, s in enumerate(cup_basis):
        restricted = tuple(s[p] for p in base_positions)
        i = basis_index.get(restricted)
        if i is not None:
            inc_entries[(j, i)] = 1
    inc = IntMatrix(len(cup_basis), len(basis), inc_entries)

    # facet map: flip the U-sign of a cup-region to zero
    u_cell_index = {s: i for i, s in enumerate(u_cells)}
    fac_entries = {}
    for j, s in enumerate(cup_basis):
        tau = tuple(0 if k == u_index else x for k, x in enumerate(s))
        i = u_cell_index.get(tau)
        if i is not None:
            fac_entries[(i, j)] = s[u_index]
    fac = IntMatrix(len(u_cells), len(cup_basis), fac_entries)

    injective = _unit_snf(inc, len(basis))
    surjective = _unit_snf(fac, len(u_cells))
    composite_zero = fac.product_is_zero(inc)
    kernel_eq = composite_zero and _image_is_kernel(inc, fac)
    rank_additive = len(cup_basis) == len(basis) + len(u_cells)

    report = {
        "claim": "polytope-group exact sequence",
        "u": [str(x) for x in u],
        "ranks": {
            "pt_L": len(basis),
            "pt_L_cup_U": len(cup_basis),
            "pt_L_cap_U": len(u_cells),
        },
        "injective": injective,
        "facet_surjective": surjective,
        "composite_zero": composite_zero,
        "kernel_equals_image": kernel_eq,
        "rank_additive": rank_additive,
    }

    if g.kind != geo.SPHERICAL:
        # the relative ST models of L, L cup U and L cap U (anchored at U),
        # restricted to the window when there is one
        if window is None:
            mem_l, mem_cup, cap_members = list(coll.members), list(cup.members), list(var.cap)
        else:
            mem_l = _members_within(coll.members, window, g)
            mem_cup = _members_within(cup.members, window, g)
            cap_set = set(var.cap)
            cap_members = [m for m in mem_cup if m in cap_set]
            if var.u_member not in cap_members:
                cap_members.append(var.u_member)
        cup_st = STModel(mem_cup, coll.top())
        cap_st = STModel(cap_members, var.u_member)
        # the dashed map's classes reduce the top boundary of the cap
        # model once, and its homology reuses that reduction
        dashed = _dashed_map_check(g.n, cup_st, cap_st, cup_poset, u_cells) if u_cells else None
        report["homology"] = _st_rank_additivity(coll, mem_l, cup_st, cap_st)
        if u_cells:
            report["dashed_map_agrees"] = dashed
    ok = injective and surjective and composite_zero and kernel_eq and rank_additive
    if "homology" in report:
        ok = ok and report["homology"]["additive"]
    if "dashed_map_agrees" in report:
        ok = ok and report["dashed_map_agrees"]
    report["verdict"] = "PASS" if ok else "FAIL"
    return report


def _members_within(members, window, g):
    return list(coll_mod.restrict(coll_mod.Collection(g, members), window))


def _st_rank_additivity(coll, mem_l, cup_st, cap_st):
    """H_n(ST cup) rank = H_n(ST) + H_{n-1}(ST cap U) rank."""
    h_l = cx.homology(cx.relative_st_complex(mem_l, coll.top()))
    h_cup = cx.homology(cup_st.complex)
    h_cap = cx.homology(cap_st.complex)
    n = coll.geometry.n
    additive = h_cup.betti(n) == h_l.betti(n) + h_cap.betti(n - 1)
    return {
        "st_L": h_l.betti(n),
        "st_cup": h_cup.betti(n),
        "st_cap": h_cap.betti(n - 1),
        "additive": additive,
    }


def _dashed_map_check(n, cup_st, cap_st, cup_poset, u_cells):
    """Boundary of a cofacet lift vs the apartment of the facet, as
    homology classes in the U-geometry (one global sign for all cells)."""
    u_member = cap_st.top
    classes = cx.HomologyClasses(cap_st.complex, n - 1)
    cap_index = cap_st.complex.index(n - 1)
    cap_pos = {m: i for i, m in enumerate(cap_st.proper)}

    epsilon = None
    for tau in u_cells:
        lift = arr.cofacet_lift(cup_poset, tau)
        if lift == arr.NO_LIFT:
            return False
        q_sign, actual_side = lift
        apt_q = apartment_cycle_cell(cup_poset, q_sign, cup_st)
        # only the facet's apartment reaches ``coords``, so the lift is
        # checked to be a cycle here
        if any(cup_st.complex.boundary(n).mul_vec(list(apt_q))):
            raise AssertionError(f"lifted apartment of {arr.sign_key(q_sign)} is not a cycle")
        # anchor-dropping boundary, projected to flags ending at U
        proj = [0] * cap_st.complex.dim(n - 1)
        labels = cup_st.complex.degrees.get(n, ())
        for pos_i, coeff in enumerate(apt_q):
            if not coeff:
                continue
            label = labels[pos_i]
            members = [cup_st.proper[i] for i in label]
            if members[-1] != u_member:
                continue
            cap_label = tuple(cap_pos[m] for m in members[:-1])
            proj[cap_index[cap_label]] += coeff
        free_b = classes.coords(proj)
        apt_tau = apartment_cycle_cell(cup_poset, tau, cap_st)
        free_t = classes.coords(apt_tau)
        lhs = tuple(actual_side * x for x in free_b)
        for eps in (1, -1) if epsilon is None else (epsilon,):
            if lhs == tuple(eps * x for x in free_t):
                epsilon = eps
                break
        else:
            return False
    return True


def duality_check(coll):
    """Order-reversing duality and the Lee-Szczarba description of
    H_n(ST) for admissible spherical collections."""
    g = coll.geometry
    if g.kind != geo.SPHERICAL:
        raise HypothesesError("duality is spherical")
    if coll_mod.admissible(coll) != coll_mod.ADMISSIBLE:
        raise HypothesesError("collection not admissible")
    dual = coll_mod.dualize(coll)
    # elementwise order-reversing bijection on proper members
    proper = [m for m in coll.members if not m.is_top()]
    dual_proper = [m for m in dual.members if not m.is_top()]
    images = {}
    for m in proper:
        c = m.carrier.orthogonal_complement()
        images[m] = geo.GeoSubspace(g, c)
    bijection = sorted(x.sort_key() for x in images.values()) == sorted(
        x.sort_key() for x in dual_proper
    ) and len(images) == len(dual_proper)
    reversing = all(
        (a.contains(b)) == (images[b].contains(images[a]))
        for a in proper
        for b in proper
    )
    if not coll_mod.generated_by_points(dual):
        return {"claim": "spherical duality", "verdict": "FAIL",
                "reason": "dual collection not generated by points"}
    st_l = cx.homology(cx.relative_st_complex(list(coll.members), coll.top()))
    dual_st = STModel(dual.members, dual.top())
    ls_data = ls_group(dual)
    apt = ls_apartment_matrix(ls_data, dual_st)
    st_d = cx.homology(dual_st.complex)  # after the classes: one reduction of d_n
    n = g.n
    ranks_match = st_l.betti(n) == st_d.betti(n) and not st_l.torsion(n)
    ls_rank = ls_data[0].free_rank
    ok = bijection and reversing and ranks_match and apt.iso
    return {
        "claim": "spherical duality",
        "bijection": bijection,
        "order_reversing": reversing,
        "st_rank": st_l.betti(n),
        "dual_st_rank": st_d.betti(n),
        "ls_dual_rank": ls_rank,
        "apartment_iso": apt.iso,
        "verdict": "PASS" if ok else "FAIL",
    }


def suspension_check(coll):
    """Non-admissible spherical reduction: Pt via region bijection and the
    homology degree shift by dim(U)."""
    g = coll.geometry
    if g.kind != geo.SPHERICAL:
        raise HypothesesError("suspension reduction is spherical")
    if coll_mod.admissible(coll) == coll_mod.ADMISSIBLE:
        raise HypothesesError("collection is admissible; suspension reduction does not apply")
    if not coll.hyperplane_covectors:
        raise HypothesesError("collection has no hyperplanes (out of scope)")
    u_carrier = coll_mod.hyperplane_intersection_carrier(coll)
    u_dim = u_carrier.dim
    perp = u_carrier.orthogonal_complement()
    m = perp.dim - 1
    small_g = geo.Geometry(geo.SPHERICAL, m)
    basis_rows = perp.basis
    reduced = []
    flips = {}
    for cov in sorted(coll.hyperplane_covectors):
        raw = tuple(dot(cov, b) for b in basis_rows)
        canon = geo.canonical_covector(raw)
        flip = 1
        raw_prim = exact.primitive_int_row(raw)
        if raw_prim != canon:
            flip = -1
        reduced.append(canon)
        flips[cov] = (canon, flip)
    small = coll_mod.closure_by_hyperplanes(small_g, reduced)
    if coll_mod.admissible(small) != coll_mod.ADMISSIBLE:
        raise AssertionError("reduced collection must be admissible")
    big_poset = arr.build_arrangement(coll)
    small_poset = arr.build_arrangement(small)
    big_regions = arr.region_basis(big_poset)
    small_regions = arr.region_basis(small_poset)
    # transport sign vectors through the covector correspondence
    big_covs = tuple(sorted(coll.hyperplane_covectors))
    small_covs = tuple(sorted(small.hyperplane_covectors))
    transported = set()
    for s in small_regions:
        sig = {}
        for cov in big_covs:
            canon, flip = flips[cov]
            sig[cov] = flip * s[small_covs.index(canon)]
        transported.add(tuple(sig[cov] for cov in big_covs))
    bijection = transported == set(big_regions)
    tri = cx.sphere_triangulation(small, small_poset)
    bic = cx.pt_bicomplex(small, tri)
    h_small = cx.homology(bic)
    predicted_degree = m + u_dim
    ok = (
        bijection
        and predicted_degree == g.n
        and h_small.betti(m) == len(big_regions)
        and not h_small.torsion(m)
        and h_small.nonzero_degrees() in ([m], [])
    )
    return {
        "claim": "suspension reduction",
        "u_dim": u_dim,
        "reduced_sphere_dim": m,
        "region_bijection": bijection,
        "pt_rank": len(big_regions),
        "reduced_pt_rank": len(small_regions),
        "reduced_homology_rank": h_small.betti(m),
        "predicted_degree": predicted_degree,
        "verdict": "PASS" if ok else "FAIL",
    }
