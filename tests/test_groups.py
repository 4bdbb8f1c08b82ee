import json
import random
from fractions import Fraction as Fr

import pytest

from geotits import HypothesesError
from geotits import arrangement as arr
from geotits import collection as coll_mod
from geotits import complexes as cx
from geotits import geometry as geo
from geotits import groups as grp
from geotits._kernel import IntMatrix, kernel_basis, lattice_contains, lattices_equal
from geotits.cli import Scene, corpus_dir, run_command
from conftest import (
    E1,
    E2,
    H2,
    S2,
    TRIANGLE_COVS,
    apartment_cycle_polytope,
    apartment_cycle_pt_polytope,
    cell_apartments,
    cells_in_polytope,
    dense_columns,
    pt_apartments,
    reference_det_sign,
    reference_is_injective,
    reference_polytope,
    reference_pt_to_ls_element,
    region_polytope,
    subdivide,
)


def test_group_presentation_invariants():
    pres = grp.GroupPresentation(["a", "b"], IntMatrix(1, 2, {(0, 0): 2, (0, 1): 0}))
    assert pres.free_rank == 1 and pres.torsion == (2,)
    free = grp.GroupPresentation(["a", "b", "c"])
    assert free.free_rank == 3 and not free.torsion


def test_group_hom_certificates():
    # Z/2 -> Z/4 by x -> 2x: well-defined, injective, not surjective
    dom = grp.GroupPresentation(["x"], IntMatrix(1, 1, {(0, 0): 2}))
    cod = grp.GroupPresentation(["y"], IntMatrix(1, 1, {(0, 0): 4}))
    hom = grp.GroupHom(dom, cod, IntMatrix(1, 1, {(0, 0): 2}))
    assert hom.well_defined and reference_is_injective(hom) and not hom.is_surjective()
    # x -> y is NOT well-defined from Z/2 to Z/4
    bad = grp.GroupHom(dom, cod, IntMatrix(1, 1, {(0, 0): 1}))
    assert not bad.well_defined
    # identity Z/4 -> Z/4 is an isomorphism
    iso = grp.GroupHom(cod, cod, IntMatrix(1, 1, {(0, 0): 1}))
    assert iso.is_isomorphism()


def _random_presentation(rng, gens):
    rels = [[rng.randint(-3, 3) for _ in range(gens)] for _ in range(rng.randint(0, 3))]
    return grp.GroupPresentation(range(gens), IntMatrix.from_columns(gens, rels).transpose())


def _random_unimodular(rng, size):
    """A product of random elementary integer matrices."""
    m = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(3 * size):
        i, j = rng.sample(range(size), 2) if size > 1 else (0, 0)
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            q = rng.randint(-2, 2)
            m[i] = [a + q * b for a, b in zip(m[i], m[j])]
    return m


def test_is_isomorphism_matches_injective_oracle():
    """On small homomorphisms, well-defined ones by construction and
    random ones, ``is_isomorphism`` (surjective between groups of equal
    free rank and torsion) agrees with well-defined, surjective and
    injective, the last decided by the general lattice test."""
    rng = random.Random(20)
    seen = set()
    for _ in range(300):
        g_dom, g_cod = rng.randint(0, 3), rng.randint(0, 3)
        dom = _random_presentation(rng, g_dom)
        if rng.random() < 0.5:
            # M unimodular on the same generators and cod relations M D
            # plus maybe a few more: well defined, often an isomorphism
            g_cod = g_dom
            m = IntMatrix.from_columns(g_dom, _random_unimodular(rng, g_dom))
            images = [m.mul_vec([row.get(j, 0) for j in range(g_dom)])
                      for row in dom.relations.row_dicts()]
            extra = [[rng.randint(-3, 3) for _ in range(g_cod)] for _ in range(rng.randint(0, 1))]
            cod = grp.GroupPresentation(
                range(g_cod), IntMatrix.from_columns(g_cod, images + extra).transpose())
        else:
            cod = _random_presentation(rng, g_cod)
            m = IntMatrix.from_columns(
                g_cod, [[rng.randint(-2, 2) for _ in range(g_cod)] for _ in range(g_dom)])
        hom = grp.GroupHom(dom, cod, m)
        surjective = hom.well_defined and hom.is_surjective()
        want = surjective and reference_is_injective(hom)
        assert hom.is_isomorphism() == want
        seen.add((hom.well_defined, surjective, want))
    # surjective and not injective is the case the shortcut decides
    assert seen == {(False, False, False), (True, False, False),
                    (True, True, False), (True, True, True)}


def test_pt_group_values(triangle, concurrent_e2, coord_s2):
    for coll, want in ((triangle, 1), (concurrent_e2, 0), (coord_s2, 8)):
        poset = arr.build_arrangement(coll)
        basis = arr.region_basis(poset)
        assert grp.pt_group(basis).free_rank == want


def test_ls_group_values():
    l = coll_mod.closure_by_hyperplanes(E1, [(0, 1), (-1, 1), (-3, 1)])
    cl, _ = coll_mod.closure_by_points(E1, list(l.points()))
    pres, _ = grp.ls_group(cl)
    assert pres.free_rank == 2 and not pres.torsion
    cl2, _ = coll_mod.closure_by_points(
        E2, [geo.point_subspace(E2, p) for p in ((0, 0), (1, 0), (0, 1))]
    )
    pres2, _ = grp.ls_group(cl2)
    assert pres2.free_rank == 1
    cl4, _ = coll_mod.closure_by_points(
        E2, [geo.point_subspace(E2, p) for p in ((0, 0), (1, 0), (0, 1), (2, 3))]
    )
    pres4, _ = grp.ls_group(cl4)
    assert pres4.free_rank == 3


def test_ls_group_needs_points():
    """``groups ls`` decides generation by points before ``ls_group``
    runs, which assumes it."""
    par = Scene({"geometry": "E", "n": 2, "hyperplanes": [["0", "0", "1"], ["-1", "0", "1"]]})
    with pytest.raises(HypothesesError, match="points-generated"):
        run_command("groups", "ls", par)


def test_apartment_tuple_e1_class():
    """The interval apartment maps to the difference of its endpoints."""
    l = coll_mod.closure_by_hyperplanes(E1, [(0, 1), (-1, 1)])
    st = grp.STModel(l.members, l.top())
    pts = sorted(l.points(), key=lambda p: p.sort_key())
    cyc = grp.apartment_cycle_tuple(tuple(pts), st)
    classes = cx.HomologyClasses(st.complex, 1)
    free = classes.coords(cyc)
    assert classes.betti == 1 and abs(free[0]) == 1


def test_apartment_simplicial_relation():
    """Alternating sum of the face apartments of a 4-tuple is a boundary."""
    pts_coords = ((0, 0), (1, 0), (0, 1), (2, 3))
    cl, _ = coll_mod.closure_by_points(E2, [geo.point_subspace(E2, p) for p in pts_coords])
    st = grp.STModel(cl.members, cl.top())
    pts = sorted(cl.points(), key=lambda p: p.sort_key())
    classes = cx.HomologyClasses(st.complex, 2)
    total = [0] * st.complex.dim(2)
    for i in range(4):
        face = tuple(pts[j] for j in range(4) if j != i)
        cyc = grp.apartment_cycle_tuple(face, st)
        sgn = (-1) ** i
        total = [a + sgn * b for a, b in zip(total, cyc)]
    assert not any(classes.coords(total))


def test_apartment_degenerate_vanishing():
    """Apartments of tuples inside a proper member are boundaries."""
    pts_coords = ((0, 0), (1, 0), (2, 0), (0, 1))  # first three collinear
    cl, generating = coll_mod.closure_by_points(
        E2, [geo.point_subspace(E2, p) for p in pts_coords]
    )
    assert generating
    st = grp.STModel(cl.members, cl.top())
    pts = sorted(cl.points(), key=lambda p: p.sort_key())
    collinear = tuple(p for p in pts if p.carrier.basis[0][2] == 0)
    assert len(collinear) == 3
    cyc = grp.apartment_cycle_tuple(collinear, st)
    classes = cx.HomologyClasses(st.complex, 2)
    assert not any(classes.coords(cyc))


def test_polytope_apartment_matches_tuple(triangle):
    """The polytope apartment of a simplex equals the tuple apartment of
    its vertices times their orientation sign."""
    poset = arr.build_arrangement(triangle)
    basis = arr.region_basis(poset)
    st = grp.STModel(triangle.members, triangle.top())
    p = region_polytope(poset, basis[0])
    cyc_poly = apartment_cycle_polytope(p, triangle, st)
    verts = tuple(sorted(triangle.points(), key=lambda m: m.sort_key()))
    chart = [tuple(Fr(x, b[0]) for x in b[1:]) for b in (v.carrier.basis[0] for v in verts)]
    sign = reference_det_sign([(1,) + p for p in chart])
    assert sign != 0
    cyc_tup = grp.apartment_cycle_tuple(verts, st)
    assert cyc_poly == tuple(sign * x for x in cyc_tup)


def test_cell_apartment_matches_polytope(triangle):
    poset = arr.build_arrangement(triangle)
    basis = arr.region_basis(poset)
    st = grp.STModel(triangle.members, triangle.top())
    p = region_polytope(poset, basis[0])
    a = apartment_cycle_polytope(p, triangle, st)
    b = grp.apartment_cycle_cell(poset, basis[0], st)
    assert a == b


def test_polytope_apartment_subdivision_additive(four_lines):
    """apt(P) = sum of apt(P_i) in homology when an L-line cuts P."""
    poset = arr.build_arrangement(four_lines)
    basis = arr.region_basis(poset)
    st = grp.STModel(four_lines.members, four_lines.top())
    classes = cx.HomologyClasses(st.complex, 2)
    # the big triangle is a convex L-polytope cut by the fourth line
    p = reference_polytope(E2, [geo.HalfSpace(c) for c in TRIANGLE_COVS])
    vec = arr.polytope_to_vector(p.facet_halfspaces(), basis, poset)
    covered = [basis[i] for i, c in enumerate(vec) if c]
    assert len(covered) == 2
    apt_p = apartment_cycle_polytope(p, four_lines, st)
    f_p = classes.coords(apt_p)
    acc = None
    for sign in covered:
        f = classes.coords(grp.apartment_cycle_cell(poset, sign, st))
        acc = f if acc is None else tuple(a + b for a, b in zip(acc, f))
    assert f_p == acc


def test_spherical_apartment_additivity(coord_s2):
    """Octant subdivided by a fourth admissibility-compatible plane:
    apartment classes add in homology.  The octant is no region of the
    cup, so its apartment comes from the polytope-keyed oracle; the two
    pieces are regions, built by the program."""
    extra = (1, -1, 0)
    var = coll_mod.variants(coord_s2, extra)
    cup = var.cup
    poset = arr.build_arrangement(cup)
    tri = cx.sphere_triangulation(cup, poset)
    bic = cx.pt_bicomplex(cup, tri)
    classes = cx.HomologyClasses(bic, 2)
    octant = reference_polytope(
        geo.Geometry("S", 2), [geo.HalfSpace(c) for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    )
    pieces = subdivide(octant, [extra])
    assert len(pieces) == 2
    f_total = classes.coords(apartment_cycle_pt_polytope(octant, cup, tri, bic))
    acc = None
    for piece in pieces:
        (sign,) = cells_in_polytope(poset, piece, dims={2})
        f = classes.coords(grp.apartment_cycle_pt_spherical(sign, cup, tri, bic))
        acc = f if acc is None else tuple(a + b for a, b in zip(acc, f))
    assert f_total == acc


@pytest.mark.parametrize("flavor", ["cell", "pt"])
def test_apartment_matrix_refuses_a_non_cycle(flavor, triangle, coord_s2):
    """``apartment_matrix`` certifies the chains it is given: a region
    apartment with one entry's sign flipped raises ValueError."""
    coll = triangle if flavor == "cell" else coord_s2
    poset = arr.build_arrangement(coll)
    sign = arr.region_basis(poset)[0]
    if flavor == "cell":
        st = grp.STModel(coll.members, coll.top())
        complex_, apt = st.complex, grp.apartment_cycle_cell(poset, sign, st)
    else:
        tri = cx.sphere_triangulation(coll, poset)
        complex_ = cx.pt_bicomplex(coll, tri)
        apt = grp.apartment_cycle_pt_spherical(sign, coll, tri, complex_)
    assert grp.apartment_matrix(complex_, 2, [apt]).matrix.cols == 1
    j = next(i for i, v in enumerate(apt) if v)
    flipped = apt[:j] + (-apt[j],) + apt[j + 1:]
    with pytest.raises(ValueError, match="not a cycle"):
        grp.apartment_matrix(complex_, 2, [flipped])


def test_dashed_map_refuses_a_lift_that_is_not_a_cycle(monkeypatch):
    """The lifted apartment of ``verify exact-seq`` never reaches
    ``coords``, so its own cycle check raises on one flipped entry."""
    build = grp.apartment_cycle_cell

    def flip_lift(poset, sign, st_model):
        apt = build(poset, sign, st_model)
        if poset.cells[sign].dim < poset.geometry.n:  # the facet's apartment, left as built
            return apt
        j = next(i for i, v in enumerate(apt) if v)
        return apt[:j] + (-apt[j],) + apt[j + 1:]

    scene = Scene(json.loads((corpus_dir() / "e2_four_lines.json").read_text()))
    assert run_command("verify", "exact-seq", scene)[1] == "PASS"
    monkeypatch.setattr(grp, "apartment_cycle_cell", flip_lift)
    with pytest.raises(AssertionError, match="lifted apartment .* is not a cycle"):
        run_command("verify", "exact-seq", scene)


def test_apartment_matrices_iso_corpus(triangle, four_lines, coord_s2, coord_s1, h2_triangle):
    # Euclidean polytope flavor
    for coll in (triangle, four_lines):
        poset = arr.build_arrangement(coll)
        basis = arr.region_basis(poset)
        st = grp.STModel(coll.members, coll.top())
        assert cell_apartments(poset, basis, st).iso
    # spherical flavor
    for coll in (coord_s1, coord_s2):
        poset = arr.build_arrangement(coll)
        tri = cx.sphere_triangulation(coll, poset)
        bic = cx.pt_bicomplex(coll, tri)
        assert pt_apartments(coll, arr.region_basis(poset), tri, bic).iso
    # hyperbolic both-generated
    poset = arr.build_arrangement(h2_triangle)
    st = grp.STModel(h2_triangle.members, h2_triangle.top())
    assert cell_apartments(poset, arr.region_basis(poset), st).iso


def test_pt_to_ls_triangle(triangle):
    rep = grp.verify_pt_ls(triangle)
    assert rep["verdict"] == "PASS" and rep["isomorphism"]


def test_pt_to_ls_h2(h2_triangle):
    rep = grp.verify_pt_ls(h2_triangle)
    assert rep["verdict"] == "PASS" and rep["isomorphism"]


def test_pt_to_ls_quadrilateral_subdivision_invariance():
    """The unit square cut by both diagonals: the images of its four
    triangle regions add up to the square's placing-triangulated Ls
    element, and so do its two halves along one diagonal."""
    covs = [
        (0, 1, 0),
        (0, 0, 1),
        (1, -1, 0),
        (1, 0, -1),
        (0, 1, -1),
        (1, -1, -1),
    ]  # unit square, both diagonals
    coll = coll_mod.closure_by_hyperplanes(E2, covs)
    assert coll_mod.generated_by_both(coll)
    poset = arr.build_arrangement(coll)
    ls_data = grp.ls_group(coll)
    rel = ls_data[0].relation_lattice_matrix()
    square = reference_polytope(
        E2, [geo.HalfSpace(c) for c in covs[:4]]
    )
    tri1 = reference_polytope(
        E2, [geo.HalfSpace(c) for c in covs[:4]] + [geo.HalfSpace((0, 1, -1))]
    )
    tri2 = reference_polytope(
        E2, [geo.HalfSpace(c) for c in covs[:4]] + [geo.HalfSpace((0, 1, -1), sense=-1)]
    )
    v_sq = reference_pt_to_ls_element(square.vertices, coll, ls_data)
    v_1 = reference_pt_to_ls_element(tri1.vertices, coll, ls_data)
    v_2 = reference_pt_to_ls_element(tri2.vertices, coll, ls_data)
    diff = [a - b - c for a, b, c in zip(v_sq, v_1, v_2)]
    assert lattice_contains(rel, [diff])  # equal in Ls
    regions = cells_in_polytope(poset, square, dims={2})
    assert len(regions) == 4
    images = [grp.pt_to_ls_element(poset, s, ls_data) for s in regions]
    diff = [a - sum(col) for a, col in zip(v_sq, zip(*images))]
    assert any(v_sq) and lattice_contains(rel, [diff])


def test_pt_to_ls_spherical_kernel(coord_s2):
    rep = grp.verify_pt_ls(coord_s2)
    assert rep["verdict"] == "PASS"
    assert rep["surjective"] and rep["kernel_rank"] == 7
    assert rep["kernel_equals_join_lattice"]


def test_pt_ls_kernel_rank_counts_independent_columns():
    """Four lines of S^1 give Ls dependent relations, so the kernel
    lattice, read off a kernel basis of [M | -R] by dropping the
    relation coordinates, has 6 columns of rank 5 (one repeats); the
    report gives the rank."""
    coll = coll_mod.closure_by_hyperplanes(geo.Geometry("S", 1), [(1, 0), (0, 1), (1, 1), (1, -1)])
    assert coll_mod.generated_by_both(coll)
    poset = arr.build_arrangement(coll)
    basis = arr.region_basis(poset)
    hom, _ = grp.pt_to_ls_hom(coll, poset, basis)
    assert len(hom.kernel_lattice()) == 6
    rep = grp.verify_pt_ls(coll, poset, basis)
    assert rep["verdict"] == "PASS" and rep["kernel_rank"] == 5


def test_antipodal_invariance(coord_s2):
    """Reflecting one vertex of a spherical simplex flips the sign of its
    Ls image: the sum lies in the relation lattice (the join relation)."""
    poset = arr.build_arrangement(coord_s2)
    ls_data = grp.ls_group(coord_s2)
    s2 = geo.Geometry("S", 2)
    simplex = reference_polytope(
        s2, [geo.HalfSpace(c) for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    )
    reflected = reference_polytope(
        s2, [geo.HalfSpace((1, 0, 0), sense=-1), geo.HalfSpace((0, 1, 0)), geo.HalfSpace((0, 0, 1))]
    )
    (r1,) = cells_in_polytope(poset, simplex, dims={2})
    (r2,) = cells_in_polytope(poset, reflected, dims={2})
    v1 = grp.pt_to_ls_element(poset, r1, ls_data)
    v2 = grp.pt_to_ls_element(poset, r2, ls_data)
    assert any(v1)
    total = [a + b for a, b in zip(v1, v2)]
    rel = ls_data[0].relation_lattice_matrix()
    assert lattice_contains(rel, [total])
    # i.e. [x0...] and [-x0...] represent opposite Ls classes


def test_exact_sequence_corpus(triangle, four_lines, coord_s2):
    cases = [
        (triangle, (2, -5, -1), None),
        (triangle, (5, -1, -1), None),
        (four_lines, (1, -3, 1), None),
        (coord_s2, (1, 2, 3), None),
    ]
    for coll, u, window in cases:
        rep = grp.exact_sequence_check(coll, u, window=window)
        assert rep["verdict"] == "PASS", rep
        assert rep["injective"] and rep["facet_surjective"]
        assert rep["kernel_equals_image"] and rep["rank_additive"]


def test_image_is_kernel_matches_lattice_equality():
    """Where fac @ inc = 0, the image of inc is the kernel of fac exactly
    when the kernel basis and inc's columns span equal lattices; inc
    ranges over kernel bases times random small matrices, and [2] against
    [0] is zero but not saturated."""
    rng = random.Random(21)
    cases = [(IntMatrix.from_columns(1, [[2]]), IntMatrix.from_columns(1, [[0]]))]
    for _ in range(200):
        rows, m = rng.randint(0, 3), rng.randint(0, 4)
        fac = IntMatrix.from_columns(
            rows, [[rng.randint(-2, 2) for _ in range(rows)] for _ in range(m)])
        kernel = kernel_basis(fac)
        cols = []
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.8:
                coeffs = [rng.choice((-1, 0, 1, 1, 2)) for _ in kernel]
                cols.append([sum(c * v[i] for c, v in zip(coeffs, kernel)) for i in range(m)])
            else:
                cols.append([rng.randint(-2, 2) for _ in range(m)])
        cases.append((IntMatrix.from_columns(m, cols), fac))
    seen = set()
    for inc, fac in cases:
        want = lattices_equal(kernel_basis(fac), dense_columns(inc), fac.cols)
        composite_zero = fac.product_is_zero(inc)
        assert (composite_zero and grp._image_is_kernel(inc, fac)) == want
        seen.add((composite_zero, want))
    assert seen == {(False, False), (True, False), (True, True)}


def test_exact_sequence_u_in_l(triangle):
    with pytest.raises(HypothesesError, match="already belongs"):
        grp.exact_sequence_hypotheses(triangle, (0, 1, 0))


def test_exact_sequence_hyperbolic_window(h2_triangle):
    a = arr.polytope_from_halfspaces(
        H2, [geo.HalfSpace(c) for c in h2_triangle.hyperplane_covectors]
    )
    grp.exact_sequence_hypotheses(h2_triangle, (3, 0, -8), window=a)
    rep = grp.exact_sequence_check(h2_triangle, (3, 0, -8), window=a)
    assert rep["verdict"] == "PASS"
    with pytest.raises(HypothesesError, match="needs a window"):
        grp.exact_sequence_hypotheses(h2_triangle, (3, 0, -8))


def test_exact_sequence_nonadmissible_euclidean():
    par = coll_mod.closure_by_hyperplanes(E2, [(0, 0, 1), (-1, 0, 1)])
    with pytest.raises(HypothesesError, match="not admissible"):
        grp.exact_sequence_hypotheses(par, (0, 1, 0))


def test_duality(coord_s2, coord_s1):
    rep = grp.duality_check(coord_s2)
    assert rep["verdict"] == "PASS"
    assert rep["st_rank"] == rep["ls_dual_rank"] == 1
    rep1 = grp.duality_check(coord_s1)
    assert rep1["verdict"] == "PASS"
    generic = coll_mod.closure_by_hyperplanes(S2, [(1, 0, 0), (0, 1, 0), (1, 2, 3)])
    rep2 = grp.duality_check(generic)
    assert rep2["verdict"] == "PASS"
    shared = coll_mod.closure_by_hyperplanes(S2, [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(HypothesesError, match="collection not admissible"):
        grp.duality_check(shared)


def test_suspension(coord_s2):
    for covs, want in (
        ([(1, 0, 0)], 2),
        ([(1, 0, 0), (0, 1, 0)], 4),
        ([(1, 0, 0), (0, 1, 0), (1, -1, 0)], 6),
    ):
        coll = coll_mod.closure_by_hyperplanes(S2, covs)
        rep = grp.suspension_check(coll)
        assert rep["verdict"] == "PASS", rep
        assert rep["pt_rank"] == want and rep["reduced_homology_rank"] == want
        assert rep["region_bijection"]
    with pytest.raises(HypothesesError, match="suspension reduction does not apply"):
        grp.suspension_check(coord_s2)


def test_pt_to_ls_spherical_s1(coord_s1):
    """n=1 spherical comparison: Pt = Z^4 onto Ls = Z with the kernel
    generated by half-circle joins."""
    rep = grp.verify_pt_ls(coord_s1)
    assert rep["verdict"] == "PASS"
    assert rep["surjective"] and rep["kernel_rank"] == 3
    assert rep["kernel_equals_join_lattice"]
