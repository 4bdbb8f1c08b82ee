import json
import pathlib

import pytest

from geotits import arrangement as arr
from geotits import cli
from geotits import collection as coll_mod
from geotits import complexes as cx
from geotits import geometry as geo
from geotits import resolution as reso
from geotits._kernel import IntMatrix
from conftest import E1, E2, S0, S1, S2, collapse_chain_map, reference_sphere_simplices


def test_order_complex_triangle(triangle):
    t = cx.order_complex(triangle.members)
    assert t.dim(0) == 6 and t.dim(1) == 6  # incidence hexagon
    h = cx.homology(t)
    assert h.betti(1) == 1 and h.betti(0) == 0


def test_order_complex_top_only():
    only = [geo.top_subspace(E2)]
    t = cx.order_complex(only)
    h = cx.homology(t)
    assert h.betti(-1) == 1  # empty complex, reduced convention


def test_order_complex_contractible(concurrent_e2):
    h = cx.homology(cx.order_complex(concurrent_e2.members))
    assert not h.nonzero_degrees()


def test_relative_st_triangle(triangle):
    st = cx.relative_st_complex(list(triangle.members), triangle.top())
    assert st.dim(0) + st.dim(1) + st.dim(2) == 13
    h = cx.homology(st)
    assert h.nonzero_degrees() == [2] and h.betti(2) == 1
    assert cx.wedge_verdict(h, 2)


def test_relative_st_e1_wedge_of_circles():
    l = coll_mod.closure_by_hyperplanes(E1, [(0, 1), (-1, 1), (-3, 1), (-7, 1)])
    h = cx.homology(cx.relative_st_complex(list(l.members), l.top()))
    assert h.betti(1) == 3 and h.nonzero_degrees() == [1]


def test_relative_st_concurrent_vanishes(concurrent_e2):
    h = cx.homology(
        cx.relative_st_complex(list(concurrent_e2.members), concurrent_e2.top())
    )
    assert not h.nonzero_degrees()


def test_suspension_identity(triangle, four_lines, concurrent_e2, h2_triangle):
    """H_p(relative ST) = reduced H_{p-1}(T) for E/H collections."""
    for coll in (triangle, four_lines, concurrent_e2, h2_triangle):
        ht = cx.homology(cx.order_complex(coll.members))
        hst = cx.homology(cx.relative_st_complex(list(coll.members), coll.top()))
        for d in range(-1, 4):
            assert hst.betti(d + 1) == ht.betti(d)
            assert hst.torsion(d + 1) == ht.torsion(d)


def test_st_concentration_theorems(triangle, four_lines):
    """Admissible Euclidean: homology concentrated in degree n and free."""
    for coll in (triangle, four_lines):
        h = cx.homology(cx.relative_st_complex(list(coll.members), coll.top()))
        assert cx.wedge_verdict(h, coll.geometry.n)


def test_tpl_complex_values():
    l = coll_mod.closure_by_hyperplanes(E1, [(0, 1), (-1, 1), (-3, 1)])
    c, pts = cx.tpl_complex(list(l.points()), E1)
    h = cx.homology(c)
    assert h.betti(1) == 2
    cl, _ = coll_mod.closure_by_points(
        E2, [geo.point_subspace(E2, p) for p in ((0, 0), (1, 0), (0, 1))]
    )
    c2, _ = cx.tpl_complex(list(cl.points()), E2)
    h2 = cx.homology(c2)
    assert h2.betti(2) == 1 and not h2.torsion(2)
    # spherical: three coordinate axes as antipodal pairs
    axes = [
        geo.GeoSubspace(S2, geo.subspace_from_vectors(3, [v]))
        for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    ]
    c3, _ = cx.tpl_complex(axes, S2)
    h3 = cx.homology(c3)
    assert h3.betti(2) == 1


def test_tpl_rank_matches_st_rank():
    """For points-generated collections the Tpl top homology is free of the
    same rank as the relative ST homology."""
    pts = [geo.point_subspace(E2, p) for p in ((0, 0), (1, 0), (0, 1), (2, 3))]
    cl, generating = coll_mod.closure_by_points(E2, pts)
    assert generating
    ctpl, _ = cx.tpl_complex(list(cl.points()), E2)
    htpl = cx.homology(ctpl)
    hst = cx.homology(cx.relative_st_complex(list(cl.members), cl.top()))
    assert htpl.betti(2) == hst.betti(2) == 3
    assert not htpl.torsion(2)


def test_sphere_triangulation_s1(coord_s1):
    tri = cx.sphere_triangulation(coord_s1)
    assert tri.complex.dim(0) == 8 and tri.complex.dim(1) == 8
    h = cx.homology(tri.complex)
    assert h.betti(0) == 1 and h.betti(1) == 1


def test_sphere_triangulation_s2(coord_s2):
    tri = cx.sphere_triangulation(coord_s2)
    assert tri.complex.dim(0) == 26
    h = cx.homology(tri.complex)
    assert h.betti(0) == 1 and h.betti(1) == 0 and h.betti(2) == 1
    # subcomplex of the z-axis flat: two antipodal vertices
    axis = geo.subspace_from_vectors(3, [(0, 0, 1)])
    labs = [tri.simplices[0][s] for s in tri.positions_in_carrier(axis)[0]]
    assert len(labs) == 2
    assert 1 not in tri.positions_in_carrier(axis)


S3_FOUR_GENERIC = pathlib.Path(__file__).resolve().parent / "scenes" / "s3_four_generic.json"
SPHERE_SCENE_PATHS = sorted(cli.corpus_dir().glob("s*.json")) + [S3_FOUR_GENERIC]


@pytest.mark.parametrize("path", SPHERE_SCENE_PATHS, ids=lambda p: p.stem)
def test_sphere_simplices_match_all_pairs_chains(path):
    """The cells above each cell, found from sign vectors by zero set,
    give the simplices that all-pairs closure tests give."""
    coll, _ = cli.Scene(json.loads(path.read_text())).collection()
    poset = arr.build_arrangement(coll)
    assert cx.SphereTriangulation(poset).simplices == reference_sphere_simplices(poset)


def test_sphere_triangulation_needs_admissible():
    shared = coll_mod.closure_by_hyperplanes(S2, [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(AssertionError):
        cx.sphere_triangulation(shared)


def test_pt_bicomplex_values(coord_s1, coord_s2):
    tri1 = cx.sphere_triangulation(coord_s1)
    h1 = cx.homology(cx.pt_bicomplex(coord_s1, tri1))
    assert h1.nonzero_degrees() == [1] and h1.betti(1) == 4
    tri2 = cx.sphere_triangulation(coord_s2)
    h2 = cx.homology(cx.pt_bicomplex(coord_s2, tri2))
    assert h2.nonzero_degrees() == [2] and h2.betti(2) == 8


def test_pt_bicomplex_s0():
    l = coll_mod.closure_by_hyperplanes(S0, [(1,)])
    tri = cx.sphere_triangulation(l)
    h = cx.homology(cx.pt_bicomplex(l, tri))
    assert h.nonzero_degrees() == [0] and h.betti(0) == 2


def test_collapse_crosscheck_agreement(coord_s1, coord_s2):
    generic = coll_mod.closure_by_hyperplanes(S2, [(1, 0, 0), (0, 1, 0), (1, 2, 3)])
    for coll in (coord_s1, coord_s2, generic):
        tri = cx.sphere_triangulation(coll)
        hb = cx.homology(cx.pt_bicomplex(coll, tri))
        hc = cx.homology(cx.pt_collapse_complex(coll, tri))
        assert hb == hc
        collapse_chain_map(cx.pt_bicomplex(coll, tri), cx.pt_collapse_complex(coll, tri))


def test_local_complex(h2_triangle):
    a = arr.polytope_from_halfspaces(
        geo.Geometry("H", 2), [geo.HalfSpace(c) for c in h2_triangle.hyperplane_covectors]
    )
    members = coll_mod.restrict(h2_triangle, a)
    h = cx.homology(cx.relative_st_complex(list(members), h2_triangle.top()))
    assert h.betti(2) == 1 and h.nonzero_degrees() == [2]


def test_homology_simple_complexes():
    # hollow triangle: H0 = Z, H1 = Z (unreduced via explicit complex)
    degrees = {0: [(0,), (1,), (2,)], 1: [(0, 1), (0, 2), (1, 2)]}
    boundaries = {
        0: IntMatrix(0, 3),
        1: IntMatrix(
            3,
            3,
            {
                (0, 0): -1,
                (1, 0): 1,
                (0, 1): -1,
                (2, 1): 1,
                (1, 2): -1,
                (2, 2): 1,
            },
        ),
    }
    c = cx.ChainComplex(degrees, boundaries)
    h = cx.homology(c)
    assert h.betti(0) == 1 and h.betti(1) == 1
    # solid triangle kills H1
    degrees2 = dict(degrees)
    degrees2[2] = [(0, 1, 2)]
    boundaries2 = dict(boundaries)
    boundaries2[2] = IntMatrix(3, 1, {(0, 0): 1, (1, 0): -1, (2, 0): 1})
    h2 = cx.homology(cx.ChainComplex(degrees2, boundaries2))
    assert h2.betti(0) == 1 and h2.betti(1) == 0 and h2.betti(2) == 0


def test_wedge_verdict():
    free8 = cx.HomologySummary({2: (8, ())})
    assert cx.wedge_verdict(free8, 2)
    mixed = cx.HomologySummary({1: (1, ()), 2: (1, ())})
    assert not cx.wedge_verdict(mixed, 2)
    torsion = cx.HomologySummary({2: (1, (2,))})
    assert not cx.wedge_verdict(torsion, 2)
    empty = cx.HomologySummary({})
    assert cx.wedge_verdict(empty, 2)


def test_boundary_squared_guard():
    degrees = {0: [(0,), (1,)], 1: [(0, 1)], 2: [(0, 1, 2)]}
    bad = {
        0: IntMatrix(0, 2),
        1: IntMatrix(2, 1, {(0, 0): -1, (1, 0): 1}),
        2: IntMatrix(1, 1, {(0, 0): 1}),
    }
    with pytest.raises(AssertionError):
        cx.ChainComplex(degrees, bad)
    # two parallel edges e, f; d d vanishes on e - f and not on e + f,
    # which comes last
    degrees = {0: [(0,), (1,)], 1: [(0, 1), (0, 2)], 2: [(0,), (1,), (2,)]}
    d1 = IntMatrix(2, 2, {(0, 0): -1, (1, 0): 1, (0, 1): -1, (1, 1): 1})
    cycles = {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1}
    good = {0: IntMatrix(0, 2), 1: d1, 2: IntMatrix(2, 3, {**cycles, (0, 2): 1, (1, 2): -1})}
    cx.ChainComplex(degrees, good)
    bad = {0: IntMatrix(0, 2), 1: d1, 2: IntMatrix(2, 3, {**cycles, (0, 2): 1, (1, 2): 1})}
    with pytest.raises(AssertionError):
        cx.ChainComplex(degrees, bad)


def _one_sign_flipped(complex_, d, j):
    """The boundaries of ``complex_`` with one entry of column j of d_d
    negated, at a row whose own boundary is nonzero, so that
    d_(d-1) d_d no longer vanishes."""
    b = complex_.boundary(d)
    below = complex_.boundary(d - 1).col_dicts
    cols = list(b.col_dicts)
    col = dict(cols[j])
    r = next(r for r in sorted(col) if below[r])
    col[r] = -col[r]
    cols[j] = col
    return {**complex_.boundaries, d: IntMatrix.from_col_dicts(b.rows, cols)}


def test_boundary_squared_guard_at_workload_size():
    """One flipped sign anywhere in a workload-size boundary fails the
    check: the resolution on 6 basis regions (d_4 is 2100 x 3360) and
    the top boundary of the generic S^3 scene's pt bicomplex."""
    resolution_cx, _, _ = reso.build_resolution(6)
    d4 = resolution_cx.boundary(4)
    for j in (0, d4.cols // 2, d4.cols - 1):
        with pytest.raises(AssertionError, match="boundary squared nonzero at degree 4"):
            cx.ChainComplex(resolution_cx.degrees, _one_sign_flipped(resolution_cx, 4, j))
    coll, _ = cli.Scene(json.loads(S3_FOUR_GENERIC.read_text())).collection()
    bic = cx.pt_bicomplex(coll, cx.sphere_triangulation(coll))
    top = max(bic.support())
    for j in (0, bic.dim(top) - 1):
        with pytest.raises(AssertionError, match=f"boundary squared nonzero at degree {top}"):
            cx.ChainComplex(bic.degrees, _one_sign_flipped(bic, top, j))


def test_sphere_no_hyperplanes_polytope_group():
    """With no hyperplanes at all the sphere itself is the only region."""
    coll = coll_mod.Collection(S1, [geo.top_subspace(S1)])
    poset = arr.build_arrangement(coll)
    assert len(arr.region_basis(poset)) == 1


def test_index_is_built_once_per_degree():
    """``index(d)`` maps each label of degree d to its position, in any
    order of calls, and is the same dict on every call."""
    cpx = cx.face_complex({0: [(0,), (1,), (2,)], 1: [(0, 1), (0, 2), (1, 2)]})
    for d in (1, 0, 1, 0, 3):
        assert cpx.index(d) == {lab: i for i, lab in enumerate(cpx.degrees.get(d, ()))}
    assert cpx.index(1) is cpx.index(1)


def test_absent_boundary_is_built_once_per_degree(coord_s2):
    """A degree without a stored boundary gets one zero matrix of the
    right shape, the same on every call and kept out of ``boundaries``,
    which complexes may share; the triangulation stores no d_0."""
    cpx = cx.ChainComplex({0: [(0,), (1,)]}, {})
    for d in (0, 1, 0):
        b = cpx.boundary(d)
        assert (b.rows, b.cols, b.entries) == (cpx.dim(d - 1), cpx.dim(d), {})
    assert cpx.boundary(0) is cpx.boundary(0) and cpx.boundary(5) is cpx.boundary(5)
    assert cpx.boundaries == {}
    tri = cx.sphere_triangulation(coord_s2)
    assert 0 not in tri.complex.boundaries
    assert tri.complex.boundary(0).cols == len(tri.simplices[0])
