import json
import pathlib
import random

import pytest

from geotits import arrangement as arr
from geotits import cli
from geotits import collection as coll_mod
from geotits import complexes as cx
from geotits import geometry as geo
from geotits import resolution as reso
from geotits._kernel import IntMatrix
from conftest import (E1, E2, E3, H2, H3, S0, S1, S2, boundary_squares_to_zero,
                      collapse_chain_map, distinct_hyperplanes, reference_sphere_simplices,
                      src_calls)


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
    st = cx.STModel(triangle.members, triangle.top()).complex
    assert st.dim(0) + st.dim(1) + st.dim(2) == 13
    h = cx.homology(st)
    assert h.nonzero_degrees() == [2] and h.betti(2) == 1
    assert cx.wedge_verdict(h, 2)


def test_relative_st_e1_wedge_of_circles():
    l = coll_mod.closure_by_hyperplanes(E1, [(0, 1), (-1, 1), (-3, 1), (-7, 1)])
    h = cx.homology(cx.STModel(l.members, l.top()).complex)
    assert h.betti(1) == 3 and h.nonzero_degrees() == [1]


def test_relative_st_concurrent_vanishes(concurrent_e2):
    h = cx.homology(
        cx.STModel(concurrent_e2.members, concurrent_e2.top()).complex
    )
    assert not h.nonzero_degrees()


E3_EIGHT_GENERIC = pathlib.Path(__file__).resolve().parent / "scenes" / "e3_eight_generic.json"


def test_order_builds_test_each_pair_of_dimensions_once(monkeypatch):
    """T and ST test containment once per pair of proper members of
    distinct dimension (sort keys lead with the dimension), and ST once
    more per member against its top: 2,240 + 92 on the generic E^3
    scene, where all ordered pairs would be 92 * 91 = 8,372."""
    scene = cli.Scene(json.loads(E3_EIGHT_GENERIC.read_text()))
    coll = scene.collection()[0]
    proper = [m for m in coll.members if not m.is_top()]
    pairs = sum(a.geo_dim != b.geo_dim for i, a in enumerate(proper) for b in proper[i + 1:])
    assert (len(proper), pairs) == (92, 2240)
    calls = []
    real = geo.LinearSubspace.contains

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(geo.LinearSubspace, "contains", counting)
    cx.order_complex(coll.members)
    assert len(calls) == pairs
    calls.clear()
    cx.STModel(coll.members, coll.top()).complex
    assert len(calls) == pairs + len(proper)


def test_suspension_identity(triangle, four_lines, concurrent_e2, h2_triangle):
    """H_p(relative ST) = reduced H_{p-1}(T) for E/H collections."""
    for coll in (triangle, four_lines, concurrent_e2, h2_triangle):
        ht = cx.homology(cx.order_complex(coll.members))
        hst = cx.homology(cx.STModel(coll.members, coll.top()).complex)
        for d in range(-1, 4):
            assert hst.betti(d + 1) == ht.betti(d)
            assert hst.torsion(d + 1) == ht.torsion(d)


def test_st_concentration_theorems(triangle, four_lines):
    """Admissible Euclidean: homology concentrated in degree n and free."""
    for coll in (triangle, four_lines):
        h = cx.homology(cx.STModel(coll.members, coll.top()).complex)
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
    hst = cx.homology(cx.STModel(cl.members, cl.top()).complex)
    assert htpl.betti(2) == hst.betti(2) == 3
    assert not htpl.torsion(2)


def test_sphere_triangulation_s1(coord_s1):
    tri = cx.sphere_triangulation(coord_s1, arr.build_arrangement(coord_s1))
    assert tri.complex.dim(0) == 8 and tri.complex.dim(1) == 8
    h = cx.homology(tri.complex)
    assert h.betti(0) == 1 and h.betti(1) == 1


def test_sphere_triangulation_s2(coord_s2):
    tri = cx.sphere_triangulation(coord_s2, arr.build_arrangement(coord_s2))
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
        cx.sphere_triangulation(shared, arr.build_arrangement(shared))


def test_pt_bicomplex_values(coord_s1, coord_s2):
    tri1 = cx.sphere_triangulation(coord_s1, arr.build_arrangement(coord_s1))
    h1 = cx.homology(cx.pt_bicomplex(coord_s1, tri1))
    assert h1.nonzero_degrees() == [1] and h1.betti(1) == 4
    tri2 = cx.sphere_triangulation(coord_s2, arr.build_arrangement(coord_s2))
    h2 = cx.homology(cx.pt_bicomplex(coord_s2, tri2))
    assert h2.nonzero_degrees() == [2] and h2.betti(2) == 8


def test_pt_bicomplex_s0():
    l = coll_mod.closure_by_hyperplanes(S0, [(1,)])
    tri = cx.sphere_triangulation(l, arr.build_arrangement(l))
    h = cx.homology(cx.pt_bicomplex(l, tri))
    assert h.nonzero_degrees() == [0] and h.betti(0) == 2


def test_collapse_crosscheck_agreement(coord_s1, coord_s2):
    generic = coll_mod.closure_by_hyperplanes(S2, [(1, 0, 0), (0, 1, 0), (1, 2, 3)])
    for coll in (coord_s1, coord_s2, generic):
        tri = cx.sphere_triangulation(coll, arr.build_arrangement(coll))
        hb = cx.homology(cx.pt_bicomplex(coll, tri))
        hc = cx.homology(cx.pt_collapse_complex(coll, tri))
        assert hb == hc
        collapse_chain_map(cx.pt_bicomplex(coll, tri), cx.pt_collapse_complex(coll, tri))


def test_local_complex(h2_triangle):
    a = arr.polytope_from_halfspaces(
        geo.Geometry("H", 2), [geo.HalfSpace(c) for c in h2_triangle.hyperplane_covectors]
    )
    members = coll_mod.restrict(h2_triangle, a)
    h = cx.homology(cx.STModel(members, h2_triangle.top()).complex)
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
    bic = cx.pt_bicomplex(coll, cx.sphere_triangulation(coll, arr.build_arrangement(coll)))
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
    tri = cx.sphere_triangulation(coord_s2, arr.build_arrangement(coord_s2))
    assert 0 not in tri.complex.boundaries
    assert tri.complex.boundary(0).cols == len(tri.simplices[0])


# ---------------------------------------------------------------------------
# Complexes built from a face table: d∘d = 0 by the face identities


def _corpus_scene(name):
    return cli.Scene(json.loads((cli.corpus_dir() / f"{name}.json").read_text()))


# name -> a build that hands ``ChainComplex`` one face table
FACE_TABLE_BUILDS = {
    "resolution_4": lambda: reso.build_resolution(4),
    "e3_concurrent_t": lambda: cli.homology_model(_corpus_scene("e3_concurrent"), "t"),
    "h3_two_cubes_st": lambda: cli.homology_model(_corpus_scene("h3_two_cubes"), "st"),
    "s2_coordinate_sphere": lambda: cli.homology_model(_corpus_scene("s2_coordinate"), "pt"),
}


def _face_table(monkeypatch, name):
    """(degrees, faces) that the build ``name`` hands ``ChainComplex``,
    its rows copied so that a test may corrupt them."""
    seen = []
    check = cx.check_face_identities
    monkeypatch.setattr(cx, "check_face_identities",
                        lambda degrees, faces: (seen.append((degrees, faces)), check(degrees, faces)))
    FACE_TABLE_BUILDS[name]()
    monkeypatch.setattr(cx, "check_face_identities", check)
    ((degrees, faces),) = seen
    return degrees, {d: [list(row) for row in rows] for d, rows in faces.items()}


@pytest.mark.parametrize("name", FACE_TABLE_BUILDS)
def test_face_table_refuses_a_row_outside_the_level_below(name, monkeypatch):
    """A face row past the level below is refused, even in a repeated
    face whose signs cancel, which leaves no boundary entry for the
    matrix's own range check to see; so is a negative row, which a
    lookup in the level below would wrap."""
    degrees, faces = _face_table(monkeypatch, name)
    d = max(faces)
    lower = len(degrees[d - 1])
    cx.ChainComplex(degrees, faces=faces)
    for bad in ([lower, lower], [-1]):
        corrupt = {**faces, d: [bad + faces[d][0][len(bad):], *faces[d][1:]]}
        with pytest.raises(ValueError, match=f"face row of degree {d} is outside"):
            cx.ChainComplex(degrees, faces=corrupt)
    # the matrix alone drops the cancelled entry without checking its row
    assert IntMatrix.from_col_dicts(lower, [{lower: 0}]).col_dicts == [{}]
    if name == "resolution_4":  # both faces of a 1-simplex are the empty tuple
        assert faces[1][0] == [0, 0]
        with pytest.raises(ValueError, match="face row of degree 1 is outside"):
            cx.ChainComplex(degrees, faces={**faces, 1: [[1, 1], *faces[1][1:]]})


@pytest.mark.parametrize("name", ["e3_concurrent_t", "h3_two_cubes_st", "s2_coordinate_sphere"])
def test_flag_table_with_one_broken_face_names_its_degree(name, monkeypatch):
    """Face 0 of a top flag (c_0, ..., c_m) set to its last face: then
    d_0 d_m = (c_1, ..., c_(m-1)) and d_(m-1) d_0 = (c_0, ..., c_(m-2))
    differ, at the first, a middle and the last flag."""
    degrees, faces = _face_table(monkeypatch, name)
    d = max(faces)
    assert len(faces[d][0]) >= 3
    for k in (0, len(faces[d]) // 2, len(faces[d]) - 1):
        rows = [list(row) for row in faces[d]]
        rows[k][0] = rows[k][-1]
        with pytest.raises(AssertionError, match=f"fails at degree {d}$"):
            cx.ChainComplex(degrees, faces={**faces, d: rows})


@pytest.mark.parametrize("name", FACE_TABLE_BUILDS)
def test_corrupted_face_table_is_refused_or_squares_to_zero(name, monkeypatch):
    """One face row moved to another simplex of the level below, 60
    seeded times: the table either fails an identity or its boundaries
    pass the product check (``conftest.boundary_squares_to_zero``)."""
    degrees, faces = _face_table(monkeypatch, name)
    rng = random.Random(f"corrupt/{name}")
    spots = [d for d in faces if len(degrees[d - 1]) > 1]
    refused = 0
    for _ in range(60):
        d = rng.choice(spots)
        k, i = rng.randrange(len(faces[d])), rng.randrange(len(faces[d][0]))
        rows = [list(row) for row in faces[d]]
        rows[k][i] = rng.choice([r for r in range(len(degrees[d - 1])) if r != rows[k][i]])
        try:
            built = cx.ChainComplex(degrees, faces={**faces, d: rows})
        except AssertionError:
            refused += 1
        else:
            assert boundary_squares_to_zero(built)
    assert refused >= 30


def test_every_face_built_corpus_complex_squares_to_zero(monkeypatch):
    """Every complex the corpus builds from a face table (T, ST, local,
    cup, cap, dual and sphere triangulations, the resolution) passes the
    product check, which the face identities replaced for them."""
    built = []
    init = cx.ChainComplex.__init__

    def recording(self, degrees, boundaries=None, faces=None):
        init(self, degrees, boundaries, faces)
        if faces is not None:
            built.append(self)

    monkeypatch.setattr(cx.ChainComplex, "__init__", recording)
    assert cli.run_corpus()["overall"] == "PASS"
    assert len(built) > 50
    assert all(boundary_squares_to_zero(c) for c in built)


def test_seeded_face_built_complexes_square_to_zero():
    """T, ST and, where admissible, the sphere triangulation of 200
    seeded E/H/S collections with entries in [-2, 2], parallel and
    concurrent hyperplanes common: each passes the identities and the
    product check, and so do the resolutions on up to 6 regions."""
    rng = random.Random("face-identities")
    spheres = 0
    for _ in range(200):
        g = rng.choice([E1, E2, E3, H2, H3, S1, S2, geo.Geometry("S", 3)])
        coll = coll_mod.closure_by_hyperplanes(
            g, distinct_hyperplanes(rng, g, rng.randint(1, 6 if g.n < 3 else 4)))
        complexes = [cx.order_complex(coll.members), cx.STModel(coll.members, coll.top()).complex]
        if g.kind == "S" and coll_mod.admissible(coll) == coll_mod.ADMISSIBLE:
            spheres += 1
            complexes.append(cx.sphere_triangulation(coll, arr.build_arrangement(coll)).complex)
        assert all(boundary_squares_to_zero(c) for c in complexes)
    assert spheres > 20
    for size in range(7):
        assert boundary_squares_to_zero(reso.build_resolution(size)[0])


def test_face_built_complexes_form_no_product(coord_s2):
    """The resolution, T, ST and the sphere triangulation run one identity
    check each and form no product d_(d-1) d_d; the pt bicomplex reads only
    its flags' labels, so it builds one matrix per degree of its own and
    none for the flag complex."""
    scene = _corpus_scene("h3_two_cubes")
    coll = scene.collection()[0]
    poset = arr.build_arrangement(coord_s2)
    for build in (lambda: reso.build_resolution(6), lambda: cx.order_complex(coll.members),
                  lambda: cx.STModel(coll.members, coll.top()),
                  lambda: cx.sphere_triangulation(coord_s2, poset)):
        with src_calls() as counts:
            build()
        assert (counts["check_face_identities"], counts["product_is_zero"]) == (1, 0)
    tri = cx.sphere_triangulation(coord_s2, poset)
    with src_calls() as counts:
        bic = cx.pt_bicomplex(coord_s2, tri)
    assert counts["_flag_complex"] == 1 and counts["_alternating_sum"] == 0
    assert counts["from_col_dicts"] == len(bic.boundaries)
    assert counts["product_is_zero"] == len(bic.boundaries) - 1
