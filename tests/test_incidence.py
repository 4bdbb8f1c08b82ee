"""Incidence from sign vectors against the linear-algebra rules it replaced.

The old rules are kept as test-only references: flat containment by
``carrier.contains(cell.flat)``, polytope membership by testing a cell's
witness against every half-space, chart orientation by coordinates in a
direction basis, boundedness by the recession-cone loop, and spherical
face chains and apartments keyed by the faces of each region's polytope
(``conftest.reference_face_chains``, ``apartment_cycle_pt_polytope``),
with coordinates in each face span, a ``Fraction`` determinant and
boundaries through the whole boundary matrix.  Region vertices and the
facets of join cones are checked against the vertex enumeration and
face lattice of ``conftest.reference_polytope``.
"""

import functools
import json
from fractions import Fraction as Fr

import pytest

from geotits import arrangement as arr
from geotits import cli
from geotits import collection as coll_mod
from geotits import complexes as cx
from geotits import exact, geometry as geo
from geotits import groups as grp
from conftest import (
    COORD_S2_COVS,
    S2,
    apartment_cycle_pt_polytope,
    cells_in_polytope,
    face_span,
    reference_det_sign,
    reference_face_chains,
    reference_face_simplices,
    reference_in_polytope,
    reference_polytope,
    region_polytope,
    subdivide,
)

ORACLE_SCENES = ["s2_coordinate", "s2_generic_three", "s3_coordinate", "h3_two_cubes"]
PLANE_SCENES = sorted(
    p.name[:-5] for p in cli.corpus_dir().iterdir() if p.name.startswith(("e2_", "h2_"))
)


def _scene(name):
    return cli.Scene(json.loads((cli.corpus_dir() / f"{name}.json").read_text()))


# ---------------------------------------------------------------------------
# The old rules


def _reference_orientation_chart(carrier, chart_points):
    """Orientation of the point differences in the direction basis."""
    dirs = [b[1:] for b in carrier.basis if b[0] == 0]
    if len(chart_points) != len(dirs) + 1:
        raise ValueError("point count does not match flat dimension")
    if not dirs:
        return 1
    rows = []
    for p in chart_points[1:]:
        sol = exact.solve_affine(list(zip(*dirs)), list(exact.vec_sub(p, chart_points[0])))
        if sol is None:
            return 0
        rows.append(sol[0])
    return reference_det_sign(rows)


def _reference_labels_in_carrier(tri, carrier, m):
    return [lab for lab in tri.simplices.get(m, ()) if carrier.contains(tri.top_cell(lab).flat)]


def _reference_is_bounded(poset, cell):
    """Recession cone of the closure with the flat as equations, then the
    Klein-ball vertex test."""
    g = poset.geometry
    if g.kind == geo.SPHERICAL:
        return True
    nv = g.chart_dim
    rows = [h.chart_row(g)[:nv] + (0,) for h in arr.region_halfspaces(poset, cell.sign_vector)]
    flat_eqs = [
        geo.functional_chart_row(g, cov)[:nv] + (0,)
        for s, cov in zip(cell.sign_vector, poset.covectors)
        if s == 0
    ]
    for i in range(nv):
        for s in (1, -1):
            eq = [0] * (nv + 1)
            eq[i], eq[nv] = s, -1
            if exact.feasible((), rows, flat_eqs + [tuple(eq)], nv) is not None:
                return False
    if g.kind == geo.HYPERBOLIC:
        hs = list(arr.region_halfspaces(poset, cell.sign_vector))
        for s, cov in zip(cell.sign_vector, poset.covectors):
            if s == 0:
                hs += [geo.HalfSpace(cov), geo.HalfSpace(cov, sense=-1)]
        for v in geo._vertex_candidates(tuple(hs), g):
            if sum(Fr(x) * Fr(x) for x in v) >= 1:
                return False
    return True


# ---------------------------------------------------------------------------
# Agreement


def _check_polytope(poset, polytope):
    """Sign rule and witness rule pick the same cells for the polytope;
    returns them."""
    cells = sorted(poset.cells.items())
    want = [s for s, c in cells if reference_in_polytope(poset, c, polytope)]
    assert cells_in_polytope(poset, polytope) == want
    signs = poset.polytope_signs(polytope.facet_halfspaces())
    for s, c in cells:
        assert arr.FacePoset._agrees(s, signs) == (s in want)
    return want


def _face_cell(poset, polytope, face):
    """The one cell of the face's dimension with its witness in the
    polytope and its flat equal to the face's vertex span."""
    span = face_span(polytope, face)
    (sign,) = [
        s for s, c in poset.cells.items()
        if c.dim == face.dim and c.flat == span and reference_in_polytope(poset, c, polytope)
    ]
    return sign


def _check_region_faces(poset, sign, polytope):
    """The region's closure holds the polytope's cells, each face of the
    polytope is the closure of one of them, and the cells below that
    cell are the polytope's cells in the face span."""
    want = _check_polytope(poset, polytope)
    assert set(want) == poset.cells_in(tuple(enumerate(sign)))
    face_cells = set()
    for face in polytope.faces:
        span = face_span(polytope, face)
        c = _face_cell(poset, polytope, face)
        below = {s for s in want if arr.FacePoset.leq(s, c)}
        assert below == {s for s in want if span.contains(poset.cells[s].flat)}, face
        face_cells.add(c)
    assert face_cells == set(want)


@functools.lru_cache(maxsize=None)
def _region_posets(name):
    """The scene's collection with its global arrangement, and with its
    window arrangement when the scene has a window."""
    scene = _scene(name)
    coll, _ = scene.collection()
    posets = [arr.build_arrangement(coll)]
    if scene.polytope_a is not None:
        posets.append(arr.build_arrangement(coll, within=scene.polytope_a))
    return coll, tuple(posets)


@pytest.mark.parametrize("name", ORACLE_SCENES + PLANE_SCENES)
def test_sign_rules_match_linear_algebra(name):
    coll, posets = _region_posets(name)
    for poset in posets:
        for m in coll.members:
            inside = poset.cells_in(poset.flat_signs(m.carrier))
            for s, cell in poset.cells.items():
                assert (s in inside) == m.carrier.contains(cell.flat)
        for cell in poset.cells.values():
            assert arr.region_is_bounded(poset, cell) == _reference_is_bounded(poset, cell)
        for s in arr.region_basis(poset):
            _check_region_faces(poset, s, region_polytope(poset, s))


def _witness_flags(poset, sign):
    """Witnesses of each complete flag of cells below the cell, ending
    with the cell's own witness."""
    cell = poset.cells[sign]
    below = [c for s, c in sorted(poset.cells.items()) if s != sign and arr.FacePoset.leq(s, sign)]
    flags = [()]
    for k in range(cell.dim):
        flags = [
            fl + (c,) for fl in flags for c in below
            if c.dim == k and (not fl or arr.FacePoset.leq(fl[-1].sign_vector, c.sign_vector))
        ]
    return [[c.witness for c in fl] + [cell.witness] for fl in flags]


@pytest.mark.parametrize("name", PLANE_SCENES)
def test_chart_orientation_matches_direction_basis(name):
    _, posets = _region_posets(name)
    signs = set()
    for poset in posets:
        for s, cell in sorted(poset.cells.items()):
            for pts in _witness_flags(poset, s):
                got = grp.flat_orientation_chart(cell.flat, pts)
                assert got == _reference_orientation_chart(cell.flat, pts)
                signs.add(got)
    assert signs == {1, -1}


@pytest.mark.parametrize("name", ["s2_coordinate", "s2_generic_three"])
def test_face_simplices_match_reference(name):
    """A region's face is keyed by its cell, and carries the simplices the
    witness rule finds in the polytope face."""
    coll, (poset,) = _region_posets(name)
    tri = cx.sphere_triangulation(coll, poset)
    for s in arr.region_basis(poset):
        p = region_polytope(poset, s)
        chains = grp._SphericalFaceChains(s, tri)
        for face in p.faces:
            got = list(chains.chains[_face_cell(poset, p, face)])
            assert got == reference_face_simplices(tri, p, face)


def _check_face_chains(tri, sign):
    """Chains and incidence signs of the region's faces, keyed by cell,
    equal the ones of its polytope's faces, keyed by vertex ids."""
    poset = tri.poset
    polytope = region_polytope(poset, sign)
    chains = grp._SphericalFaceChains(sign, tri)
    want_chains, want_eta = reference_face_chains(tri, polytope)
    cell_of = {f.vertex_ids: _face_cell(poset, polytope, f) for f in polytope.faces}
    assert chains.chains == {cell_of[k]: v for k, v in want_chains.items()}
    assert chains.eta == {(cell_of[a], cell_of[b]): v for (a, b), v in want_eta.items()}
    assert {s for chain in want_chains.values() for s in chain.values()} == {1, -1}
    assert set(want_eta.values()) == {1, -1}


@pytest.mark.parametrize("name", ["s2_coordinate", "s2_generic_three", "s3_coordinate"])
def test_face_chains_and_carriers_match_reference(name):
    """Chains, incidence signs and subsphere simplices of every region
    equal the ones built by the old rules, in the same order."""
    coll, (poset,) = _region_posets(name)
    tri = cx.sphere_triangulation(coll, poset)
    for s in arr.region_basis(poset):
        _check_face_chains(tri, s)
    for member in coll.members:
        for m in tri.simplices:
            got = tri.labels_in_carrier(member.carrier, m)
            assert got == _reference_labels_in_carrier(tri, member.carrier, m)


def _octant_cup(coord_s2):
    return coll_mod.variants(coord_s2, (1, -1, 0)).cup


def test_octant_and_pieces_in_the_cup(coord_s2):
    """The octant is an L-polytope of the coordinate planes plus x = y,
    and so are the two pieces that x = y cuts it into; the pieces are
    regions, whose face chains match the polytope-keyed ones."""
    cup = _octant_cup(coord_s2)
    poset = arr.build_arrangement(cup)
    tri = cx.sphere_triangulation(cup, poset)
    octant = reference_polytope(S2, [geo.HalfSpace(c) for c in COORD_S2_COVS])
    pieces = subdivide(octant, [(1, -1, 0)])
    assert len(pieces) == 2
    assert len(_check_polytope(poset, octant)) == 11  # 2 regions, 5 edges, 4 vertices
    for p in pieces:
        (sign,) = cells_in_polytope(poset, p, dims={2})
        _check_region_faces(poset, sign, p)
        _check_face_chains(tri, sign)


@pytest.mark.parametrize("name", ["s2_coordinate", "s2_generic_three", "s3_coordinate", "octant_cup"])
def test_region_apartments_match_polytope_oracle(name, coord_s2):
    """Every region's apartment, read off the face poset, equals the one
    built from the faces of its polytope."""
    if name == "octant_cup":
        coll = _octant_cup(coord_s2)
        poset = arr.build_arrangement(coll)
    else:
        coll, (poset,) = _region_posets(name)
    tri = cx.sphere_triangulation(coll, poset)
    bic = cx.pt_bicomplex(coll, tri)
    for s in arr.region_basis(poset):
        want = apartment_cycle_pt_polytope(region_polytope(poset, s), coll, tri, bic)
        assert grp.apartment_cycle_pt_spherical(s, coll, tri, bic) == want


@pytest.mark.parametrize("name", ORACLE_SCENES + PLANE_SCENES)
def test_region_vertices_match_reference_polytope(name):
    """A region's vertices, read off the 0-cells in its closure, are its
    reference polytope's vertices in the same order (the spherical order
    picks the cutting functional of ``pt_to_ls_element``)."""
    _, posets = _region_posets(name)
    for poset in posets:
        for s in arr.region_basis(poset):
            assert grp.region_vertices(poset, s) == list(region_polytope(poset, s).vertices)


def test_join_cone_halfspaces_are_facets(monkeypatch):
    """Every join cone of the S^2 pt-ls check is simplicial, so each of
    its half-spaces is a facet of the reference polytope."""
    cones = []
    build = grp._cone_halfspaces
    monkeypatch.setattr(grp, "_cone_halfspaces", lambda *a: cones.append(build(*a)) or cones[-1])
    coll, (poset,) = _region_posets("s2_coordinate")
    assert grp.verify_pt_ls(coll, poset, arr.region_basis(poset))["verdict"] == "PASS"
    assert len(cones) == 24 and None not in cones  # 3 pairs x 4 bases x 2 cones
    for hs in cones:
        assert reference_polytope(S2, hs).facet_halfspaces() == tuple(hs)


# ---------------------------------------------------------------------------
# Typed failures


def test_non_l_polytope_raises_value_error(coord_s2, triangle):
    """A facet hyperplane outside the arrangement is named, not answered
    from a witness."""
    poset = arr.build_arrangement(coord_s2)
    cut = reference_polytope(
        S2, [geo.HalfSpace(c) for c in COORD_S2_COVS + [(1, -1, 0)]]
    )
    with pytest.raises(ValueError, match=r"\[1, -1, 0\]"):
        cells_in_polytope(poset, cut)
    e2 = arr.build_arrangement(triangle)
    piece = subdivide(region_polytope(e2, arr.region_basis(e2)[0]), [(1, -4, 0)])[0]
    with pytest.raises(ValueError, match=r"\[1, -4, 0\]"):
        e2.polytope_signs(piece.facet_halfspaces())


def test_flat_not_cut_out_by_hyperplanes_is_an_internal_error(coord_s2):
    """A point of the equator off the coordinate axes lies on one
    coordinate plane only, which does not cut it out."""
    poset = arr.build_arrangement(coord_s2)
    with pytest.raises(AssertionError):
        poset.flat_signs(geo.subspace_from_vectors(3, [(1, 1, 0)]))


def test_region_without_spanning_vertices_is_an_internal_error():
    """A lune between two great circles of S^2 is no pointed cone: the
    0-cells in its closure are one antipodal pair, which spans a line."""
    lunes = arr.build_arrangement(coll_mod.closure_by_hyperplanes(S2, COORD_S2_COVS[:2]))
    for s in arr.region_basis(lunes):
        with pytest.raises(AssertionError, match="not a polytope"):
            grp.region_vertices(lunes, s)
