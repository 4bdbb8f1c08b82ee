"""Incidence from sign vectors against the linear-algebra rules it replaced.

The old rules are kept here as test-only references: flat containment by
``carrier.contains(cell.flat)``, polytope membership by testing a cell's
witness against every half-space, chart orientation by coordinates in a
direction basis, boundedness by the recession-cone loop, and spherical
face chains by coordinates in each face span with a ``Fraction``
determinant and boundaries through the whole boundary matrix.
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
from conftest import COORD_S2_COVS, S2, reference_coordinates, reference_det_sign, subdivide

ORACLE_SCENES = ["s2_coordinate", "s2_generic_three", "s3_coordinate", "h3_two_cubes"]
PLANE_SCENES = sorted(
    p.name[:-5] for p in cli.corpus_dir().iterdir() if p.name.startswith(("e2_", "h2_"))
)


def _scene(name):
    return cli.Scene(json.loads((cli.corpus_dir() / f"{name}.json").read_text()))


# ---------------------------------------------------------------------------
# The old rules


def _reference_in_polytope(poset, cell, polytope):
    """The cell's witness against every half-space of the polytope."""
    if poset.geometry.kind == geo.SPHERICAL:
        return all(exact.dot(h.functional, cell.witness) >= 0 for h in polytope.halfspaces)
    return polytope.contains_chart_point(cell.witness)


def _reference_in_face(poset, cell, polytope, face):
    return _reference_in_polytope(poset, cell, polytope) and face.span.contains(cell.flat)


def _reference_face_simplices(tri, polytope, face):
    """d-simplices whose top d-cell has its flat in the face span and its
    witness in the polytope."""
    d = face.dim
    return [
        lab for lab in tri.simplices.get(d, ())
        if tri.top_cell(lab).dim == d
        and _reference_in_face(tri.poset, tri.top_cell(lab), polytope, face)
    ]


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


def _reference_face_chains(tri, polytope):
    """(chains, eta) of ``_SphericalFaceChains``, the old way: each face's
    simplices from the witness rule, each oriented by its witnesses'
    coordinates in the face span, and each face's boundary mapped
    through the triangulation's boundary matrix."""
    cells, order = tri.poset.cells, tri.cell_order
    n = polytope.geometry.n
    chains = {}
    for d in range(n + 1):
        for face in polytope.faces_of_dim(d):
            chains[face.vertex_ids] = {
                lab: reference_det_sign(
                    [reference_coordinates(face.span, cells[order[c]].witness) for c in lab]
                )
                for lab in _reference_face_simplices(tri, polytope, face)
            }
    eta = {}
    cpx = tri.complex
    for d in range(1, n + 1):
        idx = cpx.index(d)
        low = cpx.degrees[d - 1]
        for face in polytope.faces_of_dim(d):
            vec = [0] * cpx.dim(d)
            for lab, s in chains[face.vertex_ids].items():
                vec[idx[lab]] = s
            image = {low[i]: v for i, v in enumerate(cpx.boundary(d).mul_vec(vec)) if v}
            for facet in polytope.faces_of_dim(d - 1):
                if facet.vertex_ids < face.vertex_ids:
                    got = {image.get(lab, 0) * s for lab, s in chains[facet.vertex_ids].items()}
                    assert len(got) == 1  # the facet chain is a signed copy
                    eta[(face.vertex_ids, facet.vertex_ids)] = got.pop()
    return chains, eta


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
    """Sign rule and witness rule pick the same cells for the polytope and
    for each of its faces; returns the number of (face, cell) hits."""
    cells = sorted(poset.cells.items())
    want = [s for s, c in cells if _reference_in_polytope(poset, c, polytope)]
    assert arr.cells_in_polytope(poset, polytope) == want
    signs = poset.polytope_signs(polytope)
    for s, c in cells:
        assert arr.FacePoset._agrees(s, signs) == (s in want)
    hits = 0
    for face in polytope.faces or ():
        got = poset.cells_in(poset.polytope_signs(polytope, face))
        want_face = {s for s in want if face.span.contains(poset.cells[s].flat)}
        assert got == want_face, face
        hits += len(got)
    return hits


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
            assert _check_polytope(poset, arr.region_polytope(poset, s))


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
    coll, (poset,) = _region_posets(name)
    tri = cx.sphere_triangulation(coll, poset)
    for s in arr.region_basis(poset):
        p = arr.region_polytope(poset, s)
        chains = grp._SphericalFaceChains(p, tri)
        for face in p.faces:
            assert chains._face_simplices(face, face.dim) == _reference_face_simplices(tri, p, face)


def _check_face_chains(tri, polytope):
    chains = grp._SphericalFaceChains(polytope, tri)
    want_chains, want_eta = _reference_face_chains(tri, polytope)
    assert chains.chains == want_chains
    assert chains.eta == want_eta
    assert {s for chain in want_chains.values() for s in chain.values()} == {1, -1}
    assert set(want_eta.values()) == {1, -1}


@pytest.mark.parametrize("name", ["s2_coordinate", "s2_generic_three", "s3_coordinate"])
def test_face_chains_and_carriers_match_reference(name):
    """Chains, incidence signs and subsphere simplices of every region
    equal the ones built by the old rules, in the same order."""
    coll, (poset,) = _region_posets(name)
    tri = cx.sphere_triangulation(coll, poset)
    for s in arr.region_basis(poset):
        _check_face_chains(tri, arr.region_polytope(poset, s))
    for member in coll.members:
        for m in tri.simplices:
            got = tri.labels_in_carrier(member.carrier, m)
            assert got == _reference_labels_in_carrier(tri, member.carrier, m)


def test_octant_and_pieces_in_the_cup(coord_s2):
    """The octant is an L-polytope of the coordinate planes plus x = y,
    and so are the two pieces that x = y cuts it into."""
    cup = coll_mod.variants(coord_s2, (1, -1, 0)).cup
    poset = arr.build_arrangement(cup)
    tri = cx.sphere_triangulation(cup, poset)
    octant = geo.polytope_from_halfspaces(S2, [geo.HalfSpace(c) for c in COORD_S2_COVS])
    pieces = subdivide(octant, [(1, -1, 0)])
    assert len(pieces) == 2
    for p in [octant] + pieces:
        assert _check_polytope(poset, p)
        chains = grp._SphericalFaceChains(p, tri)
        for face in p.faces:
            assert chains._face_simplices(face, face.dim) == _reference_face_simplices(tri, p, face)
        _check_face_chains(tri, p)


# ---------------------------------------------------------------------------
# Typed failures


def test_non_l_polytope_raises_value_error(coord_s2, triangle):
    """A facet hyperplane outside the arrangement is named, not answered
    from a witness."""
    poset = arr.build_arrangement(coord_s2)
    tri = cx.sphere_triangulation(coord_s2, poset)
    bic = cx.pt_bicomplex(coord_s2, tri)
    cut = geo.polytope_from_halfspaces(
        S2, [geo.HalfSpace(c) for c in COORD_S2_COVS + [(1, -1, 0)]]
    )
    with pytest.raises(ValueError, match=r"\[1, -1, 0\]"):
        grp.apartment_cycle_pt_spherical(cut, coord_s2, tri, bic)
    with pytest.raises(ValueError, match=r"\[1, -1, 0\]"):
        arr.cells_in_polytope(poset, cut)
    e2 = arr.build_arrangement(triangle)
    piece = subdivide(arr.region_polytope(e2, arr.region_basis(e2)[0]), [(1, -4, 0)])[0]
    with pytest.raises(ValueError, match=r"\[1, -4, 0\]"):
        e2.polytope_signs(piece)


def test_flat_not_cut_out_by_hyperplanes_is_an_internal_error(coord_s2):
    """A point of the equator off the coordinate axes lies on one
    coordinate plane only, which does not cut it out."""
    poset = arr.build_arrangement(coord_s2)
    with pytest.raises(AssertionError):
        poset.flat_signs(geo.subspace_from_vectors(3, [(1, 1, 0)]))
