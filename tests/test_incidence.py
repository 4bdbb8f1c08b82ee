"""Incidence from sign vectors against the linear-algebra rules it replaced.

The old rules are kept as test-only references: flat containment by
``carrier.contains(cell.flat)``, polytope membership by testing a cell's
witness against every half-space, chart orientation by coordinates in a
direction basis, E/H apartments by all-pairs closure tests with each
flag signed in a given carrier (``conftest.reference_apartment_cycle_cell``),
facets by a scan of the closure with ``conftest.leq``, boundedness
(``FacePoset.bounded``, read off the facets) by the recession-cone loop
and by the linear programs of ``conftest.region_is_bounded``, and spherical
face chains and apartments keyed by the faces of each region's polytope
(``conftest.reference_face_chains``, ``apartment_cycle_pt_polytope``),
with coordinates in each face span, a ``Fraction`` determinant and
boundaries through the whole boundary matrix.  Region vertices and the
facets of the reference join cones are checked against the vertex
enumeration and face lattice of ``conftest.reference_polytope``, each
region's Pt -> Ls image against the placing triangulation of that
polytope (``conftest.reference_pt_to_ls_element``), and the spherical
joins read off sign vectors against the sums of their cones' indicator
vectors (``conftest.reference_join_sublattice``).
"""

import collections
import functools
import hashlib
import json
import pathlib
import random
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
    E2,
    E3,
    H2,
    H3,
    LINEAR_PROGRAM_NAMES,
    S2,
    ReferenceSphericalFaceChains,
    apartment_cycle_pt_polytope,
    cells_in_polytope,
    cup,
    chart_dim,
    chart_point,
    chart_row,
    face_span,
    leq,
    reference_apartment_cycle_cell,
    reference_det_sign,
    reference_feasible,
    reference_face_chains,
    reference_face_simplices,
    reference_in_polytope,
    reference_join_cones,
    reference_join_sublattice,
    reference_polytope,
    reference_polytope_signs,
    reference_pt_to_ls_element,
    reference_vertex_candidates,
    region_halfspaces,
    region_is_bounded,
    region_polytope,
    solve_affine,
    src_calls,
    step_product,
    subdivide,
    top_cell,
)
from test_arrangement import _random_covectors

ORACLE_SCENES = ["s2_coordinate", "s2_generic_three", "s3_coordinate", "h3_two_cubes"]
PLANE_SCENES = sorted(
    p.name[:-5] for p in cli.corpus_dir().iterdir() if p.name.startswith(("e2_", "h2_"))
)


TEST_SCENES = pathlib.Path(__file__).resolve().parent / "scenes"
SPHERE_SCENES = ["s2_coordinate", "s2_generic_three", "s3_coordinate", "s3_four_generic"]


def _scene(name):
    """A bundled scene, or else one of ``tests/scenes``."""
    path = cli.corpus_dir() / f"{name}.json"
    if not path.exists():
        path = TEST_SCENES / f"{name}.json"
    return cli.Scene(json.loads(path.read_text()))


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
        sol = solve_affine(list(zip(*dirs)), [Fr(a) - Fr(b) for a, b in zip(p, chart_points[0])])
        if sol is None:
            return 0
        rows.append(sol[0])
    return reference_det_sign(rows)


def _reference_labels_in_carrier(tri, carrier, m):
    return [lab for lab in tri.simplices.get(m, ()) if carrier.contains(top_cell(tri, lab).flat)]


def _reference_is_bounded(poset, cell):
    """Recession cone of the closure with the flat as equations, then the
    Klein-ball vertex test."""
    g = poset.geometry
    if g.kind == geo.SPHERICAL:
        return True
    nv = chart_dim(g)
    rows = [chart_row(g, h.functional)[:nv] + (0,) for h in region_halfspaces(poset, cell.sign_vector)]
    flat_eqs = [
        chart_row(g, cov)[:nv] + (0,)
        for s, cov in zip(cell.sign_vector, poset.covectors)
        if s == 0
    ]
    for i in range(nv):
        for s in (1, -1):
            eq = [0] * (nv + 1)
            eq[i], eq[nv] = s, -1
            if reference_feasible((), rows, flat_eqs + [tuple(eq)], nv) is not None:
                return False
    if g.kind == geo.HYPERBOLIC:
        hs = list(region_halfspaces(poset, cell.sign_vector))
        for s, cov in zip(cell.sign_vector, poset.covectors):
            if s == 0:
                hs += [geo.HalfSpace(cov), geo.HalfSpace([-x for x in cov])]
        for v in reference_vertex_candidates(tuple(hs), g):
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
    signs = reference_polytope_signs(poset, polytope.facet_halfspaces())
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
        below = {s for s in want if leq(s, c)}
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


def _check_bounded(poset):
    """``FacePoset.bounded`` agrees with both linear-programming rules on
    every cell; returns how many cells are bounded."""
    got = 0
    for s, cell in poset.cells.items():
        want = _reference_is_bounded(poset, cell)
        assert poset.bounded(s) == want == region_is_bounded(poset, cell), arr.sign_key(s)
        got += want
    return got


@pytest.mark.parametrize("name", ORACLE_SCENES + PLANE_SCENES + ["h2_ideal_vertices"])
def test_sign_rules_match_linear_algebra(name):
    coll, posets = _region_posets(name)
    for poset in posets:
        for m in coll.members:
            inside = poset.cells_in(poset.flat_signs(m.carrier))
            for s, cell in poset.cells.items():
                assert (s in inside) == m.carrier.contains(cell.flat)
        bounded = _check_bounded(poset)
        if poset is not posets[0]:  # the window's facets cut every cell to it
            assert bounded == len(poset.cells)
        for s in arr.region_basis(poset):
            _check_region_faces(poset, s, region_polytope(poset, s))


def _random_collection(geometry, k, seed):
    """k distinct hyperplanes with entries in [-3, 3], drawn with this
    seed; None when one of them misses the geometry (H^n only).  Small
    entries make parallel and concurrent hyperplanes likely."""
    rng = random.Random(f"bounded/{geometry.kind}{geometry.n}/{seed}")
    covs = set()
    while len(covs) < k:
        cov = tuple(rng.randint(-3, 3) for _ in range(geometry.n + 1))
        if any(cov[1:]):
            covs.add(geo.canonical_covector(cov))
    if any(geo.hyperplane_subspace(geometry, c) is None for c in covs):
        return None
    return coll_mod.closure_by_hyperplanes(geometry, sorted(covs))


@pytest.mark.parametrize("geometry, k", [(E2, 5), (E3, 5), (H2, 5), (H3, 4)],
                         ids=["E2", "E3", "H2", "H3"])
def test_bounded_matches_linear_programs_on_random_scenes(geometry, k):
    """The face-poset rule agrees with the recession-cone loop and with
    ``conftest.reference_is_bounded`` on every cell of seeded random scenes."""
    scenes = bounded = 0
    for seed in range(12):
        coll = _random_collection(geometry, k, seed)
        if coll is not None:
            scenes += 1
            bounded += _check_bounded(arr.build_arrangement(coll))
    assert scenes >= 3 and bounded


FACET_SCENES = sorted(p.name[:-5] for p in cli.corpus_dir().glob("*.json")) + [
    "h2_ideal_vertices", "s3_four_generic"]


@pytest.mark.parametrize("name", FACET_SCENES)
def test_facets_match_closure_scan(name):
    """``FacePoset.facets`` is the closure scan: the cells one dimension
    lower below the cell, in sign-vector order, on every cell of the
    global and the window poset."""
    for poset in _region_posets(name)[1]:
        by_dim = collections.defaultdict(list)
        for s, c in sorted(poset.cells.items()):
            by_dim[c.dim].append(s)
        for s, c in poset.cells.items():
            want = tuple(t for t in by_dim[c.dim - 1] if leq(t, s))
            assert poset.facets(s) == want, arr.sign_key(s)


def test_corpus_decides_boundedness_without_linear_programs(capsys):
    """Boundedness is read off the face poset (``FacePoset.bounded``):
    the corpus report keeps its pinned sha256 while none of
    ``LINEAR_PROGRAM_NAMES`` is called."""
    with src_calls() as calls:
        assert cli.main(["corpus"]) == cli.EXIT_PASS
    got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == (TEST_SCENES / "corpus.sha256").read_text().strip()
    assert calls["bounded"] > 0
    assert not set(LINEAR_PROGRAM_NAMES) & set(calls)


def _complete_flags(poset, sign):
    """Each complete flag of cells below the cell, as sign vectors,
    ending with the cell itself."""
    cell = poset.cells[sign]
    below = [c for s, c in sorted(poset.cells.items()) if s != sign and leq(s, sign)]
    flags = [()]
    for k in range(cell.dim):
        flags = [
            fl + (c.sign_vector,) for fl in flags for c in below
            if c.dim == k and (not fl or leq(fl[-1], c.sign_vector))
        ]
    return [fl + (sign,) for fl in flags]


@pytest.mark.parametrize("name", PLANE_SCENES)
def test_chart_orientation_matches_direction_basis(name):
    """The product of step signs over every complete flag below every
    cell (``conftest.step_product``) is the orientation of the
    witnesses' differences in the cell's direction basis."""
    _, posets = _region_posets(name)
    signs = set()
    for poset in posets:
        for s, cell in sorted(poset.cells.items()):
            for flag in _complete_flags(poset, s):
                got = step_product(poset, flag)
                pts = [chart_point(poset.geometry, poset.cells[t].witness) for t in flag]
                assert got == _reference_orientation_chart(cell.flat, pts)
                signs.add(got)
    assert signs == {1, -1}


def _region_face_chains(tri, sign):
    """(chains, facets, eta) of the faces in a region's closure, read off
    ``tri.cell_chain``: each face's chain, its facets in sign-vector
    order and the incidence sign of each facet."""
    chains, facets, eta = {}, {}, {}
    for s in sorted(tri.poset.cells_in(tuple(enumerate(sign)))):
        chains[s], incidences = tri.cell_chain(s)
        if tri.poset.cells[s].dim:
            facets[s] = list(incidences)
            eta.update(((s, t), e) for t, e in incidences.items())
    return chains, facets, eta


@pytest.mark.parametrize("name", ["s2_coordinate", "s2_generic_three"])
def test_face_simplices_match_reference(name):
    """A region's face is keyed by its cell, and carries the simplices the
    witness rule finds in the polytope face."""
    coll, (poset,) = _region_posets(name)
    tri = cx.sphere_triangulation(coll, poset)
    for s in arr.region_basis(poset):
        p = region_polytope(poset, s)
        chains = _region_face_chains(tri, s)[0]
        for face in p.faces:
            got = list(chains[_face_cell(poset, p, face)])
            assert got == reference_face_simplices(tri, p, face)


def _check_face_chains(tri, sign):
    """Chains and incidence signs of the region's faces, keyed by cell,
    equal the ones of its polytope's faces, keyed by vertex ids."""
    poset = tri.poset
    polytope = region_polytope(poset, sign)
    chains, _, eta = _region_face_chains(tri, sign)
    want_chains, want_eta = reference_face_chains(tri, polytope)
    cell_of = {f.vertex_ids: _face_cell(poset, polytope, f) for f in polytope.faces}
    assert chains == {cell_of[k]: v for k, v in want_chains.items()}
    assert eta == {(cell_of[a], cell_of[b]): v for (a, b), v in want_eta.items()}
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
        positions = tri.positions_in_carrier(member.carrier)
        for m, labs in tri.simplices.items():
            got = [labs[s] for s in positions.get(m, ())]
            assert got == _reference_labels_in_carrier(tri, member.carrier, m)


@pytest.mark.parametrize("name", SPHERE_SCENES)
def test_per_cell_face_chains_match_per_region_build(name):
    """The triangulation's per-cell chains, restricted to a region, give
    the chains, facets and incidence signs that a build for that region
    alone gives."""
    coll, (poset,) = _region_posets(name)
    tri = cx.sphere_triangulation(coll, poset)
    for s in arr.region_basis(poset):
        chains, facets, eta = _region_face_chains(tri, s)
        want = ReferenceSphericalFaceChains(tri, poset.cells_in(tuple(enumerate(s))))
        assert chains == want.chains
        assert facets == want.facets
        assert eta == want.eta


def test_each_cell_chain_is_built_once_and_no_witness_is_rechecked(monkeypatch):
    """Over every region's apartment, twice, each cell of the coordinate
    S^3 gets one chain build (a build per region gave 240 chain builds
    for its 80 cells), and no witness is read back through its chart or
    checked against its flat (2,216 containment checks once, 80 when
    each witness was checked once): ``build_arrangement`` checked them,
    and ``test_step_and_flat_signs_read_only_det_sign`` counts the rest."""
    coll = _region_posets("s3_coordinate")[0]
    poset = arr.build_arrangement(coll)  # a fresh poset: no step sign memoised yet
    tri = cx.sphere_triangulation(coll, poset)
    bic = cx.pt_bicomplex(coll, tri)
    builds = collections.Counter()
    build = cx.SphereTriangulation._build_cell_chain
    monkeypatch.setattr(cx.SphereTriangulation, "_build_cell_chain",
                        lambda self, s: builds.update([s]) or build(self, s))
    basis = arr.region_basis(poset)
    assert len(basis) == 16 and len(poset.cells) == 80
    with src_calls() as calls:
        for _ in range(2):
            for s in basis:
                grp.apartment_cycle_pt_spherical(s, coll, tri, bic)
    assert set(builds) == set(poset.cells) and set(builds.values()) == {1}
    assert calls["step_sign"] and not set(calls) & set(WITNESS_RECHECKS)


def test_eh_apartments_scan_no_closure_and_recheck_no_witness(monkeypatch):
    """Over every bounded region's apartment of six lines in E^2, twice,
    the face chains are cones down ``FacePoset.facets`` with no scan of
    the closure, and no witness is read back through its chart or checked
    against its flat (a scan of every cell with a check per flag gave 396
    containment checks for the 45 cells in the regions' closures, and one
    check per cell 45)."""
    scene = _scene("e2_six_lines")
    coll, _ = scene.collection()
    poset, basis = scene.arrangement(None)
    st = cx.STModel(coll.members, coll.top())
    closure = set().union(*(poset.cells_in(tuple(enumerate(s))) for s in basis))
    taken = collections.Counter()
    cells_in = arr.FacePoset.cells_in
    monkeypatch.setattr(arr.FacePoset, "cells_in",
                        lambda self, signs: taken.update([signs]) or cells_in(self, signs))
    assert len(basis) == 9 and len(poset.cells) == 69 and len(closure) == 45
    with src_calls() as calls:
        for _ in range(2):
            grp.cell_apartments(poset, basis, st)
    assert not taken
    assert calls["step_sign"] and not set(calls) & set(WITNESS_RECHECKS)


WITNESS_RECHECKS = ("chart_vector", "primitive_int_row", "contains_vector", "dot", "rank")
COMPREHENSIONS = {"<genexpr>", "<listcomp>"}


@pytest.mark.parametrize("name", ["e3_eight_generic", "s3_four_generic"])
def test_step_and_flat_signs_read_only_det_sign(name):
    """Every (lower, cell) step sign of the arrangement, the empty face
    below each 0-cell included, is one ``det_sign`` of the lower flat's
    basis rows over the cell's witness row as ``build_arrangement`` left
    it; and on s3_four_generic the signs of every member's flat are a
    lookup in the lattice.  Neither reads a witness through its chart,
    checks it against its flat, or takes a dot product or a rank."""
    scene = _scene(name)
    coll, _ = scene.collection()
    poset, _ = scene.arrangement(None)
    pairs = [(None, s) for s, c in poset.cells.items() if c.dim == 0]
    pairs += [(f, s) for s in poset.cells for f in poset.facets(s)]
    with src_calls() as calls:
        for lower, sign in pairs:
            poset.step_sign(lower, sign)
    assert calls["step_sign"] == len(pairs) and calls["det_sign"] == len(pairs)
    assert set(calls) <= {"step_sign", "det_sign", "_int_row", "_primitive"} | COMPREHENSIONS
    if name == "s3_four_generic":
        with src_calls() as calls:
            for m in coll.members:
                poset.flat_signs(m.carrier)
        assert calls["flat_signs"] == len(coll.members)
        # the lookup hashes the carrier (and compares it, when the key is another object)
        assert set(calls) <= {"flat_signs", "flat_mask", "__hash__", "__eq__"} | COMPREHENSIONS


@pytest.mark.parametrize("name, command, pairs", [
    ("e3_eight_generic", "solomon-tits", 966),
    ("h2_triangle", "local", 12),
])
def test_each_face_chain_is_built_once(name, command, pairs, monkeypatch):
    """Once the scene's arrangement is built, the apartments of a verify
    pass read each (lower, cell) step sign once: every face chain is built
    once and shared by the regions.  Signing each complete flag on its
    own made 5,472 calls on the 966 pairs of e3_eight_generic, up to 48
    per pair, and 18 on the 12 of h2_triangle."""
    scene = _scene(name)
    scene.arrangement(scene.polytope_a if command == "local" else None)
    calls = collections.Counter()
    step = arr.FacePoset.step_sign
    monkeypatch.setattr(arr.FacePoset, "step_sign",
                        lambda self, lower, sign: calls.update([(lower, sign)]) or step(self, lower, sign))
    assert cli.run_command("verify", command, scene)[1] == "PASS"
    assert len(calls) == pairs and set(calls.values()) == {1}


def _off_its_flat(point, covectors):
    """The point moved off the first hyperplane it lies on (so off its
    flat), keeping x0 > 0: k point + c, for c that hyperplane's covector
    and k > |c|_1; None when the point lies on no hyperplane."""
    c = next((c for c in covectors if exact.dot(c, point) == 0), None)
    if c is None:
        return None
    k = 1 + sum(map(abs, c))
    return tuple(k * x + y for x, y in zip(point, c))


def _moved_off_its_flat(made, moved, covectors):
    """``made`` (``arrangement._step`` or ``_flat_points``) with each point
    it makes that lies on a hyperplane moved off it, and so off its flat."""
    if moved == "_step":
        def move(*args):
            point, values = made(*args)
            off = _off_its_flat(point, covectors)
            return (point, values) if off is None else (off, [exact.dot(c, off) for c in covectors])
    else:
        def move(*args):
            return tuple(_off_its_flat(p, covectors) or p for p in made(*args))
    return move


def test_witness_off_its_flat_fails_the_build(monkeypatch, capsys):
    """The witness check is made where the witness is made, in S^2, E^2
    and H^2: a witness moved off its flat, by a step off a facet or as the
    point of an uncut flat, raises AssertionError in
    ``build_arrangement``, which the CLI reports as an internal error
    (exit 4)."""
    details = {"_step": "a step off a facet left the cell it was taken for",
               "_flat_points": "a hyperplane cuts a flat it was found not to cut"}
    for name in ("s2_generic_three", "e2_four_lines", "h2_triangle"):
        coll, _ = _scene(name).collection()
        for moved, detail in details.items():
            with monkeypatch.context() as m:
                m.setattr(arr, moved,
                          _moved_off_its_flat(getattr(arr, moved), moved, coll.hyperplane_covectors))
                with pytest.raises(AssertionError, match=detail):
                    arr.build_arrangement(coll)
                path = str(cli.corpus_dir() / f"{name}.json")
                assert cli.main(["verify", "solomon-tits", path]) == cli.EXIT_INTERNAL
            report = json.loads(capsys.readouterr().err)
            assert report == {"error": "INTERNAL_ERROR", "detail": f"AssertionError: {detail}"}


EH_SCENES = sorted(
    p.name[:-5] for p in cli.corpus_dir().iterdir()
    if p.name.startswith(("e", "h")) and _scene(p.name[:-5]).mode != "points"
)


@pytest.mark.parametrize("name", EH_SCENES)
def test_cell_apartments_match_reference_builder(name):
    """The apartment of every basis region of every E/H corpus scene
    generated by hyperplanes (a points-generated one has cells whose
    flats are no members), on its global poset and on its window poset,
    equals the chain of the all-pairs builder that signs each flag in the
    whole space."""
    coll, posets = _region_posets(name)
    st = cx.STModel(coll.members, coll.top())
    for poset in posets:
        basis = arr.region_basis(poset)
        want = [reference_apartment_cycle_cell(poset, s, st) for s in basis]
        assert grp.cell_apartments(poset, basis, st) == want


def test_cell_apartments_match_reference_builder_on_random_collections():
    """240 seeded collections, 80 each of E^2 with up to 8 lines, E^3 with
    up to 6 planes and H^2 with up to 8 lines, generic and degenerate
    draws: every bounded region's apartment (639 in all) equals the
    all-pairs builder's chain."""
    rng = random.Random("cell-apartments")
    regions = 0
    for g, most in [(E2, 8), (E3, 6), (H2, 8)] * 80:
        draw = rng.choice(["generic", "parallel", "concurrent"])
        coll = coll_mod.closure_by_hyperplanes(g, _random_covectors(rng, g, draw, rng.randint(1, most)))
        poset = arr.build_arrangement(coll)
        basis = arr.region_basis(poset)
        st = cx.STModel(coll.members, coll.top())
        want = [reference_apartment_cycle_cell(poset, s, st) for s in basis]
        assert grp.cell_apartments(poset, basis, st) == want
        regions += len(basis)
    assert regions > 500


EXACT_SEQ_SCENES = sorted(
    p.name[:-5] for p in cli.corpus_dir().iterdir()
    if p.name.startswith(("e", "h")) and "u_hyperplane" in json.loads(p.read_text())["options"]
)


@pytest.mark.parametrize("name", EXACT_SEQ_SCENES)
def test_exact_seq_apartments_match_reference_builder(name, monkeypatch):
    """Every lifted region q and every facet tau on U that ``verify
    exact-seq`` builds an apartment for gets the reference chain: q's
    signed in the whole space (the cup model), tau's in U, which is
    tau's own flat (the cap model); one call per model."""
    built = []
    build = grp.cell_apartments
    monkeypatch.setattr(grp, "cell_apartments",
                        lambda *a: built.append((a, build(*a))) or built[-1][1])
    scene = _scene(name)
    assert cli.run_command("verify", "exact-seq", scene)[1] == "PASS"
    n = scene.geometry.n
    assert [{poset.cells[s].dim for s in regions} for (poset, regions, _), _ in built] == [{n}, {n - 1}]
    for (poset, regions, st), got in built:
        assert len(got) == len(regions)
        for sign, chain in zip(regions, got):
            top_carrier = None
            if poset.cells[sign].dim < n:
                assert poset.cells[sign].flat == st.top.carrier
                top_carrier = st.top.carrier
            assert chain == reference_apartment_cycle_cell(poset, sign, st, top_carrier)


def _octant_cup(coord_s2):
    return cup(coord_s2, (1, -1, 0))


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
    """A region's vertices, read off the 0-cells in its closure (as
    ``groups.pt_to_ls_element`` reads them), are its reference polytope's
    vertices: chart points in E/H, primitive rays in S."""
    _, posets = _region_posets(name)
    for poset in posets:
        spherical = poset.geometry.kind == geo.SPHERICAL
        for s in arr.region_basis(poset):
            cells = [poset.cells[t] for t in poset.cells_in(tuple(enumerate(s)))]
            verts = [chart_point(poset.geometry, c.witness) for c in cells if c.dim == 0]
            if spherical:
                verts = [exact.primitive_int_row(v) for v in verts]
            assert sorted(verts) == list(region_polytope(poset, s).vertices)


def _both_generated_scenes():
    paths = sorted(cli.corpus_dir().iterdir(), key=lambda p: p.name) + sorted(TEST_SCENES.iterdir())
    out = []
    for path in paths:
        if path.name.endswith(".json"):
            coll, _ = cli.Scene(json.loads(path.read_text())).collection()
            if coll_mod.generated_by_both(coll):
                out.append((path.name[:-5], coll))
    return out


def test_pt_to_ls_matches_placing_reference():
    """On every basis region of every scene generated by both points and
    hyperplanes, the simplex rule gives the image that placing-
    triangulating the region's reference polytope gives."""
    scenes = _both_generated_scenes()
    assert len(scenes) == 14
    signs = set()
    for name, coll in scenes:
        poset = arr.build_arrangement(coll)
        ls_data = grp.ls_group(coll)
        for s in arr.region_basis(poset):
            got = grp.pt_to_ls_element(poset, s, ls_data)
            want = reference_pt_to_ls_element(region_polytope(poset, s).vertices, coll, ls_data)
            assert got == want, (name, arr.sign_key(s))
            signs.update(got.values())
    assert signs == {1, -1}


def _seeded_both_generated(n, k, count):
    """The first ``count`` seeded S^n collections closed from k distinct
    hyperplanes with entries in [-1, 1] that are generated by both points
    and hyperplanes: small entries make that likely."""
    g = geo.Geometry("S", n)
    out = []
    seed = 0
    while len(out) < count:
        rng = random.Random(f"joins/S{n}/{k}/{seed}")
        seed += 1
        covs = set()
        while len(covs) < k:
            cov = tuple(rng.randint(-1, 1) for _ in range(n + 1))
            if any(cov):
                covs.add(geo.canonical_covector(cov))
        coll = coll_mod.closure_by_hyperplanes(g, sorted(covs))
        if coll_mod.generated_by_both(coll):
            out.append(coll)
    return out


def test_join_sublattice_matches_cone_reference():
    """The joins read off the regions' signs on the walls are the joins
    summed from the indicator vectors of their two simplicial cones, on
    every spherical scene generated by both and on seeded S^1-S^3 ones."""
    scenes = [coll for _, coll in _both_generated_scenes() if coll.geometry.kind == geo.SPHERICAL]
    assert len(scenes) == 8
    seeded = (_seeded_both_generated(1, 3, 12) + _seeded_both_generated(2, 4, 14)
              + _seeded_both_generated(3, 4, 10) + _seeded_both_generated(3, 5, 6))
    for coll in scenes + seeded:
        poset = arr.build_arrangement(coll)
        basis = arr.region_basis(poset)
        joins = grp.join_sublattice(coll, poset, basis)
        assert joins and joins == reference_join_sublattice(coll, poset, basis)


def test_reference_join_cone_halfspaces_are_facets():
    """Every join cone of the S^2 pt-ls check is simplicial, so each of
    its half-spaces is a facet of the reference polytope."""
    coll, _ = _region_posets("s2_coordinate")
    cones = [hs for pair in reference_join_cones(coll) for hs in pair]
    assert len(cones) == 24  # 3 pairs x 4 bases x 2 cones
    for hs in cones:
        assert reference_polytope(S2, hs).facet_halfspaces() == tuple(hs)


@pytest.mark.parametrize("name", ["s2_coordinate", "s3_four_generic"])
def test_pt_ls_joins_take_no_nullspace(name):
    """Once the arrangement is built, the spherical pt-ls check takes no
    nullspace and no rank (the joins' independence is read off zero
    masks), and one closure scan per region: the simplex rule's."""
    coll, (poset,) = _region_posets(name)
    basis = arr.region_basis(poset)
    with src_calls() as counts:
        assert grp.verify_pt_ls(coll, poset, basis)["verdict"] == "PASS"
    assert counts["nullspace"] == 0
    assert counts["rank"] == 0
    assert counts["cells_in"] == len(basis) == len(poset.regions())


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
        reference_polytope_signs(e2, piece.facet_halfspaces())


def test_flat_not_cut_out_by_hyperplanes_is_an_internal_error(coord_s2):
    """A point of the equator off the coordinate axes lies on one
    coordinate plane only, which does not cut it out."""
    poset = arr.build_arrangement(coord_s2)
    with pytest.raises(AssertionError):
        poset.flat_signs(geo.subspace_from_vectors(3, [(1, 1, 0)]))


def test_join_wall_outside_the_arrangement_is_an_internal_error():
    """Four generic great circles of S^2 are not generated by points: the
    circle through two of their six points on no common circle is no
    hyperplane of the arrangement, so no join wall can be read there."""
    coll = coll_mod.closure_by_hyperplanes(S2, COORD_S2_COVS + [(1, 1, 1)])
    assert not coll_mod.generated_by_points(coll)
    poset = arr.build_arrangement(coll)
    with pytest.raises(AssertionError, match="join wall"):
        grp.join_sublattice(coll, poset, arr.region_basis(poset))


def test_region_without_spanning_vertices_is_an_internal_error():
    """A lune between two great circles of S^2 is no pointed cone: the
    0-cells in its closure are one antipodal pair, which spans a line."""
    lunes_coll = coll_mod.closure_by_hyperplanes(S2, COORD_S2_COVS[:2])
    lunes = arr.build_arrangement(lunes_coll)
    ls_data = grp.ls_group(lunes_coll)
    for s in arr.region_basis(lunes):
        with pytest.raises(AssertionError, match="not a simplex"):
            grp.pt_to_ls_element(lunes, s, ls_data)


def test_square_region_is_no_simplex():
    """The unit square's four lines are not generated by its corners (the
    diagonals are missing), and its bounded region has four vertices."""
    square_coll = coll_mod.closure_by_hyperplanes(E2, [(0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, -1)])
    assert not coll_mod.generated_by_points(square_coll)
    poset = arr.build_arrangement(square_coll)
    (square,) = arr.region_basis(poset)
    with pytest.raises(AssertionError, match="not a simplex"):
        grp.pt_to_ls_element(poset, square, grp.ls_group(square_coll))
