"""Every chain complex comes from one face rule.

The references below are the hand-written boundary loops that the face
rule replaced: plain alternating deletion over per-model gradings, the
bicomplex's two-part loop and the two resolution loops.  Each model must
give the same graded labels and the same boundary entries.
"""

import json
from itertools import combinations

import pytest

from geotits import cli
from geotits import collection as coll_mod
from geotits import complexes as cx
from geotits import geometry as geo
from geotits import resolution as reso
from geotits._kernel import IntMatrix
from conftest import leq

SCENES = sorted(p.name for p in cli.corpus_dir().iterdir() if p.name.endswith(".json"))


@pytest.fixture(scope="module")
def corpus():
    """(name, scene, collection) of every corpus scene."""
    out = []
    for name in SCENES:
        scene = cli.Scene(json.loads((cli.corpus_dir() / name).read_text()))
        out.append((name, scene, scene.collection()[0]))
    return out


def _by_length(labels, shift):
    degrees = {}
    for lab in labels:
        degrees.setdefault(len(lab) - shift, []).append(lab)
    return {d: sorted(v) for d, v in degrees.items()}


def _reference_boundaries(degrees):
    """Alternating face deletion; faces absent from the basis map to 0."""
    boundaries = {}
    for d in sorted(degrees):
        lower_index = {lab: i for i, lab in enumerate(degrees.get(d - 1, ()))}
        entries = {}
        for j, lab in enumerate(degrees[d]):
            for i_face in range(len(lab)):
                face = lab[:i_face] + lab[i_face + 1 :]
                row = lower_index.get(face)
                if row is not None:
                    entries[(row, j)] = entries.get((row, j), 0) + (-1) ** i_face
        boundaries[d] = IntMatrix(len(degrees.get(d - 1, ())), len(degrees[d]), entries)
    return boundaries


def _assert_same(complex_, degrees, boundaries):
    assert complex_.degrees == {d: tuple(v) for d, v in degrees.items() if v}
    for d in complex_.support():
        got = complex_.boundary(d)
        want = boundaries.get(d, IntMatrix(complex_.dim(d - 1), complex_.dim(d)))
        assert (got.rows, got.cols, got.entries) == (want.rows, want.cols, want.entries), d


def _flags(members, keep):
    elems = sorted((m for m in members if keep(m)), key=lambda m: m.sort_key())
    leq = lambda i, j: elems[j].contains(elems[i]) and elems[i] != elems[j]
    return cx._chains(len(elems), leq)


def _reference_order_complex(members):
    """Proper-member flags from degree 0, augmented by hand."""
    degrees = _by_length([c for c in _flags(members, lambda m: not m.is_top()) if c], 1)
    boundaries = _reference_boundaries(degrees)
    degrees[-1] = [()]
    if 0 in degrees:
        boundaries[0] = IntMatrix(1, len(degrees[0]), {(0, j): 1 for j in range(len(degrees[0]))})
    boundaries[-1] = IntMatrix(0, 1)
    return degrees, boundaries


def _reference_relative_st(members, top):
    degrees = _by_length(_flags(members, lambda m: m != top), 0)
    return degrees, _reference_boundaries(degrees)


def test_tits_complex_matches_reference(corpus):
    for _, _, coll in corpus:
        _assert_same(cx.order_complex(coll.members),
                     *_reference_order_complex(coll.members))


def test_st_and_local_complexes_match_reference(corpus):
    windows = []
    for name, scene, coll in corpus:
        member_sets = [list(coll.members)]
        if scene.polytope_a is not None:
            windows.append(name)
            member_sets.append(list(coll_mod.restrict(coll, scene.polytope_a)))
        for members in member_sets:
            _assert_same(cx.relative_st_complex(members, coll.top()),
                         *_reference_relative_st(members, coll.top()))
    assert windows == ["e2_square_window.json", "h2_triangle.json"]


def test_tpl_complex_matches_reference(corpus):
    checked = 0
    for _, scene, coll in corpus:
        if not coll_mod.generated_by_points(coll):
            continue
        complex_, pts = cx.tpl_complex(list(coll.points()), scene.geometry)
        amb = scene.geometry.ambient_dim
        full = [
            combo
            for size in range(1, len(pts) + 1)
            for combo in combinations(range(len(pts)), size)
            if geo.span_points([pts[i] for i in combo]).carrier.dim == amb
        ]
        degrees = _by_length(full, 1)
        _assert_same(complex_, degrees, _reference_boundaries(degrees))
        checked += 1
    assert checked >= 10


def _spheres(corpus):
    """(name, coll, poset, tri, cell order, reference simplices) of every
    admissible spherical corpus scene."""
    for name, scene, coll in corpus:
        if scene.geometry.kind != geo.SPHERICAL or coll_mod.admissible(coll) != coll_mod.ADMISSIBLE:
            continue
        poset, _ = scene.arrangement(None)
        tri = cx.sphere_triangulation(coll, poset)
        order = tuple(sorted(poset.cells))
        below = lambda i, j: i != j and leq(order[i], order[j])
        simplices = _by_length([c for c in cx._chains(len(order), below) if c], 1)
        yield name, coll, poset, tri, order, simplices


SPHERES = ["s0_base.json", "s1_coordinate.json", "s2_coordinate.json",
           "s2_generic_three.json", "s3_coordinate.json"]


def test_triangulation_and_collapse_match_reference(corpus):
    names = []
    for name, coll, poset, tri, order, simplices in _spheres(corpus):
        names.append(name)
        _assert_same(tri.complex, simplices, _reference_boundaries(simplices))
        assert tri.simplices == {d: tuple(v) for d, v in simplices.items()}
        n = coll.geometry.n
        collapse = {}
        for m, labs in simplices.items():
            keep = [lab for lab in labs if poset.cells[order[lab[-1]]].dim == n]
            if keep:
                collapse[m] = keep
        _assert_same(cx.pt_collapse_complex(coll, tri), collapse,
                     _reference_boundaries(collapse))
    assert names == SPHERES


def _reference_bicomplex(coll, poset, order, simplices):
    """Flag faces (-1)**drop, then simplex faces (-1)**k (-1)**i."""
    proper = sorted((m for m in coll.members if not m.is_top()), key=lambda m: m.sort_key())
    degrees = {}
    for flag in _flags(coll.members, lambda m: not m.is_top()):
        if flag:
            inside = poset.cells_in(poset.flat_signs(proper[flag[0]].carrier))
            pool = {m: [lab for lab in labs if order[lab[-1]] in inside]
                    for m, labs in simplices.items()}
        else:
            pool = simplices
        for m, labs in pool.items():
            for sigma in labs:
                degrees.setdefault(len(flag) + m, []).append((flag, sigma))
    degrees = {d: sorted(v) for d, v in degrees.items()}
    index = {d: {lab: i for i, lab in enumerate(v)} for d, v in degrees.items()}
    boundaries = {}
    for d in sorted(degrees):
        entries = {}
        lower = index.get(d - 1, {})
        for j, (flag, sigma) in enumerate(degrees[d]):
            k = len(flag)
            for drop in range(k):
                row = lower.get((flag[:drop] + flag[drop + 1 :], sigma))
                if row is not None:
                    entries[(row, j)] = entries.get((row, j), 0) + (-1) ** drop
            for i_face in range(len(sigma)):
                face_sigma = sigma[:i_face] + sigma[i_face + 1 :]
                row = lower.get((flag, face_sigma)) if face_sigma else None
                if row is not None:
                    entries[(row, j)] = entries.get((row, j), 0) + (-1) ** k * (-1) ** i_face
        boundaries[d] = IntMatrix(len(degrees.get(d - 1, ())), len(degrees[d]), entries)
    return degrees, boundaries


def test_bicomplex_matches_reference(corpus):
    names = []
    for name, coll, poset, tri, order, simplices in _spheres(corpus):
        names.append(name)
        _assert_same(cx.pt_bicomplex(coll, tri),
                     *_reference_bicomplex(coll, poset, order, simplices))
    assert names == SPHERES


def _reference_ordered(level_dict):
    degrees = {p: list(tuples) for p, tuples in level_dict.items()}
    boundaries = {}
    for p in sorted(degrees):
        lower = {t: i for i, t in enumerate(degrees.get(p - 1, ()))}
        entries = {}
        for j, t in enumerate(degrees[p]):
            for i_face in range(p + 1):
                row = lower.get(reso.face(t, i_face))
                if row is not None:
                    entries[(row, j)] = entries.get((row, j), 0) + (-1) ** i_face
        boundaries[p] = IntMatrix(len(degrees.get(p - 1, ())), len(degrees[p]), entries)
    return degrees, boundaries


def _reference_unordered(level_dict):
    degrees = {}
    for p, tuples in level_dict.items():
        if p == 0:
            degrees[0] = [()]
            continue
        degrees[p] = sorted({tuple(sorted(t)) for t in tuples})
    boundaries = {}
    for p in sorted(degrees):
        lower = {t: i for i, t in enumerate(degrees.get(p - 1, ()))}
        entries = {}
        for j, fam in enumerate(degrees[p]):
            for drop in range(len(fam)):
                row = lower.get(fam[:drop] + fam[drop + 1 :])
                if row is not None:
                    entries[(row, j)] = entries.get((row, j), 0) + (-1) ** drop
        boundaries[p] = IntMatrix(len(degrees.get(p - 1, ())), len(degrees[p]), entries)
    return degrees, boundaries


def test_ordered_resolution_matches_reference():
    for size in range(6):
        complex_, level_dict, _ = reso.build_resolution(size)
        _assert_same(complex_, *_reference_ordered(level_dict))


def test_unordered_resolution_matches_reference():
    for size in range(6):
        complex_, level_dict, _ = reso.build_resolution(size, ordered=False)
        _assert_same(complex_, *_reference_unordered(level_dict))
