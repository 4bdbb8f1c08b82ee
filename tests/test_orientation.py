"""Flag orientations from memoised step signs, and cell chains from their
facets' chains, against the per-flag rules they replaced.

``FacePoset.orientation`` reads a complete flag's orientation as a
product of ``FacePoset.step_sign`` over its steps; the oracle is one
witness minor per flag at the top flat's pivots
(``conftest.reference_flag_orientation``).  ``SphereTriangulation``
builds each cell's chain as the cone over its facets' chains; the
oracle scans the triangulation for the simplices ending at the cell and
signs each by that minor (``conftest.reference_cell_chain``), and reads
the incidence signs off the chain's boundary
(``conftest.ReferenceSphericalFaceChains``).
"""

import collections
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
from conftest import (
    E3,
    Budget,
    ReferenceSphericalFaceChains,
    reference_flag_orientation,
)
from test_arrangement import _random_covectors
from test_face_rule import _random_spheres
from test_incidence import FACET_SCENES, _complete_flags, _region_posets

SCENES = pathlib.Path(__file__).resolve().parent / "scenes"


def _scene_collection(path):
    return cli.Scene(json.loads(path.read_text())).collection()[0]


def _check_orientations(poset):
    """``FacePoset.orientation`` is the per-flag minor on every complete
    flag below every cell; returns the signs seen."""
    signs = set()
    for s in sorted(poset.cells):
        for flag in _complete_flags(poset, s):
            got = poset.orientation(flag)
            assert got == reference_flag_orientation(poset, flag), flag
            signs.add(got)
    return signs


def _check_sphere(coll):
    """Orientations on a fresh poset, then every cell's chain (keys, key
    order and signs), facets and incidence signs against the per-flag
    build over all the cells."""
    poset = arr.build_arrangement(coll)
    assert _check_orientations(poset) == {1, -1}
    tri = cx.sphere_triangulation(coll, poset)
    want = ReferenceSphericalFaceChains(tri, poset.cells)
    for s in sorted(poset.cells):
        chain, incidences = tri.cell_chain(s)
        assert list(chain.items()) == list(want.chains[s].items())
        assert list(incidences) == want.facets.get(s, [])
        assert incidences == {t: want.eta[s, t] for t in incidences}


@pytest.mark.parametrize("name", FACET_SCENES)
def test_orientation_matches_per_flag_minor(name):
    """Every corpus scene, E, H and S, on its global and its window
    poset, and the pinned generic S^3 and ideal-vertex H^2 scenes."""
    for poset in _region_posets(name)[1]:
        _check_orientations(poset)


def _spheres():
    """(name, collection) of every admissible spherical corpus scene, the
    pinned generic S^3 scene and the seeded S^2 and S^3 draws."""
    for path in sorted(cli.corpus_dir().glob("s*.json")):
        coll = _scene_collection(path)
        if coll_mod.admissible(coll) == coll_mod.ADMISSIBLE:
            yield path.name, coll
    yield "s3_four_generic", _scene_collection(SCENES / "s3_four_generic.json")
    yield from _random_spheres()


SPHERES = list(_spheres())


@pytest.mark.parametrize("name, coll", SPHERES, ids=[name for name, _ in SPHERES])
def test_cell_chains_match_per_flag_build(name, coll):
    _check_sphere(coll)


def test_s4_coordinate_chains_match_per_flag_build():
    with Budget("orientation", "S^4 coordinate, every flag and cell chain", 60):
        _check_sphere(_scene_collection(SCENES / "s4_coordinate.json"))


def test_orientation_matches_per_flag_minor_on_random_e3():
    """Seeded generic E^3 draws of five planes."""
    rng = random.Random("orientation/e3")
    signs = set()
    for _ in range(4):
        coll = coll_mod.closure_by_hyperplanes(E3, _random_covectors(rng, E3, "generic", 5))
        signs |= _check_orientations(arr.build_arrangement(coll))
    assert signs == {1, -1}


@pytest.mark.parametrize("path, zero_cells, incidences", [
    ("s4_coordinate.json", 10, 800),
    ("s3_four_generic.json", 8, 208),
])
def test_chains_cost_one_determinant_per_incidence(path, zero_cells, incidences, monkeypatch):
    """Building every cell chain takes one determinant per 0-cell and
    one per (facet, cell) incidence: 810 on S^4 coordinate and 216 on the
    pinned generic S^3 (one per complete flag took 6,330 and 632)."""
    coll = _scene_collection(SCENES / path)
    poset = arr.build_arrangement(coll)
    tri = cx.sphere_triangulation(coll, poset)
    calls = collections.Counter()
    det_sign = exact.det_sign
    monkeypatch.setattr(exact, "det_sign", lambda rows: calls.update([len(rows)]) or det_sign(rows))
    for s in poset.cells:
        tri.cell_chain(s)
    dims = collections.Counter(c.dim for c in poset.cells.values())
    assert dims[0] == zero_cells
    assert sum(len(poset.facets(s)) for s in poset.cells) == incidences
    assert sum(calls.values()) == zero_cells + incidences
    # a flag whose steps are known costs no determinant
    calls.clear()
    for s in poset.cells:
        for lab in tri.cell_chain(s)[0]:
            poset.orientation([tri.cell_order[c] for c in lab])
    assert not calls


# ---------------------------------------------------------------------------
# Guards, on a synthetic flag in E^2: cells whose flats are the prefix spans
# of the chart vectors of (0, 0), (1, 0) and (0, 1)


def _synthetic_poset(top_witness=(Fr(0), Fr(1))):
    g = geo.Geometry("E", 2)
    points = [(Fr(0), Fr(0)), (Fr(1), Fr(0)), top_witness]
    vectors = [geo.chart_vector(g, p) for p in points[:2]] + [(1, 0, 1)]
    cells = {(i,): arr.Cell((i,), geo.LinearSubspace(3, vectors[: i + 1]), i, points[i])
             for i in range(3)}
    return arr.FacePoset(g, (), cells)


def test_top_witness_in_the_facet_flat_is_degenerate():
    """A top witness on the line through the lower witnesses lies in the
    top flat, but its step minor is 0."""
    flag = [(0,), (1,), (2,)]
    assert _synthetic_poset().orientation(flag) == 1
    assert _synthetic_poset((Fr(0), Fr(-1))).orientation(flag) == -1
    with pytest.raises(AssertionError, match="degenerate flag simplex"):
        _synthetic_poset((Fr(3), Fr(0))).orientation(flag)


def test_step_across_two_dimensions_is_refused():
    with pytest.raises(AssertionError, match="flag step is not one dimension"):
        _synthetic_poset().orientation([(0,), (2,)])
    with pytest.raises(AssertionError, match="flag step is not one dimension"):
        _synthetic_poset().orientation([(1,), (2,)])


def test_chain_missing_a_facet_is_refused(coord_s2, monkeypatch):
    """With one facet dropped from each 2-cell, a region's chain misses
    the simplices through it."""
    tri = cx.sphere_triangulation(coord_s2, arr.build_arrangement(coord_s2))
    facets = arr.FacePoset.facets
    monkeypatch.setattr(arr.FacePoset, "facets",
                        lambda self, s: facets(self, s)[1:] if self.cells[s].dim == 2
                        else facets(self, s))
    region = tri.poset.regions()[0].sign_vector
    with pytest.raises(AssertionError, match="facet chains miss simplices of the cell"):
        tri.cell_chain(region)
