"""Desk-scale scenes, pinned here rather than in the bundled corpus so
that the corpus reports stay as they are.

Each scene is a generic arrangement written out literally: the draw
``perfbench.workloads.generic_scene(kind, n, k, Random(f"probe/{kind}{n}/{k}"))``.
Generic position fixes the region counts, so each verdict is checked
against a formula: 2 * sum_{i<=n} C(k-1, i) regions of k great spheres
in S^n, and C(k-1, n) bounded regions of k hyperplanes in E^n.  The
arrangement censuses count each flat's cells the same way: a flat is
cut by the other hyperplanes in general position.  The ordered
resolution at its guard of 6 basis regions is checked against
H_p = Z^C(6, p).
"""

import json
import pathlib
from math import comb

from geotits import arrangement as arr
from geotits import cli
from geotits import collection as coll_mod
from geotits import resolution as reso
from conftest import Budget

SCENES = pathlib.Path(__file__).parent / "scenes"

S3_FIVE = [
    [-3, -3, 2, -3],
    [5, -1, -3, 1],
    [-1, -6, 3, -3],
    [6, -5, -6, -3],
    [-5, 1, -3, -5],
]

S4_SIX = [
    [-1, -1, -2, 1, 1],
    [-3, -4, 2, -1, -4],
    [-1, 5, -1, 1, -3],
    [-3, 2, 6, 2, 0],
    [-1, 6, -2, -2, -1],
    [-2, 3, 4, 4, 0],
]

E3_EIGHT = [
    [-3, 1, 2, 0],
    [-4, 1, 6, 4],
    [6, 6, -6, -1],
    [5, 5, 2, -6],
    [-5, 3, 5, 5],
    [4, 4, 4, 6],
    [6, -5, 2, -5],
    [-5, 2, -2, 3],
]

E4_EIGHT = [
    [-1, 6, 6, -4, 5],
    [6, -5, 2, -3, 5],
    [-2, -4, 5, 3, -5],
    [-4, 5, -6, 1, -6],
    [0, 2, -6, 6, 0],
    [5, -4, -3, 5, -2],
    [-3, 1, 2, 6, 2],
    [1, -3, 6, -1, -6],
]


def _hyperplane_scene(kind, n, covectors):
    return cli.Scene({
        "geometry": kind,
        "n": n,
        "hyperplanes": [[str(a) for a in c] for c in covectors],
    })


def _solomon_tits(kind, n, covectors):
    scene = _hyperplane_scene(kind, n, covectors)
    checks, overall = cli.run_command("verify", "solomon-tits", scene)
    assert overall == "PASS"
    (block,) = checks
    assert block["verdict"] == "PASS" and block["apartment_iso"]
    return block


def test_s3_five_generic_hyperplanes():
    n, k = 3, len(S3_FIVE)
    regions = 2 * sum(comb(k - 1, i) for i in range(n + 1))
    with Budget("scale", "S^3, 5 generic hyperplanes", 10):
        block = _solomon_tits("S", n, S3_FIVE)
    assert block["regions"] == block["h_rank"] == regions == 30


def test_s4_coordinate_hyperplanes():
    """``scenes/s4_coordinate.json``: S^4 cut by its 5 coordinate
    hyperplanes, 2^5 = 32 regions, from loading the scene to the verdict."""
    with Budget("scale", "S^4 coordinate, verify solomon-tits", 10):
        checks, overall = cli.run_command(
            "verify", "solomon-tits", cli.load_scene(SCENES / "s4_coordinate.json"))
    assert overall == "PASS"
    (block,) = checks
    assert block["verdict"] == "PASS" and block["apartment_iso"]
    assert block["regions"] == block["h_rank"] == 2 ** 5 == 32


def test_s4_six_generic_hyperplanes():
    """probe/S4/6: 62 regions, the PT bicomplex's d_4 is 50040 x 22320
    (2.4-4.3 s on a 2-vCPU VM)."""
    n, k = 4, len(S4_SIX)
    regions = 2 * sum(comb(k - 1, i) for i in range(n + 1))
    with Budget("scale", "S^4, 6 generic hyperplanes", 30):
        block = _solomon_tits("S", n, S4_SIX)
    assert block["regions"] == block["h_rank"] == regions == 62


def test_e3_eight_generic_planes():
    n, k = 3, len(E3_EIGHT)
    bounded = comb(k - 1, n)
    with Budget("scale", "E^3, 8 generic planes", 10):
        block = _solomon_tits("E", n, E3_EIGHT)
    assert block["bounded_regions"] == block["h_rank"] == bounded == 35


def test_e4_eight_generic_planes():
    """probe/E4/8: every one of the C(7, 4) = 35 bounded regions gets a
    cell apartment (0.3 s on a 2-vCPU VM)."""
    n, k = 4, len(E4_EIGHT)
    bounded = comb(k - 1, n)
    with Budget("scale", "E^4, 8 generic hyperplanes", 10):
        block = _solomon_tits("E", n, E4_EIGHT)
    assert block["bounded_regions"] == block["h_rank"] == bounded == 35


def test_ordered_resolution_six_regions():
    """The resolution guard: 9,366 simplices, H_p = Z^C(6, p)."""
    with Budget("scale", "resolution, 6 basis regions", 5):
        _, summary = reso.resolution_homology(reso.MAX_BASIS)
    assert summary.by_degree == {p: (comb(6, p), ()) for p in range(7)}


def test_e3_eight_planes_not_generated_by_points():
    """The points of the 8-plane arrangement span members outside it; the
    check stops at the first one instead of closing all their spans."""
    coll, _ = _hyperplane_scene("E", 3, E3_EIGHT).collection()
    with Budget("scale", "E^3, 8 generic planes, generated by points", 5):
        assert not coll_mod.generated_by_points(coll)


def test_e3_ten_points_pt_ls_hypotheses(capsys):
    """10 points in general position in E^3 close to 176 members, but the
    hyperplanes of those members meet outside them: ``verify pt-ls``
    refuses the scene."""
    with Budget("scale", "E^3, 10 points, verify pt-ls", 10):
        code = cli.main(["verify", "pt-ls", str(SCENES / "e3_points10.json")])
    assert code == cli.EXIT_HYPOTHESES
    assert json.loads(capsys.readouterr().err) == {
        "detail": "collection is not generated by both points and hyperplanes",
        "error": "HYPOTHESES_NOT_MET",
    }


def test_s4_ten_generic_census():
    """probe/S4/10 (``scenes/s4_ten_generic.json``): each of the C(k, c)
    flats of codimension c is a great (n-c)-sphere cut by k - c great
    spheres, with 2 * sum_{i<=n-c} C(k-c-1, i) cells."""
    n, k = 4, 10
    want = {n - c: comb(k, c) * 2 * sum(comb(k - c - 1, i) for i in range(n - c + 1))
            for c in range(n + 1)}
    scene = cli.load_scene(SCENES / "s4_ten_generic.json")
    with Budget("scale", "S^4, 10 generic hyperplanes, arrangement", 15):
        census = arr.build_arrangement(scene.collection()[0]).census()
    assert census == want and sum(want.values()) == 7082


def test_e4_eight_generic_census():
    """probe/E4/8: each of the C(k, n-j) flats of dimension j is an E^j cut
    by k - n + j hyperplanes, with sum_{i<=j} C(k-n+j, i) cells."""
    n, k = 4, len(E4_EIGHT)
    want = {j: comb(k, n - j) * sum(comb(k - n + j, i) for i in range(j + 1))
            for j in range(n + 1)}
    with Budget("scale", "E^4, 8 generic hyperplanes, arrangement", 15):
        census = arr.build_arrangement(_hyperplane_scene("E", n, E4_EIGHT).collection()[0]).census()
    assert census == want and sum(want.values()) == 1697
