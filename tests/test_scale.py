"""Desk-scale scenes, pinned here rather than in the bundled corpus so
that the corpus reports stay as they are.

Each scene is a generic arrangement written out literally: the draw
``perfbench.workloads.generic_scene(kind, n, k, Random(f"probe/{kind}{n}/{k}"))``.
Generic position fixes the region counts, so each verdict is checked
against a formula: 2 * sum_{i<=n} C(k-1, i) regions of k great spheres
in S^n, and C(k-1, n) bounded regions of k hyperplanes in E^n.
"""

from math import comb

from geotits import cli
from conftest import Budget

S3_FIVE = [
    [-3, -3, 2, -3],
    [5, -1, -3, 1],
    [-1, -6, 3, -3],
    [6, -5, -6, -3],
    [-5, 1, -3, -5],
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


def _solomon_tits(kind, n, covectors):
    scene = cli.Scene({
        "geometry": kind,
        "n": n,
        "hyperplanes": [[str(a) for a in c] for c in covectors],
    })
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


def test_e3_eight_generic_planes():
    n, k = 3, len(E3_EIGHT)
    bounded = comb(k - 1, n)
    with Budget("scale", "E^3, 8 generic planes", 10):
        block = _solomon_tits("E", n, E3_EIGHT)
    assert block["bounded_regions"] == block["h_rank"] == bounded == 35
