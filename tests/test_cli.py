import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from geotits import cli
from geotits import complexes as cx
from geotits._kernel import IntMatrix
from geotits.cli import Scene, SceneError, HypothesesError, run_command
from conftest import Budget
from test_scale import S3_FIVE


def scene_path(name):
    return str(cli.corpus_dir() / f"{name}.json")


def load(name):
    return Scene(json.loads((cli.corpus_dir() / f"{name}.json").read_text()))


def test_scene_validation_errors():
    with pytest.raises(SceneError, match="duplicates"):
        Scene({"geometry": "E", "n": 2, "hyperplanes": [["0", "1", "0"], ["0", "2", "0"]]})
    with pytest.raises(SceneError, match="zero functional"):
        Scene({"geometry": "E", "n": 2, "hyperplanes": [["0", "0", "0"]]})
    with pytest.raises(SceneError, match="strings"):
        Scene({"geometry": "E", "n": 2, "hyperplanes": [["0", 0.5, "1"]]})
    with pytest.raises(SceneError, match="unit ball"):
        Scene({"geometry": "H", "n": 2, "hyperplanes": [["0", "1", "0"]],
               "points": [["1", "0"]]})
    with pytest.raises(SceneError, match="geometry"):
        Scene({"geometry": "X", "n": 2})
    with pytest.raises(SceneError, match="does not meet"):
        Scene({"geometry": "H", "n": 2, "hyperplanes": [["3", "1", "0"]]})
    # malformed shapes: strings are not rows, and blocks must be objects
    line = [["0", "1", "0"]]
    for data, match in [
        ({"hyperplanes": ["101", "011"]}, "hyperplanes must be a list of lists"),
        ({"hyperplanes": 5}, "hyperplanes must be a list of lists"),
        ({"hyperplanes": line, "points": ["10"]}, "points must be a list of lists"),
        ({"hyperplanes": line, "options": [1]}, "options must be an object"),
        ({"hyperplanes": line, "polytope_A": []}, "polytope_A must be an object"),
        ({"hyperplanes": line, "polytope_A": {"halfspaces": "abc"}},
         "polytope_A.halfspaces must be a list of lists"),
        ({"hyperplanes": line, "options": {"u_hyperplane": "101"}}, "u_hyperplane"),
        # zero functionals, named rather than raised from the geometry
        ({"hyperplanes": line, "options": {"u_hyperplane": ["0", "0", "0"]}},
         "u_hyperplane: zero functional"),
        ({"hyperplanes": line, "polytope_A": {"halfspaces": [["0", "0", "0"]]}},
         "polytope_A halfspace #0: zero functional"),
    ]:
        with pytest.raises(SceneError, match=match):
            Scene({"geometry": "E", "n": 2, **data})
    # an empty window is named in every geometry (in S^n it has no witness)
    for kind in "SEH":
        with pytest.raises(SceneError, match=r"polytope_A\.halfspaces: a window needs"):
            Scene({"geometry": kind, "n": 2, "hyperplanes": [["0", "1", "0"]],
                   "polytope_A": {"halfspaces": []}})
    # resolution options: p_max is an integer >= 1, unordered a JSON boolean
    two_points = [["0", "1"], ["-1", "1"]]
    for options, match in [
        ({"p_max": "2"}, "p_max"), ({"p_max": -1}, "p_max"), ({"p_max": 0}, "p_max"),
        ({"p_max": True}, "p_max"), ({"p_max": 1.5}, "p_max"),
        ({"unordered": "no"}, "unordered"), ({"unordered": 0}, "unordered"),
    ]:
        with pytest.raises(SceneError, match=match):
            Scene({"geometry": "E", "n": 1, "hyperplanes": two_points, "options": options})
    scene = Scene({"geometry": "E", "n": 1, "hyperplanes": two_points,
                   "options": {"p_max": 2, "unordered": True}})
    assert (scene.p_max, scene.unordered) == (2, True)


def test_triangle_verify():
    scene = load("e2_triangle")
    checks, overall = run_command("verify", "solomon-tits", scene)
    assert overall == "PASS"
    assert checks[0]["bounded_regions"] == 1 and checks[0]["apartment_iso"]


def test_two_cube_homology():
    scene = load("h3_two_cubes")
    checks, overall = run_command("homology", "st", scene)
    assert overall == "PASS"
    block = checks[0]
    assert block["reduced_homology"] == {
        "2": {"betti": 1, "torsion": []},
        "3": {"betti": 1, "torsion": []},
    }
    assert block["wedge_verdict"] is False


def test_hypotheses_exits():
    scene = load("s2_one_plane")
    with pytest.raises(HypothesesError):
        run_command("verify", "solomon-tits", scene)
    adm = load("s2_coordinate")
    with pytest.raises(HypothesesError):
        run_command("verify", "suspension", adm)


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"geometry": "E", "n": 2,
                               "hyperplanes": [["0", "1", "0"], ["0", "2", "0"]]}))
    assert cli.main(["validate", str(bad)]) == cli.EXIT_INVALID_SCENE
    for data in ({"hyperplanes": ["101", "011"]}, {"hyperplanes": 5},
                 {"hyperplanes": [["0", "1", "0"]], "options": [1]},
                 {"hyperplanes": [["0", "1", "0"]], "polytope_A": []},
                 {"hyperplanes": [["0", "1", "0"]], "options": {"u_hyperplane": ["0", "0", "0"]}},
                 {"hyperplanes": [["0", "1", "0"]],
                  "polytope_A": {"halfspaces": [["0", "0", "0"]]}}):
        bad.write_text(json.dumps({"geometry": "E", "n": 2, **data}))
        assert cli.main(["validate", str(bad)]) == cli.EXIT_INVALID_SCENE
    no_window = json.loads(pathlib.Path(scene_path("s2_coordinate")).read_text())
    bad.write_text(json.dumps({**no_window, "polytope_A": {"halfspaces": []}}))
    for argv in (["arrangement"], ["verify", "local"], ["homology", "local"]):
        assert cli.main([*argv, str(bad)]) == cli.EXIT_INVALID_SCENE
    assert cli.main(["validate", scene_path("e2_triangle")]) == cli.EXIT_PASS
    assert cli.main(["verify", "suspension", scene_path("s2_coordinate")]) == cli.EXIT_HYPOTHESES
    assert cli.main(["verify", "solomon-tits", scene_path("e2_triangle")]) == cli.EXIT_PASS


def _dumped_homology(path):
    """Reduced homology of a complex written by --dump-complex."""
    data = json.loads(path.read_text())
    degrees = {int(d): labels for d, labels in data["degrees"].items()}
    boundaries = {
        int(d): IntMatrix(len(degrees.get(int(d) - 1, ())), len(degrees[int(d)]),
                          {(i, j): v for i, j, v in triplets})
        for d, triplets in data["boundaries"].items()
    }
    return cx.homology(cx.ChainComplex(degrees, boundaries)).as_dict()


@pytest.mark.parametrize("model, name, key", [
    ("t", "e2_square_window", "reduced_homology"),
    ("st", "e2_square_window", "reduced_homology"),
    ("local", "e2_square_window", "reduced_homology"),
    ("pt", "s2_coordinate", "bicomplex"),
])
def test_dump_complex_is_the_reported_complex(model, name, key, tmp_path, capsys):
    out = tmp_path / "complex.json"
    code = cli.main(["homology", model, scene_path(name), "--dump-complex", str(out)])
    assert code == cli.EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert _dumped_homology(out) == report["checks"][0][key]


def _assert_dump_pinned(scene, pin, tmp_path):
    """``homology pt SCENE --dump-complex`` writes the bytes whose sha256
    is in ``pin``, in fresh interpreters under two hash seeds."""
    want = (TEST_SCENES / pin).read_text().strip()
    for hash_seed in ("0", "12345"):
        out = tmp_path / f"complex{hash_seed}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "geotits.cli", "homology", "pt", scene,
             "--dump-complex", str(out)],
            capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            timeout=60,
        )
        assert proc.returncode == cli.EXIT_PASS
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want


def test_dump_complex_bytes_pinned(tmp_path):
    _assert_dump_pinned(scene_path("s2_coordinate"), "s2_coordinate_pt_complex.sha256", tmp_path)


def test_generic_s3_dump_complex_bytes_pinned(tmp_path):
    """The PT bicomplex of the pinned generic S^3 scene."""
    _assert_dump_pinned(str(TEST_SCENES / "s3_four_generic.json"),
                        "s3_four_generic_pt_complex.sha256", tmp_path)


def test_generic_s3_report_pinned_under_any_hash_seed():
    """The certificate heap keys rows again by iterating sets, so the
    verdict of the pinned generic S^3 scene is checked in fresh
    interpreters under two hash seeds."""
    scene = TEST_SCENES / "s3_four_generic.json"
    want = scene.with_suffix(".sha256").read_text().strip()
    for hash_seed in ("0", "12345"):
        proc = subprocess.run(
            [sys.executable, "-m", "geotits.cli", "verify", "solomon-tits", str(scene)],
            capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            timeout=60,
        )
        assert proc.returncode == cli.EXIT_PASS
        assert hashlib.sha256(proc.stdout).hexdigest() == want


def test_dump_complex_builds_the_model_once(tmp_path, capsys, monkeypatch):
    built = []
    real = cli.homology_model

    def counting(scene, which):
        built.append(which)
        return real(scene, which)

    monkeypatch.setattr(cli, "homology_model", counting)
    out = tmp_path / "complex.json"
    code = cli.main(["homology", "pt", scene_path("s2_coordinate"), "--dump-complex", str(out)])
    assert code == cli.EXIT_PASS and out.exists()
    assert built == ["pt"]


def test_dump_complex_exits_hypotheses_without_a_dump(tmp_path, capsys):
    out = tmp_path / "complex.json"
    code = cli.main(["homology", "pt", scene_path("s2_lunes_two"), "--dump-complex", str(out)])
    assert code == cli.EXIT_HYPOTHESES
    assert not out.exists()


def test_report_deterministic(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    cli.main(["--json", str(out1), "verify", "duality", scene_path("s2_coordinate")])
    cli.main(["--json", str(out2), "verify", "duality", scene_path("s2_coordinate")])
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_arrangement_seeded(tmp_path, capsys):
    code = cli.main(["--seed", "7", "arrangement", scene_path("e2_four_lines")])
    captured = capsys.readouterr()
    assert code == cli.EXIT_PASS
    rep = json.loads(captured.out)
    block = rep["checks"][0]
    assert block["partition_failures"] == 0
    assert block["region_basis_size"] == 3


# Windows that no draw of ``_sample_chart_point`` reaches: hyperbolic
# draws have |x| <= 40/81, Euclidean ones |x| <= 200.
FAR_WINDOWS = {
    "H": [["-3/5", "1", "0"], ["7/10", "-1", "0"], ["1/10", "0", "1"], ["1/10", "0", "-1"]],
    "E": [["-201", "1", "0"], ["202", "-1", "0"], ["0", "0", "1"], ["1", "0", "-1"]],
}


@pytest.mark.parametrize("kind", sorted(FAR_WINDOWS))
def test_arrangement_samples_a_window_beyond_the_draws(kind, tmp_path):
    """Draws outside the window move into it, so the partition check gets
    its 20 samples; the subprocess timeout stops a sampler that never
    reaches the window."""
    rows = FAR_WINDOWS[kind]
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"geometry": kind, "n": 2, "hyperplanes": rows,
                                "polytope_A": {"halfspaces": rows}}))
    with Budget("arrangement", f"window beyond the draws, {kind}^2", 20):
        proc = subprocess.run([sys.executable, "-m", "geotits.cli", "arrangement", str(path)],
                              capture_output=True, text=True, timeout=20)
    assert proc.returncode == cli.EXIT_PASS, proc.stderr
    (block,) = json.loads(proc.stdout)["checks"]
    assert block["partition_samples"] == 20 and block["partition_failures"] == 0


def test_groups_commands(capsys):
    assert cli.main(["groups", "pt", scene_path("e2_triangle")]) == cli.EXIT_PASS
    rep = json.loads(capsys.readouterr().out)
    assert rep["checks"][0]["free_rank"] == 1
    assert cli.main(["groups", "ls", scene_path("e2_points_four")]) == cli.EXIT_PASS
    rep = json.loads(capsys.readouterr().out)
    assert rep["checks"][0]["free_rank"] == 3


def test_resolution_command(capsys):
    assert cli.main(["resolution", scene_path("e2_four_lines")]) == cli.EXIT_PASS
    rep = json.loads(capsys.readouterr().out)
    block = rep["checks"][0]
    assert block["h1_rank"] == 3 and block["basis_size"] == 3


def test_resolution_report_pinned(capsys):
    """The largest resolution, 5 generic lines (6 bounded regions), gives
    the report whose sha256 sits beside its scene."""
    scene = TEST_SCENES / "e2_five_lines_generic.json"
    assert cli.main(["resolution", str(scene)]) == cli.EXIT_PASS
    got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == scene.with_suffix(".sha256").read_text().strip()


def test_spherical_report_pinned(capsys):
    """The pinned draw of the s3_generic benchmark workload (S^3 with 4
    generic hyperplanes) gives the report whose sha256 sits beside its
    scene, which is the digest the benchmark pins for that workload."""
    scene = TEST_SCENES / "s3_four_generic.json"
    assert cli.main(["verify", "solomon-tits", str(scene)]) == cli.EXIT_PASS
    got = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    want = scene.with_suffix(".sha256").read_text().strip()
    assert got == want
    pinned = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
    assert json.loads(pinned.read_text())["s3_generic"] == {
        "s3_generic verify solomon-tits": want
    }


def test_spherical_pt_ls_report_pinned(capsys):
    """``verify pt-ls`` of the same S^3 scene (16 regions, 32 join
    generators, kernel rank 15) gives the report whose sha256 is pinned
    beside it."""
    scene = TEST_SCENES / "s3_four_generic.json"
    assert cli.main(["verify", "pt-ls", str(scene)]) == cli.EXIT_PASS
    out = capsys.readouterr().out
    (block,) = json.loads(out)["checks"]
    assert (block["pt_rank"], block["join_generators"], block["kernel_rank"]) == (16, 32, 15)
    got = hashlib.sha256(out.encode()).hexdigest()
    assert got == (TEST_SCENES / "s3_four_generic_pt_ls.sha256").read_text().strip()


def test_euclidean_report_pinned(capsys):
    """A generic E^3 draw with 8 planes, whose C(7, 3) = 35 bounded
    regions each get a cell apartment, gives the report whose sha256
    sits beside its scene."""
    scene = TEST_SCENES / "e3_eight_generic.json"
    assert cli.main(["verify", "solomon-tits", str(scene)]) == cli.EXIT_PASS
    out = capsys.readouterr().out
    (block,) = json.loads(out)["checks"]
    assert block["bounded_regions"] == block["h_rank"] == 35
    got = hashlib.sha256(out.encode()).hexdigest()
    assert got == scene.with_suffix(".sha256").read_text().strip()


def test_ideal_vertex_arrangement_report_pinned(capsys):
    """H^2 with two chords meeting on the ideal circle: 4/13/10 cells and
    one bounded triangle, in the report whose sha256 sits beside its
    scene."""
    scene = TEST_SCENES / "h2_ideal_vertices.json"
    assert cli.main(["arrangement", str(scene)]) == cli.EXIT_PASS
    out = capsys.readouterr().out
    (block,) = json.loads(out)["checks"]
    assert block["cells_by_dim"] == {"0": 4, "1": 13, "2": 10}
    assert block["region_basis_size"] == 1
    got = hashlib.sha256(out.encode()).hexdigest()
    assert got == scene.with_suffix(".sha256").read_text().strip()


def test_s4_ten_generic_arrangement_report_pinned(capsys):
    """S^4 with 10 generic hyperplanes: the 7,082 cells of general
    position, in the report whose sha256 sits beside its scene."""
    scene = TEST_SCENES / "s4_ten_generic.json"
    assert cli.main(["arrangement", str(scene)]) == cli.EXIT_PASS
    out = capsys.readouterr().out
    (block,) = json.loads(out)["checks"]
    assert sum(block["cells_by_dim"].values()) == 7082
    got = hashlib.sha256(out.encode()).hexdigest()
    assert got == scene.with_suffix(".sha256").read_text().strip()


@pytest.mark.parametrize("name", ["e2_square_window", "h2_triangle"])
def test_window_arrangement_report_pinned_under_two_hash_seeds(name):
    """The window's interior witness reaches a report only through the
    partition samples of ``arrangement``, so the two windowed corpus
    scenes pin that report, in fresh interpreters under two hash seeds."""
    want = (TEST_SCENES / f"{name}_arrangement.sha256").read_text().strip()
    for hash_seed in ("0", "12345"):
        proc = subprocess.run(
            [sys.executable, "-m", "geotits.cli", "arrangement", scene_path(name)],
            capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            timeout=60,
        )
        assert proc.returncode == cli.EXIT_PASS
        assert hashlib.sha256(proc.stdout).hexdigest() == want


# 17 lines 10 = a x + b y, each a distinct wall of a polygon about 0
POLYGON_WALLS = [["10", str(-a), str(-b)] for a, b in [
    (1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 2), (-1, 1), (-2, 1), (-1, 0),
    (-2, -1), (-1, -1), (-1, -2), (0, -1), (1, -2), (1, -1), (2, -1), (3, 1)]]


def test_window_wall_guard(tmp_path, capsys):
    """A window with more distinct walls than the arrangement guard is a
    scene error (exit 2) named at load time; opposite sides of one wall
    count once, so 16 walls in 17 half-spaces load (here as a segment,
    which is lower dimensional)."""
    line = [["0", "1", "0"]]
    path = tmp_path / "walls.json"
    path.write_text(json.dumps({"geometry": "E", "n": 2, "hyperplanes": line,
                                "polytope_A": {"halfspaces": POLYGON_WALLS}}))
    with pytest.raises(SceneError, match="17 distinct walls exceed the guard 16"):
        Scene(json.loads(path.read_text()))
    assert cli.main(["validate", str(path)]) == cli.EXIT_INVALID_SCENE
    assert "17 distinct walls exceed the guard 16" in capsys.readouterr().err
    opposite = ["-10", "2", "1"]  # the far side of the wall 2x + y = 10
    with pytest.raises(SceneError, match="LOWER_DIMENSIONAL"):
        Scene({"geometry": "E", "n": 2, "hyperplanes": line,
               "polytope_A": {"halfspaces": POLYGON_WALLS[:16] + [opposite]}})
    scene = Scene({"geometry": "E", "n": 2, "hyperplanes": line,
                   "polytope_A": {"halfspaces": POLYGON_WALLS[:16]}})
    assert len(scene.polytope_a.halfspaces) == 16


def test_scene_digest_stable():
    s1 = load("e2_triangle")
    s2 = load("e2_triangle")
    assert s1.digest == s2.digest


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "geotits.cli", "validate", scene_path("s0_base")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["overall"] == "PASS"


def test_scope_mismatches_exit_hypotheses(tmp_path):
    whole_sphere = tmp_path / "whole.json"
    whole_sphere.write_text(json.dumps({"geometry": "S", "n": 2, "hyperplanes": []}))
    assert cli.main(["verify", "duality", scene_path("e2_triangle")]) == cli.EXIT_HYPOTHESES
    assert cli.main(["verify", "suspension", str(whole_sphere)]) == cli.EXIT_HYPOTHESES
    assert cli.main(["closure", str(whole_sphere)]) == cli.EXIT_PASS


TRIANGLE_ROWS = [["0", "1", "0"], ["0", "0", "1"], ["1", "-1", "-1"]]
TEST_SCENES = pathlib.Path(__file__).resolve().parent / "scenes"


@pytest.mark.parametrize("command, sub, scene, detail", [
    ("verify", "duality", scene_path("e2_triangle"), "duality is spherical"),
    ("verify", "suspension", scene_path("e2_triangle"), "suspension reduction is spherical"),
    ("verify", "suspension", {"geometry": "S", "n": 2},
     "collection has no hyperplanes (out of scope)"),
    ("verify", "suspension", scene_path("s2_coordinate"),
     "collection is admissible; suspension reduction does not apply"),
    ("verify", "exact-seq", {"geometry": "E", "n": 2, "hyperplanes": TRIANGLE_ROWS,
                             "options": {"u_hyperplane": ["0", "1", "0"]}},
     "U already belongs to the collection (sequence fails)"),
    ("verify", "exact-seq", {"geometry": "E", "n": 2, "hyperplanes": TRIANGLE_ROWS,
                             "options": {"u_hyperplane": ["1", "0", "0"]}},
     "U does not meet the geometry"),
    ("arrangement", None, str(TEST_SCENES / "e3_points10.json"),
     "120 hyperplanes exceed the desk-scale guard 16"),
    # the window's third facet, 1 - 2x - 2y >= 0, is not a line of L
    ("arrangement", None, {"geometry": "E", "n": 2, "hyperplanes": TRIANGLE_ROWS,
                           "polytope_A": {"halfspaces": [["0", "1", "0"], ["0", "0", "1"],
                                                         ["1", "-2", "-2"]]}},
     "window polytope must be an L-polytope"),
    # 16 lines, and U a 17th: L cup U is over the guard
    ("verify", "exact-seq", str(TEST_SCENES / "e2_sixteen_lines_u.json"),
     "17 hyperplanes exceed the desk-scale guard 16"),
])
def test_unmet_hypotheses_exit_3_with_detail(command, sub, scene, detail, tmp_path, capsys):
    if isinstance(scene, dict):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene))
        scene = str(path)
    argv = [command] + ([sub] if sub else []) + [scene]
    assert cli.main(argv) == cli.EXIT_HYPOTHESES
    assert json.loads(capsys.readouterr().err) == {"error": "HYPOTHESES_NOT_MET", "detail": detail}


def test_internal_error_exits_4(monkeypatch, capsys):
    """A broken internal invariant is a bug, never an unmet hypothesis."""
    def broken(*args, **kwargs):
        raise ValueError("face span leaves the collection")

    monkeypatch.setattr(cli.grp, "apartment_cycle_cell", broken)
    assert cli.main(["verify", "solomon-tits", scene_path("e2_triangle")]) == cli.EXIT_INTERNAL
    assert json.loads(capsys.readouterr().err) == {
        "error": "INTERNAL_ERROR",
        "detail": "ValueError: face span leaves the collection",
    }


def test_pt_ls_decides_generation_once(monkeypatch):
    calls = []
    both = cli.coll_mod.generated_by_both
    monkeypatch.setattr(cli.coll_mod, "generated_by_both",
                        lambda coll: calls.append(coll) or both(coll))
    _, overall = run_command("verify", "pt-ls", load("e2_triangle"))
    assert overall == "PASS"
    assert len(calls) == 1


def _report_bytes(scene, command, sub):
    checks, overall = run_command(command, sub, scene)
    out = io.StringIO()
    cli.emit(cli.make_report(scene, command, sub, checks, overall, 0), stream=out)
    return out.getvalue()


@pytest.mark.parametrize("name, commands", [
    ("h2_triangle", [("verify", "local"), ("homology", "local")]),
    ("e1_three_points", [("homology", "st"), ("verify", "solomon-tits")]),
])
def test_scene_collection_built_once(name, commands):
    shared = load(name)
    first = shared.collection()
    for command, sub in commands:
        assert _report_bytes(shared, command, sub) == _report_bytes(load(name), command, sub)
        assert shared.collection()[0] is first[0]


@pytest.mark.parametrize("name, commands", [
    ("e2_triangle", [("arrangement", None), ("verify", "solomon-tits"),
                     ("verify", "pt-ls"), ("resolution", None)]),
    ("h2_triangle", [("verify", "local"), ("verify", "solomon-tits")]),
    ("s2_coordinate", [("arrangement", None), ("homology", "pt"),
                       ("verify", "solomon-tits")]),
    ("e2_four_lines", [("verify", "solomon-tits"), ("verify", "exact-seq"),
                       ("arrangement", None)]),
])
def test_scene_arrangement_built_once(name, commands, monkeypatch):
    """Commands on one Scene share one face poset and region basis, and
    their reports match those of a fresh Scene byte for byte.  Only
    exact-seq builds a second arrangement, that of L cup U.  The
    arrangements of a window's own walls (``arr.window_arrangement``, a
    collection with no members), which validate the window and restrict
    to it, are not the scene's and are not counted."""
    fresh = {cmd: _report_bytes(load(name), *cmd) for cmd in commands}
    built = []
    build = cli.arr.build_arrangement
    monkeypatch.setattr(cli.arr, "build_arrangement",
                        lambda *a, **k: built.append(a[0]) or build(*a, **k))
    shared = load(name)
    for cmd in commands:
        assert _report_bytes(shared, *cmd) == fresh[cmd]
    built = [coll for coll in built if coll.members]
    assert built[0] is shared.collection()[0]
    assert len(built) == 1 + (("verify", "exact-seq") in commands)


NO_POLYTOPE_COMMANDS = {
    "s2_coordinate": ("solomon-tits", "pt-ls"),
    "s3_coordinate": ("solomon-tits",),
    "e2_triangle": ("pt-ls",),
    "h2_triangle": ("pt-ls",),
}


@pytest.mark.parametrize("name", list(NO_POLYTOPE_COMMANDS))
def test_spherical_solomon_tits_builds_no_polytope(name, monkeypatch):
    """Spherical apartments read each region's faces off the face poset,
    pt-ls reads each region's vertices off it and cuts the join cones by
    their half-spaces: the verify builds no ConvexPolytope.  The only
    polytope is the scene's window, built once when the scene loads."""
    built = []
    init = cli.geo.ConvexPolytope.__init__
    monkeypatch.setattr(cli.geo.ConvexPolytope, "__init__",
                        lambda self, *a: built.append(a) or init(self, *a))
    scene = load(name)
    assert len(built) == (scene.polytope_a is not None)
    built.clear()
    for sub in NO_POLYTOPE_COMMANDS[name]:
        checks, overall = run_command("verify", sub, scene)
        assert overall == "PASS"
        if sub == "solomon-tits":
            assert checks[0]["regions"] in (8, 16)
    assert built == []


def test_corpus_reports_an_internal_error_and_runs_the_rest(monkeypatch, capsys):
    """A scenario that raises is flagged in the corpus report, every other
    scenario still runs and passes, and the exit code is 4."""
    def broken(*args, **kwargs):
        raise RuntimeError("forced")

    monkeypatch.setattr(cli.grp, "apartment_cycle_cell", broken)
    assert cli.main(["corpus"]) == cli.EXIT_INTERNAL
    report = json.loads(capsys.readouterr().out)
    assert report["overall"] == "FAIL"
    assert len(report["scenarios"]) == 58
    flagged = [r for r in report["scenarios"] if r["status"] != "PASS"]
    assert ("e2_triangle.json", "verify solomon-tits") in {
        (r["scene"], r["command"]) for r in flagged
    }
    for r in flagged:
        assert r["status"] == "INTERNAL_ERROR"
        assert r["mismatches"] == ["RuntimeError: forced"]
    assert len(flagged) < len(report["scenarios"])


def test_exact_seq_size_guard_precedes_arrangement(monkeypatch):
    """The guard on L cup U is decided with the other hypotheses, before
    L's own arrangement is built."""
    scene = Scene(json.loads((TEST_SCENES / "e2_sixteen_lines_u.json").read_text()))
    monkeypatch.setattr(cli.arr, "build_arrangement",
                        lambda *a, **k: pytest.fail("arrangement built"))
    with pytest.raises(HypothesesError, match="17 hyperplanes exceed"):
        run_command("verify", "exact-seq", scene)


def test_exact_seq_guard_counts_the_cup():
    """L cup U has one more hyperplane than L on every corpus exact-seq
    scene whose hypotheses hold, which is the count the guard checks."""
    checked = 0
    for path in sorted(cli.corpus_dir().iterdir(), key=lambda p: p.name):
        if not path.name.endswith(".json"):
            continue
        scene = Scene(json.loads(path.read_text()))
        if scene.u_hyperplane is None:
            continue
        coll, _ = scene.collection()
        try:
            cli.grp.exact_sequence_hypotheses(coll, scene.u_hyperplane, scene.polytope_a)
        except HypothesesError:
            continue
        cup = cli.coll_mod.variants(coll, scene.u_hyperplane).cup
        assert len(cup.hyperplane_covectors) == len(coll.hyperplane_covectors) + 1
        checked += 1
    assert checked >= 4


@pytest.mark.parametrize("u, window, match", [
    # U in L, inside a window whose third facet is not in L
    (["1", "-3", "-2"], [["1", "-3", "-2"], ["1", "3", "-2"], ["1", "0", "3"]],
     "already belongs"),
    # the hyperbolic global form, with no window at all
    (["3", "0", "-8"], None, "needs a window"),
])
def test_exact_seq_hypotheses_precede_arrangement(u, window, match, monkeypatch):
    """verify exact-seq reports an unmet hypothesis before it builds any
    arrangement, so a window that is not an L-polytope cannot mask it."""
    data = json.loads((cli.corpus_dir() / "h2_triangle.json").read_text())
    data["options"] = {"u_hyperplane": u}
    data["polytope_A"] = window and {"halfspaces": window}
    scene = Scene(data)
    monkeypatch.setattr(cli.arr, "build_arrangement",
                        lambda *a, **k: pytest.fail("arrangement built"))
    with pytest.raises(HypothesesError, match=match):
        run_command("verify", "exact-seq", scene)


def test_reports_identical_across_hash_seeds(tmp_path):
    """Four corpus scenes, and the generic S^3 scene with 5 hyperplanes
    that ``test_scale`` pins."""
    s3_five = tmp_path / "s3_five.json"
    s3_five.write_text(json.dumps(
        {"geometry": "S", "n": 3, "hyperplanes": [[str(a) for a in c] for c in S3_FIVE]}))
    runs = [
        ["verify", "solomon-tits", scene_path("h2_triangle")],
        ["homology", "st", scene_path("e2_four_lines")],
        ["verify", "solomon-tits", scene_path("s2_coordinate")],
        ["verify", "solomon-tits", str(s3_five)],
        ["resolution", scene_path("e1_six_points")],
    ]
    for argv in runs:
        outputs = set()
        for hash_seed in ("0", "1", "12345"):
            proc = subprocess.run(
                [sys.executable, "-m", "geotits.cli", *argv],
                capture_output=True,
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
                timeout=60,
            )
            assert proc.returncode == cli.EXIT_PASS
            outputs.add(proc.stdout)
        assert len(outputs) == 1


def test_corpus_reports_match_pinned_digests():
    """Every corpus command, run as the benchmark runs it (one Scene per
    scene file, reports through make_report and emit), gives the report
    whose sha256 the benchmark pins."""
    pinned = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"
    want = json.loads(pinned.read_text())["corpus"]
    got = {}
    for path in sorted(cli.corpus_dir().iterdir(), key=lambda p: p.name):
        if not path.name.endswith(".json"):
            continue
        scene = Scene(json.loads(path.read_text()))
        for spec in scene.options.get("expected", ()):
            command, sub = spec["command"], spec.get("sub")
            try:
                checks, overall = run_command(command, sub, scene, seed=0)
                report = cli.make_report(scene, command, sub, checks, overall, 0)
            except HypothesesError as exc:
                report = {"error": "HYPOTHESES_NOT_MET", "detail": str(exc)}
            out = io.StringIO()
            cli.emit(report, stream=out)
            key = f"{path.name} {command}" + ("" if sub is None else f" {sub}")
            got[key] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert got == want
