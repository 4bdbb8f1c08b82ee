"""Metamorphic tests: a scene's checks do not depend on how it is
written, and their invariants not on where it sits.

Every corpus command runs on the scene as written and on a rewritten
copy: the hyperplane rows shuffled, each row scaled by a nonzero
rational of either sign, and in points mode the points shuffled.  The
hyperplanes are the same, so the ``checks`` blocks (or the unmet
hypothesis) must match byte for byte; only ``scene_digest`` may move.

Every corpus command also runs on the scene moved by a signed
permutation of coordinates, an isometry of each geometry, and every E^n
command on the scene moved by an invertible rational affine map.  Sort
keys, and so bases and apartment matrices, change with the coordinates;
the verdicts, homology, region counts, apartment isomorphism and the
ranks of the Pt -> Ls comparison must not.  H^n is left out of the
affine maps, which do not preserve the Klein ball.
"""

import json
import random
from fractions import Fraction

from geotits import cli, exact
from geotits.cli import HypothesesError, Scene, run_command
from conftest import reference_solve_unique


def _rewritten(data, rng):
    out = dict(data)
    rows = []
    for row in data.get("hyperplanes", ()):
        scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        rows.append([str(Fraction(x) * scale) for x in row])
    rng.shuffle(rows)
    out["hyperplanes"] = rows
    if data.get("options", {}).get("mode") == "points":
        out["points"] = rng.sample(data["points"], len(data["points"]))
    return out


# report fields that an isometry of the scene leaves unchanged
INVARIANT_KEYS = {
    "verdict", "wedge_verdict", "betti", "torsion",
    "regions", "bounded_regions", "regions_in_window", "region_basis_size",
    "apartment_iso", "pt_rank", "ls_invariants", "kernel_rank",
}


def _isometry(data, rng):
    """The scene moved by a seeded signed permutation of coordinates: all
    n+1 of them in S^n, the spatial ones x1..xn in E^n and H^n.  Covector
    rows (hyperplanes, ``u_hyperplane``, the half-spaces of
    ``polytope_A``) and points move alike, since the map is orthogonal;
    E/H chart points carry no x0 entry."""
    n = data["n"]
    first = 0 if data["geometry"] == "S" else 1
    axes = list(range(first, n + 1))
    target = dict(zip(axes, rng.sample(axes, len(axes))))
    sign = {i: rng.choice((-1, 1)) for i in axes}

    def move(row, shift=0):
        out = list(row)
        for i in axes:
            out[target[i] - shift] = str(sign[i] * Fraction(row[i - shift]))
        return out

    out = dict(data, hyperplanes=[move(r) for r in data.get("hyperplanes", ())])
    out["points"] = [move(p, first) for p in data.get("points", ())]
    if data.get("polytope_A") is not None:
        out["polytope_A"] = {"halfspaces": [move(h) for h in data["polytope_A"]["halfspaces"]]}
    if "u_hyperplane" in data.get("options", {}):
        out["options"] = dict(data["options"], u_hyperplane=move(data["options"]["u_hyperplane"]))
    return out


def _invariants(scene, command, sub):
    """The invariant fields of a command's checks, by path, with the
    overall verdict; or the unmet hypothesis."""
    try:
        checks, overall = run_command(command, sub, scene, seed=0)
    except HypothesesError as exc:
        return f"HYPOTHESES_NOT_MET: {exc}"
    found = {"overall": overall}

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                if key in INVARIANT_KEYS:
                    found[path + key] = value
                walk(value, f"{path}{key}.")
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{path}{i}.")

    walk(checks, "")
    return found


def _outcome(scene, command, sub):
    try:
        checks, overall = run_command(command, sub, scene, seed=0)
    except HypothesesError as exc:
        return f"HYPOTHESES_NOT_MET: {exc}"
    return json.dumps({"checks": checks, "overall": overall}, sort_keys=True, default=str)


def test_corpus_checks_invariant_under_rewriting_the_scene():
    rng = random.Random("metamorphic")
    compared = 0
    for path in sorted(cli.corpus_dir().iterdir(), key=lambda p: p.name):
        if not path.name.endswith(".json"):
            continue
        data = json.loads(path.read_text())
        as_written = Scene(data)
        rewritten = Scene(_rewritten(data, rng))
        for spec in as_written.options.get("expected", ()):
            command, sub = spec["command"], spec.get("sub")
            assert _outcome(rewritten, command, sub) == _outcome(as_written, command, sub), (
                path.name, command, sub)
            compared += 1
    assert compared == 58


def test_corpus_invariants_under_signed_coordinate_permutations():
    rng = random.Random("isometry")
    compared = moved = 0
    for path in sorted(cli.corpus_dir().iterdir(), key=lambda p: p.name):
        if not path.name.endswith(".json"):
            continue
        data = json.loads(path.read_text())
        as_written = Scene(data)
        image = _isometry(data, rng)
        moved += image != data
        isometric = Scene(image)
        for spec in as_written.options.get("expected", ()):
            command, sub = spec["command"], spec.get("sub")
            want = _invariants(as_written, command, sub)
            assert _invariants(isometric, command, sub) == want, (path.name, command, sub)
            compared += 1
    assert compared == 58
    assert moved >= 20


def _affine_map(data, rng):
    """The E^n scene moved by a seeded invertible rational affine map
    x -> A x + b.  Points move to A x + b.  A covector row (a0, a), the
    function a0 + a.x, moves to (a0 - a A^-1 b, a A^-1), which takes the
    same value at the image of each point: hyperplanes, ``u_hyperplane``
    and the half-spaces of ``polytope_A`` move alike, each half-space
    keeping its sense."""
    n = data["n"]

    def draw():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 2))

    a = [[draw() for _ in range(n)] for _ in range(n)]
    while exact.rank(a) < n:
        a = [[draw() for _ in range(n)] for _ in range(n)]
    b = [draw() for _ in range(n)]
    a_t = [list(col) for col in zip(*a)]

    def point(p):
        x = [Fraction(v) for v in p]
        return [str(sum(q * v for q, v in zip(row, x)) + c) for row, c in zip(a, b)]

    def covector(row):
        a0, *lin = (Fraction(v) for v in row)
        moved = reference_solve_unique(a_t, lin)  # y A = lin, so y = lin A^-1
        return [str(a0 - sum(y * c for y, c in zip(moved, b)))] + [str(y) for y in moved]

    out = dict(data, hyperplanes=[covector(r) for r in data.get("hyperplanes", ())])
    out["points"] = [point(p) for p in data.get("points", ())]
    if data.get("polytope_A") is not None:
        out["polytope_A"] = {"halfspaces": [covector(h) for h in data["polytope_A"]["halfspaces"]]}
    if "u_hyperplane" in data.get("options", {}):
        out["options"] = dict(data["options"], u_hyperplane=covector(data["options"]["u_hyperplane"]))
    return out


def test_euclidean_corpus_invariants_under_affine_maps():
    rng = random.Random("affine")
    compared = 0
    for path in sorted(cli.corpus_dir().iterdir(), key=lambda p: p.name):
        if not path.name.endswith(".json"):
            continue
        data = json.loads(path.read_text())
        if data["geometry"] != "E":
            continue
        as_written = Scene(data)
        moved = Scene(_affine_map(data, rng))
        for spec in as_written.options.get("expected", ()):
            command, sub = spec["command"], spec.get("sub")
            want = _invariants(as_written, command, sub)
            assert _invariants(moved, command, sub) == want, (path.name, command, sub)
            compared += 1
    assert compared == 31
