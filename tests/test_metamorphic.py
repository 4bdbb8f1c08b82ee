"""Metamorphic test: a scene's checks do not depend on how it is written.

Every corpus command runs on the scene as written and on a rewritten
copy: the hyperplane rows shuffled, each row scaled by a nonzero
rational of either sign, and in points mode the points shuffled.  The
hyperplanes are the same, so the ``checks`` blocks (or the unmet
hypothesis) must match byte for byte; only ``scene_digest`` may move.
"""

import json
import random
from fractions import Fraction

from geotits import cli
from geotits.cli import HypothesesError, Scene, run_command


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
