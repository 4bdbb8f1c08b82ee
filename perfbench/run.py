"""geotits pipeline benchmark.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``):

* ``corpus``: the 58 pinned commands over the 23 bundled scenes, in
  sorted order.  This is what users and CI run; ``exact`` leads it.
* ``s3_generic``: one S^3 scene with 4 hyperplanes in general position,
  drawn once with a pinned seed, ``verify solomon-tits``.  Face-simplex
  incidence in ``groups`` and SNF with dense U/V certificates work hard.
* ``e2_resolution``: one seeded E^2 scene with 5 generic lines (6
  bounded regions, the resolution guard), ``resolution``.  Rank-only
  SNF on sparse boundaries dominates; the exact core is idle.

Every pass runs in a fresh interpreter, one process at a time, so no
cache survives from one pass into the next (as with one CLI process per
command) and peak memory is per pass.  Passes repeat until the next one
would end after ``--seconds``; at least one always runs.

``--trace 0`` prints the end-to-end metrics, measured untraced.  The
host's speed drifts by tens of percent from one minute to the next, so
the times in the result line are in reference seconds (``speed.py``):
the measured time scaled by the speed of a fixed probe that runs
alongside.  ``pass_ref_s`` is the median pass, ``setup_s`` the median of
several set-ups (import geotits, generate and build the scenes; timed
after the standard library's ``fractions``, which the probe uses, is
loaded), both in reference seconds, and ``peak_rss_mb`` the median over
passes.  The measured ``wall_s`` and set-up time and the probes' mean
``speed`` are printed next to them.  ``scenario_p50_s`` and
``scenario_p90_s``, over every (measured) scenario timing of the run,
are printed with their sample count but left out of the result line:
each rests on a few single timings.  Every pass runs under one fixed
hash seed (``WORKER_ENV``).  ``mismatch_frac``, the share of scenarios
that failed a correctness check, is printed and is the ``failed``/
``attempted`` pair of the result line.

``--trace 1`` runs pairs of one untraced and one traced pass, taking
turns at running first, and prints the per-layer metrics of the traced
passes (medians over pairs), plus ``trace.overhead_s``, traced minus
untraced wall time (both measured, not scaled; the tracer and the
sampler do not run together).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The exit code is
0 when the benchmark ran, whether or not every check passed; it is not
0, and no result is printed, when it could not run.
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

if __package__ in (None, ""):
    sys.path.insert(0, ROOT)

from perfbench import workloads  # noqa: E402  (imports no geotits code)

WORKER = os.path.join(HERE, "worker.py")
PACKAGE = os.path.join(ROOT, "src", "geotits", "__init__.py")

SETUP_PROBES = 15
DEADLINE_S = 175  # a run must end within 180 s

# geotits's output does not depend on the hash seed, but its work does:
# set iteration order picks the path, and one S^3 scene took 11.9 to
# 15.5 s over four random hash seeds, 14.5 to 15.2 s under one fixed
# seed.  Every pass uses the same hash seed so that runs compare.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_ref_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "exact.self_s": "s",
    "exact.rref.calls": "count",
    "exact.signature_on_subspace.calls": "count",
    "exact.feasible.calls": "count",
    "exact.feasible.feasible_ratio": "ratio",
    "geometry.self_s": "s",
    "geometry.contains_vector.calls": "count",
    "geometry.span_points.calls": "count",
    "arrangement.self_s": "s",
    "arrangement.cells": "count",
    "collection.self_s": "s",
    "collection.closures": "count",
    "collection.closures_per_scenario": "count",
    "collection.members": "count",
    "groups.self_s": "s",
    "groups.apartment_matrix.calls": "count",
    "groups.apartment_cycles": "count",
    "kernel.self_s": "s",
    "kernel.snf.calls": "count",
    "kernel.snf.transform_calls": "count",
    "kernel.snf.nnz_in": "count",
    "kernel.snf.dense_transform_entries": "count",
    "kernel.solve_calls": "count",
    "complexes.self_s": "s",
    "complexes.cells": "count",
    "complexes.homology.calls": "count",
    "resolution.self_s": "s",
    "resolution.levels": "count",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark could not run (not: a check failed)."""


def percentile(values, q):
    """Linear interpolation between closest ranks; q in [0, 1]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def spawn(workload, seed, mode, deadline):
    """Run one worker to completion and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the next pass")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass of {workload} did not end within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass of {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat(unit, seconds, start):
    """Call ``unit`` until the next call would end after ``seconds``."""
    results = []
    t0 = time.monotonic()
    while True:
        results.append(unit())
        per_unit = (time.monotonic() - t0) / len(results)
        if time.monotonic() - start + per_unit > seconds:
            return results


def tally(passes):
    """(attempted, failed, failure lines) over the scenarios of the passes."""
    attempted = failed = 0
    lines = []
    for p in passes:
        for rec in p["scenarios"]:
            attempted += 1
            if rec["problems"]:
                failed += 1
                lines.append(f"FAIL {rec['key']}: {'; '.join(rec['problems'])}")
    return attempted, failed, lines


def leaks(passes):
    """Lines flagging untraced passes that ran with tracer wrappers."""
    n = sum(p["wrappers_installed"] for p in passes if "wrappers_installed" in p)
    return [f"FAIL {n} tracer wrappers were installed in untraced passes"] if n else []


def measure(workload, seed, seconds, deadline):
    """End-to-end metrics; returns (values, units, passes, lines)."""
    start = time.monotonic()
    setups = [spawn(workload, seed, "setup", deadline) for _ in range(SETUP_PROBES)]
    passes = repeat(lambda: spawn(workload, seed, "pass", deadline), seconds, start)
    times = [rec["seconds"] for p in passes for rec in p["scenarios"]]
    values = {
        "setup_s": statistics.median(r["setup_ref_s"] for r in setups),
        "pass_ref_s": statistics.median(p["pass_ref_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    lines = [f"passes={len(passes)} setups={len(setups)} "
             f"probes={sum(p['probes'] for p in passes)}"]
    lines += [f"{name:36s} {value:.6g} {END_TO_END_UNITS[name]}" for name, value in values.items()]
    measured = {
        "setup_measured_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "speed": (statistics.median(p["speed"] for p in passes), "x reference"),
    }
    lines += [f"{name:36s} {value:.6g} {unit}" for name, (value, unit) in measured.items()]
    for name, q in (("scenario_p50_s", 0.5), ("scenario_p90_s", 0.9)):
        lines.append(f"{name:36s} {percentile(times, q):.6g} s (n={len(times)})")
    return values, END_TO_END_UNITS, passes, lines


def layer_metrics(totals, scenarios):
    """Per-layer metrics of one traced pass from its additive totals."""
    values = {name: totals[name] for name in PER_LAYER_UNITS if name in totals}
    calls = totals["exact.feasible.calls"]
    values["exact.feasible.feasible_ratio"] = totals["exact.feasible.feasible"] / calls if calls else 0.0
    values["collection.closures_per_scenario"] = totals["collection.closures"] / scenarios
    return values


def measure_traced(workload, seed, seconds, deadline):
    """Per-layer metrics; returns (values, units, passes, lines)."""
    start = time.monotonic()
    order = itertools.count(seed)

    def pair():
        # which side runs first alternates from pair to pair (and from
        # seed to seed), so that a drift in machine speed does not bias
        # the overhead
        if next(order) % 2:
            traced = spawn(workload, seed, "traced", deadline)
            return spawn(workload, seed, "pass", deadline), traced
        untraced = spawn(workload, seed, "pass", deadline)
        return untraced, spawn(workload, seed, "traced", deadline)

    pairs = repeat(pair, seconds, start)
    per_pass = [layer_metrics(t["layers"], len(t["scenarios"])) for _, t in pairs]
    values = {name: statistics.median(m[name] for m in per_pass)
              for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
    values["trace.overhead_s"] = statistics.median(t["wall_s"] - u["wall_s"] for u, t in pairs)
    layer_sum = sum(v for k, v in values.items() if k.endswith(".self_s"))
    lines = [f"pairs={len(pairs)} layer_self_sum_s={layer_sum:.6g} "
             f"traced_wall_s={values['trace.wall_s']:.6g}"]
    lines += [f"{name:36s} {value:.6g} {PER_LAYER_UNITS[name]}" for name, value in values.items()]
    return values, PER_LAYER_UNITS, [p for pair in pairs for p in pair], lines


def main(argv=None):
    ap = argparse.ArgumentParser(description="geotits pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(PACKAGE):
        print(f"perfbench: no geotits sources at {os.path.dirname(PACKAGE)}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    run = measure_traced if args.trace else measure
    try:
        values, units, passes, lines = run(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed, failures = tally(passes)
    leaked = leaks(passes)
    machine = dict(passes[0]["machine"], nproc=len(os.sched_getaffinity(0)))
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} " + lines[0])
    print("machine " + json.dumps(machine, sort_keys=True))
    for line in lines[1:]:
        print(line)
    print(f"{'mismatch_frac':36s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for line in leaked + failures:
        print(line)
    print(json.dumps({
        "correct": not leaked and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
