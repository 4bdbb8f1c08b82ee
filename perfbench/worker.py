"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --workload corpus --seed 1 --mode pass

Modes: ``setup`` imports geotits and builds the workload's scenes, then
stops; ``pass`` also runs every scenario once, untraced; ``traced`` runs
the pass with the outside-in tracer installed.  The speed sampler of
``speed.py`` runs during set-up and during an untraced pass, not during
a traced one.  The last line of stdout is one JSON object with the
timings (measured and in reference seconds), the pass's correctness
problems and, when traced, its per-layer totals.

The program is driven only through its public CLI entry points: a
``Scene`` built from scene JSON, ``run_command``, ``make_report`` and
``emit``, with one ``Scene`` per scene reused across that scene's
commands, as ``geotits corpus`` does.
"""

import argparse
import io
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

if __package__ in (None, ""):
    sys.path.insert(0, ROOT)

from perfbench import workloads  # noqa: E402  (imports no geotits code)

EXIT_INVALID_SCENE = 2


def setup(workload, seed):
    """Import geotits and build the scenes; returns (cli, scenarios, scenes)."""
    sys.path.insert(0, SRC)
    import geotits.cli as cli

    where = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    if where != SRC:
        raise RuntimeError(f"geotits was imported from {where}, not from {SRC}")
    scenarios = workloads.WORKLOADS[workload](seed)
    scenes = {}
    for sc in scenarios:
        if sc.scene_key not in scenes:
            scenes[sc.scene_key] = cli.Scene(sc.scene_data)
    return cli, scenarios, scenes


def run_scenario(cli, scene, sc):
    """Run one command as ``geotits`` would; returns (exit, checks, report text)."""
    try:
        checks, overall = cli.run_command(sc.command, sc.sub, scene, seed=0)
        report = cli.make_report(scene, sc.command, sc.sub, checks, overall, 0)
        got_exit = workloads.EXIT_PASS if overall == "PASS" else workloads.EXIT_FAIL
    except cli.HypothesesError as exc:
        # the block run_corpus records; the report is what main() emits
        checks = [{"name": sc.command, "verdict": "HYPOTHESES_NOT_MET", "reason": str(exc)}]
        report = {"error": "HYPOTHESES_NOT_MET", "detail": str(exc)}
        got_exit = workloads.EXIT_HYPOTHESES
    except cli.SceneError as exc:
        checks = []
        report = {"error": "INVALID_SCENE", "detail": str(exc)}
        got_exit = EXIT_INVALID_SCENE
    buf = io.StringIO()
    cli.emit(report, stream=buf)
    return got_exit, checks, buf.getvalue()


def run_pass(cli, scenarios, scenes, digests, clock=time.perf_counter, sampler=None):
    """Every scenario once.  Returns (wall seconds, per-scenario records);
    with a ``sampler`` running, its probes are taken out of every time."""
    def now():
        return clock() - (sampler.spent if sampler else 0.0)

    records = []
    t_pass = now()
    for sc in scenarios:
        t0 = now()
        try:
            got_exit, checks, text = run_scenario(cli, scenes[sc.scene_key], sc)
        except Exception as exc:  # a crash is a wrong verdict, not a stop
            seconds = now() - t0
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            seconds = now() - t0
            problems = workloads.scenario_problems(sc, got_exit, checks, text, digests)
        records.append({"key": sc.key, "seconds": seconds, "problems": problems})
    return now() - t_pass, records


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "pass", "traced"))
    args = ap.parse_args(argv)

    # the probe's imports (fractions) are loaded before the timed set-up
    from perfbench import speed

    with speed.Sampler(speed.SETUP_INTERVAL_S) as sampler:
        t0 = time.perf_counter()
        cli, scenarios, scenes = setup(args.workload, args.seed)
        setup_s = time.perf_counter() - t0 - sampler.spent
    import geotits

    out = {
        "setup_s": setup_s,
        "setup_ref_s": setup_s * sampler.speed(),
        "machine": {"python": platform.python_version(),
                    "kernel_backend": geotits.kernel_backend},
    }
    if args.mode != "setup":
        from perfbench import tracer

        digests = workloads.load_digests(args.workload, args.seed)
        if args.mode == "traced":
            trace = tracer.Tracer().install()
            try:
                with trace:
                    wall_s, records = run_pass(cli, scenarios, scenes, digests)
            finally:
                trace.uninstall()
            out["layers"] = trace.totals()
        else:
            out["wrappers_installed"] = tracer.installed_wrappers()
            with speed.Sampler() as sampler:
                wall_s, records = run_pass(cli, scenarios, scenes, digests, sampler=sampler)
            out["speed"] = sampler.speed()
            out["probes"] = len(sampler.times)
            out["pass_ref_s"] = wall_s * out["speed"]
        out["wall_s"] = wall_s
        out["scenarios"] = records
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
