"""Tests of the benchmark itself (not of geotits).

    python3 -m pytest perfbench/tests -q
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import run, speed, tracer, worker, workloads  # noqa: E402

SMALL_SCENE = "e2_triangle.json"


def small_corpus(seed):
    return [sc for sc in workloads.corpus_scenarios(seed) if sc.scene_key == SMALL_SCENE]


@pytest.fixture(scope="module")
def small():
    cli, _, _ = worker.setup("corpus", workloads.DEFAULT_SEED)
    scenarios = small_corpus(workloads.DEFAULT_SEED)
    scenes = {SMALL_SCENE: cli.Scene(scenarios[0].scene_data)}
    digests = workloads.load_digests("corpus", workloads.DEFAULT_SEED)
    return cli, scenarios, scenes, digests


# -- generators and oracles ---------------------------------------------


def test_generator_is_deterministic_per_seed():
    make = workloads.WORKLOADS["e2_resolution"]
    assert make(7)[0].scene_data == make(7)[0].scene_data
    drawn = {json.dumps(make(seed)[0].scene_data) for seed in range(5)}
    assert len(drawn) > 1
    assert workloads.s3_draw(7) == workloads.s3_draw(7) != workloads.s3_draw(8)
    pinned = workloads.WORKLOADS["s3_generic"]
    assert pinned(3)[0].scene_data == pinned(4)[0].scene_data


class ScriptedRng:
    """Returns the given integers in order, as ``randint`` would."""

    def __init__(self, values):
        self.values = iter(values)

    def randint(self, lo, hi):
        v = next(self.values)
        assert lo <= v <= hi
        return v


def test_generator_rejects_degenerate_draws():
    # E^2: three concurrent lines through the origin, then parallel
    # lines, then a good draw
    concurrent = [0, 1, 0, 0, 0, 1, 0, 1, 1]
    parallel = [0, 1, 0, 1, 1, 0, 0, 0, 1]
    good = [0, 1, 0, 0, 0, 1, 1, -1, -1]
    rng = ScriptedRng(concurrent + parallel + good)
    assert workloads.draw_covectors(rng, "E", 2, 3) == [(0, 1, 0), (0, 0, 1), (1, -1, -1)]


@pytest.mark.parametrize("kind,n,covs,ok", [
    ("S", 3, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)], True),
    ("S", 3, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0)], False),
    ("S", 2, [(1, 2, 3), (2, 4, 6)], False),
    ("E", 2, [(0, 1, 0), (0, 0, 1), (1, -1, -1), (2, -5, -1)], True),
    ("E", 2, [(0, 1, 0), (1, 1, 0), (0, 0, 1)], False),  # two parallel lines
    ("E", 2, [(0, 1, 0), (0, 0, 1), (0, 1, 1)], False),  # concurrent at the origin
])
def test_general_position(kind, n, covs, ok):
    assert workloads.in_general_position(kind, n, covs) is ok


def test_oracle_formulas():
    assert workloads.sphere_regions(3, 5) == 30
    assert workloads.sphere_regions(3, 4) == 16
    assert workloads.sphere_regions(2, 3) == 8
    assert workloads.euclidean_bounded_regions(2, 5) == 6
    assert workloads.euclidean_bounded_regions(2, 4) == 3
    assert workloads.int_rank([(2, 4), (1, 2)]) == 1
    assert workloads.int_rank([(0, 0, 3), (0, 5, 1), (7, 0, 0)]) == 3


# -- correctness checks ---------------------------------------------------


def test_checks_pass_on_the_real_reports(small):
    cli, scenarios, scenes, digests = small
    _, records = worker.run_pass(cli, scenarios, scenes, digests)
    assert records and all(not r["problems"] for r in records)


def test_checks_flag_an_altered_report_or_expectation(small):
    cli, scenarios, scenes, digests = small
    sc = scenarios[0]
    got_exit, checks, text = worker.run_scenario(cli, scenes[sc.scene_key], sc)
    assert workloads.scenario_problems(sc, got_exit, checks, text, digests) == []

    altered = text.replace('"PASS"', '"FAIL"', 1)
    assert workloads.scenario_problems(sc, got_exit, checks, altered, digests)

    assert workloads.scenario_problems(sc, got_exit + 1, checks, text, digests)

    block = dict(sc.require[0])
    key = next(k for k in block if k != "name")
    block[key] = "something else"
    wrong = workloads.Scenario(sc.key, sc.scene_key, sc.scene_data, sc.command, sc.sub,
                               exit=sc.exit, require=[block])
    assert workloads.scenario_problems(wrong, got_exit, checks, text, digests)

    assert workloads.scenario_problems(sc, got_exit, checks, text, {}) == [
        "no pinned report digest"]


def test_oracle_flags_a_wrong_count():
    oracle = workloads.oracle_counts("resolution", ("basis_size", "h1_rank"), 6)
    good = [{"name": "resolution", "basis_size": 6, "h1_rank": 6, "verdict": "PASS"}]
    assert oracle(good) == []
    assert oracle([dict(good[0], h1_rank=5)])
    assert oracle([dict(good[0], verdict="FAIL")])
    assert oracle([])


# -- tracer ---------------------------------------------------------------


def test_layer_self_times_sum_to_the_traced_wall_time(small):
    cli, scenarios, scenes, digests = small
    trace = tracer.Tracer().install()
    try:
        assert tracer.installed_wrappers() > 0
        with trace:
            _, records = worker.run_pass(cli, scenarios, scenes, digests)
    finally:
        trace.uninstall()
    assert all(not r["problems"] for r in records)
    layers = run.layer_metrics(trace.totals(), len(records))
    self_times = {k: v for k, v in layers.items() if k.endswith(".self_s")}
    assert all(v >= 0 for v in self_times.values())
    assert sum(self_times.values()) == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    # the program's layers, not the benchmark's own code, hold the time
    assert self_times["bench.self_s"] < 0.2 * layers["trace.wall_s"]
    assert layers["exact.rref.calls"] > 0 and layers["collection.closures"] > 0


def test_tracer_wraps_by_name_imports_and_restores_them():
    from geotits import _kernel, complexes, groups, resolution

    original = _kernel.smith_normal_form
    trace = tracer.Tracer().install()
    try:
        for module in (_kernel, complexes, groups, resolution):
            assert getattr(module.smith_normal_form, tracer.MARK) is original
    finally:
        trace.uninstall()
    for module in (_kernel, complexes, groups, resolution):
        assert module.smith_normal_form is original
    assert tracer.installed_wrappers() == 0


def test_untraced_pass_runs_without_wrappers(small, monkeypatch):
    tracer.Tracer().install().uninstall()
    monkeypatch.setitem(workloads.WORKLOADS, "corpus", small_corpus)
    buf = io.StringIO()
    with redirect_stdout(buf):
        worker.main(["--workload", "corpus", "--seed", "1", "--mode", "pass"])
    out = json.loads(buf.getvalue().splitlines()[-1])
    assert out["wrappers_installed"] == 0
    assert all(not r["problems"] for r in out["scenarios"])
    assert out["pass_ref_s"] == out["wall_s"] * out["speed"] > 0


def test_a_leaked_wrapper_makes_the_run_incorrect(monkeypatch):
    def fake_spawn(workload, seed, mode, deadline):
        result = {"setup_s": 0.1, "setup_ref_s": 0.2, "machine": {}}
        if mode == "pass":
            result.update(wall_s=1.0, speed=1.5, pass_ref_s=1.5, probes=25, peak_rss_mb=10.0,
                          wrappers_installed=3,
                          scenarios=[{"key": "k", "seconds": 1.0, "problems": []}])
        return result

    monkeypatch.setattr(run, "spawn", fake_spawn)
    values, _, passes, _ = run.measure("s3_generic", 1, 0, deadline=None)
    assert values == {"setup_s": 0.2, "pass_ref_s": 1.5, "peak_rss_mb": 10.0}
    assert run.leaks(passes) == ["FAIL 3 tracer wrappers were installed in untraced passes"]
    assert run.leaks([dict(p, wrappers_installed=0) for p in passes]) == []


# -- speed sampler --------------------------------------------------------


def test_speed_is_the_mean_speed_relative_to_the_reference():
    ref = speed.REF_PROBE_S
    assert speed.speed([ref] * 10) == pytest.approx(1.0)
    assert speed.speed([2 * ref] * 10) == pytest.approx(0.5)
    assert speed.speed([ref, ref / 3]) == pytest.approx(2.0)
    # one probe in ten hit by a long interrupt moves it by at most a tenth
    assert speed.speed([ref] * 9 + [1000 * ref]) == pytest.approx(0.9001)


def test_sampler_probes_during_the_block_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler(interval=0.005) as sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(sampler.times) >= 5
    assert sampler.spent == pytest.approx(sum(sampler.times))
    assert sampler.speed() > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_pass_time_leaves_the_probes_out(small):
    import time

    cli, scenarios, scenes, digests = small
    with speed.Sampler(interval=0.002) as sampler:
        t0 = time.perf_counter()
        wall_s, records = worker.run_pass(cli, scenarios, scenes, digests, sampler=sampler)
        gross = time.perf_counter() - t0
    assert sampler.times and all(not r["problems"] for r in records)
    assert wall_s + sampler.spent == pytest.approx(gross, abs=0.01)
    assert sum(r["seconds"] for r in records) <= wall_s


def test_percentile():
    assert run.percentile([3.0], 0.9) == 3.0
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert run.percentile(list(range(11)), 0.9) == 9


def test_result_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(workloads.WORKLOADS)
