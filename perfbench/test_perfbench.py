"""Tests of the benchmark itself: output checks, metric names, seeded inputs
and the tracer's tolerance of code that moved.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
from child import SCAN_STREAM_METRIC, scan_name, scan_points
from tracer import Target, Tracer
from workloads import WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

TINY_SWEEP = {
    "domain": {"lower": [-2.0], "upper": [2.0]},
    "objectives": [{"kind": "quadratic-bowl", "theta": [0.5], "b": 1.0}],
    "schedule": {"episodes": 1},
    "noise": {"kind": "gaussian", "sigma2": 1.0},
    "algorithm": {"variant": "fixed-step", "tuning": "auto", "x0": [-0.5]},
    "horizon": 200,
    "replications": 3,
    "base_seed": 5,
    "sweep": {"axis": "T", "values": [200, 400, 800]},
}


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _cli(args: list[str], cwd: Path) -> None:
    subprocess.run([sys.executable, "-c", run.CLI_ENTRY, *args], cwd=cwd, env=_env(), check=True, capture_output=True)


def test_a_flipped_csv_byte_fails_the_output_check(tmp_path):
    bench = run.Bench(ROOT, tmp_path, "run-trace", 0, None)
    (tmp_path / "tiny.json").write_text(json.dumps(dict(TINY_SWEEP, replications=2)), encoding="utf-8")
    out = tmp_path / "out"
    _cli(["sweep", "--config", str(tmp_path / "tiny.json"), "--out", str(out)], tmp_path)
    names = ["exponent_fit.csv", "sweep_summary.csv"]
    bench.expected = run.digest_outputs(out, names)
    assert bench._check(run.digest_outputs(out, names), run.Outcome()) == [True]

    path = out / "sweep_summary.csv"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    assert bench._check(run.digest_outputs(out, names), run.Outcome()) == [False]


def test_a_changed_library_result_fails_the_output_check(tmp_path):
    bench = run.Bench(ROOT, tmp_path, "diagnostics-wide", 0, [{"value": "1.5"}, {"mean": "0.25", "holds": True}])
    assert bench._check([{"value": "1.5"}, {"mean": "0.25", "holds": True}], run.Outcome()) == [True, True]
    assert bench._check([{"value": "1.5000000000000002"}, None], run.Outcome()) == [False, False]


def test_benchmark_json_keeps_to_the_format():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_end_to_end_metric_names_match_benchmark_json():
    outcome = run.Outcome(setup_s=[0.3, 0.31, 0.32], gauge_s=[0.17, 0.18, 0.16, 0.17])
    outcome.passes = [run.Pass(False, 4.0 + i / 10, 40.0, 1, 0, [4.0 + i / 10]) for i in range(3)]
    metrics, _ = run.end_to_end(outcome, rep_steps=30_000)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == expected


def test_per_layer_metric_names_match_benchmark_json(tmp_path):
    (tmp_path / "tiny.json").write_text(json.dumps(TINY_SWEEP), encoding="utf-8")
    trace = tmp_path / "trace.json"
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), "cli", "--trace", str(trace), "--"]
        + ["sweep", "--config", str(tmp_path / "tiny.json"), "--out", str(tmp_path / "out")],
        cwd=tmp_path,
        env=_env(),
        check=True,
        capture_output=True,
    )
    snapshot = json.loads(trace.read_text(encoding="utf-8"))
    assert snapshot["absent_spans"] == [] and snapshot["absent_counters"] == []
    assert snapshot["counts"]["trajectory.rep_steps"] == 3 * (200 + 400 + 800)

    outcome = run.Outcome()
    outcome.passes = [run.Pass(False, 1.0, 40.0, 1, 0, [1.0]), run.Pass(True, 1.1, 40.0, 1, 0, [1.1], None, snapshot)]
    scan = {scan_name(*point): 100.0 for point in scan_points()}
    scan[SCAN_STREAM_METRIC] = 20.0
    metrics, _ = run.per_layer(outcome, scan)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_inputs_are_a_pure_function_of_the_seed(workload):
    assert make_inputs(workload, 3) == make_inputs(workload, 3)
    other = make_inputs(workload, 4)
    assert other != make_inputs(workload, 3)
    assert other["rep_steps"] == make_inputs(workload, 3)["rep_steps"]

    script = f"import json, workloads; print(json.dumps(workloads.make_inputs({workload!r}, 3), sort_keys=True))"
    outputs = {
        subprocess.run(
            [sys.executable, "-c", script],
            cwd=HERE,
            env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)),
            check=True,
            capture_output=True,
            text=True,
        ).stdout
        for hash_seed in (1, 2)
    }
    assert outputs == {json.dumps(make_inputs(workload, 3), sort_keys=True) + "\n"}


def test_tracer_leaves_out_a_target_that_no_longer_exists():
    def present(x):
        return x + 1

    def count(state, args, kwargs, result):
        state.counts["kept.calls"] += 1

    module = types.ModuleType("kwbandit_tracer_probe")
    module.present = module.alias = present
    sys.modules[module.__name__] = module
    tracer = Tracer(package=module.__name__)
    try:
        tracer.install(
            [
                Target(module.__name__, "gone", "moved", ("moved.calls",)),
                Target(module.__name__, "present", "kept", ("kept.calls",), count),
            ]
        )
        assert module.present(1) == 2 and module.alias(2) == 3
        snapshot = tracer.snapshot()
    finally:
        tracer.uninstall()
        del sys.modules[module.__name__]
    assert snapshot["absent_spans"] == ["moved"] and snapshot["absent_counters"] == ["moved.calls"]
    assert snapshot["counts"] == {"kept.calls": 2} and "kept" in snapshot["inclusive_ns"]
    assert module.present is present and module.alias is present


def test_tail_latency_is_the_highest_percentile_with_ten_calls_beyond_it():
    assert run.tail_latency([float(v) for v in range(1, 101)]) == (90.0, 90.0)
    assert run.tail_latency([float(v) for v in range(1, 41)]) == (30.0, 75.0)


def test_tail_latency_of_few_calls_leaves_a_quarter_beyond_it():
    assert run.tail_latency([float(v) for v in range(10, 0, -1)]) == (7.0, 70.0)
    assert run.tail_latency([3.0, 1.0, 2.0]) == (2.0, 100.0 * 2 / 3)
    assert run.tail_latency([5.0]) == (5.0, 100.0)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "run-trace", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
