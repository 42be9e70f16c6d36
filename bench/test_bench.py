"""Tests of the benchmark harness; not part of the package's test suite.

    python3 -m pytest -q bench/test_bench.py

The work-count test runs every workload traced, twice, which takes about
four minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import traced_cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    return proc, proc.stdout.strip().splitlines()


def test_benchmark_json_names_what_the_harness_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    iteration = {"traced": False, "wall_s": 2.0, "cpu_s": 3.0, "peak_rss_mb": 40.0,
                 "problems": [], "accuracy": 1.0, "vectors": 10, "train_passes": 0}
    e2e = run.end_to_end([iteration], [0.2])
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(e2e)
    assert set(e2e) - {m["name"] for m in SPEC["end_to_end"]} <= set(run.EXTRA_UNITS)
    layers = set(run.layer_metrics(spans.aggregate([]), {}))
    assert layers | {"trace.wall_s", "trace.overhead_s"} == {
        m["name"] for m in SPEC["per_layer"]}


def test_aggregate_subtracts_direct_children_only():
    recorded = [
        {"name": "outer", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "inner", "parent": 0, "start": 1.0, "end": 4.0, "counts": {"n": 2}},
        {"name": "leaf", "parent": 1, "start": 2.0, "end": 3.0},
        {"name": "inner", "parent": 0, "start": 5.0, "end": 6.0, "counts": {"n": 3}},
    ]
    agg = spans.aggregate(recorded)
    assert agg["outer"]["self_s"] == pytest.approx(6.0)
    assert agg["inner"] == {"calls": 2, "busy_s": pytest.approx(4.0),
                            "self_s": pytest.approx(3.0), "counts": {"n": 5}}


def test_tracer_records_nesting_and_counts():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x * 2, lambda result, x: {"out": result})
    outer = tracer.wrap("outer", lambda: inner(3) + inner(4))
    assert outer() == 14
    assert [(s["name"], s["parent"]) for s in tracer.spans] == [
        ("outer", None), ("inner", 0), ("inner", 0)]
    assert spans.aggregate(tracer.spans)["inner"]["counts"] == {"out": 14}


def test_gemm_flop_per_sample():
    # forward 2*(6+12), weight gradients 2*(6+12), delta into layer 1 2*12
    assert traced_cli.gemm_flop_per_sample((2, 3, 4)) == 96
    assert traced_cli.gemm_flop_per_sample((200, 256, 128, 64, 32, 16, 7)) == 466592


def test_high_percentile_needs_ten_samples_above_it():
    assert run.high_percentile([3.0, 1.0, 2.0]) == ("max", 3.0)
    label, value = run.high_percentile([float(i) for i in range(100)])
    assert label == "p90" and 89.0 <= value <= 90.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = result_line("--workload", "synth", "--seed", "1", "--seconds", "1",
                              "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_work_counts_repeat_exactly(workload):
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in run.COUNT_UNITS]
    results = []
    for _ in range(2):
        proc, lines = result_line("--workload", workload, "--seed", "3",
                                  "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(lines[-1])
        assert result["correct"], proc.stdout
        results.append({name: result["metrics"][name]["value"] for name in counts})
    assert results[0] == results[1]
    mlp_work = sum(v for k, v in results[0].items() if k.startswith("mlp."))
    assert (mlp_work == 0) == (workload == "synth")
