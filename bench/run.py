#!/usr/bin/env python3
"""whisksim benchmark: CLI workloads driven by one closed-loop client.

    python3 bench/run.py --workload train-eval --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout that holds src/whisksim. The client runs
one whisksim command at a time, each in a fresh interpreter with
PYTHONPATH=src, and starts the next only after the previous one ended. The
seed is passed to every command as --seed. The BLAS thread variables
(OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS) are recorded as
found and never set, so a change in BLAS threading shows in the metrics.

--trace 0 measures the end-to-end metrics listed in BENCHMARK.json; --trace 1
alternates untraced and traced iterations (bench/traced_cli.py) and reports
the per-layer metrics. Every iteration's outputs are checked and hashed. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the full record, with the environment and the
SHA-256 of every output file, goes to .bench_out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from spans import aggregate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(".bench_out")           # relative to ROOT: reports embed --out
HARD_LIMIT_S = 170.0               # the whole run ends within 180 s
SETUP_PROBES = 5                   # at the start; then one before each iteration
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Printed beside the BENCHMARK.json metrics but not in the result line:
# fail_ratio is 0 on a healthy run, and synth trains no samples.
EXTRA_UNITS = {"fail_ratio": "ratio", "train_samples_per_s": "1/s",
               "min_speed_accuracy": "ratio"}
COUNT_UNITS = {"count", "B", "GFLOP", "ratio"}   # per-layer work counts

# Four repetitions keep mlp.train above 95% of train-eval's wall time and
# give the repetition loop something to parallelize, at about 20 s an
# iteration, so a 40 s run holds one or two iterations.
TRAIN_EVAL_CONFIG = {"repetitions": 4}
MIN_ACCURACY = 0.80                # acceptance criterion 7
SPEED_SWEEP_SPEEDS = 5
SYNTH_WINDOWS = 2100               # 7 terrains x 300 one-second windows
# Dominant temporal frequency of each default profile at 0.2 m/s, from the
# table in whisksim.terrain's docstring; it scales linearly with speed.
REFERENCE_SPEED_M_S = 0.2
DOMINANT_HZ_AT_REFERENCE = {"flat": 5.0, "cement": 12.0, "brick": 20.0,
                            "carpet": 28.0, "soft-grass": 36.0, "sand": 44.0,
                            "soft-soil": 52.0}

# A probe interpreter does what every command does before its work starts:
# imports, config resolution and profile resolution.
SETUP_PROBE = """\
import sys
from whisksim import cli, experiment
experiment.resolve_profiles(cli._resolve_config(cli.build_parser().parse_args(sys.argv[1:])))
print(cli.__file__)
"""


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Outcome:
    """What one iteration's reports say: problems found and work done."""

    problems: list
    accuracy: float = math.nan
    vectors: int = 0
    train_passes: int = 0
    min_speed_accuracy: float | None = None


def check_train_eval(out: Path) -> Outcome:
    report = load_json(out / "train_eval_report.json")
    problems = []
    accuracy = report["mean_overall_accuracy"]
    if accuracy < MIN_ACCURACY:
        problems.append(f"mean accuracy {accuracy:.4f} below {MIN_ACCURACY}")
    reps = report["repetitions"]
    if len(reps) != TRAIN_EVAL_CONFIG["repetitions"]:
        problems.append(f"{len(reps)} repetitions")
    passes = sum(r["train_size"] for r in reps) * report["config"]["train"]["epochs"]
    return Outcome(problems, accuracy, report["dataset_vectors"], passes)


def check_speed_sweep(out: Path) -> Outcome:
    report = load_json(out / "speed_sweep_report.json")
    cfg = report["config"]
    problems = []
    if len(report["per_speed"]) != SPEED_SWEEP_SPEEDS:
        problems.append(f"{len(report['per_speed'])} speeds")
    bin_hz = 1.0 / cfg["window_s"]
    for entry in report["per_speed"]:
        for label, f_ref in DOMINANT_HZ_AT_REFERENCE.items():
            expected = f_ref * entry["speed_m_s"] / REFERENCE_SPEED_M_S
            got = entry["dominant_bin_hz"][label]
            if abs(got - expected) > bin_hz:
                problems.append(f"{label} at {entry['speed_m_s']} m/s: dominant "
                                f"bin {got} Hz, expected {expected} Hz")
    # Work done, from the config: every speed builds one labelled dataset of
    # all windows, trains on the stratified share, and transforms one
    # noise-free window per terrain.
    speeds, terrains = len(report["per_speed"]), len(DOMINANT_HZ_AT_REFERENCE)
    windows = round(cfg["duration_s"] / cfg["window_s"])
    train_per_terrain = round(windows * cfg["train_fraction"])
    accuracies = [e["overall_accuracy"] for e in report["per_speed"]]
    return Outcome(problems, statistics.fmean(accuracies),
                   speeds * terrains * (windows + 1),
                   speeds * terrains * train_per_terrain * cfg["train"]["epochs"],
                   min(accuracies))


def check_synth(out: Path) -> Outcome:
    summary = load_json(out / "sweep_summary.json")
    manifest = load_json(out / "synth_manifest.json")
    problems = []
    if not summary["f_dom_matches_f_b"]:
        problems.append("sweep: dominant frequency off the drive frequency")
    if manifest["total_windows"] != SYNTH_WINDOWS or manifest["total_dropped"] != 0:
        problems.append(f"synth: {manifest['total_windows']} windows, "
                        f"{manifest['total_dropped']} dropped")
    accuracy = summary["cells_f_dom_within_one_bin"] / summary["cells_total"]
    return Outcome(problems, accuracy, manifest["total_windows"])


@dataclass(frozen=True)
class Workload:
    commands: tuple                 # whisksim commands, one process each, in order
    config: dict | None             # written to a file passed as --config
    check: Callable[[Path], Outcome]


WORKLOADS = {
    "train-eval": Workload(("train-eval",), TRAIN_EVAL_CONFIG, check_train_eval),
    "speed-sweep": Workload(("speed-sweep",), None, check_speed_sweep),
    "synth": Workload(("sweep", "synth"), None, check_synth),
}


def environment() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:               # numpy without the dicts mode
        deps = {}
    blas = deps.get("blas", {})
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version",
                                                 "openblas configuration")},
        "blas_thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Process:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def run_process(argv: list, log: Path, deadline: float) -> Process:
    """Run one child to its end; the kernel's accounting gives its CPU time
    and peak RSS, each including any children it waited for."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return Process(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024.0)


def file_hashes(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


class Runner:
    """One benchmark run: a workload, a seed and a fixed deadline."""

    def __init__(self, name: str, seed: int, deadline: float):
        self.name, self.workload, self.seed = name, WORKLOADS[name], seed
        self.deadline = deadline
        self.out = OUT / name
        self.logs = ROOT / OUT / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        self.config_args = []
        if self.workload.config is not None:
            path = OUT / f"{name}.json"
            (ROOT / path).write_text(json.dumps(self.workload.config) + "\n")
            self.config_args = ["--config", str(path)]
        self.reference_hashes = None

    def cli_args(self, command: str) -> list:
        return self.config_args + ["--seed", str(self.seed), "--out", str(self.out),
                                   command]

    def setup_probe(self) -> float:
        log = self.logs / f"{self.name}-setup.log"
        proc = run_process([sys.executable, "-c", SETUP_PROBE]
                           + self.cli_args(self.workload.commands[0]),
                           log, self.deadline)
        lines = log.read_text().strip().splitlines()
        imported = Path(lines[-1] if lines else ".").resolve()
        if proc.exit_code != 0 or SRC.resolve() not in imported.parents:
            raise SystemExit(f"error: the setup probe did not import whisksim from "
                             f"{SRC} (exit {proc.exit_code}); see {log}")
        return proc.wall_s

    def iteration(self, traced: bool) -> dict:
        """Run every command of the workload once and check the outputs."""
        out = ROOT / self.out
        shutil.rmtree(out, ignore_errors=True)
        record = {"traced": traced, "wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0,
                  "exit_codes": [], "problems": []}
        traces = []
        for command in self.workload.commands:
            log = self.logs / f"{self.name}-{command}.log"
            if traced:
                spans_path = ROOT / OUT / f"spans-{command}.json"
                argv = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
                        str(spans_path)]
            else:
                argv = [sys.executable, "-m", "whisksim.cli"]
            proc = run_process(argv + self.cli_args(command), log, self.deadline)
            record["wall_s"] += proc.wall_s
            record["cpu_s"] += proc.cpu_s
            record["peak_rss_mb"] = max(record["peak_rss_mb"], proc.peak_rss_mb)
            record["exit_codes"].append(proc.exit_code)
            if proc.exit_code != 0:
                record["problems"].append(f"{command} exited {proc.exit_code}; see {log}")
                return record
            if traced:
                traces.append(load_json(spans_path))
        try:
            outcome = self.workload.check(out)
        except (OSError, KeyError, ValueError) as exc:
            outcome = Outcome([f"unreadable report: {exc!r}"])
        record["problems"] += outcome.problems
        record.update(accuracy=outcome.accuracy, vectors=outcome.vectors,
                      train_passes=outcome.train_passes,
                      min_speed_accuracy=outcome.min_speed_accuracy)
        record["sha256"] = file_hashes(out)
        if self.reference_hashes is None:
            self.reference_hashes = record["sha256"]
        elif record["sha256"] != self.reference_hashes:
            record["problems"].append("outputs differ from the run's first iteration")
        if traced:
            spans, batch = [], {}
            for trace in traces:
                offset = len(spans)
                spans += [{**s, "parent": None if s["parent"] is None
                           else s["parent"] + offset} for s in trace["spans"]]
                batch.update(trace["batch"])
                record["wall_s"] -= trace["batch_s"]
            record["layers"] = layer_metrics(aggregate(spans), batch)
        return record


def layer_metrics(agg: dict, batch: dict) -> dict:
    """Per-layer metrics of one traced iteration (spans of all its commands)."""
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "counts": {}}

    def get(name):
        return agg.get(name, empty)

    def ratio(a, b):
        return a / b if b else 0.0

    train, disp = get("mlp.train"), get("beam.displacement_series")
    build, csv = get("pipeline.build_dataset"), get("pipeline.write_dataset_csv")
    fft = get("pipeline.fft_magnitude")
    gflop = train["counts"].get("gflop", 0.0)
    samples = disp["counts"].get("samples", 0)
    windows = build["counts"].get("windows", 0)
    vectors = build["counts"].get("vectors", 0)
    return {
        "mlp.train.calls": train["calls"],
        "mlp.train.sample_passes": train["counts"].get("sample_passes", 0),
        "mlp.train.busy_s": train["busy_s"],
        "mlp.train.gflop": gflop,
        "mlp.train.gflop_per_s": ratio(gflop, train["busy_s"]),
        "mlp.evaluate.busy_s": get("mlp.evaluate")["busy_s"],
        "mlp.forward.batch32_s": batch.get("mlp.forward.batch32_s", 0.0),
        "mlp.gradients.batch32_s": batch.get("mlp.gradients.batch32_s", 0.0),
        "beam.displacement_series.calls": disp["calls"],
        "beam.displacement_series.samples": samples,
        "beam.displacement_series.busy_s": disp["busy_s"],
        "beam.displacement_series.samples_per_s": ratio(samples, disp["busy_s"]),
        "beam.modal_sweep.cells": get("beam.modal_sweep")["counts"].get("cells", 0),
        "beam.modal_sweep.busy_s": get("beam.modal_sweep")["busy_s"],
        "terrain.synthesize_run.calls": get("terrain.synthesize_run")["calls"],
        "terrain.synthesize_run.self_s": get("terrain.synthesize_run")["self_s"],
        "pipeline.build_dataset.windows": windows,
        "pipeline.build_dataset.vectors": vectors,
        "pipeline.build_dataset.busy_s": build["busy_s"],
        "pipeline.kept_ratio": ratio(vectors, windows),
        "pipeline.fft_magnitude.calls": fft["calls"],
        "pipeline.fft_magnitude.busy_s": fft["busy_s"],
        "pipeline.split.busy_s": get("pipeline.split")["busy_s"],
        "pipeline.write_dataset_csv.bytes": csv["counts"].get("bytes", 0),
        "pipeline.write_dataset_csv.busy_s": csv["busy_s"],
        "config.resolve_s": get("config.resolve")["busy_s"],
        "experiment.self_s": get("experiment.run")["self_s"],
    }


def high_percentile(values: list) -> tuple:
    """The highest percentile with at least ten samples above it, or the
    maximum when there are fewer than twenty samples."""
    n = len(values)
    if n < 20:
        return "max", max(values)
    level = math.floor(100 * (1 - 10 / n))
    return f"p{level}", statistics.quantiles(values, n=100)[level - 1]


def summarize(values: list, value: float | None = None) -> dict:
    """The run's figure (`value`, the median unless given), with the median,
    high percentile and sample count of the per-sample values."""
    label, high = high_percentile(values)
    median = statistics.median(values)
    return {"value": median if value is None else value, "median": median,
            "high": high, "high_label": label, "n": len(values)}


def end_to_end(iterations: list, setup_s: list) -> dict:
    ok = [it for it in iterations if not it["problems"]] or iterations
    per_iteration = {
        "wall_s": [it["wall_s"] for it in ok],
        "cpu_s": [it["cpu_s"] for it in ok],
        "peak_rss_mb": [it["peak_rss_mb"] for it in ok],
        "accuracy": [it.get("accuracy", math.nan) for it in ok],
        "vectors_per_s": [it.get("vectors", 0) / it["wall_s"] for it in ok],
    }
    if any(it.get("train_passes") for it in ok):
        per_iteration["train_samples_per_s"] = [it["train_passes"] / it["wall_s"]
                                                for it in ok]
    if any(it.get("min_speed_accuracy") is not None for it in ok):
        per_iteration["min_speed_accuracy"] = [it["min_speed_accuracy"] for it in ok]
    # On a shared host an iteration runs at a fast or a slow speed (about
    # 1.45x apart on a 2-vCPU VM), and the share of slow ones changes from run
    # to run.
    # The median iteration jumps between the two speeds as that share crosses
    # one half; the run's total moves with the share. So times and rates are
    # the run's totals per iteration and per wall second.
    wall = sum(per_iteration["wall_s"])
    totals = {"wall_s": wall / len(ok), "cpu_s": sum(per_iteration["cpu_s"]) / len(ok),
              "vectors_per_s": sum(it.get("vectors", 0) for it in ok) / wall,
              "train_samples_per_s": sum(it.get("train_passes", 0) for it in ok) / wall}
    stats = {name: summarize(values, totals.get(name))
             for name, values in per_iteration.items()}
    stats["setup_s"] = summarize(setup_s)
    failed = sum(1 for it in iterations if it["problems"])
    stats["fail_ratio"] = {"value": failed / len(iterations), "n": len(iterations)}
    return stats


def per_layer(iterations: list, units: dict) -> tuple:
    """Medians over traced iterations; work counts must repeat exactly."""
    traced = [it for it in iterations if it["traced"] and "layers" in it]
    untraced = [it["wall_s"] for it in iterations if not it["traced"]]
    problems = []
    if not traced:
        return {}, ["no traced iteration completed"]
    metrics = {}
    for name in traced[0]["layers"]:
        values = [it["layers"][name] for it in traced]
        if units.get(name) in COUNT_UNITS:
            if len(set(values)) > 1:
                problems.append(f"work count {name} differs between iterations: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.wall_s"] = statistics.median(it["wall_s"] for it in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(untraced)
    return metrics, problems


def finite(value) -> float:
    """A metric that could not be measured (every iteration failed) reads 0."""
    return value if value is not None and math.isfinite(value) else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S

    if not (SRC / "whisksim" / "cli.py").is_file():
        print(f"error: {SRC / 'whisksim'} not found; run from a whisksim checkout",
              file=sys.stderr)
        return 2
    spec = load_json(ROOT / "BENCHMARK.json")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    runner = Runner(args.workload, args.seed, deadline)
    setup_s = [runner.setup_probe() for _ in range(1 if args.trace else SETUP_PROBES)]

    iterations, durations = [], []
    stop_at = min(started + args.seconds, deadline)
    while True:
        begun = time.monotonic()
        if iterations and not args.trace:
            # Host speed changes within a run, so probes are spread over it.
            setup_s.append(runner.setup_probe())
        iterations.append(runner.iteration(traced=False))
        if args.trace:
            iterations.append(runner.iteration(traced=True))
        durations.append(time.monotonic() - begun)
        if time.monotonic() + statistics.median(durations) > stop_at:
            break

    failed = sum(1 for it in iterations if it["problems"])
    if args.trace:
        values, problems = per_layer(iterations, units)
        if problems:
            failed = max(failed, 1)
        table = {name: {"value": value} for name, value in values.items()}
    else:
        problems = []
        table = end_to_end(iterations, setup_s)
        values = {name: stats["value"] for name, stats in table.items()}
    env = environment()

    print(f"whisksim benchmark: workload {args.workload}, seed {args.seed}, "
          f"{len(iterations)} iterations, trace {args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, stats in table.items():
        unit = units.get(name) or EXTRA_UNITS[name]
        line = f"  {name:<42s} {stats['value']:>14.6g} {unit:<8s}"
        if "high" in stats:
            line += (f" median {stats['median']:.6g}"
                     f" {stats['high_label']} {stats['high']:.6g}")
        if "n" in stats:
            line += f" n={stats['n']}"
        print(line)
    for it in iterations:
        for problem in it["problems"]:
            print(f"FAILED: {problem}")
    for problem in problems:
        print(f"FAILED: {problem}")
    for name, digest in (runner.reference_hashes or {}).items():
        print(f"  sha256 {digest}  {name}")

    result = {"correct": failed == 0, "attempted": len(iterations), "failed": failed,
              "metrics": {name: {"value": finite(values.get(name)), "unit": unit}
                          for name, unit in units.items()}}
    results = ROOT / OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "summary": table,
              "sha256": runner.reference_hashes, "iterations": iterations,
              "problems": problems, "result": result}
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    raise SystemExit(main())
