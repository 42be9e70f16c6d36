"""Run one whisksim command with spans around each layer's public calls.

    PYTHONPATH=src python3 bench/traced_cli.py SPANS_JSON [whisksim arguments]

Each function below is wrapped at the name its caller looks it up by, so the
program itself is unchanged. After the command, one batch of 32 vectors from
the data the run trained on goes through mlp.forward and mlp.gradients to
time them. Spans, timings and the exit code are written to SPANS_JSON when
the process ends; the exit code is the command's.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

from spans import Tracer
from whisksim import beam, cli, experiment, mlp, pipeline, terrain

BATCH = 32
BATCH_CALLS = 200


def gemm_flop_per_sample(layer_sizes) -> int:
    """Floating-point operations of one SGD step per sample, matrix products
    only: the forward product and the weight gradient of every layer, and
    the back-propagated delta of every layer but the first."""
    products = [a * b for a, b in zip(layer_sizes[:-1], layer_sizes[1:])]
    return 2 * (3 * sum(products) - products[0])


def install(tracer: Tracer, seen: dict) -> None:
    """Wrap every layer boundary; `seen` keeps the data for the batch timings."""

    def train_counts(result, model, train_set, cfg):
        seen["model"], seen["train_set"] = result[0], train_set
        passes = len(train_set) * cfg.epochs
        return {"sample_passes": passes,
                "gflop": passes * gemm_flop_per_sample(model.arch.layer_sizes) / 1e9}

    def dataset_counts(result, *args, **kwargs):
        seen.setdefault("dataset", result)
        return {"windows": len(result) + result.dropped, "vectors": len(result)}

    def samples(result, *args, **kwargs):
        return {"samples": len(result)}

    def cells(result, *args, **kwargs):
        return {"cells": int(result.f_dominant_hz.size)}

    def csv_bytes(result, dataset, path):
        return {"bytes": os.path.getsize(path)}

    tracer.patch(cli, "_resolve_config", "config.resolve")
    tracer.patch(experiment, "resolve_profiles", "config.resolve")
    for driver in ("run_sweep", "run_synth", "run_train_eval", "run_speed_sweep"):
        tracer.patch(experiment, driver, "experiment.run")
    tracer.patch(experiment, "modal_sweep", "beam.modal_sweep", cells)
    # modal_sweep looks displacement_series up in beam; synthesize_run in terrain
    tracer.patch(beam, "displacement_series", "beam.displacement_series", samples)
    tracer.patch(terrain, "displacement_series", "beam.displacement_series", samples)
    tracer.patch(terrain, "synthesize_run", "terrain.synthesize_run")
    tracer.patch(pipeline, "build_dataset", "pipeline.build_dataset", dataset_counts)
    tracer.patch(pipeline, "fft_magnitude", "pipeline.fft_magnitude")
    tracer.patch(pipeline, "split", "pipeline.split")
    tracer.patch(pipeline, "write_dataset_csv", "pipeline.write_dataset_csv", csv_bytes)
    tracer.patch(mlp, "train", "mlp.train", train_counts)
    tracer.patch(mlp, "evaluate", "mlp.evaluate")


def median_call_s(fn) -> float:
    times = []
    for _ in range(BATCH_CALLS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def time_batch(seen: dict) -> dict:
    """Median seconds per call of mlp.forward and mlp.gradients on one batch.

    Uses the last trained model and its training set; a run that trains
    nothing (synth) uses its first synthesized dataset and a fresh model.
    """
    if "train_set" in seen:
        model, data = seen["model"], seen["train_set"]
    elif "dataset" in seen:
        model, data = mlp.init(mlp.MlpArchitecture(), 0), seen["dataset"]
    else:
        return {}
    x, labels = data.features()[:BATCH], data.labels()[:BATCH]
    return {"mlp.forward.batch32_s": median_call_s(lambda: mlp.forward(model, x)),
            "mlp.gradients.batch32_s":
                median_call_s(lambda: mlp.gradients(model, x, labels))}


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer, seen = Tracer(), {}
    install(tracer, seen)
    code = None
    batch, batch_s = {}, 0.0
    try:
        code = cli.main(cli_args)
        start = time.perf_counter()
        batch = time_batch(seen)
        batch_s = time.perf_counter() - start
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "batch": batch, "batch_s": batch_s,
                       "exit_code": code}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
