"""Experiment drivers shared by the command line interface and the tests.

Every report is a plain dict with the resolved configuration embedded, so a
report can be re-run from its own "config" entry. Randomness is fanned out
from the master seed by hashing purpose strings; adding a new purpose never
disturbs the seeds of existing ones.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from functools import partial

import numpy as np

from . import mlp, pipeline, terrain
from .beam import modal_sweep, spring_to_beam
from .config import ExperimentConfig
from .errors import ConfigError, PhysicsError
from .terrain import RobotRun, TerrainClass


def child_seed(master_seed: int, *parts) -> int:
    """Stable 64-bit seed derived from the master seed and purpose labels."""
    text = ":".join([str(int(master_seed))] + [repr(p) for p in parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def resolve_profiles(cfg: ExperimentConfig) -> dict[TerrainClass, terrain.SpectralProfile]:
    if cfg.profiles == "default":
        return terrain.default_profiles()
    if cfg.profiles == "smoke":
        return terrain.smoke_profiles()
    return terrain.load_profiles(cfg.profiles)


def _check_nyquist(cfg: ExperimentConfig, profiles: dict, speeds) -> None:
    """Raise PhysicsError if any profile component at any of the speeds is
    above the Nyquist limit of cfg.sample_rate_hz; called before synthesis."""
    for speed in speeds:
        for tc in sorted(profiles, key=int):
            try:
                terrain.temporal_components(profiles[tc], speed, cfg.sample_rate_hz)
            except PhysicsError as exc:
                raise PhysicsError(f"{tc.label} at {speed} m/s: {exc}") from exc


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _make_out_dir(out_dir) -> None:
    """Create out_dir, if given, before any work; a bad path is a config error."""
    try:
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc


def run_sweep(cfg: ExperimentConfig, out_dir) -> dict:
    """Drive-grid sweep; writes the CSV and returns the summary report."""
    _make_out_dir(out_dir)
    beam = spring_to_beam(cfg.spring)
    surface = modal_sweep(beam, cfg.sweep.f_b_hz, cfg.sweep.h_b_m,
                          cfg.sensor_position_m, cfg.sweep.sample_rate_hz,
                          cfg.sweep.duration_s)
    bin_width = 1.0 / cfg.sweep.duration_s
    within = 0
    for i, fb in enumerate(surface.f_b_grid_hz):
        for j in range(surface.h_b_grid_m.size):
            if abs(surface.f_dominant_hz[i, j] - fb) <= bin_width:
                within += 1
    total = surface.f_dominant_hz.size
    csv_path = os.path.join(out_dir, "sweep.csv")
    surface.write_csv(csv_path)
    report = {
        "config": cfg.to_dict(),
        "csv": os.path.basename(csv_path),
        "cells_total": int(total),
        "cells_f_dom_within_one_bin": int(within),
        "f_dom_matches_f_b": bool(within == total),
        "bin_width_hz": bin_width,
    }
    _write_json(os.path.join(out_dir, "sweep_summary.json"), report)
    return report


def _terrain_series(cfg: ExperimentConfig, speed_m_s: float, profiles: dict,
                    tc: TerrainClass, seed: int) -> terrain.TimeSeries:
    """One seeded run over terrain tc at the given speed."""
    run = RobotRun(speed_m_s, cfg.duration_s, cfg.sample_rate_hz, seed)
    return terrain.synthesize_run(tc, run, spring_to_beam(cfg.spring),
                                  cfg.sensor_position_m, profile=profiles[tc])


def build_labeled_dataset(cfg: ExperimentConfig, speed_m_s: float,
                          profiles: dict, seed_scope: tuple) -> pipeline.Dataset:
    runs = [(_terrain_series(cfg, speed_m_s, profiles, tc,
                             child_seed(cfg.master_seed, *seed_scope, int(tc))), tc)
            for tc in sorted(profiles, key=int)]
    return pipeline.build_dataset(runs, cfg.window_s)


def _synth_terrain(cfg: ExperimentConfig, profiles: dict, out_dir,
                   tc: TerrainClass) -> dict:
    """Write terrain tc's dataset CSV; returns its manifest entry."""
    seed = child_seed(cfg.master_seed, "synth", int(tc))
    series = _terrain_series(cfg, cfg.speed_m_s, profiles, tc, seed)
    ds = pipeline.build_dataset([(series, tc)], cfg.window_s)
    name = f"terrain_{tc.label}.csv"
    pipeline.write_dataset_csv(ds, os.path.join(out_dir, name))
    with open(os.path.join(out_dir, name), "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {"terrain": tc.label, "file": name, "seed": seed, "sha256": digest,
            "windows": len(ds), "dropped": ds.dropped}


def run_synth(cfg: ExperimentConfig, out_dir) -> dict:
    """Write one dataset CSV per terrain, each in a worker, then the manifest;
    an old manifest goes first, so a failed run leaves none beside the CSVs."""
    profiles = resolve_profiles(cfg)
    _check_nyquist(cfg, profiles, [cfg.speed_m_s])
    _make_out_dir(out_dir)
    manifest = os.path.join(out_dir, "synth_manifest.json")
    try:
        if os.path.lexists(manifest):
            os.remove(manifest)
    except OSError as exc:
        raise ConfigError(f"cannot remove old manifest {manifest}: {exc}") from exc
    entries = _ordered_map(partial(_synth_terrain, cfg, profiles, out_dir),
                           sorted(profiles, key=int))
    report = {
        "config": cfg.to_dict(),
        "terrains": entries,
        "total_windows": sum(e["windows"] for e in entries),
        "total_dropped": sum(e["dropped"] for e in entries),
    }
    _write_json(manifest, report)
    return report


_worker_task = None   # (fn, items) inside a forked _ordered_map worker


def _install_task(fn, items) -> None:
    global _worker_task
    _worker_task = fn, items


def _run_task(index: int):
    fn, items = _worker_task
    return fn(items[index])


def _ordered_map(fn, items: list) -> list:
    """[fn(item) for item in items], one forked worker process per CPU.

    Fork hands every worker fn and items, with whatever they hold (a
    dataset, a profile table), without pickling them: only indices and
    results cross between processes, and the workers share the parent's
    memory pages. Results keep input order, so reports do not depend on the
    worker count. If items fail, the exception of the first one in input
    order is raised, as the plain loop would, and the pool is terminated.
    Where fork is not available (Windows), the plain loop runs instead.
    """
    import multiprocessing   # here, so that importing whisksim stays cheap

    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(item) for item in items]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    context = multiprocessing.get_context("fork")
    with context.Pool(min(len(items), cpus), initializer=_install_task,
                      initargs=(fn, items)) as pool:
        # imap yields in order, so the first failure it meets is the
        # lowest-index one; leaving the with block terminates the rest
        return list(pool.imap(_run_task, range(len(items))))


def _report_accuracies(values) -> list:
    """Per-class accuracies as report values: None for a class with no test
    vectors, such as a terrain missing from a custom profile table."""
    return [None if math.isnan(a) else float(a) for a in values]


def _train_eval_once(cfg: ExperimentConfig, dataset: pipeline.Dataset,
                     seed_scope: tuple) -> dict:
    split_seed = child_seed(cfg.master_seed, *seed_scope, "split")
    model_seed = child_seed(cfg.master_seed, *seed_scope, "init")
    shuffle_seed = child_seed(cfg.master_seed, *seed_scope, "shuffle")
    train_set, test_set = pipeline.split(dataset, cfg.train_fraction, split_seed)
    model = mlp.init(mlp.MlpArchitecture(), model_seed)
    train_cfg = mlp.TrainConfig(cfg.train.learning_rate, cfg.train.epochs,
                                cfg.train.batch_size, shuffle_seed)
    model, history = mlp.train(model, train_set, train_cfg)
    matrix = mlp.evaluate(model, test_set)
    return {
        "seeds": {"split": split_seed, "init": model_seed, "shuffle": shuffle_seed},
        "train_size": len(train_set),
        "test_size": len(test_set),
        "initial_loss": history[0],
        "final_loss": history[-1],
        "overall_accuracy": matrix.overall_accuracy,
        "per_class_accuracy": _report_accuracies(matrix.per_class_accuracy),
        "confusion": matrix.counts.tolist(),
    }


def run_train_eval(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Seeded repetitions of split/train/evaluate on one synthesized dataset."""
    profiles = resolve_profiles(cfg)
    _check_nyquist(cfg, profiles, [cfg.speed_m_s])
    _make_out_dir(out_dir)
    dataset = build_labeled_dataset(cfg, cfg.speed_m_s, profiles, ("synth",))
    reps = _ordered_map(partial(_train_eval_once, cfg, dataset),
                        [("train-eval", r) for r in range(cfg.repetitions)])
    overall = np.array([r["overall_accuracy"] for r in reps])
    per_class = np.array([r["per_class_accuracy"] for r in reps], dtype=float)
    confusion = np.array([r["confusion"] for r in reps], dtype=float)
    report = {
        "config": cfg.to_dict(),
        "dataset_vectors": len(dataset),
        "dataset_dropped": dataset.dropped,
        "repetitions": reps,
        "mean_overall_accuracy": float(overall.mean()),
        "std_overall_accuracy": float(overall.std()),
        "mean_per_class_accuracy": _report_accuracies(per_class.mean(axis=0)),
        "mean_confusion": confusion.mean(axis=0).tolist(),
    }
    if out_dir is not None:
        _write_json(os.path.join(out_dir, "train_eval_report.json"), report)
    return report


def _noiseless_dominant_bins(cfg: ExperimentConfig, speed_m_s: float,
                             profiles: dict) -> dict:
    """Dominant feature-bin frequency per terrain from a noise/jitter-free window."""
    beam = spring_to_beam(cfg.spring)
    bins = {}
    for tc in sorted(profiles, key=int):
        clean = terrain.strip_randomness(profiles[tc])
        run = RobotRun(speed_m_s, cfg.window_s, cfg.sample_rate_hz, seed=0)
        series = terrain.synthesize_run(tc, run, beam, cfg.sensor_position_m,
                                        profile=clean)
        ds = pipeline.build_dataset([(series, tc)], cfg.window_s)
        bins[tc.label] = pipeline.dominant_frequency(
            ds.features()[0], cfg.sample_rate_hz / pipeline.FEATURE_WIDTH)
    return bins


def _speed_point(cfg: ExperimentConfig, profiles: dict, speed: float) -> dict:
    """Synthesize, train and evaluate at one speed, plus its noise-free bins."""
    scope = ("speed-sweep", repr(speed))
    dataset = build_labeled_dataset(cfg, speed, profiles, scope)
    result = _train_eval_once(cfg, dataset, scope)
    return {
        "speed_m_s": speed,
        "overall_accuracy": result["overall_accuracy"],
        "per_class_accuracy": result["per_class_accuracy"],
        "dominant_bin_hz": _noiseless_dominant_bins(cfg, speed, profiles),
        "seeds": result["seeds"],
    }


def run_speed_sweep(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Synth + train + evaluate at each configured speed (ascending order)."""
    if len(cfg.speeds_m_s) < 2:
        raise PhysicsError("speed sweep needs at least 2 speeds")
    profiles = resolve_profiles(cfg)
    _check_nyquist(cfg, profiles, cfg.speeds_m_s)
    _make_out_dir(out_dir)
    per_speed = _ordered_map(partial(_speed_point, cfg, profiles),
                             sorted(cfg.speeds_m_s))
    report = {
        "config": cfg.to_dict(),
        "speeds_m_s": [s["speed_m_s"] for s in per_speed],
        "per_speed": per_speed,
    }
    if out_dir is not None:
        _write_json(os.path.join(out_dir, "speed_sweep_report.json"), report)
    return report


def run_grad_check(cfg: ExperimentConfig) -> dict:
    """Finite-difference check of the backprop gradients on random data."""
    rng = np.random.default_rng(child_seed(cfg.master_seed, "grad-check"))
    model = mlp.init(mlp.MlpArchitecture(),
                     child_seed(cfg.master_seed, "grad-check", "init"))
    x = rng.normal(0.0, 1.0, (8, pipeline.FEATURE_WIDTH))
    labels = rng.integers(1, mlp.NUM_CLASSES + 1, size=8)
    worst = mlp.gradient_check(model, x, labels, samples_per_layer=50,
                               seed=child_seed(cfg.master_seed, "grad-check", "probe"))
    return {
        "config": cfg.to_dict(),
        "max_relative_error": worst,
        "passed": bool(worst < 1e-5),
    }
