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
import mmap
import os
import sys
from dataclasses import astuple
from functools import partial
from typing import NamedTuple

import numpy as np

from . import beam, mlp, pipeline, pool, terrain
from .config import MAX_RUN_SAMPLES, ExperimentConfig, load_profiles
from .errors import ConfigError, PhysicsError
from .terrain import TerrainClass


def child_seed(master_seed: int, *parts) -> int:
    """Stable 64-bit seed derived from the master seed and purpose labels."""
    text = ":".join([str(int(master_seed))] + [repr(p) for p in parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


# the seed scope of the terrain runs that synth writes and train-eval trains on
SYNTH_SCOPE = ("synth",)


def resolve_profiles(cfg: ExperimentConfig) -> dict[TerrainClass, terrain.SpectralProfile]:
    if cfg.profiles == "default":
        return terrain.default_profiles()
    if cfg.profiles == "smoke":
        return terrain.smoke_profiles()
    return load_profiles(cfg.profiles)


# the largest response bound whose windows' standard deviations stay finite:
# a sample lies within twice the bound of its window's mean
MAX_RESPONSE_M = math.sqrt(sys.float_info.max / (4 * pipeline.FEATURE_WIDTH))


def _run_windows(cfg: ExperimentConfig) -> int:
    """Whole windows in one run of cfg.duration_s."""
    return int(round(cfg.duration_s * cfg.sample_rate_hz)) // pipeline.FEATURE_WIDTH


def _prepare(cfg: ExperimentConfig, out_dir, speeds, report=None) -> dict:
    """Resolve the profiles and refuse what can be refused before any
    synthesis, then create out_dir and return the profiles. A ConfigError:
    a dataset's feature matrix over MAX_RUN_SAMPLES values and, for a
    command that trains (it names its report; synth passes None), a run of
    one window, a batch larger than the training set that split keeps
    before any flat window is dropped, or a directory at the report's path
    or its temp file's. A PhysicsError, at any of the speeds: a profile
    component above the Nyquist limit of cfg.sample_rate_hz, or a terrain
    whose noise-free response bound |gain| * sum(h * f^2) exceeds
    MAX_RESPONSE_M."""
    profiles = resolve_profiles(cfg)
    windows = _run_windows(cfg)
    if len(profiles) * windows * pipeline.FEATURE_WIDTH > MAX_RUN_SAMPLES:
        raise ConfigError(
            f"{len(profiles)} terrains of {windows} windows exceed the "
            f"{MAX_RUN_SAMPLES} feature values a dataset may hold")
    if report:
        if windows < 2:
            raise ConfigError("a run of one window cannot be split into training "
                              "and test vectors; it needs at least 2")
        train_size = len(profiles) * pipeline.train_count(windows, cfg.train_fraction)
        if cfg.train.batch_size > train_size:
            raise ConfigError(f"train batch_size {cfg.train.batch_size} exceeds "
                              f"the training size {train_size}")
        path = os.path.join(out_dir, report)
        if os.path.isdir(path) or os.path.isdir(f"{path}.tmp"):
            raise ConfigError(f"cannot write {path}: it or {report}.tmp is a directory")
    gain = cfg.sensor_gain
    for speed in speeds:
        for tc in sorted(profiles, key=int):
            try:
                heights, frequencies = terrain.temporal_components(
                    profiles[tc], speed, cfg.sample_rate_hz)
                # each term as displacement_series scales it; f * f overflows
                # to inf where f ** 2 would raise
                bound = sum(abs(gain * h * (f * f))
                            for h, f in zip(heights, frequencies))
                if not bound <= MAX_RESPONSE_M:
                    raise PhysicsError(f"its response bound {bound:.3g} m exceeds "
                                       f"{MAX_RESPONSE_M:.3g} m, past which a window's "
                                       "standard deviation can overflow")
            except PhysicsError as exc:
                raise PhysicsError(f"{tc.label} at {speed} m/s: {exc}") from exc
    _make_out_dir(out_dir)
    return profiles


def _write_json(path, payload: dict) -> None:
    """Write payload, indented with sorted keys, through pipeline.write_output."""
    pipeline.write_output(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


def _make_out_dir(out_dir) -> None:
    """Create out_dir before any work; a bad path is a config error."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc


class SweepSurface(NamedTuple):
    """Max displacement and dominant frequency over a drive grid, each of
    shape (len(f_b grid), len(h_b grid))."""

    y_max_m: np.ndarray
    f_dominant_hz: np.ndarray


def _steady_window(gain: float, heights_m, frequencies_hz, sample_rate_hz: float,
                   duration_s: float) -> tuple:
    """A noise-free window of these drive components, each at phase 0,
    sampled by beam.displacement_series, and its dominant frequency, read
    from pipeline.fft_magnitude by pipeline.dominant_frequency: None for a
    window that is zero everywhere. A sweep cell and each of speed-sweep's
    noise-free windows are read here. A spectrum that is not finite (the
    response or its transform overflows) is a PhysicsError."""
    with np.errstate(over="ignore", invalid="ignore"):   # refused just below
        samples = beam.displacement_series(gain, heights_m, frequencies_hz,
                                           [0.0] * len(heights_m), sample_rate_hz,
                                           duration_s)
        spectrum = pipeline.fft_magnitude(samples)   # not finite if samples are not
    if not np.isfinite(spectrum).all():
        drives = ", ".join(f"f_b {f} Hz, h_b {h} m"
                           for h, f in zip(heights_m, frequencies_hz))
        raise PhysicsError(f"the response to {drives} overflows")
    return samples, pipeline.dominant_frequency(spectrum, sample_rate_hz / len(samples))


def modal_sweep(gain: float, f_b_hz, h_b_m, sample_rate_hz: float,
                duration_s: float) -> SweepSurface:
    """Evaluate max displacement and dominant frequency over a drive grid,
    for the sensor whose steady_state_gain is gain, one _steady_window per
    cell. Any cell's failure aborts the whole sweep with a PhysicsError
    that names the cell: a response that overflows, and one that is zero
    everywhere (a height so small that it underflows), which has no
    dominant frequency."""
    f_grid = np.asarray(list(f_b_hz), dtype=float)
    h_grid = np.asarray(list(h_b_m), dtype=float)
    for fb in f_grid:
        if sample_rate_hz <= 2.0 * fb:
            raise PhysicsError(
                f"sample rate {sample_rate_hz} Hz cannot resolve grid point {fb} Hz")
    y_max = np.empty((f_grid.size, h_grid.size))
    f_dom = np.empty_like(y_max)
    for i, fb in enumerate(f_grid):
        for j, hb in enumerate(h_grid):
            samples, dominant = _steady_window(gain, [hb], [fb], sample_rate_hz,
                                               duration_s)
            if dominant is None:
                raise PhysicsError(f"the response to f_b {fb} Hz, h_b {hb} m "
                                   "is zero everywhere")
            y_max[i, j] = float(np.max(np.abs(samples)))
            f_dom[i, j] = dominant
    return SweepSurface(y_max, f_dom)


def run_sweep(cfg: ExperimentConfig, out_dir) -> dict:
    """Drive-grid sweep; writes the CSV, row-major over the f_b grid, and
    returns the summary report, which counts bins as wide as a cell's. The
    sweep runs first, so a drive at or above its Nyquist limit and a cell
    whose response overflows or is zero everywhere fail before out_dir is
    created."""
    sweep = cfg.sweep
    y_max, f_dom = modal_sweep(cfg.sensor_gain, sweep.f_b_hz, sweep.h_b_m,
                               sweep.sample_rate_hz, sweep.duration_s)
    _make_out_dir(out_dir)
    bin_width = sweep.sample_rate_hz / round(sweep.duration_s * sweep.sample_rate_hz)
    within = np.count_nonzero(
        np.abs(f_dom - np.asarray(sweep.f_b_hz, dtype=float)[:, None]) <= bin_width)
    total = f_dom.size
    csv_path = os.path.join(out_dir, "sweep.csv")
    lines = ["f_b_hz,h_b_m,y_max_m,f_dom_hz\n"]
    for i, fb in enumerate(sweep.f_b_hz):
        for j, hb in enumerate(sweep.h_b_m):
            lines.append(f"{fb!r},{hb!r},"
                         f"{float(y_max[i, j])!r},{float(f_dom[i, j])!r}\n")
    pipeline.write_output(csv_path, lines)
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


def _terrain_part(cfg: ExperimentConfig, profiles: dict, speed_m_s: float,
                  seed_scope: tuple, tc: TerrainClass, slot: np.ndarray) -> tuple:
    """Synthesize terrain tc's run at speed_m_s, seeded with
    child_seed(master, *seed_scope, terrain id), and transform it into slot;
    returns its part for pipeline.build_dataset. The run's samples are let
    go on return."""
    samples = terrain.synthesize_run(
        profiles[tc], speed_m_s, cfg.duration_s, cfg.sample_rate_hz,
        child_seed(cfg.master_seed, *seed_scope, int(tc)), cfg.sensor_gain)
    return pipeline.transform_run(samples, tc, slot)


def build_labeled_dataset(cfg: ExperimentConfig, speed_m_s: float,
                          profiles: dict, seed_scope: tuple) -> pipeline.Dataset:
    """One seeded run per terrain (see _terrain_part), each run through
    pool.ordered_map into its slot of one anonymous shared mapping, which
    later forks share and no file outlives, then labeled by
    pipeline.build_dataset. Train-eval's parent runs its terrains in workers,
    so it never touches the matrix nor imports numpy.random; a speed-sweep or
    synth worker runs them one at a time, so it holds one run's samples at a
    time beside the matrix. A matrix that cannot be mapped is a ConfigError."""
    terrains = sorted(profiles, key=int)
    windows = _run_windows(cfg)
    size = len(terrains) * windows * pipeline.FEATURE_WIDTH * 8
    try:
        shared = mmap.mmap(-1, size)
    except OSError as exc:
        raise ConfigError(f"cannot allocate the feature matrix of {len(terrains)} "
                          f"terrains x {windows} windows x {pipeline.FEATURE_WIDTH} "
                          f"values ({size / 2**20:.3g} MiB): {exc}") from exc
    matrix = np.frombuffer(shared).reshape(-1, pipeline.FEATURE_WIDTH)
    slots = matrix.reshape(len(terrains), windows, pipeline.FEATURE_WIDTH)
    parts = pool.ordered_map(
        lambda item: _terrain_part(cfg, profiles, speed_m_s, seed_scope, *item),
        list(zip(terrains, slots)))
    return pipeline.build_dataset(matrix, parts)


def _csv_name(tc: TerrainClass) -> str:
    return f"terrain_{tc.label}.csv"


def _synth_terrain(cfg: ExperimentConfig, profiles: dict, out_dir,
                   tc: TerrainClass) -> dict:
    """Write terrain tc's dataset CSV, the rows of terrain tc that
    train-eval trains on; returns its manifest entry."""
    ds = build_labeled_dataset(cfg, cfg.speed_m_s, {tc: profiles[tc]}, SYNTH_SCOPE)
    name = _csv_name(tc)
    digest = pipeline.write_dataset_csv(ds, os.path.join(out_dir, name))
    return {"terrain": tc.label, "file": name,
            "seed": child_seed(cfg.master_seed, *SYNTH_SCOPE, int(tc)), "sha256": digest,
            "windows": len(ds), "dropped": ds.dropped}


def run_synth(cfg: ExperimentConfig, out_dir) -> dict:
    """Write one dataset CSV per terrain, each in a worker, then the manifest.

    An earlier run's manifest and terrain CSVs go first, so the directory
    holds only this run's files: a failed run leaves no manifest, no temp
    file, and no CSV of a terrain this run did not write. A run that drops
    more than 1% of its windows as flat fails with a PhysicsError.
    """
    profiles = _prepare(cfg, out_dir, [cfg.speed_m_s])
    manifest = os.path.join(out_dir, "synth_manifest.json")
    for path in [manifest] + [os.path.join(out_dir, _csv_name(tc))
                              for tc in TerrainClass]:
        try:
            if os.path.lexists(path):
                os.remove(path)
        except OSError as exc:
            raise ConfigError(f"cannot remove old output {path}: {exc}") from exc
    try:
        entries = pool.ordered_map(partial(_synth_terrain, cfg, profiles, out_dir),
                                   sorted(profiles, key=int))
    except BaseException:
        # the workers are joined; one terminated mid-write left its temp file
        for tc in profiles:
            pipeline.remove_tmp(os.path.join(out_dir, _csv_name(tc)))
        raise
    windows = sum(e["windows"] for e in entries)
    dropped = sum(e["dropped"] for e in entries)
    if 100 * dropped > windows + dropped:
        raise PhysicsError(f"{dropped} of {windows + dropped} windows degenerate")
    report = {"config": cfg.to_dict(), "terrains": entries,
              "total_windows": windows, "total_dropped": dropped}
    _write_json(manifest, report)
    return report


def _report_accuracies(values) -> list:
    """Per-class accuracies as report values: None for a class with no test
    vectors, such as a terrain missing from a custom profile table."""
    return [None if math.isnan(a) else float(a) for a in values]


def _train_eval_once(cfg: ExperimentConfig, dataset: pipeline.Dataset,
                     seed_scope: tuple) -> dict:
    seeds = {purpose: child_seed(cfg.master_seed, *seed_scope, purpose)
             for purpose in ("split", "init", "shuffle")}
    train_set, test_set = pipeline.split(dataset, cfg.train_fraction, seeds["split"])
    model = mlp.init(mlp.MlpArchitecture(), seeds["init"])
    train_cfg = mlp.TrainConfig(*astuple(cfg.train), seeds["shuffle"])
    model, history = mlp.train(model, train_set, train_cfg)
    counts = mlp.evaluate(model, test_set)
    tested = np.where(counts.any(axis=1), counts.sum(axis=1), np.nan)  # NaN: untested
    return {
        "seeds": seeds,
        "train_size": len(train_set),
        "test_size": len(test_set),
        "initial_loss": history[0],
        "final_loss": history[-1],
        "overall_accuracy": float(np.trace(counts) / counts.sum()),
        "per_class_accuracy": _report_accuracies(np.diag(counts) / tested),
        "confusion": counts.tolist(),
    }


def run_train_eval(cfg: ExperimentConfig, out_dir) -> dict:
    """Seeded repetitions of split/train/evaluate on one synthesized dataset."""
    profiles = _prepare(cfg, out_dir, [cfg.speed_m_s], "train_eval_report.json")
    dataset = build_labeled_dataset(cfg, cfg.speed_m_s, profiles, SYNTH_SCOPE)
    reps = pool.ordered_map(partial(_train_eval_once, cfg, dataset),
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
    _write_json(os.path.join(out_dir, "train_eval_report.json"), report)
    return report


def _noiseless_dominant_bins(cfg: ExperimentConfig, speed_m_s: float,
                             profiles: dict) -> dict:
    """Dominant frequency per terrain of a noise/jitter-free window, read by
    _steady_window as a sweep cell's is; None for an all-zero window."""
    gain = cfg.sensor_gain
    bins = {}
    for tc in sorted(profiles, key=int):
        heights, frequencies = terrain.temporal_components(
            profiles[tc], speed_m_s, cfg.sample_rate_hz)
        bins[tc.label] = _steady_window(gain, heights, frequencies, cfg.sample_rate_hz,
                                        pipeline.FEATURE_WIDTH / cfg.sample_rate_hz)[1]
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


def run_speed_sweep(cfg: ExperimentConfig, out_dir) -> dict:
    """Synth + train + evaluate at each configured speed (ascending order)."""
    if len(cfg.speeds_m_s) < 2:
        raise ConfigError("speed sweep needs at least 2 speeds")
    profiles = _prepare(cfg, out_dir, cfg.speeds_m_s, "speed_sweep_report.json")
    per_speed = pool.ordered_map(partial(_speed_point, cfg, profiles),
                                 sorted(cfg.speeds_m_s))
    report = {
        "config": cfg.to_dict(),
        "speeds_m_s": [s["speed_m_s"] for s in per_speed],
        "per_speed": per_speed,
    }
    _write_json(os.path.join(out_dir, "speed_sweep_report.json"), report)
    return report

