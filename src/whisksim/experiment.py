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
import pickle
import signal
import sys
from functools import partial

import numpy as np

from . import beam, mlp, pipeline, terrain
from .beam import modal_sweep
from .config import MAX_RUN_SAMPLES, ExperimentConfig, load_profiles
from .errors import ConfigError, PhysicsError, WorkerDiedError
from .terrain import TerrainClass


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


def run_sweep(cfg: ExperimentConfig, out_dir) -> dict:
    """Drive-grid sweep; writes the CSV, row-major over the f_b grid, and
    returns the summary report, which counts bins as wide as a cell's. The
    sweep runs first, so a drive at or above its Nyquist limit and a cell
    whose response overflows fail before out_dir is created."""
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


def build_labeled_dataset(cfg: ExperimentConfig, speed_m_s: float,
                          profiles: dict, seed_scope: tuple) -> pipeline.Dataset:
    """One seeded run per terrain, with seed child_seed(master, *seed_scope,
    terrain id), each synthesized only as build_dataset takes it, so a
    single run's samples are held at a time beside the feature matrix."""
    terrains = sorted(profiles, key=int)
    gain = cfg.sensor_gain
    runs = ((terrain.synthesize_run(
                profiles[tc], speed_m_s, cfg.duration_s, cfg.sample_rate_hz,
                child_seed(cfg.master_seed, *seed_scope, int(tc)), gain), tc)
            for tc in terrains)
    return pipeline.build_dataset(runs, len(terrains) * _run_windows(cfg))


def _csv_name(tc: TerrainClass) -> str:
    return f"terrain_{tc.label}.csv"


def _synth_terrain(cfg: ExperimentConfig, profiles: dict, out_dir,
                   tc: TerrainClass) -> dict:
    """Write terrain tc's dataset CSV, the rows of terrain tc that
    build_labeled_dataset(cfg, cfg.speed_m_s, profiles, ("synth",)) holds;
    returns its manifest entry."""
    ds = build_labeled_dataset(cfg, cfg.speed_m_s, {tc: profiles[tc]}, ("synth",))
    name = _csv_name(tc)
    digest = pipeline.write_dataset_csv(ds, os.path.join(out_dir, name))
    return {"terrain": tc.label, "file": name,
            "seed": child_seed(cfg.master_seed, "synth", int(tc)), "sha256": digest,
            "windows": len(ds), "dropped": ds.dropped}


def run_synth(cfg: ExperimentConfig, out_dir) -> dict:
    """Write one dataset CSV per terrain, each in a worker, then the manifest.

    An earlier run's manifest and terrain CSVs go first, so the directory
    holds only this run's files: a failed run leaves no manifest, no temp
    file, and no CSV of a terrain this run did not write.
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
        entries = _ordered_map(partial(_synth_terrain, cfg, profiles, out_dir),
                               sorted(profiles, key=int))
    except BaseException:
        # the workers are joined; one terminated mid-write left its temp file
        for tc in profiles:
            pipeline.remove_tmp(os.path.join(out_dir, _csv_name(tc)))
        raise
    report = {
        "config": cfg.to_dict(),
        "terrains": entries,
        "total_windows": sum(e["windows"] for e in entries),
        "total_dropped": sum(e["dropped"] for e in entries),
    }
    _write_json(manifest, report)
    return report


def _serve(conn, fn, items) -> None:
    """Forked worker: pickle (True, result) or (False, exception) of fn(item)
    onto conn, a buffered binary file flushed after each reply, for each of
    its items in order, then return. It ignores SIGINT, which the fork loop
    leaves blocked as well: a Ctrl-C reaches the whole process group, and
    the parent terminates its workers as it unwinds."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for item in items:
        try:
            reply = True, fn(item)
        except Exception as exc:
            reply = False, exc
        pickle.dump(reply, conn)
        conn.flush()


def _worker_count(n: int, cpus: int) -> int:
    """Workers for n equal items on cpus CPUs: the fewest w in
    [min(n, cpus), min(n, 2 * cpus)] whose last round of n % w items (w when
    it divides n) still holds every CPU, or min(n, cpus) where no w in range
    does. The kernel shares the CPUs among the w >= cpus runnable workers,
    so n equal items take about n / cpus item-times instead of
    ceil(n / cpus): 5 trainings on 2 CPUs run on 3 workers in 2.5
    training-times, not 3, and 7 synth terrains run on 4 workers."""
    fewest = min(n, cpus)
    for w in range(fewest, min(n, 2 * cpus) + 1):
        if n % w == 0 or n % w >= cpus:
            return w
    return fewest


def _ordered_map(fn, items: list) -> list:
    """[fn(item) for item in items] in forked worker processes, up to two
    per CPU: as many as fill the last round (see _worker_count).

    Every caller maps items of equal cost, so they are dealt round-robin at
    the fork: of w workers, worker j runs items[j::w] (five speeds on two
    CPUs: three workers holding 2, 2 and 1 speeds). Fork hands every worker
    fn and its share, with whatever they hold (a dataset, a profile table),
    without pickling them: only results cross back, pickled onto a one-way
    pipe of the worker's own (os.pipe: importing multiprocessing costs the
    parent 0.4 MiB, its first Pipe and Process 0.4 more), and the workers
    share the parent's memory pages. The parent reads item i from worker
    i % w, so results keep input order and reports do not depend on the
    worker count. If items fail, the exception of the first one in input
    order is raised once every item before it has succeeded, as the plain
    loop would, and the workers are terminated. A worker that dies before
    its reply is whole (killed by the kernel, say) fails its item with a
    WorkerDiedError naming the item and the exit code. No lock is shared
    with a worker, so terminating one cannot leave the parent waiting
    (multiprocessing.Pool can hang there: it may kill a worker that holds
    its result queue's lock). Where fork is not available (Windows), the
    plain loop runs instead.
    """
    if not hasattr(os, "fork"):
        return [fn(item) for item in items]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    count = _worker_count(len(items), cpus)
    readers, pids = [], []   # pids of the workers not yet reaped
    try:
        # a SIGINT between a fork and its append would leave a worker that
        # nothing terminates: it waits until every worker is listed
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            for j in range(count):
                fd, writer_fd = os.pipe()
                readers.append(open(fd, "rb"))
                with open(writer_fd, "wb") as writer:   # the parent's copy closes here
                    if (pid := os.fork()) == 0:   # the worker leaves only by os._exit
                        try:
                            _serve(writer, fn, items[j::count])
                            os._exit(0)
                        except BaseException:
                            sys.excepthook(*sys.exc_info())
                        finally:
                            os._exit(1)
                pids.append(pid)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        results = []
        for index in range(len(items)):
            try:
                ok, value = pickle.load(readers[index % count])
            except (EOFError, pickle.UnpicklingError):   # it died before or mid-reply
                _, status = os.waitpid(pids.pop(index % count), 0)
                raise WorkerDiedError(
                    f"worker for item {index} exited with code "
                    f"{os.waitstatus_to_exitcode(status)} before replying") from None
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        for reader in readers:
            reader.close()


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
    model, history = mlp.train(model, train_set, cfg.train.with_seed(seeds["shuffle"]))
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
    _write_json(os.path.join(out_dir, "train_eval_report.json"), report)
    return report


def _noiseless_dominant_bins(cfg: ExperimentConfig, speed_m_s: float,
                             profiles: dict) -> dict:
    """Dominant frequency per terrain of a noise/jitter-free window, read as
    a sweep cell's is; None for an all-zero window, which has no dominant bin."""
    gain = cfg.sensor_gain
    bins = {}
    for tc in sorted(profiles, key=int):
        heights, frequencies = terrain.temporal_components(
            profiles[tc], speed_m_s, cfg.sample_rate_hz)
        samples = beam.displacement_series(
            gain, heights, frequencies, [0.0] * len(heights), cfg.sample_rate_hz,
            pipeline.FEATURE_WIDTH / cfg.sample_rate_hz)
        bins[tc.label] = (pipeline.dominant_frequency(
            pipeline.fft_magnitude(samples), cfg.sample_rate_hz / len(samples))
            if samples.any() else None)
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
    per_speed = _ordered_map(partial(_speed_point, cfg, profiles),
                             sorted(cfg.speeds_m_s))
    report = {
        "config": cfg.to_dict(),
        "speeds_m_s": [s["speed_m_s"] for s in per_speed],
        "per_speed": per_speed,
    }
    _write_json(os.path.join(out_dir, "speed_sweep_report.json"), report)
    return report

