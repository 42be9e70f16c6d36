"""Acceptance gate: one test per release criterion, plus a pin of the exact
default accuracy that criterion 7 only bounds, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import time

import numpy as np
import pytest

import oracles
from whisksim.beam import (
    SpringSpec,
    displacement_series,
    modal_sweep,
    spring_to_beam,
    steady_state_gain,
)
from whisksim.config import ExperimentConfig, SweepConfig, config_from_dict
from whisksim.experiment import resolve_profiles, run_speed_sweep, run_train_eval
from whisksim.mlp import MlpArchitecture, _batch_losses, _forward, gradients, init
from whisksim.pipeline import FEATURE_WIDTH, dominant_frequency, fft_magnitude, split
from whisksim.terrain import TerrainClass


def _verdict(ok: bool, name: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def beam():
    return spring_to_beam(SpringSpec())


@pytest.fixture(scope="module")
def gain(beam):
    """The default sensor's steady_state_gain, at 5 mm."""
    return steady_state_gain(beam, 0.005)


def test_criterion_1_dominant_frequency_fidelity(gain):
    """Four reference drive conditions: FFT peak within one bin of f_b, < 5 s."""
    start = time.perf_counter()
    rate, duration = 1000.0, 1.0
    bin_width = 1.0 / duration
    failures = []
    for f_b in (100.0, 300.0):
        for h_b in (1e-4, 3e-4):
            series = displacement_series(gain, [h_b], [f_b], [0.0], rate, duration)
            f_dom = dominant_frequency(fft_magnitude(series), bin_width)
            if abs(f_dom - f_b) > bin_width:
                failures.append((f_b, h_b, f_dom))
    elapsed = time.perf_counter() - start
    _verdict(not failures and elapsed < 5.0,
             "dominant-frequency fidelity",
             f"4 conditions within one {bin_width:.1f} Hz bin, "
             f"{elapsed:.2f} s (failures: {failures})")


def test_criterion_2_amplitude_invariance(gain):
    """Across the default sweep grid f_dominant never varies with h_b, < 30 s."""
    start = time.perf_counter()
    sweep = SweepConfig()
    surface = modal_sweep(gain, sweep.f_b_hz, sweep.h_b_m, sweep.sample_rate_hz,
                          sweep.duration_s)
    constant_columns = sum(
        1 for row in surface.f_dominant_hz if np.all(row == row[0]))
    elapsed = time.perf_counter() - start
    total = surface.f_dominant_hz.shape[0]
    _verdict(constant_columns == total and elapsed < 30.0,
             "amplitude invariance of dominant frequency",
             f"{constant_columns}/{total} drive frequencies constant across "
             f"amplitudes, {elapsed:.2f} s")


def test_criterion_3_linearity(beam):
    """Doubling h_b doubles the response pointwise to 1e-12 relative."""
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(100):
        x = float(rng.uniform(0.0, beam.length_m))
        t = float(rng.uniform(0.0, 3.0))
        f_b = float(rng.uniform(20.0, 350.0))
        h_b = float(rng.uniform(1e-5, 5e-4))
        y1 = oracles.displacement(beam, h_b, f_b, x, t)
        y2 = oracles.displacement(beam, 2.0 * h_b, f_b, x, t)
        scale = max(abs(y2), 1e-30)
        worst = max(worst, abs(y2 - 2.0 * y1) / scale)
    _verdict(worst <= 1e-12, "linearity in drive amplitude",
             f"worst relative doubling error {worst:.2e} over 100 probes")


def test_criterion_4_fft_oracle_equivalence():
    """Fast transform equals the naive O(N^2) DFT for every size <= 64."""
    rng = np.random.default_rng(1234)
    worst = 0.0
    for n in range(1, 65):
        x = rng.normal(0.0, 1.0, n)
        fast = fft_magnitude(x)
        naive = np.array(oracles.naive_dft_magnitudes(list(x)))
        worst = max(worst, float(np.max(np.abs(fast - naive))))
    _verdict(worst < 1e-9, "fft oracle equivalence",
             f"worst absolute deviation {worst:.2e} over sizes 1..64")


def test_criterion_5_gradient_check():
    """Backprop vs central differences on the default architecture, < 10 s."""
    start = time.perf_counter()
    model = init(MlpArchitecture(), 2718)
    rng = np.random.default_rng(3141)
    x = rng.normal(0.0, 1.0, (8, 200))
    labels = rng.integers(1, 8, size=8)
    w_grads, b_grads = gradients(model, x, labels)

    def mean_loss():
        probs, _ = _forward(model, x)
        return float(_batch_losses(probs, labels).mean())

    h = 1e-5
    worst = 0.0
    for layer in range(len(model.weights)):
        for params, grads in ((model.weights, w_grads), (model.biases, b_grads)):
            flat = params[layer].reshape(-1)
            gflat = grads[layer].reshape(-1)
            count = min(50, flat.size)
            for idx in rng.choice(flat.size, size=count, replace=False):
                keep = flat[idx]
                flat[idx] = keep + h
                up = mean_loss()
                flat[idx] = keep - h
                down = mean_loss()
                flat[idx] = keep
                numeric = (up - down) / (2.0 * h)
                denom = max(abs(numeric), abs(gflat[idx]), 1e-8)
                worst = max(worst, abs(numeric - gflat[idx]) / denom)
    elapsed = time.perf_counter() - start
    _verdict(worst < 1e-5 and elapsed < 10.0, "gradient check",
             f"max relative error {worst:.2e} over >=50 parameters per layer "
             f"in every layer, {elapsed:.2f} s")


def test_criterion_6_dataset_shape(default_dataset):
    """Default synthesis: 300 windows per terrain, 1575/525 stratified split."""
    per_class = np.bincount(default_dataset.labels(), minlength=8)[1:]
    train_set, test_set = split(default_dataset, 0.75, 20260810)
    train_per_class = np.bincount(train_set.labels(), minlength=8)[1:]
    ok = (len(default_dataset) == 2100
          and np.all(per_class == 300)
          and len(train_set) == 1575
          and len(test_set) == 525
          and np.all(train_per_class == 225))
    _verdict(ok, "dataset shape",
             f"{len(default_dataset)} vectors, per-terrain {per_class.tolist()}, "
             f"split {len(train_set)}/{len(test_set)}")


@pytest.fixture(scope="module")
def train_eval_reports(tmp_path_factory):
    """Default and smoke train-eval reports, run once for the module, and
    the seconds the two runs took together."""
    start = time.perf_counter()
    default_report = run_train_eval(ExperimentConfig(),
                                    tmp_path_factory.mktemp("default"))
    smoke_report = run_train_eval(config_from_dict({"profiles": "smoke"}),
                                  tmp_path_factory.mktemp("smoke"))
    return default_report, smoke_report, time.perf_counter() - start


def test_criterion_7_classification_accuracy(train_eval_reports):
    """Mean accuracy over 20 seeded repetitions: default >= 0.80, smoke >= 0.95.

    Synthetic stand-in target; runtime bounded at 10 minutes.
    """
    default_report, smoke_report, elapsed = train_eval_reports
    mean_default = default_report["mean_overall_accuracy"]
    mean_smoke = smoke_report["mean_overall_accuracy"]
    reps = len(default_report["repetitions"])
    _verdict(mean_default >= 0.80 and mean_smoke >= 0.95
             and reps == 20 and elapsed < 600.0,
             "classification accuracy",
             f"default profiles {mean_default:.4f} (>=0.80), smoke profiles "
             f"{mean_smoke:.4f} (>=0.95), {reps} repetitions, {elapsed:.1f} s")


def test_default_accuracy_is_exact(train_eval_reports):
    """The default profiles separate perfectly: every one of the 20
    repetitions classifies every test vector right (the abstract reports
    85.6%, which these synthetic profiles do not reproduce)."""
    reps = train_eval_reports[0]["repetitions"]
    confusions = np.array([r["confusion"] for r in reps])
    off_diagonal = confusions.sum() - np.trace(confusions, axis1=1, axis2=2).sum()
    ok = (len(reps) == 20
          and all(r["overall_accuracy"] == 1.0 for r in reps)
          and off_diagonal == 0)
    _verdict(ok, "exact default accuracy",
             f"{sum(r['overall_accuracy'] == 1.0 for r in reps)}/{len(reps)} "
             f"repetitions at 1.0, {off_diagonal} off-diagonal test vectors")


def test_criterion_8_speed_sweep_structure(tmp_path):
    """Five speeds x seven terrains, populated cells, bins follow f = v/lambda."""
    cfg = ExperimentConfig()
    report = run_speed_sweep(cfg, tmp_path)
    profiles = resolve_profiles(cfg)
    bin_width = cfg.sample_rate_hz / FEATURE_WIDTH
    speeds = report["speeds_m_s"]
    cells = []
    bin_errors = []
    for entry in report["per_speed"]:
        cells.extend(entry["per_class_accuracy"])
        for tc in TerrainClass:
            predicted = oracles.dominant_frequency(profiles[tc], entry["speed_m_s"])
            bin_errors.append(
                abs(entry["dominant_bin_hz"][tc.label] - predicted))
    ok = (speeds == [0.1, 0.15, 0.2, 0.25, 0.3]
          and len(cells) == 35
          and all(0.0 <= a <= 1.0 for a in cells)
          and max(bin_errors) <= bin_width)
    _verdict(ok, "speed-sweep structure",
             f"{len(cells)} accuracy cells over speeds {speeds}, max dominant-"
             f"bin deviation from v/lambda {max(bin_errors):.2f} Hz "
             f"(<= {bin_width:.1f})")
