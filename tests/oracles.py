"""Independent reference implementations used only by the tests.

Everything here is deliberately written from scratch (scalar mpmath for the
beam response, an O(N^2) loop for the DFT, finite differences for the
gradients) so the production code is checked against a second, slower
route rather than against itself. Two float references sit beside them:
the five-mode modal sum at any t (modal_terms, displacement), which the
steady-state form of whisksim.beam reduces to once the transient has
decayed (steady_state_offset), and read_dataset_csv, which parses what
write_dataset_csv writes. one_stack_dataset is the dataset build as it was
before it transformed a run's windows block by block: one stack per run;
one_shot_evaluate is mlp.evaluate as it was before it classified the test
rows block by block: one forward pass over them all. dataset_of and
plain_dataset are no references: dataset_of builds a dataset of sample
arrays as the commands build theirs, for the tests that start from
samples, and plain_dataset makes one of raw feature rows.
"""

import math

import mpmath as mp
import numpy as np

from whisksim.beam import (CANTILEVER_MODE_CONSTANTS, DAMPING_RATIO, BeamSpec,
                           _mode_weights)
from whisksim.errors import PhysicsError
from whisksim.mlp import NUM_CLASSES, MlpModel, forward
from whisksim.pipeline import FEATURE_WIDTH, Dataset, build_dataset, transform_run

mp.mp.dps = 50

MODE_ROOTS = (1.8751, 4.6941, 7.8548, 10.9955, 14.137)


def spring_parameters(free_length, wire_radius, outer_d, inner_d, coils,
                      density, shear_modulus):
    """Equivalent-beam constants from the coil geometry, high precision."""
    free_length = mp.mpf(free_length)
    wire_radius = mp.mpf(wire_radius)
    pitch = free_length / coils
    coil_radius = (mp.mpf(outer_d) + mp.mpf(inner_d)) / 4
    wire_length = coils * mp.sqrt((2 * mp.pi * coil_radius) ** 2 + pitch ** 2)
    correction = wire_length / (coils * pitch)
    area = mp.pi * wire_radius ** 2
    torsion = mp.pi * wire_radius ** 4 / 4
    return {
        "pitch": pitch,
        "correction": correction,
        "area": area,
        "rho": correction * mp.mpf(density),
        "EI": mp.mpf(shear_modulus) * torsion,
        "length": free_length,
    }


def beam_response(length, area, rho, EI, zeta, h_b, f_b, x, t):
    """Scalar five-mode response of the base-excited cantilever.

    Assembled factor by factor in the same grouping the production code
    uses, but in 50-digit arithmetic where the growing exponential is
    harmless, so it also validates the production overflow fold.
    """
    length, area, rho = mp.mpf(length), mp.mpf(area), mp.mpf(rho)
    EI, zeta = mp.mpf(EI), mp.mpf(zeta)
    h_b, x, t = mp.mpf(h_b), mp.mpf(x), mp.mpf(t)
    w_b = 2 * mp.pi * mp.mpf(f_b)
    s1z = mp.sqrt(1 - zeta ** 2)
    total = mp.mpf(0)
    for d in MODE_ROOTS:
        d = mp.mpf(d)
        om = d ** 2 * mp.sqrt(EI / (area * rho)) / length ** 2
        forcing = (2 * area * h_b * length ** 4 * w_b ** 2 * rho
                   * mp.e ** (-(zeta * om * t)) * mp.sin(w_b * t)
                   * (mp.cos(d) - 1) * (mp.cosh(d) - 1)
                   * (mp.cos(d) + mp.cosh(d)))
        xi = d * x / length
        shape = (mp.sinh(xi) - mp.sin(xi)
                 + (mp.cos(xi) - mp.cosh(xi))
                 * (mp.sin(d) + mp.sinh(d)) / (mp.cos(d) + mp.cosh(d)))
        mix = (zeta * mp.sin(om * s1z * t)
               - mp.e ** (zeta * om * t) * s1z
               + mp.cos(om * s1z * t) * s1z)
        norm = d ** 4 * EI * s1z * (
            3 * mp.sinh(d) * mp.cos(d) ** 2 * mp.cosh(d)
            - d * mp.cos(d) ** 2
            - 3 * mp.sin(d) * mp.cos(d) * mp.cosh(d) ** 2
            + 3 * mp.sinh(d) * mp.cos(d)
            + d * mp.cosh(d) ** 2
            - 3 * mp.sin(d) * mp.cosh(d)
            + 2 * d * mp.sin(d) * mp.sinh(d))
        total += -(forcing * shape * mix) / norm
    return total


def beam_response_factors(length, area, rho, EI, zeta, h_b, f_b, x, t,
                          mode_index):
    """The four factors of a single modal term, for factor-level checks."""
    length, area, rho = mp.mpf(length), mp.mpf(area), mp.mpf(rho)
    EI, zeta = mp.mpf(EI), mp.mpf(zeta)
    h_b, x, t = mp.mpf(h_b), mp.mpf(x), mp.mpf(t)
    w_b = 2 * mp.pi * mp.mpf(f_b)
    s1z = mp.sqrt(1 - zeta ** 2)
    d = mp.mpf(MODE_ROOTS[mode_index])
    om = d ** 2 * mp.sqrt(EI / (area * rho)) / length ** 2
    forcing = (2 * area * h_b * length ** 4 * w_b ** 2 * rho
               * mp.e ** (-(zeta * om * t)) * mp.sin(w_b * t)
               * (mp.cos(d) - 1) * (mp.cosh(d) - 1)
               * (mp.cos(d) + mp.cosh(d)))
    xi = d * x / length
    shape = (mp.sinh(xi) - mp.sin(xi)
             + (mp.cos(xi) - mp.cosh(xi))
             * (mp.sin(d) + mp.sinh(d)) / (mp.cos(d) + mp.cosh(d)))
    mix = (zeta * mp.sin(om * s1z * t)
           - mp.e ** (zeta * om * t) * s1z
           + mp.cos(om * s1z * t) * s1z)
    norm = d ** 4 * EI * s1z * (
        3 * mp.sinh(d) * mp.cos(d) ** 2 * mp.cosh(d)
        - d * mp.cos(d) ** 2
        - 3 * mp.sin(d) * mp.cos(d) * mp.cosh(d) ** 2
        + 3 * mp.sinh(d) * mp.cos(d)
        + d * mp.cosh(d) ** 2
        - 3 * mp.sin(d) * mp.cosh(d)
        + 2 * d * mp.sin(d) * mp.sinh(d))
    return forcing, shape, mix, norm


def naive_dft_magnitudes(values):
    """O(N^2) DFT magnitude, plain Python complex arithmetic."""
    import cmath
    n = len(values)
    out = []
    for k in range(n):
        acc = 0j
        for j, v in enumerate(values):
            acc += v * cmath.exp(-2j * cmath.pi * k * j / n)
        out.append(abs(acc))
    return out


def read_dataset_csv(path) -> Dataset:
    """The dataset in a CSV written by write_dataset_csv, floats parsed exactly."""
    rows, labels, window_idx = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        expected = [f"f{i:03d}" for i in range(FEATURE_WIDTH)] + ["label", "window_idx"]
        if header != expected:
            raise PhysicsError(f"unexpected dataset header in {path}")
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != len(expected):
                raise PhysicsError(f"row {len(rows) + 1} of {path} has "
                                   f"{len(parts)} fields, not {len(expected)}")
            rows.append([float(p) for p in parts[:FEATURE_WIDTH]])
            labels.append(int(parts[FEATURE_WIDTH]))
            window_idx.append(int(parts[FEATURE_WIDTH + 1]))
    if not rows:
        raise PhysicsError(f"dataset file {path} contains no vectors")
    return plain_dataset(rows, labels, window_idx)


def plain_dataset(features, labels, window_idx, dropped=0) -> Dataset:
    """The dataset of these feature rows, in order: its rows are every row
    of its own matrix."""
    matrix = np.asarray(features, dtype=float)
    return Dataset(matrix, np.arange(len(matrix)), np.asarray(labels, dtype=int),
                   np.asarray(window_idx, dtype=int), dropped)


def dataset_of(runs) -> Dataset:
    """The dataset of (samples, label) runs, each transformed by
    transform_run into the next slot of one matrix, labeled by build_dataset."""
    matrix = np.empty((sum(len(samples) // FEATURE_WIDTH for samples, _ in runs),
                       FEATURE_WIDTH))
    parts, start = [], 0
    for samples, label in runs:
        parts.append(transform_run(samples, label, matrix[start:]))
        start += parts[-1][1]
    return build_dataset(matrix, parts)


def one_stack_dataset(runs) -> Dataset:
    """The dataset dataset_of makes of (samples, label) runs, with each
    run's kept windows standardized and transformed as one stack."""
    features, labels, window_idx, dropped = [], [], [], 0
    for samples, label in runs:
        count = len(samples) // FEATURE_WIDTH
        stack = samples[:count * FEATURE_WIDTH].reshape(count, FEATURE_WIDTH)
        std = stack.std(axis=1)
        keep = std > 1e-12
        flat = stack[keep]
        flat -= flat.mean(axis=1, keepdims=True)
        flat /= std[keep, None]
        features.append(np.abs(np.fft.fft(flat)))
        labels.append(np.full(len(flat), int(label)))
        window_idx.append(np.flatnonzero(keep))
        dropped += count - len(flat)
    return plain_dataset(np.concatenate(features), np.concatenate(labels),
                         np.concatenate(window_idx), dropped)


def one_shot_evaluate(model: MlpModel, test_set: Dataset) -> np.ndarray:
    """The confusion counts mlp.evaluate gives, from one forward pass over
    every gathered test row."""
    predictions = forward(model, test_set.features()).argmax(axis=1)
    counts = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=int)
    np.add.at(counts, (test_set.labels() - 1, predictions), 1)
    return counts


def modal_angular_frequency(beam: BeamSpec, mode_index: int) -> float:
    """Undamped angular frequency of mode `mode_index` (0-based), rad/s."""
    d = CANTILEVER_MODE_CONSTANTS[mode_index]
    stiffness_rate = math.sqrt(
        beam.bending_stiffness_nm2 / (beam.cross_section_m2 * beam.density_kg_m3))
    return d * d * stiffness_rate / beam.length_m ** 2


def transient_time_constant(beam: BeamSpec) -> float:
    """Slowest decay time constant 1 / (zeta * omega_1), seconds."""
    return 1.0 / (DAMPING_RATIO * modal_angular_frequency(beam, 0))


def steady_state_offset(beam: BeamSpec) -> float:
    """Time after which the transient is below double precision.

    40 time constants of the slowest mode: exp(-40) ~ 4e-18.
    """
    return 40.0 * transient_time_constant(beam)


def modal_terms(beam: BeamSpec, h_b: float, f_b: float, x: float,
                t: np.ndarray) -> np.ndarray:
    """Per-mode displacement contributions to a drive of height h_b at f_b,
    in the folded form, shape (5, len(t))."""
    if not 0.0 <= x <= beam.length_m:
        raise PhysicsError(f"position x={x} outside beam [0, {beam.length_m}]")
    zeta = DAMPING_RATIO
    s1z = math.sqrt(1.0 - zeta * zeta)
    w_b = 2.0 * math.pi * f_b
    drive_scale = h_b * w_b ** 2
    drive = np.sin(w_b * t)
    terms = np.empty((len(CANTILEVER_MODE_CONSTANTS), t.size))
    for i, weight in enumerate(_mode_weights(beam, x)):
        om = modal_angular_frequency(beam, i)
        arg_d = om * s1z * t
        decay = np.exp(-zeta * om * t)
        terms[i] = -(drive_scale * weight) * drive * (
            decay * (zeta * np.sin(arg_d) + s1z * np.cos(arg_d)) - s1z)
    return terms


def displacement(beam: BeamSpec, h_b: float, f_b: float, x: float,
                 t: float) -> float:
    """Beam lateral displacement at position x and time t, meters."""
    if t < 0.0:
        raise PhysicsError("time must be >= 0")
    return float(modal_terms(beam, h_b, f_b, x, np.array([float(t)])).sum())


def dominant_frequency(profile, speed_m_s: float) -> float:
    """v / lambda of the profile component with the largest response weight
    h / lambda^2: the steady beam response to a component scales with
    h * f^2 and f = v / lambda, so the ranking does not depend on speed."""
    return speed_m_s / max(profile.components,
                           key=lambda c: c.h_m / c.lambda_m ** 2).lambda_m
