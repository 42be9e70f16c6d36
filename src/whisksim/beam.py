"""Closed-form vibration response of a base-excited equivalent cantilever beam.

The whisker spring is modelled as a uniform cantilever beam whose support
moves sinusoidally (vertical base excitation from the ground). The lateral
displacement y(x, t) is a sum over the first five bending modes; each modal
term is assembled from four factors:

    y(x, t) = sum_i -( forcing_i(t) * shape_i(x) * mix_i(t) ) / norm_i

* forcing: drive scaling h_b * w_b^2 * sin(w_b t) times the decay envelope
  exp(-zeta w_i t) at the damped modal rate,
* shape:   clamped-free mode shape evaluated at x,
* mix:     blend of the decaying transient oscillation at the damped modal
  frequency w_d = w_i sqrt(1 - zeta^2) and the persistent term
  -sqrt(1 - zeta^2) exp(+zeta w_i t),
* norm:    modal normalization constant (trigonometric combination of the
  mode root).

The envelope cancels the growing exponential of the persistent term, so
the tests' reference (tests/oracles.py) evaluates forcing * mix in the
folded form

    sin(w_b t) * ( exp(-zeta w_i t) (zeta sin(w_d t) + s1z cos(w_d t)) - s1z )

with s1z = sqrt(1 - zeta^2), which stays finite at every t because the
decay factor is at most 1.

Once the decay factor is below half a unit in the last place of s1z (40
time constants of the slowest mode, 3.46 s for the default spring) the
response is exactly

    y(x, t) = steady_state_gain(beam, x) * h_b * f_b^2 * sin(2 pi f_b t)

The modal frequencies drop out of this form: the steady response is a pure
sinusoid at the drive frequency whose amplitude grows as f_b^2, with no
resonance near the first mode (46.0 Hz for the default spring) or any
other. Before that, each mode's decaying product with sin(w_b t) holds two
sidebands at f_b +- w_d / 2 pi (45.96 Hz for the first mode), the
analytical pair of the paper's claim (b), which is gone from every steady
window (tests/test_beam.py::TestTransientSidebands).

So the spring enters the response through one number, the gain at the
sensor: ExperimentConfig.sensor_gain is the one place that derives it,
and displacement_series and modal_sweep take it in place of a beam and a
sensor position. displacement_series samples only the steady form,
summing one sinusoid per drive component, each with its own phase, on a
clock that starts at 0: a later start would only move each phase. Only
tests/oracles.py evaluates the modal sum, at any t.

Units are SI throughout: meters, seconds, Hz, kg, Pa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import PhysicsError

# First five roots of the clamped-free characteristic equation.
CANTILEVER_MODE_CONSTANTS = (1.8751, 4.6941, 7.8548, 10.9955, 14.137)
DAMPING_RATIO = 0.04   # zeta, the same for every mode


@dataclass(frozen=True)
class SpringSpec:
    """Coil spring geometry and material, as mounted on the sensor shaft.

    Defaults describe the reference part: 60 mm free length, 1 mm wire,
    10 mm / 8 mm outer/inner diameter, 13 coils, stainless wire.
    """

    free_length_m: float = 0.060
    wire_radius_m: float = 0.0005
    outer_diameter_m: float = 0.010
    inner_diameter_m: float = 0.008
    coil_count: int = 13
    wire_density_kg_m3: float = 8050.0
    wire_shear_modulus_pa: float = 70.0e9

    def __post_init__(self):
        for name in ("free_length_m", "wire_radius_m", "outer_diameter_m",
                     "inner_diameter_m", "wire_density_kg_m3",
                     "wire_shear_modulus_pa"):
            if getattr(self, name) <= 0.0:
                raise PhysicsError(f"{name} must be positive")
        if self.inner_diameter_m >= self.outer_diameter_m:
            raise PhysicsError("inner diameter must be smaller than outer diameter")
        if int(self.coil_count) != self.coil_count or self.coil_count < 1:
            raise PhysicsError("coil_count must be an integer >= 1")


@dataclass(frozen=True)
class BeamSpec:
    """Equivalent uniform cantilever beam derived from the coil spring."""

    length_m: float
    cross_section_m2: float
    density_kg_m3: float          # coil-corrected volumetric density
    bending_stiffness_nm2: float  # E*I of the equivalent beam

    def __post_init__(self):
        for name in ("length_m", "cross_section_m2", "density_kg_m3",
                     "bending_stiffness_nm2"):
            if getattr(self, name) <= 0.0:
                raise PhysicsError(f"{name} must be positive")


class SweepSurface(NamedTuple):
    """Max displacement and dominant frequency over a drive grid, each of
    shape (len(f_b grid), len(h_b grid))."""

    y_max_m: np.ndarray
    f_dominant_hz: np.ndarray


def spring_to_beam(spring: SpringSpec) -> BeamSpec:
    """Derive the equivalent-beam parameters from the coil spring.

    The beam keeps the spring's axial length and wire cross-section; the
    density is corrected by the wound-wire length ratio C = l_w / (n p),
    and the bending stiffness is taken as the wire torsional stiffness
    G_w * J_w. The mean coil radius is (outer + inner) / 4.
    """
    area = math.pi * spring.wire_radius_m ** 2
    pitch = spring.free_length_m / spring.coil_count
    coil_radius = (spring.outer_diameter_m + spring.inner_diameter_m) / 4.0
    wire_length = spring.coil_count * math.sqrt(
        (2.0 * math.pi * coil_radius) ** 2 + pitch ** 2)
    correction = wire_length / (spring.coil_count * pitch)
    torsion_constant = math.pi * spring.wire_radius_m ** 4 / 4.0
    return BeamSpec(
        length_m=spring.free_length_m,
        cross_section_m2=area,
        density_kg_m3=correction * spring.wire_density_kg_m3,
        bending_stiffness_nm2=spring.wire_shear_modulus_pa * torsion_constant,
    )


def _factor_shape(beam: BeamSpec, mode_index: int, x: float) -> float:
    """Clamped-free mode shape at position x (scalar)."""
    d = CANTILEVER_MODE_CONSTANTS[mode_index]
    xi = d * x / beam.length_m
    return (math.sinh(xi) - math.sin(xi)
            + (math.cos(xi) - math.cosh(xi))
            * (math.sin(d) + math.sinh(d)) / (math.cos(d) + math.cosh(d)))


def _factor_norm(beam: BeamSpec, mode_index: int) -> float:
    """Modal normalization constant (scalar)."""
    d = CANTILEVER_MODE_CONSTANTS[mode_index]
    zeta = DAMPING_RATIO
    sd, cd = math.sin(d), math.cos(d)
    shd, chd = math.sinh(d), math.cosh(d)
    combo = (3.0 * shd * cd ** 2 * chd
             - d * cd ** 2
             - 3.0 * sd * cd * chd ** 2
             + 3.0 * shd * cd
             + d * chd ** 2
             - 3.0 * sd * chd
             + 2.0 * d * sd * shd)
    return (d ** 4 * beam.bending_stiffness_nm2
            * math.sqrt(1.0 - zeta * zeta) * combo)


def _mode_weights(beam: BeamSpec, x: float) -> list[float]:
    """Per mode, the factors of forcing * shape / norm that do not depend on
    the drive or on t: 2 A L^4 rho trig(d) shape(x) / norm."""
    weights = []
    for i, d in enumerate(CANTILEVER_MODE_CONSTANTS):
        trig_const = ((math.cos(d) - 1.0) * (math.cosh(d) - 1.0)
                      * (math.cos(d) + math.cosh(d)))
        weights.append(2.0 * beam.cross_section_m2 * beam.length_m ** 4
                       * beam.density_kg_m3 * trig_const
                       * _factor_shape(beam, i, x) / _factor_norm(beam, i))
    return weights


def steady_state_gain(beam: BeamSpec, x: float) -> float:
    """Steady displacement amplitude at x per unit h_b * f_b^2, m / (m Hz^2).

    Once the transient has decayed, the response to a drive of height h_b
    at f_b is steady_state_gain(beam, x) * h_b * f_b^2 * sin(2 pi f_b t).
    """
    s1z = math.sqrt(1.0 - DAMPING_RATIO ** 2)
    return (2.0 * math.pi) ** 2 * s1z * sum(_mode_weights(beam, x))


def displacement_series(gain: float, heights_m, frequencies_hz, phases_rad,
                        sample_rate_hz: float, duration_s: float) -> np.ndarray:
    """Sample the steady sensor displacement under a sum of drives.

    gain is steady_state_gain at the sensor. Returns the sum over
    components, in order, of gain * h * f^2 * sin(2 pi f t + phase) on the
    grid t = k / sample_rate_hz: it equals the settled modal sum at T + t
    where each phase is 2 pi f T. Callers check that the sample rate
    resolves every drive (sample_rate_hz > 2 * f).
    """
    n = int(round(duration_s * sample_rate_hz))
    t = np.arange(n) / sample_rate_hz
    total = np.zeros(n)
    term = np.empty(n)
    for h_b, f_b, phase in zip(heights_m, frequencies_hz, phases_rad):
        np.multiply(2.0 * math.pi * f_b, t, out=term)
        term += phase
        np.sin(term, out=term)
        term *= gain * h_b * f_b ** 2
        total += term
    return total


def modal_sweep(gain: float, f_b_hz, h_b_m, sample_rate_hz: float,
                duration_s: float) -> SweepSurface:
    """Evaluate max displacement and dominant frequency over a drive grid,
    for the sensor whose steady_state_gain is gain.

    Each cell samples the late-time (steady) response and reads the dominant
    frequency from the magnitude spectrum. Cells are independent; any
    per-cell failure aborts the whole sweep with a PhysicsError that names
    the cell: a response that overflows, and one that is zero everywhere
    (a height so small that it underflows), which has no dominant frequency.
    """
    from .pipeline import dominant_frequency, fft_magnitude

    f_grid = np.asarray(list(f_b_hz), dtype=float)
    h_grid = np.asarray(list(h_b_m), dtype=float)
    for fb in f_grid:
        if sample_rate_hz <= 2.0 * fb:
            raise PhysicsError(
                f"sample rate {sample_rate_hz} Hz cannot resolve grid point {fb} Hz")
    y_max = np.empty((f_grid.size, h_grid.size))
    f_dom = np.empty_like(y_max)
    with np.errstate(over="ignore", invalid="ignore"):   # refused just below
        for i, fb in enumerate(f_grid):
            for j, hb in enumerate(h_grid):
                samples = displacement_series(gain, [hb], [fb], [0.0],
                                              sample_rate_hz, duration_s)
                spectrum = fft_magnitude(samples)   # not finite if samples are not
                if not np.isfinite(spectrum).all():
                    raise PhysicsError(f"the response to f_b {fb} Hz, h_b {hb} m "
                                       "overflows")
                dominant = dominant_frequency(spectrum, sample_rate_hz / len(samples))
                if dominant is None:
                    raise PhysicsError(f"the response to f_b {fb} Hz, h_b {hb} m "
                                       "is zero everywhere")
                y_max[i, j] = float(np.max(np.abs(samples)))
                f_dom[i, j] = dominant
    return SweepSurface(y_max, f_dom)
