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
forcing * mix is evaluated in the folded form

    sin(w_b t) * ( exp(-zeta w_i t) (zeta sin(w_d t) + s1z cos(w_d t)) - s1z )

with s1z = sqrt(1 - zeta^2), which stays finite at every t because the
decay factor is at most 1.

After steady_state_offset (40 time constants of the slowest mode) the decay
factor is below half a unit in the last place of s1z, and the response is
exactly

    y(x, t) = steady_state_gain(beam, x) * h_b * f_b^2 * sin(2 pi f_b t)

The modal frequencies drop out of this form: the steady response is a pure
sinusoid at the drive frequency whose amplitude grows as f_b^2, with no
resonance near the first mode (46.0 Hz for the default spring) or any
other. displacement_series samples only this form, with a drive phase; the
modal sum stays as the tests' reference (tests/oracles.py), at any t.

Units are SI throughout: meters, seconds, Hz, kg, Pa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhysicsError

# First five roots of the clamped-free characteristic equation.
CANTILEVER_MODE_CONSTANTS = (1.8751, 4.6941, 7.8548, 10.9955, 14.137)


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
    damping_ratio: float = 0.04

    def __post_init__(self):
        for name in ("length_m", "cross_section_m2", "density_kg_m3",
                     "bending_stiffness_nm2"):
            if getattr(self, name) <= 0.0:
                raise PhysicsError(f"{name} must be positive")
        if not 0.0 < self.damping_ratio < 1.0:
            raise PhysicsError("damping_ratio must lie in (0, 1)")


@dataclass(frozen=True)
class Excitation:
    """One sinusoidal base-excitation component."""

    amplitude_m: float
    frequency_hz: float

    def __post_init__(self):
        if self.amplitude_m < 0.0:
            raise PhysicsError("amplitude_m must be >= 0")
        if self.frequency_hz <= 0.0:
            raise PhysicsError("frequency_hz must be positive")

    @property
    def angular_frequency(self) -> float:
        return 2.0 * math.pi * self.frequency_hz


@dataclass
class SweepSurface:
    """Max displacement and dominant frequency over an excitation grid."""

    f_b_grid_hz: np.ndarray
    h_b_grid_m: np.ndarray
    y_max_m: np.ndarray       # shape (len(f_b_grid), len(h_b_grid))
    f_dominant_hz: np.ndarray  # same shape

    def __post_init__(self):
        self.f_b_grid_hz = np.asarray(self.f_b_grid_hz, dtype=float)
        self.h_b_grid_m = np.asarray(self.h_b_grid_m, dtype=float)
        self.y_max_m = np.asarray(self.y_max_m, dtype=float)
        self.f_dominant_hz = np.asarray(self.f_dominant_hz, dtype=float)
        shape = (self.f_b_grid_hz.size, self.h_b_grid_m.size)
        if self.y_max_m.shape != shape or self.f_dominant_hz.shape != shape:
            raise PhysicsError("sweep matrices must match the grid dimensions")

    def write_csv(self, path) -> None:
        """Row-major CSV over the f_b grid: f_b_hz,h_b_m,y_max_m,f_dom_hz."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("f_b_hz,h_b_m,y_max_m,f_dom_hz\n")
            for i, fb in enumerate(self.f_b_grid_hz):
                for j, hb in enumerate(self.h_b_grid_m):
                    fh.write(f"{float(fb)!r},{float(hb)!r},"
                             f"{float(self.y_max_m[i, j])!r},"
                             f"{float(self.f_dominant_hz[i, j])!r}\n")


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


def modal_angular_frequency(beam: BeamSpec, mode_index: int) -> float:
    """Undamped angular frequency of mode `mode_index` (0-based), rad/s."""
    d = CANTILEVER_MODE_CONSTANTS[mode_index]
    stiffness_rate = math.sqrt(
        beam.bending_stiffness_nm2 / (beam.cross_section_m2 * beam.density_kg_m3))
    return d * d * stiffness_rate / beam.length_m ** 2


def transient_time_constant(beam: BeamSpec) -> float:
    """Slowest decay time constant 1 / (zeta * omega_1), seconds."""
    return 1.0 / (beam.damping_ratio * modal_angular_frequency(beam, 0))


def steady_state_offset(beam: BeamSpec) -> float:
    """Start time after which the transient is below double precision.

    40 time constants of the slowest mode: exp(-40) ~ 4e-18.
    """
    return 40.0 * transient_time_constant(beam)


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
    zeta = beam.damping_ratio
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
    if not 0.0 <= x <= beam.length_m:
        raise PhysicsError(f"position x={x} outside beam [0, {beam.length_m}]")
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

    For t >= steady_state_offset(beam) the response to Excitation(h_b, f_b)
    is steady_state_gain(beam, x) * h_b * f_b^2 * sin(2 pi f_b t).
    """
    s1z = math.sqrt(1.0 - beam.damping_ratio ** 2)
    return (2.0 * math.pi) ** 2 * s1z * sum(_mode_weights(beam, x))


def displacement_series(beam: BeamSpec, exc: Excitation, sensor_position_m: float,
                        sample_rate_hz: float, duration_s: float,
                        phase_rad: float = 0.0) -> np.ndarray:
    """Sample the steady sensor displacement with the drive phase shifted.

    Returns steady_state_gain * h_b * f_b^2 * sin(w_b t + phase_rad) on the
    grid t = steady_state_offset(beam) + k / sample_rate_hz: with phase 0 it
    equals the modal sum there. The sample rate must resolve
    the drive: sample_rate_hz > 2 * f_b.
    """
    if duration_s <= 0.0:
        raise PhysicsError("duration_s must be positive")
    if sample_rate_hz <= 2.0 * exc.frequency_hz:
        raise PhysicsError(
            f"sample rate {sample_rate_hz} Hz cannot resolve {exc.frequency_hz} Hz "
            "(need sample_rate > 2 * f_b)")
    n = int(round(duration_s * sample_rate_hz))
    if n < 1:
        raise PhysicsError("duration too short for one sample")
    t = steady_state_offset(beam) + np.arange(n) / sample_rate_hz
    return (steady_state_gain(beam, sensor_position_m) * exc.amplitude_m
            * exc.frequency_hz ** 2) * np.sin(exc.angular_frequency * t + phase_rad)


def modal_sweep(beam: BeamSpec, f_b_grid_hz, h_b_grid_m, sensor_position_m: float,
                sample_rate_hz: float, duration_s: float) -> SweepSurface:
    """Evaluate max displacement and dominant frequency over a drive grid.

    Each cell samples the late-time (steady) response and reads the dominant
    frequency from the magnitude spectrum. Cells are independent; any
    per-cell failure aborts the whole sweep.
    """
    from .pipeline import dominant_frequency, fft_magnitude

    f_grid = np.asarray(list(f_b_grid_hz), dtype=float)
    h_grid = np.asarray(list(h_b_grid_m), dtype=float)
    if f_grid.size == 0 or h_grid.size == 0:
        raise PhysicsError("sweep grids must be nonempty")
    for fb in f_grid:
        if sample_rate_hz <= 2.0 * fb:
            raise PhysicsError(
                f"sample rate {sample_rate_hz} Hz cannot resolve grid point {fb} Hz")
    y_max = np.empty((f_grid.size, h_grid.size))
    f_dom = np.empty_like(y_max)
    for i, fb in enumerate(f_grid):
        for j, hb in enumerate(h_grid):
            samples = displacement_series(
                beam, Excitation(hb, fb), sensor_position_m,
                sample_rate_hz, duration_s)
            y_max[i, j] = float(np.max(np.abs(samples)))
            f_dom[i, j] = dominant_frequency(fft_magnitude(samples),
                                             sample_rate_hz / len(samples))
    return SweepSurface(f_grid, h_grid, y_max, f_dom)
