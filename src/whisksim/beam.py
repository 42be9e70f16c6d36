"""Closed-form steady response of a base-excited equivalent cantilever beam.

The whisker spring is modelled as a uniform cantilever beam whose support
moves sinusoidally (vertical base excitation from the ground). Its lateral
displacement is a damped sum over the first five bending modes
(tests/oracles.py evaluates that modal sum, factor by factor, at any t).
Once the transient has decayed (40 time constants of the slowest mode,
3.46 s for the default spring) the response is exactly

    y(x, t) = steady_state_gain(beam, x) * h_b * f_b^2 * sin(2 pi f_b t)

    steady_state_gain(beam, x) = (2 pi)^2 * 2 A L^4 rho
                                 * sum_i trig(d_i) shape_i(x) / (d_i^4 combo(d_i))
                                 / EI

with d_i the mode roots, trig(d) = (cos d - 1)(cosh d - 1)(cos d + cosh d),
shape_i the clamped-free mode shape and combo(d) the trigonometric part of
the modal norm. Neither the modal frequencies nor the damping ratio enter
it: the steady response is a pure sinusoid at the drive frequency whose
amplitude grows as f_b^2, with no resonance near the first mode (46.0 Hz
for the default spring) or any other. The transient's sidebands at
f_b +- w_d / 2 pi, the analytical pair of the paper's claim (b), are gone
from every steady window (tests/test_beam.py::TestTransientSidebands).

So the spring enters the response through one number, the gain at the
sensor: ExperimentConfig.sensor_gain is the one place that derives it, and
displacement_series takes it in place of a beam and a sensor position.
displacement_series samples only the steady form, summing one sinusoid per
drive component, each with its own phase, on a clock that starts at 0: a
later start would only move each phase.

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

    def __post_init__(self):
        for name in ("length_m", "cross_section_m2", "density_kg_m3",
                     "bending_stiffness_nm2"):
            if getattr(self, name) <= 0.0:
                raise PhysicsError(f"{name} must be positive")


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


def steady_state_gain(beam: BeamSpec, x: float) -> float:
    """Steady displacement amplitude at x per unit h_b * f_b^2, m / (m Hz^2).

    Once the transient has decayed, the response to a drive of height h_b
    at f_b is steady_state_gain(beam, x) * h_b * f_b^2 * sin(2 pi f_b t).
    """
    total = 0.0
    for d in CANTILEVER_MODE_CONSTANTS:
        sd, cd = math.sin(d), math.cos(d)
        shd, chd = math.sinh(d), math.cosh(d)
        trig = (cd - 1.0) * (chd - 1.0) * (cd + chd)
        xi = d * x / beam.length_m
        # near the root both differences cancel in floating point, and the
        # shape grows as xi^2: cos xi - cosh xi is -2 (sinh^2(xi/2) +
        # sin^2(xi/2)), and below xi = 1 sinh xi - sin xi is its series,
        # 2 * sum of xi^k / k! over k = 3, 7, 11, ...
        if xi < 1.0:
            odd = 2.0 * sum(xi ** k / math.factorial(k) for k in (3, 7, 11, 15, 19))
        else:
            odd = math.sinh(xi) - math.sin(xi)
        even = -2.0 * (math.sinh(xi / 2.0) ** 2 + math.sin(xi / 2.0) ** 2)
        shape = odd + even * (sd + shd) / (cd + chd)
        combo = (3.0 * shd * cd ** 2 * chd
                 - d * cd ** 2
                 - 3.0 * sd * cd * chd ** 2
                 + 3.0 * shd * cd
                 + d * chd ** 2
                 - 3.0 * sd * chd
                 + 2.0 * d * sd * shd)
        total += trig * shape / (d ** 4 * combo)
    # the sum scales the numerator before EI divides it: over a subnormal
    # EI the numerator alone would overflow
    return ((2.0 * math.pi) ** 2 * 2.0 * beam.cross_section_m2 * beam.length_m ** 4
            * beam.density_kg_m3 * total / beam.bending_stiffness_nm2)


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

