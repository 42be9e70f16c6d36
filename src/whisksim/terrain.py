"""Synthetic terrain excitation for the spring-whisker simulator.

Each terrain class is a frozen spectral profile: a set of spatial
wavelength/height components plus a white-noise floor. Rolling over a
profile at speed v turns every spatial component into a sinusoidal base
excitation with temporal frequency f = v / wavelength; the beam responses
superpose because the response model is linear in the drive amplitude.

The default table is a documented stand-in for real ground texture. It is
constructed so that at the reference speed (0.2 m/s) the seven dominant
temporal frequencies land on distinct, well separated bins of a one-second
200 Hz window:

    terrain     dominant component      secondary components       noise
    flat        0.0400 m -> 5 Hz        -                          lowest
    cement      0.2/12 m -> 12 Hz       fine texture at 40 Hz      low
    brick       0.0100 m -> 20 Hz       gap harmonic at 40 Hz      medium
    carpet      0.2/28 m -> 28 Hz       pile undulation at 4 Hz    medium
    soft-grass  0.2/36 m -> 36 Hz       blade clumps at 9 Hz       high
    sand        0.2/44 m -> 44 Hz       ripples at 32 and 16 Hz    high
    soft-soil   0.2/52 m -> 52 Hz       clods at 20 Hz             highest

Because the beam gain grows with the square of the drive frequency, the
dominant response component of a profile is the one maximizing h / lambda^2,
not simply the largest h; the table is arranged so that this is always the
documented dominant component by a wide margin.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .beam import displacement_series
from .errors import PhysicsError


class TerrainClass(enum.IntEnum):
    """The seven surface classes, ids fixed at 1..7."""

    FLAT = 1
    CEMENT = 2
    BRICK = 3
    CARPET = 4
    SOFT_GRASS = 5
    SAND = 6
    SOFT_SOIL = 7

    @property
    def label(self) -> str:
        return self.name.lower().replace("_", "-")

    @classmethod
    def from_label(cls, label: str) -> "TerrainClass":
        for member in cls:
            if member.label == label:
                return member
        raise PhysicsError(f"unknown terrain label {label!r}")


@dataclass(frozen=True)
class SpectralComponent:
    """One spatial texture component of a terrain profile: wavelength,
    height and drive-phase jitter, named as in a profile file."""

    lambda_m: float
    h_m: float
    jitter_rad: float = 0.0

    def __post_init__(self):
        if self.lambda_m <= 0.0:
            raise PhysicsError("lambda_m must be positive")
        if self.h_m < 0.0:
            raise PhysicsError("h_m must be >= 0")
        if not 0.0 <= self.jitter_rad <= math.pi:
            # a phase drawn from [-pi, pi] already covers the circle
            raise PhysicsError("jitter_rad must lie in [0, pi]")


@dataclass(frozen=True)
class SpectralProfile:
    """Spatial spectrum of a terrain plus its sensor noise floor."""

    components: tuple[SpectralComponent, ...]
    noise_floor_m: float = 0.0

    def __post_init__(self):
        if len(self.components) == 0:
            raise PhysicsError("profile needs at least one component")
        object.__setattr__(self, "components", tuple(self.components))
        if self.noise_floor_m < 0.0:
            raise PhysicsError("noise_floor_m must be >= 0")


def default_profiles() -> dict[TerrainClass, SpectralProfile]:
    """The frozen seven-terrain profile table documented in the module header."""
    return {
        TerrainClass.FLAT: SpectralProfile(
            components=(SpectralComponent(0.040, 2.0e-5, 0.1),),
            noise_floor_m=1.5e-9),
        TerrainClass.CEMENT: SpectralProfile(
            components=(SpectralComponent(0.2 / 12.0, 5.0e-5, 0.6),
                        SpectralComponent(0.005, 5.0e-7, 0.8)),
            noise_floor_m=1.0e-8),
        TerrainClass.BRICK: SpectralProfile(
            components=(SpectralComponent(0.010, 8.0e-5, 0.4),
                        SpectralComponent(0.005, 5.0e-6, 0.4)),
            noise_floor_m=3.0e-8),
        TerrainClass.CARPET: SpectralProfile(
            components=(SpectralComponent(0.2 / 28.0, 3.0e-5, 0.9),
                        SpectralComponent(0.050, 2.0e-5, 0.9)),
            noise_floor_m=3.0e-8),
        TerrainClass.SOFT_GRASS: SpectralProfile(
            components=(SpectralComponent(0.2 / 36.0, 4.0e-5, 1.2),
                        SpectralComponent(0.2 / 9.0, 1.0e-5, 1.2)),
            noise_floor_m=5.0e-8),
        TerrainClass.SAND: SpectralProfile(
            components=(SpectralComponent(0.2 / 44.0, 3.5e-5, 1.5),
                        SpectralComponent(0.2 / 32.0, 8.0e-6, 1.5),
                        SpectralComponent(0.2 / 16.0, 8.0e-6, 1.5)),
            noise_floor_m=6.0e-8),
        TerrainClass.SOFT_SOIL: SpectralProfile(
            components=(SpectralComponent(0.2 / 52.0, 3.0e-5, 1.8),
                        SpectralComponent(0.010, 6.0e-6, 1.8)),
            noise_floor_m=8.0e-8),
    }


def smoke_profiles() -> dict[TerrainClass, SpectralProfile]:
    """Noise-free single-component table with widely separated frequencies.

    Dominants at 6..66 Hz in 10 Hz steps (reference speed 0.2 m/s); heights
    scaled by 1/f^2 so every terrain produces the same response amplitude.
    Useful as an easily separable end-to-end check.
    """
    freqs = {
        TerrainClass.FLAT: 6.0,
        TerrainClass.CEMENT: 16.0,
        TerrainClass.BRICK: 26.0,
        TerrainClass.CARPET: 36.0,
        TerrainClass.SOFT_GRASS: 46.0,
        TerrainClass.SAND: 56.0,
        TerrainClass.SOFT_SOIL: 66.0,
    }
    return {
        terrain: SpectralProfile(
            components=(SpectralComponent(0.2 / f, 1.5e-3 * (6.0 / f) ** 2),),
            noise_floor_m=0.0)
        for terrain, f in freqs.items()
    }


def temporal_components(profile: SpectralProfile, speed_m_s: float,
                        sample_rate_hz: float) -> tuple[list, list]:
    """The profile's drive at speed_m_s: each component's height and its
    frequency f = v / lambda, below the Nyquist limit of a run sampled at
    sample_rate_hz."""
    heights, frequencies = [], []
    for comp in profile.components:
        f_b = speed_m_s / comp.lambda_m
        if sample_rate_hz <= 2.0 * f_b:
            raise PhysicsError(
                f"component at {f_b:.3g} Hz exceeds the Nyquist limit of a "
                f"{sample_rate_hz:.3g} Hz run")
        heights.append(comp.h_m)
        frequencies.append(f_b)
    return heights, frequencies


def synthesize_run(profile: SpectralProfile, speed_m_s: float, duration_s: float,
                   sample_rate_hz: float, seed: int, gain: float) -> np.ndarray:
    """Simulated steady-state sensor samples for one constant-speed traversal
    by the sensor whose steady_state_gain is gain.

    Superposes the steady beam response to every profile component at a
    drive phase drawn from +-jitter_rad (one draw per component, in
    order), then adds the white noise floor. Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    heights, frequencies = temporal_components(profile, speed_m_s, sample_rate_hz)
    phases = [rng.uniform(-c.jitter_rad, c.jitter_rad)
              for c in profile.components]
    total = displacement_series(gain, heights, frequencies, phases,
                                sample_rate_hz, duration_s)
    if profile.noise_floor_m > 0.0:
        total += rng.normal(0.0, profile.noise_floor_m, total.size)
    return total
