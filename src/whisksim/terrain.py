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
import json
import math
from dataclasses import dataclass

import numpy as np

from .beam import BeamSpec, Excitation, displacement_series
from .errors import ConfigError, PhysicsError


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


def is_finite_number(value) -> bool:
    """A finite int or float; a bool, a non-number or an int beyond the
    float range is not (JSON allows NaN, Infinity and huge integers)."""
    if isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


@dataclass(frozen=True)
class SpectralComponent:
    """One spatial texture component of a terrain profile."""

    wavelength_m: float
    height_m: float
    phase_jitter_rad: float = 0.0

    def __post_init__(self):
        for name in ("wavelength_m", "height_m", "phase_jitter_rad"):
            if not is_finite_number(getattr(self, name)):
                raise PhysicsError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.wavelength_m <= 0.0:
            raise PhysicsError("wavelength_m must be positive")
        if self.height_m < 0.0:
            raise PhysicsError("height_m must be >= 0")
        if not 0.0 <= self.phase_jitter_rad <= math.pi:
            # a phase drawn from [-pi, pi] already covers the circle
            raise PhysicsError("phase_jitter_rad must lie in [0, pi]")


@dataclass(frozen=True)
class SpectralProfile:
    """Spatial spectrum of a terrain plus its sensor noise floor."""

    components: tuple
    noise_floor_m: float = 0.0

    def __post_init__(self):
        if len(self.components) == 0:
            raise PhysicsError("profile needs at least one component")
        object.__setattr__(self, "components", tuple(self.components))
        if not is_finite_number(self.noise_floor_m):
            raise PhysicsError(f"noise_floor_m must be finite, got {self.noise_floor_m!r}")
        if self.noise_floor_m < 0.0:
            raise PhysicsError("noise_floor_m must be >= 0")

    def dominant_component(self) -> SpectralComponent:
        """Component with the largest response weight h / lambda^2.

        The beam response to one component scales with h * f^2 and
        f = v / lambda, so the ranking is speed-independent.
        """
        return max(self.components,
                   key=lambda c: c.height_m / c.wavelength_m ** 2)

    def dominant_frequency_at(self, speed_m_s: float) -> float:
        return speed_m_s / self.dominant_component().wavelength_m


@dataclass(frozen=True)
class RobotRun:
    """One constant-speed traversal producing a sampled sensor signal."""

    speed_m_s: float
    duration_s: float
    sample_rate_hz: float = 200.0
    seed: int = 0

    def __post_init__(self):
        if self.speed_m_s <= 0.0:
            raise PhysicsError("speed_m_s must be positive")
        if self.duration_s <= 0.0:
            raise PhysicsError("duration_s must be positive")
        if self.sample_rate_hz <= 0.0:
            raise PhysicsError("sample_rate_hz must be positive")


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


def strip_randomness(profile: SpectralProfile) -> SpectralProfile:
    """Copy of the profile with noise floor and phase jitter removed."""
    return SpectralProfile(
        components=tuple(SpectralComponent(c.wavelength_m, c.height_m, 0.0)
                         for c in profile.components),
        noise_floor_m=0.0)


def temporal_components(profile: SpectralProfile, speed_m_s: float,
                        sample_rate_hz: float | None = None) -> list[Excitation]:
    """Map each spatial component to a base excitation at f = v / lambda."""
    if speed_m_s <= 0.0:
        raise PhysicsError("speed_m_s must be positive")
    excitations = []
    for comp in profile.components:
        f_b = speed_m_s / comp.wavelength_m
        if sample_rate_hz is not None and sample_rate_hz <= 2.0 * f_b:
            raise PhysicsError(
                f"component at {f_b:.3g} Hz exceeds the Nyquist limit of a "
                f"{sample_rate_hz:.3g} Hz run")
        excitations.append(Excitation(comp.height_m, f_b))
    return excitations


def synthesize_run(profile: SpectralProfile, run: RobotRun, beam: BeamSpec,
                   sensor_position_m: float) -> np.ndarray:
    """Simulated steady-state sensor samples for one traversal of a profile.

    Superposes the steady beam response to every profile component at a
    drive phase drawn from +-phase_jitter_rad (one draw per component, in
    order), then adds the white noise floor. Deterministic per run seed.
    """
    rng = np.random.default_rng(run.seed)
    excitations = temporal_components(profile, run.speed_m_s, run.sample_rate_hz)
    phases = [rng.uniform(-c.phase_jitter_rad, c.phase_jitter_rad)
              for c in profile.components]
    n = int(round(run.duration_s * run.sample_rate_hz))
    total = np.zeros(n)
    for exc, phase in zip(excitations, phases):
        total += displacement_series(beam, exc, sensor_position_m,
                                     run.sample_rate_hz, run.duration_s,
                                     phase_rad=phase)
    if profile.noise_floor_m > 0.0:
        total += rng.normal(0.0, profile.noise_floor_m, n)
    return total


def profiles_to_json(table: dict[TerrainClass, SpectralProfile]) -> str:
    """Serialize a profile table; inverse of profiles_from_json."""
    entries = []
    for terrain in sorted(table, key=int):
        profile = table[terrain]
        entries.append({
            "terrain": terrain.label,
            "components": [
                {"lambda_m": c.wavelength_m, "h_m": c.height_m,
                 "jitter_rad": c.phase_jitter_rad}
                for c in profile.components],
            "noise_floor_m": profile.noise_floor_m,
        })
    return json.dumps(entries, indent=2, sort_keys=True)


def profiles_from_json(text: str) -> dict[TerrainClass, SpectralProfile]:
    try:
        entries = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PhysicsError(f"invalid profile JSON: {exc}") from exc
    table = {}
    try:
        for entry in entries:
            terrain = TerrainClass.from_label(entry["terrain"])
            if terrain in table:
                raise PhysicsError(f"terrain {terrain.label!r} is listed twice")
            comps = tuple(
                SpectralComponent(c["lambda_m"], c["h_m"], c.get("jitter_rad", 0.0))
                for c in entry["components"])
            table[terrain] = SpectralProfile(comps, entry.get("noise_floor_m", 0.0))
    except KeyError as exc:
        raise PhysicsError(f"profile entry is missing key {exc}") from exc
    except TypeError as exc:
        raise PhysicsError(f"malformed profile JSON: {exc}") from exc
    if not table:
        raise PhysicsError("profile JSON contains no terrains")
    return table


def save_profiles(table: dict[TerrainClass, SpectralProfile], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(profiles_to_json(table) + "\n")


def load_profiles(path) -> dict[TerrainClass, SpectralProfile]:
    """Profile table from a JSON file; a missing or invalid file is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read profile file {path}: {exc}") from exc
    try:
        return profiles_from_json(text)
    except PhysicsError as exc:
        raise ConfigError(f"invalid profile file {path}: {exc}") from exc
