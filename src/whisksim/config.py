"""Experiment configuration and profile tables: defaults, JSON loading
and validation.

All values are SI except where a key name says otherwise (h_b_mm for the
sweep grid, which is converted to meters on load). A config file and a
profile file are read the same way: _read_json opens and parses the file,
and _build makes each object into its dataclass by one rule at every
nesting level, a config's spring, train and sweep sections included: it
refuses a value that is not an object and unknown and missing keys, holds
each value to its field's type and turns the dataclass's own range checks
into ConfigErrors that name the key.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass

from .beam import SpringSpec, spring_to_beam, steady_state_gain
from .errors import ConfigError, PhysicsError
from .mlp import TrainSection
from .pipeline import FEATURE_WIDTH
from .terrain import SpectralComponent, SpectralProfile, TerrainClass

MAX_RUN_SAMPLES = 2 ** 27   # 1 GiB of float64: a run's samples or a dataset's features


def is_finite_number(value) -> bool:
    """A finite int or float; a bool, a non-number or an int beyond the
    float range is not (JSON allows NaN, Infinity and huge integers)."""
    if isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _check_run_size(duration_s: float, sample_rate_hz: float) -> None:
    """Refuse a run of more than MAX_RUN_SAMPLES samples, an overflowing
    product included, before anything allocates it."""
    if not duration_s * sample_rate_hz <= MAX_RUN_SAMPLES + 0.5:
        raise ConfigError("duration_s * sample_rate_hz must be at most "
                          f"{MAX_RUN_SAMPLES} samples; got {duration_s} s * "
                          f"{sample_rate_hz} Hz")


@dataclass(frozen=True)
class SweepConfig:
    f_b_hz: tuple = (50.0, 100.0, 150.0, 200.0, 250.0, 300.0, 350.0)
    h_b_mm: tuple = (0.1, 0.2, 0.3, 0.4, 0.5)
    sample_rate_hz: float = 1000.0
    duration_s: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "f_b_hz", tuple(float(v) for v in self.f_b_hz))
        object.__setattr__(self, "h_b_mm", tuple(float(v) for v in self.h_b_mm))
        if not self.f_b_hz or not self.h_b_mm:
            raise ConfigError("sweep grids must be nonempty")
        for name in ("f_b_hz", "h_b_mm"):
            grid = list(getattr(self, name))
            if any(v <= 0.0 for v in grid):
                raise ConfigError(f"sweep {name} must be positive: {grid}")
        if self.sample_rate_hz <= 0.0 or self.duration_s <= 0.0:
            raise ConfigError("sweep sample rate and duration must be positive")
        _check_run_size(self.duration_s, self.sample_rate_hz)
        if round(self.duration_s * self.sample_rate_hz) < 3:
            # the dominant frequency needs at least 3 spectrum bins
            raise ConfigError("a sweep cell needs at least 3 samples; got "
                              f"{self.duration_s} s * {self.sample_rate_hz} Hz")

    @property
    def h_b_m(self) -> tuple:
        return tuple(v * 1e-3 for v in self.h_b_mm)


@dataclass(frozen=True)
class ExperimentConfig:
    spring: SpringSpec = field(default_factory=SpringSpec)
    train: TrainSection = field(default_factory=TrainSection)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    sensor_position_m: float = 0.005
    profiles: str = "default"   # builtin table name or a profile JSON path
    speed_m_s: float = 0.2
    speeds_m_s: tuple = (0.1, 0.15, 0.2, 0.25, 0.3)
    duration_s: float = 300.0
    window_s: float = 1.0
    sample_rate_hz: float = 200.0
    train_fraction: float = 0.75
    repetitions: int = 20
    master_seed: int = 7041

    def __post_init__(self):
        object.__setattr__(self, "speeds_m_s",
                           tuple(float(v) for v in self.speeds_m_s))
        if not 0.0 < self.sensor_position_m <= self.spring.free_length_m:
            # the equivalent beam is as long as the spring's free length
            raise ConfigError(
                f"sensor_position_m must lie in (0, {self.spring.free_length_m}], "
                f"the spring's free length; got {self.sensor_position_m}")
        try:   # an extreme spring can underflow the beam or overflow its response
            gain = self.sensor_gain
        except OverflowError as exc:
            raise ConfigError("the spring's equivalent beam overflows") from exc
        except (PhysicsError, ArithmeticError) as exc:
            raise ConfigError(f"the spring has no usable equivalent beam: {exc}") from exc
        if not math.isfinite(gain):
            raise ConfigError("the spring's equivalent beam has no finite response")
        if gain == 0.0:   # it goes as x^2: the default spring's underflows below 4.2e-161 m
            raise ConfigError(f"sensor_position_m {self.sensor_position_m} is so near "
                              "the root that the sensor's gain underflows to 0")
        if self.speed_m_s <= 0.0 or any(v <= 0.0 for v in self.speeds_m_s):
            raise ConfigError("speeds must be positive")
        if len(set(self.speeds_m_s)) != len(self.speeds_m_s):
            raise ConfigError(f"speeds_m_s has duplicates: {list(self.speeds_m_s)}")
        if self.duration_s <= 0.0 or self.window_s <= 0.0:
            raise ConfigError("durations must be positive")
        if self.sample_rate_hz <= 0.0:
            raise ConfigError("sample_rate_hz must be positive")
        if round(self.window_s * self.sample_rate_hz) != FEATURE_WIDTH:
            raise ConfigError(
                f"window_s * sample_rate_hz must be {FEATURE_WIDTH} samples, the "
                f"network's input width; got {self.window_s} s * "
                f"{self.sample_rate_hz} Hz")
        if self.duration_s < self.window_s:
            raise ConfigError(f"duration_s {self.duration_s} is shorter than one "
                              f"window of {self.window_s} s")
        _check_run_size(self.duration_s, self.sample_rate_hz)
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must lie in (0, 1)")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if (isinstance(self.master_seed, bool) or not isinstance(self.master_seed, int)
                or self.master_seed < 0):
            raise ConfigError("master_seed must be a non-negative integer")

    @property
    def sensor_gain(self) -> float:
        """steady_state_gain at the sensor, m / (m Hz^2): the one number
        through which the spring enters every response."""
        return steady_state_gain(spring_to_beam(self.spring), self.sensor_position_m)

    def to_dict(self) -> dict:
        return asdict(self)   # json.dump writes its tuples as lists


_KINDS = {   # a field's annotation: the test its JSON value must pass, and its name
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "float": (is_finite_number, "a finite number"),   # JSON allows NaN and Infinity
    "tuple": (lambda v: isinstance(v, (list, tuple)) and all(map(is_finite_number, v)),
              "a list of finite numbers"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


def _build(cls, data, context: str):
    """cls made from the JSON object data, or a ConfigError that names
    context. One rule holds at every nesting level: a value that is not an
    object, an unknown key and a missing key are refused. A field whose
    default is a dataclass factory (a config section) is built from its own
    object by _build, with the field name as its context; every other value
    must pass its annotation's test in _KINDS. cls's own range checks
    become ConfigErrors."""
    if not isinstance(data, dict):
        raise ConfigError(f"{context} must be a JSON object")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{context} has unknown keys: {sorted(unknown)}")
    values = {}
    for f in fields(cls):
        if f.name not in data:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{context} is missing key {f.name!r}")
            continue
        value = data[f.name]
        if is_dataclass(f.default_factory):
            value = _build(f.default_factory, value, f.name)
        elif f.type in _KINDS and not _KINDS[f.type][0](value):
            raise ConfigError(f"{context} key {f.name} must be "
                              f"{_KINDS[f.type][1]}, got {value!r}")
        values[f.name] = value
    try:
        return cls(**values)
    except (PhysicsError, ConfigError, TypeError, ArithmeticError) as exc:
        raise ConfigError(f"invalid {context}: {exc}") from exc


def config_from_dict(data) -> ExperimentConfig:
    cfg = _build(ExperimentConfig, data, "config")
    # a builtin table name or a path, whose existence is checked on loading
    if not cfg.profiles:
        raise ConfigError("profiles must be a builtin name or a file path")
    return cfg


def _read_json(path, what: str):
    """The parsed JSON of the `what` file at path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
    except ValueError as exc:   # a JSONDecodeError, or an integer past int's digit limit
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{what} file {path} is nested too deeply to parse") from exc


def load_config(path) -> ExperimentConfig:
    return config_from_dict(_read_json(path, "config"))


def load_profiles(path) -> dict[TerrainClass, SpectralProfile]:
    """Profile table from a JSON file: a nonempty list of one object per
    terrain, each terrain at most once (see README.md)."""
    entries = _read_json(path, "profile")
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"profile file {path} must hold a nonempty JSON list")
    table = {}
    for i, entry in enumerate(entries):
        context = f"profile file {path} entry {i}"
        if not isinstance(entry, dict):
            raise ConfigError(f"{context} must be a JSON object")
        for key in ("terrain", "components"):
            if key not in entry:
                raise ConfigError(f"{context} is missing key {key!r}")
        entry = dict(entry)
        try:
            terrain = TerrainClass.from_label(entry.pop("terrain"))
        except PhysicsError as exc:
            raise ConfigError(f"{context}: {exc}") from exc
        if terrain in table:
            raise ConfigError(f"{context}: terrain {terrain.label!r} is listed twice")
        if not isinstance(entry["components"], list):
            raise ConfigError(f"{context} key components must be a list")
        entry["components"] = tuple(
            _build(SpectralComponent, c, f"{context} component {k}")
            for k, c in enumerate(entry["components"]))
        table[terrain] = _build(SpectralProfile, entry, context)
    return table
