"""Experiment configuration and profile tables: defaults, JSON loading
and validation.

All values are SI except where a key name says otherwise (h_b_mm for the
sweep grid, which is converted to meters on load). A config file and a
profile file are read the same way: _read_json opens and parses the file,
and _build makes each object into its dataclass, refusing unknown and
missing keys, holding each value to its field's type and turning the
dataclass's own range checks into ConfigErrors that name the key.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields

from .beam import SpringSpec, spring_to_beam, steady_state_gain
from .errors import ConfigError, PhysicsError
from .mlp import TrainConfig
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
        if any(v <= 0.0 for v in self.f_b_hz):
            raise ConfigError(f"sweep f_b_hz must be positive: {list(self.f_b_hz)}")
        if any(v < 0.0 for v in self.h_b_mm):
            raise ConfigError(f"sweep h_b_mm must be >= 0: {list(self.h_b_mm)}")
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
class TrainSection:
    """The config's train keys: each training gets its own shuffle seed,
    derived from the master seed, so the section holds none."""
    learning_rate: float = TrainConfig.learning_rate
    epochs: int = TrainConfig.epochs
    batch_size: int = TrainConfig.batch_size

    def __post_init__(self):
        self.with_seed(0)   # TrainConfig checks the values

    def with_seed(self, seed: int) -> TrainConfig:
        return TrainConfig(self.learning_rate, self.epochs, self.batch_size, seed)


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


def _check_types(cls, data: dict, context: str) -> None:
    """Hold each value to its field's annotation before cls runs on it: int
    fields take ints, float fields finite numbers (JSON allows NaN and
    Infinity), tuple fields lists of finite numbers, str fields strings."""
    for f in fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        if f.type == "int":
            ok = isinstance(value, int) and not isinstance(value, bool)
        elif f.type == "float":
            ok = is_finite_number(value)
        elif f.type == "tuple":
            ok = (isinstance(value, (list, tuple))
                  and all(is_finite_number(v) for v in value))
        elif f.type == "str":
            ok = isinstance(value, str)
        else:
            continue
        if not ok:
            kind = {"int": "an integer", "float": "a finite number",
                    "tuple": "a list of finite numbers", "str": "a string"}[f.type]
            raise ConfigError(f"{context} key {f.name} must be {kind}, got {value!r}")


def _build(cls, data: dict, context: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{context} must be a JSON object")
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"{context} has unknown keys: {sorted(unknown)}")
    for f in fields(cls):
        if f.name not in data and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{context} is missing key {f.name!r}")
    _check_types(cls, data, context)
    try:
        return cls(**data)
    except (PhysicsError, ConfigError, TypeError, ArithmeticError) as exc:
        raise ConfigError(f"invalid {context}: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    data = dict(data)
    nested = {}
    if "spring" in data:
        nested["spring"] = _build(SpringSpec, data.pop("spring"), "spring")
    if "train" in data:
        nested["train"] = _build(TrainSection, data.pop("train"), "train")
    if "sweep" in data:
        nested["sweep"] = _build(SweepConfig, data.pop("sweep"), "sweep")
    cfg = _build(ExperimentConfig, {**data, **nested}, "config")
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
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from exc


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
