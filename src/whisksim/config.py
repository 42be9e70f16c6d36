"""Experiment configuration: defaults, JSON loading and validation.

All values are SI except where a key name says otherwise (h_b_mm for the
sweep grid, which is converted to meters on load).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

from .beam import SpringSpec
from .errors import ConfigError, PhysicsError
from .mlp import TrainConfig
from .pipeline import FEATURE_WIDTH

BUILTIN_PROFILE_TABLES = ("default", "smoke")


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
        if self.sample_rate_hz <= 0.0 or self.duration_s <= 0.0:
            raise ConfigError("sweep sample rate and duration must be positive")

    @property
    def h_b_m(self) -> tuple:
        return tuple(v * 1e-3 for v in self.h_b_mm)


@dataclass(frozen=True)
class ExperimentConfig:
    spring: SpringSpec = field(default_factory=SpringSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
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
    out_dir: str = "out"
    master_seed: int = 7041

    def __post_init__(self):
        object.__setattr__(self, "speeds_m_s",
                           tuple(float(v) for v in self.speeds_m_s))
        if self.sensor_position_m <= 0.0:
            raise ConfigError("sensor_position_m must be positive")
        if self.speed_m_s <= 0.0 or any(v <= 0.0 for v in self.speeds_m_s):
            raise ConfigError("speeds must be positive")
        if self.duration_s <= 0.0 or self.window_s <= 0.0:
            raise ConfigError("durations must be positive")
        if self.sample_rate_hz <= 0.0:
            raise ConfigError("sample_rate_hz must be positive")
        if round(self.window_s * self.sample_rate_hz) != FEATURE_WIDTH:
            raise ConfigError(
                f"window_s * sample_rate_hz must be {FEATURE_WIDTH} samples, the "
                f"network's input width; got {self.window_s} s * "
                f"{self.sample_rate_hz} Hz")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must lie in (0, 1)")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be a non-negative integer")

    def to_dict(self) -> dict:
        def jsonable(value):
            if isinstance(value, dict):
                return {k: jsonable(v) for k, v in value.items()}
            if isinstance(value, (list, tuple)):
                return [jsonable(v) for v in value]
            return value

        return jsonable(asdict(self))


def _build(cls, data: dict, context: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{context} must be a JSON object")
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown {context} keys: {sorted(unknown)}")
    try:
        return cls(**data)
    except (PhysicsError, ConfigError) as exc:
        raise ConfigError(f"invalid {context}: {exc}") from exc
    except TypeError as exc:
        raise ConfigError(f"invalid {context}: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    data = dict(data)
    nested = {}
    if "spring" in data:
        nested["spring"] = _build(SpringSpec, data.pop("spring"), "spring")
    if "train" in data:
        nested["train"] = _build(TrainConfig, data.pop("train"), "train")
    if "sweep" in data:
        nested["sweep"] = _build(SweepConfig, data.pop("sweep"), "sweep")
    cfg = _build(ExperimentConfig, {**data, **nested}, "config")
    if cfg.profiles not in BUILTIN_PROFILE_TABLES:
        # treated as a path; existence is checked when the table is loaded
        if not isinstance(cfg.profiles, str) or not cfg.profiles:
            raise ConfigError("profiles must be a builtin name or a file path")
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data)
