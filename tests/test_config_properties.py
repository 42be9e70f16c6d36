"""Property tests of config and profile-table loading: any JSON-shaped input
either loads well typed or raises ConfigError, never another exception."""

import json
import math
import os
import tempfile
from dataclasses import fields

from hypothesis import given, settings, strategies as st

from whisksim.beam import SpringSpec
from whisksim.config import ExperimentConfig, SweepConfig, config_from_dict
from whisksim.errors import ConfigError
from whisksim.mlp import TrainConfig
from whisksim.terrain import TerrainClass, load_profiles

# what json.loads can return, NaN and Infinity included
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8)

SECTIONS = {"spring": SpringSpec, "train": TrainConfig, "sweep": SweepConfig}


def _plausible(value):
    """Mostly values near the field's default, so that some configs load."""
    if isinstance(value, int):
        return st.integers(min_value=-2, max_value=value + 2) | st.just(value)
    if isinstance(value, float):
        return st.floats() | st.just(value) | st.just(int(value))
    if isinstance(value, tuple):
        return st.lists(st.floats(), max_size=4) | st.just(list(value))
    return st.text(max_size=8) | st.just(value)


def _section(cls):
    defaults = cls()
    return st.fixed_dictionaries({}, optional={
        f.name: _plausible(getattr(defaults, f.name)) | json_values
        for f in fields(cls)})


config_dicts = st.fixed_dictionaries({}, optional={
    **{f.name: _plausible(getattr(ExperimentConfig(), f.name)) | json_values
       for f in fields(ExperimentConfig) if f.name not in SECTIONS},
    **{name: _section(cls) | json_values for name, cls in SECTIONS.items()},
})


def _assert_well_typed(obj):
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.name in SECTIONS:
            _assert_well_typed(value)
        elif f.type == "int":
            assert isinstance(value, int) and not isinstance(value, bool), f.name
        elif f.type == "float":
            assert not isinstance(value, bool) and math.isfinite(value), f.name
        elif f.type == "tuple":
            assert all(math.isfinite(v) for v in value), f.name


@settings(max_examples=300, deadline=None)
@given(config_dicts)
def test_config_loads_well_typed_or_raises_config_error(data):
    try:
        cfg = config_from_dict(data)
    except ConfigError:
        return
    _assert_well_typed(cfg)


def _mostly(strategy, other):
    """`strategy` three draws in four, `other` otherwise."""
    return st.integers(0, 3).flatmap(lambda k: strategy if k else other)


# profile tables: mostly well-formed entries, each number slot mostly a
# plausible value, else any JSON number (NaN, Infinity, huge ints, booleans)
numbers = _mostly(st.floats(min_value=1e-6, max_value=1.0),
                  st.floats() | st.integers() | st.booleans()
                  | st.sampled_from([math.nan, math.inf, -math.inf, 3.2, 1e308]))
components = st.fixed_dictionaries(
    {"lambda_m": numbers, "h_m": numbers}, optional={"jitter_rad": numbers})
entries = st.fixed_dictionaries(
    {"terrain": _mostly(st.sampled_from([t.label for t in TerrainClass]), json_values),
     "components": _mostly(st.lists(components, min_size=1, max_size=3), json_values)},
    optional={"noise_floor_m": numbers})
profile_tables = _mostly(st.lists(entries, min_size=1, max_size=3), json_values)


@settings(max_examples=300, deadline=None)
@given(profile_tables)
def test_profile_table_loads_finite_or_raises_config_error(table):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "profiles.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(table, fh)
        try:
            loaded = load_profiles(path)
        except ConfigError:
            return
    assert len(loaded) == len(table)
    for profile in loaded.values():
        assert math.isfinite(profile.noise_floor_m)
        for c in profile.components:
            assert all(math.isfinite(v) for v in
                       (c.wavelength_m, c.height_m, c.phase_jitter_rad))
            assert 0.0 <= c.phase_jitter_rad <= math.pi
