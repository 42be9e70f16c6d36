"""Property tests of config loading: any JSON-shaped dict either loads into a
well-typed config or raises ConfigError, never another exception."""

import math
from dataclasses import fields

from hypothesis import given, settings, strategies as st

from whisksim import ConfigError, SpringSpec, TrainConfig
from whisksim.config import ExperimentConfig, SweepConfig, config_from_dict

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
