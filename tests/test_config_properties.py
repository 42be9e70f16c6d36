"""Property tests of config and profile-table loading: any JSON-shaped input
either loads well typed or raises ConfigError, never another exception; and
of the command line's exit-code contract over such inputs."""

import contextlib
import io
import json
import math
import os
import tempfile
from dataclasses import fields

from hypothesis import example, given, settings, strategies as st

from whisksim.beam import SpringSpec, spring_to_beam, steady_state_gain
from whisksim.cli import main
from whisksim.config import (ExperimentConfig, SweepConfig, config_from_dict,
                             is_finite_number, load_profiles)
from whisksim.errors import ConfigError
from whisksim.mlp import TrainSection
from whisksim.terrain import TerrainClass

# what json.loads can return, NaN and Infinity included
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8)

SECTIONS = {"spring": SpringSpec, "train": TrainSection, "sweep": SweepConfig}


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
@given(config_dicts | json_values)
@example({"sensor_position_m": 1e-200})   # the gain underflows to 0.0
@example({"sensor_position_m": 1e-10})   # a tiny gain, 4.04e-21, still loads
def test_config_loads_well_typed_or_raises_config_error(data):
    try:
        cfg = config_from_dict(data)
    except ConfigError:
        return
    _assert_well_typed(cfg)
    # the one number through which the spring reaches every response
    assert math.isfinite(cfg.sensor_gain) and cfg.sensor_gain != 0.0
    assert cfg.sensor_gain.hex() == steady_state_gain(
        spring_to_beam(cfg.spring), cfg.sensor_position_m).hex()


def _mostly(strategy, other):
    """`strategy` three draws in four, `other` otherwise."""
    return st.integers(0, 3).flatmap(lambda k: strategy if k else other)


# profile tables: mostly well-formed entries, each number slot mostly a
# plausible value, else any JSON number (NaN, Infinity, huge ints, booleans)
numbers = _mostly(st.floats(min_value=1e-6, max_value=1.0),
                  st.floats() | st.integers() | st.booleans()
                  | st.sampled_from([math.nan, math.inf, -math.inf, 3.2, 1e308]))
MISSPELLED = {"jiter_rad", "noise_flor_m"}


def _seldom_misspelled(objects, key):
    """`objects` draws, one in eight with the misspelled `key` added, so
    that most tables can still load."""
    return st.integers(0, 7).flatmap(
        lambda k: objects if k else objects.map(lambda obj: {**obj, key: 0.1}))


components = _seldom_misspelled(st.fixed_dictionaries(
    {"lambda_m": numbers, "h_m": numbers}, optional={"jitter_rad": numbers}),
    "jiter_rad")
entries = _seldom_misspelled(st.fixed_dictionaries(
    {"terrain": _mostly(st.sampled_from([t.label for t in TerrainClass]), json_values),
     "components": _mostly(st.lists(components, min_size=1, max_size=3), json_values)},
    optional={"noise_floor_m": numbers}), "noise_flor_m")
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
    # a misspelled key is refused, never ignored
    for entry in table:
        assert not MISSPELLED & set(entry)
        assert not any(MISSPELLED & set(c) for c in entry["components"])
    for profile in loaded.values():
        assert math.isfinite(profile.noise_floor_m)
        for c in profile.components:
            assert all(math.isfinite(v) for v in
                       (c.lambda_m, c.h_m, c.jitter_rad))
            assert 0.0 <= c.jitter_rad <= math.pi


# Command-line contract: every command on any JSON-shaped config and profile
# table ends with exit code 0, 2 (config), 3 (physics) or 4 (divergence),
# never a traceback, and a config error creates no output directory. Every
# key that sets how much work a run does is held tiny (at most 5 s of signal,
# 1 epoch, 2 repetitions, 2 speeds, a 3 x 3 sweep of 1 s) or is a value that
# config loading refuses, so no example allocates or trains much.
refused = (st.none() | st.booleans() | st.text(max_size=4)
           | st.lists(st.integers(0, 3), max_size=2)
           | st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0, 1.5]))


def _seldom_refused(valid):
    """`valid` about 15 draws in 16, a refused value otherwise."""
    return st.sampled_from([True] * 15 + [False]).flatmap(
        lambda ok: valid if ok else refused)


tiny_sizes = {
    "duration_s": _seldom_refused(st.floats(0.5, 5.0)),
    "window_s": _seldom_refused(st.sampled_from([1.0, 0.5, 2.0])),
    "repetitions": _seldom_refused(st.integers(1, 2)),
    "speeds_m_s": _seldom_refused(st.lists(st.floats(0.01, 0.5), max_size=2)),
}
tiny_train = {"epochs": _seldom_refused(st.just(1)),
              "batch_size": _seldom_refused(st.integers(1, 64)),
              "learning_rate": _seldom_refused(
                  st.sampled_from([0.001, 0.0, 1e6, 1e300]))}
tiny_sweep = st.fixed_dictionaries({}, optional={
    "f_b_hz": _seldom_refused(st.lists(st.floats(0.0, 600.0), max_size=3)),
    "h_b_mm": _seldom_refused(st.lists(st.floats(-1.0, 1.0), max_size=3)),
    "sample_rate_hz": _seldom_refused(st.floats(1.0, 2000.0)),
    "duration_s": _seldom_refused(st.floats(0.01, 1.0))})
commands = st.sampled_from(["sweep", "synth", "train-eval", "speed-sweep"])


@st.composite
def tiny_runs(draw):
    """(config dict, profile table or builtin name): a config_dicts draw,
    or in half the examples the defaults so that most runs get past
    loading, with every size key set to a tiny draw."""
    data = draw(config_dicts | st.just({}))
    data.pop("profiles", None)
    data.update({key: draw(value) for key, value in tiny_sizes.items()})
    # mostly the 200 samples a window must hold
    data["sample_rate_hz"] = draw(_seldom_refused(st.just(
        round(200.0 / data["window_s"], 6) if is_finite_number(data["window_s"])
        and data["window_s"] > 0 else 200.0)))
    train = data.setdefault("train", {})
    if isinstance(train, dict):
        train.update({key: draw(value) for key, value in tiny_train.items()})
    if "sweep" in data:
        data["sweep"] = draw(tiny_sweep)
    return data, draw(st.sampled_from(["default", "smoke"]) | profile_tables)


@settings(max_examples=200, deadline=None)
@given(tiny_runs(), commands)
# springs whose beam arithmetic fails (exit 2), and sweeps and terrains
# whose response overflows (exit 3)
@example(({"spring": {"free_length_m": 1e100, "coil_count": 1}}, "default"), "sweep")
@example(({"spring": {"wire_density_kg_m3": 1e300, "wire_shear_modulus_pa": 1e-300}},
          "default"), "sweep")
@example(({"spring": {"free_length_m": 1e10, "coil_count": 1,
                      "wire_density_kg_m3": 1e300}}, "default"), "sweep")
@example(({"spring": {"wire_radius_m": 1e-200}, "duration_s": 2}, "default"), "synth")
@example(({"spring": {"wire_shear_modulus_pa": 1e-10}, "sweep": {"h_b_mm": [1e300]}},
          "default"), "sweep")
@example(({"sweep": {"duration_s": 1e-300, "sample_rate_hz": 3e300,
                     "f_b_hz": [1e300]}}, "default"), "sweep")
@example(({"spring": {"wire_shear_modulus_pa": 1e-300}}, "default"), "sweep")
@example(({"spring": {"wire_shear_modulus_pa": 1e-300}}, "default"), "synth")
@example(({"spring": {"wire_shear_modulus_pa": 1e300}, "sweep": {
    "duration_s": 1e-150, "sample_rate_hz": 3e155, "f_b_hz": [1e155]}}, "default"),
    "sweep")
@example(({"duration_s": 5}, [{"terrain": "flat", "noise_flor_m": 1e-9, "components": [
    {"lambda_m": 0.04, "h_m": 2e-5, "jiter_rad": 0.1}]}]), "synth")
def test_cli_exit_code_contract(run, command):
    data, profiles = run
    with tempfile.TemporaryDirectory() as tmp:
        if not isinstance(profiles, str):
            path = os.path.join(tmp, "profiles.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(profiles, fh)
            profiles = path
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump({**data, "profiles": profiles}, fh)
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["--config", cfg, "--out", out, command])
        assert code in (0, 2, 3, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert not os.path.exists(out), err.getvalue()
