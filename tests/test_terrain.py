"""Terrain profiles, speed mapping, and synthesized runs."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from whisksim.beam import (SpringSpec, displacement_series, spring_to_beam,
                           steady_state_gain)
from whisksim.config import ExperimentConfig, load_profiles
from whisksim.errors import ConfigError, PhysicsError
from whisksim.terrain import (
    SpectralComponent,
    SpectralProfile,
    TerrainClass,
    default_profiles,
    smoke_profiles,
    synthesize_run,
    temporal_components,
)
from whisksim.pipeline import dominant_frequency


@pytest.fixture(scope="module")
def beam():
    return spring_to_beam(SpringSpec())


@pytest.fixture(scope="module")
def gain(beam):
    """The default sensor's steady_state_gain, at 5 mm."""
    return steady_state_gain(beam, 0.005)


class TestTerrainClass:
    def test_ids_and_labels(self):
        assert [int(t) for t in TerrainClass] == [1, 2, 3, 4, 5, 6, 7]
        assert TerrainClass.FLAT.label == "flat"
        assert TerrainClass.SOFT_GRASS.label == "soft-grass"
        assert TerrainClass.SOFT_SOIL.label == "soft-soil"

    def test_label_roundtrip(self):
        for t in TerrainClass:
            assert TerrainClass.from_label(t.label) is t
        with pytest.raises(PhysicsError):
            TerrainClass.from_label("asphalt")


class TestDefaultProfiles:
    def test_identical_across_calls(self):
        assert default_profiles() == default_profiles()
        assert smoke_profiles() == smoke_profiles()

    def test_covers_all_terrains(self):
        assert set(default_profiles()) == set(TerrainClass)
        assert set(smoke_profiles()) == set(TerrainClass)

    def test_flat_noise_below_brick_noise(self):
        table = default_profiles()
        assert (table[TerrainClass.FLAT].noise_floor_m
                < table[TerrainClass.BRICK].noise_floor_m)

    def test_dominant_frequencies_separated(self):
        # at 0.2 m/s with 1 s / 200 Hz windows (1 Hz bins) every pair of
        # dominant frequencies must be at least 2 bins apart
        table = default_profiles()
        doms = sorted(oracles.dominant_frequency(p, 0.2) for p in table.values())
        assert doms == pytest.approx([5.0, 12.0, 20.0, 28.0, 36.0, 44.0, 52.0])
        gaps = np.diff(doms)
        assert np.all(gaps >= 2.0)

    def test_dominant_component_wins_by_response_weight(self):
        # response scales with h/lambda^2; the documented dominant must lead
        # every sibling by a clear factor so noise cannot flip the ranking
        for profile in default_profiles().values():
            weights = sorted((c.h_m / c.lambda_m ** 2
                              for c in profile.components), reverse=True)
            if len(weights) > 1:
                assert weights[0] > 2.0 * weights[1]

    def test_components_stay_below_nyquist_at_top_speed(self):
        for profile in default_profiles().values():
            temporal_components(profile, 0.3, sample_rate_hz=200.0)
        for profile in smoke_profiles().values():
            temporal_components(profile, 0.3, sample_rate_hz=200.0)


class TestSpectralTypes:
    def test_component_validation(self):
        with pytest.raises(PhysicsError):
            SpectralComponent(0.0, 1e-5)
        with pytest.raises(PhysicsError):
            SpectralComponent(0.01, -1e-5)

    def test_profile_needs_components(self):
        with pytest.raises(PhysicsError):
            SpectralProfile(components=())


class TestTemporalComponents:
    def test_wavelength_to_frequency(self):
        profile = SpectralProfile((SpectralComponent(0.05, 1e-5),))
        heights, frequencies = temporal_components(profile, 0.2, 200.0)
        assert frequencies == pytest.approx([4.0])
        assert heights == [1e-5]

    def test_doubling_speed_doubles_frequency(self):
        profile = default_profiles()[TerrainClass.SAND]
        slow_h, slow_f = temporal_components(profile, 0.15, 200.0)
        fast_h, fast_f = temporal_components(profile, 0.30, 200.0)
        assert fast_f == pytest.approx([2.0 * f for f in slow_f])
        assert fast_h == slow_h

    def test_ordering_preserved(self):
        profile = default_profiles()[TerrainClass.SAND]
        _, frequencies = temporal_components(profile, 0.2, 200.0)
        expected = [0.2 / c.lambda_m for c in profile.components]
        assert frequencies == pytest.approx(expected)

    def test_rejects_nyquist_violation(self):
        profile = SpectralProfile((SpectralComponent(0.001, 1e-5),))  # 200 Hz at 0.2
        with pytest.raises(PhysicsError):
            temporal_components(profile, 0.2, sample_rate_hz=200.0)

    def test_brick_shift_with_speed_is_closed_form(self):
        profile = default_profiles()[TerrainClass.BRICK]
        f_slow = oracles.dominant_frequency(profile, 0.2)
        f_fast = oracles.dominant_frequency(profile, 0.25)
        # 0.05 m/s faster over brick's 10 mm dominant wavelength
        assert f_fast - f_slow == pytest.approx(5.0)


class TestSynthesizeRun:
    def test_rejects_bad_run_parameters(self, gain):
        # a sample rate of 0 Hz resolves no drive: the Nyquist check refuses it
        flat = default_profiles()[TerrainClass.FLAT]
        with pytest.raises(PhysicsError):
            synthesize_run(flat, 0.2, 10.0, 0.0, 0, gain)

    def test_seeded_determinism(self, gain):
        sand = default_profiles()[TerrainClass.SAND]
        a = synthesize_run(sand, 0.2, 5.0, 200.0, 123, gain)
        b = synthesize_run(sand, 0.2, 5.0, 200.0, 123, gain)
        assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self, gain):
        sand = default_profiles()[TerrainClass.SAND]
        a = synthesize_run(sand, 0.2, 5.0, 200.0, 1, gain)
        b = synthesize_run(sand, 0.2, 5.0, 200.0, 2, gain)
        assert not np.array_equal(a, b)

    def test_single_component_no_noise_equals_beam_series(self, gain):
        profile = SpectralProfile((SpectralComponent(0.01, 3e-5, 0.0),), 0.0)
        got = synthesize_run(profile, 0.2, 2.0, 200.0, 7, gain)
        want = displacement_series(gain, [3e-5], [20.0], [0.0], 200.0, 2.0)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("tc", list(TerrainClass), ids=lambda tc: tc.label)
    def test_jitter_is_a_drive_phase(self, beam, gain, tc):
        # one phase per component, drawn in component order before the noise;
        # a phase phi is the modal sum started phi / omega later, up to
        # rounding. The run starts its clock at 0, so beside phi each
        # component takes 2 pi f T, the phase the modal sum has reached at
        # T; T + k / rate is a float exactly (see TestSteadyState)
        T, rate = 4.0, 256.0
        assert oracles.steady_state_offset(beam) <= T
        profile = SpectralProfile(default_profiles()[tc].components, 0.0)
        seed = 1000 + int(tc)
        got = synthesize_run(profile, 0.2, 1.0, rate, seed, gain)
        rng = np.random.default_rng(seed)
        phases = [rng.uniform(-c.jitter_rad, c.jitter_rad)
                  for c in profile.components]
        heights, frequencies = temporal_components(profile, 0.2, rate)
        steady = displacement_series(gain, heights, frequencies, phases, rate, 1.0)
        assert np.array_equal(got, steady)
        at_T = displacement_series(
            gain, heights, frequencies,
            [phase + 2.0 * math.pi * math.fmod(f * T, 1.0)
             for f, phase in zip(frequencies, phases)], rate, 1.0)
        times = T + np.arange(got.size) / rate
        drives = list(zip(heights, frequencies, phases))
        modal = np.array([sum(oracles.displacement(
                                  beam, h, f, 0.005, t + phase / (2.0 * math.pi * f))
                              for h, f, phase in drives)
                          for t in times])
        assert np.max(np.abs(at_T - modal)) <= 1e-12 * np.max(np.abs(modal))

    def test_sample_count_five_minutes(self, gain):
        series = synthesize_run(default_profiles()[TerrainClass.FLAT], 0.2, 300.0,
                                200.0, 0, gain)
        assert len(series) == 60000
        ds = oracles.dataset_of([(series, TerrainClass.FLAT)])
        assert len(ds) == 300

    def test_superposition_consistency(self, gain):
        comps = (SpectralComponent(0.01, 3e-5, 0.0),
                 SpectralComponent(0.02, 1e-5, 0.0),
                 SpectralComponent(0.004, 2e-6, 0.0))
        full = synthesize_run(SpectralProfile(comps, 0.0), 0.2, 2.0, 200.0, 99, gain)
        parts = [synthesize_run(SpectralProfile((c,), 0.0), 0.2, 2.0, 200.0, 99, gain)
                 for c in comps]
        assert np.array_equal(full, parts[0] + parts[1] + parts[2])

    def test_speed_scales_dominant_frequency(self, gain):
        profile = SpectralProfile((SpectralComponent(0.01, 3e-5, 0.0),), 0.0)
        for v, expected in ((0.1, 10.0), (0.2, 20.0), (0.3, 30.0)):
            series = synthesize_run(profile, v, 1.0, 200.0, 0, gain)
            mags = np.abs(np.fft.fft(series))
            assert dominant_frequency(mags, 1.0) == pytest.approx(expected)

    @pytest.mark.parametrize("tc", list(TerrainClass), ids=lambda tc: tc.label)
    def test_transient_memory_of_a_five_minute_run(self, gain, tc):
        # the time grid, one component's term and the running total are the
        # only run-length buffers held at once, whatever the component count;
        # a one-second run first imports numpy.random, which numpy loads lazily
        profile = default_profiles()[tc]
        synthesize_run(profile, 0.2, 1.0, 200.0, 0, gain)
        tracemalloc.start()
        try:
            series = synthesize_run(profile, 0.2, 300.0, 200.0, 0, gain)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * series.nbytes


class TestNoSidebands:
    """The abstract's claim (b), a dominant peak "sandwiched" by two weaker
    components from nonlinear interaction, cannot occur in this model: the
    beam is linear, so a noise-free steady window holds one line per profile
    component, at v / lambda and its mirror bin, and nothing else."""

    @pytest.mark.parametrize("tc", list(TerrainClass), ids=lambda tc: tc.label)
    def test_default_terrain_energy_only_at_component_bins(self, tc):
        cfg = ExperimentConfig()
        profile = SpectralProfile(tuple(
            SpectralComponent(c.lambda_m, c.h_m)
            for c in default_profiles()[tc].components))
        series = synthesize_run(profile, cfg.speed_m_s, cfg.window_s,
                                cfg.sample_rate_hz, 0, cfg.sensor_gain)
        mags = np.abs(np.fft.fft(series))
        n = mags.size
        on_bin = np.zeros(n, dtype=bool)
        for comp in profile.components:
            cycles = cfg.speed_m_s / comp.lambda_m * cfg.window_s
            k = round(cycles)
            assert cycles == pytest.approx(k)   # each component fills whole bins
            on_bin[[k, n - k]] = True
        peak = mags.max()
        assert mags[~on_bin].max() <= 1e-12 * peak
        assert mags[on_bin].min() >= 1e-3 * peak


def _write_profiles(path, table):
    """Write a profile table in the documented JSON format (see README.md)
    to path; returns path."""
    path.write_text(json.dumps([
        {"terrain": tc.label,
         "components": [{"lambda_m": c.lambda_m, "h_m": c.h_m,
                         "jitter_rad": c.jitter_rad}
                        for c in profile.components],
         "noise_floor_m": profile.noise_floor_m}
        for tc, profile in sorted(table.items())]), encoding="utf-8")
    return path


class TestProfileJson:
    def test_roundtrip(self, tmp_path):
        table = default_profiles()
        assert load_profiles(_write_profiles(tmp_path / "p.json", table)) == table

    def test_schema_keys(self, tmp_path):
        # jitter_rad and noise_floor_m are optional and default to 0
        path = tmp_path / "p.json"
        path.write_text(json.dumps([
            {"terrain": "brick", "components": [{"lambda_m": 0.01, "h_m": 8e-5}]},
            {"terrain": "sand", "noise_floor_m": 6e-8,
             "components": [{"lambda_m": 0.005, "h_m": 3e-5, "jitter_rad": 1.5}]},
        ]))
        assert load_profiles(path) == {
            TerrainClass.BRICK: SpectralProfile((SpectralComponent(0.01, 8e-5, 0.0),),
                                                0.0),
            TerrainClass.SAND: SpectralProfile((SpectralComponent(0.005, 3e-5, 1.5),),
                                               6e-8),
        }
        path.write_text('[{"terrain": "flat", "components": [{"lambda_m": 1}]}]')
        with pytest.raises(ConfigError, match="entry 0 component 0 is missing key 'h_m'"):
            load_profiles(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("not json at all {")
        with pytest.raises(ConfigError, match="is not valid JSON"):
            load_profiles(path)
        path.write_text("[]")
        with pytest.raises(ConfigError, match="must hold a nonempty JSON list"):
            load_profiles(path)

    def test_file_roundtrip(self, tmp_path):
        table = smoke_profiles()
        assert load_profiles(_write_profiles(tmp_path / "p.json", table)) == table

    @pytest.mark.parametrize("text, message", [
        ("{}", "must hold a nonempty JSON list"),
        ('["flat"]', "entry 0 must be a JSON object"),
        ('[{"terrain": "flat", "components": {"lambda_m": 0.04, "h_m": 2e-5}}]',
         "entry 0 key components must be a list"),
        ('[{"terrain": "flat", "components": [{"lambda_m": 0.04, "h_m": 2e-5,'
         ' "jiter_rad": 0.1}]}]', r"entry 0 component 0 has unknown keys: \['jiter_rad'\]"),
        ('[{"terrain": "flat", "noise_flor_m": 1e-9, "components": '
         '[{"lambda_m": 0.04, "h_m": 2e-5}]}]', r"entry 0 has unknown keys: \['noise_flor_m'\]"),
        ('[{"terrain": "asphalt", "components": [{"lambda_m": 0.04, "h_m": 2e-5}]}]',
         "entry 0: unknown terrain label 'asphalt'"),
        ('[{"components": [{"lambda_m": 0.04, "h_m": 2e-5}]}]',
         "entry 0 is missing key 'terrain'"),
        ('[{"terrain": "flat"}]', "entry 0 is missing key 'components'"),
        ('[{"terrain": "flat", "components": [{"lambda_m": 0.0, "h_m": 2e-5}]}]',
         "entry 0 component 0: lambda_m must be positive"),
        ('[{"terrain": "flat", "components": [{"lambda_m": NaN, "h_m": 2e-5}]}]',
         "entry 0 component 0 key lambda_m must be a finite number"),
        ("[" * 100_000, "p.json is nested too deeply to parse"),
    ], ids=["object", "non-object-entry",
            "components-object", "misspelled-jitter", "misspelled-noise",
            "unknown-terrain", "missing-terrain", "missing-components",
            "zero-lambda", "nan-lambda", "deep-file"])
    def test_malformed_file_names_the_key(self, tmp_path, text, message):
        path = tmp_path / "p.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_profiles(path)
