"""Terrain profiles, speed mapping, and synthesized runs."""

import numpy as np
import pytest

from whisksim.beam import (
    Excitation,
    SpringSpec,
    displacement,
    displacement_series,
    spring_to_beam,
    steady_state_offset,
)
from whisksim.config import ExperimentConfig
from whisksim.errors import PhysicsError
from whisksim.terrain import (
    RobotRun,
    SpectralComponent,
    SpectralProfile,
    TerrainClass,
    default_profiles,
    profiles_from_json,
    profiles_to_json,
    smoke_profiles,
    strip_randomness,
    synthesize_run,
    temporal_components,
)
from whisksim.pipeline import build_dataset, dominant_frequency


@pytest.fixture(scope="module")
def beam():
    return spring_to_beam(SpringSpec())


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
        doms = sorted(p.dominant_frequency_at(0.2) for p in table.values())
        assert doms == pytest.approx([5.0, 12.0, 20.0, 28.0, 36.0, 44.0, 52.0])
        gaps = np.diff(doms)
        assert np.all(gaps >= 2.0)

    def test_dominant_component_wins_by_response_weight(self):
        # response scales with h/lambda^2; the documented dominant must lead
        # every sibling by a clear factor so noise cannot flip the ranking
        for profile in default_profiles().values():
            weights = sorted((c.height_m / c.wavelength_m ** 2
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

    def test_robot_run_validation(self):
        with pytest.raises(PhysicsError):
            RobotRun(0.0, 10.0)
        with pytest.raises(PhysicsError):
            RobotRun(0.2, -1.0)
        assert RobotRun(0.2, 10.0).sample_rate_hz == 200.0


class TestTemporalComponents:
    def test_wavelength_to_frequency(self):
        profile = SpectralProfile((SpectralComponent(0.05, 1e-5),))
        (exc,) = temporal_components(profile, 0.2)
        assert exc.frequency_hz == pytest.approx(4.0)
        assert exc.amplitude_m == 1e-5

    def test_doubling_speed_doubles_frequency(self):
        profile = default_profiles()[TerrainClass.SAND]
        slow = temporal_components(profile, 0.15)
        fast = temporal_components(profile, 0.30)
        for a, b in zip(slow, fast):
            assert b.frequency_hz == pytest.approx(2.0 * a.frequency_hz)
            assert b.amplitude_m == a.amplitude_m

    def test_ordering_preserved(self):
        profile = default_profiles()[TerrainClass.SAND]
        excs = temporal_components(profile, 0.2)
        expected = [0.2 / c.wavelength_m for c in profile.components]
        assert [e.frequency_hz for e in excs] == pytest.approx(expected)

    def test_rejects_nyquist_violation(self):
        profile = SpectralProfile((SpectralComponent(0.001, 1e-5),))  # 200 Hz at 0.2
        with pytest.raises(PhysicsError):
            temporal_components(profile, 0.2, sample_rate_hz=200.0)

    def test_brick_shift_with_speed_is_closed_form(self):
        profile = default_profiles()[TerrainClass.BRICK]
        lam = profile.dominant_component().wavelength_m
        f_slow = profile.dominant_frequency_at(0.2)
        f_fast = profile.dominant_frequency_at(0.25)
        assert f_fast - f_slow == pytest.approx(0.05 / lam)
        assert f_fast - f_slow == pytest.approx(5.0)


class TestSynthesizeRun:
    def test_seeded_determinism(self, beam):
        run = RobotRun(0.2, 5.0, 200.0, seed=123)
        a = synthesize_run(TerrainClass.SAND, run, beam, 0.005)
        b = synthesize_run(TerrainClass.SAND, run, beam, 0.005)
        assert a.samples.tobytes() == b.samples.tobytes()

    def test_different_seeds_differ(self, beam):
        a = synthesize_run(TerrainClass.SAND, RobotRun(0.2, 5.0, seed=1), beam, 0.005)
        b = synthesize_run(TerrainClass.SAND, RobotRun(0.2, 5.0, seed=2), beam, 0.005)
        assert not np.array_equal(a.samples, b.samples)

    def test_single_component_no_noise_equals_beam_series(self, beam):
        profile = SpectralProfile((SpectralComponent(0.01, 3e-5, 0.0),), 0.0)
        run = RobotRun(0.2, 2.0, 200.0, seed=7)
        got = synthesize_run(TerrainClass.BRICK, run, beam, 0.005, profile=profile)
        want = displacement_series(beam, Excitation(3e-5, 20.0), 0.005, 200.0, 2.0)
        assert np.array_equal(got.samples, want.samples)

    @pytest.mark.parametrize("tc", list(TerrainClass), ids=lambda tc: tc.label)
    def test_jitter_is_a_drive_phase(self, beam, tc):
        # one phase per component, drawn in component order before the noise;
        # a phase phi is the modal sum started phi / omega later, up to rounding
        profile = SpectralProfile(default_profiles()[tc].components, 0.0)
        seed = 1000 + int(tc)
        got = synthesize_run(tc, RobotRun(0.2, 1.0, 200.0, seed=seed), beam,
                             0.005, profile=profile).samples
        rng = np.random.default_rng(seed)
        phases = [rng.uniform(-c.phase_jitter_rad, c.phase_jitter_rad)
                  for c in profile.components]
        excitations = temporal_components(profile, 0.2)
        steady = np.zeros(got.size)
        for exc, phase in zip(excitations, phases):
            steady += displacement_series(beam, exc, 0.005, 200.0, 1.0,
                                          phase_rad=phase).samples
        assert np.array_equal(got, steady)
        times = steady_state_offset(beam) + np.arange(got.size) / 200.0
        modal = np.array([sum(displacement(beam, exc, 0.005,
                                           t + phase / exc.angular_frequency)
                              for exc, phase in zip(excitations, phases))
                          for t in times])
        assert np.max(np.abs(got - modal)) <= 1e-12 * np.max(np.abs(modal))

    def test_sample_count_five_minutes(self, beam):
        run = RobotRun(0.2, 300.0, 200.0, seed=0)
        series = synthesize_run(TerrainClass.FLAT, run, beam, 0.005)
        assert len(series) == 60000
        ds = build_dataset([(series, TerrainClass.FLAT)], 1.0)
        assert len(ds) == 300

    def test_superposition_consistency(self, beam):
        comps = (SpectralComponent(0.01, 3e-5, 0.0),
                 SpectralComponent(0.02, 1e-5, 0.0),
                 SpectralComponent(0.004, 2e-6, 0.0))
        run = RobotRun(0.2, 2.0, 200.0, seed=99)
        full = synthesize_run(TerrainClass.SAND, run, beam, 0.005,
                              profile=SpectralProfile(comps, 0.0))
        parts = [synthesize_run(TerrainClass.SAND, run, beam, 0.005,
                                profile=SpectralProfile((c,), 0.0)).samples
                 for c in comps]
        assert np.array_equal(full.samples, parts[0] + parts[1] + parts[2])

    def test_speed_scales_dominant_frequency(self, beam):
        profile = SpectralProfile((SpectralComponent(0.01, 3e-5, 0.0),), 0.0)
        for v, expected in ((0.1, 10.0), (0.2, 20.0), (0.3, 30.0)):
            run = RobotRun(v, 1.0, 200.0, seed=0)
            series = synthesize_run(TerrainClass.BRICK, run, beam, 0.005,
                                    profile=profile)
            mags = np.abs(np.fft.fft(series.samples))
            assert dominant_frequency(mags, 1.0) == pytest.approx(expected)

    def test_strip_randomness(self):
        table = default_profiles()
        clean = strip_randomness(table[TerrainClass.SAND])
        assert clean.noise_floor_m == 0.0
        assert all(c.phase_jitter_rad == 0.0 for c in clean.components)
        assert [c.wavelength_m for c in clean.components] == [
            c.wavelength_m for c in table[TerrainClass.SAND].components]


class TestNoSidebands:
    """The abstract's claim (b), a dominant peak "sandwiched" by two weaker
    components from nonlinear interaction, cannot occur in this model: the
    beam is linear, so a noise-free steady window holds one line per profile
    component, at v / lambda and its mirror bin, and nothing else."""

    @pytest.mark.parametrize("tc", list(TerrainClass), ids=lambda tc: tc.label)
    def test_default_terrain_energy_only_at_component_bins(self, beam, tc):
        cfg = ExperimentConfig()
        profile = strip_randomness(default_profiles()[tc])
        run = RobotRun(cfg.speed_m_s, cfg.window_s, cfg.sample_rate_hz)
        series = synthesize_run(tc, run, beam, cfg.sensor_position_m,
                                profile=profile)
        mags = np.abs(np.fft.fft(series.samples))
        n = mags.size
        on_bin = np.zeros(n, dtype=bool)
        for comp in profile.components:
            cycles = cfg.speed_m_s / comp.wavelength_m * cfg.window_s
            k = round(cycles)
            assert cycles == pytest.approx(k)   # each component fills whole bins
            on_bin[[k, n - k]] = True
        peak = mags.max()
        assert mags[~on_bin].max() <= 1e-12 * peak
        assert mags[on_bin].min() >= 1e-3 * peak


class TestProfileJson:
    def test_roundtrip(self):
        table = default_profiles()
        again = profiles_from_json(profiles_to_json(table))
        assert again == table

    def test_schema_keys(self):
        import json
        doc = json.loads(profiles_to_json(default_profiles()))
        assert len(doc) == 7
        entry = doc[0]
        assert set(entry) == {"terrain", "components", "noise_floor_m"}
        assert set(entry["components"][0]) == {"lambda_m", "h_m", "jitter_rad"}

    def test_rejects_garbage(self):
        with pytest.raises(PhysicsError):
            profiles_from_json("not json at all {")
        with pytest.raises(PhysicsError):
            profiles_from_json("[]")

    def test_file_roundtrip(self, tmp_path):
        from whisksim.terrain import load_profiles, save_profiles
        path = tmp_path / "profiles.json"
        save_profiles(smoke_profiles(), path)
        assert load_profiles(path) == smoke_profiles()
