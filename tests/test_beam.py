"""Beam response: equivalence constants, factor-level checks, series, sweeps."""

import json
import math
import os

import numpy as np
import pytest

import oracles
from whisksim.beam import (
    BeamSpec,
    Excitation,
    SpringSpec,
    _factor_norm,
    _factor_shape,
    displacement_series,
    modal_angular_frequency,
    modal_sweep,
    spring_to_beam,
    steady_state_gain,
    steady_state_offset,
    transient_time_constant,
)
from whisksim.errors import PhysicsError

GOLDEN = json.load(open(os.path.join(os.path.dirname(__file__), "data",
                                     "golden_beam.json")))


@pytest.fixture(scope="module")
def beam():
    return spring_to_beam(SpringSpec())


@pytest.fixture(scope="module")
def drive():
    return Excitation(1e-4, 100.0)


class TestSpringToBeam:
    def test_matches_golden_constants(self, beam):
        spring = SpringSpec()
        assert spring.free_length_m / spring.coil_count == pytest.approx(
            GOLDEN["pitch_m"], rel=1e-12)
        assert beam.cross_section_m2 == pytest.approx(GOLDEN["area_m2"], rel=1e-12)
        assert beam.density_kg_m3 == pytest.approx(GOLDEN["rho_kg_m3"], rel=1e-12)
        assert beam.bending_stiffness_nm2 == pytest.approx(GOLDEN["EI_nm2"], rel=1e-12)
        assert beam.length_m == GOLDEN["length_m"]
        correction = beam.density_kg_m3 / spring.wire_density_kg_m3
        assert correction == pytest.approx(GOLDEN["correction_factor"], rel=1e-12)

    def test_matches_live_oracle(self, beam):
        ref = oracles.spring_parameters(0.060, 0.0005, 0.010, 0.008, 13,
                                        8050.0, 70.0e9)
        assert beam.density_kg_m3 == pytest.approx(float(ref["rho"]), rel=1e-13)
        assert beam.bending_stiffness_nm2 == pytest.approx(float(ref["EI"]), rel=1e-13)

    def test_straight_wire_limit(self):
        # a single coil of vanishing radius degenerates to a straight wire
        spring = SpringSpec(coil_count=1, outer_diameter_m=2e-9,
                            inner_diameter_m=1e-9)
        beam = spring_to_beam(spring)
        assert beam.density_kg_m3 == pytest.approx(spring.wire_density_kg_m3,
                                                   rel=1e-6)

    def test_defaults_and_damping(self, beam):
        assert beam.damping_ratio == 0.04

    @pytest.mark.parametrize("kwargs", [
        {"free_length_m": -0.06},
        {"wire_radius_m": 0.0},
        {"inner_diameter_m": 0.011},         # inner >= outer
        {"coil_count": 0},
        {"wire_density_kg_m3": -1.0},
    ])
    def test_rejects_bad_geometry(self, kwargs):
        with pytest.raises(PhysicsError):
            spring_to_beam(SpringSpec(**kwargs))

    def test_rejects_bad_damping(self, beam):
        with pytest.raises(PhysicsError):
            BeamSpec(beam.length_m, beam.cross_section_m2, beam.density_kg_m3,
                     beam.bending_stiffness_nm2, damping_ratio=1.0)
        with pytest.raises(PhysicsError):
            BeamSpec(beam.length_m, beam.cross_section_m2, beam.density_kg_m3,
                     beam.bending_stiffness_nm2, damping_ratio=0.0)


class TestDisplacement:
    def test_zero_amplitude_is_zero(self, beam):
        exc = Excitation(0.0, 120.0)
        for x in (0.0, 0.005, 0.03, 0.06):
            for t in (0.0, 0.1, 1.7):
                assert oracles.displacement(beam, exc, x, t) == 0.0

    def test_clamped_base_is_zero(self, beam, drive):
        for t in (0.0, 0.013, 0.4, 2.0, 10.0):
            assert oracles.displacement(beam, drive, 0.0, t) == 0.0

    def test_rejects_positions_outside_beam(self, beam, drive):
        with pytest.raises(PhysicsError):
            oracles.displacement(beam, drive, -1e-9, 0.1)
        with pytest.raises(PhysicsError):
            oracles.displacement(beam, drive, beam.length_m + 1e-9, 0.1)

    def test_rejects_negative_time(self, beam, drive):
        with pytest.raises(PhysicsError):
            oracles.displacement(beam, drive, 0.005, -0.1)

    def test_factors_match_scalar_oracle(self, beam, drive):
        args = (beam.length_m, beam.cross_section_m2, beam.density_kg_m3,
                beam.bending_stiffness_nm2, 0.04, drive.amplitude_m,
                drive.frequency_hz, 0.005)
        for i in range(5):
            for t in (0.0107, 0.0503, 0.0999):
                forcing, shape, mix, norm = oracles.beam_response_factors(
                    *args, t, i)
                assert _factor_shape(beam, i, 0.005) == pytest.approx(
                    float(shape), rel=1e-9)
                assert _factor_norm(beam, i) == pytest.approx(float(norm), rel=1e-9)
                term = oracles.modal_terms(beam, drive, 0.005, np.array([t]))[i, 0]
                assert term == pytest.approx(
                    float(-(forcing * shape * mix) / norm), rel=1e-9)

    def test_matches_frozen_golden_waveform(self, beam, drive):
        for t, expected in GOLDEN["displacement_f100_h1e-4_x5mm"].items():
            got = oracles.displacement(beam, drive, 0.005, float(t))
            assert got == pytest.approx(expected, rel=1e-9)

    def test_matches_live_oracle_incl_folded_region(self, beam, drive):
        # at t=300 the mix factor's exp(+zeta w t) alone would overflow in
        # every mode; the folded form must still match
        args = (beam.length_m, beam.cross_section_m2, beam.density_kg_m3,
                beam.bending_stiffness_nm2, 0.04, drive.amplitude_m,
                drive.frequency_hz, 0.005)
        for t in (0.0071, 0.2502, 1.2507, 4.8803, 30.0103, 300.0001):
            ref = float(oracles.beam_response(*args, t))
            got = oracles.displacement(beam, drive, 0.005, t)
            scale = max(abs(ref), 1e-9)
            assert abs(got - ref) / scale < 1e-9

    def test_modal_terms_sum_to_displacement(self, beam, drive):
        terms = oracles.modal_terms(beam, drive, 0.005, np.array([0.3137]))
        assert terms.shape == (5, 1)
        assert terms.sum() == oracles.displacement(beam, drive, 0.005, 0.3137)

    def test_mode_five_smaller_than_mode_one(self, beam):
        # five modes suffice at drive frequencies up to 300 Hz
        t_grid = steady_state_offset(beam) + np.linspace(0.0, 0.05, 40)
        for f_b in (50.0, 100.0, 200.0, 300.0):
            amp = np.abs(oracles.modal_terms(beam, Excitation(1e-4, f_b), 0.005,
                                      t_grid)).max(axis=1)
            assert amp[4] < amp[0]


class TestSteadyState:
    """Past steady_state_offset the response is K(x) h f^2 sin(2 pi f t):
    the modal frequencies drop out, so no drive frequency resonates, not
    even the first mode's (46.0 Hz)."""

    @pytest.fixture(scope="class")
    def f_b_grid(self, beam):
        first_mode_hz = modal_angular_frequency(beam, 0) / (2.0 * math.pi)
        return [float(f) for f in range(5, 100)] + [first_mode_hz]

    def test_series_equals_modal_sum(self, beam, f_b_grid):
        t0 = steady_state_offset(beam)
        for f_b in f_b_grid:
            exc = Excitation(1e-4, f_b)
            series = displacement_series(beam, exc, 0.005, 200.0, 0.05)
            times = t0 + np.arange(len(series)) / 200.0
            modal = np.array([oracles.displacement(beam, exc, 0.005, t) for t in times])
            worst = np.max(np.abs(series - modal))
            assert worst <= 1e-12 * np.max(np.abs(modal)), f_b

    def test_peak_over_h_f_squared_is_constant(self, beam, f_b_grid):
        # the modal sum at a crest of sin(2 pi f t), one per drive frequency
        t0 = steady_state_offset(beam)
        ratios = []
        for f_b in f_b_grid:
            crest = (math.ceil(t0 * f_b) + 0.25) / f_b
            y_max = abs(oracles.displacement(beam, Excitation(1e-4, f_b), 0.005, crest))
            ratios.append(y_max / (1e-4 * f_b ** 2))
        gain = abs(steady_state_gain(beam, 0.005))
        assert ratios == pytest.approx([gain] * len(ratios), rel=1e-12)

    def test_gain_rejects_positions_outside_beam(self, beam):
        with pytest.raises(PhysicsError):
            steady_state_gain(beam, beam.length_m + 1e-9)


class TestDisplacementSeries:
    def test_sample_count(self, beam, drive):
        series = displacement_series(beam, drive, 0.005, 1000.0, 1.0)
        assert len(series) == 1000

    def test_doubling_amplitude_doubles_samples_exactly(self, beam):
        s1 = displacement_series(beam, Excitation(1e-4, 100.0), 0.005,
                                 1000.0, 0.5)
        s2 = displacement_series(beam, Excitation(2e-4, 100.0), 0.005,
                                 1000.0, 0.5)
        assert np.array_equal(2.0 * s1, s2)

    def test_nyquist_violation_is_an_error(self, beam):
        with pytest.raises(PhysicsError):
            displacement_series(beam, Excitation(1e-4, 100.0), 0.005, 200.0, 1.0)
        with pytest.raises(PhysicsError):
            displacement_series(beam, Excitation(1e-4, 100.0), 0.005, 200.0, 1.0,
                                phase_rad=0.5)

    def test_rejects_nonpositive_duration(self, beam, drive):
        with pytest.raises(PhysicsError):
            displacement_series(beam, drive, 0.005, 1000.0, 0.0)

    def test_late_window_is_periodic(self, beam, drive):
        # transient of the modal sum fully decayed: from 2 s on (23 slow-mode
        # time constants) a window repeats one drive period later
        rate, period = 2000.0, 1.0 / drive.frequency_hz
        t = 2.0 + np.arange(400) / rate
        a = oracles.modal_terms(beam, drive, 0.005, t).sum(axis=0)
        b = oracles.modal_terms(beam, drive, 0.005, t + period).sum(axis=0)
        y_max = np.max(np.abs(a))
        assert np.max(np.abs(a - b)) < 1e-6 * y_max

    def test_time_constant_helper(self, beam):
        from whisksim.beam import modal_angular_frequency
        tau = transient_time_constant(beam)
        assert tau == pytest.approx(
            1.0 / (beam.damping_ratio * modal_angular_frequency(beam, 0)))
        assert steady_state_offset(beam) == pytest.approx(40.0 * tau)


@pytest.fixture(scope="module")
def surface(beam):
    return modal_sweep(beam, [50.0, 100.0, 150.0], [1e-4, 2e-4, 3e-4],
                       0.005, 1000.0, 1.0)


class TestModalSweep:
    def test_dominant_tracks_drive_frequency(self, surface):
        for i, fb in enumerate(surface.f_b_grid_hz):
            for j in range(surface.h_b_grid_m.size):
                assert abs(surface.f_dominant_hz[i, j] - fb) <= 1.0

    def test_dominant_independent_of_amplitude(self, surface):
        for row in surface.f_dominant_hz:
            assert np.all(row == row[0])

    def test_max_displacement_proportional_to_amplitude(self, surface):
        h = surface.h_b_grid_m
        for row in surface.y_max_m:
            ratios = row / h
            assert ratios == pytest.approx([ratios[0]] * len(h), rel=1e-9)

    def test_rejects_empty_grid(self, beam):
        with pytest.raises(PhysicsError):
            modal_sweep(beam, [], [1e-4], 0.005, 1000.0, 1.0)

    def test_rejects_unresolvable_grid_point(self, beam):
        with pytest.raises(PhysicsError):
            modal_sweep(beam, [600.0], [1e-4], 0.005, 1000.0, 1.0)

    def test_csv_format(self, surface, tmp_path):
        path = tmp_path / "sweep.csv"
        surface.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "f_b_hz,h_b_m,y_max_m,f_dom_hz"
        assert len(lines) == 1 + 9
        # row-major over the f_b grid
        first = lines[1].split(",")
        assert float(first[0]) == 50.0 and float(first[1]) == 1e-4
        second = lines[2].split(",")
        assert float(second[0]) == 50.0 and float(second[1]) == 2e-4


class TestExcitation:
    def test_rejects_negative_amplitude(self):
        with pytest.raises(PhysicsError):
            Excitation(-1e-4, 10.0)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(PhysicsError):
            Excitation(1e-4, 0.0)

    def test_angular_frequency(self):
        assert Excitation(1e-4, 10.0).angular_frequency == pytest.approx(
            2.0 * math.pi * 10.0)
