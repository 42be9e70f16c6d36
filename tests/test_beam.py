"""Beam response: equivalence constants, factor-level checks, series, sweeps."""

import json
import math
import os

import numpy as np
import pytest

import oracles
from whisksim.beam import (
    DAMPING_RATIO,
    SpringSpec,
    _factor_norm,
    _factor_shape,
    displacement_series,
    modal_sweep,
    spring_to_beam,
    steady_state_gain,
)
from whisksim.errors import PhysicsError

GOLDEN = json.load(open(os.path.join(os.path.dirname(__file__), "data",
                                     "golden_beam.json")))


@pytest.fixture(scope="module")
def beam():
    return spring_to_beam(SpringSpec())


@pytest.fixture(scope="module")
def gain(beam):
    """The default sensor's steady_state_gain, at 5 mm."""
    return steady_state_gain(beam, 0.005)


@pytest.fixture(scope="module")
def drive():
    """Height (m) and frequency (Hz) of the reference drive."""
    return 1e-4, 100.0


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

    def test_defaults_and_damping(self):
        assert DAMPING_RATIO == 0.04

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


class TestDisplacement:
    def test_zero_amplitude_is_zero(self, beam):
        for x in (0.0, 0.005, 0.03, 0.06):
            for t in (0.0, 0.1, 1.7):
                assert oracles.displacement(beam, 0.0, 120.0, x, t) == 0.0

    def test_clamped_base_is_zero(self, beam, drive):
        for t in (0.0, 0.013, 0.4, 2.0, 10.0):
            assert oracles.displacement(beam, *drive, 0.0, t) == 0.0

    def test_rejects_positions_outside_beam(self, beam, drive):
        with pytest.raises(PhysicsError):
            oracles.displacement(beam, *drive, -1e-9, 0.1)
        with pytest.raises(PhysicsError):
            oracles.displacement(beam, *drive, beam.length_m + 1e-9, 0.1)

    def test_rejects_negative_time(self, beam, drive):
        with pytest.raises(PhysicsError):
            oracles.displacement(beam, *drive, 0.005, -0.1)

    def test_factors_match_scalar_oracle(self, beam, drive):
        args = (beam.length_m, beam.cross_section_m2, beam.density_kg_m3,
                beam.bending_stiffness_nm2, 0.04, *drive, 0.005)
        for i in range(5):
            for t in (0.0107, 0.0503, 0.0999):
                forcing, shape, mix, norm = oracles.beam_response_factors(
                    *args, t, i)
                assert _factor_shape(beam, i, 0.005) == pytest.approx(
                    float(shape), rel=1e-9)
                assert _factor_norm(beam, i) == pytest.approx(float(norm), rel=1e-9)
                term = oracles.modal_terms(beam, *drive, 0.005, np.array([t]))[i, 0]
                assert term == pytest.approx(
                    float(-(forcing * shape * mix) / norm), rel=1e-9)

    def test_matches_frozen_golden_waveform(self, beam, drive):
        for t, expected in GOLDEN["displacement_f100_h1e-4_x5mm"].items():
            got = oracles.displacement(beam, *drive, 0.005, float(t))
            assert got == pytest.approx(expected, rel=1e-9)

    def test_matches_live_oracle_incl_folded_region(self, beam, drive):
        # at t=300 the mix factor's exp(+zeta w t) alone would overflow in
        # every mode; the folded form must still match
        args = (beam.length_m, beam.cross_section_m2, beam.density_kg_m3,
                beam.bending_stiffness_nm2, 0.04, *drive, 0.005)
        for t in (0.0071, 0.2502, 1.2507, 4.8803, 30.0103, 300.0001):
            ref = float(oracles.beam_response(*args, t))
            got = oracles.displacement(beam, *drive, 0.005, t)
            scale = max(abs(ref), 1e-9)
            assert abs(got - ref) / scale < 1e-9

    def test_modal_terms_sum_to_displacement(self, beam, drive):
        terms = oracles.modal_terms(beam, *drive, 0.005, np.array([0.3137]))
        assert terms.shape == (5, 1)
        assert terms.sum() == oracles.displacement(beam, *drive, 0.005, 0.3137)

    def test_mode_five_smaller_than_mode_one(self, beam):
        # five modes suffice at drive frequencies up to 300 Hz
        t_grid = oracles.steady_state_offset(beam) + np.linspace(0.0, 0.05, 40)
        for f_b in (50.0, 100.0, 200.0, 300.0):
            amp = np.abs(oracles.modal_terms(beam, 1e-4, f_b, 0.005,
                                             t_grid)).max(axis=1)
            assert amp[4] < amp[0]


class TestSteadyState:
    """Once the transient has decayed (oracles.steady_state_offset) the
    response is K(x) h f^2 sin(2 pi f t): the modal frequencies drop out, so
    no drive frequency resonates, not even the first mode's (46.0 Hz).
    displacement_series samples this form from t = 0, so its sample k with
    phase 2 pi f T is the modal sum at T + k / rate. T and the rate are
    chosen so that every T + k / rate is a float exactly, which keeps time
    rounding out of the comparison: the worst error is 5.0e-13 of the peak
    here, and 8.5e-13 with T at the offset (3.46 s) on a 200 Hz grid."""

    T = 4.0        # s, after the default spring's offset
    RATE = 256.0   # Hz

    @pytest.fixture(scope="class")
    def f_b_grid(self, beam):
        first_mode_hz = oracles.modal_angular_frequency(beam, 0) / (2.0 * math.pi)
        return [float(f) for f in range(5, 100)] + [first_mode_hz]

    def test_series_equals_modal_sum(self, beam, gain, f_b_grid):
        assert oracles.steady_state_offset(beam) <= self.T
        for f_b in f_b_grid:
            phase = 2.0 * math.pi * math.fmod(f_b * self.T, 1.0)
            series = displacement_series(gain, [1e-4], [f_b], [phase], self.RATE,
                                         0.0625)
            times = self.T + np.arange(len(series)) / self.RATE
            modal = np.array([oracles.displacement(beam, 1e-4, f_b, 0.005, t)
                              for t in times])
            worst = np.max(np.abs(series - modal))
            assert worst <= 1e-12 * np.max(np.abs(modal)), f_b

    def test_peak_over_h_f_squared_is_constant(self, beam, gain, f_b_grid):
        # the modal sum at a crest of sin(2 pi f t), one per drive frequency
        ratios = []
        for f_b in f_b_grid:
            crest = (math.ceil(self.T * f_b) + 0.25) / f_b
            y_max = abs(oracles.displacement(beam, 1e-4, f_b, 0.005, crest))
            ratios.append(y_max / (1e-4 * f_b ** 2))
        assert ratios == pytest.approx([abs(gain)] * len(ratios), rel=1e-12)


class TestDisplacementSeries:
    def test_sample_count(self, gain, drive):
        h_b, f_b = drive
        series = displacement_series(gain, [h_b], [f_b], [0.0], 1000.0, 1.0)
        assert len(series) == 1000

    def test_doubling_amplitude_doubles_samples_exactly(self, gain):
        s1 = displacement_series(gain, [1e-4], [100.0], [0.0], 1000.0, 0.5)
        s2 = displacement_series(gain, [2e-4], [100.0], [0.0], 1000.0, 0.5)
        assert np.array_equal(2.0 * s1, s2)

    def test_late_window_is_periodic(self, beam, drive):
        # transient of the modal sum fully decayed: from 2 s on (23 slow-mode
        # time constants) a window repeats one drive period later
        rate, period = 2000.0, 1.0 / drive[1]
        t = 2.0 + np.arange(400) / rate
        a = oracles.modal_terms(beam, *drive, 0.005, t).sum(axis=0)
        b = oracles.modal_terms(beam, *drive, 0.005, t + period).sum(axis=0)
        y_max = np.max(np.abs(a))
        assert np.max(np.abs(a - b)) < 1e-6 * y_max

    def test_time_constant_helper(self, beam):
        # the default spring's first mode: damped at 45.96 Hz, decaying with
        # tau = 86.5 ms, so the transient is below double precision at 3.46 s
        omega_1 = oracles.modal_angular_frequency(beam, 0)
        damped_hz = omega_1 * math.sqrt(1.0 - DAMPING_RATIO ** 2) / (2.0 * math.pi)
        assert damped_hz == pytest.approx(45.96, abs=0.005)
        tau = oracles.transient_time_constant(beam)
        assert tau == pytest.approx(1.0 / (DAMPING_RATIO * omega_1))
        assert tau == pytest.approx(0.0865, abs=5e-5)
        assert oracles.steady_state_offset(beam) == pytest.approx(40.0 * tau)


class TestTransientSidebands:
    """Claim (b) of the paper where the closed form has it: in the
    transient, each mode's decaying factor times sin(w_b t) holds two
    sidebands at f_b +- f_d, f_d its damped frequency, the first mode's
    (45.96 Hz) far above the rest. They decay with exp(-zeta w_1 t), so the
    steady windows that the classifier sees hold only the drive line.

    Spectra of the modal sum under a 1000-sample Hann window at 4 kHz (bins
    4 Hz wide), drive 1e-4 m, x = 5 mm. Each bound is set from the measured
    value stated beside it."""

    RATE, N = 4000.0, 1000
    BIN_HZ = RATE / N

    def _spectrum(self, series):
        return np.abs(np.fft.rfft(series * np.hanning(self.N)))

    def _modal(self, beam, f_b, start):
        t = start + np.arange(self.N) / self.RATE
        return self._spectrum(oracles.modal_terms(beam, 1e-4, f_b, 0.005, t).sum(axis=0))

    def _sidebands(self, beam, f_b):
        """f_b -+ the first mode's damped frequency, and their nearest bins."""
        f_d = (oracles.modal_angular_frequency(beam, 0)
               * math.sqrt(1.0 - DAMPING_RATIO ** 2) / (2.0 * math.pi))
        freqs = [f_b - f_d, f_b + f_d]
        return freqs, [round(f / self.BIN_HZ) for f in freqs]

    @pytest.mark.parametrize("f_b", [100.0, 300.0])
    def test_an_early_window_holds_two_equal_sidebands(self, beam, f_b):
        mags = self._modal(beam, f_b, 0.0)
        drive = round(f_b / self.BIN_HZ)
        peaks = [k for k in range(1, mags.size - 1) if abs(k - drive) > 2
                 and mags[k] >= max(mags[k - 1], mags[k + 1])]
        top = sorted(sorted(peaks, key=lambda k: mags[k])[-2:])
        freqs, _ = self._sidebands(beam, f_b)
        for k, f in zip(top, freqs):
            assert abs(k * self.BIN_HZ - f) <= self.BIN_HZ
        low, high = mags[top] / mags[drive]
        assert low == pytest.approx(0.1062, rel=1e-3)   # measured 0.10619-0.10620
        assert high == pytest.approx(low, rel=1e-4)     # measured within 1.1e-5
        # the median bin measured 8.4e-8 and 1.0e-7 of the drive
        assert low >= 1e5 * np.median(mags) / mags[drive]

    @pytest.mark.parametrize("f_b", [100.0, 300.0])
    def test_sidebands_decay_with_the_first_mode(self, beam, f_b):
        dt = 0.1
        _, bins = self._sidebands(beam, f_b)
        ratio = self._modal(beam, f_b, dt)[bins] / self._modal(beam, f_b, 0.0)[bins]
        decay = math.exp(-DAMPING_RATIO * oracles.modal_angular_frequency(beam, 0) * dt)
        assert ratio == pytest.approx([decay] * 2, rel=5e-4)   # measured within 6.3e-5

    @pytest.mark.parametrize("f_b", [100.0, 300.0])
    @pytest.mark.parametrize("start", [1.0, 3.5])
    def test_a_steady_window_holds_only_the_drive_line(self, beam, gain, f_b, start):
        # the sideband bins hold the Hann leakage of the drive line: they
        # read as in the steady closed form, up to the transient left at
        # start (5.9e-7 of the drive at 1.0 s, 1.6e-13 at 3.5 s)
        mags = self._modal(beam, f_b, start)
        steady = self._spectrum(displacement_series(
            gain, [1e-4], [f_b], [2.0 * math.pi * math.fmod(f_b * start, 1.0)],
            self.RATE, self.N / self.RATE))
        drive = mags[round(f_b / self.BIN_HZ)]
        _, bins = self._sidebands(beam, f_b)
        assert mags[bins].max() <= 1e-5 * drive   # measured 7.1e-6 to 8.3e-6
        assert np.abs(mags[bins] - steady[bins]).max() <= 1e-6 * drive


SWEEP_F_B = [50.0, 100.0, 150.0]
SWEEP_H_B = [1e-4, 2e-4, 3e-4]


@pytest.fixture(scope="module")
def surface(gain):
    return modal_sweep(gain, SWEEP_F_B, SWEEP_H_B, 1000.0, 1.0)


class TestModalSweep:
    def test_dominant_tracks_drive_frequency(self, surface):
        assert surface.f_dominant_hz.shape == (len(SWEEP_F_B), len(SWEEP_H_B))
        for i, fb in enumerate(SWEEP_F_B):
            for j in range(len(SWEEP_H_B)):
                assert abs(surface.f_dominant_hz[i, j] - fb) <= 1.0

    def test_dominant_independent_of_amplitude(self, surface):
        for row in surface.f_dominant_hz:
            assert np.all(row == row[0])

    def test_max_displacement_proportional_to_amplitude(self, surface):
        h = np.array(SWEEP_H_B)
        for row in surface.y_max_m:
            ratios = row / h
            assert ratios == pytest.approx([ratios[0]] * len(h), rel=1e-9)

    def test_rejects_unresolvable_grid_point(self, gain):
        with pytest.raises(PhysicsError):
            modal_sweep(gain, [600.0], [1e-4], 1000.0, 1.0)

