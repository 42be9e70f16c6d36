"""Windowing, standardization, FFT features, splits, CSV round-trips.

transform_run windows each run and takes its standard deviations in one
array pass, then standardizes and transforms its kept windows
BLOCK_ROWS at a time; TestWindow and TestStandardize check those two
steps through it, by way of oracles.dataset_of."""

import hashlib
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import oracles
from whisksim import pool, terrain
from whisksim.beam import displacement_series
from whisksim.config import ExperimentConfig
from whisksim.errors import PhysicsError
from whisksim.experiment import SYNTH_SCOPE, build_labeled_dataset, resolve_profiles
from whisksim.pipeline import (
    BLOCK_ROWS,
    dominant_frequency,
    fft_magnitude,
    split,
    write_dataset_csv,
)
from whisksim.terrain import TerrainClass, default_profiles, synthesize_run


@pytest.fixture(scope="module")
def gain():
    """The default sensor's steady_state_gain."""
    return ExperimentConfig().sensor_gain


def _series(n):
    return np.random.default_rng(0).normal(0.0, 1.0, n)


def _features(samples, label=TerrainClass.FLAT):
    return oracles.dataset_of([(samples, label)])


def _reference_rows(samples, n=200):
    """Per-window standardize-then-transform, one slice at a time."""
    rows = []
    for i in range(len(samples) // n):
        w = samples[i * n:(i + 1) * n]
        rows.append(np.abs(np.fft.fft((w - w.mean()) / w.std())))
    return np.array(rows)


class TestWindow:
    def test_300_windows_from_five_minutes(self):
        ds = oracles.dataset_of([(_series(60000), TerrainClass.FLAT)])
        assert ds.features().shape == (300, 200)
        assert ds.dropped == 0

    def test_trailing_remainder_dropped(self):
        series = _series(250)
        ds = oracles.dataset_of([(series, TerrainClass.FLAT)])
        assert len(ds) == 1
        assert np.array_equal(ds.features(), _reference_rows(series[:200]))

    def test_short_series_is_an_error(self):
        with pytest.raises(PhysicsError, match="all 0 windows"):
            oracles.dataset_of([(_series(199), TerrainClass.FLAT)])

    def test_windows_are_consecutive(self):
        samples = np.random.default_rng(9).normal(0.0, 1.0, 600)
        ds = _features(samples)
        assert ds.window_idx().tolist() == [0, 1, 2]
        assert np.array_equal(ds.features(), _reference_rows(samples))


class TestStandardize:
    def test_zero_mean_unit_std(self):
        # zero mean: the DC bin vanishes; unit std: Parseval gives
        # sum |X_k|^2 = n * sum x^2 = n^2
        ds = _features(np.random.default_rng(1).normal(3.0, 5.0, 600))
        assert np.all(np.abs(ds.features()[:, 0]) < 1e-9)
        assert np.allclose((ds.features() ** 2).sum(axis=1), 200.0 ** 2, rtol=1e-12)

    def test_idempotent(self):
        samples = np.random.default_rng(1).normal(3.0, 5.0, 400)
        standardized = np.concatenate([(w - w.mean()) / w.std()
                                       for w in samples.reshape(2, 200)])
        assert np.allclose(_features(standardized).features(),
                           _features(samples).features(), atol=1e-9)

    def test_constant_window_is_an_error(self):
        # a constant window cannot be standardized; a run of only those
        # leaves nothing to build
        with pytest.raises(PhysicsError, match="degenerate"):
            _features(np.full(400, 3.3))

    def test_scale_and_shift_invariant(self):
        x = np.random.default_rng(2).normal(0.0, 1.0, 400)
        assert np.allclose(_features(7.5 * x - 12.0).features(),
                           _features(x).features(), atol=1e-9)


class TestFftMagnitude:
    def test_sinusoid_peaks_mirror(self):
        n, k = 200, 17
        x = np.sin(2.0 * np.pi * k * np.arange(n) / n)
        mags = fft_magnitude(x)
        top = set(np.argsort(mags)[-2:])
        assert top == {k, n - k}

    def test_zeros_stay_zero(self):
        mags = fft_magnitude(np.zeros(200))
        assert np.all(mags == 0.0)

    def test_eight_samples_match_naive_dft(self):
        x = np.random.default_rng(3).normal(0.0, 1.0, 8)
        got = fft_magnitude(x)
        ref = oracles.naive_dft_magnitudes(list(x))
        assert np.max(np.abs(got - np.array(ref))) < 1e-9

    def test_all_sizes_up_to_64_match_naive_dft(self):
        rng = np.random.default_rng(4)
        for n in range(1, 65):
            x = rng.normal(0.0, 1.0, n)
            got = fft_magnitude(x)
            ref = np.array(oracles.naive_dft_magnitudes(list(x)))
            assert np.max(np.abs(got - ref)) < 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(5)
        for n in (64, 200, 333):
            x = rng.normal(0.0, 2.0, n)
            mags = fft_magnitude(x)
            time_energy = np.sum(x ** 2)
            freq_energy = np.sum(mags ** 2) / n
            assert freq_energy == pytest.approx(time_energy, rel=1e-6)


class TestDominantFrequency:
    def test_pure_sinusoid(self):
        t = np.arange(1000) / 1000.0
        x = np.sin(2.0 * np.pi * 100.0 * t)
        assert dominant_frequency(fft_magnitude(x), 1.0) == pytest.approx(100.0)

    def test_beam_signal_at_300hz(self, gain):
        series = displacement_series(gain, [3e-4], [300.0], [0.0], 1000.0, 1.0)
        assert dominant_frequency(
            fft_magnitude(series), 1.0) == pytest.approx(300.0)

    def test_tie_breaks_to_lower_frequency(self):
        mags = np.zeros(200)
        mags[40] = 5.0
        mags[60] = 5.0
        assert dominant_frequency(mags, 1.0) == 40.0

    def test_mirror_bins_resolve_to_folded_frequency(self):
        mags = np.zeros(200)
        mags[150] = 9.0  # mirror of bin 50
        assert dominant_frequency(mags, 1.0) == 50.0

    def test_dc_excluded(self):
        mags = np.zeros(64)
        mags[0] = 100.0
        mags[5] = 1.0
        assert dominant_frequency(mags, 1.0) == 5.0

    def test_no_energy_off_dc_has_no_dominant_frequency(self):
        assert dominant_frequency(fft_magnitude(np.zeros(200)), 1.0) is None
        mags = np.zeros(64)
        mags[0] = 100.0
        assert dominant_frequency(mags, 1.0) is None


class TestBuildDataset:
    def _run(self, label, seconds=3, seed=0):
        rng = np.random.default_rng(seed)
        t = np.arange(int(200 * seconds)) / 200.0
        x = np.sin(2.0 * np.pi * (5 * int(label)) * t) + rng.normal(0, 0.1, t.size)
        return x, label

    def test_vector_count(self):
        runs = [self._run(t, seconds=3, seed=int(t)) for t in TerrainClass]
        ds = oracles.dataset_of(runs)
        assert len(ds) == 21
        assert ds.dropped == 0

    def test_single_window_run(self):
        ds = oracles.dataset_of([self._run(TerrainClass.FLAT, seconds=1)])
        assert len(ds) == 1
        assert ds.window_idx()[0] == 0

    def test_empty_run_list_is_an_error(self):
        with pytest.raises(PhysicsError, match="all 0 windows"):
            oracles.dataset_of([])

    def test_degenerate_windows_skipped_and_counted(self):
        samples = np.concatenate([np.zeros(200),
                                  np.sin(2 * np.pi * 10 * np.arange(200) / 200.0)])
        ds = oracles.dataset_of([(samples, TerrainClass.SAND)])
        assert len(ds) == 1
        assert ds.dropped == 1
        assert ds.window_idx()[0] == 1

    def test_all_degenerate_is_an_error(self):
        with pytest.raises(PhysicsError):
            oracles.dataset_of([(np.zeros(400), TerrainClass.SAND)])

    def test_deterministic(self):
        runs = [self._run(TerrainClass.BRICK, seconds=2)]
        a = oracles.dataset_of(runs)
        b = oracles.dataset_of(runs)
        assert np.array_equal(a.features(), b.features())

    def test_rows_equal_per_window_reference_bit_for_bit(self):
        rng = np.random.default_rng(10)
        # an offset, so that a standard deviation taken after centering
        # would differ in the last bit for some windows
        first = rng.normal(5e3, 3.0, 20 * 200 + 77)
        first[400:600] = 1.25  # a constant window in the middle
        second = rng.normal(-1.0, 0.5, 10 * 200 + 150)
        ds = oracles.dataset_of([(first, TerrainClass.SAND),
                                 (second, TerrainClass.BRICK)])
        without_constant = np.concatenate([first[:400], first[600:]])
        expected = np.concatenate([_reference_rows(without_constant),
                                   _reference_rows(second)])
        assert np.array_equal(ds.features(), expected)
        assert ds.labels().tolist() == [6] * 19 + [3] * 10
        assert ds.window_idx().tolist() == [0, 1, *range(3, 20), *range(10)]
        assert ds.dropped == 1

    def test_input_series_left_untouched(self):
        series = _series(600)
        before = series.copy()
        oracles.dataset_of([(series, TerrainClass.FLAT)])
        assert np.array_equal(series, before)

    def test_constant_run_next_to_good_run(self):
        good = self._run(TerrainClass.BRICK, seconds=3)
        constant = (np.full(600, 0.5), TerrainClass.SAND)
        ds = oracles.dataset_of([constant, good])
        assert len(ds) == 3
        assert ds.dropped == 3
        assert set(ds.labels().tolist()) == {int(TerrainClass.BRICK)}

    def test_nan_sample_is_an_error(self):
        samples = np.random.default_rng(11).normal(0.0, 1.0, 600)
        samples[250] = np.nan
        with pytest.raises(PhysicsError, match="non-finite"):
            _features(samples)

    def test_standardize_then_transform_order(self):
        # the DC bin of every feature vector is ~0 because the window was
        # centered before the transform
        runs = [self._run(TerrainClass.CARPET, seconds=2)]
        ds = oracles.dataset_of(runs)
        assert np.all(np.abs(ds.features()[:, 0]) < 1e-9)

    def test_degenerate_windows_leave_an_exact_matrix(self):
        samples = np.concatenate([np.zeros(200), _series(400)])
        ds = oracles.dataset_of([(samples, TerrainClass.SAND)])
        assert ds.features().shape == (2, 200)
        assert ds.features().base is None
        assert ds.dropped == 1

    @pytest.mark.parametrize("kept", [1, 15, 16, 17, 33])
    def test_blocks_equal_one_stack_per_run_bit_for_bit(self, kept):
        # flat windows open and close the run and sit at the edges of the
        # kept windows' blocks (after kept windows 15 and 31); a second run
        # follows the first
        rng = np.random.default_rng(kept)
        flats = {0, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 2, 2 * BLOCK_ROWS + 3}
        keeps = []
        while sum(keeps) < kept:
            keeps.append(len(keeps) not in flats)
        keeps.append(False)
        windows = [rng.normal(5e3, 3.0, 200) if keep else np.full(200, 0.5)
                   for keep in keeps]
        first = np.concatenate(windows + [rng.normal(0.0, 1.0, 77)])
        second = rng.normal(-1.0, 0.5, 17 * 200)
        runs = [(first, TerrainClass.SAND), (second, TerrainClass.BRICK)]
        raw = len(keeps)
        ds = oracles.dataset_of(runs)
        expected = oracles.one_stack_dataset(runs)
        assert np.count_nonzero(ds.labels() == int(TerrainClass.SAND)) == kept
        assert np.array_equal(ds.features(), expected.features())
        assert np.array_equal(ds.labels(), expected.labels())
        assert np.array_equal(ds.window_idx(), expected.window_idx())
        assert ds.dropped == expected.dropped == raw - kept

    def test_one_dropped_window_peaks_below_1_5_matrices(self):
        # the dropped window's row is skipped by the row indices; cutting
        # it from the matrix in a copy took 2.01 matrices
        rng = np.random.default_rng(12)
        runs = [(rng.normal(0.0, 1.0, 300 * 200), t) for t in TerrainClass]
        runs[3][0][1000:1200] = 0.5
        oracles.dataset_of(runs[:1])   # imports and caches
        tracemalloc.start()
        try:
            ds = oracles.dataset_of(runs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix, rows = ds.feature_rows()
        assert (len(ds), ds.dropped, len(matrix)) == (2099, 1, 2100)
        assert peak < 1.5 * matrix.nbytes
        expected = oracles.one_stack_dataset(runs)
        assert np.array_equal(matrix[rows], expected.features())
        assert np.array_equal(ds.labels(), expected.labels())
        assert np.array_equal(ds.window_idx(), expected.window_idx())

    def test_a_run_is_let_go_before_the_next_is_synthesized(self, monkeypatch):
        # the plain loop, as in a speed-sweep or synth worker
        monkeypatch.setattr(pool, "_in_worker", True)
        synthesize = terrain.synthesize_run
        taken = []

        def recording(*args):
            # every run synthesized before this one is no longer referenced
            assert all(ref() is None for ref in taken)
            run = synthesize(*args)
            taken.append(weakref.ref(run))
            return run

        monkeypatch.setattr(terrain, "synthesize_run", recording)
        cfg = replace(ExperimentConfig(), duration_s=10.0)
        ds = build_labeled_dataset(cfg, cfg.speed_m_s, resolve_profiles(cfg), SYNTH_SCOPE)
        assert (len(taken), len(ds)) == (7, 70)
        assert all(ref() is None for ref in taken)

    def test_default_dataset_peaks_below_1_6_matrices(self, monkeypatch):
        # the plain loop, as in a speed-sweep or synth worker. tracemalloc
        # does not see the mapped matrix; beside it sits one run's synthesis
        # and one block's transform at a time: 0.43 matrices (every run
        # synthesized before the first is transformed: 1.29)
        monkeypatch.setattr(pool, "_in_worker", True)
        cfg = ExperimentConfig()
        profiles = resolve_profiles(cfg)
        build_labeled_dataset(replace(cfg, duration_s=2.0), cfg.speed_m_s,
                              profiles, SYNTH_SCOPE)   # imports and caches
        tracemalloc.start()
        try:
            ds = build_labeled_dataset(cfg, cfg.speed_m_s, profiles, SYNTH_SCOPE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix, _ = ds.feature_rows()
        assert len(ds) == len(matrix) == 2100
        assert peak < 0.6 * matrix.nbytes


class TestSplit:
    def _balanced_dataset(self, per_class=300):
        # window_idx numbers the rows, so a row can be traced through a split
        rng = np.random.default_rng(6)
        n = per_class * len(TerrainClass)
        labels = np.repeat([int(t) for t in TerrainClass], per_class)
        return oracles.plain_dataset(rng.normal(0, 1, (n, 200)), labels, np.arange(n))

    def test_table_counts(self):
        ds = self._balanced_dataset(300)
        train, test = split(ds, 0.75, 42)
        assert len(train) == 1575
        assert len(test) == 525

    def test_same_seed_same_split(self):
        ds = self._balanced_dataset(20)
        a_train, a_test = split(ds, 0.75, 9)
        b_train, b_test = split(ds, 0.75, 9)
        for a, b in ((a_train, b_train), (a_test, b_test)):
            assert np.array_equal(a.window_idx(), b.window_idx())
            assert np.array_equal(a.features(), b.features())
            assert np.array_equal(a.labels(), b.labels())

    def test_disjoint_and_exhaustive(self):
        ds = self._balanced_dataset(10)
        train, test = split(ds, 0.75, 3)
        train_ids = set(train.window_idx().tolist())
        test_ids = set(test.window_idx().tolist())
        assert not train_ids & test_ids
        assert train_ids | test_ids == set(ds.window_idx().tolist())
        for part in (train, test):
            rows = part.window_idx()
            assert np.array_equal(part.features(), ds.features()[rows])
            assert np.array_equal(part.labels(), ds.labels()[rows])

    def test_stratified_within_one_vector(self):
        ds = self._balanced_dataset(31)
        train, _ = split(ds, 0.6, 5)
        per_class = np.bincount(train.labels(), minlength=8)[1:]
        assert np.all(np.abs(per_class - 0.6 * 31) <= 1.0)

    def test_subsets_share_the_matrix_and_allocate_little(self):
        ds = self._balanced_dataset(300)
        split(ds, 0.75, 1)   # imports and caches
        tracemalloc.start()
        try:
            train, test = split(ds, 0.75, 42)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * ds.features().nbytes
        for part in (train, test):
            matrix, rows = part.feature_rows()
            assert matrix is ds.feature_rows()[0]
            assert np.array_equal(part.features(), matrix[rows])
            assert np.array_equal(rows, part.window_idx())

    def test_a_subset_of_a_subset_indexes_the_first_matrix(self):
        ds = self._balanced_dataset(20)
        train, _ = split(ds, 0.75, 4)
        inner, _ = split(train, 0.5, 5)
        matrix, rows = inner.feature_rows()
        assert matrix is ds.feature_rows()[0]
        assert np.array_equal(rows, inner.window_idx())
        assert np.array_equal(inner.features(), ds.features()[inner.window_idx()])

    def test_small_class_is_an_error(self):
        ds = oracles.plain_dataset(np.random.default_rng(7).normal(0, 1, (1, 200)),
                                   [TerrainClass.FLAT], [0])
        with pytest.raises(PhysicsError):
            split(ds, 0.75, 0)

    def test_a_one_vector_class_is_named(self):
        # classes 1, 2 and 4 could be split; 3 is the first that cannot
        labels = [1, 2, 3, 4, 1, 2, 4, 4]
        ds = oracles.plain_dataset(
            np.random.default_rng(7).normal(0, 1, (len(labels), 200)), labels,
            np.arange(len(labels)))
        with pytest.raises(PhysicsError) as info:
            split(ds, 0.75, 0)
        assert str(info.value) == "class 3 has 1 vector(s); need at least 2 to split"


class TestDatasetCsv:
    def test_lossless_roundtrip(self, tmp_path):
        n = 2 * BLOCK_ROWS + 3   # two whole blocks and part of a third
        rng = np.random.default_rng(8)
        ds = oracles.plain_dataset(rng.normal(0, 1, (n, 200)), 1 + np.arange(n) % 7,
                                   np.arange(n))
        path = tmp_path / "ds.csv"
        write_dataset_csv(ds, path)
        again = oracles.read_dataset_csv(path)
        assert len(again) == len(ds)
        assert np.array_equal(again.features(), ds.features())
        assert np.array_equal(again.labels(), ds.labels())
        assert np.array_equal(again.window_idx(), ds.window_idx())

    def test_header(self, tmp_path):
        ds = oracles.plain_dataset(np.zeros((1, 200)) + 0.5, [TerrainClass.FLAT], [0])
        path = tmp_path / "ds.csv"
        write_dataset_csv(ds, path)
        header = path.read_text().split("\n", 1)[0].split(",")
        assert header[0] == "f000"
        assert header[199] == "f199"
        assert header[200:] == ["label", "window_idx"]

    def test_rows_are_repr_of_each_float(self, tmp_path):
        edge = [5e-324, 1e300, 2.0, 0.1, 1 / 3]
        values = np.resize(edge, 200)
        ds = oracles.plain_dataset(np.stack([values, -values]), [4, 7], [12, 3])
        path = tmp_path / "ds.csv"
        write_dataset_csv(ds, path)
        rows = path.read_text(encoding="utf-8").split("\n")[1:]
        assert rows == [",".join(repr(float(v)) for v in values) + ",4,12",
                        ",".join(repr(float(-v)) for v in values) + ",7,3", ""]
        assert rows[0].startswith("5e-324,1e+300,2.0,0.1,0.3333333333333333,")

    def test_write_streams_the_default_terrain_through_its_sha256(self, tmp_path, gain):
        # one default terrain, 300 rows and about 1.1 MB of text; holding
        # the whole text once took 3.0 times the file size
        cfg = ExperimentConfig()
        samples = synthesize_run(default_profiles()[TerrainClass.BRICK],
                                 cfg.speed_m_s, cfg.duration_s, cfg.sample_rate_hz, 5,
                                 gain)
        ds = oracles.dataset_of([(samples, TerrainClass.BRICK)])
        assert len(ds) == 300
        path = tmp_path / "brick.csv"
        tracemalloc.start()
        try:
            digest = write_dataset_csv(ds, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        data = path.read_bytes()
        assert digest == hashlib.sha256(data).hexdigest()
        assert peak < len(data) / 4

    def test_short_row_is_an_error(self, tmp_path):
        ds = oracles.plain_dataset(np.ones((2, 200)), [1, 2], [0, 1])
        path = tmp_path / "ds.csv"
        write_dataset_csv(ds, path)
        lines = path.read_text().split("\n")
        lines[2] = lines[2].split(",", 1)[1]
        path.write_text("\n".join(lines))
        with pytest.raises(PhysicsError, match="row 2"):
            oracles.read_dataset_csv(path)
