"""Time series to labeled frequency-domain feature vectors.

One array pass per run: cut non-overlapping one-second windows as rows,
standardize each row to zero mean / unit standard deviation (flat rows are
dropped), take the full two-sided FFT magnitude of the stack (same width as
the window, 200 bins at the default rate), attach the terrain label.
"""

from __future__ import annotations

import numpy as np

from .beam import TimeSeries
from .errors import PhysicsError
from .terrain import TerrainClass

FEATURE_WIDTH = 200


class Dataset:
    """Labeled feature rows plus the seed of the split that produced them.

    features() is (n, FEATURE_WIDTH), one magnitude spectrum per window;
    labels() holds terrain ids 1..7 and window_idx() each row's window index
    within its run. `dropped` counts degenerate windows skipped in the build.
    """

    def __init__(self, features, labels, window_idx, split_seed: int = 0,
                 dropped: int = 0):
        self._features = np.asarray(features, dtype=float)
        self._labels = np.asarray(labels, dtype=int)
        self._window_idx = np.asarray(window_idx, dtype=int)
        if (self._labels.ndim != 1 or self._window_idx.shape != self._labels.shape
                or self._features.shape != (len(self._labels), FEATURE_WIDTH)):
            raise PhysicsError(f"need rows of {FEATURE_WIDTH} feature values, "
                               "each with one label and one window index")
        if not np.isfinite(self._features).all():
            raise PhysicsError("feature rows contain non-finite values")
        if np.any((self._labels < 1) | (self._labels > len(TerrainClass))):
            raise PhysicsError(f"labels must be terrain ids 1..{len(TerrainClass)}")
        self.split_seed = split_seed
        self.dropped = dropped

    def __len__(self) -> int:
        return len(self._labels)

    def features(self) -> np.ndarray:
        return self._features

    def labels(self) -> np.ndarray:
        return self._labels

    def window_idx(self) -> np.ndarray:
        return self._window_idx


def fft_magnitude(values: np.ndarray) -> np.ndarray:
    """Full two-sided magnitude spectrum of a real window, or of each row of
    a stack of windows (the transform runs along the last axis)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise PhysicsError("cannot transform an empty window")
    return np.abs(np.fft.fft(values))


def dominant_frequency(magnitudes: np.ndarray, bin_width_hz: float) -> float:
    """Frequency of the largest non-DC bin of one window's two-sided
    spectrum (bin n-k mirrors bin k); ties go to the lower frequency."""
    mags = np.asarray(magnitudes, dtype=float)
    n = mags.size
    if n < 3:
        raise PhysicsError("need at least 3 bins to pick a dominant frequency")
    if bin_width_hz <= 0.0:
        raise PhysicsError("bin_width_hz must be positive")
    k = np.arange(n)
    freqs = np.minimum(k, n - k) * bin_width_hz
    best = mags[1:].max()
    return float(freqs[1:][mags[1:] == best].min())


def build_dataset(runs: list[tuple[TimeSeries, TerrainClass]],
                  window_seconds: float = 1.0) -> Dataset:
    """Segment, standardize, transform and label every run.

    Flat windows (standard deviation at most 1e-12) are skipped and counted
    in Dataset.dropped. A window whose standard deviation is not finite (NaN
    samples, or samples so large that their squares overflow) is an error.
    """
    if not runs:
        raise PhysicsError("no runs supplied")
    stacks, keeps = [], []
    for series, label in runs:
        n = int(round(window_seconds * series.sample_rate_hz))
        if n != FEATURE_WIDTH:
            raise PhysicsError(f"windows of {window_seconds} s at {series.sample_rate_hz}"
                               f" Hz hold {n} samples; features need {FEATURE_WIDTH}")
        count = len(series) // n
        if count == 0:
            raise PhysicsError(
                f"series of {len(series)} samples is shorter than one window ({n})")
        windows = series.samples[:count * n].reshape(count, n)
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            std = windows.std(axis=1)
        if not np.isfinite(std).all():
            raise PhysicsError(f"a window of the label {int(label)} run has a "
                               "non-finite standard deviation")
        stacks.append((windows, std))
        keeps.append(std > 1e-12)
    kept = sum(int(keep.sum()) for keep in keeps)
    if kept == 0:
        raise PhysicsError("all windows were degenerate")
    features = np.empty((kept, FEATURE_WIDTH))
    row = 0
    for (windows, std), keep in zip(stacks, keeps):
        if not keep.any():  # fft_magnitude refuses an empty stack
            continue
        flat = windows[keep]  # a copy: standardizing in place leaves the run alone
        flat -= flat.mean(axis=1, keepdims=True)
        flat /= std[keep, None]
        features[row:row + len(flat)] = fft_magnitude(flat)
        row += len(flat)
    labels = np.repeat([int(label) for _, label in runs], [keep.sum() for keep in keeps])
    window_idx = np.concatenate([np.flatnonzero(keep) for keep in keeps])
    return Dataset(features, labels, window_idx,
                   dropped=sum(keep.size for keep in keeps) - kept)


def split(dataset: Dataset, train_fraction: float, seed: int
          ) -> tuple[Dataset, Dataset]:
    """Seeded stratified split; per-class proportions held within one vector."""
    if not 0.0 < train_fraction < 1.0:
        raise PhysicsError("train_fraction must lie in (0, 1)")
    if len(dataset) == 0:
        raise PhysicsError("cannot split an empty dataset")
    rng = np.random.default_rng(seed)
    labels = dataset.labels()
    train_parts, test_parts = [], []
    for label in np.unique(labels):
        idx = np.flatnonzero(labels == label)
        if idx.size < 2:
            raise PhysicsError(
                f"class {label} has {idx.size} vector(s); need at least 2 to split")
        perm = rng.permutation(idx.size)
        n_train = int(round(idx.size * train_fraction))
        n_train = min(max(n_train, 1), idx.size - 1)
        train_parts.append(idx[perm[:n_train]])
        test_parts.append(idx[perm[n_train:]])

    def subset(parts) -> Dataset:
        rows = np.sort(np.concatenate(parts))
        return Dataset(dataset.features()[rows], labels[rows],
                       dataset.window_idx()[rows], split_seed=seed)

    return subset(train_parts), subset(test_parts)


def write_dataset_csv(dataset: Dataset, path) -> None:
    """CSV with columns f000..f199, label, window_idx; lossless floats."""
    header = ",".join(f"f{i:03d}" for i in range(FEATURE_WIDTH))
    rows = [",".join(map(repr, values)) + f",{label},{idx}\n"
            for values, label, idx in zip(dataset.features().tolist(),
                                          dataset.labels().tolist(),
                                          dataset.window_idx().tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join([header, ",label,window_idx\n", *rows]))


def read_dataset_csv(path) -> Dataset:
    rows, labels, window_idx = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        expected = [f"f{i:03d}" for i in range(FEATURE_WIDTH)] + ["label", "window_idx"]
        if header != expected:
            raise PhysicsError(f"unexpected dataset header in {path}")
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != len(expected):
                raise PhysicsError(f"row {len(rows) + 1} of {path} has "
                                   f"{len(parts)} fields, not {len(expected)}")
            rows.append([float(p) for p in parts[:FEATURE_WIDTH]])
            labels.append(int(parts[FEATURE_WIDTH]))
            window_idx.append(int(parts[FEATURE_WIDTH + 1]))
    if not rows:
        raise PhysicsError(f"dataset file {path} contains no vectors")
    return Dataset(rows, labels, window_idx)
