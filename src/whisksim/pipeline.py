"""Sample arrays to labeled frequency-domain feature vectors.

One array pass per run: cut non-overlapping FEATURE_WIDTH-sample windows
as rows, standardize each row to zero mean / unit standard deviation (flat
rows are dropped), take the full two-sided FFT magnitude of the stack (same
width as the window), attach the terrain label.
"""

from __future__ import annotations

import copy
import hashlib

import numpy as np

from .errors import PhysicsError
from .terrain import TerrainClass

FEATURE_WIDTH = 200
CSV_BLOCK_ROWS = 16   # dataset rows per block written and hashed


class Dataset:
    """Labeled feature rows.

    features() is (n, FEATURE_WIDTH), one magnitude spectrum per window;
    labels() holds terrain ids 1..7 and window_idx() each row's window index
    within its run. `dropped` counts degenerate windows skipped in the build.
    A subset from take() holds only its row indices into its parent's
    feature matrix: features() gathers them anew, feature_rows() gives both.
    """

    def __init__(self, features, labels, window_idx, dropped: int = 0):
        self._features = np.asarray(features, dtype=float)
        self._rows = None   # every row of _features, in order
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
        self.dropped = dropped

    def __len__(self) -> int:
        return len(self._labels)

    def take(self, rows: np.ndarray) -> "Dataset":
        """The rows at these indices, sharing this dataset's feature matrix."""
        part = copy.copy(self)
        part._rows = rows if self._rows is None else self._rows[rows]
        part._labels, part._window_idx = self._labels[rows], self._window_idx[rows]
        part.dropped = 0
        return part

    def feature_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(matrix, rows): features() is matrix[rows]."""
        return self._features, np.arange(len(self)) if self._rows is None else self._rows

    def features(self) -> np.ndarray:
        return self._features if self._rows is None else self._features[self._rows]

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


def build_dataset(runs, windows: int | None = None) -> Dataset:
    """Cut each run of samples into FEATURE_WIDTH-sample windows, then
    standardize, transform and label them, into one matrix of `windows` rows.

    `runs` may be a generator that synthesizes each run as it is taken: a
    run is let go before the next is taken. Its caller must give `windows`,
    the count of whole windows in all runs; for a list it is counted. Flat
    windows (standard deviation at most 1e-12) are skipped, counted in
    Dataset.dropped, and cut from the matrix in a copy. A window whose
    standard deviation is not finite (NaN samples, or samples so large that
    their squares overflow) is an error.
    """
    if windows is None:
        runs = list(runs)
        windows = sum(len(samples) // FEATURE_WIDTH for samples, _ in runs)
    features = np.empty((windows, FEATURE_WIDTH))
    labels, window_idx, total, row = [], [], 0, 0
    for samples, label in runs:
        count = len(samples) // FEATURE_WIDTH
        if count == 0:
            raise PhysicsError(f"run of {len(samples)} samples is shorter than "
                               f"one window ({FEATURE_WIDTH})")
        total += count
        if total > windows:
            raise PhysicsError(f"the runs hold more than the {windows} windows given")
        stack = samples[:count * FEATURE_WIDTH].reshape(count, FEATURE_WIDTH)
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            std = stack.std(axis=1)
        if not np.isfinite(std).all():
            raise PhysicsError(f"a window of the label {int(label)} run has a "
                               "non-finite standard deviation")
        keep = std > 1e-12
        if keep.any():  # fft_magnitude refuses an empty stack
            flat = stack[keep]  # a copy: standardizing in place leaves the run alone
            flat -= flat.mean(axis=1, keepdims=True)
            flat /= std[keep, None]
            features[row:row + len(flat)] = fft_magnitude(flat)
            row += len(flat)
            labels.append(np.full(len(flat), int(label)))
            window_idx.append(np.flatnonzero(keep))
        samples = stack = flat = None   # let the run go before the next is taken
    if not labels:
        raise PhysicsError("no runs supplied" if total == 0
                           else "all windows were degenerate")
    if row < windows:
        features = features[:row].copy()
    return Dataset(features, np.concatenate(labels), np.concatenate(window_idx),
                   dropped=total - row)


def split(dataset: Dataset, train_fraction: float, seed: int
          ) -> tuple[Dataset, Dataset]:
    """Seeded stratified split; per-class proportions held within one vector.
    Both subsets share the dataset's feature matrix (see Dataset.take)."""
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

    return (dataset.take(np.sort(np.concatenate(train_parts))),
            dataset.take(np.sort(np.concatenate(test_parts))))


def write_dataset_csv(dataset: Dataset, path) -> str:
    """CSV with columns f000..f199, label, window_idx; lossless floats.

    Rows are formatted, written and hashed CSV_BLOCK_ROWS at a time, so the
    file is never held in memory whole. Returns the SHA-256 hex digest of
    the bytes written.
    """
    features = dataset.features()
    labels, window_idx = dataset.labels().tolist(), dataset.window_idx().tolist()
    header = ",".join(f"f{i:03d}" for i in range(FEATURE_WIDTH)) + ",label,window_idx\n"
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def emit(text: str) -> None:
            data = text.encode("utf-8")
            fh.write(data)
            digest.update(data)

        emit(header)
        for start in range(0, len(labels), CSV_BLOCK_ROWS):
            # one row's floats at a time: a block's would outweigh its text
            emit("".join(",".join(map(repr, features[i].tolist()))
                         + f",{labels[i]},{window_idx[i]}\n"
                         for i in range(start, min(start + CSV_BLOCK_ROWS, len(labels)))))
    return digest.hexdigest()

