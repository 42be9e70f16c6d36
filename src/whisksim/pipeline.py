"""Sample arrays to labeled frequency-domain feature vectors.

Per run: cut non-overlapping FEATURE_WIDTH-sample windows as rows, take
their standard deviations in one array pass (flat rows are dropped), then
standardize CSV_BLOCK_ROWS kept rows at a time to zero mean / unit standard
deviation and take their full two-sided FFT magnitudes; attach the label.
"""

from __future__ import annotations

import copy
import hashlib
import os

import numpy as np

from .errors import ConfigError, PhysicsError

FEATURE_WIDTH = 200
CSV_BLOCK_ROWS = 16   # dataset rows per block transformed, written and hashed


class Dataset:
    """Labeled feature rows.

    features() is (n, FEATURE_WIDTH), one magnitude spectrum per window;
    labels() holds terrain ids 1..7 and window_idx() each row's window index
    within its run. `dropped` counts degenerate windows skipped in the build.
    A dataset holds its rows' indices into a feature matrix, every row in
    order for a built one; a subset from take() shares its parent's matrix.
    features() gathers the rows anew, feature_rows() gives both.
    """

    def __init__(self, features, labels, window_idx, dropped: int = 0):
        self._features = np.asarray(features, dtype=float)
        self._labels = np.asarray(labels, dtype=int)
        self._rows = np.arange(len(self._labels))
        self._window_idx = np.asarray(window_idx, dtype=int)
        self.dropped = dropped

    def __len__(self) -> int:
        return len(self._labels)

    def take(self, rows: np.ndarray) -> "Dataset":
        """The rows at these indices, sharing this dataset's feature matrix."""
        part = copy.copy(self)
        part._rows = self._rows[rows]
        part._labels, part._window_idx = self._labels[rows], self._window_idx[rows]
        part.dropped = 0
        return part

    def feature_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(matrix, rows): features() is matrix[rows]."""
        return self._features, self._rows

    def features(self) -> np.ndarray:
        return self._features[self._rows]

    def labels(self) -> np.ndarray:
        return self._labels

    def window_idx(self) -> np.ndarray:
        return self._window_idx


def fft_magnitude(values: np.ndarray) -> np.ndarray:
    """Full two-sided magnitude spectrum of a real window, or of each row of
    a stack of windows (the transform runs along the last axis)."""
    return np.abs(np.fft.fft(values))


def dominant_frequency(magnitudes: np.ndarray, bin_width_hz: float) -> float:
    """Frequency of the largest non-DC bin of one window's two-sided
    spectrum (bin n-k mirrors bin k); ties go to the lower frequency."""
    mags = np.asarray(magnitudes, dtype=float)
    n = mags.size
    k = np.arange(n)
    freqs = np.minimum(k, n - k) * bin_width_hz
    best = mags[1:].max()
    return float(freqs[1:][mags[1:] == best].min())


def build_dataset(runs, windows: int) -> Dataset:
    """Cut each run of samples into FEATURE_WIDTH-sample windows, then
    standardize, transform and label them, into one matrix of `windows` rows.

    `runs` may be a generator that synthesizes each run as it is taken: a
    run is let go before the next is taken. `windows` is the count of whole
    windows in all runs. Kept windows are standardized and transformed
    CSV_BLOCK_ROWS at a time straight into the matrix, so no copy or
    spectrum of a whole run is held. Flat windows (standard deviation at
    most 1e-12) are skipped, counted in Dataset.dropped, and cut from the
    matrix in a copy. A window whose standard deviation is not finite (NaN
    samples, or samples so large that their squares overflow) is an error.
    """
    features = np.empty((windows, FEATURE_WIDTH))
    labels, window_idx, total, row = [], [], 0, 0
    for samples, label in runs:
        count = len(samples) // FEATURE_WIDTH
        total += count
        stack = samples[:count * FEATURE_WIDTH].reshape(count, FEATURE_WIDTH)
        with np.errstate(over="ignore", invalid="ignore"):  # refused just below
            std = stack.std(axis=1)
        if not np.isfinite(std).all():
            raise PhysicsError(f"a window of the label {int(label)} run has a "
                               "non-finite standard deviation")
        kept = np.flatnonzero(std > 1e-12)
        for start in range(0, len(kept), CSV_BLOCK_ROWS):
            block = kept[start:start + CSV_BLOCK_ROWS]
            flat = stack[block]  # a copy: standardizing in place leaves the run alone
            flat -= flat.mean(axis=1, keepdims=True)
            flat /= std[block, None]
            features[row:row + len(block)] = fft_magnitude(flat)
            row += len(block)
        labels.append(np.full(len(kept), int(label)))
        window_idx.append(kept)
        samples = stack = flat = None   # let the run go before the next is taken
    if row == 0:
        raise PhysicsError(f"all {total} windows were degenerate")
    if row < windows:
        features = features[:row].copy()
    return Dataset(features, np.concatenate(labels), np.concatenate(window_idx),
                   dropped=total - row)


def train_count(size: int, train_fraction: float) -> int:
    """Training vectors that split takes of a class of `size` vectors: the
    rounded fraction, held in [1, size - 1]."""
    return min(max(int(round(size * train_fraction)), 1), size - 1)


def split(dataset: Dataset, train_fraction: float, seed: int
          ) -> tuple[Dataset, Dataset]:
    """Seeded stratified split; per-class proportions held within one vector.
    Both subsets share the dataset's feature matrix (see Dataset.take)."""
    rng = np.random.default_rng(seed)
    labels = dataset.labels()
    train_parts, test_parts = [], []
    for label in np.unique(labels):
        idx = np.flatnonzero(labels == label)
        if idx.size < 2:
            raise PhysicsError(
                f"class {label} has {idx.size} vector(s); need at least 2 to split")
        perm = rng.permutation(idx.size)
        n_train = train_count(idx.size, train_fraction)
        train_parts.append(idx[perm[:n_train]])
        test_parts.append(idx[perm[n_train:]])

    return (dataset.take(np.sort(np.concatenate(train_parts))),
            dataset.take(np.sort(np.concatenate(test_parts))))


def write_output(path, chunks) -> str:
    """Write the text chunks, in order, to a temp file beside path, then
    os.replace it into place, so a failed or interrupted write leaves the
    old file or none, never a truncated one. Returns the SHA-256 hex digest
    of the bytes written. A path that cannot be written is a ConfigError."""
    tmp = f"{path}.tmp"
    digest = hashlib.sha256()
    try:
        with open(tmp, "wb") as fh:
            for text in chunks:
                data = text.encode("utf-8")
                fh.write(data)
                digest.update(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    finally:
        remove_tmp(path)
    return digest.hexdigest()


def remove_tmp(path) -> None:
    """Remove path's temp file if one is left; a directory is not ours."""
    tmp = f"{path}.tmp"
    if os.path.lexists(tmp) and not os.path.isdir(tmp):
        os.remove(tmp)


def write_dataset_csv(dataset: Dataset, path) -> str:
    """CSV with columns f000..f199, label, window_idx; lossless floats.

    Rows are formatted, written and hashed CSV_BLOCK_ROWS at a time, so the
    file is never held in memory whole. Returns the SHA-256 hex digest of
    the bytes written.
    """
    matrix, rows = dataset.feature_rows()   # rows are formatted one at a time
    labels, window_idx = dataset.labels().tolist(), dataset.window_idx().tolist()

    def blocks():
        yield ",".join(f"f{i:03d}" for i in range(FEATURE_WIDTH)) + ",label,window_idx\n"
        for start in range(0, len(labels), CSV_BLOCK_ROWS):
            block = range(start, min(start + CSV_BLOCK_ROWS, len(labels)))
            # one row's floats at a time: a block's would outweigh its text
            yield "".join(",".join(map(repr, matrix[rows[i]].tolist()))
                          + f",{labels[i]},{window_idx[i]}\n" for i in block)

    return write_output(path, blocks())
