"""Sample arrays to labeled frequency-domain feature vectors.

transform_run takes one run: it cuts non-overlapping FEATURE_WIDTH-sample
windows as rows, takes their standard deviations in one array pass (flat
rows are skipped), then standardizes BLOCK_ROWS kept rows at a time to zero
mean / unit standard deviation and writes their full two-sided FFT
magnitudes into the run's slot of the caller's feature matrix.
build_dataset labels the kept rows of the runs' slots. The CSV writer and
mlp.evaluate take a dataset's rows BLOCK_ROWS at a time too.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from .errors import ConfigError, PhysicsError

FEATURE_WIDTH = 200
BLOCK_ROWS = 16   # dataset rows per block transformed, written, hashed or evaluated


class Dataset:
    """Labeled feature rows.

    features() is (n, FEATURE_WIDTH), one magnitude spectrum per window;
    labels() holds terrain ids 1..7 and window_idx() each row's window index
    within its run. `dropped` counts degenerate windows skipped in the build.
    The constructor holds its arrays as given: `rows` indexes `matrix`, for
    a built dataset the rows its runs kept, which skip the slots of dropped
    windows (see build_dataset); a subset from take() shares its parent's
    matrix.
    features() gathers the rows anew, feature_rows() gives both.
    """

    def __init__(self, matrix: np.ndarray, rows: np.ndarray, labels: np.ndarray,
                 window_idx: np.ndarray, dropped: int = 0):
        self._matrix = matrix
        self._rows = rows
        self._labels = labels
        self._window_idx = window_idx
        self.dropped = dropped

    def __len__(self) -> int:
        return len(self._labels)

    def take(self, rows: np.ndarray) -> "Dataset":
        """The rows at these indices, sharing this dataset's feature matrix."""
        return Dataset(self._matrix, self._rows[rows], self._labels[rows],
                       self._window_idx[rows])

    def feature_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(matrix, rows): features() is matrix[rows]."""
        return self._matrix, self._rows

    def features(self) -> np.ndarray:
        return self._matrix[self._rows]

    def labels(self) -> np.ndarray:
        return self._labels

    def window_idx(self) -> np.ndarray:
        return self._window_idx


def fft_magnitude(values: np.ndarray) -> np.ndarray:
    """Full two-sided magnitude spectrum of a real window, or of each row of
    a stack of windows (the transform runs along the last axis)."""
    return np.abs(np.fft.fft(values))


def dominant_frequency(magnitudes: np.ndarray, bin_width_hz: float) -> float | None:
    """Frequency of the largest non-DC bin of one window's two-sided
    spectrum (bin n-k mirrors bin k); ties go to the lower frequency. None
    when no non-DC bin holds energy (an all-zero window), which has no
    dominant frequency."""
    mags = np.asarray(magnitudes, dtype=float)
    n = mags.size
    k = np.arange(n)
    freqs = np.minimum(k, n - k) * bin_width_hz
    best = mags[1:].max()
    if best == 0.0:
        return None
    return float(freqs[1:][mags[1:] == best].min())


def transform_run(samples: np.ndarray, label, slot: np.ndarray) -> tuple:
    """Cut one run of samples into FEATURE_WIDTH-sample windows, then
    standardize and transform its kept windows BLOCK_ROWS (16) at a time
    into the first rows of slot, so no copy or spectrum of the whole run is
    held; returns the run's part for build_dataset: (label, windows, kept
    window indices). Flat windows (standard deviation at most 1e-12) are skipped.
    A window whose standard deviation is not finite (NaN samples, or
    samples so large that their squares overflow) is an error."""
    count = len(samples) // FEATURE_WIDTH
    stack = samples[:count * FEATURE_WIDTH].reshape(count, FEATURE_WIDTH)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        std = stack.std(axis=1)
    if not np.isfinite(std).all():
        raise PhysicsError(f"a window of the label {int(label)} run has a "
                           "non-finite standard deviation")
    kept = np.flatnonzero(std > 1e-12)
    for start in range(0, len(kept), BLOCK_ROWS):
        block = kept[start:start + BLOCK_ROWS]
        flat = stack[block]  # a copy: standardizing in place leaves the run alone
        flat -= flat.mean(axis=1, keepdims=True)
        flat /= std[block, None]
        slot[start:start + len(block)] = fft_magnitude(flat)
    return label, count, kept


def build_dataset(matrix: np.ndarray, parts: list) -> Dataset:
    """The dataset of runs transformed into consecutive slots of matrix, a
    slot of one row per whole window for each run's part (see
    transform_run). The rows of dropped windows are skipped by the row
    indices, not cut from the matrix in a copy, so the matrix is not
    touched here. Every window flat is an error."""
    windows = [count for _, count, _ in parts]
    kept = [rows for _, _, rows in parts]
    if not any(len(rows) for rows in kept):
        raise PhysicsError(f"all {sum(windows)} windows were degenerate")
    starts = np.cumsum([0] + windows)
    return Dataset(matrix,
                   np.concatenate([start + np.arange(len(rows))
                                   for start, rows in zip(starts, kept)]),
                   np.concatenate([np.full(len(rows), int(label))
                                   for label, _, rows in parts]),
                   np.concatenate(kept), sum(windows) - sum(map(len, kept)))


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
    # the ascending labels present, as np.unique gives them, without the
    # numpy.ma import that np.unique's first call makes
    for label in np.flatnonzero(np.bincount(labels)):
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

    Rows are formatted, written and hashed BLOCK_ROWS at a time, so the
    file is never held in memory whole. Returns the SHA-256 hex digest of
    the bytes written.
    """
    matrix, rows = dataset.feature_rows()   # rows are formatted one at a time
    labels, window_idx = dataset.labels().tolist(), dataset.window_idx().tolist()

    def blocks():
        yield ",".join(f"f{i:03d}" for i in range(FEATURE_WIDTH)) + ",label,window_idx\n"
        for start in range(0, len(labels), BLOCK_ROWS):
            block = range(start, min(start + BLOCK_ROWS, len(labels)))
            # one row's floats at a time: a block's would outweigh its text
            yield "".join(",".join(map(repr, matrix[rows[i]].tolist()))
                          + f",{labels[i]},{window_idx[i]}\n" for i in block)

    return write_output(path, blocks())
