"""Fully connected ReLU/softmax classifier trained with mini-batch SGD.

Seven node layers by default (input 200, five hidden, output 7), weights
initialized He-style, cross-entropy loss, plain backprop. Everything is
seeded and single-threaded so training runs are exactly reproducible:
importing whisksim sets the BLAS thread variables to one thread unless they
are already set (see whisksim/__init__.py), which holds only if numpy was
not imported first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhysicsError, TrainingDivergedError
from .pipeline import Dataset, FEATURE_WIDTH

NUM_CLASSES = 7
_PROB_FLOOR = 1e-12

DEFAULT_LAYER_SIZES = (200, 256, 128, 64, 32, 16, 7)


@dataclass(frozen=True)
class MlpArchitecture:
    layer_sizes: tuple = DEFAULT_LAYER_SIZES

    def __post_init__(self):
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        sizes = self.layer_sizes
        if len(sizes) < 2:
            raise PhysicsError("need at least input and output layers")
        if any(s < 1 for s in sizes):
            raise PhysicsError("all layer sizes must be >= 1")
        if sizes[0] != FEATURE_WIDTH:
            raise PhysicsError(f"input layer must have {FEATURE_WIDTH} neurons")
        if sizes[-1] != NUM_CLASSES:
            raise PhysicsError(f"output layer must have {NUM_CLASSES} neurons")

    @property
    def n_weight_layers(self) -> int:
        return len(self.layer_sizes) - 1


@dataclass
class MlpModel:
    weights: list
    biases: list
    arch: MlpArchitecture

    def __post_init__(self):
        sizes = self.arch.layer_sizes
        if len(self.weights) != self.arch.n_weight_layers:
            raise PhysicsError("weight count does not match architecture")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[i], sizes[i + 1]) or b.shape != (sizes[i + 1],):
                raise PhysicsError(f"layer {i} parameter shapes do not chain")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise PhysicsError(f"layer {i} has non-finite parameters")

    def copy(self) -> "MlpModel":
        return MlpModel([w.copy() for w in self.weights],
                        [b.copy() for b in self.biases],
                        self.arch)


@dataclass(frozen=True)
class TrainConfig:
    # lr above ~3e-3 saturates the softmax on these feature magnitudes and
    # stalls two classes; 1e-3 converges cleanly in under 100 epochs.
    learning_rate: float = 0.001
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0.0:
            raise PhysicsError("learning_rate must be >= 0")
        if self.epochs < 1:
            raise PhysicsError("epochs must be >= 1")
        if self.batch_size < 1:
            raise PhysicsError("batch_size must be >= 1")


@dataclass
class ConfusionMatrix:
    """True-class rows, predicted-class columns; per_class_accuracy is NaN
    for a class with no test vectors."""

    counts: np.ndarray
    per_class_accuracy: np.ndarray
    overall_accuracy: float

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "ConfusionMatrix":
        counts = np.asarray(counts, dtype=int)
        if counts.shape != (NUM_CLASSES, NUM_CLASSES):
            raise PhysicsError("confusion matrix must be 7x7")
        row_sums = counts.sum(axis=1)
        per_class = np.divide(np.diag(counts), row_sums,
                              out=np.full(NUM_CLASSES, np.nan), where=row_sums > 0)
        total = counts.sum()
        overall = float(np.trace(counts) / total) if total else 0.0
        return cls(counts, per_class, overall)


def init(arch: MlpArchitecture, seed: int) -> MlpModel:
    """He-scaled random weights (variance 2 / fan_in), zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    sizes = arch.layer_sizes
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.normal(0.0, math.sqrt(2.0 / fan_in), (fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights, biases, arch)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


def _forward(model: MlpModel, x: np.ndarray, keep: bool = False):
    """(probabilities, activations) for the rows of x. Each layer is formed
    in place in one new array; with keep, activations holds x and every
    hidden layer's post-activation values, for _backward, else it is empty."""
    activations = []
    h = x
    for i in range(model.arch.n_weight_layers - 1):
        if keep:
            activations.append(h)
        h = h @ model.weights[i]
        h += model.biases[i]
        np.maximum(h, 0.0, out=h)
        if not np.isfinite(h).all():
            raise TrainingDivergedError(f"non-finite activations after layer {i}")
    if keep:
        activations.append(h)
    logits = h @ model.weights[-1]
    logits += model.biases[-1]
    if not np.isfinite(logits).all():
        raise TrainingDivergedError("non-finite logits at the output layer")
    return _softmax(logits), activations


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Class probabilities for one feature vector or a batch of them."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise PhysicsError("input contains non-finite values")
    single = x.ndim == 1
    # huge but finite weights from training can overflow on new inputs;
    # _forward refuses the non-finite values, so no warning is needed
    with np.errstate(over="ignore", invalid="ignore"):
        probs, _ = _forward(model, np.atleast_2d(x))
    return probs[0] if single else probs


def _batch_losses(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Cross entropy -log p_label of each row, the probability floored at 1e-12."""
    picked = probs[np.arange(labels.size), labels - 1]
    return -np.log(np.maximum(picked, _PROB_FLOOR))


def _backward(model: MlpModel, probs: np.ndarray, activations: list,
              labels: np.ndarray, w_grads: list):
    """Yield (i, w_grad, b_grad), the mean cross-entropy gradients, from the
    last layer back, overwriting `probs`. w_grad is written into w_grads[i],
    an array shaped like weights[i]; these may share memory, as layer i - 1's
    gradient is formed only after layer i is yielded. Layer i - 1's delta is
    formed before layer i is yielded, so the caller may update layer i in
    place at once."""
    batch = probs.shape[0]
    delta = probs
    delta[np.arange(batch), labels - 1] -= 1.0
    delta /= batch
    for i in range(model.arch.n_weight_layers - 1, -1, -1):
        w_grad = np.matmul(activations[i].T, delta, out=w_grads[i])
        b_grad = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (activations[i] > 0.0)
        yield i, w_grad, b_grad


def gradients(model: MlpModel, x: np.ndarray, labels: np.ndarray):
    """Mean parameter gradients of the cross entropy over a batch.

    Returns (weight_grads, bias_grads) with shapes mirroring the model.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    labels = np.atleast_1d(np.asarray(labels, dtype=int))
    if x.shape[0] == 0:
        raise PhysicsError("empty batch")
    if x.shape[0] != labels.size:
        raise PhysicsError("batch and label sizes differ")
    probs, activations = _forward(model, x, keep=True)
    w_grads = [np.empty_like(w) for w in model.weights]
    layers = list(_backward(model, probs, activations, labels, w_grads))[::-1]
    return w_grads, [b for _, _, b in layers]


def train(model: MlpModel, train_set: Dataset, cfg: TrainConfig
          ) -> tuple[MlpModel, list[float]]:
    """Mini-batch SGD with a seeded per-epoch shuffle.

    The input model is left untouched. The returned history holds one mean
    loss per epoch, evaluated on the parameters current within that epoch
    (summed in sample order, so it is independent of the shuffle when the
    learning rate is zero). Divergence aborts naming the epoch and batch.
    """
    model = model.copy()
    matrix, rows = train_set.feature_rows()   # batches are gathered from matrix
    labels = train_set.labels()
    n = len(rows)
    if cfg.batch_size > n:
        raise PhysicsError(f"batch_size {cfg.batch_size} exceeds training size {n}")
    rng = np.random.default_rng(cfg.seed)
    history: list[float] = []
    # every layer's weight gradient is formed and scaled in place in one
    # buffer: a fresh array the size of the largest layer at each step costs
    # page faults whenever glibc maps it afresh
    buffer = np.empty(max(w.size for w in model.weights))
    w_grads = [buffer[:w.size].reshape(w.shape) for w in model.weights]
    # overflow and NaN warnings are silenced: the finiteness checks below
    # refuse every non-finite value with a TrainingDivergedError
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for epoch in range(cfg.epochs):
                perm = rng.permutation(n)
                sample_losses = np.empty(n)
                for batch, start in enumerate(range(0, n, cfg.batch_size)):
                    idx = perm[start:start + cfg.batch_size]
                    xb, yb = matrix[rows[idx]], labels[idx]
                    probs, activations = _forward(model, xb, keep=True)
                    sample_losses[idx] = _batch_losses(probs, yb)
                    for i, w_grad, b_grad in _backward(model, probs, activations,
                                                       yb, w_grads):
                        w_grad *= cfg.learning_rate
                        model.weights[i] -= w_grad
                        b_grad *= cfg.learning_rate
                        model.biases[i] -= b_grad
                epoch_loss = float(sample_losses.sum() / n)
                if not math.isfinite(epoch_loss):
                    raise TrainingDivergedError("non-finite mean loss over the epoch")
                history.append(epoch_loss)
            # no forward pass in the loop sees the last batch's update: its
            # parameters must be finite and carry that batch through
            if not all(np.isfinite(p).all() for p in model.weights + model.biases):
                raise TrainingDivergedError("non-finite parameters after the last update")
            _forward(model, xb)
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(f"epoch {epoch}, batch {batch}: {exc}") from exc
    return model, history


def evaluate(model: MlpModel, test_set: Dataset) -> ConfusionMatrix:
    """Argmax predictions (ties to the lower class id) as a confusion matrix."""
    if len(test_set) == 0:
        raise PhysicsError("cannot evaluate an empty test set")
    probs = forward(model, test_set.features())
    predictions = probs.argmax(axis=1)  # argmax returns the first maximum
    counts = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=int)
    np.add.at(counts, (test_set.labels() - 1, predictions), 1)
    return ConfusionMatrix.from_counts(counts)


def gradient_check(model: MlpModel, x: np.ndarray, labels: np.ndarray,
                   samples_per_layer: int = 50, step: float = 1e-5,
                   seed: int = 0) -> float:
    """Max relative error between backprop and central finite differences.

    Probes `samples_per_layer` random weight/bias entries in every layer.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    labels = np.atleast_1d(np.asarray(labels, dtype=int))
    rng = np.random.default_rng(seed)
    w_grads, b_grads = gradients(model, x, labels)

    def mean_loss(m: MlpModel) -> float:
        probs, _ = _forward(m, x)
        return float(_batch_losses(probs, labels).mean())

    worst = 0.0
    probe = model.copy()
    for layer in range(model.arch.n_weight_layers):
        for params, grads in ((probe.weights, w_grads), (probe.biases, b_grads)):
            flat = params[layer].reshape(-1)
            grad_flat = grads[layer].reshape(-1)
            k = min(samples_per_layer, flat.size)
            for idx in rng.choice(flat.size, size=k, replace=False):
                original = flat[idx]
                flat[idx] = original + step
                up = mean_loss(probe)
                flat[idx] = original - step
                down = mean_loss(probe)
                flat[idx] = original
                numeric = (up - down) / (2.0 * step)
                denom = max(abs(numeric), abs(grad_flat[idx]), 1e-8)
                worst = max(worst, abs(numeric - grad_flat[idx]) / denom)
    return worst

