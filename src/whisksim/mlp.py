"""Fully connected ReLU/softmax classifier trained with mini-batch SGD.

Seven node layers by default (input 200, five hidden, output 7), weights
initialized He-style, cross-entropy loss, plain backprop. Everything is
seeded and single-threaded, so a training run's bytes repeat on one machine
with one BLAS kernel; across machines, the golden record's bound in
tests/test_golden.py is the contract. Importing whisksim sets the BLAS
thread variables to one thread unless they are already set (see
whisksim/__init__.py), which holds only if numpy was not imported first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PhysicsError, TrainingDivergedError
from .pipeline import BLOCK_ROWS, FEATURE_WIDTH, Dataset

NUM_CLASSES = 7
_PROB_FLOOR = 1e-12

DEFAULT_LAYER_SIZES = (FEATURE_WIDTH, 256, 128, 64, 32, 16, NUM_CLASSES)


@dataclass(frozen=True)
class MlpArchitecture:
    layer_sizes: tuple = DEFAULT_LAYER_SIZES


@dataclass
class MlpModel:
    weights: list
    biases: list
    arch: MlpArchitecture


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


def _forward(model: MlpModel, x: np.ndarray):
    """(probabilities, activations) for the rows of x. Each layer is formed
    in place in one new array; activations holds x and every hidden layer's
    post-activation values, for _backward."""
    activations = []
    h = x
    for i in range(len(model.weights) - 1):
        activations.append(h)
        h = h @ model.weights[i]
        h += model.biases[i]
        np.maximum(h, 0.0, out=h)
        if not np.isfinite(h).all():
            raise TrainingDivergedError(f"non-finite activations after layer {i}")
    activations.append(h)
    logits = h @ model.weights[-1]
    logits += model.biases[-1]
    if not np.isfinite(logits).all():
        raise TrainingDivergedError("non-finite logits at the output layer")
    return _softmax(logits), activations


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Class probabilities, one row per row of the batch x."""
    # huge but finite weights from training can overflow on new inputs;
    # _forward refuses the non-finite values, so no warning is needed
    with np.errstate(over="ignore", invalid="ignore"):
        probs, _ = _forward(model, x)
    return probs


def _batch_losses(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Cross entropy -log p_label of each row, the probability floored at 1e-12."""
    picked = probs[np.arange(labels.size), labels - 1]
    return -np.log(np.maximum(picked, _PROB_FLOOR))


def _backward(model: MlpModel, probs: np.ndarray, activations: list,
              labels: np.ndarray, w_grads: list, b_grads: list) -> None:
    """Write each layer's mean cross-entropy gradients into w_grads[i] and
    b_grads[i], arrays shaped like weights[i] and biases[i], overwriting
    `probs`. The model is only read."""
    batch = probs.shape[0]
    delta = probs
    delta[np.arange(batch), labels - 1] -= 1.0
    delta /= batch
    for i in range(len(model.weights) - 1, -1, -1):
        np.matmul(activations[i].T, delta, out=w_grads[i])
        np.sum(delta, axis=0, out=b_grads[i])
        if i > 0:
            delta = (delta @ model.weights[i].T) * (activations[i] > 0.0)


def gradients(model: MlpModel, x: np.ndarray, labels: np.ndarray):
    """Mean parameter gradients of the cross entropy over a batch, as
    (weight_grads, bias_grads) shaped like the model's parameters."""
    probs, activations = _forward(model, x)
    w_grads = [np.empty_like(w) for w in model.weights]
    b_grads = [np.empty_like(b) for b in model.biases]
    _backward(model, probs, activations, labels, w_grads, b_grads)
    return w_grads, b_grads


def train(model: MlpModel, train_set: Dataset, cfg: TrainConfig
          ) -> tuple[MlpModel, list[float]]:
    """Mini-batch SGD with a seeded per-epoch shuffle.

    Updates the model in place and returns it. The history holds one mean
    loss per epoch, evaluated on the parameters current within that epoch
    (summed in sample order, so it is independent of the shuffle when the
    learning rate is zero). Divergence aborts naming the epoch and batch.
    """
    matrix, rows = train_set.feature_rows()   # batches are gathered from matrix
    labels = train_set.labels()
    n = len(rows)
    if cfg.batch_size > n:
        raise PhysicsError(f"batch_size {cfg.batch_size} exceeds training size {n}")
    rng = np.random.default_rng(cfg.seed)
    history: list[float] = []
    # gradients are formed and scaled in place in arrays allocated once per
    # call: fresh layer-sized arrays at each step cost page faults whenever
    # glibc maps them afresh
    params = model.weights + model.biases
    grads = [np.empty_like(p) for p in params]
    w_grads, b_grads = grads[:len(model.weights)], grads[len(model.weights):]
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
                    probs, activations = _forward(model, xb)
                    sample_losses[idx] = _batch_losses(probs, yb)
                    _backward(model, probs, activations, yb, w_grads, b_grads)
                    for param, grad in zip(params, grads):
                        grad *= cfg.learning_rate
                        param -= grad
                epoch_loss = float(sample_losses.sum() / n)
                if not math.isfinite(epoch_loss):
                    raise TrainingDivergedError("non-finite mean loss over the epoch")
                history.append(epoch_loss)
            # no forward pass in the loop sees the last batch's update: its
            # parameters must be finite and carry that batch through
            if not all(np.isfinite(p).all() for p in params):
                raise TrainingDivergedError("non-finite parameters after the last update")
            _forward(model, xb)
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(f"epoch {epoch}, batch {batch}: {exc}") from exc
    return model, history


def evaluate(model: MlpModel, test_set: Dataset) -> np.ndarray:
    """Confusion counts of the argmax predictions (ties to the lower class
    id): true-class rows, predicted-class columns. The test rows are
    gathered and classified BLOCK_ROWS at a time, so beside the model only
    one block's rows and layers are held."""
    matrix, rows = test_set.feature_rows()
    labels = test_set.labels()
    counts = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=int)
    for start in range(0, len(rows), BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        probs = forward(model, matrix[rows[block]])
        predictions = probs.argmax(axis=1)  # argmax returns the first maximum
        np.add.at(counts, (labels[block] - 1, predictions), 1)
    return counts
