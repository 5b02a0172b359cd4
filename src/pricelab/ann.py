"""Fully connected feed-forward network trained by backpropagation.

Default topology is 6-8-1: six scaled inputs, one logistic-sigmoid hidden
layer of eight units, one linear output.  Training is full-batch gradient
descent on the mean squared error of min-max scaled targets, with early
stopping on an internal validation slice.  Everything is plain numpy; the
forward pass, the gradients and the finite-difference checker are the point
of the module, not wrappers around a framework.

A descent run allocates its arrays once, in a ``_Workspace``: all weights
live in one flat vector and all gradients in another, with per-layer views
into both, so an update is ``grad *= lr; theta -= grad``.  Every matrix
product and elementwise step of an epoch writes into a buffer of that
workspace, and epochs allocate nothing.  ``train``'s validation loss,
``predict_ann`` and ``gradient_check`` run the same ``_forward`` (prediction
holds one layer's buffers at a time), and ``gradient_check`` the same
``_gradients``.  Each step is the floating-point operation of the textbook
array code (``a @ W.T + b``, ``delta.T @ a``, ``delta.sum(axis=0)``, the
stable sigmoid), so results are bit for bit those of that code.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .dataset import (
    DEFAULT_ENCODING,
    Dataset,
    EncodingConfig,
    N_FEATURES,
    encode_with_response,
    feature_matrix,
)
from .errors import DivergenceError, NumericError, ValidationError

_DIVERGENCE_FACTOR = 10.0
_DIVERGENCE_PATIENCE = 10
# Largest hidden layer: a bound on the weight and activation arrays, checked
# before any of them is allocated.
MAX_HIDDEN = 1024
# Most descent epochs per run: a bound on the run time (and the loss
# histories), checked before training starts.
MAX_EPOCHS = 1_000_000
# Read-only 1.0 for the descent's elementwise calls: numpy takes a 0-d array
# operand in about a third of the time it takes a Python float.
_ONE = np.ones(())
_ONE.flags.writeable = False


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function ``1 / (1 + exp(-z))``, as a new array."""
    out = np.array(z, dtype=float)
    _sigmoid_into(out, np.empty_like(out))
    return out


def _sigmoid_into(z: np.ndarray, scratch: np.ndarray) -> None:
    """Overwrite ``z`` with ``sigmoid(z)``, using ``scratch`` of its shape.

    With ``e = exp(-|z|)``, which never overflows, it is ``1 / (1 + e)`` for
    z >= 0 and ``e / (1 + e)`` below (NaN stays NaN).  Each branch is the
    textbook stable form, so the bits equal a two-branch masked evaluation.
    The numerator is ``max(e, sign(z))``: 0 <= e <= 1, and e = 1 at z = 0,
    so it is 1 where z >= 0 and e elsewhere, with no mask.
    """
    np.sign(z, scratch)
    np.abs(z, z)
    np.negative(z, z)
    np.exp(z, z)
    np.maximum(z, scratch, out=scratch)
    np.add(z, _ONE, z)
    np.divide(scratch, z, z)


@dataclass(frozen=True)
class NetworkTopology:
    """Hidden layer sizes; the network always maps the six features to one output."""

    hidden: tuple[int, ...] = (8,)

    def __post_init__(self) -> None:
        if not self.hidden or any(not 1 <= h <= MAX_HIDDEN for h in self.hidden):
            raise ValidationError(
                f"hidden layer sizes must all lie in [1, {MAX_HIDDEN}], got {self.hidden}"
            )

    def layer_sizes(self) -> tuple[int, ...]:
        return (N_FEATURES, *self.hidden, 1)


@dataclass(frozen=True)
class TargetScaler:
    """Affine map of the response onto [0, 1]; degenerate ranges get span 1."""

    lo: float
    hi: float

    @property
    def span(self) -> float:
        return self.hi - self.lo if self.hi > self.lo else 1.0

    def scale(self, y):
        return (np.asarray(y, dtype=float) - self.lo) / self.span

    def inverse(self, s):
        return self.lo + np.asarray(s, dtype=float) * self.span

    @staticmethod
    def fit(y: np.ndarray) -> "TargetScaler":
        return TargetScaler(lo=float(np.min(y)), hi=float(np.max(y)))


@dataclass(frozen=True)
class Weights:
    """One (matrix, bias) pair per layer, ordered input to output."""

    matrices: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def copy(self) -> "Weights":
        return Weights(
            matrices=tuple(m.copy() for m in self.matrices),
            biases=tuple(b.copy() for b in self.biases),
        )


@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float = 0.05
    max_epochs: int = 2000
    seed: int = 0
    validation_fraction: float = 0.2
    early_stop_patience: int = 100

    def __post_init__(self) -> None:
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValidationError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 1 <= self.max_epochs <= MAX_EPOCHS:
            raise ValidationError(
                f"max_epochs must lie in [1, {MAX_EPOCHS}], got {self.max_epochs}"
            )
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if not (0.0 < self.validation_fraction <= 0.5):
            raise ValidationError(
                f"validation_fraction must lie in (0, 0.5], got {self.validation_fraction}"
            )
        if self.early_stop_patience < 1:
            raise ValidationError("early_stop_patience must be >= 1")


@dataclass(frozen=True)
class AnnModel:
    topology: NetworkTopology
    weights: Weights
    scaler: TargetScaler
    train_loss: tuple[float, ...]
    val_loss: tuple[float, ...]
    stopped_epoch: int
    encoding: EncodingConfig = field(default_factory=lambda: DEFAULT_ENCODING)
    family = "ann"  # class constant, not a field


def init_weights(topology: NetworkTopology, seed: int) -> Weights:
    """Uniform init on [-r, r] with r = sqrt(6 / (fan_in + fan_out)); zero biases."""
    rng = np.random.default_rng(seed)
    sizes = topology.layer_sizes()
    matrices = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        r = math.sqrt(6.0 / (fan_in + fan_out))
        matrices.append(rng.uniform(-r, r, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Weights(matrices=tuple(matrices), biases=tuple(biases))


def _flat_views(flat: np.ndarray, sizes: Sequence[int]) -> Weights:
    """Weights whose arrays are views into ``flat``: every matrix, then every bias."""
    shapes = [(fan_out, fan_in) for fan_in, fan_out in zip(sizes[:-1], sizes[1:])]
    ends = np.cumsum([r * c for r, c in shapes] + [r for r, _ in shapes])
    pieces = np.split(flat, ends[:-1])
    return Weights(
        matrices=tuple(p.reshape(s) for p, s in zip(pieces, shapes)),
        biases=tuple(pieces[len(shapes):]),
    )


def _layer_buffers(n: int, hidden: Sequence[int]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per hidden layer: its (n, h) activation and an (n, h) scratch array."""
    for h in hidden:
        yield np.empty((n, h)), np.empty((n, h))


def _forward(
    weights: Weights,
    X: np.ndarray,
    layers: Iterable[tuple[np.ndarray, np.ndarray]],
    out: np.ndarray,
) -> np.ndarray:
    """Scaled outputs at the rows of X, written into ``out`` (n,).

    ``layers`` gives each hidden layer's buffers (``_layer_buffers``), and
    the activations are left in them for the backward pass.  Nothing else
    is allocated; drawn lazily, ``layers`` holds one layer at a time.
    """
    a = X
    for w, b, (z, scratch) in zip(weights.matrices, weights.biases, layers):
        np.dot(a, w.T, z)
        # b tiled into every row: a broadcast add would allocate a buffer.
        scratch[...] = b
        np.add(z, scratch, z)
        _sigmoid_into(z, scratch)
        a = z
    np.dot(a, weights.matrices[-1][0], out)
    np.add(out, weights.biases[-1].reshape(()), out)
    return out


class _Workspace:
    """Every array one descent run writes, allocated once per run.

    ``theta`` holds all weights and ``grad`` all gradients, flat and in the
    same order, so an update is two in-place calls.  ``weights`` and
    ``grads`` are per-layer views into them; ``weights`` is read-only.
    """

    def __init__(self, weights: Weights, X: np.ndarray, targets: np.ndarray):
        n = X.shape[0]
        sizes = (X.shape[1],) + tuple(m.shape[0] for m in weights.matrices)
        self.theta = np.concatenate(
            [m.ravel() for m in weights.matrices] + [b.ravel() for b in weights.biases]
        )
        self.grad = np.empty_like(self.theta)
        frozen = self.theta.view()
        frozen.flags.writeable = False
        self.weights = _flat_views(frozen, sizes)
        self.grads = _flat_views(self.grad, sizes)
        self.X, self.targets = X, targets
        self.layers = list(_layer_buffers(n, sizes[1:-1]))
        self.deltas = [np.empty_like(z) for z, _ in self.layers]
        self.out = np.empty(n)
        self.loss_scale = np.array(2.0 / n)


def _gradients(work: _Workspace) -> float:
    """One forward and backward pass: the full-batch MSE at ``work.theta``,
    with its gradient written into ``work.grad``."""
    weights, grads, layers, deltas = work.weights, work.grads, work.layers, work.deltas
    r = _forward(weights, work.X, layers, work.out)
    np.subtract(r, work.targets, r)
    loss = float(r.dot(r)) / r.shape[0]
    np.multiply(r, work.loss_scale, r)  # d loss / d output = (2 / n) residual
    column = r[:, None]
    np.dot(r, layers[-1][0], grads.matrices[-1][0])
    np.add.reduce(column, 0, None, grads.biases[-1])
    # One output unit: the upstream gradient of the top hidden layer is the
    # outer product of r and the output row, which np.dot forms without the
    # buffers numpy would allocate for a broadcast product.
    np.dot(column, weights.matrices[-1], deltas[-1])
    for layer in range(len(layers) - 1, -1, -1):
        a, one_minus_a = layers[layer]
        delta = deltas[layer]
        if layer < len(layers) - 1:
            np.dot(deltas[layer + 1], weights.matrices[layer + 1], delta)
        np.multiply(delta, a, delta)
        np.subtract(_ONE, a, one_minus_a)
        np.multiply(delta, one_minus_a, delta)  # sigmoid'(z) = a (1 - a)
        below = layers[layer - 1][0] if layer else work.X
        np.dot(delta.T, below, grads.matrices[layer])
        # A row-by-row sum, as delta.sum(axis=0) on this (n, h) C array does;
        # a pairwise or BLAS sum would change the last bits.
        np.add.reduce(delta, 0, None, grads.biases[layer])
    return loss


def _epochs(
    weights: Weights, X: np.ndarray, targets: np.ndarray, learning_rate: float
) -> Iterator[tuple[int, float, Weights]]:
    """Full-batch gradient descent, one ``(epoch, loss, weights)`` per epoch.

    Each epoch runs one forward and backward pass: it scores the updated
    weights, and that pass's gradient drives the next epoch's update (the
    first update uses the gradient of the initial pass, which also gives the
    initial loss).  Divergence (loss above ten times the initial loss for ten
    straight epochs) and NaN losses raise.  The descent never ends by
    itself: ``train`` stops it early or at ``max_epochs``, ``train_trajectory``
    at its last checkpoint.

    The run allocates one ``_Workspace`` and nothing per epoch.  The yielded
    weights are the same read-only views every epoch, overwritten by the
    next update: a caller that keeps an epoch's weights copies them.
    """
    work = _Workspace(weights, X, targets)
    theta, grad, rate = work.theta, work.grad, np.array(learning_rate)
    initial_loss = _gradients(work)
    high_streak = 0
    for epoch in itertools.count(1):
        np.multiply(grad, rate, grad)
        np.subtract(theta, grad, theta)
        loss = _gradients(work)
        if math.isnan(loss):
            raise NumericError(f"training loss became NaN at epoch {epoch}")
        if loss > _DIVERGENCE_FACTOR * max(initial_loss, 1e-300):
            high_streak += 1
            if high_streak >= _DIVERGENCE_PATIENCE:
                raise DivergenceError(
                    f"training diverged at epoch {epoch}: loss {loss:.3e} stayed above "
                    f"{_DIVERGENCE_FACTOR:.0f}x the initial loss {initial_loss:.3e} for "
                    f"{_DIVERGENCE_PATIENCE} epochs; try a lower learning rate"
                )
        else:
            high_streak = 0
        yield epoch, loss, work.weights


def train(
    train_data: Dataset,
    config: EncodingConfig = DEFAULT_ENCODING,
    topology: NetworkTopology = NetworkTopology(),
    training: TrainingConfig = TrainingConfig(),
) -> AnnModel:
    """Fit the network; returns the weights of the best validation epoch.

    The validation slice is carved off the given training half with the
    training seed, so identical (data, config, seed) rebuild bit-identical
    models.  Descent stops ``early_stop_patience`` epochs after the best
    validation epoch, or at ``max_epochs``.  Loss histories are truncated at
    the returned epoch.
    """
    if train_data.n < 10:
        raise ValidationError(f"train needs at least 10 rows, got {train_data.n}")
    X, y = encode_with_response(train_data, config)

    scaler = TargetScaler.fit(y)
    targets = scaler.scale(y)

    rng = np.random.default_rng(training.seed)
    perm = rng.permutation(train_data.n)
    n_val = max(1, int(round(training.validation_fraction * train_data.n)))
    val_idx, fit_idx = perm[:n_val], perm[n_val:]
    if fit_idx.size < 1:
        raise ValidationError("validation slice leaves no training rows")
    X_val, val_targets = X[val_idx], targets[val_idx]
    val_layers, vres = list(_layer_buffers(n_val, topology.hidden)), np.empty(n_val)

    weights = init_weights(topology, training.seed)
    train_hist: list[float] = []
    val_hist: list[float] = []
    best_val, best_epoch, best_weights, stale = math.inf, 0, weights, 0
    descent = _epochs(weights, X[fit_idx], targets[fit_idx], training.learning_rate)
    for epoch, loss, current in itertools.islice(descent, training.max_epochs):
        train_hist.append(loss)
        np.subtract(_forward(current, X_val, val_layers, vres), val_targets, vres)
        vloss = float(vres.dot(vres)) / n_val
        if math.isnan(vloss):
            raise NumericError(f"validation loss became NaN at epoch {epoch}")
        val_hist.append(vloss)
        if vloss < best_val:
            best_val, best_epoch, best_weights, stale = vloss, epoch, current.copy(), 0
        else:
            stale += 1
            if stale >= training.early_stop_patience:
                break
    return AnnModel(
        topology=topology,
        weights=best_weights,
        scaler=scaler,
        train_loss=tuple(train_hist[:best_epoch]),
        val_loss=tuple(val_hist[:best_epoch]),
        stopped_epoch=best_epoch,
        encoding=config,
    )


def train_trajectory(
    train_data: Dataset,
    config: EncodingConfig,
    topology: NetworkTopology,
    training: TrainingConfig,
    checkpoints: Sequence[int],
) -> tuple[TargetScaler, Iterator[tuple[int, Weights]]]:
    """Train on the whole given set (no validation split, no early stop),
    yielding ``(epoch, weights)`` snapshots at the requested epochs.  Each
    snapshot is a copy that later epochs leave alone.

    The snapshots are lazy: descent advances only when the next one is
    asked for, so a caller that stops early runs only the epochs up to the
    last snapshot it took.  Checkpoints and data are validated at call time.
    Full-batch descent is deterministic, so the snapshot at epoch e equals a
    separate run stopped at e; the scan ladder needs only one run.
    """
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if not checkpoints or checkpoints[0] < 1:
        raise ValidationError("checkpoints must be positive epochs")
    X, y = encode_with_response(train_data, config)
    scaler = TargetScaler.fit(y)
    descent = _epochs(
        init_weights(topology, training.seed), X, scaler.scale(y), training.learning_rate
    )
    wanted, last = set(checkpoints), checkpoints[-1]

    def snapshots() -> Iterator[tuple[int, Weights]]:
        for epoch, _, weights in descent:
            if epoch in wanted:
                yield epoch, weights.copy()
            if epoch == last:
                return

    return scaler, snapshots()


def predict_ann(model: AnnModel, X: np.ndarray) -> np.ndarray:
    """Expenditure-scale predictions at the rows of an (n, 6) feature matrix."""
    X = feature_matrix(X)
    n = X.shape[0]
    out = _forward(model.weights, X, _layer_buffers(n, model.topology.hidden), np.empty(n))
    return model.scaler.inverse(out)


def gradient_check(
    weights: Weights, sample: tuple[np.ndarray, float], epsilon: float = 1e-6
) -> float:
    """Max relative error between backprop and central finite differences.

    The checked objective is the per-sample squared error of the scaled
    output.  Relative error per parameter is |a - n| / max(|a| + |n|, 1e-8).
    """
    if not (1e-8 <= epsilon <= 1e-4):
        raise ValidationError(f"epsilon must lie in [1e-8, 1e-4], got {epsilon}")
    x, target = sample
    work = _Workspace(weights, np.asarray(x, dtype=float)[None, :], np.array([float(target)]))
    _gradients(work)
    analytic, flat = work.grad.copy(), work.theta.copy()

    def loss_at(k: int, value: float) -> float:
        work.theta[k] = value
        out = _forward(work.weights, work.X, work.layers, work.out)
        work.theta[k] = flat[k]
        return float((out[0] - work.targets[0]) ** 2)

    worst = 0.0
    for k in range(flat.size):
        up = loss_at(k, flat[k] + epsilon)
        down = loss_at(k, flat[k] - epsilon)
        numeric = (up - down) / (2.0 * epsilon)
        rel = abs(analytic[k] - numeric) / max(abs(analytic[k]) + abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst
