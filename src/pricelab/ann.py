"""Fully connected feed-forward network trained by backpropagation.

Default topology is 6-8-1: six scaled inputs, one logistic-sigmoid hidden
layer of eight units, one linear output.  Training is full-batch gradient
descent on the mean squared error of min-max scaled targets, with early
stopping on an internal validation slice.  Everything is plain numpy; the
forward pass, the gradients and the finite-difference checker are the point
of the module, not wrappers around a framework.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

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


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function ``1 / (1 + exp(-z))``.

    With ``e = exp(-|z|)``, which never overflows, it is ``1 / (1 + e)`` for
    z >= 0 and ``e / (1 + e)`` below (NaN stays NaN).  Each branch is the
    textbook stable form, so the bits equal a two-branch masked evaluation.
    """
    z = np.asarray(z, dtype=float)
    e = np.empty_like(z)
    np.abs(z, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(z >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


@dataclass(frozen=True)
class NetworkTopology:
    inputs: int = N_FEATURES
    hidden: tuple[int, ...] = (8,)
    outputs: int = 1

    def __post_init__(self) -> None:
        if self.inputs < 1 or self.outputs != 1:
            raise ValidationError("topology needs inputs >= 1 and exactly one output")
        if not self.hidden or any(not 1 <= h <= MAX_HIDDEN for h in self.hidden):
            raise ValidationError(
                f"hidden layer sizes must all lie in [1, {MAX_HIDDEN}], got {self.hidden}"
            )

    def layer_sizes(self) -> tuple[int, ...]:
        return (self.inputs,) + tuple(self.hidden) + (self.outputs,)


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
    target_scaler: TargetScaler | None = None

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


def _forward_batch(weights: Weights, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Scaled outputs (n,) plus the activation of every layer (input first)."""
    activations = [X]
    a = X
    for w, b in zip(weights.matrices[:-1], weights.biases[:-1]):
        a = sigmoid(a @ w.T + b)
        activations.append(a)
    out = a @ weights.matrices[-1].T + weights.biases[-1]
    activations.append(out)
    return out[:, 0], activations


def _gradients(
    weights: Weights, X: np.ndarray, targets: np.ndarray
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Full-batch MSE and its gradients w.r.t. every matrix and bias."""
    n = X.shape[0]
    out, activations = _forward_batch(weights, X)
    residual = out - targets
    loss = float(residual @ residual) / n

    grad_w: list[np.ndarray] = [np.zeros(0)] * len(weights.matrices)
    grad_b: list[np.ndarray] = [np.zeros(0)] * len(weights.biases)
    delta = (2.0 / n) * residual[:, None]  # d loss / d output
    grad_w[-1] = delta.T @ activations[-2]
    grad_b[-1] = delta.sum(axis=0)
    upstream = delta @ weights.matrices[-1]
    for layer in range(len(weights.matrices) - 2, -1, -1):
        a = activations[layer + 1]
        delta = upstream * a * (1.0 - a)  # sigmoid'(z) = a (1 - a)
        grad_w[layer] = delta.T @ activations[layer]
        grad_b[layer] = delta.sum(axis=0)
        upstream = delta @ weights.matrices[layer]
    return loss, grad_w, grad_b


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
    at its last checkpoint.  Each epoch's weights are fresh arrays that are
    never written to again.
    """
    current = weights
    initial_loss, grad_w, grad_b = _gradients(current, X, targets)
    high_streak = 0
    for epoch in itertools.count(1):
        current = Weights(
            tuple(m - learning_rate * g for m, g in zip(current.matrices, grad_w)),
            tuple(b - learning_rate * g for b, g in zip(current.biases, grad_b)),
        )
        loss, grad_w, grad_b = _gradients(current, X, targets)
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
        yield epoch, loss, current


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
    if X.shape[1] != topology.inputs:
        raise ValidationError(
            f"topology expects {topology.inputs} inputs, features have {X.shape[1]}"
        )

    scaler = training.target_scaler or TargetScaler.fit(y)
    targets = scaler.scale(y)

    rng = np.random.default_rng(training.seed)
    perm = rng.permutation(train_data.n)
    n_val = max(1, int(round(training.validation_fraction * train_data.n)))
    val_idx, fit_idx = perm[:n_val], perm[n_val:]
    if fit_idx.size < 1:
        raise ValidationError("validation slice leaves no training rows")
    X_val, val_targets = X[val_idx], targets[val_idx]

    weights = init_weights(topology, training.seed)
    train_hist: list[float] = []
    val_hist: list[float] = []
    best_val, best_epoch, best_weights, stale = math.inf, 0, weights, 0
    descent = _epochs(weights, X[fit_idx], targets[fit_idx], training.learning_rate)
    for epoch, loss, current in itertools.islice(descent, training.max_epochs):
        train_hist.append(loss)
        vout, _ = _forward_batch(current, X_val)
        vres = vout - val_targets
        vloss = float(vres @ vres) / X_val.shape[0]
        if math.isnan(vloss):
            raise NumericError(f"validation loss became NaN at epoch {epoch}")
        val_hist.append(vloss)
        if vloss < best_val:
            best_val, best_epoch, best_weights, stale = vloss, epoch, current, 0
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
    yielding ``(epoch, weights)`` snapshots at the requested epochs.

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
    scaler = training.target_scaler or TargetScaler.fit(y)
    descent = _epochs(
        init_weights(topology, training.seed), X, scaler.scale(y), training.learning_rate
    )
    wanted, last = set(checkpoints), checkpoints[-1]

    def snapshots() -> Iterator[tuple[int, Weights]]:
        for epoch, _, weights in descent:
            if epoch in wanted:
                yield epoch, weights
            if epoch == last:
                return

    return scaler, snapshots()


def predict_ann(model: AnnModel, X: np.ndarray) -> np.ndarray:
    """Expenditure-scale predictions at the rows of an (n, 6) feature matrix."""
    out, _ = _forward_batch(model.weights, feature_matrix(X))
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
    X = np.asarray(x, dtype=float)[None, :]
    t = np.array([float(target)])

    _, grad_w, grad_b = _gradients(weights, X, t)
    analytic = np.concatenate([g.ravel() for g in grad_w] + [g.ravel() for g in grad_b])

    def loss_at(flat: np.ndarray) -> float:
        mats = []
        bs = []
        offset = 0
        for m in weights.matrices:
            mats.append(flat[offset : offset + m.size].reshape(m.shape))
            offset += m.size
        for b in weights.biases:
            bs.append(flat[offset : offset + b.size].reshape(b.shape))
            offset += b.size
        out, _ = _forward_batch(Weights(tuple(mats), tuple(bs)), X)
        return float((out[0] - t[0]) ** 2)

    flat = np.concatenate(
        [m.ravel() for m in weights.matrices] + [b.ravel() for b in weights.biases]
    )
    worst = 0.0
    for k in range(flat.size):
        bumped = flat.copy()
        bumped[k] = flat[k] + epsilon
        up = loss_at(bumped)
        bumped[k] = flat[k] - epsilon
        down = loss_at(bumped)
        numeric = (up - down) / (2.0 * epsilon)
        rel = abs(analytic[k] - numeric) / max(abs(analytic[k]) + abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst
