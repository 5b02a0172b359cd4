"""Fully connected feed-forward network trained by backpropagation.

Default topology is 6-8-1: six scaled inputs, one logistic-sigmoid hidden
layer of eight units, one linear output.  Training is full-batch gradient
descent on the mean squared error of min-max scaled targets, with early
stopping on an internal validation slice.  Everything is plain numpy: the
forward pass and the gradients are written out here, not wrapped from a
framework, and the tests check the gradients by central differences.

A descent run builds its arrays and its numpy calls once, in a
``_Workspace``: all weights live in one flat vector and all gradients in
another, with per-layer views into both, so an update is
``grad *= lr; theta -= grad``.  Each pass is a list of ``(function, args)``
calls whose every matrix product and elementwise step writes into a buffer
of that workspace, so epochs allocate nothing and make no views.  The
forward pass and the sigmoid are each written once, as generators of calls
(``_forward_calls``, ``_sigmoid_calls``) that the descent, ``predict_ann``
(one layer's buffers at a time) and the tests' gradient checker all run.

``train``'s validation rows ride the descent's forward pass, after the fit
rows; the loss and the backward pass read the fit rows through row-slice
views, and the best epoch is kept as one copy of the flat weights.  Each
step is the floating-point operation of the textbook array code
(``a @ W.T + b``, ``delta.T @ a``, ``delta.sum(axis=0)``, the stable
sigmoid), so results are bit for bit those of that code run on the fit and
the validation rows apart (``test_descend_equals_two_pass_loop`` checks
it).  That rests on three facts of OpenBLAS 0.3.31 (Haswell kernels): a
hidden layer's gemm gives each row of stacked blocks the bits it gets on
its own block; the output layer's gemv does not, so it runs once per
block; and a gemv or gemm on a contiguous row slice gives the bits of the
same call on a copy.  Faster forms of the same calls keep the bits too
(numpy 2.4): ``ndarray.dot`` for ``np.dot``; the bias tile ``ones @
b[None, :]``; ``einsum('ij->j')`` for a hidden bias gradient when h >= 2 (a
1-unit layer keeps ``add.reduce``, the one shape rule), called through
``c_einsum``, the C entry ``np.einsum`` itself calls; and, in the sigmoid,
``fmax`` for ``maximum`` and integer ops on the sign bit for -|z| and
copysign(1, z).  The gemm against a contiguous copy of W.T is faster but
changes the last bits at some shapes, so the forward gemm keeps ``W.T``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

try:
    # The C function np.einsum calls when optimize is off, minus its Python
    # wrapper (~0.6 us a call).
    from numpy._core.multiarray import c_einsum
except ImportError:  # a numpy that moves it: the wrapper, same function, same bits
    c_einsum = np.einsum

from .dataset import (
    Dataset,
    N_FEATURES,
    encode_with_response,
    feature_matrix,
    holdout,
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
# Seed of the initial weights and of ``train``'s validation rows.
TRAIN_SEED = 0
# Read-only 1.0 for the descent's elementwise calls: numpy takes a 0-d array
# operand in about a third of the time it takes a Python float.
_ONE = np.ones(())
_ONE.flags.writeable = False
# The float64 sign bit and the bits of 1.0, as read-only int64 operands.
_SIGN_BIT = np.array(np.iinfo(np.int64).min)
_SIGN_BIT.flags.writeable = False
_ONE_BITS = _ONE.view(np.int64)
# np.dot's C function, minus the dispatch np.dot runs in Python first (~0.3 us).
_DOT = np.ndarray.dot


def _sigmoid_calls(z: np.ndarray, scratch: np.ndarray) -> Iterator[tuple]:
    """The calls that overwrite ``z`` with ``1 / (1 + exp(-z))``, using ``scratch``.

    With ``e = exp(-|z|)``, which never overflows, it is ``1 / (1 + e)`` for
    z >= 0 and ``e / (1 + e)`` below (NaN stays NaN).  Each branch is the
    textbook stable form, so the bits equal a two-branch masked evaluation.
    The numerator is ``fmax(e, copysign(1, z))``: 0 <= e <= 1, and e = 1 at
    z = +-0, so it is 1 where z >= 0 and e elsewhere, with no mask; at NaN
    it is +-1 over a NaN denominator.  -|z| and copysign(1, z) only set or
    copy the sign bit (IEEE 754 abs, negate, copySign), so they are integer
    ops on the float64 words, through int64 views taken once here.
    """
    zi, si = z.view(np.int64), scratch.view(np.int64)
    yield np.bitwise_and, (zi, _SIGN_BIT, si)  # the sign bit of z
    yield np.bitwise_or, (si, _ONE_BITS, si)  # copysign(1, z)
    yield np.bitwise_or, (zi, _SIGN_BIT, zi)  # -|z|
    yield np.exp, (z, z)
    # fmax, not maximum: it takes a positional out without a DeprecationWarning.
    yield np.fmax, (z, scratch, scratch)
    yield np.add, (z, _ONE, z)
    yield np.divide, (scratch, z, z)


def _run(calls: Iterable[tuple]) -> None:
    for function, args in calls:
        function(*args)


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
    """The descent's step size and epoch cap; the rest of the protocol is fixed."""

    learning_rate: float = 0.05
    max_epochs: int = 2000
    early_stop_patience = 100  # class constant, not a field

    def __post_init__(self) -> None:
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ValidationError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 1 <= self.max_epochs <= MAX_EPOCHS:
            raise ValidationError(
                f"max_epochs must lie in [1, {MAX_EPOCHS}], got {self.max_epochs}"
            )


@dataclass(frozen=True)
class AnnModel:
    topology: NetworkTopology
    weights: Weights
    scaler: TargetScaler
    train_loss: tuple[float, ...]
    val_loss: tuple[float, ...]
    stopped_epoch: int
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


def _flatten(weights: Weights) -> np.ndarray:
    """Every matrix, then every bias, in one new flat vector."""
    return np.concatenate([a.ravel() for a in weights.matrices + weights.biases])


def _flat_views(flat: np.ndarray, sizes: Sequence[int]) -> Weights:
    """Weights whose arrays are views into ``flat``, laid out as ``_flatten``'s."""
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


def _forward_calls(
    weights: Weights, X: np.ndarray, layers: Iterable, out: np.ndarray, blocks=(slice(None),)
) -> Iterator[tuple]:
    """The calls that write the scaled outputs at the rows of X into ``out`` (n,).

    ``layers`` gives each hidden layer's buffers (``_layer_buffers``), and
    the activations are left in them for the backward pass.  Nothing else
    is allocated; drawn lazily, ``layers`` holds one layer at a time.  The
    output layer's gemv runs once per row block of ``blocks``.
    """
    a, ones = X, np.ones((X.shape[0], 1))
    for w, b, (z, scratch) in zip(weights.matrices, weights.biases, layers):
        yield _DOT, (a, w.T, z)
        # b tiled into every row, exactly (a -0.0 tiles as 0.0, which adds alike
        # to a gemm's output), faster than np.copyto; a broadcast add allocates.
        yield _DOT, (ones, b[None, :], scratch)
        yield np.add, (z, scratch, z)
        yield from _sigmoid_calls(z, scratch)
        a = z
    for rows in blocks:
        yield _DOT, (a[rows], weights.matrices[-1][0], out[rows])
    yield np.add, (out, weights.biases[-1].reshape(()), out)


class _Workspace:
    """Every array one descent run writes, and its passes' calls, built once per run.

    ``theta`` holds all weights and ``grad`` all gradients, flat and in the
    same order, so an update is two in-place calls.  ``weights`` and
    ``grads`` are per-layer views into them; ``weights`` is read-only.
    The first ``len(targets)`` rows of X are the fit rows.  The rows after
    them ride the forward pass, which leaves their outputs in ``held_out``;
    the loss and the backward pass read only the fit rows.
    """

    def __init__(self, weights: Weights, X: np.ndarray, targets: np.ndarray):
        n, n_fit = X.shape[0], targets.shape[0]
        sizes = (X.shape[1],) + tuple(m.shape[0] for m in weights.matrices)
        self.theta = _flatten(weights)
        self.grad = np.empty_like(self.theta)
        frozen = self.theta.view()
        frozen.flags.writeable = False
        self.weights = _flat_views(frozen, sizes)
        self.grads = _flat_views(self.grad, sizes)
        self.targets = targets
        layers = list(_layer_buffers(n, sizes[1:-1]))
        self.out = np.empty(n)
        self.residual, self.held_out = self.out[:n_fit], self.out[n_fit:]
        blocks = [slice(0, n_fit), slice(n_fit, n)][: 1 + (n > n_fit)]
        self.forward = list(_forward_calls(self.weights, X, layers, self.out, blocks))
        fit_layers = [(a[:n_fit], scratch[:n_fit]) for a, scratch in layers]
        self.backward = list(self._backward_calls(X[:n_fit], fit_layers))

    def _backward_calls(self, X: np.ndarray, layers: list) -> Iterator[tuple]:
        weights, grads, r = self.weights, self.grads, self.residual
        column = r[:, None]
        deltas = [np.empty_like(a) for a, _ in layers]
        # d loss / d output = (2 / n) residual
        yield np.multiply, (r, np.array(2.0 / r.shape[0]), r)
        yield _DOT, (r, layers[-1][0], grads.matrices[-1][0])
        yield np.add.reduce, (column, 0, None, grads.biases[-1])
        # One output unit: the upstream gradient of the top hidden layer is
        # the outer product of r and the output row, which np.dot forms
        # without the buffers numpy would allocate for a broadcast product.
        yield _DOT, (column, weights.matrices[-1], deltas[-1])
        for layer in range(len(layers) - 1, -1, -1):
            (a, one_minus_a), delta = layers[layer], deltas[layer]
            if layer < len(layers) - 1:
                yield _DOT, (deltas[layer + 1], weights.matrices[layer + 1], delta)
            yield np.multiply, (delta, a, delta)
            yield np.subtract, (_ONE, a, one_minus_a)
            yield np.multiply, (delta, one_minus_a, delta)  # sigmoid'(z) = a (1 - a)
            yield _DOT, (delta.T, layers[layer - 1][0] if layer else X, grads.matrices[layer])
            # A row-by-row sum, as delta.sum(axis=0) on this (n, h) C array
            # does; a pairwise or BLAS sum would change the last bits.  einsum
            # sums row by row faster than add.reduce, but an (n, 1) delta
            # takes its contiguous-array sum, which does not keep the bits.
            if delta.shape[1] > 1:
                yield functools.partial(c_einsum, "ij->j", out=grads.biases[layer]), (delta,)
            else:
                yield np.add.reduce, (delta, 0, None, grads.biases[layer])


def _gradients(work: _Workspace) -> float:
    """One forward and backward pass: the MSE of the fit rows at
    ``work.theta``, with its gradient written into ``work.grad``."""
    _run(work.forward)
    r = work.residual
    np.subtract(r, work.targets, r)
    loss = float(r.dot(r)) / r.shape[0]
    _run(work.backward)
    return loss


def _epochs(
    weights: Weights, X: np.ndarray, targets: np.ndarray, learning_rate: float
) -> Iterator[tuple[int, float, _Workspace]]:
    """Full-batch gradient descent on the first ``len(targets)`` rows of X,
    one ``(epoch, loss, workspace)`` per epoch.

    Each epoch runs one forward and backward pass: it scores the updated
    weights, and that pass's gradient drives the next epoch's update (the
    first update uses the gradient of the initial pass, which also gives the
    initial loss).  Divergence (loss above ten times the initial loss for ten
    straight epochs) and NaN losses raise.  The descent never ends by
    itself: ``train`` stops it early or at ``max_epochs``, ``train_trajectory``
    at its last checkpoint.

    The run allocates one ``_Workspace`` and nothing per epoch.  The yielded
    workspace is the same every epoch, overwritten by the next update: a
    caller that keeps an epoch's weights or outputs copies them.
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
        yield epoch, loss, work


def train(
    train_data: Dataset,
    *,
    topology: NetworkTopology = NetworkTopology(),
    training: TrainingConfig = TrainingConfig(),
) -> AnnModel:
    """Fit the network; returns the weights of the best validation epoch.

    The validation rows are ``holdout``'s at ``TRAIN_SEED``, which also
    draws the initial weights, so identical (data, topology, training)
    rebuild bit-identical models.  Descent stops ``early_stop_patience``
    epochs after the best validation epoch, or at ``max_epochs``.  Loss
    histories are truncated at the returned epoch.
    """
    if train_data.n < 10:
        raise ValidationError(f"an ANN fit needs at least 10 rows, got {train_data.n}")
    X, y = encode_with_response(train_data)

    scaler = TargetScaler.fit(y)
    targets = scaler.scale(y)

    fit, val = holdout(train_data.n, TRAIN_SEED)
    # The validation rows go after the fit rows, and ride the descent's forward pass.
    X, fit_targets, val_targets = X[np.concatenate((fit, val))], targets[fit], targets[val]

    weights = init_weights(topology, TRAIN_SEED)
    train_hist: list[float] = []
    val_hist: list[float] = []
    best_val, best_epoch, best, stale = math.inf, 0, _flatten(weights), 0
    descent = _epochs(weights, X, fit_targets, training.learning_rate)
    for epoch, loss, work in itertools.islice(descent, training.max_epochs):
        train_hist.append(loss)
        vres = work.held_out
        np.subtract(vres, val_targets, vres)
        vloss = float(vres.dot(vres)) / val.size
        if math.isnan(vloss):
            raise NumericError(f"validation loss became NaN at epoch {epoch}")
        val_hist.append(vloss)
        if vloss < best_val:
            np.copyto(best, work.theta)
            best_val, best_epoch, stale = vloss, epoch, 0
        else:
            stale += 1
            if stale >= training.early_stop_patience:
                break
    return AnnModel(
        topology=topology,
        weights=_flat_views(best, topology.layer_sizes()),
        scaler=scaler,
        train_loss=tuple(train_hist[:best_epoch]),
        val_loss=tuple(val_hist[:best_epoch]),
        stopped_epoch=best_epoch,
    )


def train_trajectory(
    train_data: Dataset,
    topology: NetworkTopology,
    training: TrainingConfig,
    checkpoints: Sequence[int],
) -> Iterator[AnnModel]:
    """Train on the whole given set (no validation split, no early stop),
    yielding the model at each checkpoint epoch (its ``stopped_epoch``),
    with empty loss histories and weights that later epochs leave alone.

    The models are lazy: descent advances only when the next one is asked
    for and stops at the last checkpoint.  Checkpoints (positive, strictly
    increasing) and data are validated at call time.  Full-batch descent is
    deterministic, so the model at epoch e equals a separate run stopped at
    e; the scan ladder needs only one run.
    """
    checkpoints = [int(c) for c in checkpoints]
    if not checkpoints or checkpoints[0] < 1 or checkpoints != sorted(set(checkpoints)):
        raise ValidationError("checkpoints must be strictly increasing positive epochs")
    X, y = encode_with_response(train_data)
    scaler = TargetScaler.fit(y)
    descent = _epochs(
        init_weights(topology, TRAIN_SEED), X, scaler.scale(y), training.learning_rate
    )
    wanted = set(checkpoints)
    return (
        AnnModel(topology, work.weights.copy(), scaler, (), (), epoch)
        for epoch, _, work in itertools.islice(descent, checkpoints[-1])
        if epoch in wanted
    )


def predict_ann(model: AnnModel, X: np.ndarray) -> np.ndarray:
    """Expenditure-scale predictions at the rows of an (n, 6) feature matrix."""
    X = feature_matrix(X)
    out = np.empty(X.shape[0])
    _run(_forward_calls(model.weights, X, _layer_buffers(out.size, model.topology.hidden), out))
    return model.scaler.inverse(out)

