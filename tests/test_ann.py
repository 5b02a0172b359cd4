"""Backprop network: forward/gradient correctness, training behavior."""

import importlib.util
import itertools
import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from pytest import approx

from conftest import gradient_check
from pricelab import ann
from pricelab.ann import (
    AnnModel,
    NetworkTopology,
    TargetScaler,
    TrainingConfig,
    Weights,
    init_weights,
    predict_ann,
    train,
    train_trajectory,
)
from pricelab.artifacts import load_model, save_model
from pricelab.dataset import (
    GeneratorParams,
    encode_dataset,
    generate_synthetic,
)
from pricelab.errors import DivergenceError, ValidationError

DEFAULT_TOPOLOGY = NetworkTopology()  # 6-8-1


def constant_expenditure_data(value=4200.0, n=30, seed=1):
    data = generate_synthetic(GeneratorParams(n=n, seed=seed))
    return replace(data, expenditure=np.full(n, value))


# ------------------------------------------------------------------ pieces


def sigmoid(z):
    """``ann._sigmoid_calls`` run on a float copy of ``z``, as a new array."""
    out = np.array(z, dtype=float)
    ann._run(ann._sigmoid_calls(out, np.empty_like(out)))
    return out


def test_sigmoid_values_and_stability():
    assert sigmoid(np.array([0.0])) == approx(0.5)
    big = sigmoid(np.array([800.0, -800.0]))
    assert big[0] == 1.0 and big[1] == 0.0  # no overflow warnings, saturates
    z = np.linspace(-5, 5, 11)
    assert sigmoid(-z) == approx(1.0 - sigmoid(z), abs=1e-15)


def two_branch_sigmoid(z):
    """The masked reference: 1/(1+exp(-z)) for z >= 0, exp(z)/(1+exp(z))
    below; each branch evaluates exp only where it cannot overflow."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# Signed zeros, subnormals, the ends of exp's range, the largest finite
# float, infinities and NaNs of both signs.
_EDGES = [0.0, 5e-324, 1e-310, 1e-300, 1.0, 709.0, 745.0, 746.0, 800.0, 1e308, np.inf, np.nan]
_SPECIALS = np.array(_EDGES + [-v for v in _EDGES])


def test_sigmoid_equals_two_branch_formula_bit_for_bit():
    rng = np.random.default_rng(0)
    wide = rng.normal(size=(500, 8)) * rng.choice([1e-3, 1.0, 10.0, 300.0], size=(500, 1))
    for z in (_SPECIALS, _SPECIALS.reshape(4, 6), wide):
        before = z.copy()
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = sigmoid(z)
        want = two_branch_sigmoid(z)
        assert got.shape == z.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(bits(got[~nan]), bits(want[~nan]))
        assert np.array_equal(bits(z), bits(before))  # input left alone
    assert sigmoid(0.0) == 0.5
    # The descent's fit layers are row-slice views: only the first k rows
    # change, and they get the bits of the same rows on their own.
    buf = np.tile(_SPECIALS, (5, 1))
    scratch, k = np.empty_like(buf), 3
    ann._run(ann._sigmoid_calls(buf[:k], scratch[:k]))
    want = two_branch_sigmoid(_SPECIALS)
    nan = np.isnan(want)
    for row in buf[:k]:
        assert np.array_equal(np.isnan(row), nan)
        assert np.array_equal(bits(row[~nan]), bits(want[~nan]))
    assert np.array_equal(bits(buf[k:]), bits(np.tile(_SPECIALS, (2, 1))))


def bits(x):
    """The raw bits of a float array, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


# The descent's call forms rest on these numpy and OpenBLAS facts; if an
# upgrade breaks one, its test names it.


def test_einsum_column_sum_equals_add_reduce_for_two_or_more_columns():
    """``einsum('ij->j')`` sums an (n, h) C array row by row, as
    ``add.reduce`` over axis 0 does, when h >= 2, and so does the C entry
    ``c_einsum`` that the descent binds.  (An (n, 1) array takes einsum's
    contiguous sum, so 1-unit layers keep ``add.reduce``; the one-unit
    descent cases fail if they do not.)"""
    rng = np.random.default_rng(0)
    for n in (1, 103, 640, 800):
        for h in (2, 3, 8, 64):
            delta = rng.normal(size=(n, h)) * rng.choice([1e-8, 1.0, 1e8], size=(n, 1))
            want, got, bound = np.empty(h), np.empty(h), np.empty(h)
            np.add.reduce(delta, 0, None, want)
            np.einsum("ij->j", delta, out=got)
            ann.c_einsum("ij->j", delta, out=bound)
            assert np.array_equal(bits(got), bits(want)), (n, h)
            assert np.array_equal(bits(bound), bits(want)), (n, h)


def test_rank_one_bias_tile_equals_the_broadcast_bias():
    """The bias tile ``ones @ b[None, :]`` holds b in every row, and adding
    it gives the bits of ``a @ W.T + b``, at the sizes of a gradient check,
    a fit and a 20000-row book.  A -0.0 bias entry tiles as 0.0, which adds
    alike, since the gemm gives 0.0, not -0.0, on a row of zeros."""
    rng = np.random.default_rng(1)
    for n in (1, 640, 20000):
        for h in (1, 8):
            a, w = rng.normal(size=(n, 6)), rng.normal(size=(h, 6))
            a[0] = 0.0
            b = rng.normal(size=h)
            b[0] = -0.0
            tile, z = np.empty((n, h)), np.empty((n, h))
            np.dot(np.ones((n, 1)), b[None, :], tile)
            assert np.array_equal(tile, np.broadcast_to(b, (n, h))), (n, h)
            np.dot(a, w.T, z)
            np.add(z, tile, z)
            assert np.array_equal(bits(z), bits(a @ w.T + b)), (n, h)


def test_sign_bit_integer_ops_equal_abs_negate_and_copysign():
    """Setting the sign bit of a float64's word is -|z|, and its sign bit
    over the bits of 1.0 is copysign(1, z), bit for bit: NaN payloads, signed
    zeros and subnormals included, and on arbitrary words."""
    words = np.random.default_rng(2).integers(-(2**63), 2**63, size=2000, dtype=np.int64)
    for z in (_SPECIALS, words.view(float)):
        zi = z.view(np.int64)
        assert np.array_equal(zi | ann._SIGN_BIT, bits(np.negative(np.abs(z))))
        assert np.array_equal((zi & ann._SIGN_BIT) | ann._ONE_BITS, bits(np.copysign(1.0, z)))


def test_fmax_equals_maximum_on_the_sigmoid_numerators_operands():
    """The sigmoid's numerator is fmax(exp(-|z|), copysign(1, z)).  Off NaN
    neither operand is NaN, so it is ``maximum``, bit for bit.  At NaN z,
    e is NaN and copysign(1, z) is +-1: fmax skips the lone NaN and gives
    +-1, while the denominator 1 + e is NaN, so the quotient is still NaN."""
    z = _SPECIALS
    e, one = np.exp(-np.abs(z)), np.copysign(1.0, z)
    nan = np.isnan(z)
    assert np.array_equal(np.isnan(e), nan) and not np.isnan(one).any()
    got, want = np.fmax(e, one), np.maximum(e, one)
    assert np.array_equal(bits(got[~nan]), bits(want[~nan]))
    assert np.array_equal(np.abs(got[nan]), np.ones(nan.sum()))
    assert np.isnan(got[nan] / (1.0 + e[nan])).all()


def forward(weights, X):
    """Scaled outputs and hidden activations of one forward pass."""
    out = np.empty(X.shape[0])
    layers = list(ann._layer_buffers(out.size, [m.shape[0] for m in weights.matrices[:-1]]))
    ann._run(ann._forward_calls(weights, X, layers, out))
    return out, [a for a, _ in layers]


def test_init_weights_shapes_and_bounds():
    w = init_weights(DEFAULT_TOPOLOGY, seed=0)
    assert [m.shape for m in w.matrices] == [(8, 6), (1, 8)]
    assert [b.shape for b in w.biases] == [(8,), (1,)]
    assert all(np.all(b == 0.0) for b in w.biases)
    r_hidden = math.sqrt(6.0 / (6 + 8))
    r_out = math.sqrt(6.0 / (8 + 1))
    assert np.max(np.abs(w.matrices[0])) <= r_hidden
    assert np.max(np.abs(w.matrices[1])) <= r_out
    again = init_weights(DEFAULT_TOPOLOGY, seed=0)
    assert all(np.array_equal(a, b) for a, b in zip(w.matrices, again.matrices))
    other = init_weights(DEFAULT_TOPOLOGY, seed=1)
    assert not np.array_equal(w.matrices[0], other.matrices[0])


def test_forward_zero_and_unit_weights():
    """Zero weights: every hidden unit sits at sigmoid(0) = 1/2 and the
    output is 0.  A unit output row then sums eight halves to 4."""
    zero = Weights(
        matrices=(np.zeros((8, 6)), np.zeros((1, 8))),
        biases=(np.zeros(8), np.zeros(1)),
    )
    x = np.full(6, 0.3)
    out, acts = forward(zero, x[None, :])
    assert out.shape == (1,) and out[0] == 0.0
    assert acts[0][0] == approx(np.full(8, 0.5))
    ones_out = Weights(
        matrices=(np.zeros((8, 6)), np.ones((1, 8))),
        biases=(np.zeros(8), np.zeros(1)),
    )
    out, _ = forward(ones_out, x[None, :])
    assert out[0] == approx(4.0)


def test_forward_matches_handwritten_pass():
    """Scalar-loop reference forward pass, no matrix ops shared with the
    implementation."""
    w = init_weights(DEFAULT_TOPOLOGY, seed=5)
    x = np.linspace(0.1, 0.9, 6)
    hidden = []
    for unit in range(8):
        z = sum(w.matrices[0][unit][k] * x[k] for k in range(6)) + w.biases[0][unit]
        hidden.append(1.0 / (1.0 + math.exp(-z)))
    expected = sum(w.matrices[1][0][u] * hidden[u] for u in range(8)) + w.biases[1][0]
    out, acts = forward(w, x[None, :])
    assert out[0] == approx(expected, abs=1e-12)
    assert acts[0][0] == approx(hidden, abs=1e-12)


def test_gradient_check_small_across_seeds():
    rng = np.random.default_rng(123)
    for seed in range(5):
        w = init_weights(DEFAULT_TOPOLOGY, seed=seed)
        sample = (rng.uniform(0, 1, size=6), float(rng.uniform(0, 1)))
        assert gradient_check(w, sample) < 1e-5


def test_gradient_check_two_hidden_layers():
    topo = NetworkTopology(hidden=(4, 3))
    w = init_weights(topo, seed=2)
    sample = (np.linspace(0, 1, 6), 0.7)
    assert gradient_check(w, sample) < 1e-5


def test_gradient_check_epsilon_bounds():
    w = init_weights(DEFAULT_TOPOLOGY, seed=0)
    sample = (np.zeros(6), 0.0)
    with pytest.raises(ValidationError):
        gradient_check(w, sample, epsilon=1e-2)
    with pytest.raises(ValidationError):
        gradient_check(w, sample, epsilon=1e-9)


# ------------------------------------------------------------------ scaler


def test_target_scaler_round_trip():
    y = np.array([100.0, 900.0, 400.0])
    scaler = TargetScaler.fit(y)
    assert scaler.scale(y) == approx([0.0, 1.0, 0.375])
    assert scaler.inverse(scaler.scale(y)) == approx(y, rel=1e-15)


def test_target_scaler_degenerate_range():
    scaler = TargetScaler.fit(np.array([7.0, 7.0, 7.0]))
    assert scaler.span == 1.0
    assert scaler.scale(np.array([7.0])) == approx([0.0])
    assert scaler.inverse(np.array([0.0])) == approx([7.0])


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                min_size=1, max_size=30))
def test_target_scaler_property(ys):
    y = np.array(ys)
    scaler = TargetScaler.fit(y)
    s = scaler.scale(y)
    assert np.all(s >= -1e-9) and np.all(s <= 1.0 + 1e-9)
    assert scaler.inverse(s) == approx(y, abs=1e-6)


# ------------------------------------------------------------------ training


def test_training_config_validation():
    with pytest.raises(ValidationError):
        TrainingConfig(learning_rate=0.0)
    with pytest.raises(ValidationError):
        TrainingConfig(learning_rate=math.inf)
    with pytest.raises(ValidationError):
        TrainingConfig(max_epochs=0)
    with pytest.raises(ValidationError, match="seed"):
        TrainingConfig(seed=-1)
    with pytest.raises(ValidationError):
        TrainingConfig(validation_fraction=0.0)
    with pytest.raises(ValidationError):
        TrainingConfig(validation_fraction=0.6)
    with pytest.raises(ValidationError):
        TrainingConfig(early_stop_patience=0)


def test_topology_validation():
    with pytest.raises(ValidationError):
        NetworkTopology(hidden=())
    with pytest.raises(ValidationError):
        NetworkTopology(hidden=(0,))
    assert NetworkTopology(hidden=(4, 3)).layer_sizes() == (6, 4, 3, 1)


def test_train_constant_targets_to_machine_precision():
    """A single hidden unit plus output bias can represent any constant, and
    with all scaled targets at zero descent drives the loss to ~0."""
    model = train(
        constant_expenditure_data(),
        topology=NetworkTopology(hidden=(1,)),
        training=TrainingConfig(learning_rate=0.25),
    )
    assert model.train_loss[-1] < 1e-6
    X = encode_dataset(constant_expenditure_data())[0][:1]
    assert predict_ann(model, X)[0] == approx(4200.0, abs=1.0)


def test_train_noiseless_linear_high_accuracy():
    """On clean additive data a 10000-epoch run lands within 2% of the
    target range in RMSE (trains past the default budget)."""
    data = generate_synthetic(GeneratorParams(
        n=200, seed=7, noise_scale=0.0, interaction=0.0,
        age_curvature=0.0, collinearity_rho=0.0,
    ))
    model = train(data, training=TrainingConfig(max_epochs=10000))
    X, y = encode_dataset(data)
    preds = predict_ann(model, X)
    rmse = float(np.sqrt(np.mean((preds - y) ** 2)))
    assert rmse <= 0.02 * float(y.max() - y.min())


def test_train_loss_decreases_initially():
    data = generate_synthetic(GeneratorParams(n=100, seed=0))
    model = train(data, training=TrainingConfig(max_epochs=60))
    first = np.array(model.train_loss[:50])
    assert np.all(np.diff(first) <= 1e-12)


def test_train_divergence_detected():
    data = generate_synthetic(GeneratorParams(n=50, seed=0))
    with pytest.raises(DivergenceError, match="learning rate"):
        train(data, training=TrainingConfig(learning_rate=1e6))


def test_train_is_bit_deterministic():
    data = generate_synthetic(GeneratorParams(n=60, seed=4))
    cfg = TrainingConfig(max_epochs=200)
    a = train(data, training=cfg)
    b = train(data, training=cfg)
    assert a.stopped_epoch == b.stopped_epoch
    assert all(np.array_equal(x, y)
               for x, y in zip(a.weights.matrices, b.weights.matrices))
    assert all(np.array_equal(x, y)
               for x, y in zip(a.weights.biases, b.weights.biases))
    assert a.train_loss == b.train_loss
    other = train(data, training=TrainingConfig(max_epochs=200, seed=9))
    assert not np.array_equal(a.weights.matrices[0], other.weights.matrices[0])


def test_early_stopping_invariants():
    data = generate_synthetic(GeneratorParams(n=120, seed=2))
    cfg = TrainingConfig(max_epochs=3000, early_stop_patience=30)
    model = train(data, training=cfg)
    assert 1 <= model.stopped_epoch <= 3000
    assert len(model.train_loss) == model.stopped_epoch
    assert len(model.val_loss) == model.stopped_epoch
    # histories are truncated at the best validation epoch
    assert model.val_loss[-1] == min(model.val_loss)


def test_train_validates_inputs():
    small = generate_synthetic(GeneratorParams(n=9, seed=0))
    with pytest.raises(ValidationError, match="at least 10"):
        train(small)
    headless = replace(generate_synthetic(GeneratorParams(n=20, seed=0)), expenditure=None)
    with pytest.raises(ValidationError, match="expenditure"):
        train(headless)


def test_train_trajectory_checkpoints_match_shorter_runs():
    """Full-batch descent is deterministic, so the epoch-e snapshot of one
    long run must equal the final state of a run capped at e."""
    data = generate_synthetic(GeneratorParams(n=40, seed=3))
    cfg = TrainingConfig(max_epochs=10)  # max_epochs unused by trajectory
    snaps = list(train_trajectory(data, DEFAULT_TOPOLOGY, cfg, [30, 60]))
    short = list(train_trajectory(data, DEFAULT_TOPOLOGY, cfg, [30]))
    assert snaps[0].scaler == short[0].scaler == snaps[1].scaler
    assert snaps[0].stopped_epoch == 30 and snaps[1].stopped_epoch == 60
    w_long = snaps[0].weights
    w_short = short[0].weights
    assert all(np.array_equal(a, b)
               for a, b in zip(w_long.matrices, w_short.matrices))


def allocating_forward(weights, X):
    """Reference forward pass in textbook array code, fresh arrays for every
    layer: outputs (n,) plus the activation of every layer."""
    activations = [X]
    a = X
    for w, b in zip(weights.matrices[:-1], weights.biases[:-1]):
        a = two_branch_sigmoid(a @ w.T + b)  # the bits of ann.sigmoid, tested above
        activations.append(a)
    out = a @ weights.matrices[-1].T + weights.biases[-1]
    activations.append(out)
    return out[:, 0], activations


def allocating_gradients(weights, X, targets):
    """Reference full-batch MSE and its gradients, fresh arrays throughout."""
    n = X.shape[0]
    out, activations = allocating_forward(weights, X)
    residual = out - targets
    loss = float(residual @ residual) / n
    grad_w = [None] * len(weights.matrices)
    grad_b = [None] * len(weights.biases)
    delta = (2.0 / n) * residual[:, None]
    grad_w[-1] = delta.T @ activations[-2]
    grad_b[-1] = delta.sum(axis=0)
    upstream = delta @ weights.matrices[-1]
    for layer in range(len(weights.matrices) - 2, -1, -1):
        a = activations[layer + 1]
        delta = upstream * a * (1.0 - a)
        grad_w[layer] = delta.T @ activations[layer]
        grad_b[layer] = delta.sum(axis=0)
        upstream = delta @ weights.matrices[layer]
    return loss, grad_w, grad_b


def two_pass_descend(weights, X, targets, learning_rate, max_epochs, *,
                     X_val=None, val_targets=None, patience=None, checkpoints=()):
    """The descent loop written out with fresh arrays and two passes per
    epoch: each epoch takes a fresh gradient at the current weights, then a
    second full pass scores the update; early stopping and snapshots sit in
    the same loop.  Its divergence and NaN checks are left out, since they
    can only raise."""
    current = weights.copy()
    train_hist, val_hist, snapshots = [], [], {}
    best_val, best_epoch, best_weights, stale = math.inf, 0, current.copy(), 0
    for epoch in range(1, max_epochs + 1):
        _, grad_w, grad_b = allocating_gradients(current, X, targets)
        current = Weights(
            tuple(m - learning_rate * g for m, g in zip(current.matrices, grad_w)),
            tuple(b - learning_rate * g for b, g in zip(current.biases, grad_b)),
        )
        loss, _, _ = allocating_gradients(current, X, targets)
        train_hist.append(loss)
        if epoch in checkpoints:
            snapshots[epoch] = current.copy()
        if X_val is not None:
            vout, _ = allocating_forward(current, X_val)
            vres = vout - val_targets
            vloss = float(vres @ vres) / X_val.shape[0]
            val_hist.append(vloss)
            if patience is not None:
                if vloss < best_val:
                    best_val, best_epoch, best_weights, stale = vloss, epoch, current.copy(), 0
                else:
                    stale += 1
                    if stale >= patience:
                        break
    return {
        "weights": current, "train_loss": train_hist, "val_loss": val_hist,
        "best_epoch": best_epoch, "best_weights": best_weights, "snapshots": snapshots,
    }


def same_weights(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.matrices + a.biases, b.matrices + b.biases))


def scaled_and_split(data, seed):
    """Encoded rows, scaled targets and ``train``'s (fit, validation) rows
    at the default validation fraction."""
    X, y = encode_dataset(data)
    perm = np.random.default_rng(seed).permutation(data.n)
    n_val = round(0.2 * data.n)
    return X, TargetScaler.fit(y).scale(y), perm[n_val:], perm[:n_val]


# case -> (rows, learning rate, hidden layers, seed, whether early stopping ends the run)
DESCENT_CASES = {
    "3-hidden0": (60, 0.3, (8,), 3, True),
    "3-hidden1": (60, 0.3, (4, 3), 3, True),
    "5-hidden0": (60, 0.3, (8,), 5, True),
    "5-hidden1": (60, 0.3, (4, 3), 5, True),
    "1-one-unit": (60, 0.3, (1,), 1, True),
    "6-one-unit": (60, 0.3, (1,), 6, True),
    "640-rows": (640, 0.4, (8,), 1, False),
    # 82 fit and 21 validation rows: neither block is a multiple of 4 rows
    "103-rows": (103, 0.3, (8,), 1, True),
    "640-rows-hidden1": (640, 0.4, (8, 4), 2, True),
    # 800 fit and 200 validation rows, as `fit` on a 2000-row CSV trains
    "1000-rows": (1000, 0.4, (8,), 3, False),
}


@pytest.mark.parametrize("case", DESCENT_CASES)
def test_descend_equals_two_pass_loop(case):
    """The one-pass descent in its reused workspace changes no bit of any
    result, for ``train`` (early stopping) and ``train_trajectory``
    (snapshots)."""
    n, rate, hidden, seed, stops_early = DESCENT_CASES[case]
    data = generate_synthetic(GeneratorParams(n=n, seed=seed))
    topology = NetworkTopology(hidden=hidden)
    cfg = TrainingConfig(learning_rate=rate, max_epochs=800, early_stop_patience=15, seed=seed)
    X, targets, fit, val = scaled_and_split(data, seed)

    want = two_pass_descend(init_weights(topology, seed), X[fit], targets[fit], rate, 800,
                            X_val=X[val], val_targets=targets[val], patience=15)
    model = train(data, topology=topology, training=cfg)
    assert 100 < len(want["train_loss"]) <= 800
    assert (len(want["train_loss"]) < 800) == stops_early
    assert model.stopped_epoch == want["best_epoch"]
    assert same_weights(model.weights, want["best_weights"])
    assert model.train_loss == tuple(want["train_loss"][:want["best_epoch"]])
    assert model.val_loss == tuple(want["val_loss"][:want["best_epoch"]])

    want = two_pass_descend(init_weights(topology, seed), X, targets, rate, 150,
                            checkpoints=[1, 40, 150])
    snaps = list(train_trajectory(data, topology, cfg, [1, 40, 150]))
    assert [m.stopped_epoch for m in snaps] == [1, 40, 150]
    assert all(same_weights(m.weights, want["snapshots"][m.stopped_epoch]) for m in snaps)


def test_one_gradient_pass_per_epoch(monkeypatch):
    real = ann._gradients
    calls = []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(ann, "_gradients", counted)
    data = generate_synthetic(GeneratorParams(n=60, seed=3))
    cfg = TrainingConfig(learning_rate=0.3, max_epochs=800, early_stop_patience=15, seed=3)
    model = train(data, training=cfg)
    epochs = model.stopped_epoch + 15  # the run ends patience epochs after the best
    assert epochs < 800 and len(calls) == epochs + 1
    calls.clear()
    data = generate_synthetic(GeneratorParams(n=40, seed=3))
    snaps = train_trajectory(data, DEFAULT_TOPOLOGY, TrainingConfig(), [25, 60])
    assert calls == []  # lazy: no descent before the first model is asked for
    assert next(snaps).stopped_epoch == 25 and len(calls) == 26
    assert [m.stopped_epoch for m in snaps] == [60] and len(calls) == 61


def test_kept_weights_stay_put_while_descent_goes_on():
    """Descent overwrites one workspace every epoch, so what a caller keeps
    must be a copy: a snapshot taken early is unchanged after later epochs,
    and ``train`` returns its best epoch, not the last one it ran."""
    data = generate_synthetic(GeneratorParams(n=60, seed=3))
    snaps = train_trajectory(data, DEFAULT_TOPOLOGY,
                             TrainingConfig(learning_rate=0.3), [10, 200])
    early = next(snaps).weights
    kept = early.copy()
    [late] = [m.weights for m in snaps]
    assert same_weights(early, kept) and not same_weights(early, late)

    cfg = dict(learning_rate=0.3, early_stop_patience=15, seed=3)
    model = train(data, training=TrainingConfig(max_epochs=800, **cfg))
    capped = train(data, training=TrainingConfig(max_epochs=model.stopped_epoch, **cfg))
    assert model.stopped_epoch < 800 - 15  # the run went on past its best epoch
    assert same_weights(model.weights, capped.weights)


def test_descent_epochs_allocate_nothing():
    """After warm-up, 200 epochs at n = 640 write only into the run's
    workspace: the traced peak rises by less than one (n, h) array."""
    data = generate_synthetic(GeneratorParams(n=640, seed=1))
    X, targets, _, _ = scaled_and_split(data, 1)
    descent = ann._epochs(init_weights(DEFAULT_TOPOLOGY, 1), X, targets, 0.05)
    for _ in itertools.islice(descent, 5):
        pass
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in itertools.islice(descent, 200):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 640 * 8 * np.dtype(float).itemsize


def test_without_numpys_private_c_einsum_descent_keeps_its_bits(monkeypatch):
    """On a numpy that moves ``numpy._core.multiarray.c_einsum``, a fresh
    import of ``ann`` falls back to ``np.einsum``, the wrapper that calls
    the same C function: a trajectory through two hidden layers, whose bias
    gradients are both einsum sums, gives the default import's weights bit
    for bit."""
    import numpy._core.multiarray as multiarray

    monkeypatch.delattr(multiarray, "c_einsum")
    name = "pricelab._ann_without_c_einsum"
    spec = importlib.util.spec_from_file_location(name, ann.__file__)
    fallback = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, fallback)
    spec.loader.exec_module(fallback)
    assert fallback.c_einsum is np.einsum
    data = generate_synthetic(GeneratorParams(n=40, seed=3))
    runs = [
        list(module.train_trajectory(data, module.NetworkTopology(hidden=(4, 3)),
                                     module.TrainingConfig(), [1, 50]))
        for module in (ann, fallback)
    ]
    for model, other in zip(*runs):
        assert all(np.array_equal(a, b) for a, b in zip(
            model.weights.matrices + model.weights.biases,
            other.weights.matrices + other.weights.biases))


def test_train_trajectory_validates_checkpoints():
    data = generate_synthetic(GeneratorParams(n=40, seed=3))
    cfg = TrainingConfig()
    with pytest.raises(ValidationError):
        train_trajectory(data, DEFAULT_TOPOLOGY, cfg, [])
    with pytest.raises(ValidationError):
        train_trajectory(data, DEFAULT_TOPOLOGY, cfg, [0, 10])


def test_artifact_round_trip(tmp_path):
    model = train(
        generate_synthetic(GeneratorParams(n=50, seed=6)),
        training=TrainingConfig(max_epochs=100),
    )
    path = tmp_path / "ann.model"
    save_model(model, path)
    back = load_model(path)
    assert isinstance(back, AnnModel)
    assert back.topology == model.topology
    assert back.scaler == model.scaler
    assert back.stopped_epoch == model.stopped_epoch
    assert all(np.array_equal(a, b)
               for a, b in zip(back.weights.matrices, model.weights.matrices))
    assert all(np.array_equal(a, b)
               for a, b in zip(back.weights.biases, model.weights.biases))
    assert back.train_loss == back.val_loss == ()
    X = np.full((1, 6), 0.5)
    assert np.array_equal(predict_ann(back, X), predict_ann(model, X))
    with pytest.raises(ValidationError):
        predict_ann(back, np.zeros((1, 5)))
    # the network alone: no loss histories and no shape keys that ``hidden`` fixes
    text = path.read_text()
    assert not [line for line in text.splitlines() if line == "[loss_history]"
                or line.split(" = ")[0] in ("inputs", "outputs", "rows", "cols")]
    # artifacts that still carry those lines, as older versions wrote them, load the same
    sizes = model.topology.layer_sizes()
    text = text.replace("\nhidden = ", f"\ninputs = {sizes[0]}\nhidden = ", 1)
    text = text.replace("\nscaler_lo = ", f"\noutputs = {sizes[-1]}\nscaler_lo = ", 1)
    for index, w in enumerate(model.weights.matrices):
        text = text.replace(f"[layer {index}]\n",
                            f"[layer {index}]\nrows = {w.shape[0]}\ncols = {w.shape[1]}\n", 1)
    text += "[loss_history]\n" + "".join(
        f"{key} = {' '.join(map(repr, losses))}\n"
        for key, losses in (("train", model.train_loss), ("val", model.val_loss))
    )
    path.write_text(text)
    old = load_model(path)
    assert "[loss_history]" in path.read_text() and len(model.train_loss) > 0
    assert np.array_equal(predict_ann(old, X), predict_ann(model, X))
