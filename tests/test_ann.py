"""Backprop network: forward/gradient correctness, training behavior."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx

from pricelab.ann import (
    AnnModel,
    NetworkTopology,
    TargetScaler,
    TrainingConfig,
    Weights,
    forward,
    gradient_check,
    init_weights,
    loss_history_csv,
    predict_ann,
    sigmoid,
    train,
    train_trajectory,
)
from pricelab.artifacts import load_model, save_model
from pricelab.dataset import (
    DEFAULT_ENCODING,
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


def test_sigmoid_values_and_stability():
    assert sigmoid(np.array([0.0])) == approx(0.5)
    big = sigmoid(np.array([800.0, -800.0]))
    assert big[0] == 1.0 and big[1] == 0.0  # no overflow warnings, saturates
    z = np.linspace(-5, 5, 11)
    assert sigmoid(-z) == approx(1.0 - sigmoid(z), abs=1e-15)


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
    out, acts = forward(zero, np.full(6, 0.3))
    assert out == 0.0
    assert acts[1] == approx(np.full(8, 0.5))
    ones_out = Weights(
        matrices=(np.zeros((8, 6)), np.ones((1, 8))),
        biases=(np.zeros(8), np.zeros(1)),
    )
    out, _ = forward(ones_out, np.full(6, 0.3))
    assert out == approx(4.0)


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
    out, acts = forward(w, x)
    assert out == approx(expected, abs=1e-12)
    assert acts[1] == approx(hidden, abs=1e-12)


def test_forward_validates_input_length():
    w = init_weights(DEFAULT_TOPOLOGY, seed=0)
    with pytest.raises(ValidationError):
        forward(w, np.zeros(5))


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
    with pytest.raises(ValidationError):
        NetworkTopology(outputs=2)
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
    with pytest.raises(ValidationError, match="inputs"):
        train(generate_synthetic(GeneratorParams(n=20, seed=0)),
              topology=NetworkTopology(inputs=4))


def test_train_trajectory_checkpoints_match_shorter_runs():
    """Full-batch descent is deterministic, so the epoch-e snapshot of one
    long run must equal the final state of a run capped at e."""
    data = generate_synthetic(GeneratorParams(n=40, seed=3))
    cfg = TrainingConfig(max_epochs=10)  # max_epochs unused by trajectory
    scaler_a, snaps = train_trajectory(data, DEFAULT_ENCODING, DEFAULT_TOPOLOGY, cfg, [30, 60])
    scaler_b, short = train_trajectory(data, DEFAULT_ENCODING, DEFAULT_TOPOLOGY, cfg, [30])
    assert scaler_a == scaler_b
    assert snaps[0][0] == 30 and snaps[1][0] == 60
    w_long = snaps[0][1]
    w_short = short[0][1]
    assert all(np.array_equal(a, b)
               for a, b in zip(w_long.matrices, w_short.matrices))


def test_train_trajectory_validates_checkpoints():
    data = generate_synthetic(GeneratorParams(n=40, seed=3))
    cfg = TrainingConfig()
    with pytest.raises(ValidationError):
        train_trajectory(data, DEFAULT_ENCODING, DEFAULT_TOPOLOGY, cfg, [])
    with pytest.raises(ValidationError):
        train_trajectory(data, DEFAULT_ENCODING, DEFAULT_TOPOLOGY, cfg, [0, 10])


def test_loss_history_csv_shape():
    model = train(
        generate_synthetic(GeneratorParams(n=40, seed=1)),
        training=TrainingConfig(max_epochs=50),
    )
    lines = loss_history_csv(model).strip().splitlines()
    assert lines[0] == "epoch,train_mse,val_mse"
    assert len(lines) == 1 + model.stopped_epoch


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
    X = np.full((1, 6), 0.5)
    assert np.array_equal(predict_ann(back, X), predict_ann(model, X))
    with pytest.raises(ValidationError):
        predict_ann(back, np.zeros((1, 5)))
