"""Linear model: exact recovery, independent solver oracle, failure modes."""

import math
from dataclasses import replace

import numpy as np
import pytest
from pytest import approx

from conftest import make_dataset
from pricelab.artifacts import load_model, save_model
from pricelab.dataset import (
    Gender,
    GeneratorParams,
    PriorClaim,
    encode_dataset,
    generate_synthetic,
)
from pricelab.errors import NumericError, SingularityError, ValidationError
from pricelab.glm import GlmModel, LinkKind, fit_glm, predict_glm

TRUE_COEF = np.array([500.0, 4000.0, -1000.0, 1500.0, 2000.0, 6000.0])


def gauss_jordan_solve(A, b):
    """Reference linear solver: Gauss-Jordan elimination with partial
    pivoting, written independently of the library's SVD/solve path."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    n = A.shape[0]
    M = np.hstack([A, b[:, None]])
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(M[col:, col])))
        if abs(M[pivot, col]) < 1e-300:
            raise ZeroDivisionError("singular system")
        M[[col, pivot]] = M[[pivot, col]]
        M[col] = M[col] / M[col, col]
        for row in range(n):
            if row != col:
                M[row] = M[row] - M[row, col] * M[col]
    return M[:, -1]


def noiseless_linear_data(n=60, seed=0):
    """Synthetic data whose response is *exactly* affine in the features.

    With base_cost large the soft-plus output map satisfies
    softplus(eta) == eta to the last bit (log1p(exp(-11000)) underflows),
    so the generating coefficients are recoverable to machine precision.
    """
    params = GeneratorParams(
        n=n, seed=seed, base_cost=12000.0, interaction=0.0, noise_scale=0.0
    )
    return generate_synthetic(params), params


def test_noiseless_recovery():
    data, params = noiseless_linear_data()
    model = fit_glm(data)
    assert model.intercept == approx(params.base_cost, abs=1e-8)
    assert model.coef == approx(TRUE_COEF, abs=1e-8)
    assert model.rss == approx(0.0, abs=1e-10)
    assert model.iterations == 1
    assert model.link is LinkKind.IDENTITY


def test_matches_gauss_jordan_oracle():
    """Same normal equations solved by an unrelated algorithm must agree."""
    data = generate_synthetic(GeneratorParams(n=80, seed=3))
    model = fit_glm(data)
    X, y = encode_dataset(data)
    design = np.hstack([np.ones((80, 1)), X])
    beta = gauss_jordan_solve(design.T @ design, design.T @ y)
    assert model.intercept == approx(beta[0], abs=1e-10 * max(1, abs(beta[0])))
    assert model.coef == approx(beta[1:], rel=1e-10)
    resid = y - design @ beta
    assert model.rss == approx(float(resid @ resid), rel=1e-12)


def test_underdetermined_raises():
    data = generate_synthetic(GeneratorParams(n=30, seed=1))
    with pytest.raises(SingularityError, match="underdetermined"):
        fit_glm(data.take(slice(7)))
    fit_glm(data.take(slice(8)))  # one extra row suffices (full rank here)


def constant_column_records(n=20):
    rng = np.random.default_rng(4)
    return make_dataset([
        (
            i + 1,
            Gender.MALE if rng.integers(2) else Gender.FEMALE,
            int(rng.integers(18, 81)),
            float(rng.integers(0, 150001)),
            False,            # constant zero column
            PriorClaim.NONE,  # two more constant zero columns
            float(rng.integers(100, 50000)),
        )
        for i in range(n)
    ])


def test_ridge_fallback_keeps_fitting():
    model = fit_glm(constant_column_records())
    assert math.isfinite(model.intercept)
    assert np.all(np.isfinite(model.coef))


def test_rank_deficient_design_gets_the_minimum_norm_solution():
    """Three zero columns: of all least-squares solutions the fit is the
    one of least norm, the pseudo-inverse's, so those coefficients are 0."""
    data = constant_column_records()
    model = fit_glm(data)
    X, y = encode_dataset(data)
    design = np.hstack([np.ones((data.n, 1)), X])
    beta = np.linalg.pinv(design) @ y
    assert model.intercept == approx(beta[0], rel=1e-9)
    assert model.coef == approx(beta[1:], rel=1e-9, abs=1e-9)
    assert model.coef[3:] == approx(np.zeros(3), abs=1e-9)


def test_a_system_that_is_not_finite_is_refused_before_lapack(capfd):
    """Every 7th expenditure of the README portfolio at 1e300 overflows the
    log link's working response: NumericError, and LAPACK, which would
    print to the process's stderr, never sees the system."""
    data = generate_synthetic(GeneratorParams(n=200, seed=7))
    y = data.expenditure.copy()
    y[6::7] = 1e300
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="not finite"):
        fit_glm(replace(data, expenditure=y), link=LinkKind.LOG)
    assert capfd.readouterr().err == ""


def test_log_link_recovers_multiplicative_structure():
    """Records built so y = exp(0.5 + 1.2*gender + 2.0*smoker) exactly."""
    rows = []
    rng = np.random.default_rng(7)
    for i in range(40):
        gender = Gender.MALE if rng.integers(2) else Gender.FEMALE
        smoker = bool(rng.integers(2))
        rows.append((i + 1, gender, int(rng.integers(18, 81)),
                     float(rng.integers(0, 150001)), smoker, PriorClaim.NONE, None))
    data = make_dataset(rows)
    X, _ = encode_dataset(data)
    data = replace(data, expenditure=np.exp(0.5 + 1.2 * X[:, 0] + 2.0 * X[:, 3]))
    model = fit_glm(data, link=LinkKind.LOG)
    assert model.link is LinkKind.LOG
    assert model.intercept == approx(0.5, abs=1e-6)
    assert model.coef[0] == approx(1.2, abs=1e-6)
    assert model.coef[3] == approx(2.0, abs=1e-6)
    assert model.rss == approx(0.0, abs=1e-8)
    assert model.iterations >= 1
    assert predict_glm(model, X[:1])[0] > 0


def test_log_link_on_generated_data_stays_positive():
    data = generate_synthetic(GeneratorParams(n=120, seed=5))
    model = fit_glm(data, link=LinkKind.LOG)
    X, _ = encode_dataset(data)
    assert np.all(predict_glm(model, X) > 0)


def test_permutation_invariance():
    data = generate_synthetic(GeneratorParams(n=50, seed=6))
    shuffled = data.take(np.random.default_rng(0).permutation(50))
    a = fit_glm(data)
    b = fit_glm(shuffled)
    assert a.intercept == approx(b.intercept, rel=1e-9)
    assert a.coef == approx(b.coef, rel=1e-9)


def test_affine_response_invariance():
    """y -> a*y + b must map the solution to a*beta (+ b on the intercept)."""
    data = generate_synthetic(GeneratorParams(n=64, seed=8))
    scaled = replace(data, expenditure=2.5 * data.expenditure + 300.0)
    base = fit_glm(data)
    moved = fit_glm(scaled)
    assert moved.intercept == approx(2.5 * base.intercept + 300.0, rel=1e-12)
    assert moved.coef == approx(2.5 * base.coef, rel=1e-12)


def test_constant_response_gives_flat_model():
    data = generate_synthetic(GeneratorParams(n=30, seed=9))
    model = fit_glm(replace(data, expenditure=np.full(30, 4242.0)))
    assert model.intercept == approx(4242.0, abs=1e-8)
    assert model.coef == approx(np.zeros(6), abs=1e-8)


def test_refuses_missing_response():
    data = generate_synthetic(GeneratorParams(n=12, seed=0))
    with pytest.raises(ValidationError, match="expenditure"):
        fit_glm(replace(data, expenditure=None))


def test_predict_validates_shape():
    model = fit_glm(generate_synthetic(GeneratorParams(n=20, seed=0)))
    with pytest.raises(ValidationError):
        predict_glm(model, np.zeros((3, 5)))
    with pytest.raises(ValidationError):  # one row is a batch of one, not a vector
        predict_glm(model, np.zeros(6))


def test_artifact_round_trip(tmp_path):
    for link in (LinkKind.IDENTITY, LinkKind.LOG):
        model = fit_glm(generate_synthetic(GeneratorParams(n=40, seed=2)), link=link)
        path = tmp_path / f"glm_{link.value}.model"
        save_model(model, path)
        back = load_model(path)
        assert isinstance(back, GlmModel)
        assert back.link is model.link
        assert back.intercept == model.intercept
        assert np.array_equal(back.coef, model.coef)
        assert back.rss == model.rss
        assert back.encoding == model.encoding
