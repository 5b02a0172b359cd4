"""Additive model: penalized fit, interaction diagnostics, collinearity."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from pytest import approx

from pricelab.artifacts import load_model, save_model
from pricelab.dataset import (
    GeneratorParams,
    encode_dataset,
    generate_synthetic,
    split_half,
)
from pricelab.errors import ValidationError
from pricelab.gam import (
    GamModel,
    SmoothConfig,
    add_interaction,
    collinearity_report,
    fit_gam,
    interaction_scan,
    predict_gam,
)
from pricelab.glm import LinkKind, fit_glm, predict_glm

# strong planted smoker x severity interaction over a quiet noise floor
INTERACTION_PARAMS = GeneratorParams(seed=0, interaction=12000.0, noise_scale=300.0)

# RSS comparisons between a model and its interaction refit run at
# float-noise slack: the two RSS values are summed from differently
# rounded fitted values, so they can disagree by a few ulps.
def rss_slack(rss):
    return 1e-9 + 1e-11 * rss


def test_forced_linear_matches_glm():
    """With every smooth forced linear the penalized solve is the same
    least-squares problem as the GLM."""
    data = generate_synthetic(GeneratorParams(n=100, seed=0))
    gam = fit_gam(data, smooth=SmoothConfig(force_linear=True))
    glm = fit_glm(data)
    X, _ = encode_dataset(data)
    gap = np.max(np.abs(predict_gam(gam, X) - predict_glm(glm, X)))
    assert gap < 1e-4


def test_noiseless_additive_fit_is_exact():
    data = generate_synthetic(
        GeneratorParams(n=100, seed=0, base_cost=12000.0,
                        interaction=0.0, noise_scale=0.0)
    )
    model = fit_gam(data)
    assert model.rss < 1e-6


def test_constant_response():
    data = generate_synthetic(GeneratorParams(n=30, seed=1))
    model = fit_gam(replace(data, expenditure=np.full(30, 4200.0)))
    assert model.intercept == 4200.0
    grid = np.linspace(0.0, 1.0, 11)
    for smooth in model.smooths:
        assert smooth(grid) == approx(np.zeros(11), abs=1e-9)


def test_quadratic_age_effect_recovered():
    """A -8000 * age^2 bend must show up in the fitted age smooth.

    Noiseless, interaction-free, decorrelated data; the age component is
    compared against the true centered quadratic on the training sample
    and must agree to 2% of the component's dynamic range (RMS).
    """
    params = GeneratorParams(
        n=200, seed=5, base_cost=12000.0, noise_scale=0.0, interaction=0.0,
        age_curvature=-8000.0, collinearity_rho=0.0,
    )
    data = generate_synthetic(params)
    model = fit_gam(data)
    X, _ = encode_dataset(data)
    ages = X[:, 1]
    truth = 4000.0 * ages - 8000.0 * ages**2
    truth = truth - truth.mean()
    fitted = model.smooths[1](ages)
    rms = float(np.sqrt(np.mean((fitted - truth) ** 2)))
    assert rms <= 0.02 * (truth.max() - truth.min())


def test_fit_reaches_penalized_optimum(gam_oracle):
    """The fit is the minimiser of its penalized objective: no higher than
    scipy's minimum of the same objective beyond float noise."""
    for seed in (0, 1, 2):
        data = generate_synthetic(GeneratorParams(n=80, seed=seed))
        objective, minimum = gam_oracle.objective_and_minimum(fit_gam(data), data)
        assert objective <= minimum * (1 + 1e-9)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(20, 200),
    seed=st.integers(0, 10_000),
    knots=st.integers(2, 8),
    penalty=st.floats(1e-6, 30.0),
)
def test_fit_is_centred_and_stationary(gam_oracle, n, seed, knots, penalty):
    """Across the overfit ladder's penalties: components are mean zero on
    the training sample and the penalized objective's gradient vanishes."""
    data = generate_synthetic(GeneratorParams(n=n, seed=seed))
    model = fit_gam(data, smooth=SmoothConfig(knots=knots, penalty=penalty))
    X, _ = encode_dataset(data)
    for j, smooth in enumerate(model.smooths):
        assert float(np.mean(smooth(X[:, j]))) == approx(0.0, abs=1e-8)
    assert gam_oracle.relative_gradient(model, data) < 1e-9


def test_components_mean_zero_on_train():
    data = generate_synthetic(GeneratorParams(n=150, seed=2))
    model = fit_gam(data)
    X, _ = encode_dataset(data)
    for j, smooth in enumerate(model.smooths):
        assert float(np.mean(smooth(X[:, j]))) == approx(0.0, abs=1e-8)


def test_low_cardinality_features_degrade_to_linear():
    data = generate_synthetic(GeneratorParams(n=200, seed=0))
    model = fit_gam(data)
    kinds = [s.kind for s in model.smooths]
    # binary flags and the 5-level severity cannot support 6 knots
    assert kinds[0] == kinds[3] == kinds[4] == kinds[5] == "linear"
    assert kinds[1] == kinds[2] == "spline"


def test_minimum_rows_enforced():
    data = generate_synthetic(GeneratorParams(n=19, seed=0))
    with pytest.raises(ValidationError, match="at least 20"):
        fit_gam(data)


def test_fitted_values_decompose_additively():
    data = generate_synthetic(GeneratorParams(n=60, seed=4))
    model = fit_gam(data)
    X, _ = encode_dataset(data)
    predictions = predict_gam(model, X[:10])
    for x, prediction in zip(X[:10], predictions):
        manual = model.intercept + sum(
            float(model.smooths[j](x[j])) for j in range(6)
        )
        assert prediction == approx(manual, rel=1e-12)


def test_predict_validates_shape():
    model = fit_gam(generate_synthetic(GeneratorParams(n=40, seed=0)))
    with pytest.raises(ValidationError):
        predict_gam(model, np.zeros((1, 4)))
    with pytest.raises(ValidationError):  # one row is a batch of one, not a vector
        predict_gam(model, np.zeros(6))


def test_log_link_predictions_positive():
    data = generate_synthetic(GeneratorParams(n=120, seed=3))
    model = fit_gam(data, link=LinkKind.LOG)
    assert model.link is LinkKind.LOG
    X, _ = encode_dataset(data)
    assert np.all(predict_gam(model, X) > 0)


# ------------------------------------------------------------- interactions


def test_interaction_scan_ranks_planted_pair_first():
    data = generate_synthetic(INTERACTION_PARAMS)
    base = fit_gam(data)
    candidates = interaction_scan(data, base)
    assert len(candidates) == 15  # all unordered pairs of 6 features
    assert {(c.i, c.j) for c in candidates} == {
        (i, j) for i in range(6) for j in range(i + 1, 6)
    }
    top = candidates[0]
    assert (top.i, top.j) == (3, 5)
    assert top.significant
    assert top.score > 0.5
    scores = [c.score for c in candidates]
    assert scores == sorted(scores, reverse=True)


def test_interaction_scan_quiet_without_planted_signal():
    data = generate_synthetic(GeneratorParams(seed=0, interaction=0.0))
    base = fit_gam(data)
    candidates = interaction_scan(data, base, seed=0)
    assert sum(c.significant for c in candidates) <= 2


def test_add_interaction_improves_held_out_error():
    data = generate_synthetic(INTERACTION_PARAMS)
    train, test = split_half(data, seed=0)
    base = fit_gam(train)
    extended = add_interaction(base, 3, 5, train)
    assert [(t.i, t.j) for t in extended.interactions] == [(3, 5)]
    assert extended.rss <= base.rss + rss_slack(base.rss)

    X, y = encode_dataset(test)
    def rmse(model):
        preds = predict_gam(model, X)
        return float(np.sqrt(np.mean((preds - y) ** 2)))
    assert rmse(extended) < 0.7 * rmse(base)


def test_interaction_score_is_the_one_step_rss_drop():
    """Each scanned pair's score is the relative RSS drop of the one-step
    ``add_interaction`` on the scanned rows: on the model's fit rows, and on
    the other half, where the base residual has a nonzero mean and the drop
    includes its n * mean(r)^2 term."""
    train, test = split_half(generate_synthetic(INTERACTION_PARAMS), seed=0)
    base = fit_gam(train)
    for rows in (train, test):
        X, y = encode_dataset(rows)
        residual = y - predict_gam(base, X)
        base_rss = float(residual @ residual)
        candidates = interaction_scan(rows, base)
        assert len(candidates) == 15
        for c in candidates:
            refit = add_interaction(base, c.i, c.j, rows)
            assert refit.rss <= base_rss + rss_slack(base_rss), (c.i, c.j)
            assert c.score == approx((base_rss - refit.rss) / base_rss, abs=1e-9), (c.i, c.j)
    # on the other half the mean term alone is far above the tolerance
    assert rows.n * float(np.mean(residual)) ** 2 / base_rss > 1e-3


def test_interaction_scan_scores_every_pair():
    """Pairs whose earlier fixed-point refit diverged on the portfolio-23
    train half get a score like any other pair."""
    train, _ = split_half(generate_synthetic(GeneratorParams(n=200, seed=23)), 23)
    scores = {(c.i, c.j): c.score for c in interaction_scan(train, fit_gam(train), seed=23)}
    for pair in ((2, 4), (2, 5)):
        assert isinstance(scores[pair], float) and scores[pair] > 0, pair


def test_interaction_scan_on_a_model_with_an_interaction():
    """A pair already in the model explains nothing more of its residual."""
    data = generate_synthetic(INTERACTION_PARAMS)
    extended = add_interaction(fit_gam(data), 3, 5, data)
    candidates = interaction_scan(data, extended)
    assert len(candidates) == 15
    assert not next(c for c in candidates if (c.i, c.j) == (3, 5)).significant


def test_interaction_scan_refuses_a_negative_seed():
    data = generate_synthetic(GeneratorParams(n=60, seed=0))
    with pytest.raises(ValidationError, match="seed"):
        interaction_scan(data, fit_gam(data), seed=-1)


def test_add_interaction_validation():
    data = generate_synthetic(INTERACTION_PARAMS)
    base = fit_gam(data)
    with pytest.raises(ValidationError, match="distinct"):
        add_interaction(base, 2, 2, data)
    with pytest.raises(ValidationError):
        add_interaction(base, 1, 9, data)
    once = add_interaction(base, 3, 5, data)
    with pytest.raises(ValidationError, match="already"):
        add_interaction(once, 5, 3, data)  # order-insensitive duplicate


# ------------------------------------------------------------- collinearity


def test_collinearity_flags_planted_correlation():
    data = generate_synthetic(GeneratorParams(n=500, seed=0, collinearity_rho=0.8))
    report = collinearity_report(data)
    pairs = {(i, j): c for i, j, c in report.flagged}
    assert (3, 5) in pairs
    assert pairs[(3, 5)] > 0.5
    assert report.degenerate == ()
    # smoker and severity decouple when rho is 0 (claim/severity stay
    # structurally coupled, so only the planted pair may disappear)
    quiet = collinearity_report(
        generate_synthetic(GeneratorParams(n=500, seed=0, collinearity_rho=0.0))
    )
    assert (3, 5) not in {(i, j) for i, j, _ in quiet.flagged}


def test_collinearity_matrix_shape_and_symmetry():
    data = generate_synthetic(GeneratorParams(n=100, seed=1))
    report = collinearity_report(data)
    assert report.correlation.shape == (6, 6)
    assert report.correlation == approx(report.correlation.T)
    assert np.diag(report.correlation) == approx(np.ones(6))


def test_collinearity_degenerate_feature():
    data = generate_synthetic(GeneratorParams(n=50, seed=2))
    report = collinearity_report(replace(data, smoker=np.zeros(50, dtype=bool)))
    assert 3 in report.degenerate
    assert report.correlation[3] == approx(np.zeros(6) + np.eye(6)[3])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, seed, rho, constant", [
    (40, 0, 0.3, None), (100, 7, 0.5, None), (200, 13, 0.9, None), (800, 59, 0.3, None),
    (60, 4, 0.5, "smoker"),  # a constant column, zeroed without a warning
])
def test_collinearity_matrix_matches_per_pair_corrcoef(n, seed, rho, constant):
    """Every entry equals the per-pair ``np.corrcoef`` of the two features
    (0 for a degenerate feature, 1 on the diagonal), up to float noise."""
    data = generate_synthetic(GeneratorParams(n=n, seed=seed, collinearity_rho=rho))
    if constant:
        data = replace(data, **{constant: np.zeros(n, dtype=bool)})
    report = collinearity_report(data)
    X, _ = encode_dataset(data)
    for i in range(6):
        for j in range(6):
            if i == j:
                expected = 1.0
            elif i in report.degenerate or j in report.degenerate:
                expected = 0.0
            else:
                expected = np.corrcoef(X[:, i], X[:, j])[0, 1]
            assert report.correlation[i, j] == approx(expected, abs=1e-13), (i, j)
    assert report.degenerate == tuple(np.flatnonzero(X.var(axis=0) < 1e-12))


# ------------------------------------------------------------- persistence


def test_artifact_round_trip(tmp_path):
    data = generate_synthetic(INTERACTION_PARAMS)
    model = add_interaction(fit_gam(data), 3, 5, data)
    path = tmp_path / "gam.model"
    save_model(model, path)
    back = load_model(path)
    assert isinstance(back, GamModel)
    assert back.intercept == model.intercept
    assert back.link is model.link
    assert len(back.interactions) == 1
    assert back.interactions[0].gamma == model.interactions[0].gamma
    for ours, theirs in zip(model.smooths, back.smooths):
        assert theirs.kind == ours.kind
        assert np.array_equal(theirs.knots, ours.knots)
        assert np.array_equal(theirs.values, ours.values)
        assert theirs.slope == ours.slope
        assert theirs.center == ours.center
    X, _ = encode_dataset(data)
    assert np.array_equal(predict_gam(back, X[:5]), predict_gam(model, X[:5]))
    # artifacts that still carry the old ``cycles`` line load the same
    path.write_text(path.read_text().replace("\nrss = ", "\ncycles = 1\nrss = ", 1))
    old = load_model(path)
    assert "cycles = 1" in path.read_text()
    assert np.array_equal(predict_gam(old, X[:5]), predict_gam(model, X[:5]))
