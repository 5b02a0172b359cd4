"""Evaluation harness: accuracy bands, overfit scans, learning curves,
comparison reports."""

from dataclasses import replace

import numpy as np
import pytest
from pytest import approx

from conftest import make_dataset
from pricelab.ann import TrainingConfig, train
from pricelab.dataset import (
    EncodingConfig,
    Gender,
    GeneratorParams,
    PriorClaim,
    generate_synthetic,
    split_half,
)
from pricelab.errors import ValidationError
from pricelab.evaluation import (
    AccuracyBand,
    AnnFamily,
    GamFamily,
    GlmFamily,
    LearningCurve,
    accuracy_band,
    FAMILIES,
    compare,
    format_band,
    learning_curve,
    learning_curve_csv,
    overfit_scan,
    render_markdown,
    report_csv,
    _detect_threshold,
    _relative_rmse,
)
from pricelab.gam import fit_gam
from pricelab.glm import LinkKind, fit_glm


def flat_records(expenditures, age0=20):
    """One record per expenditure, ages distinct so tests can key on them."""
    return make_dataset([
        (i + 1, Gender.FEMALE, age0 + i, 1000.0, False, PriorClaim.NONE, float(e))
        for i, e in enumerate(expenditures)
    ])


def age_keyed_predictor(mapping, age0=20):
    """Predicts by decoding the age feature back to the record index."""
    def predict(X):
        return np.array([mapping[int(round(x[1] * 62 + 18)) - age0] for x in X])
    return predict


# ------------------------------------------------------------------- band


def test_band_hand_example():
    test = flat_records([1000.0, 1000.0, 1000.0])
    predict = age_keyed_predictor({0: 940.0, 1: 1070.0, 2: 1000.0})
    band = accuracy_band(predict, test, trim_fraction=0.0)
    assert band.ratio_min == approx(0.94)
    assert band.ratio_max == approx(1.07)
    assert band.n_evaluated == 3
    assert band.n_excluded == 0
    assert format_band(band) == "94%~107%"


def test_band_perfect_predictions():
    test = flat_records([800.0, 1200.0, 5000.0])
    band = accuracy_band(age_keyed_predictor({0: 800.0, 1: 1200.0, 2: 5000.0}),
                         test, trim_fraction=0.0)
    assert (band.ratio_min, band.ratio_max) == (1.0, 1.0)
    assert format_band(band) == "100%~100%"


def test_band_trimming_drops_tails():
    # 20 records; ratios are 1.0 except one 0.5 and one 2.0 outlier
    values = [1000.0] * 20
    test = flat_records(values)
    mapping = {i: 1000.0 for i in range(20)}
    mapping[3] = 500.0
    mapping[11] = 2000.0
    loose = accuracy_band(age_keyed_predictor(mapping), test, trim_fraction=0.0)
    assert (loose.ratio_min, loose.ratio_max) == approx((0.5, 2.0))
    # floor(20 * 0.05) = 1 dropped from each tail
    trimmed = accuracy_band(age_keyed_predictor(mapping), test, trim_fraction=0.05)
    assert (trimmed.ratio_min, trimmed.ratio_max) == approx((1.0, 1.0))
    assert trimmed.n_evaluated == 20


def test_band_floor_and_zero_exclusion():
    test = flat_records([0.0, 200.0, 1000.0, 2000.0])
    predict = age_keyed_predictor({i: 1000.0 for i in range(4)})
    band = accuracy_band(predict, test)  # default floor 500
    assert band.n_excluded == 2
    assert band.n_evaluated == 2
    assert band.ratio_min == approx(0.5)
    assert band.ratio_max == approx(1.0)
    with pytest.raises(ValidationError, match="floor"):
        accuracy_band(predict, flat_records([100.0, 200.0]))


def test_band_validation():
    test = flat_records([1000.0])
    predict = age_keyed_predictor({0: 1000.0})
    with pytest.raises(ValidationError):
        accuracy_band(predict, test, trim_fraction=0.5)
    with pytest.raises(ValidationError):
        accuracy_band(predict, test, floor=-1.0)
    with pytest.raises(ValidationError):
        AccuracyBand(ratio_min=1.2, ratio_max=0.8, n_evaluated=1,
                     n_excluded=0, trim_fraction=0.0)
    with pytest.raises(ValidationError, match="expenditure"):
        accuracy_band(predict, replace(test, expenditure=None))


def test_format_band_rounds_to_integer_percent():
    band = AccuracyBand(0.9449, 1.0751, 10, 0, 0.0)
    assert format_band(band) == "94%~108%"


def test_relative_rmse():
    assert _relative_rmse(np.array([1.0, 2.0]), np.array([1.0, 1.0])) == approx(
        np.sqrt(0.5)
    )
    with pytest.raises(ValidationError):
        _relative_rmse(np.array([1.0]), np.array([0.0]))


# ------------------------------------------------------------------- detector


def test_detect_threshold_hand_cases():
    train_err = [5, 4, 3, 2, 1, 0.9, 0.8]
    val_err = [5, 4, 3, 3.1, 3.2, 3.3, 3.4]
    assert _detect_threshold(train_err, val_err, patience=3) == 3
    # monotone validation: nothing to report
    assert _detect_threshold(train_err, [5, 4, 3, 2.5, 2, 1.5, 1], patience=3) is None
    # rise too short for the patience
    assert _detect_threshold(train_err, [5, 4, 3, 3.1, 3.2, 3.1, 3.0], patience=3) is None
    # validation rises but training is not improving at the upturn
    flat_train = [5, 4, 3, 3, 3, 3, 3]
    assert _detect_threshold(flat_train, val_err, patience=3) is None


def test_detect_threshold_requires_full_window():
    # the rise starts so late the patience window runs off the end
    assert _detect_threshold([3, 2, 1], [3, 2, 2.5], patience=3) is None


# ------------------------------------------------------------------- scans


def test_overfit_scan_glm_single_point():
    data = generate_synthetic(GeneratorParams(n=60, seed=0))
    report = overfit_scan(GlmFamily(), data, seed=0)
    assert report.family == "glm"
    assert report.steps == (0.0,)
    assert len(report.train_error) == len(report.val_error) == 1
    assert not report.threshold_found
    assert report.threshold is None


def test_overfit_scan_needs_rows():
    data = generate_synthetic(GeneratorParams(n=9, seed=0))
    with pytest.raises(ValidationError, match="at least 10"):
        overfit_scan(GlmFamily(), data)


def test_overfit_scan_ladder_validation():
    data = generate_synthetic(GeneratorParams(n=60, seed=0))
    with pytest.raises(ValidationError, match="increasing"):
        overfit_scan(AnnFamily(), data, steps=[500, 400, 300])
    with pytest.raises(ValidationError, match="decreasing"):
        overfit_scan(GamFamily(), data, steps=[1e-3, 1e-2])


def test_overfit_scan_clean_data_finds_nothing():
    """Without noise there is nothing to overfit to: the validation error
    keeps tracking the training error down the whole ladder."""
    data = generate_synthetic(
        GeneratorParams(n=100, seed=0, noise_scale=0.0, interaction=0.0)
    )
    report = overfit_scan(AnnFamily(), data, steps=range(100, 1501, 100), seed=0)
    assert not report.threshold_found
    assert report.threshold is None
    assert max(
        abs(v - t) for v, t in zip(report.val_error, report.train_error)
    ) < 0.10


def test_overfit_scan_noisy_data_finds_threshold():
    """A hot learning rate on noisy data overfits within a short ladder."""
    data = generate_synthetic(GeneratorParams(noise_scale=900.0, seed=2))
    train_half, _ = split_half(data, seed=2)
    report = overfit_scan(
        AnnFamily(training=TrainingConfig(learning_rate=0.4)),
        train_half,
        steps=range(200, 4001, 200),
        seed=2,
    )
    assert report.family == "ann"
    assert report.threshold_found
    t = report.threshold_step
    assert report.threshold == report.train_error[t]
    # the defining property of the detected step
    for k in range(report.patience):
        assert report.val_error[t + k] > report.val_error[t + k - 1]
    assert report.train_error[t] < report.train_error[t - 1]
    assert report.steps == tuple(float(e) for e in range(200, 4001, 200))


# ------------------------------------------------------------------- curve


def test_learning_curve_validation():
    with pytest.raises(ValidationError, match="increasing"):
        learning_curve(GlmFamily(), GeneratorParams(), sizes=[200, 100], seeds=[0])
    with pytest.raises(ValidationError, match="seed"):
        learning_curve(GlmFamily(), GeneratorParams(), sizes=[100], seeds=[])


def test_learning_curve_records_missing_cells():
    """The linear family has a one-point ladder, so no cell can ever find a
    threshold; every cell must be recorded as missing, never zero."""
    curve = learning_curve(
        GlmFamily(), GeneratorParams(), sizes=[100, 200], seeds=[0, 1]
    )
    assert len(curve.cells) == 4
    assert {(n, s) for n, s, _ in curve.cells} == {(100, 0), (100, 1), (200, 0), (200, 1)}
    assert all(t is None for _, _, t in curve.cells)
    assert curve.mean_thresholds() == ((100, None, None, 0), (200, None, None, 0))
    csv = learning_curve_csv(curve)
    lines = csv.strip().splitlines()
    assert lines[0] == "n,seed,threshold"
    assert lines[1] == "100,0,"
    assert len(lines) == 5


def test_mean_thresholds_hand_example():
    curve = LearningCurve(
        cells=((100, 0, 0.2), (100, 1, 0.3), (200, 0, None), (200, 1, 0.4)),
        sizes=(100, 200),
    )
    rows = curve.mean_thresholds()
    assert rows[0][0] == 100
    assert rows[0][1] == approx(0.25)
    # std([.2, .3], ddof=1)/sqrt(2) = 0.05
    assert rows[0][2] == approx(0.05)
    assert rows[0][3] == 2
    # single found cell: SE reported as 0, not NaN
    assert rows[1] == (200, approx(0.4), 0.0, 1)


# ------------------------------------------------------------------- compare


def interaction_datasets():
    data = generate_synthetic(
        GeneratorParams(seed=0, interaction=12000.0, noise_scale=300.0)
    )
    return split_half(data, seed=0)


def test_compare_refuses_leakage():
    train_half, test_half = interaction_datasets()
    model = fit_glm(train_half)
    with pytest.raises(ValidationError, match="leakage"):
        compare([model], train_half, train=train_half)
    compare([model], test_half, train=train_half)  # disjoint halves are fine


def test_compare_refuses_mixed_encodings():
    train_half, test_half = interaction_datasets()
    other = EncodingConfig(age_range=(18.0, 90.0))
    a = fit_glm(train_half)
    b = fit_glm(train_half, other)
    with pytest.raises(ValidationError, match="encoding"):
        compare([a, b], test_half)


def test_compare_without_train_skips_scans():
    train_half, test_half = interaction_datasets()
    report = compare([fit_glm(train_half)], test_half)
    result = report.results[0]
    assert result.overfit is None
    assert result.interaction_finding == "none"
    assert "not scanned" in render_markdown(report)


def test_compare_full_report():
    train_half, test_half = interaction_datasets()
    glm = fit_glm(train_half)
    gam = fit_gam(train_half)
    report = compare([glm, gam], test_half, train=train_half)
    names = [r.name for r in report.results]
    assert names == ["glm", "gam"]
    gam_result = report.results[1]
    # the planted smoker x severity interaction tops the findings
    assert gam_result.interaction_finding.startswith("smoker*claim_severity")
    assert gam_result.overfit is not None

    md = render_markdown(report)
    assert "## Prediction accuracy" in md
    assert "## Overfitting" in md
    assert "| glm | normal |" in md
    assert "| gam | normal |" in md

    csv = report_csv(report)
    lines = csv.strip().splitlines()
    assert lines[0].startswith("model,ratio_min,ratio_max,")
    assert len(lines) == 3


def test_compare_results_ignore_wall_time():
    """Result equality is about the numbers, not how long the run took."""
    train_half, test_half = interaction_datasets()
    model = fit_glm(train_half)
    a = compare([model], test_half).results[0]
    b = compare([model], test_half).results[0]
    assert a == b


def test_compare_needs_models():
    _, test_half = interaction_datasets()
    with pytest.raises(ValidationError):
        compare([], test_half)


# ------------------------------------------------------------------- families


def test_family_round_trips():
    train_half, _ = interaction_datasets()
    glm = fit_glm(train_half, link=LinkKind.LOG)
    fam = FAMILIES[glm.family].of(glm)
    assert isinstance(fam, GlmFamily) and fam.link is LinkKind.LOG
    gam = fit_gam(train_half)
    fam = FAMILIES[gam.family].of(gam)
    assert isinstance(fam, GamFamily) and fam.smooth == gam.smooth_config
    ann = train(train_half, training=TrainingConfig(max_epochs=50))
    fam = FAMILIES[ann.family].of(ann)
    assert isinstance(fam, AnnFamily) and fam.topology == ann.topology


def test_family_predict_matches_direct_calls():
    train_half, _ = interaction_datasets()
    from pricelab.ann import predict_ann
    from pricelab.gam import predict_gam
    from pricelab.glm import predict_glm
    X = np.full((3, 6), 0.5)
    for model, direct in (
        (fit_glm(train_half), predict_glm),
        (fit_gam(train_half), predict_gam),
        (train(train_half, training=TrainingConfig(max_epochs=50)), predict_ann),
    ):
        assert np.array_equal(FAMILIES[model.family].predict(model, X), direct(model, X))
