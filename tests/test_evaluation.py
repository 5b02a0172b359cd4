"""Evaluation harness: accuracy bands, overfit scans, learning curves,
comparison reports."""

import math
import multiprocessing
import os
import re
import time
from concurrent.futures import Future
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from pytest import approx

from conftest import _detect_threshold, make_dataset
from pricelab import ann as ann_mod
from pricelab import evaluation
from pricelab import gam as gam_mod
from pricelab.ann import TrainingConfig, train
from pricelab.dataset import (
    MAX_ROWS,
    Gender,
    GeneratorParams,
    PriorClaim,
    encode_with_response,
    generate_synthetic,
    split_half,
)
from pricelab.errors import DivergenceError, ValidationError
from pricelab.evaluation import (
    AccuracyBand,
    DEFAULT_GAM_STEPS,
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
    PATIENCE,
    _relative_rmse,
    _split_for_scan,
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
    with pytest.raises(ValidationError, match="floor must be"):
        accuracy_band(predict, test, floor=math.nan)
    with pytest.raises(ValidationError):
        AccuracyBand(ratio_min=1.2, ratio_max=0.8, n_evaluated=1, n_excluded=0)
    with pytest.raises(ValidationError, match="expenditure"):
        accuracy_band(predict, replace(test, expenditure=None))


@pytest.mark.parametrize("actual, price, edge", [(1e-320, 1000.0, "inf"),
                                                 (1e-320, -1000.0, "-inf"),
                                                 (0.5, 1e306, "2e+306")])
def test_a_band_edge_that_is_not_a_finite_percentage_is_refused(actual, price, edge):
    """A ratio past the float range (a price over a subnormal expenditure),
    or one whose percentage is, cannot be rendered, at either edge: the
    band is refused with one line naming the model."""
    test = flat_records([1000.0, actual])
    predict = age_keyed_predictor({0: 1000.0, 1: price})
    with pytest.raises(ValidationError, match=re.escape(
            f"model 2 (gam): band edge {edge} is not a finite percentage")):
        accuracy_band(predict, test, trim_fraction=0.0, floor=0.0, source="model 2 (gam)")


def test_format_band_rounds_to_integer_percent():
    band = AccuracyBand(0.9449, 1.0751, 10, 0)
    assert format_band(band) == "94%~108%"


def test_relative_rmse():
    assert _relative_rmse(np.array([1.0, 2.0]), np.array([1.0, 1.0])) == approx(
        np.sqrt(0.5)
    )
    with pytest.raises(ValidationError):
        _relative_rmse(np.array([1.0]), np.array([0.0]))


# ------------------------------------------------------------------- detector


def test_detect_threshold_hand_cases():
    assert PATIENCE == 3  # the cases below are written for it
    train_err = [5, 4, 3, 2, 1, 0.9, 0.8]
    val_err = [5, 4, 3, 3.1, 3.2, 3.3, 3.4]
    assert _detect_threshold(train_err, val_err) == 3
    # monotone validation: nothing to report
    assert _detect_threshold(train_err, [5, 4, 3, 2.5, 2, 1.5, 1]) is None
    # rise too short for the patience
    assert _detect_threshold(train_err, [5, 4, 3, 3.1, 3.2, 3.1, 3.0]) is None
    # validation rises but training is not improving at the upturn
    flat_train = [5, 4, 3, 3, 3, 3, 3]
    assert _detect_threshold(flat_train, val_err) is None


def test_detect_threshold_requires_full_window():
    # the rise starts so late the patience window runs off the end
    assert _detect_threshold([3, 2, 1], [3, 2, 2.5]) is None


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


def test_negative_scan_seeds_are_refused():
    data = generate_synthetic(GeneratorParams(n=60, seed=0))
    with pytest.raises(ValidationError, match="seed"):
        overfit_scan(GlmFamily(), data, seed=-1)
    train_half, test_half = split_half(data, seed=0)
    with pytest.raises(ValidationError, match="seed"):
        compare([fit_glm(train_half)], test_half, train=train_half, seed=-1)


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
    for k in range(PATIENCE):
        assert report.val_error[t + k] > report.val_error[t + k - 1]
    assert report.train_error[t] < report.train_error[t - 1]
    # the scan stops once the upturn is detected
    assert report.steps == tuple(float(e) for e in range(200, 4001, 200))[: t + PATIENCE]


def full_ladder_scan(family, train, steps, seed):
    """The reference scan: score every step of the ladder, then look for the
    first upturn in the whole sequence."""
    fit_half, val_half = _split_for_scan(train, seed)
    X_fit, y_fit = encode_with_response(fit_half)
    X_val, y_val = encode_with_response(val_half)
    ladder = list(family.ladder(fit_half, steps))
    train_err = [_relative_rmse(family.predict(m, X_fit), y_fit) for _, m in ladder]
    val_err = [_relative_rmse(family.predict(m, X_val), y_val) for _, m in ladder]
    return [step for step, _ in ladder], train_err, val_err, _detect_threshold(train_err, val_err)


def compare_train_half(portfolio):
    """The train half ``pricelab compare`` scans for a 200-row portfolio whose
    models were fit with ``--seed portfolio``."""
    data = generate_synthetic(GeneratorParams(n=200, seed=portfolio))
    _, test_half = split_half(data, portfolio)
    return data.take(~np.isin(data.ids, test_half.ids))


HOT_ANN = AnnFamily(training=TrainingConfig(learning_rate=0.4))
CURVE_PARAMS = GeneratorParams(noise_scale=1500.0, noise_outlier_rate=0.0)

# case -> (family, train set, steps, scan seed, whether a threshold is found)
SCAN_CASES = {
    "ann-noisy-half": lambda: (
        HOT_ANN, split_half(generate_synthetic(GeneratorParams(noise_scale=900.0, seed=2)), 2)[0],
        range(200, 4001, 200), 2, True,
    ),
    "ann-curve-cell": lambda: (
        HOT_ANN, generate_synthetic(replace(CURVE_PARAMS, n=100, seed=1)),
        range(100, 4001, 100), 1, True,
    ),
    "ann-clean-half": lambda: (
        HOT_ANN, split_half(generate_synthetic(GeneratorParams(noise_scale=0.0, seed=0)), 0)[0],
        range(200, 4001, 200), 0, False,
    ),
    "gam-portfolio-3": lambda: (GamFamily(), compare_train_half(3), None, 3, True),
    "gam-portfolio-7": lambda: (GamFamily(), compare_train_half(7), None, 7, True),
}


@pytest.mark.parametrize("case", SCAN_CASES)
def test_early_stopped_scan_equals_full_ladder(case):
    """Stopping at the first detected upturn keeps every bit of the threshold,
    and the report holds exactly the prefix the detection needed."""
    family, train, steps, seed, found = SCAN_CASES[case]()
    report = overfit_scan(family, train, steps=steps, seed=seed)
    all_steps, train_err, val_err, t = full_ladder_scan(family, train, steps, seed)
    assert report.threshold_found == (t is not None) == found
    assert report.threshold_step == t
    assert report.threshold == (None if t is None else train_err[t])
    end = len(all_steps) if t is None else t + PATIENCE
    assert report.steps == tuple(all_steps[:end])
    assert report.train_error == tuple(train_err[:end])
    assert report.val_error == tuple(val_err[:end])


def counting(calls, fn):
    def wrapper(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)
    return wrapper


def test_scan_work_ends_at_the_detecting_step(monkeypatch):
    """A threshold found at t costs the ladder up to step t + PATIENCE - 1:
    that many epochs for the network (one gradient pass each, plus the
    initial pass), t + PATIENCE penalized solves for the additive model."""
    gradient_calls, gam_solves = [], []
    monkeypatch.setattr(ann_mod, "_gradients", counting(gradient_calls, ann_mod._gradients))

    family, train, steps, seed, _ = SCAN_CASES["ann-noisy-half"]()
    report = overfit_scan(family, train, steps=steps, seed=seed)
    last = report.threshold_step + PATIENCE - 1
    assert len(gradient_calls) == steps[last] + 1 and steps[last] < steps[-1]

    # The GAM ladder's one lstsq per penalty is the only solve a GAM scan runs.
    monkeypatch.setattr(gam_mod.np.linalg, "lstsq", counting(gam_solves, np.linalg.lstsq))
    family, train, steps, seed, _ = SCAN_CASES["gam-portfolio-3"]()
    report = overfit_scan(family, train, steps=steps, seed=seed)
    assert len(gam_solves) == report.threshold_step + PATIENCE < len(DEFAULT_GAM_STEPS)


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


CURVE_GRIDS = {
    "ann": (HOT_ANN, tuple(range(100, 2001, 100))),
    "glm": (GlmFamily(), None),
}


@pytest.fixture(params=[1, 2], ids=["one-cpu", "two-cpus"])
def cpus(request, monkeypatch):
    """The CPUs ``learning_curve`` sees: one runs its cells in this process,
    two on a pool of forked workers (whatever the host has)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)),
                        raising=False)
    return request.param


def looped_cells(family, steps, sizes, seeds):
    """The reference: every cell in turn, in this process."""
    return tuple(
        (n, seed, overfit_scan(
            family, generate_synthetic(replace(CURVE_PARAMS, n=n, seed=seed)),
            steps=steps, seed=seed,
        ).threshold)
        for n in sizes
        for seed in seeds
    )


@pytest.mark.parametrize("grid", CURVE_GRIDS)
def test_learning_curve_cells_equal_a_loop(cpus, grid):
    """Pooled or not, every threshold is the in-process loop's, in cell
    order, and no worker outlives the call."""
    family, steps = CURVE_GRIDS[grid]
    curve = learning_curve(family, CURVE_PARAMS, sizes=[100, 200], seeds=[0, 1], steps=steps)
    assert multiprocessing.active_children() == []
    expected = looped_cells(family, steps, (100, 200), (0, 1))
    assert curve.cells == expected
    assert any(t is not None for _, _, t in expected) == (grid == "ann")


def test_learning_curve_raises_the_first_failing_cell_in_order(cpus):
    """Every cell diverges, each with its own message; the error is the
    first cell's, as a loop would raise it, though the pool starts the
    largest cells first."""
    family = AnnFamily(training=TrainingConfig(learning_rate=20.0))
    steps = tuple(range(100, 2001, 100))
    with pytest.raises(DivergenceError) as first:
        looped_cells(family, steps, (100,), (1,))
    with pytest.raises(DivergenceError) as raised:
        learning_curve(family, CURVE_PARAMS, sizes=[100, 200], seeds=[1, 0], steps=steps)
    assert str(raised.value) == str(first.value)
    assert multiprocessing.active_children() == []


@dataclass(frozen=True)
class SlowMarkedGlm(GlmFamily):
    """The linear family, slowed down, leaving a file in ``marks`` per cell."""
    marks: str = ""

    def ladder(self, train, steps):
        Path(self.marks, str(train.n)).touch()
        time.sleep(0.2)
        yield from super().ladder(train, steps)


def test_an_interrupted_curve_cancels_the_cells_not_yet_started(tmp_path, monkeypatch):
    """An error while waiting for results cancels the pending cells: only
    those already handed to a worker run, and no worker is left."""
    def interrupted(future, timeout=None):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(Future, "result", interrupted)
    sizes = [100, 150, 200, 250, 300, 350, 400, 450]
    with pytest.raises(RuntimeError, match="interrupted"):
        learning_curve(SlowMarkedGlm(marks=str(tmp_path)), CURVE_PARAMS, sizes=sizes, seeds=[0])
    assert multiprocessing.active_children() == []
    assert len(list(tmp_path.iterdir())) < len(sizes)


def test_learning_curve_validates_every_cell_before_running_one(monkeypatch):
    """A size past the row bound in the last cell is refused before any
    cell runs."""
    def never(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(evaluation, "_cell", never)
    with pytest.raises(ValidationError, match="n must lie in"):
        learning_curve(GlmFamily(), CURVE_PARAMS, sizes=[100, MAX_ROWS + 1], seeds=[0, 1])
    with pytest.raises(ValidationError, match="seed"):
        learning_curve(GlmFamily(), CURVE_PARAMS, sizes=[100, 200], seeds=[0, -1])
    assert multiprocessing.active_children() == []


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


# On this portfolio the GAM scans of the ``split_half`` halves find another
# overfitting threshold and other interactions in their row order than in
# record-id order, so a report shows which order ``compare`` scans in.
ROW_ORDER_PARAMS = GeneratorParams(n=200, seed=3, noise_scale=600.0, interaction=8000.0)


def test_compare_report_does_not_depend_on_row_order():
    """The report is a function of the models, the records of each half and
    the seed: halves shuffled by a fixed permutation write the text of the
    same halves in record-id order, for all three families."""
    train_half, test_half = split_half(generate_synthetic(ROW_ORDER_PARAMS), seed=3)
    models = [fit_glm(train_half), fit_gam(train_half), train(train_half)]
    by_id = [half.take(np.argsort(half.ids)) for half in (train_half, test_half)]
    shuffled = [half.take(np.random.default_rng(1).permutation(half.n)) for half in by_id]
    reports = [compare(models, test, train=fit, seed=3) for fit, test in (by_id, shuffled)]
    assert [r.name for r in reports[0].results] == ["glm", "gam", "ann"]
    assert report_csv(reports[1]) == report_csv(reports[0])
    assert render_markdown(reports[1]) == render_markdown(reports[0])


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


@pytest.fixture(scope="module")
def priced_book():
    """(a 200-row portfolio to fit on, a book two price blocks and 3 rows long)."""
    portfolio = generate_synthetic(GeneratorParams(n=200, seed=7))
    book = generate_synthetic(GeneratorParams(n=2 * evaluation._PRICE_ROWS + 3, seed=2))
    return portfolio, encode_with_response(book)[0]


@pytest.mark.parametrize("family", [
    GlmFamily(),
    GlmFamily(link=LinkKind.LOG),
    GamFamily(),
    GamFamily(smooth=gam_mod.SmoothConfig(knots=18)),
    GamFamily(link=LinkKind.LOG),
    *(AnnFamily(topology=ann_mod.NetworkTopology(hidden), training=TrainingConfig(max_epochs=200))
      for hidden in [(8,), (1,), (4, 3), (32, 8)]),
], ids=["glm", "glm-log", "gam", "gam-knots-18", "gam-log",
        "ann-8", "ann-1", "ann-4-3", "ann-32-8"])
def test_block_pricing_equals_one_call(priced_book, family):
    """Pricing in blocks of rows gives the bits of one batch call, the last
    block's remainder rows included (the facts are in ``finite_predictions``)."""
    portfolio, X = priced_book
    model = family.fit(portfolio)
    predict = FAMILIES[model.family].predict
    blocked = evaluation.finite_predictions(lambda rows: predict(model, rows), X, "model")
    assert np.array_equal(blocked, predict(model, X))
