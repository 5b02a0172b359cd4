"""Model comparison harness: accuracy bands, overfitting scans, reports.

The accuracy band is the (min, max) of predicted/actual ratios on a held-out
half, after dropping actuals below a currency floor (``RATIO_FLOOR``, 500)
and trimming ``TRIM_FRACTION`` (5%) of the ratios from each tail.  The
comparison protocol is fixed by these constants and ``PATIENCE``, not by
options.  Overfitting is probed along a
family-specific capacity ladder (epoch checkpoints for the network, a
decreasing smoothing penalty for the additive model, a single point for the
linear one) on ``holdout``'s 80/20 split: the reported threshold is the
training relative error at the first step where validation error rises for
``PATIENCE`` (3) consecutive steps while training error still falls.  The
ladder is walked lazily and the scan stops at that first upturn, so an
``OverfitReport`` holds the scanned prefix of the ladder: up to the
threshold step plus ``PATIENCE`` steps, or the whole ladder when no
threshold is found.

``FAMILIES[model.family]`` is the family of a fitted model; its batch
``predict(model, X)`` maps an (n, 6) feature matrix to n predictions.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import ann as ann_mod
from . import gam as gam_mod
from . import glm as glm_mod
from .dataset import (
    FEATURE_NAMES,
    Dataset,
    GeneratorParams,
    encode_with_response,
    generate_synthetic,
    holdout,
)
from .errors import NumericError, ValidationError
from .glm import LinkKind

PATIENCE = 3
TRIM_FRACTION = 0.05
RATIO_FLOOR = 500.0
# Rows priced per model call (the last call of a book takes the rest, up to
# twice as many), and lines written per block by ``predict``.
_PRICE_ROWS = 4096
DEFAULT_ANN_STEPS: tuple[int, ...] = tuple(range(100, 4001, 100))
DEFAULT_GAM_STEPS: tuple[float, ...] = tuple(
    float(v) for v in np.geomspace(30.0, 1e-6, 16)
)


@dataclass(frozen=True)
class AccuracyBand:
    ratio_min: float
    ratio_max: float
    n_evaluated: int
    n_excluded: int

    def __post_init__(self) -> None:
        if self.ratio_min > self.ratio_max:
            raise ValidationError("ratio_min must not exceed ratio_max")


def format_band(band: AccuracyBand) -> str:
    """Render like '94%~107%' (percentages rounded to integers)."""
    return f"{round(band.ratio_min * 100)}%~{round(band.ratio_max * 100)}%"


def finite_predictions(
    predict: Callable[[np.ndarray], np.ndarray], X: np.ndarray, source: str
) -> np.ndarray:
    """``predict(X)``, computed in blocks of rows with numpy's floating-point
    warnings off.  A prediction that is not finite raises NumericError
    naming ``source``, counted over all of X's rows, before any is returned.

    Every block but the last holds ``_PRICE_ROWS`` rows; the last holds the
    rest, ``_PRICE_ROWS`` to 2 * ``_PRICE_ROWS`` - 1 rows, so no call is
    short.  The blocks bound the model's temporaries (the GAM's (rows,
    knots) designs, the network's (rows, h) layers) whatever the size of X,
    and keep the bits of one ``predict(X)`` call.  That rests on facts of
    OpenBLAS 0.3.31 (Haswell kernels) and numpy 2.4, measured on books of
    up to 20003 rows, GAMs of 6 to 100 knots and networks of up to 100
    units: on one BLAS thread, a gemm or gemv over at least 4096 rows that
    start at a multiple of 4096 gives each row the bits it gets in one call
    over all the rows, and numpy's elementwise loops (``exp`` included)
    give an element the same bits at any length.  Short calls break it:
    pricing the bare remainder, 1 to about 3000 rows, in a call of its own
    gives a few rows other last bits in all three families (a ``hidden =
    32,8`` network at a remainder of 3 rows).  At some shapes (GAMs of 28
    to 43 knots, layers of 64 or 100 units) the one call's own bits depend
    on the number of OpenBLAS threads; there the blocks give its one-thread
    bits, and on two threads may differ from it in a few rows of 20000.
    ``test_evaluation`` pins the blocks against the one call for every
    family.
    """
    n = X.shape[0]
    predictions = np.empty(n)
    edges = [0, *range(_PRICE_ROWS, n - _PRICE_ROWS + 1, _PRICE_ROWS), n]
    with np.errstate(all="ignore"):
        for start, stop in zip(edges, edges[1:]):
            predictions[start:stop] = predict(X[start:stop])
    bad = int(np.count_nonzero(~np.isfinite(predictions)))
    if bad:
        raise NumericError(f"{source}: {bad} of {predictions.size} predictions are not finite")
    return predictions


def accuracy_band(
    predict: Callable[[np.ndarray], np.ndarray], test: Dataset, *, source: str = "model"
) -> AccuracyBand:
    """Trimmed band of per-record predicted/actual ratios on a test half;
    ``predict`` maps an (n, 6) feature matrix to n predictions, which must
    be finite (``source`` names the model in the error).  A finite price
    over an actual of at least ``RATIO_FLOOR`` is a ratio of at most
    1.8e308 / 500 in size, so each edge is a finite percentage."""
    X, actual = encode_with_response(test)
    evaluable = actual >= RATIO_FLOOR
    if not evaluable.any():
        raise ValidationError("no evaluable records above the currency floor")
    ratios = np.sort(finite_predictions(predict, X[evaluable], source) / actual[evaluable])
    drop = int(math.floor(ratios.size * TRIM_FRACTION))
    kept = ratios[drop : ratios.size - drop]
    return AccuracyBand(
        ratio_min=float(kept[0]),
        ratio_max=float(kept[-1]),
        n_evaluated=int(ratios.size),
        n_excluded=int(actual.size - ratios.size),
    )


# -- model families -----------------------------------------------------------


class Family:
    """Fits one kind of model, predicts with it in batches, walks its capacity ladder."""

    ladder_rows = 1  # the fewest rows a ladder step fits on

    def findings(self, model, train: Dataset, seed: int):
        """(interaction, collinearity) findings for the comparison report."""
        return "none", "none"


@dataclass(frozen=True)
class GlmFamily(Family):
    link: LinkKind = LinkKind.IDENTITY
    name = "glm"  # class constants, not fields
    assumption = "normal"  # response distribution, for the report

    def fit(self, train: Dataset):
        return glm_mod.fit_glm(train, link=self.link)

    @classmethod
    def of(cls, model: glm_mod.GlmModel) -> "GlmFamily":
        return cls(link=model.link)

    @staticmethod
    def predict(model: glm_mod.GlmModel, X: np.ndarray) -> np.ndarray:
        return glm_mod.predict_glm(model, X)

    def ladder(self, train: Dataset, steps):
        """The linear model has no capacity to vary: one step, steps ignored."""
        yield 0.0, self.fit(train)


@dataclass(frozen=True)
class GamFamily(Family):
    link: LinkKind = LinkKind.IDENTITY
    smooth: gam_mod.SmoothConfig = field(default_factory=gam_mod.SmoothConfig)
    name = "gam"  # class constants, not fields
    assumption = "normal"
    ladder_rows = gam_mod.MIN_TRAIN_ROWS

    def fit(self, train: Dataset):
        return gam_mod.fit_gam(train, link=self.link, smooth=self.smooth)

    @classmethod
    def of(cls, model: gam_mod.GamModel) -> "GamFamily":
        return cls(link=model.link, smooth=model.smooth_config)

    @staticmethod
    def predict(model: gam_mod.GamModel, X: np.ndarray) -> np.ndarray:
        return gam_mod.predict_gam(model, X)

    def ladder(self, train: Dataset, steps):
        """One fit per penalty, in decreasing order, each solved as it is asked for."""
        ladder = tuple(float(s) for s in (steps if steps is not None else DEFAULT_GAM_STEPS))
        if len(ladder) < 2 or any(b >= a for a, b in zip(ladder, ladder[1:])):
            raise ValidationError("GAM scan steps must be strictly decreasing penalties")
        models = gam_mod.fit_gam_ladder(train, ladder, link=self.link, smooth=self.smooth)
        return zip(ladder, models)

    def findings(self, model, train: Dataset, seed: int):
        candidates = gam_mod.interaction_scan(train, model, seed=seed)
        hits = [
            f"{FEATURE_NAMES[c.i]}*{FEATURE_NAMES[c.j]}"
            for c in candidates
            if c.significant
        ]
        coll = gam_mod.collinearity_report(train)
        pairs = [
            f"{FEATURE_NAMES[i]}&{FEATURE_NAMES[j]}" for i, j, _ in coll.flagged
        ]
        return ", ".join(hits) or "none", ", ".join(pairs) or "none"


@dataclass(frozen=True)
class AnnFamily(Family):
    topology: ann_mod.NetworkTopology = field(default_factory=ann_mod.NetworkTopology)
    training: ann_mod.TrainingConfig = field(default_factory=ann_mod.TrainingConfig)
    name = "ann"  # class constants, not fields
    assumption = "none"

    def fit(self, train: Dataset):
        return ann_mod.train(train, topology=self.topology, training=self.training)

    @classmethod
    def of(cls, model: ann_mod.AnnModel) -> "AnnFamily":
        return cls(topology=model.topology)

    @staticmethod
    def predict(model: ann_mod.AnnModel, X: np.ndarray) -> np.ndarray:
        return ann_mod.predict_ann(model, X)

    def ladder(self, train: Dataset, steps):
        """Epoch checkpoints of one descent run on the whole given set; each
        model is passed on as the descent reaches it."""
        epochs = steps if steps is not None else DEFAULT_ANN_STEPS
        if len(epochs) < 2:
            raise ValidationError("an ANN scan needs at least two epoch checkpoints")
        models = ann_mod.train_trajectory(train, self.topology, self.training, epochs)
        return ((float(model.stopped_epoch), model) for model in models)


FAMILIES: dict[str, type[Family]] = {f.name: f for f in (GlmFamily, GamFamily, AnnFamily)}


# -- overfitting scan ---------------------------------------------------------


@dataclass(frozen=True)
class OverfitReport:
    """One scan; ``steps`` and the errors cover the scanned prefix of the ladder."""

    family: str
    steps: tuple[float, ...]
    train_error: tuple[float, ...]
    val_error: tuple[float, ...]
    threshold: float | None
    threshold_found: bool
    threshold_step: int | None


def _relative_rmse(predictions: np.ndarray, actual: np.ndarray) -> float:
    rmse = math.sqrt(float(np.mean((predictions - actual) ** 2)))
    denom = float(np.mean(actual))
    if denom <= 0:
        raise ValidationError("relative error undefined: mean actual is not positive")
    if not math.isfinite(rmse):
        raise NumericError("overfitting scan: a prediction error is not finite")
    return rmse / denom


def _upturn_at(train_err: Sequence[float], val_err: Sequence[float], t: int) -> bool:
    """Whether val rises for ``PATIENCE`` straight steps from index t while
    train falls at t; it reads indices t - 1 … t + PATIENCE - 1 only."""
    rising = all(val_err[t + k] > val_err[t + k - 1] for k in range(PATIENCE))
    return rising and train_err[t] < train_err[t - 1]


def overfit_scan(
    family: Family,
    train: Dataset,
    *,
    steps: Sequence[float] | None = None,
    seed: int = 0,
) -> OverfitReport:
    """Walk the family's capacity ladder until the first validation upturn.

    The split permutes row positions, so the scan depends on the row order
    of ``train``; ``compare`` fixes that order by record id.

    Each step is scored as the ladder yields it.  Index t is decided once
    step t + PATIENCE - 1 is in, and every earlier index was decided
    before, so only that index is checked; the threshold equals the one a
    scan of the whole ladder would find.
    """
    if train.n < 10:
        raise ValidationError(
            f"overfitting scan: the train half has {train.n} rows and needs at least 10"
        )
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    fit_half, val_half = (train.take(part) for part in holdout(train.n, seed))
    rows = family.ladder_rows
    if fit_half.n < rows:
        need = next(n for n in itertools.count(train.n) if holdout(n, seed)[0].size >= rows)
        raise ValidationError(
            f"overfitting scan: the {family.name.upper()} fit split has {fit_half.n} rows and "
            f"needs {rows}, so the train half needs at least {need} rows, not {train.n}"
        )
    X_fit, y_fit = encode_with_response(fit_half)
    X_val, y_val = encode_with_response(val_half)

    scanned: list[float] = []
    train_err: list[float] = []
    val_err: list[float] = []
    t = None
    for step, model in family.ladder(fit_half, steps):
        scanned.append(step)
        train_err.append(_relative_rmse(family.predict(model, X_fit), y_fit))
        val_err.append(_relative_rmse(family.predict(model, X_val), y_val))
        decidable = len(scanned) - PATIENCE
        if decidable >= 1 and _upturn_at(train_err, val_err, decidable):
            t = decidable
            break

    return OverfitReport(
        family=family.name,
        steps=tuple(scanned),
        train_error=tuple(train_err),
        val_error=tuple(val_err),
        threshold=train_err[t] if t is not None else None,
        threshold_found=t is not None,
        threshold_step=t,
    )


# -- learning curve -----------------------------------------------------------


@dataclass(frozen=True)
class LearningCurve:
    cells: tuple[tuple[int, int, float | None], ...]  # (n, seed, threshold)
    sizes: tuple[int, ...]

    def mean_thresholds(self) -> tuple[tuple[int, float | None, float | None, int], ...]:
        """(n, mean, standard error, found-count) per sample size."""
        rows = []
        for n in self.sizes:
            found = [t for size, _, t in self.cells if size == n and t is not None]
            if not found:
                rows.append((n, None, None, 0))
                continue
            mean = float(np.mean(found))
            se = float(np.std(found, ddof=1) / math.sqrt(len(found))) if len(found) > 1 else 0.0
            rows.append((n, mean, se, len(found)))
        return tuple(rows)


def _cell(family: Family, params: GeneratorParams, steps) -> float | None:
    """Threshold of the (sample size, seed) cell that ``params`` names."""
    data = generate_synthetic(params)
    return overfit_scan(family, data, steps=steps, seed=params.seed).threshold


def learning_curve(
    family: Family,
    params: GeneratorParams,
    sizes: Sequence[int],
    seeds: Sequence[int],
    *,
    steps: Sequence[float] | None = None,
) -> LearningCurve:
    """Detected overfitting threshold per (sample size, seed) cell.

    Missing detections are recorded as None, never as zero.  Every cell's
    size and seed are validated before any cell runs.  The cells are
    independent, so they run on up to one forked worker process per
    available CPU, the largest sizes submitted first (in this process when
    one CPU is available or the platform cannot fork).  Results stay in
    cell order, and each threshold is bit-identical to an in-process run.
    The error raised is the first failing cell's in cell order, as a loop
    would raise it; an error while waiting cancels the cells not yet
    started, and no worker outlives the call.
    """
    sizes = [int(n) for n in sizes]
    if any(b <= a for a, b in zip(sizes, sizes[1:])) or not sizes:
        raise ValidationError("sizes must be strictly increasing")
    if not seeds:
        raise ValidationError("need at least one seed")
    cells = [replace(params, n=n, seed=int(seed)) for n in sizes for seed in seeds]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(cells), cpus) if hasattr(os, "fork") else 1
    if workers < 2:
        thresholds = [_cell(family, cell, steps) for cell in cells]
    else:
        # Imported here: loading them costs every CLI start about 11 ms.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        fork = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=fork) as pool:
            futures = {
                i: pool.submit(_cell, family, cells[i], steps)
                for i in sorted(range(len(cells)), key=lambda i: -cells[i].n)
            }
            try:
                thresholds = [futures[i].result() for i in range(len(cells))]
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    return LearningCurve(
        cells=tuple((cell.n, cell.seed, t) for cell, t in zip(cells, thresholds)),
        sizes=tuple(sizes),
    )


def learning_curve_csv(curve: LearningCurve) -> str:
    lines = ["n,seed,threshold"]
    for n, seed, threshold in curve.cells:
        lines.append(f"{n},{seed}," + ("" if threshold is None else repr(threshold)))
    return "\n".join(lines) + "\n"


# -- comparison ---------------------------------------------------------------


@dataclass(frozen=True)
class FamilyResult:
    name: str
    band: AccuracyBand
    overfit: OverfitReport
    interaction_finding: str
    collinearity_finding: str


@dataclass(frozen=True)
class ComparisonReport:
    results: tuple[FamilyResult, ...]


def compare(
    models: Sequence, test: Dataset, train: Dataset, *, seed: int = 0
) -> ComparisonReport:
    """Each model's band on the test half, its overfitting scan on the train
    half and (for the additive model) interaction and collinearity findings.
    Train/test sharing a record id is refused.

    Each half is first put in record-id order, the order the scans permute,
    so a report does not depend on the row order the halves come in.
    """
    if not models:
        raise ValidationError("compare needs at least one fitted model")
    test = test.take(np.argsort(test.ids))
    overlap = np.intersect1d(train.ids, test.ids)
    if overlap.size:
        raise ValidationError(
            f"leakage: {len(overlap)} record id(s) appear in both train and test"
        )
    train = train.take(np.argsort(train.ids))

    results = []
    for position, model in enumerate(models, 1):
        family = FAMILIES[model.family].of(model)
        band = accuracy_band(partial(family.predict, model), test,
                             source=f"model {position} ({family.name})")
        overfit = overfit_scan(family, train, seed=seed)
        findings = family.findings(model, train, seed)
        results.append(FamilyResult(family.name, band, overfit, *findings))
    return ComparisonReport(results=tuple(results))


def _threshold_text(result: FamilyResult) -> str:
    if not result.overfit.threshold_found:
        return "not detected"
    return f"{result.overfit.threshold * 100:.1f}%"


def render_markdown(report: ComparisonReport) -> str:
    """Two tables: accuracy with findings, then overfitting thresholds."""
    lines = [
        "# Model comparison",
        "",
        "## Prediction accuracy",
        "",
        "| model | accuracy | interaction analysis | collinearity analysis |",
        "| --- | --- | --- | --- |",
    ]
    for r in report.results:
        lines.append(
            f"| {r.name} | {format_band(r.band)} | {r.interaction_finding} "
            f"| {r.collinearity_finding} |"
        )
    lines += [
        "",
        "## Overfitting",
        "",
        "| model | distribution assumption | overfitting threshold |",
        "| --- | --- | --- |",
    ]
    for r in report.results:
        lines.append(f"| {r.name} | {FAMILIES[r.name].assumption} | {_threshold_text(r)} |")
    lines.append("")
    return "\n".join(lines)


def report_csv(report: ComparisonReport) -> str:
    lines = [
        "model,ratio_min,ratio_max,n_evaluated,n_excluded,"
        "threshold_found,threshold,interaction,collinearity"
    ]
    for r in report.results:
        found = "yes" if r.overfit.threshold_found else "no"
        threshold = "" if r.overfit.threshold is None else repr(r.overfit.threshold)
        lines.append(
            f"{r.name},{r.band.ratio_min!r},{r.band.ratio_max!r},"
            f"{r.band.n_evaluated},{r.band.n_excluded},{found},{threshold},"
            f"\"{r.interaction_finding}\",\"{r.collinearity_finding}\""
        )
    return "\n".join(lines) + "\n"
