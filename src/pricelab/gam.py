"""Additive pricing model fit as one penalized least-squares problem.

    g(E[y]) = b0 + f1(x1) + ... + f6(x6)

Each f_j is a natural cubic spline on quantile knots, f_j = N_j a_j in its
knot values a_j, with the exact curvature penalty a_j' Omega_j a_j (see
``smoothing``).  Features with fewer distinct values than the configured
knot count (the binary flags, typically also claim severity) degrade to a
single unpenalized linear coefficient.  The fit minimises, over the working
response z (y, or log y under the log link),

    ||z - b0 - sum_j f_j||^2 + penalty * sum_j a_j' Omega_j a_j.

With the designs column-centred over the training sample, N̄_j = N_j -
mean(N_j), the components are orthogonal to the intercept, so b0 = mean(z)
and the a_j solve one ridge-type system

    (D'D + blockdiag(penalty * Omega_j)) theta = D'(z - b0),
    D = [N̄_1 ... N̄_6].

The constant vector lies in the null space of both N̄_j and Omega_j, so the
system is singular by one direction per spline block; the min-norm
least-squares solution fixes that gauge of the knot values, and each
component stores the training mean of N_j a_j as ``center`` so f_j is mean
zero on train.  No iteration is involved.  ``fit_gam_ladder`` builds once each
feature's knots, N_j and unscaled Omega_j, then D, D'D and D'(z - b0); per
penalty it adds penalty * Omega_j to a copy of D'D (a NumericError if any
entry is not finite), solves by ``lstsq``, and forms each f_j and its center.
``fit_gam`` is its one-penalty case; the overfitting scan walks its ladder.

The model prices no interaction terms.  ``interaction_scan`` names the
feature pairs it leaves out: it scores a pair by the exact RSS drop from
one scalar gamma scaling the product of two fitted smooths, fitted with the
smooths held fixed.  With r the model's residual and u_c the centred
product f_i f_j, regressing r on [1, u] lowers the RSS by
n * mean(r)^2 + (u_c' r)^2 / (u_c' u_c).  The first term vanishes on the
model's own fit rows, where r has mean zero; the second is the statistic
the permutation test shuffles.

The scan protocol is fixed by module constants: a pair is significant when
its relative RSS drop exceeds ``INTERACTION_THRESHOLD`` and its statistic
beats ``PERMUTATIONS`` shuffles at p < 0.05, and ``collinearity_report``
flags feature pairs at |correlation| >= ``COLLINEARITY_THRESHOLD``.  One
generator per scan shuffles r for each pair in turn, blocks of rows at a time
by ``permuted(axis=1)``: the draws of one ``permutation(r)`` per row, none for
a constant product.  Each u_c' r is an ``np.vecdot`` row, ``u_c @ r``'s BLAS dot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

import numpy as np

from . import smoothing
from .dataset import (
    Dataset,
    N_FEATURES,
    encode_dataset,
    encode_with_response,
    feature_matrix,
)
from .errors import NumericError, ValidationError
from .glm import LOG_FLOOR, LinkKind

MIN_TRAIN_ROWS = 20
# Most knots per smooth: a bound on the spline design and penalty arrays,
# checked before any of them is allocated.
MAX_KNOTS = 100
# The fixed scan protocol (see the module docstring).
INTERACTION_THRESHOLD = 0.01
PERMUTATIONS = 199
_SHUFFLE_BLOCK = 8192  # residual entries per block of shuffles: bounds the scan's memory
COLLINEARITY_THRESHOLD = 0.5


@dataclass(frozen=True)
class SmoothConfig:
    """Shape and penalty of the univariate smooths."""

    knots: int = 6
    penalty: float = 1e-3
    force_linear: bool = False

    def __post_init__(self) -> None:
        if not 2 <= self.knots <= MAX_KNOTS:
            raise ValidationError(f"knots must lie in [2, {MAX_KNOTS}], got {self.knots}")
        if not 0 <= self.penalty < np.inf:
            raise ValidationError(f"penalty must be finite and >= 0, got {self.penalty}")


@dataclass(frozen=True)
class SmoothFunction:
    """One fitted component: a centered spline or a centered linear term.
    Its feature is its position in ``GamModel.smooths``."""

    kind: str  # "spline" or "linear"
    knots: np.ndarray
    values: np.ndarray
    slope: float
    center: float

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "linear":
            return self.slope * x - self.center
        return smoothing.evaluate(self.knots, self.values, x) - self.center


@dataclass(frozen=True)
class GamModel:
    intercept: float
    link: LinkKind
    smooths: tuple[SmoothFunction, ...]
    rss: float
    smooth_config: SmoothConfig = field(default_factory=SmoothConfig)
    family = "gam"  # class constant, not a field

    def __post_init__(self) -> None:
        if len(self.smooths) != N_FEATURES:
            raise ValidationError(f"expected {N_FEATURES} smooths")


@dataclass(frozen=True)
class InteractionCandidate:
    """One scanned pair: relative RSS reduction and permutation significance."""

    i: int
    j: int
    score: float
    p_value: float
    significant: bool


@dataclass(frozen=True)
class CollinearityReport:
    correlation: np.ndarray
    flagged: tuple[tuple[int, int, float], ...]
    degenerate: tuple[int, ...]


# ---------------------------------------------------------------------------
# Fitting and prediction


def _working_data(link: LinkKind, train: Dataset):
    """Encoded features and the working response z (y, or log y under the log link)."""
    X, y = encode_with_response(train)
    if link is LinkKind.LOG:
        return X, np.log(np.clip(y, LOG_FLOOR, None))
    return X, y


def _components(model: GamModel, X: np.ndarray) -> list[np.ndarray]:
    """The model's centred smooth values f_j(x_j) at the rows of X."""
    return [smooth(x) for smooth, x in zip(model.smooths, X.T)]


def fit_gam_ladder(
    train: Dataset,
    penalties: Iterable[float],
    *,
    link: LinkKind = LinkKind.IDENTITY,
    smooth: SmoothConfig = SmoothConfig(),
) -> Iterator[GamModel]:
    """The fit of ``smooth`` at each of ``penalties``, one solve per model asked
    for (see the module docstring); a penalized system that is not finite is
    a NumericError."""
    if train.n < MIN_TRAIN_ROWS:
        raise ValidationError(f"a GAM fit needs at least {MIN_TRAIN_ROWS} rows, got {train.n}")
    X, z = _working_data(link, train)
    blocks = []  # per feature: (knots or None, uncentred design N_j, unscaled Omega_j)
    for x in X.T:
        spline = not smooth.force_linear and np.unique(x).size >= smooth.knots
        knots = smoothing.quantile_knots(x, smooth.knots) if spline else np.empty(0)
        if knots.size < 2:
            blocks.append((None, x[:, None], np.zeros((1, 1))))
        else:
            with np.errstate(over="ignore"):  # an overflow is refused below
                omega = smoothing.penalty_matrix(knots)
            blocks.append((knots, smoothing.design_matrix(x, knots), omega))
    design = np.hstack([raw - raw.mean(axis=0) for _, raw, _ in blocks])
    gram = design.T @ design
    intercept = float(np.mean(z))
    rhs = design.T @ (z - intercept)
    for penalty in penalties:
        config = replace(smooth, penalty=penalty)  # refuses a negative or non-finite penalty
        system, start = gram.copy(), 0
        for _, _, omega in blocks:
            with np.errstate(over="ignore"):  # an overflow is refused below
                system[start:start + len(omega), start:start + len(omega)] += penalty * omega
            start += len(omega)
        if not np.isfinite(system).all():
            raise NumericError("penalized GAM system is not finite: check penalty")
        theta = np.linalg.lstsq(system, rhs, rcond=None)[0]

        smooths, components, start = [], [], 0
        for knots, raw, omega in blocks:
            params = theta[start:start + len(omega)]
            start += len(omega)
            values = raw @ params
            center = float(np.mean(values))
            components.append(values - center)
            if knots is None:
                smooths.append(
                    SmoothFunction("linear", np.empty(0), np.empty(0), float(params[0]), center)
                )
            else:
                smooths.append(SmoothFunction("spline", knots, params.copy(), 0.0, center))
        r = z - intercept - sum(components)
        yield GamModel(
            intercept=intercept,
            link=link,
            smooths=tuple(smooths),
            rss=float(r @ r),
            smooth_config=config,
        )


def fit_gam(
    train: Dataset,
    *,
    link: LinkKind = LinkKind.IDENTITY,
    smooth: SmoothConfig = SmoothConfig(),
) -> GamModel:
    """Fit the additive model by one penalized least-squares solve: the
    one-penalty case of ``fit_gam_ladder``."""
    return next(fit_gam_ladder(train, (smooth.penalty,), link=link, smooth=smooth))


def predict_gam(model: GamModel, X: np.ndarray) -> np.ndarray:
    """Predictions at the rows of an (n, 6) encoded feature matrix."""
    eta = model.intercept + sum(_components(model, feature_matrix(X)))
    return np.exp(eta) if model.link is LinkKind.LOG else eta


@np.errstate(all="ignore")  # a sum of squares that overflows is refused below
def interaction_scan(
    train: Dataset,
    base: GamModel,
    *,
    seed: int = 0,
) -> tuple[InteractionCandidate, ...]:
    """Score every unordered feature pair for the interaction term the
    additive ``base`` leaves out.

    The score is the relative RSS drop on ``train`` from adding gamma * u,
    u = f_i * f_j, to ``base`` with its smooths held fixed: the minimum over
    (c, gamma) of ||r - c - gamma u||^2, with r the base residual, is below
    ||r||^2 by exactly

        n * mean(r)^2 + (u_c' r)^2 / (u_c' u_c),    u_c = u - mean(u),

    and that drop is divided by ||r||^2.  A pair is significant when its
    score exceeds ``INTERACTION_THRESHOLD`` and (u_c' r)^2 beats
    ``PERMUTATIONS`` shuffled replicas at p < 0.05.  A pair whose product
    is constant scores n * mean(r)^2 alone, with p-value 1.

    The shuffles permute row positions, so the p-values depend on the row
    order of ``train``; ``compare`` fixes that order by record id.
    """
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    X, z = _working_data(base.link, train)
    components = _components(base, X)
    residual = z - (base.intercept + sum(components))
    base_rss = float(residual @ residual)
    if not np.isfinite(base_rss):
        raise NumericError("interaction scan: the base model's residuals overflow")
    mean_term = residual.size * float(np.mean(residual)) ** 2

    rng = np.random.default_rng(seed)
    block = np.empty((min(PERMUTATIONS, max(1, _SHUFFLE_BLOCK // residual.size)), residual.size))
    results = []
    for i, j in itertools.combinations(range(N_FEATURES), 2):
        u = components[i] * components[j]
        u = u - np.mean(u)
        denom = float(u @ u)
        # (u' r)^2 <= (u' u)(r' r), so this bounds every square the pair forms.
        if not np.isfinite(denom * base_rss):
            raise NumericError("interaction scan: a product of the base model's terms overflows")
        if denom < 1e-12:
            observed, p_value = 0.0, 1.0
        else:
            observed = float(u @ residual) ** 2 / denom
            exceed = 0
            for start in range(0, PERMUTATIONS, len(block)):
                shuffled = block[:PERMUTATIONS - start]
                shuffled[:] = residual
                rng.permuted(shuffled, axis=1, out=shuffled)
                dots = np.vecdot(shuffled, u).tolist()
                exceed += sum(s ** 2 / denom >= observed for s in dots)
            p_value = (1 + exceed) / (1 + PERMUTATIONS)
        score = (mean_term + observed) / base_rss if base_rss > 0 else 0.0
        significant = score > INTERACTION_THRESHOLD and p_value < 0.05
        results.append(InteractionCandidate(i, j, score, p_value, significant))

    results.sort(key=lambda c: c.score, reverse=True)
    return tuple(results)


def collinearity_report(
    train: Dataset,
) -> CollinearityReport:
    """Pairwise Pearson correlations of the features; pairs at |correlation|
    >= ``COLLINEARITY_THRESHOLD`` are flagged, and constant features are
    listed as degenerate."""
    if train.n < 3:
        raise ValidationError("collinearity_report needs at least 3 rows")
    X, _ = encode_dataset(train)
    variances = X.var(axis=0)
    degenerate = tuple(int(j) for j in np.nonzero(variances < 1e-12)[0])

    with np.errstate(divide="ignore", invalid="ignore"):  # degenerate entries are zeroed
        corr = np.corrcoef(X, rowvar=False)
    corr[degenerate, :] = corr[:, degenerate] = 0.0
    np.fill_diagonal(corr, 1.0)

    flagged = tuple(
        (i, j, float(corr[i, j]))
        for i, j in itertools.combinations(range(N_FEATURES), 2)
        if abs(corr[i, j]) >= COLLINEARITY_THRESHOLD
    )
    return CollinearityReport(correlation=corr, flagged=flagged, degenerate=degenerate)
