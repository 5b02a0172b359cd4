"""Additive pricing model fit as one penalized least-squares problem.

Base model:      g(E[y]) = b0 + f1(x1) + ... + f6(x6)
With interaction terms:   ... + gamma_k * f_i(x_i) * f_j(x_j)

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
component stores its training mean as ``center`` so f_j is mean zero on
train.  No iteration is involved.

Interaction terms follow the literal product form: one scalar gamma scaling
the product of two fitted univariate smooths.  ``add_interaction`` refits by
a fixed-point iteration: each cycle takes the least-squares intercept and
gammas for the current components, then re-solves the additive system with
the interaction terms held as an offset.  ``SmoothConfig.tol`` and
``max_cycles`` govern only this iteration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import smoothing
from .dataset import (
    DEFAULT_ENCODING,
    Dataset,
    EncodingConfig,
    N_FEATURES,
    encode_dataset,
    encode_with_response,
    feature_matrix,
)
from .errors import ConvergenceError, ValidationError
from .glm import LinkKind

_MIN_TRAIN_ROWS = 20
_LOG_FLOOR = 1.0  # currency floor applied before log-transforming responses


@dataclass(frozen=True)
class SmoothConfig:
    """Shape and penalty of the univariate smooths.

    ``max_cycles`` and ``tol`` govern interaction refits only; the base fit
    is a single solve.
    """

    knots: int = 6
    penalty: float = 1e-3
    force_linear: bool = False
    max_cycles: int = 200
    tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.knots < 2:
            raise ValidationError(f"knots must be >= 2, got {self.knots}")
        if self.penalty < 0:
            raise ValidationError(f"penalty must be >= 0, got {self.penalty}")
        if self.max_cycles < 1 or self.tol <= 0:
            raise ValidationError("max_cycles must be >= 1 and tol > 0")


@dataclass(frozen=True)
class SmoothFunction:
    """One fitted component: a centered spline or a centered linear term."""

    feature: int
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
class InteractionTerm:
    i: int
    j: int
    gamma: float

    def __post_init__(self) -> None:
        if not (0 <= self.i < self.j < N_FEATURES):
            raise ValidationError(
                f"interaction pair must satisfy 0 <= i < j < {N_FEATURES}, "
                f"got ({self.i}, {self.j})"
            )


@dataclass(frozen=True)
class GamModel:
    intercept: float
    link: LinkKind
    smooths: tuple[SmoothFunction, ...]
    interactions: tuple[InteractionTerm, ...]
    cycles: int
    rss: float
    smooth_config: SmoothConfig = field(default_factory=SmoothConfig)
    encoding: EncodingConfig = field(default_factory=lambda: DEFAULT_ENCODING)
    family = "gam"  # class constant, not a field

    def __post_init__(self) -> None:
        if len(self.smooths) != N_FEATURES:
            raise ValidationError(f"expected {N_FEATURES} smooths")
        pairs = [(t.i, t.j) for t in self.interactions]
        if len(set(pairs)) != len(pairs):
            raise ValidationError("duplicate interaction pair")


@dataclass(frozen=True)
class InteractionCandidate:
    """One scanned pair: relative RSS reduction and permutation significance."""

    i: int
    j: int
    score: float | None
    p_value: float | None
    significant: bool


@dataclass(frozen=True)
class CollinearityReport:
    correlation: np.ndarray
    vif: np.ndarray
    flagged: tuple[tuple[int, int, float], ...]
    degenerate: tuple[int, ...]
    threshold: float


# ---------------------------------------------------------------------------
# Penalized least-squares engine


class _Design:
    """Centred additive design D = [N̄_1 ... N̄_6] and its penalty, built once per fit.

    A linear block is the single column x with no penalty; a spline block is
    the natural-spline design N_j in the knot values with penalty lambda
    Omega_j.  Columns are centred over the training sample, so D is
    orthogonal to the intercept.
    """

    def __init__(self, X: np.ndarray, config: SmoothConfig):
        self.kinds: list[str] = []
        self.knots: list[np.ndarray] = []
        self.raw: list[np.ndarray] = []  # uncentred (n, k_j) block designs
        self.slices: list[slice] = []
        penalties = []
        start = 0
        for j in range(N_FEATURES):
            x = X[:, j]
            knots = smoothing.quantile_knots(x, config.knots)
            if config.force_linear or np.unique(x).size < config.knots or knots.size < 2:
                self.kinds.append("linear")
                self.knots.append(np.empty(0))
                self.raw.append(x[:, None])
                penalties.append(np.zeros((1, 1)))
            else:
                self.kinds.append("spline")
                self.knots.append(knots)
                self.raw.append(smoothing.design_matrix(x, knots))
                penalties.append(config.penalty * smoothing.penalty_matrix(knots))
            self.slices.append(slice(start, start + penalties[-1].shape[0]))
            start += penalties[-1].shape[0]
        self.matrix = np.hstack([raw - raw.mean(axis=0) for raw in self.raw])
        self.gram = self.matrix.T @ self.matrix
        for block, omega in zip(self.slices, penalties):
            self.gram[block, block] += omega

    def solve(self, target: np.ndarray) -> np.ndarray:
        """Minimiser of ||target - c - D theta||^2 + theta' P theta over theta.

        The constant is in the null space of each spline block's centred
        design and penalty, so the system is singular there; the min-norm
        least-squares solution picks one knot-value gauge.
        """
        return np.linalg.lstsq(self.gram, self.matrix.T @ target, rcond=None)[0]

    def components(self, theta: np.ndarray) -> list[np.ndarray]:
        """Centred per-feature values on the training sample."""
        values = [raw @ theta[block] for raw, block in zip(self.raw, self.slices)]
        return [v - np.mean(v) for v in values]

    def smooths(self, theta: np.ndarray) -> tuple[SmoothFunction, ...]:
        smooths = []
        for j, (kind, knots, raw, block) in enumerate(
            zip(self.kinds, self.knots, self.raw, self.slices)
        ):
            params = theta[block]
            center = float(np.mean(raw @ params))
            if kind == "linear":
                smooths.append(SmoothFunction(
                    feature=j, kind="linear", knots=np.empty(0), values=np.empty(0),
                    slope=float(params[0]), center=center,
                ))
            else:
                smooths.append(SmoothFunction(
                    feature=j, kind="spline", knots=knots.copy(),
                    values=params.copy(), slope=0.0, center=center,
                ))
        return tuple(smooths)


def _working_response(y: np.ndarray, link: LinkKind) -> np.ndarray:
    if link is LinkKind.LOG:
        return np.log(np.clip(y, _LOG_FLOOR, None))
    return y


def _inverse_link(eta, link: LinkKind):
    return np.exp(eta) if link is LinkKind.LOG else eta


def _eta(intercept: float, values, pairs, gammas) -> np.ndarray:
    """Linear predictor from per-feature values and interaction terms."""
    eta = intercept + sum(values)
    for (i, j), gamma in zip(pairs, gammas):
        eta = eta + gamma * values[i] * values[j]
    return eta


def _working_data(encoding: EncodingConfig, link: LinkKind, train: Dataset):
    X, y = encode_with_response(train, encoding)
    return X, _working_response(y, link)


def fit_gam(
    train: Dataset,
    config: EncodingConfig = DEFAULT_ENCODING,
    link: LinkKind = LinkKind.IDENTITY,
    smooth: SmoothConfig = SmoothConfig(),
) -> GamModel:
    """Fit the additive model by one penalized least-squares solve.

    The intercept is the mean of the (link-transformed) response; the
    components are the centred minimiser of the penalized objective.
    """
    if train.n < _MIN_TRAIN_ROWS:
        raise ValidationError(f"fit_gam needs at least {_MIN_TRAIN_ROWS} rows, got {train.n}")
    X, z = _working_data(config, link, train)
    design = _Design(X, smooth)
    intercept = float(np.mean(z))
    theta = design.solve(z - intercept)
    r = z - intercept - sum(design.components(theta))
    return GamModel(
        intercept=intercept,
        link=link,
        smooths=design.smooths(theta),
        interactions=(),
        cycles=1,
        rss=float(r @ r),
        smooth_config=smooth,
        encoding=config,
    )


def predict_gam(model: GamModel, X: np.ndarray) -> np.ndarray:
    """Predictions at the rows of an (n, 6) encoded feature matrix."""
    X = feature_matrix(X)
    values = [model.smooths[j](X[:, j]) for j in range(N_FEATURES)]
    pairs = [(t.i, t.j) for t in model.interactions]
    eta = _eta(model.intercept, values, pairs, [t.gamma for t in model.interactions])
    return _inverse_link(eta, model.link)


def add_interaction(model: GamModel, i: int, j: int, train: Dataset) -> GamModel:
    """Extend the model with one gamma * f_i * f_j term and refit.

    Each cycle takes the least-squares (intercept, gammas) for the current
    components, then re-solves the additive part jointly with the
    interaction terms held as an offset.  Cycles start from the model's own
    smooths and stop once no fitted term moved more than ``tol`` on the
    training sample.  The first (intercept, gammas) step keeps the model's
    smooths, so its RSS is never above the model's; it is returned instead
    whenever the converged refit ends with a higher RSS.
    """
    if i == j:
        raise ValidationError(f"interaction needs two distinct features, got ({i}, {j})")
    i, j = min(i, j), max(i, j)
    existing = [(t.i, t.j) for t in model.interactions]
    if (i, j) in existing:
        raise ValidationError(f"interaction ({i}, {j}) already present")
    InteractionTerm(i, j, 0.0)  # bounds check

    X, z = _working_data(model.encoding, model.link, train)
    config = model.smooth_config
    pairs = existing + [(i, j)]
    design = _Design(X, config)
    ones = np.ones((X.shape[0], 1))

    def products(values):
        return np.column_stack([values[a] * values[b] for a, b in pairs])

    def refit(intercept, smooths, gammas, values, cycles):
        r = z - _eta(intercept, values, pairs, gammas)
        return replace(
            model, intercept=intercept, smooths=smooths, cycles=cycles, rss=float(r @ r),
            interactions=tuple(InteractionTerm(a, b, float(g)) for (a, b), g in zip(pairs, gammas)),
        )

    components = [smooth(X[:, col]) for col, smooth in enumerate(model.smooths)]
    intercept = model.intercept
    gammas = np.array([t.gamma for t in model.interactions] + [0.0])
    first = None
    trajectory: list[float] = []
    # Products of two diverging components can overflow float64 before the
    # RSS check notices the blow-up; the infs are just a non-finite iterate.
    with np.errstate(over="ignore", invalid="ignore"):
        terms = products(components) * gammas
        for cycle in range(1, config.max_cycles + 1):
            u = products(components)
            coef = np.linalg.lstsq(np.hstack([ones, u]), z - sum(components), rcond=None)[0]
            if first is None:
                first = refit(float(coef[0]), model.smooths, coef[1:], components, 1)
            theta = design.solve(z - coef[0] - u @ coef[1:])
            new_components = design.components(theta)
            new_terms = products(new_components) * coef[1:]
            r = z - _eta(coef[0], new_components, pairs, coef[1:])
            trajectory.append(float(r @ r))
            if not np.isfinite(trajectory[-1]):
                raise ConvergenceError(
                    "interaction refit diverged to non-finite values",
                    trajectory=tuple(trajectory),
                )
            change = max(
                abs(coef[0] - intercept),
                float(np.max(np.abs(np.subtract(new_components, components)))),
                float(np.max(np.abs(new_terms - terms))),
            )
            intercept, gammas = float(coef[0]), coef[1:]
            components, terms = new_components, new_terms
            if change < config.tol:
                break
        else:
            raise ConvergenceError(
                f"interaction refit did not converge in {config.max_cycles} cycles",
                trajectory=tuple(trajectory),
            )
    last = refit(intercept, design.smooths(theta), gammas, components, cycle)
    return first if last.rss > first.rss else last


def interaction_scan(
    train: Dataset,
    base: GamModel,
    *,
    threshold: float = 0.01,
    permutations: int = 199,
    seed: int = 0,
) -> tuple[InteractionCandidate, ...]:
    """Score every unordered feature pair for an interaction term.

    Score is the relative training-RSS reduction of the refit with that one
    pair added.  Significance additionally requires a permutation check: the
    squared projection of the base residuals onto the (centered) smooth
    product must beat ``permutations`` shuffled replicas at p < 0.05.
    A pair whose refit fails to converge is reported with score None.
    """
    X, z = _working_data(base.encoding, base.link, train)
    components = [smooth(X[:, j]) for j, smooth in enumerate(base.smooths)]
    pairs = [(t.i, t.j) for t in base.interactions]
    residual = z - _eta(base.intercept, components, pairs, [t.gamma for t in base.interactions])
    base_rss = float(residual @ residual)

    rng = np.random.default_rng(seed)
    results = []
    for i, j in itertools.combinations(range(N_FEATURES), 2):
        u = components[i] * components[j]
        u = u - np.mean(u)
        denom = float(u @ u)
        if denom < 1e-12:
            results.append(InteractionCandidate(i, j, 0.0, 1.0, False))
            continue
        observed = float(u @ residual) ** 2 / denom
        exceed = 0
        for _ in range(permutations):
            shuffled = rng.permutation(residual)
            if float(u @ shuffled) ** 2 / denom >= observed:
                exceed += 1
        p_value = (1 + exceed) / (1 + permutations)

        try:
            refit = add_interaction(base, i, j, train)
        except ConvergenceError:
            results.append(InteractionCandidate(i, j, None, p_value, False))
            continue
        score = (base_rss - refit.rss) / base_rss if base_rss > 0 else 0.0
        significant = score > threshold and p_value < 0.05
        results.append(InteractionCandidate(i, j, score, p_value, significant))

    results.sort(key=lambda c: -math.inf if c.score is None else c.score, reverse=True)
    return tuple(results)


def collinearity_report(
    train: Dataset,
    config: EncodingConfig = DEFAULT_ENCODING,
    threshold: float = 0.5,
) -> CollinearityReport:
    """Pairwise Pearson correlations and leave-one-out VIFs of the features."""
    if train.n < 3:
        raise ValidationError("collinearity_report needs at least 3 rows")
    X, _ = encode_dataset(train, config)
    n = X.shape[0]
    variances = X.var(axis=0)
    degenerate = tuple(int(j) for j in np.nonzero(variances < 1e-12)[0])

    corr = np.eye(N_FEATURES)
    for i, j in itertools.combinations(range(N_FEATURES), 2):
        if i in degenerate or j in degenerate:
            value = 0.0
        else:
            value = float(np.corrcoef(X[:, i], X[:, j])[0, 1])
        corr[i, j] = corr[j, i] = value

    vif = np.ones(N_FEATURES)
    for j in range(N_FEATURES):
        if j in degenerate:
            continue
        target = X[:, j]
        others = np.delete(X, j, axis=1)
        design = np.hstack([np.ones((n, 1)), others])
        coef, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
        resid = target - design @ coef
        tss = float(np.sum((target - target.mean()) ** 2))
        r2 = 0.0 if tss == 0 else 1.0 - float(resid @ resid) / tss
        vif[j] = 1.0 / max(1.0 - r2, 1e-12)

    flagged = tuple(
        (i, j, float(corr[i, j]))
        for i, j in itertools.combinations(range(N_FEATURES), 2)
        if abs(corr[i, j]) >= threshold
    )
    return CollinearityReport(
        correlation=corr, vif=vif, flagged=flagged,
        degenerate=degenerate, threshold=threshold,
    )
