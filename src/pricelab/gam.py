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
the product of two fitted univariate smooths.  They are fitted with the
smooths held fixed.  ``add_interaction`` takes the least-squares intercept
and gammas of all its pairs,

    min over (b0, gamma) of ||z - sum_j f_j - b0 - sum_k gamma_k f_ik f_jk||^2,

one ``lstsq`` solve.  ``interaction_scan`` scores a pair by the exact RSS
drop of the same step for that one pair on top of the model: with r the
model's residual and u_c the centred product f_i f_j, regressing r on
[1, u] lowers the RSS by n * mean(r)^2 + (u_c' r)^2 / (u_c' u_c).  The
first term vanishes on the model's own fit rows, where r has mean zero;
the second is the statistic the permutation test shuffles.
"""

from __future__ import annotations

import itertools
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
from .errors import ValidationError
from .glm import LinkKind

_MIN_TRAIN_ROWS = 20
_LOG_FLOOR = 1.0  # currency floor applied before log-transforming responses
# Most knots per smooth: a bound on the spline design and penalty arrays,
# checked before any of them is allocated.
MAX_KNOTS = 100


@dataclass(frozen=True)
class SmoothConfig:
    """Shape and penalty of the univariate smooths."""

    knots: int = 6
    penalty: float = 1e-3
    force_linear: bool = False

    def __post_init__(self) -> None:
        if not 2 <= self.knots <= MAX_KNOTS:
            raise ValidationError(f"knots must lie in [2, {MAX_KNOTS}], got {self.knots}")
        if self.penalty < 0:
            raise ValidationError(f"penalty must be >= 0, got {self.penalty}")


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
    score: float
    p_value: float
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
    """Extend the model with one gamma * f_i * f_j term, smooths held fixed.

    The intercept b0 and the gammas of every interaction pair, old and new,
    are the least-squares minimiser on ``train`` of

        ||z - sum_j f_j - b0 - sum_k gamma_k f_ik f_jk||^2,

    with f_j the model's own smooths: one solve, no iteration.  The model
    itself is a feasible point (its intercept and gammas, the new gamma 0),
    so the returned RSS is never above the model's own RSS on ``train``.
    """
    if i == j:
        raise ValidationError(f"interaction needs two distinct features, got ({i}, {j})")
    i, j = min(i, j), max(i, j)
    existing = [(t.i, t.j) for t in model.interactions]
    if (i, j) in existing:
        raise ValidationError(f"interaction ({i}, {j}) already present")
    InteractionTerm(i, j, 0.0)  # bounds check

    X, z = _working_data(model.encoding, model.link, train)
    components = [smooth(X[:, col]) for col, smooth in enumerate(model.smooths)]
    pairs = existing + [(i, j)]
    design = np.column_stack(
        [np.ones(X.shape[0])] + [components[a] * components[b] for a, b in pairs]
    )
    coef = np.linalg.lstsq(design, z - sum(components), rcond=None)[0]
    r = z - _eta(float(coef[0]), components, pairs, coef[1:])
    return replace(
        model, intercept=float(coef[0]), rss=float(r @ r),
        interactions=tuple(InteractionTerm(a, b, float(g)) for (a, b), g in zip(pairs, coef[1:])),
    )


def interaction_scan(
    train: Dataset,
    base: GamModel,
    *,
    threshold: float = 0.01,
    permutations: int = 199,
    seed: int = 0,
) -> tuple[InteractionCandidate, ...]:
    """Score every unordered feature pair for an interaction term.

    The score is the relative RSS drop on ``train`` from adding gamma * u,
    u = f_i * f_j, to ``base`` with its smooths and any existing gammas held
    fixed: the minimum over (c, gamma) of ||r - c - gamma u||^2, with r the
    base residual, is below ||r||^2 by exactly

        n * mean(r)^2 + (u_c' r)^2 / (u_c' u_c),    u_c = u - mean(u),

    and that drop is divided by ||r||^2.  For a base without interactions it
    is the RSS drop of ``add_interaction``.  Significance additionally
    requires a permutation check: (u_c' r)^2 must beat ``permutations``
    shuffled replicas at p < 0.05.  A pair whose product is constant scores
    n * mean(r)^2 alone, with p-value 1.
    """
    X, z = _working_data(base.encoding, base.link, train)
    components = [smooth(X[:, j]) for j, smooth in enumerate(base.smooths)]
    pairs = [(t.i, t.j) for t in base.interactions]
    residual = z - _eta(base.intercept, components, pairs, [t.gamma for t in base.interactions])
    base_rss = float(residual @ residual)
    mean_term = residual.size * float(np.mean(residual)) ** 2

    rng = np.random.default_rng(seed)
    results = []
    for i, j in itertools.combinations(range(N_FEATURES), 2):
        u = components[i] * components[j]
        u = u - np.mean(u)
        denom = float(u @ u)
        if denom < 1e-12:
            observed, p_value = 0.0, 1.0
        else:
            observed = float(u @ residual) ** 2 / denom
            exceed = 0
            for _ in range(permutations):
                shuffled = rng.permutation(residual)
                if float(u @ shuffled) ** 2 / denom >= observed:
                    exceed += 1
            p_value = (1 + exceed) / (1 + permutations)
        score = (mean_term + observed) / base_rss if base_rss > 0 else 0.0
        significant = score > threshold and p_value < 0.05
        results.append(InteractionCandidate(i, j, score, p_value, significant))

    results.sort(key=lambda c: c.score, reverse=True)
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
