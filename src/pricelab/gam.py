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
component stores the training mean of N_j a_j as ``center`` so f_j is mean
zero on train.  No iteration is involved.  ``fit_gam`` is these equations in
order: one (N_j, penalty * Omega_j) block per feature, D'D with each penalty
added to its diagonal block (a NumericError if any entry is not finite),
the ``lstsq`` solve, then f_j and its center feature by feature.

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

The scan protocol is fixed by module constants: a pair is significant when
its relative RSS drop exceeds ``INTERACTION_THRESHOLD`` and its statistic
beats ``PERMUTATIONS`` shuffles at p < 0.05, and ``collinearity_report``
flags feature pairs at |correlation| >= ``COLLINEARITY_THRESHOLD``.
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
from .errors import NumericError, ValidationError
from .glm import LinkKind

_MIN_TRAIN_ROWS = 20
_LOG_FLOOR = 1.0  # currency floor applied before log-transforming responses
# Most knots per smooth: a bound on the spline design and penalty arrays,
# checked before any of them is allocated.
MAX_KNOTS = 100
# The fixed scan protocol (see the module docstring).
INTERACTION_THRESHOLD = 0.01
PERMUTATIONS = 199
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
    flagged: tuple[tuple[int, int, float], ...]
    degenerate: tuple[int, ...]


# ---------------------------------------------------------------------------
# Fitting and prediction


def _working_data(encoding: EncodingConfig, link: LinkKind, train: Dataset):
    """Encoded features and the working response z (y, or log y under the log link)."""
    X, y = encode_with_response(train, encoding)
    if link is LinkKind.LOG:
        return X, np.log(np.clip(y, _LOG_FLOOR, None))
    return X, y


def _components(model: GamModel, X: np.ndarray) -> list[np.ndarray]:
    """The model's centred smooth values f_j(x_j) at the rows of X."""
    return [smooth(x) for smooth, x in zip(model.smooths, X.T)]


def _eta(intercept: float, values, terms) -> np.ndarray:
    """Linear predictor from per-feature values and interaction terms."""
    eta = intercept + sum(values)
    for term in terms:
        eta = eta + term.gamma * values[term.i] * values[term.j]
    return eta


def fit_gam(
    train: Dataset,
    config: EncodingConfig = DEFAULT_ENCODING,
    link: LinkKind = LinkKind.IDENTITY,
    smooth: SmoothConfig = SmoothConfig(),
) -> GamModel:
    """Fit the additive model by one penalized least-squares solve (see the
    module docstring); a penalized system that is not finite is a NumericError."""
    if train.n < _MIN_TRAIN_ROWS:
        raise ValidationError(f"fit_gam needs at least {_MIN_TRAIN_ROWS} rows, got {train.n}")
    X, z = _working_data(config, link, train)
    blocks = []  # per feature: (knots or None, uncentred design N_j, penalty Omega_j)
    for x in X.T:
        knots = smoothing.quantile_knots(x, smooth.knots)
        if smooth.force_linear or np.unique(x).size < smooth.knots or knots.size < 2:
            blocks.append((None, x[:, None], np.zeros((1, 1))))
        else:
            with np.errstate(over="ignore"):  # an overflow is refused below
                omega = smooth.penalty * smoothing.penalty_matrix(knots)
            blocks.append((knots, smoothing.design_matrix(x, knots), omega))
    design = np.hstack([raw - raw.mean(axis=0) for _, raw, _ in blocks])
    gram = design.T @ design
    start = 0
    for _, _, omega in blocks:
        gram[start:start + len(omega), start:start + len(omega)] += omega
        start += len(omega)
    if not np.isfinite(gram).all():
        raise NumericError("penalized GAM system is not finite: check penalty and encoding ranges")
    intercept = float(np.mean(z))
    theta = np.linalg.lstsq(gram, design.T @ (z - intercept), rcond=None)[0]

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
    return GamModel(
        intercept=intercept,
        link=link,
        smooths=tuple(smooths),
        interactions=(),
        rss=float(r @ r),
        smooth_config=smooth,
        encoding=config,
    )


def predict_gam(model: GamModel, X: np.ndarray) -> np.ndarray:
    """Predictions at the rows of an (n, 6) encoded feature matrix."""
    eta = _eta(model.intercept, _components(model, feature_matrix(X)), model.interactions)
    return np.exp(eta) if model.link is LinkKind.LOG else eta


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
    if any((t.i, t.j) == (i, j) for t in model.interactions):
        raise ValidationError(f"interaction ({i}, {j}) already present")
    pairs = (*model.interactions, InteractionTerm(i, j, 0.0))  # bounds-checks (i, j)

    X, z = _working_data(model.encoding, model.link, train)
    components = _components(model, X)
    design = np.column_stack(
        [np.ones(X.shape[0])] + [components[t.i] * components[t.j] for t in pairs]
    )
    coef = np.linalg.lstsq(design, z - sum(components), rcond=None)[0]
    terms = tuple(InteractionTerm(t.i, t.j, float(g)) for t, g in zip(pairs, coef[1:]))
    r = z - _eta(float(coef[0]), components, terms)
    return replace(model, intercept=float(coef[0]), rss=float(r @ r), interactions=terms)


@np.errstate(all="ignore")  # a sum of squares that overflows is refused below
def interaction_scan(
    train: Dataset,
    base: GamModel,
    *,
    seed: int = 0,
) -> tuple[InteractionCandidate, ...]:
    """Score every unordered feature pair for an interaction term.

    The score is the relative RSS drop on ``train`` from adding gamma * u,
    u = f_i * f_j, to ``base`` with its smooths and any existing gammas held
    fixed: the minimum over (c, gamma) of ||r - c - gamma u||^2, with r the
    base residual, is below ||r||^2 by exactly

        n * mean(r)^2 + (u_c' r)^2 / (u_c' u_c),    u_c = u - mean(u),

    and that drop is divided by ||r||^2.  For a base without interactions it
    is the RSS drop of ``add_interaction``.  A pair is significant when its
    score exceeds ``INTERACTION_THRESHOLD`` and (u_c' r)^2 beats
    ``PERMUTATIONS`` shuffled replicas at p < 0.05.  A pair whose product
    is constant scores n * mean(r)^2 alone, with p-value 1.
    """
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    X, z = _working_data(base.encoding, base.link, train)
    components = _components(base, X)
    residual = z - _eta(base.intercept, components, base.interactions)
    base_rss = float(residual @ residual)
    if not np.isfinite(base_rss):
        raise NumericError("interaction scan: the base model's residuals overflow")
    mean_term = residual.size * float(np.mean(residual)) ** 2

    rng = np.random.default_rng(seed)
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
            for _ in range(PERMUTATIONS):
                shuffled = rng.permutation(residual)
                if float(u @ shuffled) ** 2 / denom >= observed:
                    exceed += 1
            p_value = (1 + exceed) / (1 + PERMUTATIONS)
        score = (mean_term + observed) / base_rss if base_rss > 0 else 0.0
        significant = score > INTERACTION_THRESHOLD and p_value < 0.05
        results.append(InteractionCandidate(i, j, score, p_value, significant))

    results.sort(key=lambda c: c.score, reverse=True)
    return tuple(results)


def collinearity_report(
    train: Dataset,
    config: EncodingConfig = DEFAULT_ENCODING,
) -> CollinearityReport:
    """Pairwise Pearson correlations of the features; pairs at |correlation|
    >= ``COLLINEARITY_THRESHOLD`` are flagged, and constant features are
    listed as degenerate."""
    if train.n < 3:
        raise ValidationError("collinearity_report needs at least 3 rows")
    X, _ = encode_dataset(train, config)
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
