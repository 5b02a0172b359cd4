"""Additive pricing model fit by backfitting penalized cubic smooths.

Base model:      g(E[y]) = b0 + f1(x1) + ... + f6(x6)
With interaction terms:   ... + gamma_k * f_i(x_i) * f_j(x_j)

Each f_j is a natural cubic spline on quantile knots with an exact
curvature penalty (see ``smoothing``), refit in turn against the partial
residuals of the other components.  Components are re-centered to mean zero
over the training sample after every update, the freed constant moving into
the intercept.  Features with fewer distinct values than the configured knot
count (the binary flags, typically also claim severity) degrade to a single
unpenalized linear coefficient.

Interaction terms follow the literal product form: one scalar gamma scaling
the product of two already-fitted univariate smooths.  During refits the
gamma of each term is re-estimated by one-dimensional least squares against
the current partial residual.

Every cycle is a descent step on the training RSS.  A penalized block
update can in principle trade fit for smoothness (raise RSS while lowering
curvature), so each update is line-searched along the segment from the old
component to its penalized refit and damped to the best-RSS point whenever
the full step would not descend.  Fresh components (and any unpenalized
block, e.g. the K=2 or linear ones) always take the full step.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import smoothing
from .dataset import (
    DEFAULT_ENCODING,
    FEATURE_NAMES,
    Dataset,
    EncodingConfig,
    N_FEATURES,
    encode_dataset,
    feature_matrix,
)
from .errors import ConvergenceError, ValidationError
from .glm import GlmModel, LinkKind

_MIN_TRAIN_ROWS = 20
_LOG_FLOOR = 1.0  # currency floor applied before log-transforming responses


@dataclass(frozen=True)
class SmoothConfig:
    """Shape of the univariate smooths used by the backfitter."""

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
# Backfitting engine


class _Block:
    """Per-feature design and solver state, fixed for the whole fit."""

    def __init__(self, x: np.ndarray, config: SmoothConfig):
        self.x = x
        distinct = np.unique(x)
        use_linear = (
            config.force_linear
            or distinct.size < config.knots
            or smoothing.quantile_knots(x, config.knots).size < 2
        )
        if use_linear:
            self.kind = "linear"
            self.mean_x = float(np.mean(x))
            centered = x - self.mean_x
            denom = float(centered @ centered)
            self.centered = centered
            self.denom = denom
            self.knots = np.empty(0)
        else:
            self.kind = "spline"
            self.knots = smoothing.quantile_knots(x, config.knots)
            self.design = smoothing.design_matrix(x, self.knots)
            omega = smoothing.penalty_matrix(self.knots)
            gram = self.design.T @ self.design + config.penalty * omega
            self.solver = np.linalg.inv(gram)

    def fit_raw(self, residual: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Penalized least-squares fit; returns (params, uncentered fitted values)."""
        if self.kind == "linear":
            slope = 0.0 if self.denom == 0 else float(self.centered @ residual) / self.denom
            return np.array([slope]), slope * self.x
        values = self.solver @ (self.design.T @ residual)
        return values, self.design @ values

    def raw(self, params: np.ndarray) -> np.ndarray:
        """Uncentered fitted values on the training sample for given params."""
        if self.kind == "linear":
            return params[0] * self.x
        return self.design @ params


def _working_response(y: np.ndarray, link: LinkKind) -> np.ndarray:
    if link is LinkKind.LOG:
        return np.log(np.clip(y, _LOG_FLOOR, None))
    return y


def _inverse_link(eta, link: LinkKind):
    return np.exp(eta) if link is LinkKind.LOG else eta


@dataclass
class _FitState:
    intercept: float
    params: list[np.ndarray]
    centers: list[float]
    components: list[np.ndarray]  # centered values on train, one (n,) per feature
    gammas: list[float]


def _state_rss(z: np.ndarray, state: _FitState, pairs: list[tuple[int, int]]) -> float:
    fitted = state.intercept + np.sum(state.components, axis=0)
    for (i, j), gamma in zip(pairs, state.gammas):
        fitted = fitted + gamma * state.components[i] * state.components[j]
    r = z - fitted
    return float(r @ r)


def _backfit(
    X: np.ndarray,
    z: np.ndarray,
    config: SmoothConfig,
    pairs: list[tuple[int, int]],
    warm: _FitState | None = None,
) -> tuple[_FitState, list[_Block], int, list[float]]:
    n = X.shape[0]
    blocks = [_Block(X[:, j], config) for j in range(N_FEATURES)]

    if warm is None:
        state = _FitState(
            intercept=float(np.mean(z)),
            params=[np.zeros(1 if b.kind == "linear" else b.knots.size) for b in blocks],
            centers=[0.0] * N_FEATURES,
            components=[np.zeros(n) for _ in range(N_FEATURES)],
            gammas=[0.0] * len(pairs),
        )
    else:
        state = warm

    def interaction_total(exclude: int | None = None) -> np.ndarray:
        total = np.zeros(n)
        for k, (i, j) in enumerate(pairs):
            if k == exclude:
                continue
            total += state.gammas[k] * state.components[i] * state.components[j]
        return total

    trajectory: list[float] = []
    cycles_run = 0

    for cycle in range(1, config.max_cycles + 1):
        cycles_run = cycle
        max_change = 0.0
        additive = state.intercept + np.sum(state.components, axis=0)

        for j, block in enumerate(blocks):
            partial = z - (additive - state.components[j]) - interaction_total()
            params_new, raw_new = block.fit_raw(partial)
            raw_old = block.raw(state.params[j])
            step = raw_new - raw_old
            step_sq = float(step @ step)
            if step_sq == 0.0:
                continue
            # Exact line search on the training RSS along old -> new.  The
            # full penalized step is kept whenever it does not ascend
            # (t* >= 1/2); otherwise damp to the segment's RSS minimizer.
            resid = partial - state.components[j]
            t_star = float(resid @ step) / step_sq
            if t_star <= 0.0:
                continue
            t = 1.0 if t_star >= 0.5 else t_star
            params = state.params[j] + t * (params_new - state.params[j])
            raw = raw_old + t * step
            center = float(np.mean(raw))
            component = raw - center
            max_change = max(max_change, float(np.max(np.abs(component - state.components[j]))))
            additive += t * step
            state.intercept += center - state.centers[j]
            state.params[j] = params
            state.centers[j] = center
            state.components[j] = component

        for k, (i, j) in enumerate(pairs):
            # Products of two diverging components can overflow float64 a
            # cycle before the RSS check below notices the blow-up; the
            # resulting infs are just another non-finite iterate.
            with np.errstate(over="ignore", invalid="ignore"):
                u = state.components[i] * state.components[j]
                denom = float(u @ u)
                residual = z - additive - interaction_total(exclude=k)
                gamma = 0.0 if denom < 1e-12 else float(u @ residual) / denom
                max_change = max(max_change, float(np.max(np.abs((gamma - state.gammas[k]) * u))))
            state.gammas[k] = gamma

        # Let the intercept absorb any residual mean (interaction products
        # are not centered), keeping the components themselves mean zero.
        residual_mean = float(np.mean(z - additive - interaction_total()))
        state.intercept += residual_mean
        additive += residual_mean
        max_change = max(max_change, abs(residual_mean))

        with np.errstate(over="ignore", invalid="ignore"):
            rss = _state_rss(z, state, pairs)
        trajectory.append(rss)
        if not np.isfinite(rss):
            raise ConvergenceError(
                "backfitting diverged to non-finite values",
                trajectory=tuple(trajectory),
            )
        if max_change < config.tol:
            return state, blocks, cycles_run, trajectory

    raise ConvergenceError(
        f"backfitting did not converge in {config.max_cycles} cycles",
        trajectory=tuple(trajectory),
    )


def _build_smooths(blocks: list[_Block], state: _FitState) -> tuple[SmoothFunction, ...]:
    smooths = []
    for j, block in enumerate(blocks):
        if block.kind == "linear":
            smooths.append(
                SmoothFunction(
                    feature=j, kind="linear", knots=np.empty(0), values=np.empty(0),
                    slope=float(state.params[j][0]), center=state.centers[j],
                )
            )
        else:
            smooths.append(
                SmoothFunction(
                    feature=j, kind="spline", knots=block.knots.copy(),
                    values=state.params[j].copy(), slope=0.0, center=state.centers[j],
                )
            )
    return tuple(smooths)


def _state_from_model(model: GamModel, X: np.ndarray) -> _FitState:
    components = [model.smooths[j](X[:, j]) for j in range(N_FEATURES)]
    params = []
    for smooth in model.smooths:
        if smooth.kind == "linear":
            params.append(np.array([smooth.slope]))
        else:
            params.append(smooth.values.copy())
    return _FitState(
        intercept=model.intercept,
        params=params,
        centers=[s.center for s in model.smooths],
        components=components,
        gammas=[t.gamma for t in model.interactions],
    )


def fit_gam(
    train: Dataset,
    config: EncodingConfig = DEFAULT_ENCODING,
    link: LinkKind = LinkKind.IDENTITY,
    smooth: SmoothConfig = SmoothConfig(),
) -> GamModel:
    """Backfit the additive model on encoded features.

    The intercept starts at the mean of the (link-transformed) response with
    all components zero; cycles stop when no component moved more than
    ``smooth.tol`` anywhere on the training sample.
    """
    if train.n < _MIN_TRAIN_ROWS:
        raise ValidationError(f"fit_gam needs at least {_MIN_TRAIN_ROWS} rows, got {train.n}")
    X, y = encode_dataset(train, config)
    if y is None:
        raise ValidationError("cannot fit on records without expenditure")
    z = _working_response(y, link)
    state, blocks, cycles, trajectory = _backfit(X, z, smooth, pairs=[])
    return GamModel(
        intercept=state.intercept,
        link=link,
        smooths=_build_smooths(blocks, state),
        interactions=(),
        cycles=cycles,
        rss=trajectory[-1],
        smooth_config=smooth,
        encoding=config,
    )


def predict_gam(model: GamModel, X: np.ndarray) -> np.ndarray:
    """Predictions at the rows of an (n, 6) encoded feature matrix."""
    X = feature_matrix(X)
    values = [model.smooths[j](X[:, j]) for j in range(N_FEATURES)]
    eta = model.intercept + sum(values)
    for term in model.interactions:
        eta += term.gamma * values[term.i] * values[term.j]
    return _inverse_link(eta, model.link)


def add_interaction(model: GamModel, i: int, j: int, train: Dataset) -> GamModel:
    """Extend the model with one gamma * f_i * f_j term and refit.

    Backfitting restarts from the current components, so the refit training
    RSS never exceeds the original model's (up to 1e-9 float slack).
    """
    if i == j:
        raise ValidationError(f"interaction needs two distinct features, got ({i}, {j})")
    i, j = min(i, j), max(i, j)
    existing = [(t.i, t.j) for t in model.interactions]
    if (i, j) in existing:
        raise ValidationError(f"interaction ({i}, {j}) already present")
    InteractionTerm(i, j, 0.0)  # bounds check

    X, y = encode_dataset(train, model.encoding)
    if y is None:
        raise ValidationError("cannot fit on records without expenditure")
    z = _working_response(y, model.link)
    pairs = existing + [(i, j)]
    warm = _state_from_model(model, X)
    warm.gammas = warm.gammas + [0.0]
    state, blocks, cycles, trajectory = _backfit(X, z, model.smooth_config, pairs, warm=warm)
    rss = trajectory[-1]
    if rss > model.rss + 1e-9:
        # The full refit drifted above the starting point (possible in
        # principle because the spline penalty is not part of the RSS);
        # fall back to the original components with a single exact gamma
        # update, which cannot increase the RSS.
        state = _state_from_model(model, X)
        u = state.components[i] * state.components[j]
        denom = float(u @ u)
        residual = z - (state.intercept + np.sum(state.components, axis=0))
        for (a, b), gamma in zip(existing, state.gammas):
            residual -= gamma * state.components[a] * state.components[b]
        state.gammas = state.gammas + [0.0 if denom < 1e-12 else float(u @ residual) / denom]
        blocks = [_Block(X[:, col], model.smooth_config) for col in range(N_FEATURES)]
        rss = _state_rss(z, state, pairs)
        cycles = 1
    return GamModel(
        intercept=state.intercept,
        link=model.link,
        smooths=_build_smooths(blocks, state),
        interactions=tuple(
            InteractionTerm(a, b, g) for (a, b), g in zip(pairs, state.gammas)
        ),
        cycles=cycles,
        rss=rss,
        smooth_config=model.smooth_config,
        encoding=model.encoding,
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

    Score is the relative training-RSS reduction of the refit with that one
    pair added.  Significance additionally requires a permutation check: the
    squared projection of the base residuals onto the (centered) smooth
    product must beat ``permutations`` shuffled replicas at p < 0.05.
    A pair whose refit fails to converge is reported with score None.
    """
    X, y = encode_dataset(train, base.encoding)
    if y is None:
        raise ValidationError("cannot scan records without expenditure")
    z = _working_response(y, base.link)
    base_state = _state_from_model(base, X)
    base_pairs = [(t.i, t.j) for t in base.interactions]
    base_rss = _state_rss(z, base_state, base_pairs)
    fitted = base_state.intercept + np.sum(base_state.components, axis=0)
    for (a, b), gamma in zip(base_pairs, base_state.gammas):
        fitted += gamma * base_state.components[a] * base_state.components[b]
    residual = z - fitted

    rng = np.random.default_rng(seed)
    results = []
    for i, j in itertools.combinations(range(N_FEATURES), 2):
        u = base_state.components[i] * base_state.components[j]
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


def collinearity_csv(report: CollinearityReport) -> str:
    """Long-form CSV: correlation rows then VIF rows."""
    lines = ["kind,feature_a,feature_b,value,flagged"]
    flagged_pairs = {(i, j) for i, j, _ in report.flagged}
    for i, j in itertools.combinations(range(N_FEATURES), 2):
        mark = "yes" if (i, j) in flagged_pairs else "no"
        lines.append(
            f"corr,{FEATURE_NAMES[i]},{FEATURE_NAMES[j]},{report.correlation[i, j]!r},{mark}"
        )
    for j in range(N_FEATURES):
        note = "degenerate" if j in report.degenerate else ""
        lines.append(f"vif,{FEATURE_NAMES[j]},,{report.vif[j]!r},{note}")
    return "\n".join(lines) + "\n"
