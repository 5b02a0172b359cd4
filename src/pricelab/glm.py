"""Linear pricing baseline: g(y) = b0 + b1 x1 + ... + b6 x6.

Identity link solves the normal equations directly.  The log link runs
iteratively reweighted least squares for the nonlinear least-squares problem
min sum (y - exp(eta))^2: working response z = eta + (y - mu)/mu and working
weights mu^2 (constant response variance, i.e. quasi-Gaussian).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .dataset import (
    DEFAULT_ENCODING,
    Dataset,
    EncodingConfig,
    N_FEATURES,
    encode_with_response,
    feature_matrix,
)
from .errors import ConvergenceError, SingularityError, ValidationError

RIDGE_EPS = 1e-8
_IRLS_TOL = 1e-8
_IRLS_MAX_ITER = 100


class LinkKind(enum.Enum):
    IDENTITY = "identity"
    LOG = "log"


@dataclass(frozen=True)
class GlmModel:
    intercept: float
    coef: np.ndarray
    link: LinkKind
    rss: float
    iterations: int
    encoding: EncodingConfig = field(default_factory=lambda: DEFAULT_ENCODING)
    family = "glm"  # class constant, not a field

    def __post_init__(self) -> None:
        if self.coef.shape != (N_FEATURES,):
            raise ValidationError(f"coef must have shape ({N_FEATURES},)")
        if not (math.isfinite(self.intercept) and np.all(np.isfinite(self.coef))):
            raise ValidationError("GLM coefficients must be finite")


def _solve_normal(design: np.ndarray, target: np.ndarray,
                  weights: np.ndarray | None = None) -> np.ndarray:
    """Solve the (optionally weighted) normal equations.

    A rank-deficient design gets a ridge of RIDGE_EPS on the diagonal.
    """
    a = design if weights is None else design * np.sqrt(weights)[:, None]
    b = target if weights is None else target * np.sqrt(weights)
    singular_values = np.linalg.svd(a, compute_uv=False)
    cutoff = singular_values[0] * max(a.shape) * np.finfo(float).eps
    rank = int(np.sum(singular_values > cutoff))
    gram = a.T @ a
    rhs = a.T @ b
    if rank == design.shape[1]:
        return np.linalg.solve(gram, rhs)
    return np.linalg.solve(gram + RIDGE_EPS * np.eye(design.shape[1]), rhs)


def fit_glm(
    train: Dataset,
    config: EncodingConfig = DEFAULT_ENCODING,
    link: LinkKind = LinkKind.IDENTITY,
) -> GlmModel:
    """Least-squares fit of the linear predictor on encoded features."""
    X, y = encode_with_response(train, config)
    n, p = X.shape[0], N_FEATURES + 1
    if n <= p:
        raise SingularityError(
            f"underdetermined fit: {n} rows for {p} parameters (need more rows than parameters)"
        )
    design = np.hstack([np.ones((n, 1)), X])

    if link is LinkKind.IDENTITY:
        beta = _solve_normal(design, y)
        residuals = y - design @ beta
        return GlmModel(
            intercept=float(beta[0]),
            coef=beta[1:].copy(),
            link=link,
            rss=float(residuals @ residuals),
            iterations=1,
            encoding=config,
        )

    # Log link: Gauss-Newton on sum (y - exp(eta))^2.
    beta = _solve_normal(design, np.log(np.clip(y, 1.0, None)))
    for iteration in range(1, _IRLS_MAX_ITER + 1):
        eta = np.clip(design @ beta, -30.0, 30.0)
        mu = np.exp(eta)
        z = eta + (y - mu) / mu
        weights = mu**2
        new_beta = _solve_normal(design, z, weights=weights)
        change = np.max(np.abs(new_beta - beta)) / max(1.0, np.max(np.abs(new_beta)))
        beta = new_beta
        if change < _IRLS_TOL:
            mu = np.exp(np.clip(design @ beta, -30.0, 30.0))
            residuals = y - mu
            return GlmModel(
                intercept=float(beta[0]),
                coef=beta[1:].copy(),
                link=link,
                rss=float(residuals @ residuals),
                iterations=iteration,
                encoding=config,
            )
    raise ConvergenceError(
        f"IRLS did not converge in {_IRLS_MAX_ITER} iterations; "
        f"last coefficients: {beta.tolist()}"
    )


def predict_glm(model: GlmModel, X: np.ndarray) -> np.ndarray:
    """Predictions at the rows of an (n, 6) encoded feature matrix."""
    eta = model.intercept + feature_matrix(X) @ model.coef
    if model.link is LinkKind.LOG:
        return np.exp(eta)
    return eta
