"""Linear pricing baseline: g(y) = b0 + b1 x1 + ... + b6 x6.

Both links fit by one LAPACK least-squares call per step, minimum-norm on a
rank-deficient design.  The identity link makes that call once.  The log link
runs iteratively reweighted least squares for the nonlinear least-squares
problem min sum (y - exp(eta))^2: working response z = eta + (y - mu)/mu and
working weights mu^2 (constant response variance, i.e. quasi-Gaussian).  A
system that is not finite raises NumericError before it reaches LAPACK.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dataset import (
    Dataset,
    N_FEATURES,
    encode_with_response,
    feature_matrix,
)
from .errors import ConvergenceError, NumericError, SingularityError, ValidationError

_IRLS_TOL = 1e-8
_IRLS_MAX_ITER = 100
LOG_FLOOR = 1.0  # currency floor applied to a response before its log


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
    family = "glm"  # class constant, not a field

    def __post_init__(self) -> None:
        if self.coef.shape != (N_FEATURES,):
            raise ValidationError(f"coef must have shape ({N_FEATURES},)")
        if not (math.isfinite(self.intercept) and np.all(np.isfinite(self.coef))):
            raise ValidationError("GLM coefficients must be finite")


def _least_squares(design: np.ndarray, target: np.ndarray,
                   weights: np.ndarray | None = None) -> np.ndarray:
    """Minimum-norm solution of the (optionally weighted) least-squares
    problem; a system that is not finite is refused before LAPACK sees it."""
    if weights is not None:
        root = np.sqrt(weights)
        design, target = design * root[:, None], target * root
    if not (np.all(np.isfinite(design)) and np.all(np.isfinite(target))):
        raise NumericError("GLM fit: the least-squares system is not finite")
    return np.linalg.lstsq(design, target, rcond=None)[0]


def _gauss_newton(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """Log link: IRLS on sum (y - exp(eta))^2; (beta, iterations, fitted)."""
    beta = _least_squares(design, np.log(np.clip(y, LOG_FLOOR, None)))
    for iteration in range(1, _IRLS_MAX_ITER + 1):
        eta = np.clip(design @ beta, -30.0, 30.0)
        mu = np.exp(eta)
        new_beta = _least_squares(design, eta + (y - mu) / mu, weights=mu**2)
        change = np.max(np.abs(new_beta - beta)) / max(1.0, np.max(np.abs(new_beta)))
        beta = new_beta
        if change < _IRLS_TOL:
            return beta, iteration, np.exp(np.clip(design @ beta, -30.0, 30.0))
    raise ConvergenceError(
        f"IRLS did not converge in {_IRLS_MAX_ITER} iterations; "
        f"last coefficients: {beta.tolist()}"
    )


def fit_glm(
    train: Dataset,
    *,
    link: LinkKind = LinkKind.IDENTITY,
) -> GlmModel:
    """Least-squares fit of the linear predictor on encoded features."""
    X, y = encode_with_response(train)
    n, p = X.shape[0], N_FEATURES + 1
    if n <= p:
        raise SingularityError(
            f"underdetermined fit: {n} rows for {p} parameters (need more rows than parameters)"
        )
    design = np.hstack([np.ones((n, 1)), X])
    if link is LinkKind.IDENTITY:
        beta = _least_squares(design, y)
        iterations, fitted = 1, design @ beta
    else:
        beta, iterations, fitted = _gauss_newton(design, y)
    residuals = y - fitted
    return GlmModel(intercept=float(beta[0]), coef=beta[1:].copy(), link=link,
                    rss=float(residuals @ residuals), iterations=iterations)


def predict_glm(model: GlmModel, X: np.ndarray) -> np.ndarray:
    """Predictions at the rows of an (n, 6) encoded feature matrix."""
    eta = model.intercept + feature_matrix(X) @ model.coef
    if model.link is LinkKind.LOG:
        return np.exp(eta)
    return eta
