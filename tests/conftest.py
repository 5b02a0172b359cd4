"""Shared test helpers: hand-written datasets, oracles for the additive
model's penalized objective, the network's gradients and the overfitting
scan's threshold.

``make_dataset`` builds a ``Dataset`` from rows written by hand and
``rows_of`` reads one back as rows; both use the row layout

    (id, Gender, age, income, smoker, PriorClaim, expenditure or None)

The penalized objective of an identity-link GAM on its training data is

    ||y - b0 - sum_j N_j a_j||^2 + sum_j a_j' (lambda Omega_j) a_j

with N_j the uncentred design of component j in the model's own basis (the
column x for a linear component).  Scipy minimises it independently of the
package: one least-squares solve of the stacked system [1 N; 0 L] with
L' L = blockdiag(lambda Omega_j), no centring.

``gradient_check`` compares the network's backprop gradient with central
finite differences, and ``_detect_threshold`` scans a whole ladder for the
threshold that ``overfit_scan`` finds incrementally.  ``package_env`` is the
environment of a fresh Python process that imports this package.
"""

import os
from pathlib import Path
from types import SimpleNamespace
from typing import Sequence

import numpy as np
import pytest
import scipy.linalg

import pricelab
from pricelab import smoothing
from pricelab.ann import Weights, _gradients, _run, _Workspace
from pricelab.dataset import CLAIMS, CSV_COLUMNS, Dataset, Gender, encode_dataset
from pricelab.errors import ValidationError
from pricelab.evaluation import PATIENCE, _upturn_at
from pricelab.gam import predict_gam


# Header lines outside the header's grammar (the exact names, split on
# commas): a padded name, a quoted one, a name ending in a tab, and a
# quoted name holding a line break.
REFUSED_HEADERS = {
    "padded": ",".join(CSV_COLUMNS).replace("gender", " gender "),
    "quoted": ",".join(CSV_COLUMNS).replace("id", '"id"', 1),
    "tab": ",".join(CSV_COLUMNS).replace("id", "id\t", 1),
    "line-break": ",".join(CSV_COLUMNS).replace("id", '"id\n"', 1),
}


def make_dataset(rows) -> Dataset:
    """A dataset of hand-written rows; the expenditure column is absent
    when every row's expenditure is None."""
    ids, genders, ages, incomes, smokers, claims, spend = zip(*rows)
    return Dataset(
        ids=ids, male=[g is Gender.MALE for g in genders], age=ages, income=incomes,
        smoker=smokers, claim=[CLAIMS.index(c) for c in claims],
        expenditure=None if all(e is None for e in spend) else spend,
    )


def rows_of(data: Dataset) -> list[tuple]:
    """The rows of a dataset, in the layout ``make_dataset`` takes."""
    spend = [None] * data.n if data.expenditure is None else data.expenditure.tolist()
    return list(zip(
        data.ids.tolist(), [Gender.MALE if m else Gender.FEMALE for m in data.male.tolist()],
        data.age.tolist(), data.income.tolist(), data.smoker.tolist(),
        [CLAIMS[c] for c in data.claim.tolist()], spend,
    ))


def _blocks(model, X):
    """(uncentred design, penalty, parameters) of each fitted component."""
    blocks = []
    for smooth, x in zip(model.smooths, X.T):
        if smooth.kind == "linear":
            blocks.append((x[:, None], np.zeros((1, 1)), np.array([smooth.slope])))
        else:
            penalty = model.smooth_config.penalty * smoothing.penalty_matrix(smooth.knots)
            blocks.append((smoothing.design_matrix(x, smooth.knots), penalty, smooth.values))
    return blocks


def _root(penalty):
    """L with L' L = penalty; eigenvalues at rounding level count as zero."""
    w, v = scipy.linalg.eigh(penalty)
    w = np.where(w > 1e-10 * max(w.max(), 0.0), w, 0.0)
    return np.sqrt(w)[:, None] * v.T


def objective_and_minimum(model, data):
    """(the model's penalized objective, scipy's minimum of it) on ``data``."""
    X, y = encode_dataset(data)
    blocks = _blocks(model, X)
    design = np.hstack([N for N, _, _ in blocks])
    penalty = scipy.linalg.block_diag(*[P for _, P, _ in blocks])

    r = y - predict_gam(model, X)
    params = np.concatenate([a for _, _, a in blocks])
    objective = float(r @ r + params @ penalty @ params)

    p = design.shape[1]
    stacked = np.vstack([
        np.hstack([np.ones((len(y), 1)), design]),
        np.hstack([np.zeros((p, 1)), scipy.linalg.block_diag(*[_root(P) for _, P, _ in blocks])]),
    ])
    theta = scipy.linalg.lstsq(stacked, np.concatenate([y, np.zeros(p)]), cond=1e-10)[0]
    r = y - theta[0] - design @ theta[1:]
    return objective, float(r @ r + theta[1:] @ penalty @ theta[1:])


def relative_gradient(model, data):
    """||grad|| / ||D'y|| of the objective in the centred parameterisation."""
    X, y = encode_dataset(data)
    blocks = _blocks(model, X)
    D = np.hstack([N - N.mean(axis=0) for N, _, _ in blocks])
    penalty = scipy.linalg.block_diag(*[P for _, P, _ in blocks])
    params = np.concatenate([a for _, _, a in blocks])
    gradient = (D.T @ D + penalty) @ params - D.T @ y
    return float(np.linalg.norm(gradient) / np.linalg.norm(D.T @ y))


@pytest.fixture(scope="session")
def gam_oracle():
    """The penalized-objective oracle; both functions take (model, training data)."""
    return SimpleNamespace(
        objective_and_minimum=objective_and_minimum, relative_gradient=relative_gradient,
    )


def gradient_check(
    weights: Weights, sample: tuple[np.ndarray, float], epsilon: float = 1e-6
) -> float:
    """Max relative error between backprop and central finite differences.

    The checked objective is the per-sample squared error of the scaled
    output.  Relative error per parameter is |a - n| / max(|a| + |n|, 1e-8).
    """
    if not (1e-8 <= epsilon <= 1e-4):
        raise ValidationError(f"epsilon must lie in [1e-8, 1e-4], got {epsilon}")
    x, target = sample
    work = _Workspace(weights, np.asarray(x, dtype=float)[None, :], np.array([float(target)]))
    _gradients(work)
    analytic, flat = work.grad.copy(), work.theta.copy()

    def loss_at(k: int, value: float) -> float:
        work.theta[k] = value
        _run(work.forward)
        work.theta[k] = flat[k]
        return float((work.out[0] - work.targets[0]) ** 2)

    worst = 0.0
    for k in range(flat.size):
        up = loss_at(k, flat[k] + epsilon)
        down = loss_at(k, flat[k] - epsilon)
        numeric = (up - down) / (2.0 * epsilon)
        rel = abs(analytic[k] - numeric) / max(abs(analytic[k]) + abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst


def _detect_threshold(train_err: Sequence[float], val_err: Sequence[float]) -> int | None:
    """First index t where val rises for ``PATIENCE`` straight steps while
    train falls at the upturn."""
    for t in range(1, len(val_err) - PATIENCE + 1):
        if _upturn_at(train_err, val_err, t):
            return t
    return None


def package_env() -> dict[str, str]:
    """The environment for a ``python`` process that imports this package."""
    package_root = str(Path(pricelab.__file__).resolve().parent.parent)
    path = [package_root, *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
