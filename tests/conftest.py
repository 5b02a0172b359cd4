"""Shared test helpers: hand-written datasets, and an oracle for the
additive model's penalized objective.

``make_dataset`` builds a ``Dataset`` from rows written by hand and
``rows_of`` reads one back as rows; both use the row layout

    (id, Gender, age, income, smoker, PriorClaim, expenditure or None)

The penalized objective of an identity-link GAM on its training data is

    ||y - b0 - sum_j N_j a_j||^2 + sum_j a_j' (lambda Omega_j) a_j

with N_j the uncentred design of component j in the model's own basis (the
column x for a linear component).  Scipy minimises it independently of the
package: one least-squares solve of the stacked system [1 N; 0 L] with
L' L = blockdiag(lambda Omega_j), no centring.
"""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from pricelab import smoothing
from pricelab.dataset import CLAIMS, Dataset, Gender, encode_dataset
from pricelab.gam import predict_gam


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
