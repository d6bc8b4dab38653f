"""The first-layer l1 penalty, the penalized objective and the soft-threshold prox."""

from __future__ import annotations

import numpy as np

from .activations import act_deriv
from .errors import DataError
from .network import (
    Dataset,
    NetworkShape,
    Theta,
    forward,
    loss_value,
    normalize_rows,
)


def penalty_l1(theta: Theta) -> float:
    """Sum of absolute values of the first-layer weights and all hidden biases."""
    return float(np.abs(theta.theta1).sum())


def objective_value(
    shape: NetworkShape, theta: Theta, dataset: Dataset, lam: float
) -> float:
    """Loss plus lambda times the l1 penalty on the penalized parameters."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    loss = loss_value(dataset.loss_kind, dataset.Y, forward(shape, theta, dataset.X))
    return loss + lam * penalty_l1(theta)


def soft_threshold(w: np.ndarray, t: float) -> np.ndarray:
    """sign(w) * max(|w| - t, 0); produces exact zeros."""
    return np.sign(w) * np.maximum(np.abs(w) - t, 0.0)


def hessian_at_null(shape: NetworkShape, theta: Theta, dataset: Dataset):
    """Bias-block Hessians of the square-root loss at the null point.

    For a 3-layer regression network, at W1 = 0, all biases 0 and c equal
    to the response mean, the Hessian blocks w.r.t. the two hidden bias
    vectors have the closed forms

        H_b1 = n sigma'(0)^4 (w3 W2)^T (w3 W2) / ||Yc||_2
        H_b2 = n sigma'(0)^2 w3^T w3 / ||Yc||_2

    with Yc the centered responses and w3, W2 the row-normalized deep
    weights of ``theta``.  Both are outer products, hence PSD.
    """
    if shape.n_layers != 3:
        raise ValueError("the closed-form bias Hessians require a 3-layer network")
    if dataset.task != "regression":
        raise ValueError("the closed-form bias Hessians are for regression")
    Yc = dataset.Y - dataset.Y.mean(axis=0)
    nrm = float(np.linalg.norm(Yc))
    if nrm < 1e-12:
        raise DataError("constant response: centered norm is zero")
    n = dataset.n
    sp0 = float(act_deriv(shape.activations[0], 0.0))
    W2_hat, _ = normalize_rows(theta.deep[0])
    w3_hat, _ = normalize_rows(theta.deep[1])
    v = (w3_hat @ W2_hat).ravel()  # 1 x p2 row
    H_b1 = n * sp0**4 * np.outer(v, v) / nrm
    w3r = w3_hat.ravel()
    H_b2 = n * sp0**2 * np.outer(w3r, w3r) / nrm
    return H_b1, H_b2


def descent_direction_certificate(
    shape: NetworkShape,
    dataset: Dataset,
    theta2: Theta,
    lam: float,
    n_directions: int,
    step: float,
    rng: np.random.Generator,
) -> bool:
    """Check that the null point is a finite-step local minimum.

    Starting from theta1 = 0 with the loss-minimizing intercept, perturbs
    the penalized parameters along random unit-l1 directions with the
    given step and verifies the penalized objective never decreases.
    """
    if dataset.task != "regression":
        raise ValueError("certificate implemented for regression only")
    theta = theta2.copy()
    theta.theta1[...] = 0.0
    theta.c[...] = dataset.Y.mean(axis=0)
    base = objective_value(shape, theta, dataset, lam)
    for _ in range(n_directions):
        d = rng.standard_normal(theta.theta1.size)
        d /= np.abs(d).sum()
        pert = theta.copy()
        pert.theta1[...] += step * d
        if objective_value(shape, pert, dataset, lam) < base - 1e-12:
            return False
    return True
