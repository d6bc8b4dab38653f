"""Two-phase fitting: annealed warm-start descent, then proximal refinement.

The penalty level is ramped up along a sigmoid schedule ending at the
selected threshold; each stage runs small-step full-batch gradient descent
warm-started from the previous stage.  A final proximal-gradient phase
(ISTA with backtracking) sets penalized entries exactly to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateParameterError, NumericalError, check_int
from .network import (
    PROB_FLOOR,
    ROW_NORM_FLOOR,
    Dataset,
    NetworkShape,
    Theta,
    forward,
    loss_and_grad,
    loss_value,
    normalize_rows,
)
from .objective import penalty_l1, prox_l1


@dataclass(frozen=True)
class SolverConfig:
    lr_descent: float = 1e-2
    descent_epochs: int = 800
    prox_max_iter: int = 2000
    prox_tol: float = 1e-8
    init_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.lr_descent < math.inf:
            raise ValueError(f"lr_descent must be positive and finite, "
                             f"got {self.lr_descent!r}")
        if not 0 < self.prox_tol < 1:
            raise ValueError(f"prox_tol must be in (0, 1), got {self.prox_tol!r}")
        # rng.uniform(-s, s) needs the width 2 s to be finite
        if not 0 <= 2 * self.init_scale < math.inf:
            raise ValueError(f"init_scale must be nonnegative with 2 * init_scale finite, "
                             f"got {self.init_scale!r}")
        check_int(self.descent_epochs, "descent_epochs")
        check_int(self.prox_max_iter, "prox_max_iter", 1)
        check_int(self.seed, "seed")


@dataclass
class FitResult:
    """Fitted parameters, estimated support and per-stage objective traces.

    ``support`` holds 0-based input-column indices whose first-layer weight
    column is not identically zero (the epsilon = 0 rule).
    """

    theta: Theta
    support: list
    lambda_used: float
    stage_lambdas: list
    objective_trace: list = field(default_factory=list)  # one list per stage

    def to_dict(self, shape: NetworkShape) -> dict:
        return {
            "shape": shape.to_dict(),
            "theta": self.theta.to_dict(),
            "support": list(self.support),
            "lambda_used": self.lambda_used,
            "stage_lambdas": list(self.stage_lambdas),
            "objective_trace": [list(t) for t in self.objective_trace],
        }

    @staticmethod
    def from_dict(d: dict):
        shape = NetworkShape.from_dict(d["shape"])
        theta = Theta.from_dict(d["theta"])
        result = FitResult(
            theta=theta,
            support=estimated_support(theta),
            lambda_used=float(d["lambda_used"]),
            stage_lambdas=[float(x) for x in d["stage_lambdas"]],
            objective_trace=[list(map(float, t)) for t in d["objective_trace"]],
        )
        return shape, result


def lambda_schedule(lambda_qut: float) -> list:
    """Sigmoid ramp exp(k)/(1+exp(k)) * lambda for k = -1..4, then lambda itself."""
    if lambda_qut < 0:
        raise ValueError("lambda_qut must be nonnegative")
    ks = np.arange(-1, 5, dtype=float)
    fracs = 1.0 / (1.0 + np.exp(-ks))
    return [float(f * lambda_qut) for f in fracs] + [float(lambda_qut)]


def estimated_support(theta: Theta) -> list:
    """Input columns with any nonzero first-layer weight (epsilon = 0)."""
    return [int(j) for j in np.flatnonzero(np.any(theta.W1 != 0.0, axis=0))]


def _null_intercept(dataset: Dataset, link: str) -> np.ndarray:
    """Intercept minimizing the loss for the constant model."""
    if dataset.task == "regression":
        return dataset.Y.mean(axis=0)
    p_hat = np.clip(dataset.Y.mean(axis=0), PROB_FLOOR, None)
    if link == "softmax":
        return np.log(p_hat)
    if link == "logit":
        c = np.log(p_hat / p_hat[-1])
        c[-1] = 0.0
        return c
    raise ValueError(f"classification needs a simplex link, got {link!r}")


def init_theta(shape: NetworkShape, config: SolverConfig, rng: np.random.Generator,
               dataset: Dataset = None) -> Theta:
    """Random start: small uniform penalized part, unit-norm deep rows.

    With a dataset given, the intercept starts at the constant-model
    minimizer so the start point matches the null of the threshold theory.
    """
    s = config.init_scale
    theta = Theta.zeros(shape)
    theta.theta1[...] = rng.uniform(-s, s, size=theta.theta1.size)
    _guard_rows(theta, rng)  # every deep row is zero, so each is drawn
    if dataset is not None:
        theta.c[...] = _null_intercept(dataset, shape.link)
    return theta


def _guard_rows(theta: Theta, rng: np.random.Generator):
    """Re-draw any deep weight row whose norm collapsed below the floor."""
    for W in theta.deep:
        norms = np.linalg.norm(W, axis=1)
        bad = norms < ROW_NORM_FLOOR
        if np.any(bad):
            W[bad] = normalize_rows(rng.standard_normal((int(bad.sum()), W.shape[1])))[0]


def _loss_kind(dataset: Dataset) -> str:
    return "sqrt_l2" if dataset.task == "regression" else "cross_entropy"


def fit(
    shape: NetworkShape,
    dataset: Dataset,
    lambda_qut: float,
    config: SolverConfig,
    anneal: bool = True,
) -> FitResult:
    """Run the warm-start schedule and the proximal refinement.

    With ``anneal=False`` the schedule is skipped and descent runs directly
    at the final penalty level (cold start); used for comparisons only.
    """
    rng = np.random.default_rng(config.seed)
    theta = init_theta(shape, config, rng, dataset)
    loss_kind = _loss_kind(dataset)
    lambdas = lambda_schedule(lambda_qut) if anneal else [float(lambda_qut)]
    traces = []

    for stage, lam in enumerate(lambdas):
        trace = []
        for _ in range(config.descent_epochs):
            try:
                loss, grad = loss_and_grad(shape, theta, dataset, loss_kind)
            except ValueError:
                # non-finite intermediates mean the iterates blew up
                raise NumericalError(f"objective diverged in descent stage {stage}")
            obj = loss + lam * penalty_l1(theta)
            if not np.isfinite(obj):
                raise NumericalError(f"objective diverged in descent stage {stage}")
            trace.append(obj)
            lr = config.lr_descent
            theta.theta1[...] -= lr * (grad.theta1 + lam * np.sign(theta.theta1))
            theta.theta2[...] -= lr * grad.theta2
            _guard_rows(theta, rng)
        traces.append(trace)

    lam = float(lambda_qut)
    trace = []
    step = 1.0
    loss, grad = loss_and_grad(shape, theta, dataset, loss_kind)
    obj = loss + lam * penalty_l1(theta)
    for it in range(config.prox_max_iter):
        trace.append(obj)
        new_theta, new_loss, step = _prox_step(
            shape, theta, dataset, loss_kind, loss, grad, lam, step
        )
        new_obj = new_loss + lam * penalty_l1(new_theta)
        if not np.isfinite(new_obj):
            raise NumericalError("objective diverged in the proximal stage")
        _guard_rows(new_theta, rng)
        done = abs(obj - new_obj) <= config.prox_tol * max(1.0, abs(obj))
        theta, obj = new_theta, new_obj
        if done:
            break
        loss, grad = loss_and_grad(shape, theta, dataset, loss_kind)
    trace.append(obj)
    traces.append(trace)

    return FitResult(
        theta=theta,
        support=estimated_support(theta),
        lambda_used=lam,
        stage_lambdas=list(lambdas),
        objective_trace=traces,
    )


def _prox_step(shape, theta, dataset, loss_kind, loss, grad, lam, step):
    """One ISTA step with backtracking halving until sufficient decrease."""
    while True:
        cand = prox_l1(Theta.from_flat(shape, theta.flat - step * grad.flat), step, lam)
        try:
            new_loss = loss_value(loss_kind, dataset.Y, forward(shape, cand, dataset.X))
        except (NumericalError, DegenerateParameterError, ValueError):
            new_loss = np.inf
        # quadratic upper-bound test for the smooth part
        delta = cand.flat - theta.flat
        inner = float(np.sum(grad.flat * delta))
        sq = float(np.sum(delta * delta))
        if new_loss <= loss + inner + sq / (2.0 * step) + 1e-12:
            return cand, new_loss, step
        step *= 0.5
        if step < 1e-14:
            return theta.copy(), loss, step  # stuck; caller's tolerance will stop
