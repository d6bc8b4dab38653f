"""Two-phase fitting: annealed warm-start descent, then proximal refinement.

The penalty level is ramped up along a sigmoid schedule ending at the
selected threshold; each stage runs small-step full-batch gradient descent
warm-started from the previous stage.  A final proximal-gradient phase
(ISTA with backtracking) sets penalized entries exactly to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateParameterError, NumericalError, check_seed
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
        if self.lr_descent <= 0 or self.descent_epochs < 0:
            raise ValueError("descent parameters must be positive")
        if self.prox_max_iter < 1 or not 0 < self.prox_tol < 1:
            raise ValueError("invalid proximal-phase parameters")
        if self.init_scale < 0:
            raise ValueError("init_scale must be nonnegative")
        check_seed(self.seed)


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
        result = FitResult(
            theta=Theta.from_dict(d["theta"]),
            support=[int(j) for j in d["support"]],
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
    w = shape.widths
    l = shape.n_layers
    s = config.init_scale
    theta = Theta(
        W1=rng.uniform(-s, s, size=(w[1], w[0])),
        biases=[rng.uniform(-s, s, size=w[k + 1]) for k in range(l - 1)],
        deep=[_unit_rows(rng.standard_normal((w[k], w[k - 1]))) for k in range(2, l + 1)],
        c=np.zeros(w[-1]),
    )
    if dataset is not None:
        theta.c = _null_intercept(dataset, shape.link)
    return theta


def _unit_rows(W: np.ndarray) -> np.ndarray:
    return normalize_rows(W)[0]


def _guard_rows(theta: Theta, rng: np.random.Generator):
    """Re-draw any deep weight row whose norm collapsed below the floor."""
    for W in theta.deep:
        norms = np.linalg.norm(W, axis=1)
        bad = norms < ROW_NORM_FLOOR
        if np.any(bad):
            W[bad] = _unit_rows(rng.standard_normal((int(bad.sum()), W.shape[1])))


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
            for a, g in zip(theta.theta1_arrays(), grad.theta1_arrays()):
                a -= lr * (g + lam * np.sign(a))
            for a, g in zip(theta.theta2_arrays(), grad.theta2_arrays()):
                a -= lr * g
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
        cand = prox_l1(Theta(
            theta.W1 - step * grad.W1,
            [b - step * g for b, g in zip(theta.biases, grad.biases)],
            [W - step * g for W, g in zip(theta.deep, grad.deep)],
            theta.c - step * grad.c,
        ), step, lam)
        try:
            new_loss = loss_value(loss_kind, dataset.Y, forward(shape, cand, dataset.X))
        except (NumericalError, DegenerateParameterError, ValueError):
            new_loss = np.inf
        # quadratic upper-bound test for the smooth part
        inner = 0.0
        sq = 0.0
        for a_new, a_old, g in zip(cand.all_arrays(), theta.all_arrays(), grad.all_arrays()):
            delta = a_new - a_old
            inner += float(np.sum(g * delta))
            sq += float(np.sum(delta * delta))
        if new_loss <= loss + inner + sq / (2.0 * step) + 1e-12:
            return cand, new_loss, step
        step *= 0.5
        if step < 1e-14:
            return theta.copy(), loss, step  # stuck; caller's tolerance will stop
