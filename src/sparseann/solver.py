"""Annealed warm start in proximal-gradient levels ending at the threshold.

The penalty level is ramped up along a sigmoid schedule ending at the
selected threshold.  Every level, warm-started from the previous one, runs
proximal gradient steps (ISTA): the penalized part theta1 takes
``soft_threshold(theta1 - t * g1, t * lambda)``, so small entries become
exact zeros, and the free part theta2 takes a plain gradient step.  Deep
weights below ``DEEP_FLUSH`` in magnitude are set to zero after every
step, so the outgoing weights of dead hidden units never reach slow
subnormal numbers.  The levels below the threshold take the fixed step
``lr_descent`` for at most ``descent_epochs`` steps; the last level, at the
threshold itself, halves its step until the smooth part's quadratic upper
bound holds (backtracking) and takes at most ``prox_max_iter`` steps.
Every level stops once the prox-gradient mapping of its step,
``max(|delta theta1|_inf / t, |g2|_inf)``, is at most ``STAGE_TOL * lambda``,
so each level's objective trace has a variable length.
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
from .objective import penalty_l1, soft_threshold

# A level ends once its prox-gradient mapping is at most STAGE_TOL * lambda.
STAGE_TOL = 1e-3
# Deep weights smaller than this are set to zero after every update.  The
# outgoing weights of a hidden unit whose first-layer row is zero decay
# towards subnormals, whose arithmetic is many times slower; a deep row never
# has a norm below 1, so entries this small change no output.
DEEP_FLUSH = 1e-150


@dataclass(frozen=True)
class SolverConfig:
    lr_descent: float = 1e-2
    descent_epochs: int = 800  # most steps a warm-start stage takes
    prox_max_iter: int = 2000  # most steps the last level, at the threshold, takes
    init_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.lr_descent < math.inf:
            raise ValueError(f"lr_descent must be positive and finite, "
                             f"got {self.lr_descent!r}")
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

    ``objective_trace`` holds one list per level of ``stage_lambdas``, with
    one objective per gradient evaluation, so its length varies with how
    soon the level converged.  The last list, the backtracking level at the
    threshold, ends with the objective at the returned point.

    ``support`` holds 0-based input-column indices whose first-layer weight
    column is not identically zero (the epsilon = 0 rule).
    """

    theta: Theta
    support: list
    lambda_used: float
    stage_lambdas: list
    objective_trace: list = field(default_factory=list)  # one list per level

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
    """Re-draw any deep weight row whose norm is below the floor."""
    for W in theta.deep:
        norms = np.linalg.norm(W, axis=1)
        bad = norms < ROW_NORM_FLOOR
        if np.any(bad):
            W[bad] = normalize_rows(rng.standard_normal((int(bad.sum()), W.shape[1])))[0]


def _flush_deep(theta: Theta):
    """Set deep weights below ``DEEP_FLUSH`` in magnitude to exactly zero."""
    for W in theta.deep:
        W[np.abs(W) < DEEP_FLUSH] = 0.0


def _ista_step(theta: Theta, grad: Theta, step: float, lam: float, out: Theta) -> float:
    """Write the ISTA step ``prox(theta - step * grad)`` into ``out``, flush its
    deep weights, and return the step's prox-gradient mapping
    ``max(|delta theta1|_inf / step, |g2|_inf)``.  ``out`` may be ``theta``."""
    theta1 = soft_threshold(theta.theta1 - step * grad.theta1, step * lam)
    mapping = max(np.max(np.abs(theta1 - theta.theta1)) / step,
                  np.max(np.abs(grad.theta2)))
    out.theta1[...] = theta1
    np.subtract(theta.theta2, step * grad.theta2, out=out.theta2)
    _flush_deep(out)
    return mapping


# An overflow or an invalid operation means the iterates blew up: stop at the
# first one, as a NumericalError, instead of warning and carrying inf and NaN on.
@np.errstate(over="raise", invalid="raise", divide="raise")
def fit(
    shape: NetworkShape,
    dataset: Dataset,
    lambda_qut: float,
    config: SolverConfig,
    anneal: bool = True,
) -> FitResult:
    """Run the warm-start schedule; its last level is the backtracking one.

    With ``anneal=False`` the schedule is skipped and only the last level
    runs, at the final penalty level (cold start); used for comparisons only.
    """
    rng = np.random.default_rng(config.seed)
    theta = init_theta(shape, config, rng, dataset)
    loss_kind = dataset.loss_kind
    lambdas = lambda_schedule(lambda_qut) if anneal else [float(lambda_qut)]
    traces = []
    grad = Theta.zeros(shape)  # every gradient evaluation of the fit writes here

    lr = config.lr_descent
    for stage, lam in enumerate(lambdas[:-1]):
        trace = []
        try:
            for _ in range(config.descent_epochs):
                loss, grad = loss_and_grad(shape, theta, dataset, loss_kind, out=grad)
                obj = loss + lam * penalty_l1(theta)
                if not np.isfinite(obj):
                    raise NumericalError(f"objective diverged in descent stage {stage}")
                trace.append(obj)
                if _ista_step(theta, grad, lr, lam, out=theta) <= STAGE_TOL * lam:
                    break
        except (ValueError, FloatingPointError):
            # non-finite intermediates mean the iterates blew up
            raise NumericalError(f"objective diverged in descent stage {stage}") from None
        traces.append(trace)

    lam = lambdas[-1]
    trace = []
    step = 1.0
    try:
        loss, grad = loss_and_grad(shape, theta, dataset, loss_kind, out=grad)
        obj = loss + lam * penalty_l1(theta)
        for _ in range(config.prox_max_iter):
            trace.append(obj)
            theta, loss, step, mapping, new_pass = _prox_step(
                shape, theta, dataset, loss_kind, loss, grad, lam, step
            )
            obj = loss + lam * penalty_l1(theta)
            if not np.isfinite(obj):
                raise NumericalError("objective diverged in the proximal stage")
            if mapping is None or mapping <= STAGE_TOL * lam:
                break
            loss, grad = loss_and_grad(shape, theta, dataset, loss_kind, new_pass, out=grad)
    except FloatingPointError:
        raise NumericalError("objective diverged in the proximal stage") from None
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
    """One ISTA step with backtracking halving until sufficient decrease.

    Returns the new point, its loss, the step, the step's prox-gradient
    mapping and the forward pass ``(mu, cache)`` at the new point.  When the
    step falls below 1e-14 with no trial accepted, returns ``theta`` itself
    with None for the last two.
    """
    cand = theta.copy()
    while True:
        mapping = _ista_step(theta, grad, step, lam, out=cand)
        try:
            trial = forward(shape, cand, dataset.X, return_cache=True)
            new_loss = loss_value(loss_kind, dataset.Y, trial[0])
        except (NumericalError, DegenerateParameterError, ValueError, FloatingPointError):
            trial, new_loss = None, np.inf
        # quadratic upper-bound test for the smooth part
        delta = cand.flat - theta.flat
        inner = float(np.sum(grad.flat * delta))
        sq = float(np.sum(delta * delta))
        if new_loss <= loss + inner + sq / (2.0 * step) + 1e-12:
            return cand, new_loss, step, mapping, trial
        step *= 0.5
        if step < 1e-14:
            return theta, loss, step, None, None  # stuck
