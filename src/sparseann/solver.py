"""Annealed warm start in proximal-gradient levels ending at the threshold.

The penalty level is ramped up along a sigmoid schedule ending at the
selected threshold.  Every level, warm-started from the previous one, runs
proximal gradient steps (ISTA): the penalized part theta1 takes
``soft_threshold(theta1 - t * g1, t * lambda)``, so small entries become
exact zeros, and the free part theta2 takes a plain gradient step.  Deep
weights below ``DEEP_FLUSH`` in magnitude are set to zero after every
step, so the outgoing weights of dead hidden units never reach slow
subnormal numbers.  Every level stops by one rule: once the first-order
optimality (KKT) residual at its new point, from the gradient that its next
step needs anyway, is at most ``STAGE_TOL * lambda`` of that level.  The
gradient that ends one level starts the next.  The levels differ only in
their step.  The six below the threshold take the fixed step
``LR_DESCENT`` at most ``descent_epochs`` times each (none in a cold
start): they only steer the path, so they need not converge.  The last
level, at the threshold itself, halves its step until the smooth part's
quadratic upper bound holds (backtracking), tries twice the accepted step
(at most 1) on the next iteration, and takes at most ``prox_max_iter``
steps; each trial goes into one buffer, which trades places with the
iterate on acceptance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateParameterError, NumericalError, check_int
from .network import (
    PROB_FLOOR,
    Dataset,
    NetworkShape,
    Theta,
    forward,
    loss_and_grad,
    loss_value,
    normalize_rows,
)
from .objective import penalty_l1, soft_threshold

# A level ends once the KKT residual at its new point is at most STAGE_TOL * lambda.
STAGE_TOL = 1e-3
# Deep weights smaller than this are set to zero after every update.  The
# outgoing weights of a hidden unit whose first-layer row is zero decay
# towards subnormals, whose arithmetic is many times slower; a deep row never
# has a norm below 1, so entries this small change no output.
DEEP_FLUSH = 1e-150
# The step of the six fixed-step levels.  A smaller first step, backtracking or
# step growth there lost pair-difference recoveries.
LR_DESCENT = 1e-2


@dataclass(frozen=True)
class SolverConfig:
    descent_epochs: int = 400  # most steps each warm-start level takes; 0 is a cold start
    prox_max_iter: int = 2000  # most steps the last level, at the threshold, takes
    init_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
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

    ``objective_trace`` holds one list per level of ``stage_lambdas``: the
    objective, at that level's lambda, where each of its steps starts, so
    its length varies with how soon the level converged.  The last list,
    the backtracking level at the threshold, ends with the objective at the
    returned point, so the lists hold one objective per gradient evaluation;
    a last-level step whose backtracking gets stuck is not taken and adds none.
    Model files (``to_dict``) leave the traces out.

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
        }


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
    for W in theta.deep:
        W[...] = normalize_rows(rng.standard_normal(W.shape))[0]
    if dataset is not None:
        theta.c[...] = _null_intercept(dataset, shape.link)
    return theta


def _flush_deep(theta: Theta):
    """Set deep weights below ``DEEP_FLUSH`` in magnitude to exactly zero."""
    for W in theta.deep:
        W[np.abs(W) < DEEP_FLUSH] = 0.0


def _ista_step(theta: Theta, grad: Theta, step: float, lam: float, out: Theta):
    """Write the ISTA step ``prox(theta - step * grad)`` into ``out`` and flush
    its deep weights.  ``out`` may be ``theta``."""
    out.theta1[...] = soft_threshold(theta.theta1 - step * grad.theta1, step * lam)
    np.subtract(theta.theta2, step * grad.theta2, out=out.theta2)
    _flush_deep(out)


def _kkt_residual(theta: Theta, grad: Theta, lam: float) -> float:
    """Largest first-order optimality residual at ``theta`` whose smooth-part
    gradient is ``grad``: ``|g1 + lam sign(w)|`` on nonzero penalized entries,
    ``max(|g1| - lam, 0)`` on zero ones and ``|g2|`` on the free ones."""
    w, g = theta.theta1, grad.theta1
    penalized = np.where(w != 0.0, np.abs(g + lam * np.sign(w)),
                         np.maximum(np.abs(g) - lam, 0.0))
    return max(penalized.max(initial=0.0), np.abs(grad.theta2).max(initial=0.0))


def _level_done(theta: Theta, grad: Theta, lam: float) -> bool:
    """``_kkt_residual(theta, grad, lam) <= STAGE_TOL * lam``.  The few free
    entries are tested first, so the full residual runs only once they pass."""
    tol = STAGE_TOL * lam
    return np.abs(grad.theta2).max(initial=0.0) <= tol and _kkt_residual(theta, grad, lam) <= tol


def _objective(loss: float, lam: float, theta: Theta) -> float:
    """The penalized objective at ``theta``; a non-finite one means divergence."""
    obj = loss + lam * penalty_l1(theta)
    if not np.isfinite(obj):
        raise FloatingPointError("the objective is not finite")
    return obj


# An overflow or an invalid operation means the iterates blew up: stop at the
# first one, as a NumericalError, instead of warning and carrying inf and NaN on.
@np.errstate(over="raise", invalid="raise", divide="raise")
def fit(
    shape: NetworkShape,
    dataset: Dataset,
    lambda_qut: float,
    config: SolverConfig,
) -> FitResult:
    """Run the warm-start schedule; its last level is the backtracking one.

    With ``SolverConfig(descent_epochs=0)`` only the last level takes steps,
    from the random start (a cold start); the six others keep empty traces.
    """
    shape.check_widths(dataset.n_features, dataset.n_outputs)
    rng = np.random.default_rng(config.seed)
    theta = init_theta(shape, config, rng, dataset)
    loss_kind = dataset.loss_kind
    lambdas = lambda_schedule(lambda_qut)
    last = len(lambdas) - 1
    traces = []
    grad = Theta.zeros(shape)  # every gradient evaluation of the fit writes here
    trial = Theta.zeros(shape)  # every trial step of the last level writes here
    step = 0.5  # the last level's step: its first trial doubles it to 1
    stage = 0 if config.descent_epochs else last
    try:
        loss, grad = loss_and_grad(shape, theta, dataset, loss_kind, out=grad)
        for stage, lam in enumerate(lambdas):
            trace, new_pass = [], None
            traces.append(trace)
            for _ in range(config.prox_max_iter if stage == last else config.descent_epochs):
                objective = _objective(loss, lam, theta)  # before a fixed step moves theta
                if stage < last:
                    _ista_step(theta, grad, LR_DESCENT, lam, out=theta)
                else:
                    # each trial starts from twice the last accepted step, at most 1
                    step, new_pass = _backtrack(shape, theta, dataset, loss_kind, loss, grad,
                                                lam, min(2.0 * step, 1.0), trial)
                    if new_pass is None:
                        break  # stuck
                    theta, trial = trial, theta
                trace.append(objective)
                loss, grad = loss_and_grad(shape, theta, dataset, loss_kind, new_pass, out=grad)
                if _level_done(theta, grad, lam):
                    break
        trace.append(_objective(loss, lam, theta))
    except (ValueError, FloatingPointError):
        # non-finite intermediates mean the iterates blew up
        where = "the proximal stage" if stage == last else f"descent stage {stage}"
        raise NumericalError(f"objective diverged in {where}") from None

    return FitResult(
        theta=theta,
        support=estimated_support(theta),
        lambda_used=lam,
        stage_lambdas=list(lambdas),
        objective_trace=traces,
    )


def _backtrack(shape, theta, dataset, loss_kind, loss, grad, lam, step, trial):
    """Write the ISTA step from ``theta`` into ``trial``, halving ``step`` until
    the smooth part's quadratic upper bound holds there.

    Returns the accepted step and the forward pass ``(mu, cache)`` at ``trial``.
    When the step falls below 1e-14 with no trial accepted, returns None for
    the pass.
    """
    while True:
        _ista_step(theta, grad, step, lam, out=trial)
        try:
            new_pass = forward(shape, trial, dataset.X, return_cache=True)
            new_loss = loss_value(loss_kind, dataset.Y, new_pass[0])
        except (DegenerateParameterError, ValueError, FloatingPointError):
            new_pass, new_loss = None, np.inf
        delta = trial.flat - theta.flat
        inner = float(np.sum(grad.flat * delta))
        sq = float(np.sum(delta * delta))
        if new_loss <= loss + inner + sq / (2.0 * step) + 1e-12:
            return step, new_pass
        step *= 0.5
        if step < 1e-14:
            return step, None
