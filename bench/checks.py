"""Output checks, run after the timer stops.

The threshold check recomputes ``lambda_qut`` with numpy alone, from the
per-draw streams ``default_rng([seed, i])`` that ``compute_qut`` documents,
so it shares no code with ``sparseann.qut`` or ``sparseann.activations``.
Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

LAMBDA_RTOL = 1e-9  # batched vs per-draw sums differ only in rounding
PREDICT_RTOL = 1e-12
# Largest KKT residual, relative to lambda, a returned fit may have.  The
# seed solver's fits reach at most a few 1e-3 on these workloads; fits cut
# off after one proximal step are at 0.15 to 0.56.
KKT_REL_TOL = 5e-2
_CHUNK = 100  # null draws per batched product


def loads_strict(text: str):
    """Parse JSON, rejecting NaN and infinities."""
    def reject(token):
        raise ValueError(f"non-finite number {token} in JSON output")
    return json.loads(text, parse_constant=reject)


def _slope_at_zero(M: float, u0: float, k: float) -> float:
    """sigma'(0) of the rescaled softplus family, f(0)^(k-1) f'(0)."""
    v = M * u0
    f0 = (max(v, 0.0) + math.log1p(math.exp(-abs(v)))) / M
    fp0 = 1.0 / (1.0 + math.exp(-v))
    return f0 ** (k - 1.0) * fp0


def lambda_qut_reference(X, Y, task, widths, activations, alpha, mc_samples, seed):
    """(1 - alpha) quantile of the zero-thresholding value under the null.

    ``activations`` holds (M, u0, k) per hidden layer.  Regression draws
    standard normal responses; classification draws one-hot labels with the
    class frequencies of ``Y``.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    scale = math.sqrt(math.prod(widths[2:-1]))
    for M, u0, k in activations:
        scale *= _slope_at_zero(M, u0, k)
    if task == "classification":
        p = np.asarray(Y, dtype=float).mean(axis=0)
        p = p / p.sum()
        m = p.size
    values = []
    for lo in range(0, mc_samples, _CHUNK):
        draws = range(lo, min(lo + _CHUNK, mc_samples))
        if task == "regression":
            Y0 = np.column_stack([np.random.default_rng([seed, i]).standard_normal(n)
                                  for i in draws])
            Yc = Y0 - Y0.mean(axis=0)
            values.append(np.abs(X.T @ Yc).max(axis=0) / np.linalg.norm(Yc, axis=0))
        else:
            labels = [np.random.default_rng([seed, i]).choice(m, size=n, p=p)
                      for i in draws]
            onehot = np.zeros((n, len(labels) * m))
            for d, idx in enumerate(labels):
                onehot[np.arange(n), d * m + idx] = 1.0
            A = X.T @ (onehot - onehot.mean(axis=0))  # p1 x (draws * m)
            values.append(np.abs(A).reshape(X.shape[1], -1, m).sum(axis=2).max(axis=0))
    samples = np.sort(scale * np.concatenate(values))
    rank = int(np.ceil((1.0 - alpha) * mc_samples))
    return float(samples[rank - 1])


def check_lambda(got: float, want: float) -> list:
    if not abs(got - want) <= LAMBDA_RTOL * abs(want):
        return [f"lambda_qut {got!r} differs from the reference {want!r}"]
    return []


def check_support(support, W1) -> list:
    nonzero = [int(j) for j in np.flatnonzero(np.any(np.asarray(W1) != 0.0, axis=0))]
    if list(support) != nonzero:
        return [f"support {list(support)} is not the nonzero W1 columns {nonzero}"]
    return []


def kkt_rel(shape, dataset, theta, lam, loss_and_grad) -> float:
    """Largest first-order optimality residual of a fit, divided by lambda.

    Penalized entries (W1, hidden biases): |g + lam sign(w)| where w != 0 and
    max(|g| - lam, 0) where w == 0.  Free entries (deep weights, intercept):
    |g|.
    """
    loss_kind = "sqrt_l2" if dataset.task == "regression" else "cross_entropy"
    _, grad = loss_and_grad(shape, theta, dataset, loss_kind)
    worst = 0.0
    for w, g in zip([theta.W1, *theta.biases], [grad.W1, *grad.biases]):
        r = np.where(w != 0.0, np.abs(g + lam * np.sign(w)), np.maximum(np.abs(g) - lam, 0.0))
        worst = max(worst, float(r.max(initial=0.0)))
    for g in [*grad.deep, grad.c]:
        worst = max(worst, float(np.abs(g).max(initial=0.0)))
    return worst / lam


def check_kkt(value: float) -> list:
    if not value <= KKT_REL_TOL:
        return [f"KKT residual {value:.3e} x lambda exceeds {KKT_REL_TOL:g}"]
    return []


def check_predictions(got, want) -> list:
    got = np.asarray(got, dtype=float)
    if got.shape != want.shape or not np.allclose(got, want, rtol=PREDICT_RTOL, atol=0.0):
        return ["predictions differ from sparseann.forward on the saved theta"]
    return []
