"""Penalty-level selection by the quantile universal threshold.

The zero-thresholding value lambda0(Y, X) is the smallest penalty level
guaranteeing a local minimum with all penalized parameters at zero.  It has
a closed form for both tasks; the tests check it against an independent
numeric supremum (``tests/theory.py``).
The selected penalty is the (1 - alpha) Monte-Carlo quantile of lambda0
under the null model of a constant association.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import act_deriv
from .errors import DataError, check_int
from .network import Dataset, NetworkShape

# Numbers in one block of null responses, and in its product with X: a few MB
# of transient memory whatever n and p1 are.
_BLOCK_ENTRIES = 2**18


@dataclass(frozen=True)
class QutConfig:
    alpha: float = 0.05
    mc_samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        check_int(self.mc_samples, "mc_samples", 100)
        check_int(self.seed, "seed")


@dataclass
class QutResult:
    lambda_qut: float
    lambda_samples: np.ndarray  # sorted
    alpha: float
    mc_samples: int
    seed: int
    task: str
    link: str

    def to_dict(self) -> dict:
        return {
            "lambda_qut": self.lambda_qut,
            "alpha": self.alpha,
            "mc_samples": self.mc_samples,
            "seed": self.seed,
            "task": self.task,
            "link": self.link,
            "lambda_samples": np.asarray(self.lambda_samples).tolist(),
        }


def _threshold_scale(shape: NetworkShape) -> float:
    """Factor common to every lambda0 of one network shape: sqrt of the product
    of the widths p3..pl (an empty product is 1) times the product of the
    hidden activation derivatives at zero."""
    deriv0 = 1.0
    for spec in shape.activations:
        deriv0 *= float(act_deriv(spec, 0.0))
    return float(np.sqrt(np.prod(shape.widths[2:shape.n_layers]))) * deriv0


def _free_outputs(shape: NetworkShape) -> int:
    """Outputs with a free logit: the logit link pins its last class's logit at 0."""
    return shape.n_outputs - (shape.link == "logit")


def _lambda0_block(X: np.ndarray, Y: np.ndarray, m: int, free: int,
                   regression: bool) -> np.ndarray:
    """Unscaled lambda0 of each m-column draw in Y (n x draws*m), centring Y in place.

    Regression divides the largest |X' Yc| entry of a draw by the norm of
    its centred responses; classification takes the largest row l1 norm of
    the draw's p1 x m block of X' Yc over its first ``free`` columns, the
    classes whose logit the network sets.
    """
    Y -= Y.mean(axis=0)
    A = X.T @ Y
    A = np.abs(A, out=A).reshape(X.shape[1], -1, m)  # p1 x draws x m
    if not regression:
        return A[:, :, :free].sum(axis=2).max(axis=0)
    nrm = np.sqrt(np.einsum("ij,ij->j", Y, Y).reshape(-1, m).sum(axis=1))
    if nrm.min() < 1e-12:
        raise DataError("constant response: zero-thresholding value is 0/0")
    return A.max(axis=(0, 2)) / nrm


def _lambda0_one(Y: np.ndarray, X: np.ndarray, shape: NetworkShape, regression: bool) -> float:
    """lambda0 of one response matrix, the one-draw case of _lambda0_block."""
    Y = np.array(Y, dtype=float)  # a copy: the block formula centres in place
    if Y.ndim == 1:
        Y = Y.reshape(-1, 1)
    X = np.asarray(X, dtype=float)
    shape.check_data("regression" if regression else "classification", X.shape[1], Y.shape[1])
    value = _lambda0_block(X, Y, Y.shape[1], _free_outputs(shape), regression)[0]
    return _threshold_scale(shape) * float(value)


def lambda0_regression(Y: np.ndarray, X: np.ndarray, shape: NetworkShape) -> float:
    """Closed-form zero-thresholding value for the square-root l2 loss."""
    return _lambda0_one(Y, X, shape, regression=True)


def lambda0_classification(Y: np.ndarray, X: np.ndarray, shape: NetworkShape) -> float:
    """Closed-form zero-thresholding value for cross-entropy with a softmax or logit link."""
    return _lambda0_one(Y, X, shape, regression=False)


def sample_null_regression(n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. standard normal responses (pivotality makes scale/shift moot)."""
    if n < 2:
        raise DataError(f"the regression null needs at least 2 data rows, got {n}")
    return rng.standard_normal((n, 1))


def sample_null_classification(
    n: int, p_hat: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """n i.i.d. one-hot categorical responses with class probabilities p_hat."""
    p_hat = np.asarray(p_hat, dtype=float)
    if abs(p_hat.sum() - 1.0) > 1e-8 or np.any(p_hat < 0):
        raise DataError("class probabilities must lie on the simplex")
    m = p_hat.size
    idx = rng.choice(m, size=n, p=p_hat / p_hat.sum())
    Y = np.zeros((n, m))
    Y[np.arange(n), idx] = 1.0
    return Y


def _draws_per_block(n: int, p1: int, m: int) -> int:
    """Null draws evaluated together, at least one.

    The response block (n x draws*m) and its product with X (p1 x draws*m)
    each hold at most _BLOCK_ENTRIES numbers.
    """
    return max(1, _BLOCK_ENTRIES // (max(n, p1) * m))


def compute_qut(dataset: Dataset, shape: NetworkShape, config: QutConfig) -> QutResult:
    """Monte-Carlo (1 - alpha) quantile of lambda0 under the constant-model null.

    Each sample uses its own RNG stream derived from (seed, sample index),
    so results do not depend on evaluation order.  The draws are written
    into the columns of one response block and evaluated together with a
    single product against X per block; the samples equal one-draw-at-a-time
    evaluation up to rounding.
    """
    shape.check_data(dataset.task, dataset.n_features, dataset.n_outputs)
    n, m = dataset.n, dataset.n_outputs
    regression = dataset.task == "regression"
    free = _free_outputs(shape)
    if not regression:
        p_hat = dataset.Y.mean(axis=0)
    M = config.mc_samples
    per_block = _draws_per_block(n, dataset.n_features, m)
    block = np.empty((n, min(per_block, M) * m), order="F")
    samples = np.empty(M)
    for lo in range(0, M, per_block):
        hi = min(lo + per_block, M)
        Y = block[:, : (hi - lo) * m]
        for j, i in enumerate(range(lo, hi)):
            rng = np.random.default_rng([config.seed, i])
            Y[:, j * m:(j + 1) * m] = (sample_null_regression(n, rng) if regression
                                       else sample_null_classification(n, p_hat, rng))
        samples[lo:hi] = _lambda0_block(dataset.X, Y, m, free, regression)
    samples *= _threshold_scale(shape)
    samples.sort()
    # conservative empirical quantile: the ceil((1-alpha) M) order statistic
    rank = int(np.ceil((1.0 - config.alpha) * M))
    lam = float(samples[rank - 1])
    return QutResult(
        lambda_qut=lam,
        lambda_samples=samples,
        alpha=config.alpha,
        mc_samples=M,
        seed=config.seed,
        task=dataset.task,
        link=shape.link,
    )
