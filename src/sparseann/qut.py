"""Penalty-level selection by the quantile universal threshold.

The zero-thresholding value lambda0(Y, X) is the smallest penalty level
guaranteeing a local minimum with all penalized parameters at zero.  It has
a closed form for both tasks; an independent numeric supremum oracle
(projected gradient ascent over the unit-row-norm deep weights on the
null-point gradient) is provided for cross-validation of the closed forms.
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

    @staticmethod
    def from_dict(d: dict) -> "QutResult":
        return QutResult(
            lambda_qut=float(d["lambda_qut"]),
            lambda_samples=np.asarray(d["lambda_samples"], dtype=float),
            alpha=float(d["alpha"]),
            mc_samples=int(d["mc_samples"]),
            seed=int(d["seed"]),
            task=d["task"],
            link=d["link"],
        )


def _deriv0_product(shape: NetworkShape) -> float:
    """Product of the hidden activation derivatives at zero."""
    out = 1.0
    for spec in shape.activations:
        if spec.is_relu_limit:
            raise ValueError(
                "threshold formulas require a differentiable activation; "
                "the ReLU limit is not allowed here"
            )
        out *= float(act_deriv(spec, 0.0))
    return out


def _width_factor(shape: NetworkShape) -> float:
    """sqrt of the product of the widths p3..pl (1 for a 2-layer network)."""
    w = shape.widths
    l = shape.n_layers
    return float(np.sqrt(np.prod(w[2:l]))) if l >= 3 else 1.0


def _threshold_scale(shape: NetworkShape) -> float:
    """Factor common to every lambda0 of one network shape."""
    return _width_factor(shape) * _deriv0_product(shape)


def _lambda0_block(X: np.ndarray, Y: np.ndarray, m: int, regression: bool) -> np.ndarray:
    """Unscaled lambda0 of each m-column draw in Y (n x draws*m), centring Y in place.

    Regression divides the largest |X' Yc| entry of a draw by the norm of
    its centred responses; classification takes the largest row l1 norm of
    the draw's p1 x m block of X' Yc.
    """
    Y -= Y.mean(axis=0)
    A = X.T @ Y
    A = np.abs(A, out=A).reshape(X.shape[1], -1, m)  # p1 x draws x m
    if not regression:
        return A.sum(axis=2).max(axis=0)
    nrm = np.sqrt(np.einsum("ij,ij->j", Y, Y).reshape(-1, m).sum(axis=1))
    if nrm.min() < 1e-12:
        raise DataError("constant response: zero-thresholding value is 0/0")
    return A.max(axis=(0, 2)) / nrm


def _lambda0_one(Y: np.ndarray, X: np.ndarray, shape: NetworkShape, regression: bool) -> float:
    """lambda0 of one response matrix, the one-draw case of _lambda0_block."""
    Y = np.array(Y, dtype=float)  # a copy: the block formula centres in place
    if Y.ndim == 1:
        Y = Y.reshape(-1, 1)
    value = _lambda0_block(np.asarray(X, dtype=float), Y, Y.shape[1], regression)[0]
    return _threshold_scale(shape) * float(value)


def lambda0_regression(Y: np.ndarray, X: np.ndarray, shape: NetworkShape) -> float:
    """Closed-form zero-thresholding value for the square-root l2 loss."""
    return _lambda0_one(Y, X, shape, regression=True)


def lambda0_classification(Y: np.ndarray, X: np.ndarray, shape: NetworkShape) -> float:
    """Closed-form zero-thresholding value for cross-entropy with softmax."""
    return _lambda0_one(Y, X, shape, regression=False)


def lambda0(dataset: Dataset, shape: NetworkShape) -> float:
    if dataset.task == "regression":
        return lambda0_regression(dataset.Y, dataset.X, shape)
    return lambda0_classification(dataset.Y, dataset.X, shape)


def _normalize_rows(W: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(W, axis=-1, keepdims=True)
    return W / np.maximum(norms, 1e-300)


def lambda0_oracle(
    dataset: Dataset,
    shape: NetworkShape,
    restarts: int = 200,
    seed: int = 0,
    steps: int = 300,
    step0: float = 0.5,
    decay: float = 0.98,
) -> float:
    """Numeric lower bound on the supremum defining lambda0.

    Multi-start projected gradient ascent over the unit-row-norm deep
    weights, maximizing the sup-norm of the null-point gradient.  Kept
    independent of the closed-form expressions.
    """
    X, Y = dataset.X, dataset.Y
    Yc = Y - Y.mean(axis=0)
    A = X.T @ Yc  # p1 x m
    scale = _deriv0_product(shape)
    if dataset.task == "regression":
        nrm = float(np.linalg.norm(Yc))
        if nrm < 1e-12:
            raise DataError("constant response")
        scale /= nrm

    w = shape.widths
    l = shape.n_layers
    m, p2 = w[-1], w[1]
    R = restarts
    rng = np.random.default_rng(seed)
    # mats[j] holds W_{j+2} for all restarts, rows kept on the unit sphere
    mats = [
        _normalize_rows(rng.standard_normal((R, w[j + 2], w[j + 1])))
        for j in range(l - 1)
    ]
    best = 0.0
    lr = step0
    for _ in range(steps + 1):
        # suffix products: suffix[j] = W_l ... W_{j+1} (batched, m x rows_of_j)
        suffix = [None] * (l - 1)
        acc = np.broadcast_to(np.eye(m), (R, m, m))
        for j in range(l - 2, -1, -1):
            suffix[j] = acc
            acc = acc @ mats[j]
        B = acc  # R x m x p2
        # prefix products: prefix[j] = W_{j+1} ... W_2 (cols_of_j x p2)
        prefix = [None] * (l - 1)
        acc = np.broadcast_to(np.eye(p2), (R, p2, p2))
        for j in range(l - 1):
            prefix[j] = acc
            acc = mats[j] @ acc

        V = np.einsum("pm,rmq->rpq", A, B)  # R x p1 x p2
        flat = np.abs(V).reshape(R, -1)
        idx = flat.argmax(axis=1)
        vals = flat[np.arange(R), idx]
        best = max(best, float(vals.max()))
        j_star, i_star = np.unravel_index(idx, (V.shape[1], V.shape[2]))
        sgn = np.sign(V.reshape(R, -1)[np.arange(R), idx])
        a = A[j_star, :] * sgn[:, None]  # R x m

        new_mats = []
        for j in range(l - 1):
            left = suffix[j]  # R x m x rows_j
            right = prefix[j]  # R x cols_j x p2
            u = np.einsum("rmi,rm->ri", left, a)  # R x rows_j
            v = right[np.arange(R), :, i_star]  # R x cols_j
            g = u[:, :, None] * v[:, None, :]
            W = mats[j]
            # tangent projection: rows are unit norm already
            dots = np.sum(g * W, axis=2, keepdims=True)
            g_t = g - dots * W
            new_mats.append(_normalize_rows(W + lr * g_t))
        mats = new_mats
        lr *= decay
    return scale * best


def sample_null_regression(n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. standard normal responses (pivotality makes scale/shift moot)."""
    if n < 2:
        raise ValueError("need n >= 2")
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
    n, m = dataset.n, dataset.n_outputs
    regression = dataset.task == "regression"
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
        samples[lo:hi] = _lambda0_block(dataset.X, Y, m, regression)
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
