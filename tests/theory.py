"""Checks of the paper's theory that no command runs.

The acceptance criteria 1, 4, 8 and 9 and their unit tests use these:

- ``lambda0_oracle``: a numeric supremum for the zero-thresholding value,
  kept independent of the closed forms it checks (criterion 1);
- ``objective_value`` and ``descent_direction_certificate``: the penalized
  objective and a finite-step local-minimum check at the null (criterion 4);
- ``hessian_at_null``: the closed-form bias-block Hessians (criterion 8);
- ``exact_linear_network`` and ``exact_absdiff_network``: explicit networks
  that reproduce the simulated signals (criterion 9).
"""

import math

import numpy as np

from sparseann import (
    ActivationSpec,
    ConfigError,
    DataError,
    Dataset,
    NetworkShape,
    Theta,
    act_deriv,
    forward,
    lambda0_classification,
    lambda0_regression,
    penalty_l1,
)
from sparseann.network import loss_value, normalize_rows


def lambda0(dataset: Dataset, shape: NetworkShape) -> float:
    """Closed-form zero-thresholding value of the dataset's task."""
    if dataset.task == "regression":
        return lambda0_regression(dataset.Y, dataset.X, shape)
    return lambda0_classification(dataset.Y, dataset.X, shape)


def _deriv0_product(shape: NetworkShape) -> float:
    """Product of the hidden activation derivatives at zero."""
    return math.prod(float(act_deriv(spec, 0.0)) for spec in shape.activations)


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


def objective_value(
    shape: NetworkShape, theta: Theta, dataset: Dataset, lam: float
) -> float:
    """Loss plus lambda times the l1 penalty on the penalized parameters."""
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    loss = loss_value(dataset.loss_kind, dataset.Y, forward(shape, theta, dataset.X))
    return loss + lam * penalty_l1(theta)


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


def exact_absdiff_network(h: int, p1: int, p2: int, amp: float = 10.0,
                          activation: ActivationSpec = None):
    """Explicit two-layer network reproducing the pair-difference signal.

    Uses 2h neurons: paired +/- difference rows in the first layer, bias -1
    per neuron.  The output row is normalized in the forward pass, so the
    amplitude is carried by rescaling the (positively homogeneous) first
    layer and the intercept offsets the per-neuron shift.  Exact in the
    ReLU limit; with a finite sharpness the error is the softplus
    smoothing error.
    """
    if p2 < 2 * h:
        raise ConfigError(f"need p2 >= 2h neurons, got p2={p2}, h={h}")
    if activation is None:
        activation = ActivationSpec(M=math.inf, u0=1.0, k=1.0)
    shape = NetworkShape.make((p1, p2, 1), link="identity", activation=activation)
    theta = Theta.zeros(shape)
    if h > 0:
        w2 = np.zeros(p2)
        half = p2 // 2
        w2[:h] = amp
        w2[half : half + h] = amp
        nrm = np.linalg.norm(w2)
        gain = nrm / 1.0  # first-layer rescale so each active neuron contributes amp
        for i in range(h):
            theta.W1[i, 2 * i] = -gain
            theta.W1[i, 2 * i + 1] = gain
            theta.W1[half + i, 2 * i] = gain
            theta.W1[half + i, 2 * i + 1] = -gain
        theta.biases[0][:] = -1.0
        theta.deep[0][...] = w2
        # each active neuron's normalized weight is amp/nrm; the -1 shift per
        # neuron sums to 2h * amp / nrm, cancelled by the intercept
        theta.c[...] = 2 * h * amp / nrm
    else:
        # no active neurons: zero biases keep every activation at zero
        theta.deep[0][...] = 1.0
    return shape, theta


def exact_linear_network(X: np.ndarray, beta: np.ndarray, beta0: float = 0.0):
    """Single-neuron ReLU network equal to beta0 + x' beta on the convex hull.

    The neuron bias shifts the preactivation to be nonnegative at every
    training point (hence on their convex hull), where the ReLU is linear.
    """
    X = np.asarray(X, dtype=float)
    beta = np.asarray(beta, dtype=float)
    u = X @ beta
    b = -float(u.min())
    relu = ActivationSpec(M=math.inf, u0=0.0, k=1.0)
    shape = NetworkShape.make((X.shape[1], 1, 1), link="identity", activation=relu)
    theta = Theta(
        W1=beta[None, :].copy(),
        biases=[np.array([b])],
        deep=[np.array([[1.0]])],
        c=np.array([beta0 - b]),
    )
    return shape, theta
