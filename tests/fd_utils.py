"""Shared helpers: random instances and finite-difference gradient oracles."""

import numpy as np

from sparseann import ActivationSpec, Dataset, NetworkShape, Theta
from sparseann.network import loss_and_grad, normalize_rows


def random_theta(shape: NetworkShape, rng: np.random.Generator, scale=0.5) -> Theta:
    w = shape.widths
    l = shape.n_layers
    return Theta(
        W1=scale * rng.standard_normal((w[1], w[0])),
        biases=[scale * rng.standard_normal(w[k + 1]) for k in range(l - 1)],
        deep=[normalize_rows(rng.standard_normal((w[k], w[k - 1])))[0]
              for k in range(2, l + 1)],
        c=scale * rng.standard_normal(w[-1]),
    )


def random_instance(rng, n_layers=2, link="identity", loss_kind="sqrt_l2",
                    n=6, widths=None, m=1):
    """Random (shape, theta, dataset) triple consistent with the loss/link."""
    if widths is None:
        hidden = [int(rng.integers(2, 5)) for _ in range(n_layers - 1)]
        p1 = int(rng.integers(2, 5))
        widths = (p1, *hidden, m)
    shape = NetworkShape.make(widths, link, ActivationSpec(20.0, 1.0, 1.0))
    theta = random_theta(shape, rng)
    X = rng.standard_normal((n, widths[0]))
    if link == "identity":
        Y = rng.standard_normal((n, m))
        task = "regression" if m == 1 else "classification"
        if m > 1:  # identity link only used with m=1 in these tests
            raise ValueError("identity link instances use m=1")
    else:
        idx = rng.integers(0, m, size=n)
        Y = np.zeros((n, m))
        Y[np.arange(n), idx] = 1.0
        task = "classification"
    dataset = Dataset(X=X, Y=Y, task=task)
    return shape, theta, dataset


def fd_gradient(shape, theta, dataset, loss_kind, h=1e-5) -> np.ndarray:
    """Central finite differences of the loss over every parameter."""
    x0 = theta.flat
    g = np.empty_like(x0)
    for i in range(x0.size):
        xp = x0.copy()
        xp[i] += h
        lp, _ = loss_and_grad(shape, Theta.from_flat(shape, xp), dataset, loss_kind)
        xm = x0.copy()
        xm[i] -= h
        lm, _ = loss_and_grad(shape, Theta.from_flat(shape, xm), dataset, loss_kind)
        g[i] = (lp - lm) / (2.0 * h)
    return g


def max_rel_grad_error(shape, theta, dataset, loss_kind) -> float:
    _, grad = loss_and_grad(shape, theta, dataset, loss_kind)
    analytic = grad.flat
    numeric = fd_gradient(shape, theta, dataset, loss_kind)
    scale = max(1.0, float(np.max(np.abs(numeric))))
    return float(np.max(np.abs(analytic - numeric))) / scale
