"""Fully connected sparse-input network: forward pass and exact gradients.

The first layer is a plain affine map; every deeper layer divides each
weight row by its l2 norm before use, so rescaling a deep row leaves the
output unchanged.  The output layer applies a link function (identity,
softmax, or multiclass logit).  Gradients are hand-derived and
differentiate through the row normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .activations import ActivationSpec, act_deriv, act_value
from .errors import DataError, DegenerateParameterError, NumericalError, check_int

LINKS = ("identity", "softmax", "logit")
LOSSES = ("sqrt_l2", "cross_entropy")

ROW_NORM_FLOOR = 1e-12
PROB_FLOOR = 1e-12  # probabilities are clipped here before taking logs


@dataclass(frozen=True)
class NetworkShape:
    """Layer widths (p1, p2, ..., pl, m), link name and hidden activations.

    ``widths`` has l+1 entries for an l-layer network, l >= 2.  ``activations``
    holds one spec per hidden layer (l-1 of them); passing a single spec to
    ``make`` broadcasts it.
    """

    widths: tuple
    link: str = "identity"
    activations: tuple = field(default_factory=tuple)

    def __post_init__(self):
        widths = tuple(self.widths)
        if len(widths) < 3:
            raise ValueError("need at least one hidden layer (>= 3 widths)")
        for w in widths:
            check_int(w, "each width", 1)
        object.__setattr__(self, "widths", tuple(int(w) for w in widths))
        if self.link not in LINKS:
            raise ValueError(f"unknown link {self.link!r}, expected one of {LINKS}")
        acts = tuple(self.activations)
        if len(acts) != self.n_layers - 1:
            raise ValueError(
                f"need {self.n_layers - 1} hidden activation specs, got {len(acts)}"
            )
        object.__setattr__(self, "activations", acts)

    @staticmethod
    def make(widths, link="identity", activation=None) -> "NetworkShape":
        if activation is None:
            activation = ActivationSpec()
        if isinstance(activation, ActivationSpec):
            activation = (activation,) * (len(widths) - 2)
        return NetworkShape(tuple(widths), link, tuple(activation))

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1

    @property
    def n_inputs(self) -> int:
        return self.widths[0]

    @property
    def n_outputs(self) -> int:
        return self.widths[-1]

    @cached_property
    def param_shapes(self) -> tuple:
        """Shape of each parameter array, in the order of ``Theta.flat``."""
        w = self.widths
        hidden = range(1, self.n_layers)
        return ((w[1], w[0]), *[(w[k],) for k in hidden],
                *[(w[k + 1], w[k]) for k in hidden], (w[-1],))

    @cached_property
    def param_count(self) -> int:
        return sum(math.prod(s) for s in self.param_shapes)

    def to_dict(self) -> dict:
        return {
            "widths": list(self.widths),
            "link": self.link,
            "activations": [a.to_dict() for a in self.activations],
        }

    @staticmethod
    def from_dict(d: dict) -> "NetworkShape":
        return NetworkShape(
            tuple(d["widths"]),
            d["link"],
            tuple(ActivationSpec.from_dict(a) for a in d["activations"]),
        )


class Theta:
    """Network parameters in one vector ``flat``, with a view per array.

    ``flat`` holds, in order, ``W1`` (p2 x p1), the hidden biases
    ``biases[k]`` (the bias of layer k+1), the deeper weight matrices
    ``deep[i]`` = W_{i+2}, whose rows get normalized in the forward pass,
    and the output intercept ``c``.  The penalized part comes first:
    ``theta1`` (``W1`` and the biases) is ``flat[:n1]`` and the free part
    ``theta2`` (the deep weights and ``c``) is ``flat[n1:]``.

    The attributes cannot be rebound, so every view stays part of ``flat``;
    write through them in place (``theta.c[...] = c``).
    """

    __slots__ = ("flat", "theta1", "theta2", "W1", "biases", "deep", "c", "_shapes")

    def __init__(self, W1, biases, deep, c):
        """Copy the given arrays into a new flat buffer."""
        arrays = [np.asarray(a, dtype=float) for a in (W1, *biases, *deep, c)]
        self._bind(np.concatenate([a.ravel() for a in arrays]),
                   tuple(a.shape for a in arrays), len(biases))

    def _bind(self, flat, shapes, n_hidden) -> "Theta":
        views, start = [], 0
        for s in shapes:
            stop = start + math.prod(s)
            views.append(flat[start:stop].reshape(s))
            start = stop
        n1 = sum(v.size for v in views[:n_hidden + 1])
        for name, value in (("flat", flat), ("theta1", flat[:n1]), ("theta2", flat[n1:]),
                            ("W1", views[0]), ("biases", tuple(views[1:n_hidden + 1])),
                            ("deep", tuple(views[n_hidden + 1:-1])), ("c", views[-1]),
                            ("_shapes", shapes)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"Theta attributes are views into Theta.flat and cannot "
                             f"be rebound; write in place (theta.{name}[...] = ...)")

    @staticmethod
    def from_flat(shape: NetworkShape, vec) -> "Theta":
        """Wrap the vector ``vec`` (not a copy) in the layout of ``shape``."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (shape.param_count,):
            raise ValueError(f"need a vector of {shape.param_count} parameters, "
                             f"got shape {vec.shape}")
        return object.__new__(Theta)._bind(vec, shape.param_shapes, shape.n_layers - 1)

    def copy(self) -> "Theta":
        return object.__new__(Theta)._bind(self.flat.copy(), self._shapes, len(self.biases))

    @staticmethod
    def zeros(shape: NetworkShape) -> "Theta":
        return Theta.from_flat(shape, np.zeros(shape.param_count))

    def check_shapes(self, shape: NetworkShape):
        if self._shapes != shape.param_shapes or len(self.biases) != shape.n_layers - 1:
            raise ValueError("parameter shapes do not match the network shape")

    def to_dict(self) -> dict:
        return {
            "W1": self.W1.tolist(),
            "biases": [b.tolist() for b in self.biases],
            "deep": [w.tolist() for w in self.deep],
            "c": self.c.tolist(),
        }

    @staticmethod
    def from_dict(d: dict) -> "Theta":
        return Theta(d["W1"], d["biases"], d["deep"], d["c"])


@dataclass
class Dataset:
    """Design matrix X (n x p1), responses Y (n x m) and the task tag."""

    X: np.ndarray
    Y: np.ndarray
    task: str  # "regression" or "classification"
    feature_names: list = None
    class_labels: list = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.Y = np.asarray(self.Y, dtype=float)
        if self.X.ndim != 2 or self.Y.ndim != 2:
            raise ValueError("X and Y must be 2-d arrays")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.Y))):
            raise DataError("X and Y must be finite")
        if self.X.shape[0] != self.Y.shape[0]:
            raise ValueError("X and Y must have the same number of rows")
        if self.task not in ("regression", "classification"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.task == "regression" and self.Y.shape[1] != 1:
            raise ValueError("regression responses must be n x 1")
        if self.task == "classification":
            if not np.all(np.isin(self.Y, (0.0, 1.0))):
                raise ValueError("classification responses must be one-hot")
            if not np.allclose(self.Y.sum(axis=1), 1.0):
                raise ValueError("each classification response row must sum to 1")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.Y.shape[1]


def normalize_rows(W: np.ndarray):
    """Row-normalized copy of W and its row norms; a zero row is an error."""
    norms = np.linalg.norm(W, axis=1)
    if np.any(norms < ROW_NORM_FLOOR):
        raise DegenerateParameterError(
            "a deep weight row has (numerically) zero norm; the normalized "
            "layer map is undefined there"
        )
    return W / norms[:, None], norms


def link_apply(link: str, Z: np.ndarray) -> np.ndarray:
    """Apply the output link row-wise, shift-stably.

    For the multiclass logit link the columns of Z are the m-1 free
    log-odds coordinates, so the output has one more column than Z.
    """
    Z = np.asarray(Z, dtype=float)
    if not np.all(np.isfinite(Z)):
        raise ValueError("link input must be finite")
    if link == "identity":
        return Z
    if link == "logit":
        # reference class appended with logit 0
        Z = np.concatenate([Z, np.zeros((Z.shape[0], 1))], axis=1)
    elif link != "softmax":
        raise ValueError(f"unknown link {link!r}")
    shifted = Z - Z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward(shape: NetworkShape, theta: Theta, X: np.ndarray) -> np.ndarray:
    """Network output for each row of X, an n x m matrix."""
    mu, _ = _forward_cached(shape, theta, np.asarray(X, dtype=float))
    return mu


def _forward_cached(shape: NetworkShape, theta: Theta, X: np.ndarray):
    """Output and what the backward pass reuses: pre-activations, activations
    (X first) and the (W_hat, norms) of each deep matrix."""
    theta.check_shapes(shape)
    if X.ndim != 2 or X.shape[1] != shape.n_inputs:
        raise ValueError(
            f"X must be n x {shape.n_inputs}, got {X.shape}"
        )
    deep_hat = [normalize_rows(W) for W in theta.deep]
    weights = [theta.W1, *(W_hat for W_hat, _ in deep_hat)]
    offsets = [*theta.biases, theta.c]
    pre_acts = []
    acts = [X]
    for k, spec in enumerate(shape.activations):
        pre_acts.append(acts[k] @ weights[k].T + offsets[k])
        acts.append(act_value(spec, pre_acts[k]))
    Z = acts[-1] @ weights[-1].T + offsets[-1]
    if shape.link == "logit":
        mu = link_apply("logit", Z[:, :-1])
    else:
        mu = link_apply(shape.link, Z)
    return mu, (pre_acts, acts, deep_hat)


def loss_value(loss_kind: str, Y: np.ndarray, mu: np.ndarray) -> float:
    """Square-root l2 loss (norm of the residual) or cross-entropy of mu against Y."""
    if loss_kind == "sqrt_l2":
        return float(np.linalg.norm(mu - Y))
    if loss_kind == "cross_entropy":
        return -float(np.sum(Y * np.log(np.clip(mu, PROB_FLOOR, None))))
    raise ValueError(f"unknown loss {loss_kind!r}, expected one of {LOSSES}")


def _dloss_dmu(loss_kind: str, Y: np.ndarray, mu: np.ndarray):
    """Loss value and its gradient w.r.t. the network output."""
    loss = loss_value(loss_kind, Y, mu)
    if loss_kind == "sqrt_l2":
        if loss < 1e-12:
            raise NumericalError(
                "square-root l2 loss is not differentiable at zero residual"
            )
        return loss, (mu - Y) / loss
    return loss, -Y / np.clip(mu, PROB_FLOOR, None)


def _dZ_from_dmu(link: str, mu: np.ndarray, dmu: np.ndarray) -> np.ndarray:
    """Pull the output-gradient back through the link to the last-layer logits."""
    if link == "identity":
        return dmu
    s = np.sum(dmu * mu, axis=1, keepdims=True)
    dZ = mu * (dmu - s)
    if link == "logit":
        dZ[:, -1] = 0.0  # reference-class logit is fixed at zero
    return dZ


def _normalized_row_backprop(W_hat: np.ndarray, norms: np.ndarray,
                             dW_hat: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. W given the gradient w.r.t. its row-normalized version."""
    dots = np.sum(dW_hat * W_hat, axis=1, keepdims=True)
    return (dW_hat - dots * W_hat) / norms[:, None]


def loss_and_grad(shape: NetworkShape, theta: Theta, dataset: Dataset, loss_kind: str):
    """Loss value and its exact gradient, a Theta-shaped structure.

    Differentiates through the row normalization of the deep layers.
    """
    mu, (pre_acts, acts, deep_hat) = _forward_cached(shape, theta, dataset.X)
    loss, dmu = _dloss_dmu(loss_kind, dataset.Y, mu)
    dZ = _dZ_from_dmu(shape.link, mu, dmu)

    d_weights = []  # both filled from the output layer down
    d_offsets = []
    # dZ is the gradient w.r.t. acts[k] @ weights[k].T + offsets[k]
    for k in range(shape.n_layers - 1, 0, -1):
        W_hat, norms = deep_hat[k - 1]
        d_offsets.append(dZ.sum(axis=0))
        d_weights.append(_normalized_row_backprop(W_hat, norms, dZ.T @ acts[k]))
        dZ = (dZ @ W_hat) * act_deriv(shape.activations[k - 1], pre_acts[k - 1])
    d_offsets.append(dZ.sum(axis=0))
    d_weights.append(dZ.T @ acts[0])
    d_weights.reverse()
    d_offsets.reverse()
    return loss, Theta(d_weights[0], d_offsets[:-1], d_weights[1:], d_offsets[-1])


def predict_class(shape: NetworkShape, theta: Theta, X_new: np.ndarray) -> np.ndarray:
    """Class index per row (argmax of the output, ties to the smallest index)."""
    return np.argmax(forward(shape, theta, X_new), axis=1)
