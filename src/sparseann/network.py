"""Fully connected sparse-input network: forward pass and exact gradients.

The first layer is a plain affine map; every deeper layer divides each
weight row by its l2 norm before use, so rescaling a deep row leaves the
output unchanged.  A first-layer unit whose weight row is zero outputs a
constant, so its activation is evaluated once rather than on every row.
The output layer applies a link function (identity, softmax, or
multiclass logit).  Gradients are hand-derived and differentiate through
the row normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .activations import ActivationSpec, _check_finite, activate
from .errors import DataError, DegenerateParameterError, NumericalError, check_int

LINKS = ("identity", "softmax", "logit")
LOSSES = ("sqrt_l2", "cross_entropy")
# The links each task's loss is defined on, default first: the square-root
# loss takes any real output, cross-entropy a probability row.
TASK_LINKS = {"regression": ("identity",), "classification": ("softmax", "logit")}

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

    def check_data(self, task: str, n_features: int, n_outputs: int):
        """Raise ValueError unless the threshold and the solver are defined for this
        network on ``task`` data with ``n_features`` feature columns and ``n_outputs``
        response columns: the widths fit the data, the task's loss takes the link, and
        every activation is differentiable (both use its derivative)."""
        if (self.n_inputs, self.n_outputs) != (n_features, n_outputs):
            raise ValueError(f"the network maps {self.n_inputs} inputs to {self.n_outputs} "
                             f"outputs, the data have {n_features} feature columns and "
                             f"{n_outputs} response columns")
        if self.link not in TASK_LINKS[task]:
            raise ValueError(f"the {task} loss takes the links {list(TASK_LINKS[task])}, "
                             f"got {self.link!r}")
        if any(spec.is_relu_limit for spec in self.activations):
            raise ValueError("the ReLU limit (M = inf) is for forward passes only: the "
                             "threshold and the solver need a differentiable activation")

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
        if self.task not in list(TASK_LINKS):  # a list: an unhashable task is refused too
            raise ValueError(f"unknown task {self.task!r}")
        if self.task == "regression" and self.Y.shape[1] != 1:
            raise ValueError("regression responses must be n x 1")
        if self.task == "classification":
            if self.Y.shape[1] < 2:
                raise DataError("classification needs at least two classes, got "
                                f"{self.Y.shape[1]}")
            if not np.all(np.isin(self.Y, (0.0, 1.0))):
                raise ValueError("classification responses must be one-hot")
            if not np.allclose(self.Y.sum(axis=1), 1.0):
                raise ValueError("each classification response row must sum to 1")

    @property
    def loss_kind(self) -> str:
        """The loss of the task: square-root l2 for regression, else cross-entropy."""
        return "sqrt_l2" if self.task == "regression" else "cross_entropy"

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


def forward(shape: NetworkShape, theta: Theta, X: np.ndarray, return_cache: bool = False):
    """Network output for each row of X, an n x m matrix.

    With ``return_cache`` it returns ``(mu, cache)``; ``loss_and_grad`` takes
    that pair to skip its own forward pass at the same theta and X.  Without
    it no activation derivative is computed.
    """
    mu, cache = _forward_cached(shape, theta, np.asarray(X, dtype=float), return_cache)
    return (mu, cache) if return_cache else mu


def _first_layer(spec: ActivationSpec, pre: np.ndarray, W1: np.ndarray, b: np.ndarray,
                 deriv: bool):
    """Activation and derivative (None without ``deriv``) of the first hidden
    layer, given ``pre`` = X @ W1.T, evaluated only on the live units.

    A unit whose W1 row is zero is dead: its column of ``pre`` is +0 on every
    row of a finite X, and +0 + b is b (+0 for b = -0), so it is evaluated
    once, at ``b + 0.0``, and broadcast down its column.  The live columns are
    gathered into one block, and one ``activate`` call evaluates the block and
    the row together.  ``activate`` works element by element, so for every
    spec each entry equals that of ``activate`` on ``pre + b``.
    """
    live = W1.any(axis=1)
    n_live = np.count_nonzero(live)
    if n_live == live.size:
        pre += b
        return activate(spec, pre, deriv=deriv)
    if n_live == 0:
        _check_finite(pre[:, 0])  # no X reaches activate; a dead column is finite iff X is
    n = pre.shape[0]
    u = np.empty(n_live * n + live.size)
    np.add(pre.T[live], b[live, None], out=u[:n_live * n].reshape(n_live, n))  # unit by unit
    np.add(b, 0.0, out=u[n_live * n:])
    act, fp = activate(spec, u, deriv=deriv)
    return (_fill_columns(act, live, pre.shape),
            None if fp is None else _fill_columns(fp, live, pre.shape))


def _fill_columns(r, live, shape):
    """The n x width array of a first-layer kernel result ``r``: the live
    columns one after another, then a row of width values for the dead ones."""
    n, width = shape
    full = np.empty(shape)
    full[...] = r[-width:]
    full[:, live] = r[:-width].reshape(-1, n).T
    return full


def _forward_cached(shape: NetworkShape, theta: Theta, X: np.ndarray, deriv: bool = True):
    """Output and what the backward pass reuses: the activation derivatives
    (with ``deriv``), the activations (X first) and the (W_hat, norms) of each
    deep matrix."""
    theta.check_shapes(shape)
    if X.ndim != 2 or X.shape[1] != shape.n_inputs:
        raise ValueError(
            f"X must be n x {shape.n_inputs}, got {X.shape}"
        )
    deep_hat = [normalize_rows(W) for W in theta.deep]
    weights = [theta.W1, *(W_hat for W_hat, _ in deep_hat)]
    offsets = [*theta.biases, theta.c]
    derivs = []
    acts = [X]
    for k, spec in enumerate(shape.activations):
        pre = acts[k] @ weights[k].T
        if k == 0:
            act, d = _first_layer(spec, pre, theta.W1, offsets[0], deriv)
        else:
            pre += offsets[k]
            act, d = activate(spec, pre, deriv=deriv)
        derivs.append(d)
        acts.append(act)
    Z = acts[-1] @ weights[-1].T + offsets[-1]
    if shape.link == "logit":
        mu = link_apply("logit", Z[:, :-1])
    else:
        mu = link_apply(shape.link, Z)
    return mu, (derivs, acts, deep_hat)


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
                             dW_hat: np.ndarray, out: np.ndarray):
    """Gradient w.r.t. W, written to ``out``, given the gradient w.r.t. its
    row-normalized version."""
    dots = np.sum(dW_hat * W_hat, axis=1, keepdims=True)
    np.divide(dW_hat - dots * W_hat, norms[:, None], out=out)


def loss_and_grad(shape: NetworkShape, theta: Theta, dataset: Dataset, loss_kind: str,
                  forward_pass=None, out: Theta = None):
    """Loss value and its exact gradient, a Theta-shaped structure.

    Differentiates through the row normalization of the deep layers.
    ``forward_pass`` is the ``(mu, cache)`` that ``forward(..., return_cache=True)``
    returned for this theta and ``dataset.X``; without it the forward pass runs here.
    The gradient is written into ``out`` when given, and returned.
    """
    if forward_pass is None:
        forward_pass = _forward_cached(shape, theta, dataset.X)
    mu, (derivs, acts, deep_hat) = forward_pass
    loss, dmu = _dloss_dmu(loss_kind, dataset.Y, mu)
    dZ = _dZ_from_dmu(shape.link, mu, dmu)

    grad = Theta.zeros(shape) if out is None else out
    d_weights = [grad.W1, *grad.deep]
    d_offsets = [*grad.biases, grad.c]
    # dZ is the gradient w.r.t. acts[k] @ weights[k].T + offsets[k]
    for k in range(shape.n_layers - 1, 0, -1):
        W_hat, norms = deep_hat[k - 1]
        np.sum(dZ, axis=0, out=d_offsets[k])
        _normalized_row_backprop(W_hat, norms, dZ.T @ acts[k], d_weights[k])
        dZ = dZ @ W_hat
        dZ *= derivs[k - 1]
    np.sum(dZ, axis=0, out=d_offsets[0])
    np.matmul(dZ.T, acts[0], out=d_weights[0])
    return loss, grad
