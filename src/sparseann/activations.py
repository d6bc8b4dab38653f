"""Rescaled smooth activation functions with an exact zero at the origin.

The family is sigma(u) = (f(u)^k - f(0)^k) / k with f(u) the sharpness-M
softplus of u + u0.  It contains the centered softplus (M=1, u0=0, k=1) and
converges to a shifted ReLU power as M grows.  All members satisfy
sigma(0) = 0 by construction and sigma'(0) > 0, which is what the sparse
fitting procedure and the penalty threshold formulas rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Beyond this argument the softplus equals its linear/zero asymptote to
# double precision; avoids overflow for sharpness values like M = 100.
_LINEAR_CUTOFF = 30.0


@dataclass(frozen=True)
class ActivationSpec:
    """Sharpness M, shift u0 and power k of one activation function.

    M may be ``math.inf``, giving the exact ReLU-type limit.  The limit is
    usable in forward passes (e.g. for exact network constructions) but is
    not twice differentiable, so ``NetworkShape.check_data`` refuses it for
    the threshold and the solver, which differentiate the activation.
    """

    M: float = 20.0
    u0: float = 1.0
    k: float = 1.0

    def __post_init__(self):
        if not self.M > 0:
            raise ValueError(f"M must be positive, got {self.M}")
        if not 0 < self.k < math.inf:
            raise ValueError(f"k must be positive and finite, got {self.k}")
        if not 0 <= self.u0 < math.inf:
            raise ValueError(f"u0 must be nonnegative and finite, got {self.u0}")

    @property
    def is_relu_limit(self) -> bool:
        return math.isinf(self.M)

    @cached_property
    def offset(self) -> float:
        """f(0)^k, subtracted so that sigma(0) = 0."""
        return _softplus_shifted(self, *_shift(self, np.zeros(1)))[0] ** self.k

    def to_dict(self) -> dict:
        return {"M": "inf" if self.is_relu_limit else self.M, "u0": self.u0, "k": self.k}

    @staticmethod
    def from_dict(d: dict) -> "ActivationSpec":
        m = d["M"]
        m = math.inf if (isinstance(m, str) and m.lower() == "inf") else float(m)
        return ActivationSpec(M=m, u0=float(d.get("u0", 1.0)), k=float(d.get("k", 1.0)))


def _check_finite(u):
    if not np.isfinite(u).all():
        raise ValueError("activation input must be finite")


def _as_array(u):
    """Coerce to a float array of dim >= 1, remembering scalar-ness."""
    arr = np.asarray(u, dtype=float)
    scalar = arr.ndim == 0
    return np.atleast_1d(arr), scalar


def _unwrap(out, scalar):
    return float(out[0]) if scalar else out


def _shift(spec: ActivationSpec, u):
    """v = u + u0 and the softplus argument arg = M v (None in the ReLU limit)."""
    v = u + spec.u0
    return v, (None if spec.is_relu_limit else v * spec.M)


def _softplus_shifted(spec: ActivationSpec, v, arg):
    """f(u) = (1/M) log(1 + exp(M (u + u0))), overflow-safe, from ``_shift``.

    f is v where arg > _LINEAR_CUTOFF and exp(arg) / M where
    arg < -_LINEAR_CUTOFF.  The whole-array steps below do the same
    per-element operations as computing the three ranges apart, so each
    value matches that bit for bit.
    """
    if arg is None:
        return np.maximum(v, 0.0)
    out = np.minimum(arg, _LINEAR_CUTOFF)
    np.exp(out, out=out)
    np.log1p(out, out=out, where=arg >= -_LINEAR_CUTOFF)
    out /= spec.M
    np.copyto(out, v, where=arg > _LINEAR_CUTOFF)
    return out


def _logistic_shifted(v, arg):
    """f'(u) = logistic(arg) from ``_shift``, stable for large |arg|; overwrites arg.

    With e = exp(-|arg|) it is 1 / (1 + e) for arg >= 0 and e / (1 + e) below.
    """
    if arg is None:
        return np.where(v > 0, 1.0, np.where(v < 0, 0.0, 0.5))
    nonneg = arg >= 0
    e = np.negative(np.abs(arg, out=arg), out=arg)
    np.exp(e, out=e)
    den = e + 1.0
    np.copyto(e, 1.0, where=nonneg)
    e /= den
    return e


def _pow(f, exponent):
    """f ** exponent with the convention 0**neg = 0.

    f is nonnegative; f = 0 only occurs in the ReLU limit, where the
    matching derivative factor is zero anyway.
    """
    if exponent < 0:
        return np.where(f > 0, np.power(np.where(f > 0, f, 1.0), exponent), 0.0)
    return np.power(f, exponent)


def activate(spec: ActivationSpec, u, deriv: bool = True):
    """(sigma(u), sigma'(u)) of a float array u; sigma'(u) is None without ``deriv``.

    Checks u and computes ``_shift`` once for both.  sigma'(u) = f(u)^(k-1) f'(u);
    at k = 1 that is the logistic f'(u) alone.
    """
    _check_finite(u)
    v, arg = _shift(spec, u)
    f = _softplus_shifted(spec, v, arg)
    fp = _logistic_shifted(v, arg) if deriv else None
    if deriv and spec.k != 1.0:
        fp *= _pow(f, spec.k - 1.0)
    if spec.k == 1.0:
        f -= spec.offset
    else:
        np.power(f, spec.k, out=f)
        f -= spec.offset
        f /= spec.k
    return f, fp


def act_value(spec: ActivationSpec, u):
    """sigma(u) = (f(u)^k - f(0)^k) / k.  Vectorized; sigma(0) = 0 exactly."""
    u, scalar = _as_array(u)
    return _unwrap(activate(spec, u, deriv=False)[0], scalar)


def act_deriv(spec: ActivationSpec, u):
    """sigma'(u) = f(u)^(k-1) f'(u); at k = 1 that is the logistic f'(u) alone."""
    u, scalar = _as_array(u)
    return _unwrap(activate(spec, u)[1], scalar)
