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

import numpy as np

# Beyond this argument the softplus equals its linear/zero asymptote to
# double precision; avoids overflow for sharpness values like M = 100.
_LINEAR_CUTOFF = 30.0


@dataclass(frozen=True)
class ActivationSpec:
    """Sharpness M, shift u0 and power k of one activation function.

    M may be ``math.inf``, giving the exact ReLU-type limit.  The limit is
    usable in forward passes (e.g. for exact network constructions) but is
    not twice differentiable, so it is rejected by the threshold formulas
    that require a C^2 activation.
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

    def to_dict(self) -> dict:
        return {"M": "inf" if self.is_relu_limit else self.M, "u0": self.u0, "k": self.k}

    @staticmethod
    def from_dict(d: dict) -> "ActivationSpec":
        m = d["M"]
        m = math.inf if (isinstance(m, str) and m.lower() == "inf") else float(m)
        return ActivationSpec(M=m, u0=float(d.get("u0", 1.0)), k=float(d.get("k", 1.0)))


RELU = ActivationSpec(M=math.inf, u0=0.0, k=1.0)


def _check_finite(u):
    if not np.all(np.isfinite(u)):
        raise ValueError("activation input must be finite")


def _as_array(u):
    """Coerce to a float array of dim >= 1, remembering scalar-ness."""
    arr = np.asarray(u, dtype=float)
    scalar = arr.ndim == 0
    return np.atleast_1d(arr), scalar


def _unwrap(out, scalar):
    return float(out[0]) if scalar else out


def _softplus_shifted(spec: ActivationSpec, u):
    """f(u) = (1/M) log(1 + exp(M (u + u0))), overflow-safe."""
    v = u + spec.u0
    if spec.is_relu_limit:
        return np.maximum(v, 0.0)
    arg = spec.M * v
    out = np.empty_like(arg, dtype=float)
    hi = arg > _LINEAR_CUTOFF
    lo = arg < -_LINEAR_CUTOFF
    mid = ~(hi | lo)
    out[hi] = v[hi]
    out[lo] = np.exp(arg[lo]) / spec.M
    out[mid] = np.log1p(np.exp(arg[mid])) / spec.M
    return out


def _logistic_shifted(spec: ActivationSpec, u):
    """f'(u) = logistic(M (u + u0)), stable for large |arg|."""
    v = u + spec.u0
    if spec.is_relu_limit:
        return np.where(v > 0, 1.0, np.where(v < 0, 0.0, 0.5))
    arg = spec.M * v
    out = np.empty_like(arg, dtype=float)
    pos = arg >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arg[pos]))
    e = np.exp(arg[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _pow(f, exponent):
    """f ** exponent with the convention 0**0 = 1 and 0**neg = 0.

    f is nonnegative; f = 0 only occurs in the ReLU limit, where the
    matching derivative factor is zero anyway.
    """
    if exponent == 0:
        return np.ones_like(f)
    if exponent < 0:
        return np.where(f > 0, np.power(np.where(f > 0, f, 1.0), exponent), 0.0)
    return np.power(f, exponent)


def act_value(spec: ActivationSpec, u):
    """sigma(u) = (f(u)^k - f(0)^k) / k.  Vectorized; sigma(0) = 0 exactly."""
    u, scalar = _as_array(u)
    _check_finite(u)
    f = _softplus_shifted(spec, u)
    f0 = _softplus_shifted(spec, np.zeros(1))[0]
    return _unwrap((np.power(f, spec.k) - f0**spec.k) / spec.k, scalar)


def act_deriv(spec: ActivationSpec, u):
    """sigma'(u) = f(u)^(k-1) f'(u)."""
    u, scalar = _as_array(u)
    _check_finite(u)
    f = _softplus_shifted(spec, u)
    fp = _logistic_shifted(spec, u)
    return _unwrap(_pow(f, spec.k - 1.0) * fp, scalar)


def act_second_deriv(spec: ActivationSpec, u):
    """sigma''(u) = (k-1) f^(k-2) f'^2 + f^(k-1) f''.

    Undefined in the ReLU limit (the limit is not C^2).
    """
    if spec.is_relu_limit:
        raise ValueError("second derivative undefined for the ReLU limit")
    u, scalar = _as_array(u)
    _check_finite(u)
    f = _softplus_shifted(spec, u)
    fp = _logistic_shifted(spec, u)
    fpp = spec.M * fp * (1.0 - fp)
    out = (spec.k - 1.0) * _pow(f, spec.k - 2.0) * fp**2 + _pow(f, spec.k - 1.0) * fpp
    return _unwrap(out, scalar)
