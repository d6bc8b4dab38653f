"""Tests for the rescaled smooth activation family."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseann import ActivationSpec, act_deriv, act_value
from sparseann.activations import (
    _as_array,
    _check_finite,
    _logistic_shifted,
    _pow,
    _shift,
    _softplus_shifted,
    _unwrap,
    activate,
)

RELU = ActivationSpec(M=math.inf, u0=0.0, k=1.0)


def act_second_deriv(spec, u):
    """sigma''(u) = (k-1) f^(k-2) f'^2 + f^(k-1) f'', from the package's kernels.

    Undefined in the ReLU limit (the limit is not C^2).  Only the tests use it:
    they check the derivative chain sigma, sigma', sigma'' against itself.
    """
    if spec.is_relu_limit:
        raise ValueError("second derivative undefined for the ReLU limit")
    u, scalar = _as_array(u)
    _check_finite(u)
    f = _softplus_shifted(spec, *_shift(spec, u))
    fp = _logistic_shifted(*_shift(spec, u))
    fpp = spec.M * fp * (1.0 - fp)
    out = (spec.k - 1.0) * _pow(f, spec.k - 2.0) * fp**2 + _pow(f, spec.k - 1.0) * fpp
    return _unwrap(out, scalar)

# Reference: the activation formulas computed range by range through boolean
# masks, as the package first did.  The package must match them bit for bit.


def _softplus_reference(spec, u):
    v = u + spec.u0
    if spec.is_relu_limit:
        return np.maximum(v, 0.0)
    arg = spec.M * v
    out = np.empty_like(arg, dtype=float)
    hi = arg > 30.0
    lo = arg < -30.0
    mid = ~(hi | lo)
    out[hi] = v[hi]
    out[lo] = np.exp(arg[lo]) / spec.M
    out[mid] = np.log1p(np.exp(arg[mid])) / spec.M
    return out


def _logistic_reference(spec, u):
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


def _pow_reference(f, exponent):
    if exponent == 0:
        return np.ones_like(f)
    if exponent < 0:
        return np.where(f > 0, np.power(np.where(f > 0, f, 1.0), exponent), 0.0)
    return np.power(f, exponent)


def _value_reference(spec, u):
    f = _softplus_reference(spec, u)
    f0 = _softplus_reference(spec, np.zeros(1))[0]
    return (np.power(f, spec.k) - f0**spec.k) / spec.k


def _deriv_reference(spec, u):
    f = _softplus_reference(spec, u)
    return _pow_reference(f, spec.k - 1.0) * _logistic_reference(spec, u)


def _edge_inputs(spec):
    """Inputs around those where M (u + u0) is 0 or +-30, three ulps either side."""
    scale = 1.0 if spec.is_relu_limit else spec.M
    out = []
    for target in (0.0, -30.0, 30.0):
        u = np.float64(target / scale - spec.u0)
        for _ in range(3):
            u = np.nextafter(u, -np.inf)
        for _ in range(7):
            out.append(u)
            u = np.nextafter(u, np.inf)
    return np.array(out)


ORACLE_SPECS = [ActivationSpec(M, u0, k) for M in (1.0, 20.0, 100.0, math.inf)
                for u0 in (0.0, 1.0) for k in (0.5, 1.0, 2.0)]


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda s: f"M={s.M},u0={s.u0},k={s.k}")
def test_value_and_deriv_match_masked_reference_bitwise(spec):
    us = np.concatenate([np.linspace(-5.0, 5.0, 2001), _edge_inputs(spec)])
    assert _bits(act_value(spec, us)) == _bits(_value_reference(spec, us))
    assert _bits(act_deriv(spec, us)) == _bits(_deriv_reference(spec, us))
    # the fused kernel, on the whole input, on the edge inputs alone and on a
    # gathered block, gives what act_value and act_deriv give apart
    rng = np.random.default_rng(0)
    for block in (us, _edge_inputs(spec), us[rng.permutation(us.size)[:257]]):
        value, deriv = activate(spec, block.copy())
        assert _bits(value) == _bits(act_value(spec, block))
        assert _bits(deriv) == _bits(act_deriv(spec, block))
        assert activate(spec, block.copy(), deriv=False)[1] is None
    grid = us[: us.size // 2 * 2].reshape(-1, 2)
    assert _bits(act_value(spec, grid)) == _bits(_value_reference(spec, grid))
    assert _bits(act_deriv(spec, grid)) == _bits(_deriv_reference(spec, grid))
    for u in _edge_inputs(spec):
        value, deriv = act_value(spec, float(u)), act_deriv(spec, float(u))
        assert isinstance(value, float) and isinstance(deriv, float)
        assert _bits(value) == _bits(_value_reference(spec, np.array([u]))[0])
        assert _bits(deriv) == _bits(_deriv_reference(spec, np.array([u]))[0])


def test_edge_inputs_reach_the_cutoffs_exactly():
    # (M=20, u0=1): M (u + u0) hits 0 and +-30 exactly, with neighbours either side
    spec = ActivationSpec(20.0, 1.0, 1.0)
    args = (_edge_inputs(spec) + spec.u0) * spec.M
    for target in (0.0, -30.0, 30.0):
        assert target in args
        assert np.any((args > target) & (args < target + 1e-12))
        assert np.any((args < target) & (args > target - 1e-12))


def test_value_zero_at_origin_for_many_specs():
    for M in (1.0, 5.0, 20.0, 100.0):
        for u0 in (0.0, 0.5, 1.0):
            for k in (1.0, 2.0):
                assert act_value(ActivationSpec(M, u0, k), 0.0) == 0.0


def test_value_centered_softplus_at_one():
    # (M=1, u0=0, k=1): log(1 + e) - log 2
    expected = math.log(1.0 + math.e) - math.log(2.0)
    assert act_value(ActivationSpec(1.0, 0.0, 1.0), 1.0) == pytest.approx(
        expected, abs=1e-12
    )


def test_quadratic_combination_approximates_half_square():
    # k=2, u0=1: 1 + sigma(x-1) + sigma(-x-1) ~ x^2/2 for sharp M
    spec = ActivationSpec(50.0, 1.0, 2.0)
    x = 0.5
    val = 1.0 + act_value(spec, x - 1.0) + act_value(spec, -x - 1.0)
    assert abs(val - x**2 / 2.0) < 0.05


def test_quadratic_combination_error_shrinks_with_sharpness():
    xs = np.linspace(-2.0, 2.0, 41)

    def max_err(M):
        spec = ActivationSpec(M, 1.0, 2.0)
        vals = 1.0 + act_value(spec, xs - 1.0) + act_value(spec, -xs - 1.0)
        return float(np.max(np.abs(vals - xs**2 / 2.0)))

    errs = [max_err(M) for M in (10.0, 25.0, 50.0, 100.0)]
    assert errs[2] <= 0.05
    assert all(a >= b for a, b in zip(errs, errs[1:]))


def test_deriv_logistic_at_zero():
    assert act_deriv(ActivationSpec(1.0, 0.0, 1.0), 0.0) == pytest.approx(0.5)


def test_deriv_default_spec_near_one():
    # (M=20, u0=1, k=1): e^20 / (1 + e^20)
    expected = math.exp(20.0) / (1.0 + math.exp(20.0))
    assert act_deriv(ActivationSpec(20.0, 1.0, 1.0), 0.0) == pytest.approx(
        expected, abs=1e-15
    )
    assert abs(1.0 - act_deriv(ActivationSpec(20.0, 1.0, 1.0), 0.0)) < 3e-9


def test_deriv_unit_shift_scales_to_one():
    assert abs(act_deriv(ActivationSpec(100.0, 1.0, 2.0), 0.0) - 1.0) < 1e-2


def test_second_deriv_logistic_prime_at_zero():
    assert act_second_deriv(ActivationSpec(1.0, 0.0, 1.0), 0.0) == pytest.approx(0.25)


def test_second_deriv_sharp_shifted():
    # (M=20, u0=1, k=1) at 0: M / e^M
    spec = ActivationSpec(20.0, 1.0, 1.0)
    assert act_second_deriv(spec, 0.0) == pytest.approx(20.0 / math.exp(20.0), rel=1e-9)


def test_second_deriv_unshifted_quarter_m():
    assert act_second_deriv(ActivationSpec(20.0, 0.0, 1.0), 0.0) == pytest.approx(5.0)


@settings(max_examples=100, deadline=None)
@given(
    M=st.floats(0.5, 50.0),
    u0=st.floats(0.0, 2.0),
    k=st.sampled_from([1.0, 2.0]),
    u=st.floats(-5.0, 5.0),
)
def test_deriv_matches_finite_differences(M, u0, k, u):
    spec = ActivationSpec(M, u0, k)
    h = 1e-6
    fd = (act_value(spec, u + h) - act_value(spec, u - h)) / (2.0 * h)
    g = act_deriv(spec, u)
    assert abs(g - fd) <= 1e-6 * max(1.0, abs(fd))


@settings(max_examples=50, deadline=None)
@given(M=st.floats(0.5, 50.0), u0=st.floats(0.0, 2.0), u=st.floats(-4.0, 4.0))
def test_second_deriv_matches_finite_differences(M, u0, u):
    spec = ActivationSpec(M, u0, 1.0)
    h = 1e-5
    fd = (act_deriv(spec, u + h) - act_deriv(spec, u - h)) / (2.0 * h)
    g = act_second_deriv(spec, u)
    assert abs(g - fd) <= 1e-4 * max(1.0, abs(fd))


def test_relu_convergence_bound():
    # k=1, u0=0: |sigma_M(u) - max(u, 0)| <= log 2 / M everywhere
    us = np.linspace(-6.0, 6.0, 201)
    for M in (5.0, 20.0, 100.0):
        spec = ActivationSpec(M, 0.0, 1.0)
        gap = np.abs(act_value(spec, us) - np.maximum(us, 0.0))
        assert float(gap.max()) <= math.log(2.0) / M + 1e-12


def test_relu_limit_forward_only():
    assert act_value(RELU, -2.0) == 0.0
    assert act_value(RELU, 3.0) == 3.0
    assert act_deriv(RELU, 3.0) == 1.0
    with pytest.raises(ValueError):
        act_second_deriv(RELU, 0.0)


def test_no_overflow_at_large_sharpness():
    spec = ActivationSpec(100.0, 1.0, 1.0)
    vals = act_value(spec, np.array([-50.0, 0.0, 50.0]))
    assert np.all(np.isfinite(vals))


def test_vectorized_matches_scalar():
    spec = ActivationSpec(20.0, 1.0, 1.0)
    us = np.array([-1.0, 0.0, 0.3])
    vec = act_value(spec, us)
    assert vec.shape == us.shape
    for u, v in zip(us, vec):
        assert act_value(spec, float(u)) == pytest.approx(v, abs=1e-15)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        ActivationSpec(M=0.0)
    with pytest.raises(ValueError):
        ActivationSpec(k=0.0)
    with pytest.raises(ValueError):
        ActivationSpec(u0=-0.1)


@pytest.mark.parametrize("kw", [{"u0": math.nan}, {"u0": math.inf}, {"k": math.inf},
                                {"k": math.nan}])
def test_nonfinite_shift_and_power_rejected(kw):
    with pytest.raises(ValueError):
        ActivationSpec(**kw)


def test_nonfinite_input_rejected():
    with pytest.raises(ValueError):
        act_value(ActivationSpec(), float("nan"))
    with pytest.raises(ValueError):
        act_deriv(ActivationSpec(), float("inf"))


def test_serialization_round_trip():
    for spec in (ActivationSpec(20.0, 1.0, 1.0), RELU):
        again = ActivationSpec.from_dict(spec.to_dict())
        assert again == spec
    assert ActivationSpec(M=math.inf, u0=0.0, k=1.0).to_dict()["M"] == "inf"
