"""Tests for losses, the l1 penalty, the prox map and the null-point Hessians."""

import numpy as np
import pytest
from fd_utils import random_instance, random_theta
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseann import (
    ActivationSpec,
    DataError,
    Dataset,
    NetworkShape,
    Theta,
    forward,
    hessian_at_null,
    objective_value,
    penalty_l1,
)
from sparseann.network import loss_value
from sparseann.objective import descent_direction_certificate, soft_threshold
from sparseann.solver import _ista_step


def _col(*vals):
    return np.array(vals, dtype=float).reshape(-1, 1)


def test_sqrt_l2_examples():
    assert loss_value("sqrt_l2", _col(1, 2, 3), _col(1, 2, 3)) == 0.0
    assert loss_value("sqrt_l2", _col(1, 0), _col(0, 0)) == 1.0
    assert loss_value("sqrt_l2", _col(3, 4), _col(0, 0)) == pytest.approx(5.0)


def test_sqrt_l2_positive_homogeneity():
    rng = np.random.default_rng(0)
    Y = rng.standard_normal((7, 1))
    mu = rng.standard_normal((7, 1))
    b = 2.3
    for a in (0.1, 1.0, 41.7):
        assert loss_value("sqrt_l2", a * Y + b, a * mu + b) == pytest.approx(
            a * loss_value("sqrt_l2", Y, mu), rel=1e-12
        )


def test_cross_entropy_examples():
    Y = np.array([[1.0, 0.0], [0.0, 1.0]])
    P = np.full((2, 2), 0.5)
    assert loss_value("cross_entropy", Y, P) == pytest.approx(2.0 * np.log(2.0))
    assert loss_value(
        "cross_entropy", np.array([[0.0, 0.0, 1.0]]), np.array([[0.2, 0.3, 0.5]])
    ) == pytest.approx(-np.log(0.5))
    # certain and correct: clamped log(1) = 0
    assert loss_value(
        "cross_entropy", np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]])
    ) == pytest.approx(0.0, abs=1e-10)


def test_penalty_examples():
    shape = NetworkShape.make((2, 1, 1), "identity")
    theta = Theta.zeros(shape)
    theta.deep[0][:] = 1.0
    assert penalty_l1(theta) == 0.0
    theta.W1[...] = [[1.0, -2.0]]
    theta.biases[0][...] = [0.5]
    assert penalty_l1(theta) == pytest.approx(3.5)
    # free parameters do not contribute
    theta.c[...] = [100.0]
    assert penalty_l1(theta) == pytest.approx(3.5)


def test_penalty_column_permutation_invariance():
    shape = NetworkShape.make((4, 3, 1), "identity")
    theta = Theta.zeros(shape)
    theta.deep[0][:] = 1.0
    theta.W1[...] = np.random.default_rng(1).standard_normal((3, 4))
    permuted = theta.copy()
    permuted.W1[...] = theta.W1[:, ::-1]
    assert penalty_l1(permuted) == pytest.approx(penalty_l1(theta))


def test_penalty_equals_per_array_sum():
    # the penalty sums theta1 in one pass; rounding bounds the difference
    # from summing W1 and each bias separately
    shape = NetworkShape.make((200, 20, 5, 1), "identity")
    theta = random_theta(shape, np.random.default_rng(8))
    per_array = sum(float(np.abs(a).sum()) for a in (theta.W1, *theta.biases))
    assert penalty_l1(theta) == pytest.approx(per_array, rel=theta.theta1.size * 2.0**-52)


def test_objective_additivity_and_null_value():
    rng = np.random.default_rng(2)
    shape, theta, dataset = random_instance(rng, n_layers=2)
    bare = objective_value(shape, theta, dataset, 0.0)
    mu = forward(shape, theta, dataset.X)
    assert bare == pytest.approx(loss_value("sqrt_l2", dataset.Y, mu))
    lam = 1.0
    assert objective_value(shape, theta, dataset, lam) == pytest.approx(
        bare + lam * penalty_l1(theta)
    )
    # null point with the mean intercept: loss is the centered response norm
    theta.theta1[...] = 0.0
    theta.c[...] = dataset.Y.mean(axis=0)
    assert objective_value(shape, theta, dataset, 0.0) == pytest.approx(
        float(np.linalg.norm(dataset.Y - dataset.Y.mean(axis=0)))
    )


def test_prox_scalar_examples():
    assert soft_threshold(np.array([1.5]), 1.0)[0] == pytest.approx(0.5)
    assert soft_threshold(np.array([-0.3]), 0.5)[0] == 0.0


def test_prox_theta_only_touches_penalized_part():
    # with a zero gradient the ISTA step is the prox map alone
    rng = np.random.default_rng(3)
    shape, theta, _ = random_instance(rng, n_layers=3)
    zero = Theta.zeros(shape)
    out = Theta.zeros(shape)
    mapping = _ista_step(theta, zero, 0.1, 2.0, out)
    assert np.array_equal(out.theta2, theta.theta2)
    assert np.any(out.W1 != theta.W1)
    assert mapping == np.max(np.abs(out.theta1 - theta.theta1)) / 0.1
    # lam = 0 is the identity on everything
    _ista_step(theta, zero, 0.1, 0.0, out)
    assert np.array_equal(out.flat, theta.flat)
    # writing over theta itself gives the same bytes as writing elsewhere
    grad = Theta.from_flat(shape, rng.standard_normal(theta.flat.size))
    _ista_step(theta, grad, 0.1, 2.0, out)
    _ista_step(theta, grad, 0.1, 2.0, theta)
    assert np.array_equal(theta.flat, out.flat)


@settings(max_examples=200, deadline=None)
@given(w=st.floats(-10.0, 10.0), t=st.floats(0.0, 5.0))
def test_prox_subgradient_optimality(w, t):
    # u = prox(w) minimizes 0.5 (u - w)^2 + t |u|:
    # u != 0  =>  u - w + t sign(u) = 0;  u == 0  =>  |w| <= t
    u = float(soft_threshold(np.array([w]), t)[0])
    if u != 0.0:
        assert abs(u - w + t * np.sign(u)) <= 1e-12
    else:
        assert abs(w) <= t + 1e-12


def test_hessian_at_null_hand_value():
    # sigma'(0) = 1 to machine precision at M=50, u0=1; W2 rows normalize to
    # (1/sqrt 2, 1/sqrt 2), so with n=2 and centered-norm sqrt 2 the first
    # bias block is sqrt(2) * [[0.5, 0.5], [0.5, 0.5]].
    spec = ActivationSpec(50.0, 1.0, 1.0)
    shape = NetworkShape.make((3, 2, 1, 1), "identity", spec)
    theta = Theta.zeros(shape)
    theta.deep[0][...] = [[1.0, 1.0]]
    theta.deep[1][...] = [[5.0]]  # scale irrelevant after normalization
    X = np.zeros((2, 3))
    Y = np.array([[1.0], [-1.0]])
    dataset = Dataset(X=X, Y=Y, task="regression")
    H_b1, H_b2 = hessian_at_null(shape, theta, dataset)
    assert np.allclose(H_b1, np.sqrt(2.0) * np.full((2, 2), 0.5), atol=1e-9)
    assert np.allclose(H_b2, np.sqrt(2.0) * np.ones((1, 1)), atol=1e-9)


def test_hessian_blocks_are_psd_rank_one():
    rng = np.random.default_rng(4)
    for _ in range(5):
        shape, theta, dataset = random_instance(rng, n_layers=3)
        H_b1, H_b2 = hessian_at_null(shape, theta, dataset)
        for H in (H_b1, H_b2):
            assert np.allclose(H, H.T)
            eig = np.linalg.eigvalsh(H)
            assert eig.min() >= -1e-8
            assert np.linalg.matrix_rank(H, tol=1e-10) <= 1


def test_hessian_rejects_constant_response():
    shape = NetworkShape.make((2, 2, 2, 1), "identity")
    theta = Theta.zeros(shape)
    theta.deep[0][:] = 1.0
    theta.deep[1][:] = 1.0
    dataset = Dataset(X=np.zeros((3, 2)), Y=np.ones((3, 1)), task="regression")
    with pytest.raises(DataError):
        hessian_at_null(shape, theta, dataset)


def test_objective_rejects_negative_lambda():
    rng = np.random.default_rng(6)
    shape, theta, dataset = random_instance(rng, n_layers=2)
    with pytest.raises(ValueError):
        objective_value(shape, theta, dataset, -1.0)


def test_null_point_is_local_min_above_threshold():
    from sparseann import lambda0

    rng = np.random.default_rng(5)
    shape, theta, dataset = random_instance(rng, n_layers=2)
    lam = 1.01 * lambda0(dataset, shape)
    assert descent_direction_certificate(
        shape, dataset, theta, lam, n_directions=50, step=1e-4, rng=rng
    )
