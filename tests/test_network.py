"""Tests for the network forward pass, links and hand-derived gradients."""

import math

import numpy as np
import pytest
from fd_utils import max_rel_grad_error, random_instance, random_theta

from sparseann import (
    ActivationSpec,
    DataError,
    Dataset,
    DegenerateParameterError,
    NetworkShape,
    NumericalError,
    Theta,
    forward,
    link_apply,
    predict_class,
)
from sparseann.network import loss_and_grad


def _relu_spec():
    return ActivationSpec(M=math.inf, u0=0.0, k=1.0)


def test_param_count():
    shape = NetworkShape.make((3, 4, 2), "identity")
    # 4*(3+1) + 2*(4+1) = 26
    assert shape.param_count == 26
    shape3 = NetworkShape.make((5, 4, 3, 2), "softmax")
    assert shape3.param_count == 4 * 6 + 3 * 5 + 2 * 4


def test_shape_validation():
    with pytest.raises(ValueError):
        NetworkShape.make((3, 2), "identity")  # no hidden layer
    with pytest.raises(ValueError):
        NetworkShape.make((3, 0, 1), "identity")
    with pytest.raises(ValueError):
        NetworkShape.make((3, 2, 1), "probit")


def test_constant_model_when_penalized_part_is_zero():
    rng = np.random.default_rng(0)
    shape, theta, dataset = random_instance(rng, n_layers=3)
    theta.theta1[...] = 0.0
    mu = forward(shape, theta, dataset.X)
    assert np.all(mu == mu[0])  # exactly row-constant


def test_hand_forward_single_relu_neuron():
    shape = NetworkShape.make((2, 1, 1), "identity", _relu_spec())
    theta = Theta(
        W1=np.array([[1.0, 0.0]]),
        biases=[np.array([0.0])],
        deep=[np.array([[2.0]])],  # normalizes to [[1.0]]
        c=np.array([0.0]),
    )
    out = forward(shape, theta, np.array([[3.0, 7.0]]))
    assert out[0, 0] == pytest.approx(3.0, abs=1e-12)


def test_softmax_uniform_at_null():
    shape = NetworkShape.make((3, 2, 4), "softmax")
    theta = random_theta(shape, np.random.default_rng(1))
    theta.theta1[...] = 0.0
    theta.c[...] = 0.0
    mu = forward(shape, theta, np.random.default_rng(2).standard_normal((5, 3)))
    assert np.allclose(mu, 0.25)


def test_link_softmax_uniform():
    out = link_apply("softmax", np.zeros((1, 3)))
    assert np.allclose(out, 1.0 / 3.0)


def test_link_logit_appends_reference_class():
    out = link_apply("logit", np.zeros((1, 2)))
    assert out.shape == (1, 3)
    assert np.allclose(out, 1.0 / 3.0)


def test_link_softmax_stable_at_large_logits():
    out = link_apply("softmax", np.array([[1000.0, 0.0]]))
    assert np.all(np.isfinite(out))
    assert out[0, 0] == pytest.approx(1.0)
    assert out[0, 1] == pytest.approx(0.0, abs=1e-300)


def test_deep_row_scale_invariance():
    rng = np.random.default_rng(3)
    shape, theta, dataset = random_instance(rng, n_layers=3)
    mu = forward(shape, theta, dataset.X)
    scaled = theta.copy()
    scaled.deep[0][0] *= 17.5
    scaled.deep[1][0] *= 0.003
    assert np.allclose(forward(shape, scaled, dataset.X), mu, atol=1e-12)


def test_zero_deep_row_rejected():
    rng = np.random.default_rng(4)
    shape, theta, dataset = random_instance(rng, n_layers=2)
    theta.deep[0][0] = 0.0
    with pytest.raises(DegenerateParameterError):
        forward(shape, theta, dataset.X)


def test_zero_residual_not_differentiable():
    rng = np.random.default_rng(5)
    shape, theta, dataset = random_instance(rng, n_layers=2)
    dataset.Y = forward(shape, theta, dataset.X)  # exact fit
    with pytest.raises(NumericalError):
        loss_and_grad(shape, theta, dataset, "sqrt_l2")


FD_CASES = [
    (2, "identity", "sqrt_l2", 1),
    (3, "identity", "sqrt_l2", 1),
    (4, "identity", "sqrt_l2", 1),
    (2, "softmax", "cross_entropy", 3),
    (3, "softmax", "cross_entropy", 2),
    (4, "logit", "cross_entropy", 3),
    (2, "logit", "cross_entropy", 2),
    (3, "softmax", "sqrt_l2", 3),
]


@pytest.mark.parametrize("n_layers,link,loss_kind,m", FD_CASES)
def test_gradient_matches_finite_differences(n_layers, link, loss_kind, m):
    # one fixed seed per case, so that a failing instance can be rerun
    rng = np.random.default_rng([6000, FD_CASES.index((n_layers, link, loss_kind, m))])
    shape, theta, dataset = random_instance(
        rng, n_layers=n_layers, link=link, loss_kind=loss_kind, m=m
    )
    assert max_rel_grad_error(shape, theta, dataset, loss_kind) <= 1e-5


@pytest.mark.parametrize("n_layers,link,loss_kind,m", FD_CASES)
def test_deep_row_gradient_is_orthogonal_to_its_row(n_layers, link, loss_kind, m):
    # so a gradient step never shrinks a deep row, and the solver needs no row guard
    for r in range(5):
        rng = np.random.default_rng([6100, FD_CASES.index((n_layers, link, loss_kind, m)), r])
        shape, theta, dataset = random_instance(
            rng, n_layers=n_layers, link=link, loss_kind=loss_kind, m=m, n=20
        )
        for W in theta.deep:
            W *= rng.uniform(0.5, 3.0, size=(W.shape[0], 1))
        _, grad = loss_and_grad(shape, theta, dataset, loss_kind)
        for W, G in zip(theta.deep, grad.deep):
            for w_row, g_row in zip(W, G):
                bound = 1e-12 * np.linalg.norm(g_row) * np.linalg.norm(w_row)
                assert abs(g_row @ w_row) <= bound


def test_bias_gradients_vanish_at_regression_null():
    rng = np.random.default_rng(6)
    shape, theta, dataset = random_instance(rng, n_layers=3)
    theta.theta1[...] = 0.0
    theta.c[...] = dataset.Y.mean(axis=0)
    _, grad = loss_and_grad(shape, theta, dataset, "sqrt_l2")
    for g in grad.biases:
        assert np.allclose(g, 0.0, atol=1e-12)
    assert np.allclose(grad.c, 0.0, atol=1e-12)


def test_dataset_validation():
    X = np.zeros((3, 2))
    with pytest.raises(ValueError):
        Dataset(X=X, Y=np.zeros((3, 2)), task="regression")  # m must be 1
    with pytest.raises(ValueError):
        Dataset(X=X, Y=np.zeros((4, 1)), task="regression")  # row mismatch
    with pytest.raises(ValueError):
        Dataset(X=X, Y=np.full((3, 2), 0.5), task="classification")  # not one-hot
    for bad in (np.nan, np.inf):
        with pytest.raises(DataError):
            Dataset(X=np.where(np.eye(3, 2), bad, 0.0), Y=np.zeros((3, 1)), task="regression")
        with pytest.raises(DataError):
            Dataset(X=X, Y=np.full((3, 1), -bad), task="regression")
    ok = np.zeros((3, 2))
    ok[:, 0] = 1.0
    Dataset(X=X, Y=ok, task="classification")


def test_theta_serialization_round_trip():
    rng = np.random.default_rng(7)
    shape, theta, _ = random_instance(rng, n_layers=3)
    again = Theta.from_dict(theta.to_dict())
    assert np.array_equal(theta.flat, again.flat)


def test_theta_arrays_are_views_of_one_vector():
    shape = NetworkShape.make((3, 4, 2, 1), "identity")
    theta = random_theta(shape, np.random.default_rng(9))
    assert theta.flat.shape == (shape.param_count,)
    assert np.array_equal(theta.flat, np.concatenate(
        [a.ravel() for a in (theta.W1, *theta.biases, *theta.deep, theta.c)]))
    assert np.array_equal(theta.theta1, np.concatenate([theta.W1.ravel(), *theta.biases]))
    assert theta.theta1.size + theta.theta2.size == shape.param_count
    theta.c[...] = 7.0  # an in-place write reaches the vector
    assert theta.flat[-1] == 7.0
    vec = np.zeros(shape.param_count)
    Theta.from_flat(shape, vec).deep[1][...] = 1.0  # wraps, does not copy
    assert vec[-3:].tolist() == [1.0, 1.0, 0.0]
    copied = theta.copy()
    copied.flat[...] = 0.0
    assert theta.c[0] == 7.0
    with pytest.raises(AttributeError):
        theta.W1 = np.zeros_like(theta.W1)
    with pytest.raises(TypeError):
        theta.deep[0] = np.ones_like(theta.deep[0])
    with pytest.raises(ValueError):
        Theta.from_flat(shape, np.zeros(shape.param_count + 1))


def test_shape_serialization_round_trip():
    shape = NetworkShape.make((3, 4, 2), "softmax", ActivationSpec(50.0, 0.5, 2.0))
    assert NetworkShape.from_dict(shape.to_dict()) == shape


def test_predict_class_ties_take_smallest_index():
    shape = NetworkShape.make((2, 2, 2), "softmax")
    theta = random_theta(shape, np.random.default_rng(8))
    theta.theta1[...] = 0.0
    theta.c[...] = 0.0  # both classes at probability 1/2
    labels = predict_class(shape, theta, np.zeros((4, 2)))
    assert np.all(labels == 0)

