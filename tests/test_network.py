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
)
from sparseann.activations import act_deriv, act_value
from sparseann.network import (
    _dloss_dmu,
    _dZ_from_dmu,
    _normalized_row_backprop,
    loss_and_grad,
    normalize_rows,
)


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


def _reference_pass(shape, theta, dataset, loss_kind):
    """Output, loss and gradient with act_value and act_deriv applied to each
    whole pre-activation matrix, in the network's order of operations."""
    deep_hat = [normalize_rows(W) for W in theta.deep]
    weights = [theta.W1, *(W_hat for W_hat, _ in deep_hat)]
    offsets = [*theta.biases, theta.c]
    pres, acts = [], [dataset.X]
    for k, spec in enumerate(shape.activations):
        pres.append(acts[k] @ weights[k].T + offsets[k])
        acts.append(act_value(spec, pres[k]))
    Z = acts[-1] @ weights[-1].T + offsets[-1]
    mu = link_apply(shape.link, Z[:, :-1] if shape.link == "logit" else Z)
    loss, dmu = _dloss_dmu(loss_kind, dataset.Y, mu)
    dZ = _dZ_from_dmu(shape.link, mu, dmu)
    grad = Theta.zeros(shape)
    d_offsets = [*grad.biases, grad.c]
    for k in range(shape.n_layers - 1, 0, -1):
        W_hat, norms = deep_hat[k - 1]
        d_offsets[k][...] = dZ.sum(axis=0)
        _normalized_row_backprop(W_hat, norms, dZ.T @ acts[k], grad.deep[k - 1])
        dZ = dZ @ W_hat
        dZ *= act_deriv(shape.activations[k - 1], pres[k - 1])
    d_offsets[0][...] = dZ.sum(axis=0)
    grad.W1[...] = dZ.T @ acts[0]
    return mu, loss, grad


DEAD_PATTERNS = ("none dead", "all dead", "one live")
LINK_CASES = (("identity", "sqrt_l2", 1), ("softmax", "cross_entropy", 3),
              ("logit", "cross_entropy", 3))


@pytest.mark.parametrize("link,loss_kind,m", LINK_CASES, ids=[c[0] for c in LINK_CASES])
@pytest.mark.parametrize("spec", [ActivationSpec(M, 1.0, k) for M in (20.0, 100.0, math.inf)
                                  for k in (0.5, 1.0, 2.0)],
                         ids=lambda s: f"M={s.M},k={s.k}")
def test_live_unit_evaluation_matches_whole_matrix_reference_bitwise(spec, link, loss_kind, m):
    # dead first-layer units are evaluated once and broadcast; nothing may change a bit
    for n_layers in (3, 4):
        for pattern in DEAD_PATTERNS:
            rng = np.random.default_rng([6200, n_layers, DEAD_PATTERNS.index(pattern)])
            widths = (5, 6, *[int(rng.integers(2, 5)) for _ in range(n_layers - 2)], m)
            _, theta, dataset = random_instance(rng, n_layers, link, loss_kind, n=30,
                                                widths=widths, m=m)
            shape = NetworkShape.make(widths, link, spec)
            dead = {"none dead": [], "all dead": list(range(6)),
                    "one live": [0, 1, 3, 4, 5]}[pattern]
            theta.W1[dead] = 0.0
            if pattern == "one live":
                theta.W1[2, 1:] = 0.0  # one nonzero entry keeps a unit live
            if dead:
                theta.W1[dead[0]] = -0.0  # a row of -0 is dead too
                theta.biases[0][dead[:2]] = (0.0, -0.0)
            mu, loss, grad = _reference_pass(shape, theta, dataset, loss_kind)
            assert forward(shape, theta, dataset.X).tobytes() == mu.tobytes()
            got_loss, got = loss_and_grad(shape, theta, dataset, loss_kind)
            assert np.float64(got_loss).tobytes() == np.float64(loss).tobytes()
            assert got.flat.tobytes() == grad.flat.tobytes()
            # the same through a cached forward pass and a reused gradient buffer
            buf = Theta.from_flat(shape, np.full(shape.param_count, np.nan))
            fwd = forward(shape, theta, dataset.X, return_cache=True)
            assert fwd[0].tobytes() == mu.tobytes()
            got_loss, got = loss_and_grad(shape, theta, dataset, loss_kind, fwd, out=buf)
            assert got is buf
            assert np.float64(got_loss).tobytes() == np.float64(loss).tobytes()
            assert buf.flat.tobytes() == grad.flat.tobytes()


@pytest.mark.parametrize("pattern", DEAD_PATTERNS)
def test_nonfinite_input_rejected_whichever_units_are_dead(pattern):
    rng = np.random.default_rng(6300)
    shape, theta, dataset = random_instance(rng, n_layers=2, widths=(3, 4, 1))
    theta.W1[{"none dead": [], "all dead": [0, 1, 2, 3], "one live": [0, 2, 3]}[pattern]] = 0.0
    for bad in (np.nan, np.inf):
        X = dataset.X.copy()
        X[2, 1] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):  # inf * 0 in X @ W1.T
            forward(shape, theta, X)


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
    for task in ("ranking", ["regression"]):  # a list is unhashable
        with pytest.raises(ValueError, match="unknown task"):
            Dataset(X=X, Y=np.zeros((3, 1)), task=task)
    for bad in (np.nan, np.inf):
        with pytest.raises(DataError):
            Dataset(X=np.where(np.eye(3, 2), bad, 0.0), Y=np.zeros((3, 1)), task="regression")
        with pytest.raises(DataError):
            Dataset(X=X, Y=np.full((3, 1), -bad), task="regression")
    with pytest.raises(DataError):  # one label: no class to tell apart
        Dataset(X=X, Y=np.ones((3, 1)), task="classification")
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
