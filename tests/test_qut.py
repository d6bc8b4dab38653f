"""Tests for the zero-thresholding closed forms, the oracle and the quantile."""

import numpy as np
import pytest
from fd_utils import random_instance
from theory import lambda0, lambda0_oracle

from sparseann import qut as qut_module
from sparseann import (
    ActivationSpec,
    ConfigError,
    DataError,
    Dataset,
    NetworkShape,
    QutConfig,
    SimConfig,
    SolverConfig,
    act_deriv,
    compute_qut,
    init_theta,
    lambda0_classification,
    lambda0_regression,
    sample_null_classification,
    sample_null_regression,
)
from sparseann.network import loss_and_grad

# sigma'(0) = logistic(50) = 1 to double precision; keeps hand values clean
UNIT_SLOPE = ActivationSpec(50.0, 1.0, 1.0)


def test_regression_hand_value_two_layers():
    X = np.array([[1.0], [-1.0]])
    Y = np.array([[1.0], [-1.0]])
    shape = NetworkShape.make((1, 3, 1), "identity", UNIT_SLOPE)
    # |X' Yc|_inf = 2, |Yc|_2 = sqrt 2
    assert lambda0_regression(Y, X, shape) == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_regression_hand_value_three_layers_width_factor():
    X = np.array([[1.0], [-1.0]])
    Y = np.array([[1.0], [-1.0]])
    shape = NetworkShape.make((1, 3, 4, 1), "identity", UNIT_SLOPE)
    # extra factor sqrt(p3) = 2
    assert lambda0_regression(Y, X, shape) == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-12)


def test_regression_pivotality_exact():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((20, 6))
    Y = rng.standard_normal((20, 1))
    shape = NetworkShape.make((6, 4, 1), "identity")
    base = lambda0_regression(Y, X, shape)
    a, b = 3.7, -2.0
    shifted = lambda0_regression(a * Y + b, X, shape)
    assert abs(shifted - base) <= 1e-12 * base


def test_regression_rejects_constant_response():
    shape = NetworkShape.make((2, 2, 1), "identity")
    with pytest.raises(DataError):
        lambda0_regression(np.ones((5, 1)), np.zeros((5, 2)), shape)


def test_classification_hand_value():
    X = np.array([[1.0], [-1.0]])
    Y = np.array([[1.0, 0.0], [0.0, 1.0]])
    shape = NetworkShape.make((1, 3, 2), "softmax", UNIT_SLOPE)
    # X' Yc = (1, -1): row l1 sum 2, no norm divisor in classification
    assert lambda0_classification(Y, X, shape) == pytest.approx(2.0, rel=1e-12)


def test_classification_single_class_is_zero():
    X = np.random.default_rng(1).standard_normal((5, 3))
    Y = np.zeros((5, 2))
    Y[:, 0] = 1.0
    shape = NetworkShape.make((3, 2, 2), "softmax")
    assert lambda0_classification(Y, X, shape) == 0.0


def test_classification_class_permutation_invariance():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((12, 4))
    idx = rng.integers(0, 3, size=12)
    Y = np.zeros((12, 3))
    Y[np.arange(12), idx] = 1.0
    shape = NetworkShape.make((4, 3, 3), "softmax")
    base = lambda0_classification(Y, X, shape)
    assert lambda0_classification(Y[:, [2, 0, 1]], X, shape) == pytest.approx(base)


def test_relu_limit_rejected_in_closed_forms():
    relu = ActivationSpec(M=np.inf, u0=0.0, k=1.0)
    shape = NetworkShape.make((2, 2, 1), "identity", relu)
    with pytest.raises(ValueError):
        lambda0_regression(np.array([[1.0], [0.0]]), np.eye(2), shape)


def test_oracle_never_exceeds_and_approaches_closed_form():
    rng = np.random.default_rng(3)
    for n_layers in (2, 3):
        shape, _, dataset = random_instance(rng, n_layers=n_layers)
        closed = lambda0(dataset, shape)
        got = lambda0_oracle(dataset, shape, restarts=50, seed=7)
        assert got <= closed + 1e-8
        assert got >= 0.99 * closed


@pytest.mark.parametrize("link, m", [("identity", 1), ("softmax", 3), ("logit", 2), ("logit", 3)])
def test_lambda0_is_the_sup_of_the_two_layer_null_gradient(link, m):
    # At theta1 = 0 and the null intercept, the W1 gradient of a two-layer network is
    # linear in the unit rows of W2, and row k can put its whole weight on one hidden
    # unit, so the sup of |W1 gradient| is max_j sum_k |G[k, j]|, G the gradient with
    # row k of W2 on unit k.  The logit link's last class has no free logit: its G row is 0.
    rng = np.random.default_rng(21)
    n, p1, p2 = 60, 5, 4
    X = rng.standard_normal((n, p1))
    if link == "identity":
        dataset = Dataset(X=X, Y=rng.standard_normal((n, 1)), task="regression")
    else:
        dataset = Dataset(X=X, Y=np.eye(m)[np.arange(n) % m][rng.permutation(n)],
                          task="classification")
    shape = NetworkShape.make((p1, p2, m), link)
    theta = init_theta(shape, SolverConfig(), rng, dataset)
    theta.theta1[...] = 0.0

    def sup_grad_w1(W2):
        theta.deep[0][...] = W2
        return np.abs(loss_and_grad(shape, theta, dataset, dataset.loss_kind)[1].W1).max()

    theta.deep[0][...] = np.eye(m, p2)
    G = loss_and_grad(shape, theta, dataset, dataset.loss_kind)[1].W1[:m]
    j = np.abs(G).sum(axis=0).argmax()
    sup = sup_grad_w1(np.outer(np.where(G[:, j] < 0, -1.0, 1.0), np.eye(p2)[0]))
    assert sup == pytest.approx(np.abs(G).sum(axis=0).max(), rel=1e-12)
    assert all(sup_grad_w1(rng.standard_normal((m, p2))) <= sup * (1 + 1e-12)
               for _ in range(200))
    assert lambda0(dataset, shape) == pytest.approx(sup, rel=1e-10)


def test_sampler_regression_reproducible_and_centered():
    a = sample_null_regression(100, np.random.default_rng(5))
    b = sample_null_regression(100, np.random.default_rng(5))
    assert np.array_equal(a, b)
    big = sample_null_regression(10**5, np.random.default_rng(6))
    assert abs(big.mean()) < 0.02


def test_sampler_classification():
    rng = np.random.default_rng(7)
    Y = sample_null_classification(10, np.array([1.0, 0.0]), rng)
    assert np.array_equal(Y, np.tile([1.0, 0.0], (10, 1)))
    Y = sample_null_classification(10**4, np.array([0.5, 0.5]), np.random.default_rng(8))
    assert abs(Y[:, 0].sum() - 5000) < 150  # 3 sigma
    big = sample_null_classification(
        10**5, np.array([0.2, 0.5, 0.3]), np.random.default_rng(9)
    )
    assert np.allclose(big.mean(axis=0), [0.2, 0.5, 0.3], atol=0.02)
    with pytest.raises(DataError):
        sample_null_classification(5, np.array([0.7, 0.7]), rng)


def _small_regression(seed=10, n=15, p=4):
    rng = np.random.default_rng(seed)
    return Dataset(
        X=rng.standard_normal((n, p)),
        Y=rng.standard_normal((n, 1)),
        task="regression",
    )


def test_qut_median_at_half_alpha():
    dataset = _small_regression()
    shape = NetworkShape.make((4, 3, 1), "identity")
    res = compute_qut(dataset, shape, QutConfig(alpha=0.5, mc_samples=100, seed=0))
    # order statistic ceil(0.5 * 100) = 50 of the sorted sample
    assert res.lambda_qut == res.lambda_samples[49]


def test_qut_deterministic_and_sorted():
    dataset = _small_regression()
    shape = NetworkShape.make((4, 3, 1), "identity")
    cfg = QutConfig(alpha=0.05, mc_samples=120, seed=42)
    a = compute_qut(dataset, shape, cfg)
    b = compute_qut(dataset, shape, cfg)
    assert a.lambda_qut == b.lambda_qut
    assert np.array_equal(a.lambda_samples, b.lambda_samples)
    assert np.all(np.diff(a.lambda_samples) >= 0)
    assert a.lambda_qut >= np.median(a.lambda_samples)


def test_qut_scales_linearly_with_inputs():
    dataset = _small_regression()
    shape = NetworkShape.make((4, 3, 1), "identity")
    cfg = QutConfig(alpha=0.05, mc_samples=100, seed=3)
    base = compute_qut(dataset, shape, cfg)
    doubled = compute_qut(
        Dataset(X=2.0 * dataset.X, Y=dataset.Y, task="regression"), shape, cfg
    )
    assert np.allclose(doubled.lambda_samples, 2.0 * base.lambda_samples, rtol=1e-12)
    assert doubled.lambda_qut == pytest.approx(2.0 * base.lambda_qut, rel=1e-12)


def test_qut_classification_path():
    rng = np.random.default_rng(11)
    idx = rng.integers(0, 2, size=30)
    Y = np.zeros((30, 2))
    Y[np.arange(30), idx] = 1.0
    dataset = Dataset(X=rng.standard_normal((30, 5)), Y=Y, task="classification")
    shape = NetworkShape.make((5, 3, 2), "softmax")
    res = compute_qut(dataset, shape, QutConfig(mc_samples=150, seed=1))
    assert res.task == "classification"
    assert res.lambda_qut > 0


def test_qut_config_validation():
    with pytest.raises(ValueError):
        QutConfig(alpha=0.0)
    with pytest.raises(ValueError):
        QutConfig(alpha=1.0)
    with pytest.raises(ValueError):
        QutConfig(mc_samples=99)


def _per_draw_reference(dataset, shape, config):
    """Sorted lambda0 samples evaluated one null draw at a time.

    Each draw comes from its own stream default_rng([seed, i]) and costs one
    X' Yc product, as in the unbatched Monte-Carlo loop.
    """
    X, n = dataset.X, dataset.n
    scale = np.sqrt(np.prod(shape.widths[2:-1]))
    for spec in shape.activations:
        scale *= act_deriv(spec, 0.0)
    p_hat = dataset.Y.mean(axis=0)
    samples = np.empty(config.mc_samples)
    for i in range(config.mc_samples):
        rng = np.random.default_rng([config.seed, i])
        if dataset.task == "regression":
            Y0 = sample_null_regression(n, rng)
            Yc = Y0 - Y0.mean(axis=0)
            samples[i] = scale * np.max(np.abs(X.T @ Yc)) / np.linalg.norm(Yc)
        else:
            Y0 = sample_null_classification(n, p_hat, rng)
            Yc = Y0 - Y0.mean(axis=0)
            samples[i] = scale * np.abs(X.T @ Yc).sum(axis=1).max()
    return np.sort(samples)


def _null_dataset(task, n, p1, seed=12):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p1))
    if task == "regression":
        return Dataset(X=X, Y=rng.standard_normal((n, 1)), task=task)
    Y = np.eye(3)[rng.choice(3, size=n, p=[0.5, 0.3, 0.2])]
    return Dataset(X=X, Y=Y, task=task)


@pytest.mark.parametrize("task", ["regression", "classification"])
@pytest.mark.parametrize("mc_samples", [101, 257])
def test_qut_blocks_match_per_draw_loop(task, mc_samples):
    # n and p1 split the draws into several blocks with a partial last one
    n, p1 = 5000, 20
    dataset = _null_dataset(task, n, p1)
    per_block = qut_module._draws_per_block(n, p1, dataset.n_outputs)
    assert 1 < per_block < mc_samples and mc_samples % per_block != 0
    link = "identity" if task == "regression" else "softmax"
    shape = NetworkShape.make((p1, 4, 3, dataset.n_outputs), link)  # width factor sqrt(3)
    config = QutConfig(mc_samples=mc_samples, seed=9)
    got = compute_qut(dataset, shape, config)
    want = _per_draw_reference(dataset, shape, config)
    assert np.allclose(got.lambda_samples, want, rtol=1e-12, atol=0.0)
    rank = int(np.ceil((1.0 - config.alpha) * mc_samples))
    assert got.lambda_qut == got.lambda_samples[rank - 1]


def test_qut_block_of_one_draw_matches_per_draw_loop():
    # a single draw already exceeds the block budget, so every block holds one
    n, p1 = qut_module._BLOCK_ENTRIES + 1, 3
    assert qut_module._draws_per_block(n, p1, 1) == 1
    dataset = _null_dataset("regression", n, p1)
    shape = NetworkShape.make((p1, 2, 1), "identity")
    config = QutConfig(mc_samples=100, seed=4)
    got = compute_qut(dataset, shape, config)
    want = _per_draw_reference(dataset, shape, config)
    assert np.allclose(got.lambda_samples, want, rtol=1e-12, atol=0.0)


def test_lambda0_does_not_change_its_input():
    dataset = _null_dataset("regression", 30, 4)
    Y = dataset.Y.copy()
    lambda0_regression(dataset.Y, dataset.X, NetworkShape.make((4, 3, 1), "identity"))
    assert np.array_equal(dataset.Y, Y)


@pytest.mark.parametrize("seed", [-1, 1.5, "x", True, None])
def test_configs_reject_bad_seeds(seed):
    with pytest.raises(ValueError, match="seed"):
        QutConfig(seed=seed)
    with pytest.raises(ValueError, match="seed"):
        SolverConfig(seed=seed)
    with pytest.raises(ConfigError, match="seed"):
        SimConfig.linear(seed=seed)


@pytest.mark.parametrize("task, widths, link", [
    ("regression", (9, 3, 1), "identity"),  # 9 inputs for 4 feature columns
    ("classification", (4, 3, 2), "logit"),  # 2 outputs for 3 classes
])
def test_threshold_refuses_widths_that_miss_the_data(task, widths, link, monkeypatch):
    # both used to return a plausible threshold
    dataset = _null_dataset(task, 30, 4)
    shape = NetworkShape.make(widths, link)
    want = (f"the network maps {widths[0]} inputs to {widths[-1]} outputs, the data have "
            f"4 feature columns and {dataset.n_outputs} response columns")

    def no_draw(*args):
        raise AssertionError("the widths are checked before any draw")

    monkeypatch.setattr(qut_module, f"sample_null_{task}", no_draw)
    with pytest.raises(ValueError, match=want):
        compute_qut(dataset, shape, QutConfig(mc_samples=100))
    lambda0_one = lambda0_regression if task == "regression" else lambda0_classification
    with pytest.raises(ValueError, match=want):
        lambda0_one(dataset.Y, dataset.X, shape)
