"""Tests for the annealed warm-start schedule and the proximal refinement."""

import numpy as np
import pytest
from fd_utils import random_instance

from sparseann import (
    Dataset,
    FitResult,
    NetworkShape,
    SolverConfig,
    estimated_support,
    fit,
    forward,
    init_theta,
    lambda0,
    lambda_schedule,
    objective_value,
)

FAST = SolverConfig(descent_epochs=150, prox_max_iter=500)


def test_schedule_values():
    sched = lambda_schedule(1.0)
    assert len(sched) == 7
    assert sched[0] == pytest.approx(np.exp(-1) / (1 + np.exp(-1)), abs=1e-5)
    assert sched[0] == pytest.approx(0.26894, abs=1e-5)
    assert sched[5] == pytest.approx(0.98201, abs=1e-5)
    assert sched[6] == 1.0
    assert all(a < b for a, b in zip(sched, sched[1:]))
    assert lambda_schedule(0.0) == [0.0] * 7
    with pytest.raises(ValueError):
        lambda_schedule(-1.0)


def test_init_theta_reproducible_unit_rows():
    rng = np.random.default_rng(0)
    shape, _, dataset = random_instance(rng, n_layers=3)
    cfg = SolverConfig(seed=5)
    a = init_theta(shape, cfg, np.random.default_rng(5), dataset)
    b = init_theta(shape, cfg, np.random.default_rng(5), dataset)
    assert np.array_equal(a.flat, b.flat)
    for W in a.deep:
        assert np.allclose(np.linalg.norm(W, axis=1), 1.0)
    assert np.allclose(a.c, dataset.Y.mean(axis=0))


def test_init_scale_zero_gives_constant_model():
    rng = np.random.default_rng(1)
    shape, _, dataset = random_instance(rng, n_layers=2)
    theta = init_theta(
        shape, SolverConfig(init_scale=0.0), np.random.default_rng(0), dataset
    )
    assert np.all(theta.W1 == 0.0)
    mu = forward(shape, theta, dataset.X)
    assert np.all(mu == mu[0])


def test_huge_penalty_returns_exact_null():
    rng = np.random.default_rng(2)
    shape, _, dataset = random_instance(rng, n_layers=2, n=20)
    result = fit(shape, dataset, 1e9, FAST)
    assert result.support == []
    assert np.all(result.theta.W1 == 0.0)
    assert all(np.all(b == 0.0) for b in result.theta.biases)
    mu = forward(shape, result.theta, dataset.X)
    assert np.all(mu == mu[0])


def test_penalty_just_above_threshold_returns_null():
    rng = np.random.default_rng(3)
    shape, _, dataset = random_instance(rng, n_layers=2, n=20)
    lam = 1.05 * lambda0(dataset, shape)
    result = fit(shape, dataset, lam, FAST)
    assert result.support == []


def test_zero_penalty_fits_everything():
    rng = np.random.default_rng(4)
    shape, _, dataset = random_instance(rng, n_layers=2, n=30)
    result = fit(shape, dataset, 0.0, FAST)
    assert result.support == list(range(shape.n_inputs))
    fitted = objective_value(shape, result.theta, dataset, 0.0)
    constant = float(np.linalg.norm(dataset.Y - dataset.Y.mean(axis=0)))
    assert fitted < constant


def test_no_numerical_dust_in_first_layer():
    rng = np.random.default_rng(5)
    shape, _, dataset = random_instance(rng, n_layers=2, n=30)
    lam = 0.5 * lambda0(dataset, shape)
    result = fit(shape, dataset, lam, FAST)
    nz = np.abs(result.theta.W1[result.theta.W1 != 0.0])
    if nz.size:
        assert nz.min() > 1e-300


def test_proximal_trace_nonincreasing():
    rng = np.random.default_rng(6)
    shape, _, dataset = random_instance(rng, n_layers=2, n=30)
    lam = 0.8 * lambda0(dataset, shape)
    result = fit(shape, dataset, lam, FAST)
    prox_trace = result.objective_trace[-1]
    diffs = np.diff(prox_trace)
    assert np.all(diffs <= 1e-9)
    assert prox_trace[-1] <= prox_trace[0] + 1e-9


def test_stage_lambdas_recorded():
    rng = np.random.default_rng(7)
    shape, _, dataset = random_instance(rng, n_layers=2, n=20)
    result = fit(shape, dataset, 2.0, FAST)
    assert result.stage_lambdas == lambda_schedule(2.0)
    assert result.lambda_used == 2.0
    assert len(result.objective_trace) == len(result.stage_lambdas) + 1


def test_fit_deterministic_given_seed():
    rng = np.random.default_rng(8)
    shape, _, dataset = random_instance(rng, n_layers=2, n=25)
    cfg = SolverConfig(descent_epochs=100, prox_max_iter=300, seed=11)
    a = fit(shape, dataset, 1.0, cfg)
    b = fit(shape, dataset, 1.0, cfg)
    assert np.array_equal(a.theta.flat, b.theta.flat)
    assert a.support == b.support


def test_warm_start_usually_dominates_cold_start():
    wins = 0
    trials = 20
    cfg = SolverConfig(descent_epochs=300, prox_max_iter=2000, prox_tol=1e-10, seed=0)
    for t in range(trials):
        inst_rng = np.random.default_rng([100, t])
        shape, _, dataset = random_instance(inst_rng, n_layers=2, n=30)
        lam = 0.9 * lambda0(dataset, shape)
        warm = fit(shape, dataset, lam, cfg, anneal=True)
        cold = fit(shape, dataset, lam, cfg, anneal=False)
        if objective_value(shape, warm.theta, dataset, lam) <= objective_value(
            shape, cold.theta, dataset, lam
        ) + 1e-8:
            wins += 1
    assert wins >= 0.8 * trials


def test_estimated_support_column_rule():
    shape = NetworkShape.make((4, 2, 1), "identity")
    from sparseann import Theta

    theta = Theta.zeros(shape)
    theta.W1[0, 1] = 0.3
    theta.W1[1, 3] = -0.1
    assert estimated_support(theta) == [1, 3]


def test_fit_result_serialization_round_trip():
    rng = np.random.default_rng(10)
    shape, _, dataset = random_instance(rng, n_layers=2, n=20)
    result = fit(shape, dataset, 1.0, FAST)
    shape2, again = FitResult.from_dict(result.to_dict(shape))
    assert shape2 == shape
    assert again.support == result.support
    assert again.lambda_used == result.lambda_used
    assert np.array_equal(again.theta.flat, result.theta.flat)
    X_new = np.random.default_rng(0).standard_normal((5, shape.n_inputs))
    assert np.array_equal(
        forward(shape, again.theta, X_new), forward(shape, result.theta, X_new)
    )


def test_classification_fit_runs():
    rng = np.random.default_rng(12)
    shape, _, dataset = random_instance(
        rng, n_layers=2, link="softmax", loss_kind="cross_entropy", m=2, n=40
    )
    result = fit(shape, dataset, 1e9, FAST)
    assert result.support == []
    mu = forward(shape, result.theta, dataset.X)
    # intercept starts at log p-hat, so the constant model sits near the
    # class rates (up to intercept drift during the descent stages)
    assert np.allclose(mu[0], dataset.Y.mean(axis=0), atol=1e-3)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(lr_descent=0.0)
    with pytest.raises(ValueError):
        SolverConfig(prox_tol=1.5)
    with pytest.raises(ValueError):
        SolverConfig(init_scale=-1.0)
