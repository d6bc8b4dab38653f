"""Tests for the annealed warm-start schedule and its backtracking last level."""

import warnings

import numpy as np
import pytest
from fd_utils import random_instance

from sparseann import (
    ActivationSpec,
    Dataset,
    FitResult,
    NetworkShape,
    NumericalError,
    QutConfig,
    SimConfig,
    SolverConfig,
    compute_qut,
    estimated_support,
    fit,
    forward,
    gen_linear,
    init_theta,
    lambda0,
    lambda_schedule,
    objective_value,
    solver,
)
from sparseann.network import loss_and_grad

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
    # six fixed-step levels, then the backtracking level at lambda itself
    assert len(result.objective_trace) == len(result.stage_lambdas) == 7


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
    cfg = SolverConfig(descent_epochs=300, prox_max_iter=2000, seed=0)
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


def _kkt_residual(shape, dataset, theta, lam):
    """Largest first-order optimality residual, computed apart from the solver:
    |g + lam sign(w)| on nonzero penalized entries, max(|g| - lam, 0) on zero
    ones, and |g| on the free ones."""
    _, grad = loss_and_grad(shape, theta, dataset, dataset.loss_kind)
    w, g = theta.theta1, grad.theta1
    penalized = np.where(w != 0.0, np.abs(g + lam * np.sign(w)),
                         np.maximum(np.abs(g) - lam, 0.0))
    return max(penalized.max(initial=0.0), np.abs(grad.theta2).max(initial=0.0))


def test_fits_stopped_by_the_rule_meet_the_kkt_certificate():
    stopped = 0
    for seed in range(3):
        for n_layers, link, m in ((2, "identity", 1), (3, "identity", 1), (2, "softmax", 3)):
            shape, _, dataset = random_instance(np.random.default_rng([20, seed]), n_layers,
                                                link, m=m, n=30)
            for frac in (0.3, 0.7):
                lam = frac * lambda0(dataset, shape)
                result = fit(shape, dataset, lam, FAST)
                if len(result.objective_trace[-1]) - 1 < FAST.prox_max_iter:
                    stopped += 1
                    kkt = _kkt_residual(shape, dataset, result.theta, lam)
                    assert kkt <= 2 * solver.STAGE_TOL * lam
    assert stopped >= 9  # of 18


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
    with pytest.raises(TypeError):  # removed key: the last level stops by STAGE_TOL
        SolverConfig(prox_tol=1e-8)
    with pytest.raises(ValueError):
        SolverConfig(init_scale=-1.0)


def test_diverging_fit_raises_numerical_error_without_warnings():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((50, 10))
    dataset = Dataset(X=X, Y=X[:, :1] + rng.standard_normal((50, 1)), task="regression")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="diverged in descent stage 0"):
            fit(NetworkShape.make((10, 5, 1)), dataset, 1.0,
                SolverConfig(lr_descent=1e300, descent_epochs=50))


def test_reusing_the_accepted_trial_forward_pass_changes_no_bit(monkeypatch):
    rng = np.random.default_rng(4)
    shape, _, dataset = random_instance(rng, n_layers=3, n=30)
    lam = 0.5 * lambda0(dataset, shape)
    reused = fit(shape, dataset, lam, FAST)
    handed = []

    def recomputing(shape, theta, dataset, loss_kind, forward_pass=None, out=None):
        handed.append(forward_pass is not None)
        return loss_and_grad(shape, theta, dataset, loss_kind, out=out)

    monkeypatch.setattr(solver, "loss_and_grad", recomputing)
    again = fit(shape, dataset, lam, FAST)
    # only the descent stages and the last level's first gradient run their own forward pass
    assert handed.count(False) == sum(map(len, again.objective_trace[:-1])) + 1
    assert any(handed)
    assert np.array_equal(again.theta.flat, reused.theta.flat)
    assert again.objective_trace == reused.objective_trace


def _linear_sweep_instance(s, rep, p1=50, seed=500):
    """Data, lambda_qut and solver config of one linear ``run_sweep`` repetition
    (seed 500 and s=0 are acceptance criterion 5's sweep)."""
    sim = SimConfig.linear(n=100, p1=p1, s_values=(s,), repetitions=rep + 1, seed=seed)
    shape = NetworkShape.make((p1, 20, 1), "identity", ActivationSpec(20.0, 1.0, 1.0))
    rng = np.random.default_rng([seed, s, rep])
    sub_seed = int(rng.integers(2**63))
    dataset, _, _ = gen_linear(sim, s, rng)
    lam = compute_qut(dataset, shape, QutConfig(alpha=0.05, seed=sub_seed)).lambda_qut
    return shape, dataset, lam, SolverConfig(seed=sub_seed)


def test_near_threshold_support_does_not_hang_on_the_last_bit_of_lambda():
    shape, dataset, lam, cfg = _linear_sweep_instance(0, 55)
    supports = [fit(shape, dataset, lam * f, cfg).support
                for f in (1 - 1e-15, 1.0, 1 + 1e-15)]
    assert supports[0] == supports[1] == supports[2]


def test_null_fit_descent_stages_stop_early():
    shape, dataset, lam, cfg = _linear_sweep_instance(0, 55)
    result = fit(shape, dataset, lam, cfg)
    descent = result.objective_trace[:-1]
    assert len(descent) == 6
    assert sum(map(len, descent)) < 0.5 * 6 * cfg.descent_epochs


@pytest.mark.parametrize("s", [0, 4])
def test_fitted_theta_holds_no_subnormal(s):
    # with s=4 one hidden unit stays alive, and without the flush the outgoing
    # weights of the 19 dead units decay to ~1e-323
    shape, dataset, lam, cfg = _linear_sweep_instance(s, 0)
    result = fit(shape, dataset, lam, cfg)
    dead_rows = int(np.sum(~np.any(result.theta.W1 != 0.0, axis=1)))
    assert dead_rows == (20 if s == 0 else 19)
    flat = result.theta.flat
    assert np.all((flat == 0.0) | (np.abs(flat) >= np.finfo(float).tiny))
