"""Tests for the annealed warm-start schedule and its backtracking last level."""

import hashlib
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from fd_utils import random_instance
from hypothesis import given, settings
from hypothesis import strategies as st
from theory import lambda0, objective_value

from sparseann import (
    ActivationSpec,
    Dataset,
    NetworkShape,
    NumericalError,
    QutConfig,
    SimConfig,
    SolverConfig,
    Theta,
    compute_qut,
    estimated_support,
    fit,
    forward,
    gen_absdiff,
    gen_linear,
    init_theta,
    lambda_schedule,
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


@pytest.mark.parametrize("widths, digest", [
    ((200, 20, 1), "fae8db71efe8fe8e488bf4ab72b5970fa3bb1c9a5f078b1b87c70be1917d1cb1"),
    ((10, 8, 4, 1), "ffb074af2e95d565575561b103ea55527b2d19b8a173125d231f4eda4971048f"),
])
def test_init_theta_start_point_is_pinned(widths, digest):
    # a support can depend on the start point: these bytes must not drift
    theta = init_theta(NetworkShape.make(widths), SolverConfig(), np.random.default_rng(0))
    assert hashlib.sha256(theta.flat.tobytes()).hexdigest() == digest


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
    # a cold start keeps the schedule and leaves the six fixed-step levels empty
    cold = fit(shape, dataset, 2.0, replace(FAST, descent_epochs=0))
    assert cold.stage_lambdas == lambda_schedule(2.0)
    assert [len(t) for t in cold.objective_trace[:-1]] == [0] * 6
    assert len(cold.objective_trace[-1]) >= 2


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
        warm = fit(shape, dataset, lam, cfg)
        cold = fit(shape, dataset, lam, replace(cfg, descent_epochs=0))
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


_STOP_SHAPE = NetworkShape.make((2, 1, 1))  # 3 penalized and 2 free entries
_STOP_ENTRIES = st.lists(st.floats(-2.0, 2.0), min_size=5, max_size=5)


@settings(max_examples=300, deadline=None)
@given(lam=st.floats(0.0, 1e3),
       w=st.lists(st.sampled_from([0.0, 0.0, 0.7, -1.5]), min_size=5, max_size=5),
       near=st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=5, max_size=5),
       off=_STOP_ENTRIES)
def test_level_stop_test_is_the_kkt_rule(lam, w, near, off):
    # gradient entries near -lam, 0 and lam, off by up to twice the tolerance, so
    # that each entry's residual falls on either side of it
    theta = Theta.from_flat(_STOP_SHAPE, np.array(w))
    grad = Theta.from_flat(_STOP_SHAPE, lam * (np.array(near) + solver.STAGE_TOL * np.array(off)))
    rule = solver._kkt_residual(theta, grad, lam) <= solver.STAGE_TOL * lam
    assert solver._level_done(theta, grad, lam) == rule


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
    saved = json.loads(json.dumps(result.to_dict(shape)))
    theta = Theta.from_dict(saved["theta"])
    assert NetworkShape.from_dict(saved["shape"]) == shape
    assert estimated_support(theta) == saved["support"] == result.support
    assert saved["lambda_used"] == result.lambda_used
    assert np.array_equal(theta.flat, result.theta.flat)
    X_new = np.random.default_rng(0).standard_normal((5, shape.n_inputs))
    assert np.array_equal(forward(shape, theta, X_new), forward(shape, result.theta, X_new))


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
    with pytest.raises(TypeError):  # removed key: the last level stops by STAGE_TOL
        SolverConfig(prox_tol=1e-8)
    with pytest.raises(TypeError):  # removed key: the fixed step is LR_DESCENT
        SolverConfig(lr_descent=1e-2)
    with pytest.raises(ValueError):
        SolverConfig(init_scale=-1.0)


@pytest.mark.parametrize("widths", [(5, 3, 1), (4, 3, 2)])
def test_fit_refuses_widths_that_miss_the_data(widths):
    # a wrong input width used to surface as a divergence in descent stage 0
    rng = np.random.default_rng(0)
    dataset = Dataset(X=rng.standard_normal((30, 4)), Y=rng.standard_normal((30, 1)),
                      task="regression")
    with pytest.raises(ValueError, match="4 feature columns and 1 response columns"):
        fit(NetworkShape.make(widths), dataset, 1.0, FAST)


def test_diverging_fit_raises_numerical_error_without_warnings(monkeypatch):
    rng = np.random.default_rng(3)
    X = rng.standard_normal((50, 10))
    dataset = Dataset(X=X, Y=X[:, :1] + rng.standard_normal((50, 1)), task="regression")
    monkeypatch.setattr(solver, "LR_DESCENT", 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="diverged in descent stage 0"):
            fit(NetworkShape.make((10, 5, 1)), dataset, 1.0, SolverConfig(descent_epochs=50))


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
    # only the fit's first gradient and the fixed-step levels' gradients run their own forward pass
    assert handed.count(False) == sum(map(len, again.objective_trace[:-1])) + 1
    assert any(handed)
    assert np.array_equal(again.theta.flat, reused.theta.flat)
    assert again.objective_trace == reused.objective_trace


def test_a_stuck_last_level_records_only_the_steps_it_took(monkeypatch):
    rng = np.random.default_rng(6)
    shape, _, dataset = random_instance(rng, n_layers=2, n=30)
    lam = 0.8 * lambda0(dataset, shape)
    capped = fit(shape, dataset, lam, replace(FAST, prox_max_iter=2))
    backtrack, calls = solver._backtrack, []

    def stuck_on_the_third_call(*args):
        calls.append(args)
        return (0.0, None) if len(calls) == 3 else backtrack(*args)

    monkeypatch.setattr(solver, "_backtrack", stuck_on_the_third_call)
    stuck = fit(shape, dataset, lam, FAST)
    assert len(calls) == 3
    # two steps taken: the same fit as one capped at two steps
    assert len(stuck.objective_trace[-1]) == 3
    assert stuck.objective_trace == capped.objective_trace
    assert np.array_equal(stuck.theta.flat, capped.theta.flat)


def _sweep_instance(sim, s, rep):
    """Data, lambda_qut and solver config of repetition ``rep`` at sparsity ``s``
    of ``run_sweep(sim, ...)``, drawn from the streams that ``run_sweep`` uses."""
    shape = NetworkShape.make((sim.p1, 20, 1), "identity", ActivationSpec(20.0, 1.0, 1.0))
    rng = np.random.default_rng([sim.seed, s, rep])
    sub_seed = int(rng.integers(2**63))
    gen = gen_linear if sim.kind == "linear" else gen_absdiff
    dataset, _, _ = gen(sim, s, rng)
    lam = compute_qut(dataset, shape, QutConfig(alpha=0.05, seed=sub_seed)).lambda_qut
    return shape, dataset, lam, SolverConfig(seed=sub_seed)


def _linear_sweep_instance(s, rep):
    """``_sweep_instance`` of a linear sweep at criterion 5's seed 500 and p1=50
    (criterion 5 itself is s=0)."""
    return _sweep_instance(SimConfig.linear(n=100, p1=50, s_values=(s,), seed=500), s, rep)


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


@pytest.mark.slow
@pytest.mark.parametrize("seed, rep", [(701, 0), (701, 3), (701, 5), (702, 1)])
def test_absdiff_fit_that_reached_the_step_cap_converges(seed, rep):
    # run_sweep(SimConfig.absdiff(s_values=(2,), seed=seed), ...) repetition rep.
    # While the last level's step could only halve, 701/0 ran all prox_max_iter =
    # 2000 steps and stopped at a KKT residual of 1.06e-2 * lambda.  Once the step
    # could double, a stop rule on the step's prox-gradient mapping ended the
    # other three at 2.2e-3, 2.8e-3 and 3.0e-3 * lambda.
    shape, dataset, lam, cfg = _sweep_instance(SimConfig.absdiff(s_values=(2,), seed=seed), 2, rep)
    result = fit(shape, dataset, lam, cfg)
    assert len(result.objective_trace[-1]) - 1 < cfg.prox_max_iter
    assert result.support == [0, 1]
    assert _kkt_residual(shape, dataset, result.theta, lam) <= 2 * solver.STAGE_TOL * lam


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
