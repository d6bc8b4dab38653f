"""Tests for the generators, exact constructions, metrics and the sweep."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from theory import exact_absdiff_network, exact_linear_network

from sparseann import (
    ActivationSpec,
    ConfigError,
    NetworkShape,
    NumericalError,
    QutConfig,
    SimConfig,
    SolverConfig,
    forward,
    gen_absdiff,
    gen_linear,
    metrics,
    run_sweep,
    simulate,
    solver,
)
from sparseann.cli import _emit


def test_sim_config_defaults_and_validation():
    lin = SimConfig.linear()
    assert (lin.n, lin.p1, lin.coef) == (100, 200, 3.0)
    ab = SimConfig.absdiff()
    assert (ab.n, ab.p1, ab.coef) == (500, 50, 10.0)
    with pytest.raises(ConfigError):
        SimConfig.absdiff(s_values=(3,))
    with pytest.raises(ConfigError):
        SimConfig.linear(p1=5, s_values=(6,))
    with pytest.raises(ConfigError):
        SimConfig("spiral", 10, 5, (0,))


def test_gen_linear_null_and_noiseless():
    cfg = SimConfig.linear(n=30, p1=10)
    ds, S, mu = gen_linear(cfg, 0, np.random.default_rng(0))
    assert S == []
    assert np.allclose(mu(ds.X), 0.0)
    cfg0 = SimConfig.linear(n=30, p1=10, noise_sd=0.0)
    ds, S, mu = gen_linear(cfg0, 1, np.random.default_rng(1))
    assert len(S) == 1
    assert np.allclose(ds.Y[:, 0] / 3.0, ds.X[:, S[0]])


def test_gen_linear_deterministic():
    cfg = SimConfig.linear(n=20, p1=8)
    a = gen_linear(cfg, 2, np.random.default_rng(7))
    b = gen_linear(cfg, 2, np.random.default_rng(7))
    assert np.array_equal(a[0].X, b[0].X)
    assert np.array_equal(a[0].Y, b[0].Y)
    assert a[1] == b[1]


def test_gen_absdiff_hand_value():
    cfg = SimConfig.absdiff(n=10, p1=6)
    _, S, mu = gen_absdiff(cfg, 2, np.random.default_rng(2))
    assert S == [0, 1]
    x = np.zeros((1, 6))
    x[0, 0], x[0, 1] = 1.0, 4.0
    assert mu(x)[0, 0] == pytest.approx(30.0)
    # h = 0 is the constant-zero signal
    _, S0, mu0 = gen_absdiff(cfg, 0, np.random.default_rng(3))
    assert S0 == []
    assert np.allclose(mu0(np.random.default_rng(4).standard_normal((5, 6))), 0.0)


def test_exact_absdiff_network_relu_limit_exact():
    h, p1, p2, amp = 2, 8, 10, 10.0
    shape, theta = exact_absdiff_network(h, p1, p2, amp)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((100, p1))
    want = np.zeros((100, 1))
    for i in range(h):
        want[:, 0] += amp * np.abs(X[:, 2 * i + 1] - X[:, 2 * i])
    got = forward(shape, theta, X)
    assert np.max(np.abs(got - want)) <= 1e-9


def test_exact_absdiff_network_h_zero_constant():
    shape, theta = exact_absdiff_network(0, 4, 6)
    out = forward(shape, theta, np.random.default_rng(6).standard_normal((20, 4)))
    assert np.allclose(out, 0.0)


def test_exact_absdiff_network_smooth_error_bound():
    # with sharpness M the softplus error per neuron is at most log 2 / M
    h, p1, p2, M = 1, 4, 6, 20.0
    shape, theta = exact_absdiff_network(
        h, p1, p2, amp=10.0, activation=ActivationSpec(M, 1.0, 1.0)
    )
    rng = np.random.default_rng(7)
    X = rng.uniform(-1.5, 1.5, size=(200, p1))
    want = 10.0 * np.abs(X[:, 1] - X[:, 0])[:, None]
    got = forward(shape, theta, X)
    # 2h neurons, each scaled by amp, plus the matching intercept shift
    bound = 4 * h * 10.0 * math.log(2.0) / M
    assert np.max(np.abs(got - want)) <= bound


def test_exact_absdiff_network_capacity_check():
    with pytest.raises(ConfigError):
        exact_absdiff_network(3, 8, 4)


def test_exact_linear_network_property():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((15, 5))
    beta = rng.standard_normal(5)
    beta0 = 0.7
    shape, theta = exact_linear_network(X, beta, beta0)
    got = forward(shape, theta, X)
    want = (beta0 + X @ beta)[:, None]
    assert np.max(np.abs(got - want)) <= 1e-9
    # convex combinations of training points stay in the linear region
    w = rng.dirichlet(np.ones(15), size=20)
    Xc = w @ X
    assert np.max(np.abs(forward(shape, theta, Xc) - (beta0 + Xc @ beta)[:, None])) <= 1e-9


def test_metrics_examples():
    assert metrics([0, 1], [0, 1]) == (1.0, 0.0, True, None)
    tpr, fdr, exact, pe = metrics([0, 1], [0, 2])
    assert (tpr, fdr, exact, pe) == (0.5, 0.5, False, None)
    assert metrics([], []) == (None, 0.0, True, None)
    tpr, fdr, exact, _ = metrics([], [3])
    assert (tpr, fdr, exact) == (None, 1.0, False)


def test_metrics_pe_against_true_association():
    X_test = np.random.default_rng(9).standard_normal((50, 3))
    mu_true = lambda X: np.zeros((X.shape[0], 1))
    mu_hat = lambda X: np.ones((X.shape[0], 1))
    _, _, _, pe = metrics([], [], mu_true, mu_hat, X_test)
    assert pe == pytest.approx(1.0)


@settings(max_examples=100, deadline=None)
@given(
    s_true=st.sets(st.integers(0, 9), max_size=6),
    s_est=st.sets(st.integers(0, 9), min_size=1, max_size=6),
)
def test_metrics_fdr_precision_identity(s_true, s_est):
    _, fdr, _, _ = metrics(sorted(s_true), sorted(s_est))
    precision = len(s_true & s_est) / len(s_est)
    assert precision + fdr == pytest.approx(1.0)


def test_constant_predictor_pe_matches_signal_sd():
    cfg = SimConfig.absdiff(n=2000, p1=10)
    ds, _, mu = gen_absdiff(cfg, 4, np.random.default_rng(10))
    vals = mu(ds.X)[:, 0]
    const = vals.mean()
    pe = float(np.sqrt(np.mean((vals - const) ** 2)))
    assert pe == pytest.approx(float(vals.std()), rel=1e-9)


def _tiny_sweep(seed=13):
    sim = SimConfig.linear(n=25, p1=6, s_values=(0, 1), repetitions=2, seed=seed)
    shape = NetworkShape.make((6, 4, 1), "identity")
    qut = QutConfig(mc_samples=100)
    solver = SolverConfig(descent_epochs=80, prox_max_iter=200)
    return run_sweep(sim, shape, qut, solver)


def test_run_sweep_deterministic():
    a = _tiny_sweep()
    b = _tiny_sweep()
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
    assert len(a.rows) == 4
    for agg in a.aggregates():
        assert agg["repetitions"] + agg["failed"] == 2


@pytest.mark.filterwarnings("ignore:overflow")
def test_run_sweep_records_failures(monkeypatch):
    # an absurd learning rate makes the iterates blow up; the divergence is
    # recorded as a failed repetition, not dropped and not raised
    monkeypatch.setattr(solver, "LR_DESCENT", 1e300)
    sim = SimConfig.linear(n=10, p1=4, s_values=(1,), repetitions=2, seed=1)
    shape = NetworkShape.make((4, 3, 1), "identity")
    config = SolverConfig(descent_epochs=20, prox_max_iter=50)
    report = run_sweep(sim, shape, QutConfig(mc_samples=100), config)
    assert all(r["failed"] for r in report.rows)
    assert report.aggregates()[0]["failed"] == 2

    # a failed fit keeps the threshold; the rest of the row keeps its defaults, in the
    # key order that the JSON report prints; prediction error is not scored
    def fail(*args, **kwargs):
        raise NumericalError("forced failure")

    monkeypatch.setattr(simulate, "fit", fail)
    sim = SimConfig.absdiff(n=10, p1=4, s_values=(2,), repetitions=2, seed=1, test_n=50)
    rows = run_sweep(sim, shape, QutConfig(mc_samples=100), config).rows
    assert len(rows) == 2
    for rep, row in enumerate(rows):
        assert list(row) == ["s", "rep", "failed", "support_true", "support_est", "exact",
                             "tpr", "fdr", "pe", "lambda_qut"]
        assert (row["s"], row["rep"], row["support_true"]) == (2, rep, [0, 1])
        assert row["failed"] is True and row["exact"] is False
        assert (row["support_est"], row["tpr"], row["fdr"], row["pe"]) == ([], None, 0.0, None)
        assert isinstance(row["lambda_qut"], float) and row["lambda_qut"] > 0
    # a failed threshold leaves no lambda_qut
    monkeypatch.setattr(simulate, "compute_qut", fail)
    rows = run_sweep(sim, shape, QutConfig(mc_samples=100), config).rows
    assert [(r["failed"], r["lambda_qut"]) for r in rows] == [(True, None)] * 2


def test_report_json_csv_round_trip(tmp_path):
    report = _tiny_sweep()
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "report.csv"
    _emit([jpath, cpath], report.to_dict(), report.csv_text())
    loaded = json.loads(jpath.read_text())
    assert loaded["aggregates"] == report.aggregates()
    lines = cpath.read_text().strip().splitlines()
    assert len(lines) == 1 + len(report.rows)
    assert lines[0].startswith("s,rep,failed,exact")
