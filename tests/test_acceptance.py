"""Acceptance gate: one test per criterion, each printing a pass/fail line.

These run the statistical experiments at their stated sizes, so this module
is slower than the unit tests (several minutes total).
"""

import numpy as np
import pytest
from fd_utils import max_rel_grad_error, random_instance
from theory import (
    descent_direction_certificate,
    exact_absdiff_network,
    exact_linear_network,
    hessian_at_null,
    lambda0,
    lambda0_oracle,
)

from sparseann import (
    ActivationSpec,
    NetworkShape,
    QutConfig,
    SimConfig,
    SolverConfig,
    forward,
    lambda0_regression,
    run_sweep,
)
from sparseann.objective import soft_threshold


def _report(num, desc, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_oracle_matches_closed_form():
    rng = np.random.default_rng(1001)
    worst_ratio = 1.0
    worst_excess = 0.0
    for i in range(50):
        n_layers = int(rng.integers(2, 4))
        task = "regression" if i % 2 == 0 else "classification"
        n = int(rng.integers(4, 11))
        if task == "regression":
            link, loss, m = "identity", "sqrt_l2", 1
        else:
            link, loss, m = "softmax", "cross_entropy", int(rng.integers(2, 4))
        p1 = int(rng.integers(2, 6))
        hidden = [int(rng.integers(2, 5)) for _ in range(n_layers - 1)]
        shape, _, dataset = random_instance(
            rng, n_layers=n_layers, link=link, loss_kind=loss, n=n,
            widths=(p1, *hidden, m), m=m,
        )
        closed = lambda0(dataset, shape)
        got = lambda0_oracle(dataset, shape, restarts=200, seed=i)
        worst_excess = max(worst_excess, got - closed)
        if closed > 0:
            worst_ratio = min(worst_ratio, got / closed)
    ok = worst_excess <= 1e-8 and worst_ratio >= 0.99
    _report(1, "numeric supremum oracle vs closed-form threshold", ok,
            f"max excess {worst_excess:.2e}, min ratio {worst_ratio:.5f}")


def test_criterion_02_gradients_match_finite_differences():
    combos = [
        ("identity", "sqrt_l2", 1),
        ("softmax", "cross_entropy", 3),
        ("logit", "cross_entropy", 2),
        ("softmax", "sqrt_l2", 2),
        ("logit", "sqrt_l2", 3),
    ]
    worst = 0.0
    for i in range(20):
        link, loss, m = combos[i % len(combos)]
        n_layers = 2 + i % 3
        rng = np.random.default_rng([2000, i])
        shape, theta, dataset = random_instance(
            rng, n_layers=n_layers, link=link, loss_kind=loss, m=m
        )
        worst = max(worst, max_rel_grad_error(shape, theta, dataset, loss))
    ok = worst <= 1e-5
    _report(2, "backward pass vs central finite differences", ok,
            f"max relative error {worst:.2e}")


def test_criterion_03_pivotality():
    rng = np.random.default_rng(3000)
    X = rng.standard_normal((40, 8))
    Y = rng.standard_normal((40, 1))
    shape = NetworkShape.make((8, 5, 1), "identity")
    base = lambda0_regression(Y, X, shape)
    worst = 0.0
    for _ in range(20):
        a = float(rng.uniform(0.1, 10.0))
        b = float(rng.uniform(-5.0, 5.0))
        worst = max(worst, abs(lambda0_regression(a * Y + b, X, shape) - base) / base)
    ok = worst <= 1e-12
    _report(3, "threshold invariant to affine response transforms", ok,
            f"max relative deviation {worst:.2e}")


def test_criterion_04_null_local_minimum_certificate():
    failures = 0
    for i in range(10):
        rng = np.random.default_rng([4000, i])
        shape, theta2, dataset = random_instance(rng, n_layers=2 + i % 2)
        lam = 1.01 * lambda0(dataset, shape)
        if not descent_direction_certificate(
            shape, dataset, theta2, lam, n_directions=200, step=1e-4, rng=rng
        ):
            failures += 1
    ok = failures == 0
    _report(4, "no descent direction at the null above the threshold", ok,
            f"{failures}/10 instances found a descent direction")


@pytest.mark.slow
def test_criterion_05_null_calibration():
    sim = SimConfig.linear(n=100, p1=50, s_values=(0,), repetitions=100, seed=500)
    shape = NetworkShape.make((50, 20, 1), "identity", ActivationSpec(20.0, 1.0, 1.0))
    report = run_sweep(sim, shape, QutConfig(alpha=0.05), SolverConfig())
    nonempty = sum(1 for r in report.rows if r["support_est"] and not r["failed"])
    failed = sum(1 for r in report.rows if r["failed"])
    frac = (nonempty + failed) / len(report.rows)
    ok = frac <= 0.12
    _report(5, "false discoveries under the pure-noise null", ok,
            f"nonempty support in {frac:.2f} of 100 repetitions")


@pytest.mark.slow
def test_criterion_06_linear_phase_transition():
    sim = SimConfig.linear(s_values=(1, 8, 16), repetitions=20, seed=600)
    shape = NetworkShape.make((200, 20, 1), "identity", ActivationSpec(20.0, 1.0, 1.0))
    report = run_sweep(sim, shape, QutConfig(alpha=0.05), SolverConfig())
    pesr = {a["s"]: a["pesr"] for a in report.aggregates()}
    ok = (
        pesr[1] >= 0.7
        and pesr[1] >= pesr[8] >= pesr[16]
        and pesr[16] <= 0.3
    )
    _report(6, "exact-recovery probability drops as sparsity grows", ok,
            f"PESR(1)={pesr[1]:.2f}, PESR(8)={pesr[8]:.2f}, PESR(16)={pesr[16]:.2f}")


@pytest.mark.slow
def test_criterion_07_nonlinear_recovery():
    sim = SimConfig.absdiff(s_values=(2, 16), repetitions=10, seed=700)
    shape = NetworkShape.make((50, 20, 1), "identity", ActivationSpec(20.0, 1.0, 1.0))
    report = run_sweep(sim, shape, QutConfig(alpha=0.05), SolverConfig())
    agg = {a["s"]: a for a in report.aggregates()}
    tpr2, fdr2 = agg[2]["tpr"], agg[2]["fdr"]
    ok = tpr2 >= 0.8 and fdr2 <= 0.3
    _report(7, "pair-difference signal recovery", ok,
            f"TPR(s=2)={tpr2:.2f}, FDR(s=2)={fdr2:.2f}, "
            f"TPR(s=16)={agg[16]['tpr']:.2f}")


def test_criterion_08_null_hessian_blocks_psd():
    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng([8000, i])
        shape, theta, dataset = random_instance(rng, n_layers=3)
        H_b1, H_b2 = hessian_at_null(shape, theta, dataset)
        for H in (H_b1, H_b2):
            worst = min(worst, float(np.linalg.eigvalsh(H).min()))
    ok = worst >= -1e-8
    _report(8, "bias-block Hessians at the null are PSD", ok,
            f"min eigenvalue {worst:.2e}")


def test_criterion_09_exact_constructions():
    worst_lin = 0.0
    for i in range(20):
        rng = np.random.default_rng([9000, i])
        n, p = int(rng.integers(5, 20)), int(rng.integers(2, 8))
        X = rng.standard_normal((n, p))
        beta = rng.standard_normal(p)
        beta0 = float(rng.standard_normal())
        shape, theta = exact_linear_network(X, beta, beta0)
        pts = np.vstack([X, rng.dirichlet(np.ones(n), size=10) @ X])
        got = forward(shape, theta, pts)
        want = (beta0 + pts @ beta)[:, None]
        worst_lin = max(worst_lin, float(np.max(np.abs(got - want))))

    rng = np.random.default_rng(9100)
    shape, theta = exact_absdiff_network(3, 10, 12, amp=10.0)
    X = rng.standard_normal((100, 10))
    want = np.zeros((100, 1))
    for i in range(3):
        want[:, 0] += 10.0 * np.abs(X[:, 2 * i + 1] - X[:, 2 * i])
    worst_abs = float(np.max(np.abs(forward(shape, theta, X) - want)))

    ok = worst_lin <= 1e-9 and worst_abs <= 1e-9
    _report(9, "explicit linear and pair-difference networks are exact", ok,
            f"linear error {worst_lin:.2e}, pair-difference error {worst_abs:.2e}")


def test_criterion_10_prox_subgradient_optimality():
    rng = np.random.default_rng(10000)
    w = rng.uniform(-10.0, 10.0, size=1000)
    t = rng.uniform(0.0, 5.0, size=1000)
    worst = 0.0
    for wi, ti in zip(w, t):
        ui = float(soft_threshold(np.array([wi]), ti)[0])
        if ui != 0.0:
            worst = max(worst, abs(ui - wi + ti * np.sign(ui)))
        else:
            worst = max(worst, max(0.0, abs(wi) - ti))
    ok = worst <= 1e-12
    _report(10, "soft-threshold satisfies the subgradient optimality condition",
            ok, f"max violation {worst:.2e}")
