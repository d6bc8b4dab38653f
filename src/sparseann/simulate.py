"""Support-recovery metrics, data generators and the Monte-Carlo sweep."""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import ConfigError, SparseAnnError, check_int
from .network import Dataset, NetworkShape, forward
from .qut import QutConfig, compute_qut
from .solver import SolverConfig, fit


@dataclass(frozen=True)
class SimConfig:
    kind: str  # "linear" or "absdiff"
    n: int
    p1: int
    s_values: tuple
    noise_sd: float = 1.0
    coef: float = None  # beta for linear, amplitude for absdiff
    repetitions: int = 100
    seed: int = 0
    test_n: int = 10000

    def __post_init__(self):
        if self.kind not in ("linear", "absdiff"):
            raise ConfigError(f"unknown simulation kind {self.kind!r}")
        check_int(self.n, "n", 2, ConfigError)
        check_int(self.p1, "p1", 1, ConfigError)
        check_int(self.repetitions, "repetitions", 1, ConfigError)
        check_int(self.test_n, "test_n", 1, ConfigError)
        check_int(self.seed, "seed", error=ConfigError)
        for s in self.s_values:
            check_int(s, "each sparsity s", error=ConfigError)
            if s > self.p1:
                raise ConfigError("sparsity s cannot exceed p1")
            if self.kind == "absdiff" and s % 2 != 0:
                raise ConfigError("absdiff sparsity must be even (feature pairs)")
        if self.coef is None:
            object.__setattr__(self, "coef", 3.0 if self.kind == "linear" else 10.0)

    @staticmethod
    def linear(n=100, p1=200, s_values=(0,), **kw) -> "SimConfig":
        return SimConfig("linear", n, p1, tuple(s_values), **kw)

    @staticmethod
    def absdiff(n=500, p1=50, s_values=(0,), **kw) -> "SimConfig":
        return SimConfig("absdiff", n, p1, tuple(s_values), **kw)


def gen_linear(config: SimConfig, s: int, rng: np.random.Generator):
    """Sparse linear signal: Gaussian X, s coefficients equal to ``coef``.

    The true support sits on a seeded random permutation of the columns.
    Returns (dataset, support, true_mu).
    """
    n, p1 = config.n, config.p1
    X = rng.standard_normal((n, p1))
    perm = rng.permutation(p1)
    support = sorted(int(j) for j in perm[:s])
    beta = np.zeros(p1)
    beta[support] = config.coef
    noise = config.noise_sd * rng.standard_normal((n, 1))
    Y = (X @ beta)[:, None] + noise
    dataset = Dataset(X=X, Y=Y, task="regression")

    def true_mu(Xq):
        return (np.asarray(Xq) @ beta)[:, None]

    return dataset, support, true_mu


def gen_absdiff(config: SimConfig, s: int, rng: np.random.Generator):
    """Sum of scaled absolute pair differences over the first s inputs."""
    if s % 2 != 0:
        raise ConfigError("absdiff sparsity must be even")
    n, p1, amp = config.n, config.p1, config.coef
    h = s // 2
    X = rng.standard_normal((n, p1))

    def true_mu(Xq):
        Xq = np.asarray(Xq)
        out = np.zeros((Xq.shape[0], 1))
        for i in range(h):
            out[:, 0] += amp * np.abs(Xq[:, 2 * i + 1] - Xq[:, 2 * i])
        return out

    noise = config.noise_sd * rng.standard_normal((n, 1))
    Y = true_mu(X) + noise
    dataset = Dataset(X=X, Y=Y, task="regression")
    support = list(range(s))
    return dataset, support, true_mu


def metrics(support_true, support_est, mu_true=None, mu_hat=None, X_test=None):
    """(TPR, FDR, exact, PE) for one repetition.

    TPR is None when the true support is empty; PE is None unless the true
    and fitted associations plus test inputs are given (root mean square
    difference against the TRUE association, not noisy responses).
    """
    S = set(support_true)
    S_hat = set(support_est)
    tpr = len(S & S_hat) / len(S) if S else None
    fdr = len(S_hat - S) / max(len(S_hat), 1)
    exact = S == S_hat
    pe = None
    if mu_true is not None and mu_hat is not None and X_test is not None:
        diff = np.asarray(mu_true(X_test)) - np.asarray(mu_hat(X_test))
        pe = float(np.sqrt(np.mean(diff**2)))
    return tpr, fdr, exact, pe


@dataclass
class SimReport:
    config: SimConfig
    rows: list = field(default_factory=list)  # one dict per (s, repetition)

    def aggregates(self) -> list:
        out = []
        for s in self.config.s_values:
            rows = [r for r in self.rows if r["s"] == s]
            ok = [r for r in rows if not r["failed"]]
            tprs = [r["tpr"] for r in ok if r["tpr"] is not None]
            pes = [r["pe"] for r in ok if r["pe"] is not None]
            out.append(
                {
                    "s": s,
                    "repetitions": len(ok),
                    "failed": len(rows) - len(ok),
                    "pesr": float(np.mean([r["exact"] for r in ok])) if ok else None,
                    "tpr": float(np.mean(tprs)) if tprs else None,
                    "fdr": float(np.mean([r["fdr"] for r in ok])) if ok else None,
                    "pe": float(np.mean(pes)) if pes else None,
                }
            )
        return out

    def to_dict(self) -> dict:
        return {"config": asdict(self.config), "rows": self.rows,
                "aggregates": self.aggregates()}

    def csv_text(self) -> str:
        """The rows as CSV text under a header line, with CRLF line ends."""
        cols = ["s", "rep", "failed", "exact", "tpr", "fdr", "pe", "lambda_qut",
                "support_true", "support_est"]
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(cols)
        for r in self.rows:
            writer.writerow(
                [
                    r["s"], r["rep"], int(r["failed"]), int(r["exact"]),
                    "" if r["tpr"] is None else r["tpr"],
                    r["fdr"],
                    "" if r["pe"] is None else r["pe"],
                    r["lambda_qut"],
                    " ".join(str(j) for j in r["support_true"]),
                    " ".join(str(j) for j in r["support_est"]),
                ]
            )
        return buf.getvalue()


def run_sweep(
    sim: SimConfig,
    shape: NetworkShape,
    qut_config: QutConfig,
    solver_config: SolverConfig,
) -> SimReport:
    """Generate, select the threshold, fit and score every repetition.

    Fully deterministic given the master seed: each repetition derives its
    RNG stream and per-stage seeds from (seed, s, repetition).
    """
    report = SimReport(config=sim)
    gen = gen_linear if sim.kind == "linear" else gen_absdiff
    for s in sim.s_values:
        for rep in range(sim.repetitions):
            rng = np.random.default_rng([sim.seed, s, rep])
            sub_seed = int(rng.integers(2**63))
            dataset, support_true, true_mu = gen(sim, s, rng)
            row = {"s": s, "rep": rep, "failed": True, "support_true": support_true,
                   "support_est": [], "exact": False, "tpr": None, "fdr": 0.0, "pe": None,
                   "lambda_qut": None}
            report.rows.append(row)
            try:
                row["lambda_qut"] = compute_qut(
                    dataset, shape, replace(qut_config, seed=sub_seed)).lambda_qut
                result = fit(shape, dataset, row["lambda_qut"],
                             replace(solver_config, seed=sub_seed))
            except SparseAnnError:
                pass  # the row stays failed, with its threshold if that ran
            else:  # only the pair-difference sweep scores prediction error, on fresh inputs
                X_test = (rng.standard_normal((sim.test_n, sim.p1))
                          if sim.kind == "absdiff" else None)
                tpr, fdr, exact, pe = metrics(support_true, result.support, true_mu,
                                              lambda Xq: forward(shape, result.theta, Xq),
                                              X_test)
                row.update(failed=False, support_est=result.support, tpr=tpr, fdr=fdr,
                           exact=exact, pe=pe)
    return report
