"""The benchmark's workloads: inputs, one timed repetition, and its checks.

Every workload cycles through a fixed list of repetition kinds (an s value
of a sweep, or one CLI command).  Repetition k uses kind k mod len(kinds)
and inputs drawn from the workload seed and k, so the same seed gives the
same inputs.  The program is called through module attributes
(``simulate.run_sweep``, ``cli.main``) so that the tracer's patches apply.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import sparseann
from sparseann import cli, simulate

import checks


def rep_seed(seed: int, k: int) -> int:
    """Seed of repetition k, an independent stream for every (seed, k)."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _mean(values):
    values = [v for v in values if v is not None]
    return float(np.mean(values)) if values else None


class Sweep:
    """``run_sweep`` one repetition at a time over a grid of sparsities."""

    def __init__(self, sim_kind: str, seed: int, tiny: bool):
        self.sim_kind = sim_kind
        self.seed = seed
        if sim_kind == "linear":
            n, p1, self.grid = (30, 20, (0, 1, 8, 16)) if tiny else (100, 200, (0, 1, 8, 16))
        else:
            n, p1, self.grid = (40, 20, (0, 2, 16)) if tiny else (500, 50, (0, 2, 16))
        self.n, self.p1 = n, p1
        self.hidden = 5 if tiny else 20
        self.test_n = 200 if tiny else 10000
        self.qut_config = sparseann.QutConfig(mc_samples=100 if tiny else 1000)
        self.solver_config = (sparseann.SolverConfig(descent_epochs=20, prox_max_iter=300)
                              if tiny else sparseann.SolverConfig())
        self.kinds = [f"s={s}" for s in self.grid]
        self.shape = None
        self._captured = {}

    def _sim(self, s_values, seed):
        return sparseann.SimConfig(self.sim_kind, self.n, self.p1, tuple(s_values),
                                   repetitions=1, seed=seed, test_n=self.test_n)

    def setup(self):
        """Shape and configs, then one gradient and a short threshold as warm-up."""
        self.shape = sparseann.NetworkShape.make((self.p1, self.hidden, 1), "identity")
        rng = np.random.default_rng([self.seed, 1])
        gen = sparseann.gen_linear if self.sim_kind == "linear" else sparseann.gen_absdiff
        dataset, _, _ = gen(self._sim(self.grid, self.seed), self.grid[-1], rng)
        theta = sparseann.init_theta(self.shape, self.solver_config, rng, dataset)
        sparseann.loss_and_grad(self.shape, theta, dataset, "sqrt_l2")
        sparseann.compute_qut(dataset, self.shape, sparseann.QutConfig(mc_samples=100))

    @contextmanager
    def capturing(self):
        """Keep the threshold and fit each repetition computes, for the checks."""
        qut_fn, fit_fn = simulate.compute_qut, simulate.fit

        def compute_qut(dataset, shape, config):
            result = qut_fn(dataset, shape, config)
            self._captured["qut"] = (dataset, result)
            return result

        def fit(shape, dataset, lam, config, *args, **kwargs):
            result = fit_fn(shape, dataset, lam, config, *args, **kwargs)
            self._captured["fit"] = (dataset, lam, result)
            return result

        simulate.compute_qut, simulate.fit = compute_qut, fit
        try:
            yield
        finally:
            simulate.compute_qut, simulate.fit = qut_fn, fit_fn

    def run_rep(self, k: int, tag: str) -> dict:
        s = self.grid[k % len(self.grid)]
        self._captured = {}
        report = simulate.run_sweep(self._sim((s,), rep_seed(self.seed, k)), self.shape,
                                    self.qut_config, self.solver_config)
        return {"k": k, "kind": f"s={s}", "report": report, **self._captured}

    def check(self, rec: dict) -> list:
        report = rec["report"]
        row = report.rows[0]
        if row["failed"]:
            return ["repetition failed with a SparseAnnError"]
        problems = []
        try:
            checks.loads_strict(json.dumps(report.to_dict()))
        except ValueError as exc:
            problems.append(f"sweep report JSON: {exc}")
        dataset, qut = rec["qut"]
        want = checks.lambda_qut_reference(
            dataset.X, dataset.Y, "regression", self.shape.widths,
            [(a.M, a.u0, a.k) for a in self.shape.activations],
            self.qut_config.alpha, self.qut_config.mc_samples, qut.seed)
        problems += checks.check_lambda(row["lambda_qut"], want)
        dataset, lam, result = rec["fit"]
        problems += checks.check_support(result.support, result.theta.W1)
        if list(row["support_est"]) != list(result.support):
            problems.append("sweep row support differs from the fit's support")
        rec["kkt_rel"] = checks.kkt_rel(self.shape, dataset, result.theta, lam,
                                        sparseann.loss_and_grad)
        problems += checks.check_kkt(rec["kkt_rel"])
        return problems

    def answer(self, rec: dict):
        """What the traced pass must reproduce exactly."""
        row = rec["report"].rows[0]
        return (row["lambda_qut"], row["support_est"], row["pe"], rec.get("kkt_rel"))

    def quality(self, recs: list) -> dict:
        """pesr/tpr/fdr/pe_rmse from ``SimReport.aggregates``, averaged over s."""
        report = sparseann.SimReport(self._sim(self.grid, self.seed),
                                     [r["report"].rows[0] for r in recs])
        aggs = report.aggregates()
        kkts = [r["kkt_rel"] for r in recs if "kkt_rel" in r]
        return {
            "pesr": _mean(a["pesr"] for a in aggs),
            "tpr": _mean(a["tpr"] for a in aggs),
            "fdr": _mean(a["fdr"] for a in aggs),
            "pe_rmse": _mean(a["pe"] for a in aggs),
            "kkt_rel_max": max(kkts) if kkts else None,
        }

    def prox_steps(self, recs: list) -> list:
        """Proximal steps of each fit: its last objective trace minus the final entry."""
        return [len(r["fit"][2].objective_trace[-1]) - 1 for r in recs if "fit" in r]


class CliThreshold:
    """In-process ``sparseann.cli.main``: ``qut`` for both tasks, then ``predict``."""

    kinds = ["qut_regression", "qut_classification", "predict"]

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        self.n, self.p1 = (60, 8) if tiny else (2000, 500)
        self.mc_samples = 100 if tiny else 1000
        self.alpha = 0.05  # QutConfig default, which the CLI uses
        self.hidden = 20  # the CLI's default hidden width
        self.dir = workdir

    def _write_csv(self, path, last_name, last_values):
        names = [f"x{j}" for j in range(self.p1)] + [last_name]
        with open(path, "w") as fh:
            fh.write(",".join(names) + "\n")
            for row, last in zip(self.X.tolist(), last_values):
                fh.write(",".join(map(repr, row)) + "," + last + "\n")

    def setup(self):
        """CSV files for both tasks, a saved model, and one small ``qut`` as warm-up."""
        rng = np.random.default_rng([self.seed, 2])
        n, p1 = self.n, self.p1
        # six decimals, as in a typical CSV; repr() makes parsing exact
        self.X = np.round(rng.standard_normal((n, p1)), 6)
        y = np.round(self.X[:, :4] @ np.array([2.0, -1.5, 1.0, 0.5])
                     + rng.standard_normal(n), 6)
        labels = rng.choice(np.array(["red", "green", "blue"]), size=n, p=[0.5, 0.3, 0.2])
        order = list(dict.fromkeys(labels.tolist()))  # the CLI's first-appearance order
        self.Y_reg = y[:, None]
        self.Y_cls = (labels[:, None] == np.array(order)[None, :]).astype(float)
        self.reg_csv, self.cls_csv = self.dir / "reg.csv", self.dir / "cls.csv"
        self._write_csv(self.reg_csv, "y", map(repr, y.tolist()))
        self._write_csv(self.cls_csv, "label", labels.tolist())

        self.model_shape = sparseann.NetworkShape.make((p1, self.hidden, 1), "identity")
        theta = sparseann.init_theta(self.model_shape, sparseann.SolverConfig(seed=self.seed), rng)
        theta.W1[:, 4:] = 0.0  # a sparse fitted model: support {0, 1, 2, 3}
        model = sparseann.FitResult(theta, sparseann.estimated_support(theta), 1.0, [1.0])
        payload = model.to_dict(self.model_shape)
        payload.update(task="regression", feature_names=[f"x{j}" for j in range(p1)])
        self.model_path = self.dir / "model.json"
        self.model_path.write_text(json.dumps(payload))
        self.theta = theta

        warm = self.dir / "warm.csv"
        warm.write_text("a,b,y\n" + "".join(f"{i % 7},{i % 5},{i % 3}\n" for i in range(20)))
        rc = cli.main(["qut", "--data", str(warm), "--response", "y", "--task", "regression",
                       "--mc-samples", "100", "--out", str(self.dir / "warm.json")])
        if rc != 0:
            raise RuntimeError(f"warm-up qut exited with {rc}")

    @contextmanager
    def capturing(self):
        yield

    def run_rep(self, k: int, tag: str) -> dict:
        kind = self.kinds[k % len(self.kinds)]
        out = self.dir / f"{tag}-{k}.json"
        rec = {"k": k, "kind": kind, "out": out}
        if kind == "predict":
            argv = ["predict", "--model", str(self.model_path), "--data", str(self.reg_csv),
                    "--response", "y", "--out", str(out)]
        else:
            task = kind.split("_")[1]
            csv_path, column = ((self.reg_csv, "y") if task == "regression"
                                else (self.cls_csv, "label"))
            rec["seed"] = rep_seed(self.seed, k)
            argv = ["qut", "--data", str(csv_path), "--response", column, "--task", task,
                    "--seed", str(rec["seed"]), "--mc-samples", str(self.mc_samples),
                    "--out", str(out)]
        rec["rc"] = cli.main(argv)
        return rec

    def check(self, rec: dict) -> list:
        if rec["rc"] != 0:
            return [f"{rec['kind']} exited with code {rec['rc']}"]
        raw = rec["out"].read_bytes()
        rec["out_bytes"] = len(raw)
        try:
            payload = checks.loads_strict(raw.decode())
        except ValueError as exc:
            return [f"{rec['kind']} output: {exc}"]
        if rec["kind"] == "predict":
            rec["answer"] = payload["predictions"]
            want = sparseann.forward(self.model_shape, self.theta, self.X)
            return checks.check_predictions(payload["predictions"], want)
        rec["answer"] = payload["lambda_qut"]
        task = rec["kind"].split("_")[1]
        Y = self.Y_reg if task == "regression" else self.Y_cls
        spec = sparseann.ActivationSpec()  # the CLI's default activation
        want = checks.lambda_qut_reference(
            self.X, Y, task, (self.p1, self.hidden, Y.shape[1]), [(spec.M, spec.u0, spec.k)],
            self.alpha, self.mc_samples, rec["seed"])
        return checks.check_lambda(payload["lambda_qut"], want)

    def answer(self, rec: dict):
        return rec.get("answer")

    def quality(self, recs: list) -> dict:
        return {}

    def prox_steps(self, recs: list) -> list:
        return []

    def command_medians(self, recs: list) -> dict:
        """Median seconds per command kind, with its sample count."""
        def median_n(kind):
            times = [r["seconds"] for r in recs if r["kind"] == kind]
            return {"value": statistics.median(times), "n": len(times)}
        return {
            "qut_cmd_s_p50": {task: median_n(f"qut_{task}")
                              for task in ("regression", "classification")},
            "predict_cmd_s_p50": median_n("predict"),
        }


def make(name: str, seed: int, tiny: bool, workdir: Path):
    if name == "linear_sweep":
        return Sweep("linear", seed, tiny)
    if name == "absdiff_sweep":
        return Sweep("absdiff", seed, tiny)
    if name == "cli_threshold":
        return CliThreshold(seed, tiny, workdir)
    raise ValueError(f"unknown workload {name!r}")
