"""The benchmark's own test: every workload at a tiny size, and the checker.

    python -m pytest bench/test_bench.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import sparseann  # noqa: E402


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    elif workload == "cli_threshold":
        assert result["metrics"]["solver.fit.calls"]["value"] == 0
    else:
        assert result["metrics"]["solver.grad_evals_per_fit"]["value"] > 0


@pytest.mark.parametrize("task,widths,link", [
    ("regression", (8, 20, 1), "identity"),
    ("regression", (8, 6, 4, 1), "identity"),
    ("classification", (8, 20, 3), "softmax"),
])
def test_checker_accepts_lambda_qut_and_rejects_a_perturbed_one(task, widths, link):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((50, 8))
    if task == "regression":
        Y = rng.standard_normal((50, 1))
    else:
        Y = np.eye(3)[rng.choice(3, size=50, p=[0.5, 0.3, 0.2])]
    shape = sparseann.NetworkShape.make(widths, link)
    got = sparseann.compute_qut(sparseann.Dataset(X, Y, task), shape,
                                sparseann.QutConfig(mc_samples=200, seed=7)).lambda_qut
    want = checks.lambda_qut_reference(
        X, Y, task, shape.widths, [(a.M, a.u0, a.k) for a in shape.activations],
        0.05, 200, 7)
    assert checks.check_lambda(got, want) == []
    assert checks.check_lambda(got * (1 + 1e-6), want) != []


def test_strict_json_rejects_nan():
    assert checks.loads_strict('{"a": [1.5]}') == {"a": [1.5]}
    with pytest.raises(ValueError):
        checks.loads_strict('{"a": NaN}')
