"""Benchmark of the sparseann package: one workload per run.

    python3 bench/run.py --workload linear_sweep --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
run sets up the workload three times (set-up time is the import time plus
the median of the three), repeats the workload's repetitions for
``--seconds`` (always at least one of each kind), then checks every output
with the timer stopped.  With ``--trace 1`` it then runs the first
repetition of each kind twice more, untraced and then with every traced
function wrapped, checks that the answers are identical, and reports
per-layer metrics instead of end-to-end ones.  ``--size tiny`` shrinks every input, for the benchmark's
own test.

Standard output ends with one JSON line:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The line before it records the environment, the seed and the figures that
have no bound (quality, the time of each repetition, failures).  Exit code 2
means the package could not be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 3
BLAS_THREADS = 1  # load runs in this one process, on one core

END_TO_END_UNITS = {"setup_s": "s", "reps_per_s": "1/s", "peak_rss_mb": "MB"}
DERIVED_UNITS = {
    "solver.grad_evals_per_fit": "count",
    "solver.trial_evals_per_fit": "count",
    "solver.prox_iters_per_fit": "count",
    "solver.accept_ratio": "fraction",
    "qut.draws_per_s": "1/s",
    "simulate.rep_s_p50": "s",
    "cli.out_bytes": "bytes",
    "trace.overhead_frac": "fraction",
}
SPAN_UNITS = {"calls": "count", "self_s": "s", "us_p50": "us"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("linear_sweep", "absdiff_sweep", "cli_threshold"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def pin_blas():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_program():
    """Import sparseann from this checkout's ``src/``, never from elsewhere."""
    package = SRC / "sparseann"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no package at {package}")
    sys.path.insert(0, str(SRC))
    import sparseann
    if Path(sparseann.__file__).resolve().parent != package.resolve():
        raise ImportError(f"sparseann was imported from {sparseann.__file__}")
    return sparseann


def git_commit() -> str:
    """Commit of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name.strip() == ref:
                return sha
    return "unknown"


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "sparseann").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": BLAS_THREADS,
        "threads": threading.active_count(),
        "commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def run_reps(wl, tag, seconds, tracer=None):
    """Repetitions 0, 1, ... until ``seconds`` pass and every kind ran once."""
    clock = time.perf_counter
    recs = []
    with tracer.installed() if tracer else nullcontext(), wl.capturing():
        deadline = clock() + seconds
        k = 0
        while k < len(wl.kinds) or clock() < deadline:
            if tracer:
                tracer.rep = k
            t0 = clock()
            try:
                rec = wl.run_rep(k, tag)
            except Exception:  # a repetition that crashes counts as failed
                rec = {"k": k, "kind": wl.kinds[k % len(wl.kinds)],
                       "error": traceback.format_exc(limit=3)}
            rec["seconds"] = clock() - t0
            recs.append(rec)
            k += 1
    return recs


def check_all(wl, recs):
    for rec in recs:
        if "error" in rec:
            rec["problems"] = [rec["error"]]
            continue
        try:
            rec["problems"] = wl.check(rec)
        except Exception:  # a checker that crashes on an output fails that output
            rec["problems"] = [traceback.format_exc(limit=3)]


def layer_metrics(wl, tracer, traced, overhead) -> dict:
    out = tracer.layer_metrics()
    fits = tracer.calls("solver.fit")
    trials = tracer.calls_under("network.forward", "solver.fit")
    steps = wl.prox_steps(traced)
    draws = (tracer.calls("qut.sample_null_regression")
             + tracer.calls("qut.sample_null_classification"))
    qut_s = tracer.total_seconds("qut.compute_qut")
    reps = tracer.durations("simulate.run_sweep")
    out_bytes = [r["out_bytes"] for r in traced if "out_bytes" in r]
    out.update({
        "solver.grad_evals_per_fit":
            tracer.calls_under("network.loss_and_grad", "solver.fit") / fits if fits else 0.0,
        "solver.trial_evals_per_fit": trials / fits if fits else 0.0,
        "solver.prox_iters_per_fit": statistics.mean(steps) if steps else 0.0,
        "solver.accept_ratio": sum(steps) / trials if trials else 0.0,
        "qut.draws_per_s": draws / qut_s if qut_s else 0.0,
        "simulate.rep_s_p50": statistics.median(reps) if reps else 0.0,
        "cli.out_bytes": statistics.mean(out_bytes) if out_bytes else 0.0,
        "trace.overhead_frac": overhead,
    })
    return out


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in DERIVED_UNITS:
        return DERIVED_UNITS[name]
    return SPAN_UNITS[name.rsplit(".", 1)[1]]


def run(args, import_s, workdir):
    import workloads
    import tracer as tracing

    wl = workloads.make(args.workload, args.seed, args.size == "tiny", workdir)
    setup_runs = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setup_runs.append(time.perf_counter() - t0)

    recs = run_reps(wl, "timed", args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_all(wl, recs)
    by_kind = {kind: [r["seconds"] for r in recs if r["kind"] == kind] for kind in wl.kinds}
    reps_per_s = len(recs) / sum(r["seconds"] for r in recs)
    first = recs[:len(wl.kinds)]
    quality = wl.quality(first)
    all_recs = list(recs)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "import_s": import_s, "setup_runs_s": setup_runs,
        "reps": len(recs),
        "rep_s": by_kind,
        "quality_first_pass": quality,
    }
    if hasattr(wl, "command_medians"):
        record.update(wl.command_medians(recs), cmds_per_s=reps_per_s)

    if args.trace:
        # The same repetitions untraced, just before the traced ones, give the
        # tracing overhead without the timed pass's first-repetition warm-up.
        reference = run_reps(wl, "reference", 0)
        tracer = tracing.Tracer()
        traced = run_reps(wl, "traced", 0, tracer)
        check_all(wl, reference)
        check_all(wl, traced)
        for a, b in zip(first, traced):
            if wl.answer(a) != wl.answer(b):
                b["problems"].append(f"traced repetition {b['k']} changed its answer")
        traced_quality = wl.quality(traced)
        if traced_quality != quality:
            traced[-1]["problems"].append(
                f"traced quality {traced_quality} differs from {quality}")
        overhead = (sum(r["seconds"] for r in traced)
                    / sum(r["seconds"] for r in reference) - 1.0)
        metrics = layer_metrics(wl, tracer, traced, overhead)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}.csv"
        tracer.write_csv(spans)
        record.update(traced_quality=traced_quality, spans=str(spans.relative_to(ROOT)))
        all_recs += reference + traced
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setup_runs),
            "reps_per_s": reps_per_s,
            "peak_rss_mb": peak_rss_mb,
        }

    failed = sum(1 for r in all_recs if r["problems"])
    record.update(
        attempted=len(all_recs), failed=failed, fail_frac=failed / len(all_recs),
        problems=[f"rep {r['k']} ({r['kind']}): {p}" for r in all_recs
                  for p in r["problems"]][:20],
    )
    result = {
        "correct": failed == 0,
        "attempted": len(all_recs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    return record, result


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas()
    t0 = time.perf_counter()
    try:
        sparseann = import_program()
    except ImportError as exc:
        print(f"bench: cannot import sparseann from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    sys.path.insert(0, str(BENCH))
    import numpy as np

    env = environment(np)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record, result = run(args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["env"] = env
    record["sparseann"] = sparseann.__version__
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(record, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
