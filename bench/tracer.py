"""Span tracer that wraps sparseann's public functions from outside the package.

A wrapper replaces a function at every ``sparseann`` module attribute that
holds it, so each call is seen at the name its caller looks up: the solver
calls ``sparseann.solver.loss_and_grad``, the threshold formulas call
``sparseann.qut.act_deriv``, and so on.  Nothing inside the package changes,
and ``installed()`` puts every original back when it exits.

Each call becomes a span (name, parent span, repetition, start, end, self
time).  Spans stay in memory until ``write_csv`` is called.
"""

from __future__ import annotations

import csv
import functools
import statistics
import sys
import time
from contextlib import contextmanager

# Layer (module of src/sparseann) -> public functions whose calls are spans.
TRACED = {
    "activations": ("act_value", "act_deriv"),
    "network": ("loss_and_grad", "forward"),
    "objective": ("soft_threshold", "penalty_l1"),
    "qut": (
        "compute_qut",
        "lambda0_regression",
        "lambda0_classification",
        "sample_null_regression",
        "sample_null_classification",
    ),
    "solver": ("fit",),
    "simulate": ("run_sweep", "gen_linear", "gen_absdiff"),
    "cli": ("load_csv", "main"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    def __init__(self):
        self.rep = -1  # repetition the next spans belong to
        self._name = []
        self._parent = []
        self._rep = []
        self._start = []
        self._end = []
        self._self = []
        self._stack = []  # [span index, seconds spent in child spans]

    def _wrap(self, name_id: int, fn):
        names, parents, reps = self._name, self._parent, self._rep
        starts, ends, selfs, stack = self._start, self._end, self._self, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            reps.append(self.rep)
            starts.append(0.0)
            ends.append(0.0)
            selfs.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                selfs[idx] = (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced function at each module attribute bound to it."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "sparseann" or name.startswith("sparseann.")]
        patched = []
        try:
            for name_id, span in enumerate(SPAN_NAMES):
                mod, fn_name = span.split(".")
                original = getattr(sys.modules[f"sparseann.{mod}"], fn_name)
                wrapper = self._wrap(name_id, original)
                for m in modules:
                    if getattr(m, fn_name, None) is original:
                        setattr(m, fn_name, wrapper)
                        patched.append((m, fn_name, original))
            yield self
        finally:
            for m, fn_name, original in reversed(patched):
                setattr(m, fn_name, original)

    def _under(self, ancestor: str) -> list:
        """For each span, whether some enclosing span is named ``ancestor``."""
        target = SPAN_NAMES.index(ancestor)
        under = [False] * len(self._name)
        for i, parent in enumerate(self._parent):
            if parent >= 0:
                under[i] = under[parent] or self._name[parent] == target
        return under

    def calls(self, span: str) -> int:
        target = SPAN_NAMES.index(span)
        return sum(1 for n in self._name if n == target)

    def calls_under(self, span: str, ancestor: str) -> int:
        target = SPAN_NAMES.index(span)
        under = self._under(ancestor)
        return sum(1 for n, u in zip(self._name, under) if u and n == target)

    def total_seconds(self, span: str) -> float:
        target = SPAN_NAMES.index(span)
        return sum(e - s for n, s, e in zip(self._name, self._start, self._end)
                   if n == target)

    def durations(self, span: str) -> list:
        target = SPAN_NAMES.index(span)
        return [e - s for n, s, e in zip(self._name, self._start, self._end)
                if n == target]

    def layer_metrics(self) -> dict:
        """``<span>.calls``, ``.self_s`` and ``.us_p50`` for every traced function."""
        durs = {i: [] for i in range(len(SPAN_NAMES))}
        self_s = [0.0] * len(SPAN_NAMES)
        for n, s, e, own in zip(self._name, self._start, self._end, self._self):
            durs[n].append(e - s)
            self_s[n] += own
        out = {}
        for i, span in enumerate(SPAN_NAMES):
            out[f"{span}.calls"] = len(durs[i])
            out[f"{span}.self_s"] = self_s[i]
            out[f"{span}.us_p50"] = statistics.median(durs[i]) * 1e6 if durs[i] else 0.0
        return out

    def write_csv(self, path):
        t0 = min(self._start, default=0.0)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "parent", "rep", "name", "start_s", "end_s", "self_s"])
            for i, (n, p, r, s, e, own) in enumerate(zip(
                    self._name, self._parent, self._rep, self._start, self._end, self._self)):
                writer.writerow([i, p, r, SPAN_NAMES[n], f"{s - t0:.9f}",
                                 f"{e - t0:.9f}", f"{own:.9f}"])
