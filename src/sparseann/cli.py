"""Command-line surface: CSV ingestion, config handling and the four commands.

Commands: ``qut``, ``fit``, ``predict``, ``simulate``.  All machine-readable
results go to files (or standard output) as JSON; sweep rows additionally as
CSV.  Exit codes: 0 success, 2 configuration error, 3 data error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import fields, replace
from io import StringIO
from pathlib import Path

import numpy as np

from .activations import ActivationSpec
from .errors import (ConfigError, DataError, DegenerateParameterError, NumericalError,
                     SparseAnnError, check_int)
from .network import TASK_LINKS, Dataset, NetworkShape, Theta, forward, normalize_rows
from .qut import QutConfig, compute_qut
from .simulate import SimConfig, run_sweep
from .solver import SolverConfig, fit

# The run's ``seed`` seeds both the threshold and the solver, so neither section takes one.
_SECTION_KEYS = {
    "shape": {"hidden", "link", "activation"},
    "qut": {f.name for f in fields(QutConfig)} - {"seed"},
    "solver": {f.name for f in fields(SolverConfig)} - {"seed"},
    "io": {"data", "response", "out"},
}
_CONFIG_SECTIONS = {"task", "seed", *_SECTION_KEYS}
# Each flag, when given, is laid over the config key of its own name in this
# section (None: the top level).
_FLAG_SECTIONS = {"seed": None, "task": None, "alpha": "qut", "mc_samples": "qut",
                  "data": "io", "response": "io", "out": "io"}


def _reject_unknown(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _read_text(path, what: str, error) -> str:
    """The whole text of an input file, as UTF-8 after an optional byte-order mark, with
    its line ends as written; ``error`` names a ``what`` file that cannot be read."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or text not UTF-8
        raise error(f"cannot read {what} file: {exc}")


def load_run_config(path) -> dict:
    try:
        cfg = json.loads(_read_text(path, "config", ConfigError))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(cfg, _CONFIG_SECTIONS, "config")
    for key, allowed in _SECTION_KEYS.items():
        if key in cfg:
            if not isinstance(cfg[key], dict):
                raise ConfigError(f"config section {key!r} must be an object")
            _reject_unknown(cfg[key], allowed, f"config.{key}")
    activations = cfg.get("shape", {}).get("activation")
    for act in activations if isinstance(activations, list) else [activations]:
        if isinstance(act, dict):
            _reject_unknown(act, {f.name for f in fields(ActivationSpec)},
                            "config.shape.activation")
    if "task" in cfg and cfg["task"] not in list(TASK_LINKS):  # a JSON array is unhashable
        raise ConfigError(f"unknown task {cfg['task']!r}")
    for key, value in cfg.get("io", {}).items():
        if not isinstance(value, str) or not value:
            raise ConfigError(f"config.io.{key} must be a non-empty string, got {value!r}")
    return cfg


def _run_config(args, *suffixes):
    """The config file, if any, with the flags that were given laid over it, and
    the files the run writes (``_outputs`` of ``io.out`` and ``suffixes``)."""
    cfg = load_run_config(args.config) if args.config else {}
    for key, section in _FLAG_SECTIONS.items():
        value = getattr(args, key, None)
        if value not in (None, ""):
            (cfg.setdefault(section, {}) if section else cfg)[key] = value
    cfg.setdefault("seed", 0)
    check_int(cfg["seed"], "seed", error=ConfigError)
    return cfg, _outputs(cfg.get("io", {}).get("out"), *suffixes)


def _outputs(out, *suffixes) -> list:
    """The files a command writes, ``out`` or ``out`` with each of ``suffixes``, or none
    (standard output); refused if one's directory is missing or it is a directory."""
    if not out:
        return []
    if "\0" in out:
        raise ConfigError(f"cannot write output file: {out!r} holds a NUL character")
    try:
        paths = [Path(out).with_suffix(s) for s in suffixes] or [Path(out)]
    except ValueError:  # "/" has no name to take a suffix
        raise ConfigError(f"cannot write output file: {out!r} names no file") from None
    for path in paths:
        if not path.parent.is_dir():
            raise ConfigError(f"cannot write output file: no directory {str(path.parent)!r}")
        if path.is_dir():
            raise ConfigError(f"cannot write output file: {str(path)!r} is a directory")
    return paths


class _Table:
    """Header and data rows of a CSV file.  A plain text (``_plain_lines``) keeps its
    data lines unsplit in ``lines`` for numpy's reader; ``rows`` are the cells the
    csv module reads."""

    def __init__(self, path, header, rows=None, lines=None):
        self.path, self.header, self.lines, self._rows = path, header, lines, rows

    def __len__(self) -> int:
        return len(self.lines if self.lines is not None else self._rows)

    @property
    def rows(self) -> list:
        if self._rows is None:
            self._rows = [line.split(",") for line in self.lines]
        return self._rows

    def column(self, i) -> list:
        """Cell ``i`` of each data row."""
        if self.lines is None:
            return [row[i] for row in self._rows]
        k = len(self.header)  # split from the nearer end: a response is often first or last
        if 2 * i < k:
            return [line.split(",", i + 1)[i] for line in self.lines]
        return [line.rsplit(",", k - i)[1] for line in self.lines]


# The ASCII separators: numpy strips them from a number as whitespace, ``float`` refuses them.
_SEPARATORS = "\x1c\x1d\x1e\x1f"
# Characters no plain text holds: the csv module's quote, NUL, and the separators.
_NOT_PLAIN = '"\0' + _SEPARATORS


def _plain_lines(text: str):
    """The lines of ``text`` without their ends if each splits on "," into the very
    cells csv.reader reads, and numpy reads a number in them only where ``float``
    does; else None.  That holds when the text has none of ``_NOT_PLAIN`` and no
    lone CR, no blank line, no cell beyond the csv field limit, and every line has
    the header's comma count."""
    if any(c in text for c in _NOT_PLAIN):
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    if lines[-1] == "":  # the last line's end
        lines.pop()
    if not lines or "" in lines:
        return None
    limit, commas = csv.field_size_limit(), lines[0].count(",")
    if any(line.count(",") != commas
           or len(line) > limit and max(map(len, line.split(","))) > limit
           for line in lines):
        return None
    return lines


def _read_csv(path) -> _Table:
    """Header and data rows of a CSV file; every row must match the header.  A plain
    text is split on ","; any other goes to the csv module."""
    text = _read_text(path, "data", DataError)
    lines = _plain_lines(text)
    if lines is not None:
        table = _Table(path, lines[0].split(","), lines=lines[1:])
    else:
        reader = csv.reader(StringIO(text, newline=""))
        try:
            table = _Table(path, next(reader), list(reader))
        except StopIteration:
            raise DataError(f"{path}: empty file")
        except csv.Error as exc:  # e.g. a cell longer than the csv module's field limit
            raise DataError(f"{path}: line {reader.line_num}: {exc}")
    header = table.header
    if len(set(header)) != len(header):
        repeated = next(h for i, h in enumerate(header) if h in header[:i])
        raise DataError(f"{path}: column {repeated!r} appears more than once in the header")
    if table.lines is None:  # a plain line has the header's cell count
        for r, row in enumerate(table.rows):
            if len(row) != len(header):
                raise DataError(f"{path}: row {r + 2} has {len(row)} cells, "
                                f"expected {len(header)}")
    if len(table) == 0:
        raise DataError(f"{path}: no data rows")
    return table


def _features(table: _Table, names=None, drop=None):
    """Feature matrix and its column names: the columns ``names`` if given, else
    every column but ``drop``, in header order."""
    position = {h: i for i, h in enumerate(table.header)}  # the header has no repeats
    if names:
        missing = [f for f in names if f not in position]
        if missing:
            raise DataError(f"{table.path}: missing feature columns {missing}")
        idxs = [position[f] for f in names]
    else:
        idxs = [i for h, i in position.items() if h != drop]
    if not idxs:
        raise DataError(f"{table.path}: no feature columns")
    return _numeric_columns(table, idxs), [table.header[i] for i in idxs]


def _numeric_columns(table: _Table, idxs) -> np.ndarray:
    """Columns ``idxs`` of the data rows as a C-contiguous float matrix; every cell
    finite.  Several columns of plain lines go to numpy's C reader, which gives
    ``float``'s bytes.  A cell it refuses leaves them to ``float``, which parses what
    numpy does not (``1_0``, non-ASCII digits) and names a bad cell."""
    X = None
    if len(idxs) > 1 and table.lines is not None:
        try:
            X = np.loadtxt(table.lines, delimiter=",", usecols=idxs, comments=None,
                           quotechar=None, ndmin=2)
        except ValueError:
            pass
    if X is None:
        if len(idxs) == 1:  # one column's cells, cut from the lines unsplit: as fast as numpy
            cells = table.column(idxs[0])
        else:
            cells = (row[i] for row in table.rows for i in idxs)
        n = len(table)
        try:
            X = np.fromiter(map(float, cells), float, n * len(idxs))
        except ValueError:
            _raise_bad_cell(table.path, table.header, table.rows, idxs)
        X = X.reshape(n, len(idxs))
    if not np.isfinite(X).all():
        r, c = np.argwhere(~np.isfinite(X))[0]
        raise DataError(f"{table.path}: non-finite cell {table.rows[r][idxs[c]].strip()!r} "
                        f"at row {r + 2}, column {table.header[idxs[c]]!r}")
    return X


def _raise_bad_cell(path, header, rows, idxs):
    """Name the first cell of columns ``idxs`` that ``float`` refuses, shown without the
    whitespace ``float`` ignores at its edges: every ``str.isspace`` character (the last
    is U+3000) but the separators."""
    space = "".join(c for c in map(chr, range(0x3001)) if c.isspace() and c not in _SEPARATORS)
    for r, row in enumerate(rows):
        for i in idxs:
            try:
                float(row[i])
            except ValueError:
                cell = row[i].strip(space)
                if cell == "":
                    raise DataError(f"{path}: missing value at row {r + 2}, "
                                    f"column {header[i]!r}") from None
                raise DataError(f"{path}: non-numeric cell {cell!r} at "
                                f"row {r + 2}, column {header[i]!r}") from None


def load_csv(path, response: str, task: str) -> Dataset:
    """Read an RFC-4180 CSV with a header row into a Dataset.

    ``response`` names the response column (regression) or the label column
    (classification; labels map to one-hot in first-appearance order).
    Every other column is a numeric feature, kept in header order.
    """
    table = _read_csv(path)
    if response not in table.header:
        raise DataError(f"response column {response!r} not found in header")
    X, feature_names = _features(table, drop=response)
    y_idx = table.header.index(response)

    if task == "regression":
        Y = _numeric_columns(table, [y_idx])
        return Dataset(X=X, Y=Y, task="regression", feature_names=feature_names)

    y_raw = [cell.strip() for cell in table.column(y_idx)]
    if "" in y_raw:
        raise DataError(f"missing label in column {response!r}")
    column = {v: j for j, v in enumerate(dict.fromkeys(y_raw))}  # first-appearance order
    Y = np.zeros((len(y_raw), len(column)))
    Y[np.arange(len(y_raw)), [column[v] for v in y_raw]] = 1.0
    return Dataset(X=X, Y=Y, task="classification",
                   feature_names=feature_names, class_labels=list(column))


def _shape_from_config(cfg: dict, p1: int, m: int, task: str) -> NetworkShape:
    """The network shape of a ``qut``, ``fit`` or ``simulate`` run on ``task`` data with
    ``p1`` features and ``m`` outputs, refused as the library refuses it (``check_data``)."""
    shape_cfg = cfg.get("shape", {})
    link = shape_cfg.get("link")
    if link is None:
        link = TASK_LINKS[task][0]
    try:
        hidden = shape_cfg.get("hidden", [20])
        if not isinstance(hidden, list) or not hidden:
            raise ConfigError("shape.hidden must be a nonempty list of positive widths")
        activation = shape_cfg.get("activation")  # None: make's default
        if isinstance(activation, list):
            activation = tuple(ActivationSpec.from_dict(a) for a in activation)
        elif activation is not None:
            activation = ActivationSpec.from_dict(activation)
        shape = NetworkShape.make((p1, *hidden, m), link, activation)
        shape.check_data(task, p1, m)
    except KeyError as exc:
        raise ConfigError(f"shape.activation needs the key {exc}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid shape config: {exc}")
    return shape


def _section_config(cls, section: str, cfg: dict):
    """``cls`` from a config section, seeded by the run."""
    try:
        return cls(**cfg.get(section, {}), seed=cfg["seed"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {section} config: {exc}")


def _emit(paths: list, payload: dict, *texts: str):
    """Write ``payload`` as JSON, then each of ``texts``, to ``paths`` in turn; with
    no paths, print the JSON alone.  Nothing is written if the JSON is not finite."""
    try:
        texts = (json.dumps(payload, indent=2, allow_nan=False) + "\n", *texts)
    except ValueError:
        raise NumericalError("the result holds a non-finite number; nothing written")
    if not paths:
        print(texts[0], end="")
    try:
        for path, text in zip(paths, texts):
            path.write_text(text, newline="")  # as given: the CSV's own CRLF line ends
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}")


def _load_inputs(args):
    """Output files, dataset, network shape, and threshold and solver configs of a
    ``qut`` or ``fit`` run.  Every setting is checked before the data is read."""
    cfg, outs = _run_config(args)
    io = cfg.get("io", {})
    if "task" not in cfg:
        raise ConfigError("no task given (--task or config task)")
    if "data" not in io:
        raise ConfigError("no data file given (--data or io.data)")
    if "response" not in io:
        raise ConfigError("no response column given (--response or io.response)")
    shape = _shape_from_config(cfg, 1, 1, cfg["task"])  # the data give p1 and m
    qut_config = _section_config(QutConfig, "qut", cfg)
    solver_config = _section_config(SolverConfig, "solver", cfg)
    dataset = load_csv(io["data"], io["response"], cfg["task"])
    shape = replace(shape, widths=(dataset.n_features, *shape.widths[1:-1], dataset.n_outputs))
    return outs, dataset, shape, qut_config, solver_config


def cmd_qut(args) -> int:
    outs, dataset, shape, qut_config, _ = _load_inputs(args)
    _emit(outs, compute_qut(dataset, shape, qut_config).to_dict())
    return 0


def cmd_fit(args) -> int:
    if args.lam is not None and not 0.0 <= args.lam < math.inf:
        raise ConfigError(f"--lambda must be a finite non-negative number, got {args.lam!r}")
    outs, dataset, shape, qut_config, solver_config = _load_inputs(args)
    lam, qut_info = args.lam, None
    if lam is None:
        qut = compute_qut(dataset, shape, qut_config)
        lam = qut.lambda_qut
        qut_info = {"lambda_qut": qut.lambda_qut, "alpha": qut.alpha,
                    "mc_samples": qut.mc_samples, "seed": qut.seed}
    result = fit(shape, dataset, lam, solver_config)
    payload = result.to_dict(shape)
    payload["task"] = dataset.task
    payload["qut"] = qut_info
    payload["feature_names"] = dataset.feature_names
    payload["class_labels"] = dataset.class_labels
    # 1-based indices with original header names for human consumption
    payload["support"] = [j + 1 for j in result.support]
    payload["support_features"] = [dataset.feature_names[j] for j in result.support]
    _emit(outs, payload)
    return 0


def _load_model(path):
    """Saved fit JSON with its network shape and parameters, checked against each other."""
    try:
        saved = json.loads(_read_text(path, "model", ConfigError))
    except ValueError as exc:  # bad JSON
        raise ConfigError(f"cannot read model file: {exc}")
    try:
        shape = NetworkShape.from_dict(saved["shape"])
        theta = Theta.from_dict(saved["theta"])
        theta.check_shapes(shape)
        if not np.all(np.isfinite(theta.flat)):
            raise ValueError("parameters must be finite")
        for W in theta.deep:
            # a zero deep row, or one whose norm overflows, leaves the layer map undefined
            with np.errstate(over="ignore"):
                _, norms = normalize_rows(W)
            if not np.all(np.isfinite(norms)):
                raise ValueError("a deep weight row's norm overflows")
        for key in ("feature_names", "class_labels"):
            names = saved.get(key)
            if names is not None and not (isinstance(names, list)
                                          and all(isinstance(f, str) for f in names)):
                raise ValueError(f"{key} must be a list of strings, got {names!r}")
        names = saved.get("feature_names")
        if names is not None and len(names) != shape.n_inputs:
            raise ValueError(f"{len(names)} feature names for {shape.n_inputs} inputs")
        labels = saved.get("class_labels")
        if labels and len(labels) != shape.n_outputs:
            raise ValueError(f"{len(labels)} class labels for {shape.n_outputs} outputs")
    except KeyError as exc:
        raise ConfigError(f"model file has no {exc} entry")
    except (TypeError, ValueError, DegenerateParameterError) as exc:
        raise ConfigError(f"invalid model file: {exc}")
    return saved, shape, theta


def cmd_predict(args) -> int:
    outs = _outputs(args.out)
    saved, shape, theta = _load_model(args.model)
    X, used_names = _features(_read_csv(args.data), saved.get("feature_names"),
                              drop=args.response)
    if X.shape[1] != shape.n_inputs:
        raise DataError(f"{args.data}: {X.shape[1]} feature columns, "
                        f"the model takes {shape.n_inputs}")
    # Finite data can overflow inside the network.  forward's finiteness checks
    # decide (an overflow that the softplus absorbs in its linear branch is
    # harmless), so numpy's warnings would only add lines to stderr.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            mu = forward(shape, theta, X)
    except ValueError as exc:
        raise NumericalError(f"the network overflows on {args.data}: {exc}") from None
    payload = {"predictions": mu.tolist(), "feature_names": used_names}
    if saved.get("task", "regression") == "classification":
        idx = np.argmax(mu, axis=1)  # ties go to the smallest index
        labels = saved.get("class_labels")
        payload["class_index"] = [int(i) for i in idx]
        if labels:
            payload["class_label"] = [labels[i] for i in idx]
    _emit(outs, payload)
    return 0


def cmd_simulate(args) -> int:
    cfg, outs = _run_config(args, ".json", ".csv")
    given = {key: getattr(args, key) for key in ("n", "p1", "repetitions")
             if getattr(args, key) is not None}
    if args.s_grid:
        try:
            given["s_values"] = tuple(int(s) for s in args.s_grid.split(","))
        except ValueError:
            raise ConfigError(f"bad --s-grid {args.s_grid!r}")
    make = SimConfig.linear if args.sim_kind == "linear" else SimConfig.absdiff
    sim = make(seed=cfg["seed"], **given)
    shape = _shape_from_config(cfg, sim.p1, 1, "regression")
    report = run_sweep(sim, shape, _section_config(QutConfig, "qut", cfg),
                       _section_config(SolverConfig, "solver", cfg))
    _emit(outs, report.to_dict(), report.csv_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparseann",
        description="Sparse-input neural networks with quantile-threshold "
                    "penalty selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_data=True):
        p.add_argument("--config", help="JSON run-config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--mc-samples", dest="mc_samples", type=int, default=None)
        p.add_argument("--out", default=None, help="output file (default stdout)")
        if with_data:
            p.add_argument("--data", default=None, help="CSV data file")
            p.add_argument("--response", default=None, help="response/label column")
            p.add_argument("--task", choices=TASK_LINKS, default=None)

    p_qut = sub.add_parser("qut", help="compute the penalty threshold")
    common(p_qut)
    p_qut.set_defaults(func=cmd_qut)

    p_fit = sub.add_parser("fit", help="select the penalty and fit")
    common(p_fit)
    p_fit.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="skip threshold selection and use this penalty")
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="apply a saved fit to new data")
    p_pred.add_argument("--model", required=True, help="saved fit JSON")
    p_pred.add_argument("--data", required=True, help="CSV with feature columns")
    p_pred.add_argument("--response", default=None,
                        help="column to ignore if present")
    p_pred.add_argument("--out", default=None)
    p_pred.set_defaults(func=cmd_predict)

    p_sim = sub.add_parser("simulate", help="run a support-recovery sweep")
    common(p_sim, with_data=False)
    p_sim.add_argument("--sim-kind", choices=("linear", "absdiff"), default="linear")
    p_sim.add_argument("--s-grid", default=None, help="comma-separated sparsities")
    p_sim.add_argument("--reps", dest="repetitions", type=int, default=None)
    p_sim.add_argument("--n", type=int, default=None)
    p_sim.add_argument("--p1", type=int, default=None)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except SparseAnnError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
