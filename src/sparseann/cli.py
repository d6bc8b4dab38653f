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
from dataclasses import fields
from pathlib import Path

import numpy as np

from .activations import ActivationSpec
from .errors import ConfigError, DataError, NumericalError, SparseAnnError, check_int
from .network import Dataset, NetworkShape, Theta, forward, predict_class
from .qut import QutConfig, _deriv0_product, compute_qut
from .simulate import SimConfig, run_sweep
from .solver import SolverConfig, fit

_SECTION_KEYS = {
    "shape": {"hidden", "link", "activation"},
    "qut": {f.name for f in fields(QutConfig)},
    "solver": {f.name for f in fields(SolverConfig)},
    "io": {"data", "response", "out"},
}
_CONFIG_SECTIONS = {"task", "seed", *_SECTION_KEYS}


def _reject_unknown(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def load_run_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
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
    if "task" in cfg and cfg["task"] not in ("regression", "classification"):
        raise ConfigError(f"unknown task {cfg['task']!r}")
    return cfg


def _read_csv(path):
    """Header and data rows of a CSV file; every row must match the header."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file")
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read data file: {exc}")
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"{path}: row {r + 2} has {len(row)} cells, "
                            f"expected {len(header)}")
    return header, rows


def _numeric_columns(path, header, rows, idxs) -> np.ndarray:
    """Columns ``idxs`` of the data rows as a float matrix; every cell finite."""
    cells = (row[i] for row in rows for i in idxs)
    try:
        X = np.fromiter(map(float, cells), float, len(rows) * len(idxs))
    except ValueError:
        _raise_bad_cell(path, header, rows, idxs)
    X = X.reshape(len(rows), len(idxs))
    bad = np.argwhere(~np.isfinite(X))
    if bad.size:
        r, c = bad[0]
        raise DataError(f"{path}: non-finite cell {rows[r][idxs[c]].strip()!r} at "
                        f"row {r + 2}, column {header[idxs[c]]!r}")
    return X


def _raise_bad_cell(path, header, rows, idxs):
    """Name the first cell of columns ``idxs`` that does not parse as a number."""
    for r, row in enumerate(rows):
        for i in idxs:
            cell = row[i].strip()
            if cell == "":
                raise DataError(f"{path}: missing value at row {r + 2}, "
                                f"column {header[i]!r}")
            try:
                float(cell)
            except ValueError:
                raise DataError(f"{path}: non-numeric cell {cell!r} at "
                                f"row {r + 2}, column {header[i]!r}") from None
    raise DataError(f"{path}: the numeric columns do not parse")


def load_csv(path, response: str, task: str) -> Dataset:
    """Read an RFC-4180 CSV with a header row into a Dataset.

    ``response`` names the response column (regression) or the label column
    (classification; labels map to one-hot in first-appearance order).
    Every other column is a numeric feature, kept in header order.
    """
    header, rows = _read_csv(path)
    if response not in header:
        raise DataError(f"response column {response!r} not found in header")
    if not rows:
        raise DataError(f"{path}: no data rows")
    y_idx = header.index(response)
    x_idxs = [i for i in range(len(header)) if i != y_idx]
    feature_names = [header[i] for i in x_idxs]
    X = _numeric_columns(path, header, rows, x_idxs)

    if task == "regression":
        Y = _numeric_columns(path, header, rows, [y_idx])
        return Dataset(X=X, Y=Y, task="regression", feature_names=feature_names)

    y_raw = [row[y_idx].strip() for row in rows]
    labels = []
    for v in y_raw:
        if v == "":
            raise DataError(f"missing label in column {response!r}")
        if v not in labels:
            labels.append(v)
    Y = np.zeros((len(rows), len(labels)))
    for r, v in enumerate(y_raw):
        Y[r, labels.index(v)] = 1.0
    return Dataset(X=X, Y=Y, task="classification",
                   feature_names=feature_names, class_labels=labels)


# The links each task's loss is defined on, default first: the square-root
# loss takes any real output, cross-entropy a probability row.
_TASK_LINKS = {"regression": ("identity",), "classification": ("softmax", "logit")}


def _shape_from_config(cfg: dict, p1: int, m: int, task: str) -> NetworkShape:
    shape_cfg = cfg.get("shape", {})
    link = shape_cfg.get("link")
    if link is None:
        link = _TASK_LINKS[task][0]
    if link not in _TASK_LINKS[task]:
        raise ConfigError(f"shape.link for {task} must be one of "
                          f"{list(_TASK_LINKS[task])}, got {link!r}")
    try:
        hidden = shape_cfg.get("hidden", [20])
        if not isinstance(hidden, list) or not hidden:
            raise ConfigError("shape.hidden must be a nonempty list of positive widths")
        act_cfg = shape_cfg.get("activation")
        if act_cfg is None:
            activation = ActivationSpec()
        elif isinstance(act_cfg, list):
            activation = tuple(ActivationSpec.from_dict(a) for a in act_cfg)
        else:
            activation = ActivationSpec.from_dict(act_cfg)
        return NetworkShape.make((p1, *hidden, m), link, activation)
    except KeyError as exc:
        raise ConfigError(f"shape.activation needs the key {exc}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid shape config: {exc}")


def _require_threshold_activations(shape: NetworkShape):
    """Reject hidden activations the threshold formulas cannot use (the ReLU limit)."""
    try:
        _deriv0_product(shape)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _section_config(cls, section: str, cfg: dict, args, **flags):
    """``cls`` from a config section, overridden by the flags given, seeded by the run."""
    kw = dict(cfg.get(section, {}))
    kw.update((k, v) for k, v in flags.items() if v is not None)
    kw.setdefault("seed", _seed_of(cfg, args))
    try:
        return cls(**kw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {section} config: {exc}")


def _qut_config(cfg: dict, args) -> QutConfig:
    return _section_config(QutConfig, "qut", cfg, args,
                           alpha=args.alpha, mc_samples=args.mc_samples)


def _seed_of(cfg: dict, args) -> int:
    seed = args.seed if getattr(args, "seed", None) is not None else cfg.get("seed", 0)
    check_int(seed, "seed", error=ConfigError)
    return seed


def _resolve_io(cfg: dict, args):
    io = cfg.get("io", {})
    data = args.data or io.get("data")
    response = args.response or io.get("response")
    out = args.out or io.get("out")
    if not data:
        raise ConfigError("no data file given (--data or io.data)")
    if not response:
        raise ConfigError("no response column given (--response or io.response)")
    return data, response, out


def _task_of(cfg: dict, args) -> str:
    task = getattr(args, "task", None) or cfg.get("task")
    if task is None:
        raise ConfigError("no task given (--task or config task)")
    return task


def _emit(payload: dict, out):
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:
        raise NumericalError("the result holds a non-finite number; nothing written")
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _load_inputs(args):
    """Config, task, dataset, network shape and output path of a qut or fit run."""
    cfg = load_run_config(args.config) if args.config else {}
    task = _task_of(cfg, args)
    data, response, out = _resolve_io(cfg, args)
    dataset = load_csv(data, response, task)
    shape = _shape_from_config(cfg, dataset.n_features, dataset.n_outputs, task)
    return cfg, task, dataset, shape, out


def _threshold(dataset: Dataset, shape: NetworkShape, cfg: dict, args):
    _require_threshold_activations(shape)
    return compute_qut(dataset, shape, _qut_config(cfg, args))


def cmd_qut(args) -> int:
    cfg, _, dataset, shape, out = _load_inputs(args)
    _emit(_threshold(dataset, shape, cfg, args).to_dict(), out)
    return 0


def cmd_fit(args) -> int:
    if args.lam is not None and not 0.0 <= args.lam < math.inf:
        raise ConfigError(f"--lambda must be a finite non-negative number, got {args.lam!r}")
    cfg, task, dataset, shape, out = _load_inputs(args)
    if args.lam is not None:
        lam = args.lam
        qut_info = None
    else:
        qut = _threshold(dataset, shape, cfg, args)
        lam = qut.lambda_qut
        qut_info = {"lambda_qut": qut.lambda_qut, "alpha": qut.alpha,
                    "mc_samples": qut.mc_samples, "seed": qut.seed}
    result = fit(shape, dataset, lam, _section_config(SolverConfig, "solver", cfg, args))
    payload = result.to_dict(shape)
    payload["task"] = task
    payload["qut"] = qut_info
    payload["feature_names"] = dataset.feature_names
    payload["class_labels"] = dataset.class_labels
    # 1-based indices with original header names for human consumption
    payload["support"] = [j + 1 for j in result.support]
    payload["support_features"] = [dataset.feature_names[j] for j in result.support]
    _emit(payload, out)
    return 0


def _load_model(path):
    """Saved fit JSON with its network shape and parameters, checked against each other."""
    try:
        with open(path) as fh:
            saved = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read model file: {exc}")
    try:
        shape = NetworkShape.from_dict(saved["shape"])
        theta = Theta.from_dict(saved["theta"])
        theta.check_shapes(shape)
        if not np.all(np.isfinite(theta.flat)):
            raise ValueError("parameters must be finite")
        labels = saved.get("class_labels")
        if labels and len(labels) != shape.n_outputs:
            raise ValueError(f"{len(labels)} class labels for {shape.n_outputs} outputs")
    except KeyError as exc:
        raise ConfigError(f"model file has no {exc} entry")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model file: {exc}")
    return saved, shape, theta


def cmd_predict(args) -> int:
    saved, shape, theta = _load_model(args.model)
    X, used_names = _load_feature_csv(args.data, saved.get("feature_names"),
                                      drop=args.response)
    if X.shape[1] != shape.n_inputs:
        raise DataError(f"{args.data}: {X.shape[1]} feature columns, "
                        f"the model takes {shape.n_inputs}")
    mu = forward(shape, theta, X)
    payload = {"predictions": mu.tolist(), "feature_names": used_names}
    if saved.get("task", "regression") == "classification":
        idx = predict_class(shape, theta, X)
        labels = saved.get("class_labels")
        payload["class_index"] = [int(i) for i in idx]
        if labels:
            payload["class_label"] = [labels[i] for i in idx]
    _emit(payload, args.out)
    return 0


def _load_feature_csv(path, feature_names, drop=None):
    """Feature matrix from a CSV, selecting the model's columns by name."""
    header, rows = _read_csv(path)
    if feature_names:
        missing = [f for f in feature_names if f not in header]
        if missing:
            raise DataError(f"{path}: missing feature columns {missing}")
        idxs = [header.index(f) for f in feature_names]
    else:
        idxs = [i for i, h in enumerate(header) if h != drop]
    return _numeric_columns(path, header, rows, idxs), [header[i] for i in idxs]


def cmd_simulate(args) -> int:
    cfg = load_run_config(args.config) if args.config else {}
    seed = _seed_of(cfg, args)
    kind = args.sim_kind or "linear"
    if args.s_grid:
        try:
            s_values = tuple(int(s) for s in args.s_grid.split(","))
        except ValueError:
            raise ConfigError(f"bad --s-grid {args.s_grid!r}")
    else:
        s_values = (0,)
    reps = 100 if args.reps is None else args.reps
    kw = {"s_values": s_values, "repetitions": reps, "seed": seed}
    if args.n is not None:
        kw["n"] = args.n
    if args.p1 is not None:
        kw["p1"] = args.p1
    sim = SimConfig.linear(**kw) if kind == "linear" else SimConfig.absdiff(**kw)
    shape = _shape_from_config(cfg, sim.p1, 1, "regression")
    _require_threshold_activations(shape)

    report = run_sweep(sim, shape, _qut_config(cfg, args),
                       _section_config(SolverConfig, "solver", cfg, args))
    out = args.out or (cfg.get("io", {}) or {}).get("out")
    if out:
        base = Path(out)
        json_path = base if base.suffix == ".json" else base.with_suffix(".json")
        _emit(report.to_dict(), json_path)
        report.write_csv(json_path.with_suffix(".csv"))
    else:
        _emit(report.to_dict(), None)
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
            p.add_argument("--task", choices=("regression", "classification"),
                           default=None)

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
    p_sim.add_argument("--sim-kind", choices=("linear", "absdiff"), default=None)
    p_sim.add_argument("--s-grid", default=None, help="comma-separated sparsities")
    p_sim.add_argument("--reps", type=int, default=None)
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
    except (NumericalError, SparseAnnError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
