"""End-to-end tests of the command-line surface."""

import builtins
import csv
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparseann import (
    ConfigError,
    DataError,
    FitResult,
    NetworkShape,
    NumericalError,
    SolverConfig,
    Theta,
    estimated_support,
    forward,
    init_theta,
)
from sparseann import cli
from sparseann.cli import load_csv, main


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture
def regression_csv(tmp_path):
    rng = np.random.default_rng(0)
    n, p = 40, 4
    X = rng.standard_normal((n, p))
    y = 3.0 * X[:, 1] + 0.3 * rng.standard_normal(n)
    path = tmp_path / "reg.csv"
    header = [f"x{j}" for j in range(p)] + ["y"]
    rows = [list(X[i]) + [y[i]] for i in range(n)]
    _write_csv(path, header, rows)
    return path


@pytest.fixture
def classification_csv(tmp_path):
    rng = np.random.default_rng(1)
    n, p = 30, 3
    X = rng.standard_normal((n, p))
    labels = np.where(X[:, 0] > 0, "pos", "neg")
    path = tmp_path / "cls.csv"
    header = [f"x{j}" for j in range(p)] + ["label"]
    rows = [list(X[i]) + [labels[i]] for i in range(n)]
    _write_csv(path, header, rows)
    return path


def test_load_csv_regression(regression_csv):
    ds = load_csv(regression_csv, "y", "regression")
    assert ds.n == 40
    assert ds.n_features == 4
    assert ds.feature_names == ["x0", "x1", "x2", "x3"]


def test_load_csv_labels_first_appearance_order(tmp_path):
    path = tmp_path / "labels.csv"
    _write_csv(path, ["x", "label"], [[1.0, "b"], [2.0, "a"], [3.0, "b"]])
    ds = load_csv(path, "label", "classification")
    assert ds.class_labels == ["b", "a"]
    assert np.array_equal(ds.Y, [[1, 0], [0, 1], [1, 0]])


def test_load_csv_error_names_cell(tmp_path):
    path = tmp_path / "bad.csv"
    _write_csv(path, ["x", "y"], [[1.0, 2.0], ["oops", 3.0]])
    from sparseann import DataError

    with pytest.raises(DataError, match="row 3.*'x'"):
        load_csv(path, "y", "regression")


def test_load_csv_parses_cells_like_float(tmp_path):
    cells = [[" 1.5", "+2", "-0"], ["3e-2 ", " -4.25E+1 ", "+0.0"], ["1_0", "  .5", "7."]]
    path = tmp_path / "cells.csv"
    _write_csv(path, ["a", "b", "y"], cells)
    ds = load_csv(path, "y", "regression")
    want_X = [[float(c) for c in row[:2]] for row in cells]
    want_Y = [[float(row[2])] for row in cells]
    assert ds.X.tolist() == want_X and ds.Y.tolist() == want_Y
    assert np.signbit(ds.Y[0, 0])  # "-0" keeps its sign


def test_load_csv_missing_value(tmp_path):
    path = tmp_path / "gap.csv"
    _write_csv(path, ["x", "y"], [[1.0, 2.0], ["", 3.0]])
    from sparseann import DataError

    with pytest.raises(DataError, match="missing value"):
        load_csv(path, "y", "regression")


def _csv_text(rows, end="\n") -> str:
    return "".join(",".join(row) + end for row in rows)


_H = ["x0", "x1", "x2", "x3", "y"]
_R = [["0.5", "-1.25", "2", "3e-2", "1"], ["1.5", "0.75", "-0.5", "4", "-2"],
      ["-2", "1", "0.125", "-3.5", "0.5"]]
_LONG = "1" * (csv.field_size_limit() + 1)


def _with_cell(r, c, value):
    """The regression table whose data row ``r`` holds ``value`` in column ``c``."""
    rows = [list(row) for row in _R]
    rows[r][c] = value
    return [_H, *rows]


def _labelled(*labels, at=4):
    """Columns x0..x3 with a ``label`` column of ``labels`` inserted at ``at``."""
    return [row[:4][:at] + [label] + row[:4][at:]
            for row, label in zip([_H, *_R], ["label", *labels])]


def _padded(table, left, right=""):
    """``table`` with each data cell between ``left`` and ``right``."""
    return [table[0], *[[f"{left}{c}{right}" for c in row] for row in table[1:]]]


# name -> (task, whether the text is plain, file content, part of the DataError or None)
CSV_PARITY_CASES = {
    "plain": ("regression", True, _csv_text([_H, *_R]), None),
    "quoted_label_with_comma": ("classification", False,
                                _csv_text(_labelled('"a,b"', "c", '"a,b"')), None),
    "quoted_number": ("regression", False, _csv_text(_with_cell(0, 1, '"-1.25"')), None),
    "hash_label": ("classification", True, _csv_text(_labelled("#a", "b", "#a")), None),
    "hash_cell": ("regression", True, _csv_text(_with_cell(1, 2, "#")),
                  "non-numeric cell '#' at row 3, column 'x2'"),
    "blank_line_inside": ("regression", False,
                          _csv_text([_H, _R[0]]) + "\n" + _csv_text(_R[1:]),
                          "row 3 has 0 cells, expected 5"),
    "blank_line_at_end": ("regression", False, _csv_text([_H, *_R]) + "\n",
                          "row 5 has 0 cells, expected 5"),
    "crlf": ("regression", True, _csv_text([_H, *_R], "\r\n"), None),
    "lone_cr": ("regression", False, _csv_text([_H, *_R], "\r"), None),
    "bom": ("regression", True, "\ufeff" + _csv_text([_H, *_R]), None),
    "underscore_digits": ("regression", True, _csv_text(_with_cell(0, 0, "1_0")), None),
    "arabic_indic_digits": ("regression", True, _csv_text(_with_cell(2, 1, "\u0661\u0662")), None),
    "extra_cell": ("regression", False, _csv_text([_H, _R[0] + ["7"], *_R[1:]]),
                   "row 2 has 6 cells, expected 5"),
    "missing_cell": ("regression", False, _csv_text([_H, _R[0], _R[1][:4], _R[2]]),
                     "row 3 has 4 cells, expected 5"),
    "no_final_newline": ("regression", True, _csv_text([_H, *_R])[:-1], None),
    "spaces": ("regression", True, _csv_text(_padded([_H, *_R], " ", "  ")), None),
    "tabs": ("classification", True, _csv_text(_padded(_labelled("a", "b", "a"), "\t")), None),
    "inf_feature": ("regression", True, _csv_text(_with_cell(2, 3, "inf")),
                    "non-finite cell 'inf' at row 4, column 'x3'"),
    "nan_response": ("regression", True, _csv_text(_with_cell(0, 4, "nan")),
                     "non-finite cell 'nan' at row 2, column 'y'"),
    "header_only": ("regression", True, _csv_text([_H]), "no data rows"),
    "response_first": ("regression", True, _csv_text([row[4:] + row[:4] for row in [_H, *_R]]),
                       None),
    "label_in_the_middle": ("classification", True, _csv_text(_labelled("a", "b", "a", at=2)),
                            None),
    "nul_byte": ("regression", False, _csv_text(_with_cell(1, 0, "1\0")),
                 "non-numeric cell '1\\x00' at row 3, column 'x0'"),
    # numpy strips the ASCII separators \x1c-\x1f around a number, float refuses them
    "ascii_separator": ("regression", False, _csv_text(_with_cell(1, 1, "2\x1f")),
                        "non-numeric cell '2\\x1f' at row 3, column 'x1'"),
    "cell_over_the_field_limit": ("regression", False, _csv_text(_with_cell(1, 1, _LONG)),
                                  "line 3: field larger than field limit"),
    # the whole text is decoded before any cell is parsed, so the Latin-1 byte at the
    # end is named, not the long cell before it
    "over_the_field_limit_then_not_utf8": ("regression", False,
                                           _csv_text(_with_cell(0, 1, _LONG)) + "\u00e9",
                                           "cannot read data file: 'utf-8' codec can't decode"),
}


def _refuse(*args, **kwargs):
    raise ValueError("numpy's reader is not used")


def _parity_models(tmp_path):
    """The model file over x0..x3, and a copy whose feature_names read x1 twice."""
    model = Path(_model_file(tmp_path, lambda m: None))
    saved = json.loads(model.read_text())
    saved["feature_names"] = ["x0", "x1", "x1", "x3"]
    twice = tmp_path / "twice.json"
    twice.write_text(json.dumps(saved))
    return [str(model), str(twice)]


def _load_and_predict(path, task, models, capsys):
    """What load_csv gives (array bytes and names, or the DataError), and each
    ``predict`` of ``models`` on ``path`` (exit code, stderr, output bytes)."""
    try:
        ds = load_csv(path, "y" if task == "regression" else "label", task)
        loaded = (ds.X.tobytes(), ds.X.shape, ds.X.flags.c_contiguous, ds.Y.tobytes(),
                  ds.feature_names, ds.class_labels)
    except DataError as exc:
        loaded = str(exc)
    predicted = []
    for model in models:
        out = path.with_name("pred.json")
        code = main(["predict", "--data", str(path), "--model", model, "--out", str(out)])
        predicted.append((code, capsys.readouterr().err,
                          out.read_bytes() if out.exists() else None))
        out.unlink(missing_ok=True)
    return loaded, predicted


@pytest.mark.parametrize("name", sorted(CSV_PARITY_CASES))
def test_numpys_reader_and_the_csv_path_agree(name, tmp_path, capsys, monkeypatch):
    task, plain, content, message = CSV_PARITY_CASES[name]
    path = tmp_path / "data.csv"
    path.write_bytes(content.encode("latin-1" if "not_utf8" in name else "utf-8"))
    assert (cli._plain_lines(content) is not None) == plain
    models = _parity_models(tmp_path)
    got = _load_and_predict(path, task, models, capsys)
    if message is None:
        assert not isinstance(got[0], str), got[0]
    else:
        assert message in got[0]
    monkeypatch.setattr(cli.np, "loadtxt", _refuse)  # float over the same lines
    assert _load_and_predict(path, task, models, capsys) == got
    monkeypatch.setattr(cli, "_plain_lines", lambda text: None)  # csv.reader over the file
    assert _load_and_predict(path, task, models, capsys) == got


def _bom_file(path, text):
    """``path`` holding ``text`` after a UTF-8 byte-order mark."""
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    return str(path)


def test_a_byte_order_mark_is_not_part_of_the_first_column(regression_csv, tmp_path):
    lines = regression_csv.read_text().splitlines()
    y_first = "".join(f"{y},{xs}\n" for xs, y in (line.rsplit(",", 1) for line in lines))
    out = tmp_path / "qut.json"
    argv = ["qut", "--data", _bom_file(tmp_path / "y_first.csv", y_first), *_REG]
    assert main([*argv, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["lambda_qut"] > 0


def test_a_model_fit_on_a_bom_file_predicts_on_the_same_data_without_one(regression_csv,
                                                                          tmp_path):
    model, pred = tmp_path / "model.json", tmp_path / "pred.json"
    bom = _bom_file(tmp_path / "bom.csv", regression_csv.read_text())
    assert main(["fit", "--data", bom, *_REG, "--lambda", "1", "--out", str(model)]) == 0
    assert json.loads(model.read_text())["feature_names"] == ["x0", "x1", "x2", "x3"]
    assert main(["predict", "--data", str(regression_csv), "--model", str(model),
                 "--out", str(pred)]) == 0


def test_a_config_file_may_start_with_a_byte_order_mark(regression_csv, tmp_path):
    out = tmp_path / "qut.json"
    cfg = _bom_file(tmp_path / "cfg.json", json.dumps({"seed": 3}))
    assert main(["qut", "--data", str(regression_csv), *_REG, "--config", cfg,
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 3


def test_a_decoding_error_names_the_byte_offset_in_the_file(tmp_path, capsys):
    head = b"x,y\n" + b"1.5,2.25\n" * 3000  # well past the first 8 KB
    path = tmp_path / "latin1.csv"
    path.write_bytes(head + b"\xe9,1\n")
    assert main(["qut", "--data", str(path), *_REG]) == 3
    assert f"can't decode byte 0xe9 in position {len(head)}:" in capsys.readouterr().err


@pytest.mark.parametrize("quoted", [False, True])
def test_the_data_file_is_opened_once(quoted, regression_csv, tmp_path, monkeypatch):
    path = regression_csv
    if quoted:  # not plain: the csv module reads it
        path = tmp_path / "quoted.csv"
        path.write_text("".join(f'"{line}"\n'.replace(",", '","')
                                for line in regression_csv.read_text().splitlines()))
    opened, real_open = [], open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert main(["qut", "--data", str(path), *_REG, "--out", str(tmp_path / "qut.json")]) == 0
    assert opened.count(str(path)) == 1


_PADDED_DECIMAL = r"\A[ \t]*[+-]?[0-9]{0,6}(\.[0-9]{0,6})?([eE][+-]?[0-9]{1,3})?[ \t]*\Z"
# characters near a number's edge where parsers disagree: whitespace of every kind,
# the ASCII separators, underscores and non-ASCII digits
_CELL_CHARS = st.one_of(st.characters(), st.sampled_from(
    "0123456789+-.eE_ \t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000\u0661"))


@settings(deadline=None, max_examples=300)
@given(st.one_of(st.floats().map(repr), st.from_regex(_PADDED_DECIMAL),
                 st.text(_CELL_CHARS, max_size=8)))
def test_numpy_reads_a_plain_cell_as_float_does(cell):
    """On a cell of a plain text, numpy's reader gives ``float``'s bytes, the sign of
    -0 included, and reads no cell that ``float`` refuses."""
    lines = cli._plain_lines(f"a,b\n{cell},0\n")
    assume(lines is not None)
    try:
        got = np.loadtxt(lines[1:], delimiter=",", usecols=[0, 1], comments=None,
                         quotechar=None, ndmin=2)[0, 0]
    except ValueError:
        return
    try:
        want = float(cell)
    except ValueError:
        pytest.fail(f"numpy reads {cell!r} as {got!r}, float refuses it")
    assert np.float64(want).tobytes() == got.tobytes()


def test_qut_command(regression_csv, tmp_path):
    out = tmp_path / "qut.json"
    code = main([
        "qut", "--data", str(regression_csv), "--response", "y",
        "--task", "regression", "--mc-samples", "100", "--seed", "3",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["lambda_qut"] > float(np.median(payload["lambda_samples"]))
    assert len(payload["lambda_samples"]) == 100
    assert payload["task"] == "regression"


def test_fit_huge_lambda_gives_constant_model(regression_csv, tmp_path):
    out = tmp_path / "model.json"
    code = main([
        "fit", "--data", str(regression_csv), "--response", "y",
        "--task", "regression", "--lambda", "1e9", "--seed", "0",
        "--out", str(out),
    ])
    assert code == 0
    saved = json.loads(out.read_text())
    assert saved["support"] == []
    assert saved["support_features"] == []
    assert saved["qut"] is None


def _fast_config(tmp_path, extra=None):
    cfg = {"solver": {"descent_epochs": 100, "prox_max_iter": 300},
           "qut": {"mc_samples": 100}}
    if extra:
        cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_fit_then_predict_round_trip(regression_csv, tmp_path):
    model = tmp_path / "model.json"
    cfg = _fast_config(tmp_path)
    assert main([
        "fit", "--config", str(cfg), "--data", str(regression_csv),
        "--response", "y", "--task", "regression", "--seed", "1",
        "--out", str(model),
    ]) == 0
    saved = json.loads(model.read_text())
    # support is reported 1-based with the original header names
    assert all(1 <= j <= 4 for j in saved["support"])
    assert saved["support_features"] == [f"x{j - 1}" for j in saved["support"]]

    pred = tmp_path / "pred.json"
    assert main([
        "predict", "--model", str(model), "--data", str(regression_csv),
        "--response", "y", "--out", str(pred),
    ]) == 0
    got = np.asarray(json.loads(pred.read_text())["predictions"])

    shape = NetworkShape.from_dict(saved["shape"])
    theta = Theta.from_dict(saved["theta"])
    ds = load_csv(regression_csv, "y", "regression")
    assert np.array_equal(got, forward(shape, theta, ds.X))


def test_model_file_support_is_read_from_its_theta(regression_csv, tmp_path):
    model = tmp_path / "model.json"
    assert main([
        "fit", "--config", str(_fast_config(tmp_path)), "--data", str(regression_csv),
        "--response", "y", "--task", "regression", "--seed", "1", "--out", str(model),
    ]) == 0
    saved = json.loads(model.read_text())
    support = estimated_support(Theta.from_dict(saved["theta"]))
    assert support  # the response depends on x1
    assert saved["support"] == [j + 1 for j in support]


def test_classification_fit_predict_labels(classification_csv, tmp_path):
    model = tmp_path / "model.json"
    cfg = _fast_config(tmp_path)
    assert main([
        "fit", "--config", str(cfg), "--data", str(classification_csv),
        "--response", "label", "--task", "classification", "--seed", "2",
        "--out", str(model),
    ]) == 0
    pred = tmp_path / "pred.json"
    assert main([
        "predict", "--model", str(model), "--data", str(classification_csv),
        "--response", "label", "--out", str(pred),
    ]) == 0
    payload = json.loads(pred.read_text())
    assert set(payload["class_label"]) <= {"pos", "neg"}
    assert len(payload["class_index"]) == 30
    mu = np.asarray(payload["predictions"])
    assert payload["class_index"] == np.argmax(mu, axis=1).tolist()


def test_predict_class_ties_take_smallest_index(classification_csv, tmp_path):
    shape = NetworkShape.make((3, 2, 2), "softmax")
    theta = init_theta(shape, SolverConfig(), np.random.default_rng(8))
    theta.theta1[...] = 0.0
    theta.c[...] = 0.0  # both classes at probability 1/2 on every row
    saved = FitResult(theta, [], 1.0, [1.0]).to_dict(shape)
    saved.update(task="classification", feature_names=["x0", "x1", "x2"],
                 class_labels=["neg", "pos"])
    model, pred = tmp_path / "model.json", tmp_path / "pred.json"
    model.write_text(json.dumps(saved))
    assert main(["predict", "--model", str(model), "--data", str(classification_csv),
                 "--response", "label", "--out", str(pred)]) == 0
    payload = json.loads(pred.read_text())
    assert payload["class_index"] == [0] * 30
    assert payload["class_label"] == ["neg"] * 30
    mu = np.asarray(payload["predictions"])
    assert payload["class_index"] == np.argmax(mu, axis=1).tolist()


def test_simulate_deterministic(tmp_path):
    cfg = _fast_config(tmp_path, {"shape": {"hidden": [4]}})
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.json"
        assert main([
            "simulate", "--config", str(cfg), "--sim-kind", "linear",
            "--s-grid", "0,1", "--reps", "2", "--seed", "7",
            "--n", "25", "--p1", "6", "--out", str(out),
        ]) == 0
        outs.append(out)
    assert outs[0].read_text() == outs[1].read_text()
    csv_a = (tmp_path / "a.csv").read_text()
    csv_b = (tmp_path / "b.csv").read_text()
    assert csv_a == csv_b
    report = json.loads(outs[0].read_text())
    assert {r["s"] for r in report["rows"]} == {0, 1}


def test_unknown_config_key_exits_2(regression_csv, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"solvr": {}}))
    code = main([
        "qut", "--config", str(cfg), "--data", str(regression_csv),
        "--response", "y", "--task", "regression",
    ])
    assert code == 2


def test_bad_data_exits_3(tmp_path):
    path = tmp_path / "bad.csv"
    _write_csv(path, ["x", "y"], [["huh", 1.0]])
    code = main(["qut", "--data", str(path), "--response", "y",
                 "--task", "regression"])
    assert code == 3


def test_missing_response_column_exits_3(regression_csv):
    code = main(["qut", "--data", str(regression_csv), "--response", "z",
                 "--task", "regression"])
    assert code == 3


def test_constant_response_exits_4(tmp_path):
    path = tmp_path / "const.csv"
    _write_csv(path, ["x", "y"], [[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    code = main(["qut", "--data", str(path), "--response", "y",
                 "--task", "regression", "--mc-samples", "100"])
    # the observed response being constant is fine for QUT (nulls are drawn),
    # so this should succeed; a constant *null draw* cannot happen
    assert code == 0


def test_missing_task_exits_2(regression_csv):
    code = main(["qut", "--data", str(regression_csv), "--response", "y"])
    assert code == 2


def _reject_non_finite(token):
    raise ValueError(f"non-finite number {token} in JSON output")


def _config_file(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _csv_with_cell(tmp_path, value, column):
    """Small regression CSV whose second row holds ``value`` in ``column``."""
    path = tmp_path / "cell.csv"
    rows = [[1.0, 2.0], [0.5, 3.0], [2.0, 1.0]]
    rows[1][["x", "y"].index(column)] = value
    _write_csv(path, ["x", "y"], rows)
    return str(path)


def _csv_with_header(tmp_path, header, rows=10):
    """Small CSV of ``rows`` rows of random numbers under ``header``."""
    path = tmp_path / "header.csv"
    _write_csv(path, header,
               np.random.default_rng(0).standard_normal((rows, len(header))).tolist())
    return str(path)


def _csv_with_long_cell(tmp_path):
    """Regression CSV whose one x cell is longer than the csv module's field limit."""
    path = tmp_path / "long.csv"
    path.write_text("x,y\n1.0,2.0\n" + "1" * (csv.field_size_limit() + 1) + ",3.0\n")
    return str(path)


def _header_only_csv(tmp_path):
    """CSV over x0..x3 with a header and no data rows."""
    path = tmp_path / "empty.csv"
    _write_csv(path, ["x0", "x1", "x2", "x3"], [])
    return str(path)


def _csv_with_huge_features(tmp_path):
    """30-row regression CSV whose features x0..x2 are normals times 1e154, 1e227
    and 1e300: the first warm-start step overflows."""
    rng = np.random.default_rng(0)
    X = rng.standard_normal((30, 3)) * np.logspace(154, 300, 3)
    path = tmp_path / "huge.csv"
    _write_csv(path, ["x0", "x1", "x2", "y"],
               np.column_stack([X, rng.standard_normal(30)]).tolist())
    return str(path)


def _csv_with_huge_x0(tmp_path):
    """Feature CSV over x0..x3 whose second row holds 1e308 in x0."""
    path = tmp_path / "huge.csv"
    rows = np.random.default_rng(0).standard_normal((5, 4)).tolist()
    rows[1][0] = 1e308
    _write_csv(path, ["x0", "x1", "x2", "x3"], rows)
    return str(path)


def _single_label_csv(tmp_path):
    """40-row classification CSV over x0..x2 whose every label is ``red``."""
    path = tmp_path / "single.csv"
    X = np.random.default_rng(0).standard_normal((40, 3))
    _write_csv(path, ["x0", "x1", "x2", "label"], [[*x, "red"] for x in X.tolist()])
    return str(path)


def _text_file(tmp_path, name, text):
    """A file named ``name`` holding ``text``."""
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _blank_label_csv(tmp_path):
    """Classification CSV over x0, x1 whose third label is blank."""
    path = tmp_path / "blank.csv"
    _write_csv(path, ["x0", "x1", "label"],
               [[0.5, 1.0, "a"], [1.5, -1.0, "b"], [2.0, 0.0, " "], [1.0, 1.0, "a"]])
    return str(path)


def _latin1_file(tmp_path, name, text):
    """A file holding ``text`` in Latin-1, so not UTF-8 where ``text`` has an accent."""
    path = tmp_path / name
    path.write_bytes(text.encode("latin-1"))
    return str(path)


def _model_file(tmp_path, edit):
    """Saved fit of a (4, 3, 1) network over x0..x3, changed by ``edit``."""
    shape = NetworkShape.make((4, 3, 1))
    theta = init_theta(shape, SolverConfig(), np.random.default_rng(0))
    saved = FitResult(theta, [0, 1, 2, 3], 1.0, [1.0]).to_dict(shape)
    saved["feature_names"] = ["x0", "x1", "x2", "x3"]
    edit(saved)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(saved))
    return str(path)


def _weigh_x0_by_3(saved):
    saved["theta"]["W1"][0][0] = 3.0


def _zero_a_deep_row(saved):
    saved["theta"]["deep"][0][0] = [0.0, 0.0, 0.0]


def _scale_a_deep_row_by_1e308(saved):
    saved["theta"]["deep"][0][0] = [w * 1e308 for w in saved["theta"]["deep"][0][0]]


_RELU = {"shape": {"activation": {"M": "inf", "u0": 0.0}}}
_REG = ["--response", "y", "--task", "regression", "--mc-samples", "100"]
_ONE_LABEL = ["--response", "label", "--task", "classification", "--mc-samples", "100"]


def _simulate(t, *extra):
    """A small, fast linear ``simulate`` run with the arguments ``extra`` added."""
    cfg = {"shape": {"hidden": [2]}, "solver": {"descent_epochs": 1, "prox_max_iter": 1}}
    return ["simulate", "--sim-kind", "linear", "--n", "30", "--p1", "10",
            "--mc-samples", "100", "--config", _config_file(t, cfg), *extra]


def _configured(section, key, value, command="fit"):
    """Builder of a ``command`` run whose config alone sets ``section.key`` to ``value``."""
    extra = ["--lambda", "1"] if command == "fit" else []
    return lambda t, d: [command, "--data", d, "--response", "y", "--task", "regression",
                         *extra, "--config", _config_file(t, {section: {key: value}})]


def _linked(command, task, link):
    """Builder of a ``command`` run that reads the CSV as ``task`` with ``shape.link`` = ``link``."""
    return lambda t, d: [command, "--data", d, "--response", "y", "--task", task,
                         "--mc-samples", "100",
                         "--config", _config_file(t, {"shape": {"link": link}})]


# name -> (exit code, builder(tmp_path, regression csv path) -> argv before --out)
CLI_EXIT_CASES = {
    "qut_ok": (0, lambda t, d: ["qut", "--data", d, *_REG]),
    "predict_ok": (0, lambda t, d: ["predict", "--data", d, "--model",
                                    _model_file(t, lambda m: None)]),
    "qut_nan_feature": (3, lambda t, d: ["qut", "--data", _csv_with_cell(t, "nan", "x"),
                                         *_REG]),
    "qut_inf_response": (3, lambda t, d: ["qut", "--data", _csv_with_cell(t, "-inf", "y"),
                                          *_REG]),
    "fit_nan_feature": (3, lambda t, d: ["fit", "--data", _csv_with_cell(t, "nan", "x"),
                                         *_REG]),
    "qut_repeated_header_name": (3, lambda t, d: [
        "qut", "--data", _csv_with_header(t, ["a", "y", "b", "y"]), *_REG]),
    "qut_no_feature_columns": (3, lambda t, d: [
        "qut", "--data", _csv_with_header(t, ["y"]), *_REG]),
    "qut_one_data_row": (3, lambda t, d: [
        "qut", "--data", _csv_with_header(t, ["x0", "x1", "y"], rows=1), *_REG]),
    "fit_one_data_row": (3, lambda t, d: [
        "fit", "--data", _csv_with_header(t, ["x0", "x1", "y"], rows=1), *_REG]),
    "qut_cell_beyond_the_field_limit": (3, lambda t, d: [
        "qut", "--data", _csv_with_long_cell(t), *_REG]),
    "predict_no_data_rows": (3, lambda t, d: [
        "predict", "--data", _header_only_csv(t), "--model", _model_file(t, lambda m: None)]),
    "activation_m_not_a_number": (2, lambda t, d: [
        "qut", "--data", d, *_REG,
        "--config", _config_file(t, {"shape": {"activation": {"M": "abc"}}})]),
    "hidden_not_a_number": (2, lambda t, d: [
        "qut", "--data", d, *_REG, "--config", _config_file(t, {"shape": {"hidden": ["x"]}})]),
    "qut_relu_limit": (2, lambda t, d: [
        "qut", "--data", d, *_REG, "--config", _config_file(t, _RELU)]),
    "fit_relu_limit": (2, lambda t, d: [
        "fit", "--data", d, *_REG, "--config", _config_file(t, _RELU)]),
    # the solver differentiates the activation too
    "fit_relu_limit_with_lambda": (2, lambda t, d: [
        "fit", "--data", d, *_REG, "--lambda", "1", "--config", _config_file(t, _RELU)]),
    "simulate_relu_limit": (2, lambda t, d: [
        "simulate", "--reps", "1", "--n", "20", "--p1", "4",
        "--config", _config_file(t, _RELU)]),
    "predict_model_without_shape": (2, lambda t, d: [
        "predict", "--data", d, "--model", _model_file(t, lambda m: m.pop("shape"))]),
    "predict_theta_mismatches_shape": (2, lambda t, d: [
        "predict", "--data", d, "--model",
        _model_file(t, lambda m: m["theta"].update(W1=[r[:3] for r in m["theta"]["W1"]]))]),
    "predict_wrong_feature_count": (3, lambda t, d: [
        "predict", "--data", d, "--model", _model_file(t, lambda m: m.pop("feature_names"))]),
    "predict_feature_names_wrong_length": (2, lambda t, d: [
        "predict", "--data", d, "--model",
        _model_file(t, lambda m: m.update(feature_names=["x0"]))]),
    "qut_negative_seed": (2, lambda t, d: ["qut", "--data", d, *_REG, "--seed", "-1"]),
    "qut_seed_not_a_number": (2, lambda t, d: [
        "qut", "--data", d, *_REG, "--config", _config_file(t, {"seed": "x"})]),
    "qut_fractional_seed": (2, lambda t, d: [
        "qut", "--data", d, *_REG, "--config", _config_file(t, {"seed": 1.5})]),
    "fit_seed_not_a_number": (2, lambda t, d: [
        "fit", "--data", d, *_REG, "--config", _config_file(t, {"seed": "x"})]),
    # the run's seed seeds both the threshold and the solver
    "qut_removed_section_seed": (2, _configured("qut", "seed", 1, "qut")),
    "simulate_removed_section_seed": (2, lambda t, d: [
        "simulate", "--reps", "1", "--n", "20", "--p1", "4",
        "--config", _config_file(t, {"solver": {"seed": 1}})]),
    "simulate_negative_seed": (2, lambda t, d: [
        "simulate", "--reps", "1", "--n", "20", "--p1", "4", "--seed", "-1"]),
    "fit_negative_lambda": (2, lambda t, d: ["fit", "--data", d, *_REG, "--lambda", "-1"]),
    "fit_nan_lambda": (2, lambda t, d: ["fit", "--data", d, *_REG, "--lambda", "nan"]),
    "qut_nan_u0": (2, lambda t, d: [
        "qut", "--data", d, *_REG,
        "--config", _config_file(t, {"shape": {"activation": {"M": 20, "u0": "nan"}}})]),
    "qut_infinite_u0": (2, lambda t, d: [
        "qut", "--data", d, *_REG,
        "--config", _config_file(t, {"shape": {"activation": {"M": 20, "u0": "inf"}}})]),
    "qut_unknown_activation_key": (2, lambda t, d: [
        "qut", "--data", d, *_REG,
        "--config", _config_file(t, {"shape": {"activation": {"M": 20, "U0": 0.0}}})]),
    "fit_unknown_key_in_an_activation_list": (2, lambda t, d: [
        "fit", "--data", d, *_REG, "--lambda", "1",
        "--config", _config_file(t, {"shape": {"activation": [{"M": 20, "U0": 0.0}]}})]),
    "qut_fractional_mc_samples": (2, _configured("qut", "mc_samples", 150.5, "qut")),
    "qut_nan_mc_samples": (2, _configured("qut", "mc_samples", float("nan"), "qut")),
    "fit_fractional_descent_epochs": (2, _configured("solver", "descent_epochs", 10.5)),
    "fit_fractional_prox_max_iter": (2, _configured("solver", "prox_max_iter", 2.5)),
    "fit_bool_prox_max_iter": (2, _configured("solver", "prox_max_iter", True)),
    "fit_removed_init_scale": (2, _configured("solver", "init_scale", 1.0)),
    "fit_removed_lr_descent": (2, _configured("solver", "lr_descent", 1e-2)),
    "fit_removed_prox_tol": (2, _configured("solver", "prox_tol", 1e-8)),
    "fit_classification_identity_link": (2, _linked("fit", "classification", "identity")),
    "qut_classification_identity_link": (2, _linked("qut", "classification", "identity")),
    "fit_regression_softmax_link": (2, _linked("fit", "regression", "softmax")),
    "fit_diverging_descent": (4, lambda t, d: [
        "fit", "--data", _csv_with_huge_features(t), *_REG, "--lambda", "1"]),
    "qut_single_label": (3, lambda t, d: ["qut", "--data", _single_label_csv(t), *_ONE_LABEL]),
    "fit_single_label": (3, lambda t, d: ["fit", "--data", _single_label_csv(t), *_ONE_LABEL]),
    # x0 = 1e308: with the weight 3 on x0, X @ W1.T overflows before any activation;
    # with the model's weights below 1 only the softplus argument overflows, and its
    # value is still the finite, linear branch
    "predict_overflowing_first_layer": (4, lambda t, d: [
        "predict", "--data", _csv_with_huge_x0(t), "--model", _model_file(t, _weigh_x0_by_3)]),
    "predict_huge_finite_cell": (0, lambda t, d: [
        "predict", "--data", _csv_with_huge_x0(t), "--model", _model_file(t, lambda m: None)]),
    # model files no longer carry the objective traces, and older ones still load
    "predict_model_with_objective_trace": (0, lambda t, d: [
        "predict", "--data", d, "--model",
        _model_file(t, lambda m: m.update(objective_trace=[[2.0, 1.5], [1.5, 1.25]]))]),
    "predict_zero_deep_row": (2, lambda t, d: [
        "predict", "--data", d, "--model", _model_file(t, _zero_a_deep_row)]),
    "predict_deep_row_norm_overflows": (2, lambda t, d: [
        "predict", "--data", d, "--model", _model_file(t, _scale_a_deep_row_by_1e308)]),
    "simulate_zero_reps": (2, lambda t, d: _simulate(t, "--reps", "0")),
    "simulate_negative_reps": (2, lambda t, d: _simulate(t, "--reps", "-3")),
    "simulate_negative_sparsity": (2, lambda t, d: _simulate(t, "--reps", "1", "--s-grid", "-1")),
    "simulate_one_sample": (2, lambda t, d: _simulate(t, "--reps", "1", "--n", "1")),
    "hidden_fractional": (2, _configured("shape", "hidden", [2.7], "qut")),
    "hidden_bool": (2, _configured("shape", "hidden", [True], "qut")),
    "hidden_string": (2, _configured("shape", "hidden", ["3"], "qut")),
    "qut_io_data_not_a_string": (2, lambda t, d: [
        "qut", *_REG, "--config", _config_file(t, {"io": {"data": [d]}})]),
    "qut_io_response_empty": (2, lambda t, d: [
        "qut", "--data", d, "--task", "regression",
        "--config", _config_file(t, {"io": {"response": ""}})]),
    "qut_io_out_not_a_string": (2, _configured("io", "out", 7, "qut")),
    "predict_feature_names_not_a_list": (2, lambda t, d: [
        "predict", "--data", d, "--model", _model_file(t, lambda m: m.update(feature_names=5))]),
    "predict_feature_names_a_string": (2, lambda t, d: [
        "predict", "--data", d, "--model",
        _model_file(t, lambda m: m.update(feature_names="x0x1"))]),
    "predict_class_labels_a_string": (2, lambda t, d: [
        "predict", "--data", d, "--model",
        _model_file(t, lambda m: m.update(task="classification", class_labels="x"))]),
    # open() refuses a path that holds a NUL character with a ValueError, not an OSError
    "qut_nul_in_data_path": (3, lambda t, d: [
        "qut", *_REG, "--config", _config_file(t, {"io": {"data": d.replace(".csv", "\0.csv")}})]),
    "qut_nul_in_config_path": (2, lambda t, d: [
        "qut", "--data", d, *_REG, "--config", str(t / "cfg\0.json")]),
    "predict_nul_in_model_path": (2, lambda t, d: [
        "predict", "--data", d, "--model", str(t / "model\0.json")]),
    # and a file that is not UTF-8 with a UnicodeDecodeError, a ValueError too
    "qut_data_not_utf8": (3, lambda t, d: [
        "qut", "--data", _latin1_file(t, "latin1.csv", "x,y\n\u00e9,1\n2,3\n"), *_REG]),
    "qut_config_not_utf8": (2, lambda t, d: [
        "qut", "--data", d, *_REG, "--config", _latin1_file(t, "cfg.json", '{"seed": "\u00e9"}')]),
    "predict_model_not_utf8": (2, lambda t, d: [
        "predict", "--data", d, "--model", _latin1_file(t, "model.json", '{"task": "\u00e9"}')]),
    "qut_config_not_json": (2, lambda t, d: [
        "qut", "--data", d, *_REG, "--config", _text_file(t, "cfg.json", '{"seed": 1')]),
    "qut_config_root_not_an_object": (2, lambda t, d: [
        "qut", "--data", d, *_REG, "--config", _config_file(t, [{"seed": 1}])]),
    "qut_config_section_not_an_object": (2, lambda t, d: [
        "qut", "--data", d, *_REG, "--config", _config_file(t, {"qut": [0.1]})]),
    "qut_config_unknown_task": (2, lambda t, d: [
        "qut", "--data", d, "--response", "y", "--config", _config_file(t, {"task": "ranking"})]),
    "qut_config_task_an_array": (2, lambda t, d: [
        "qut", "--data", d, "--response", "y",
        "--config", _config_file(t, {"task": ["regression"]})]),
    "qut_empty_data_file": (3, lambda t, d: ["qut", "--data", _text_file(t, "e.csv", ""), *_REG]),
    "predict_data_missing_a_model_feature": (3, lambda t, d: [
        "predict", "--data", _csv_with_header(t, ["x0", "x1", "x2", "y"]),
        "--model", _model_file(t, lambda m: None)]),
    "qut_blank_label": (3, lambda t, d: ["qut", "--data", _blank_label_csv(t), *_ONE_LABEL]),
    "hidden_a_number": (2, _configured("shape", "hidden", 20, "qut")),
    "hidden_empty": (2, _configured("shape", "hidden", [], "qut")),
    "qut_activation_without_m": (2, lambda t, d: [
        "qut", "--data", d, *_REG,
        "--config", _config_file(t, {"shape": {"activation": {"u0": 0.0}}})]),
    "predict_model_not_json": (2, lambda t, d: [
        "predict", "--data", d, "--model", _text_file(t, "model.json", '{"shape": ')]),
    "predict_model_nan_parameter": (2, lambda t, d: [
        "predict", "--data", d, "--model",
        _model_file(t, lambda m: m["theta"]["c"].__setitem__(0, float("nan")))]),
    "predict_class_labels_wrong_length": (2, lambda t, d: [
        "predict", "--data", d, "--model",
        _model_file(t, lambda m: m.update(task="classification", class_labels=["a", "b"]))]),
    "simulate_s_grid_not_integers": (2, lambda t, d: _simulate(t, "--s-grid", "1,x")),
    "fit_two_hidden_layers_an_activation_each": (0, lambda t, d: [
        "fit", "--data", d, *_REG, "--lambda", "1", "--config", _config_file(t, {
            "shape": {"hidden": [3, 2], "activation": [{"M": 20}, {"M": 10, "u0": 0.5}]},
            "solver": {"descent_epochs": 5, "prox_max_iter": 5}})]),
}


@pytest.mark.parametrize("name", sorted(CLI_EXIT_CASES))
def test_cli_exit_paths(name, regression_csv, tmp_path, capsys):
    code, build = CLI_EXIT_CASES[name]
    out = tmp_path / "out.json"
    assert main([*build(tmp_path, str(regression_csv)), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
        json.loads(out.read_text(), parse_constant=_reject_non_finite)
    else:
        assert len(err.splitlines()) == 1 and err.endswith("\n")
        assert not out.exists()


def _missing_dir(tmp_path):
    return tmp_path / "no" / "such" / "out.json"


def _a_dir(tmp_path):
    (tmp_path / "out.json").mkdir()
    return tmp_path / "out.json"


def _csv_sibling_a_dir(tmp_path):
    """A JSON output path that can be written, whose CSV sibling is a directory."""
    (tmp_path / "sweep.csv").mkdir()
    return tmp_path / "sweep.json"


def _nul_in_name(tmp_path):
    """A file name that holds a NUL character, which no file system takes."""
    return tmp_path / "a\0b.json"


def _root(tmp_path):
    """A directory whose name is empty, so it takes no suffix."""
    return Path("/")


_COMMANDS = {
    "qut": lambda t, d: ["qut", "--data", d, *_REG],
    "fit": lambda t, d: ["fit", "--data", d, *_REG],
    "predict": lambda t, d: ["predict", "--data", d, "--model", _model_file(t, lambda m: None)],
    "simulate": lambda t, d: _simulate(t, "--reps", "1"),
}
# name -> (builder(tmp_path, regression csv path) -> argv before --out, output path)
UNWRITABLE_OUT_CASES = {
    "qut": (_COMMANDS["qut"], _missing_dir),
    "fit": (_COMMANDS["fit"], _missing_dir),
    "predict": (_COMMANDS["predict"], _missing_dir),
    "simulate_json": (_COMMANDS["simulate"], _missing_dir),
    "simulate_csv": (_COMMANDS["simulate"], _csv_sibling_a_dir),
    **{f"{command}_a_dir": (build, _a_dir) for command, build in _COMMANDS.items()},
    "simulate_root": (_COMMANDS["simulate"], _root),
    **{f"{command}_nul": (build, _nul_in_name) for command, build in _COMMANDS.items()},
    # "--out ''" counts as not given, so the config's io.out is the one checked
    "qut_nul_in_io_out": (lambda t, d: [
        "qut", "--data", d, *_REG,
        "--config", _config_file(t, {"io": {"out": str(_nul_in_name(t))}})], lambda t: ""),
}


def _not_before_the_checks(*args, **kwargs):
    raise AssertionError("every setting is checked before any data is read or any work runs")


_WORK = ("_read_csv", "compute_qut", "fit", "run_sweep")


@pytest.mark.parametrize("name", sorted(UNWRITABLE_OUT_CASES))
def test_unwritable_out_exits_2(name, regression_csv, tmp_path, capsys, monkeypatch):
    build, out_path = UNWRITABLE_OUT_CASES[name]
    argv = [*build(tmp_path, str(regression_csv)), "--out", str(out_path(tmp_path))]
    before = sorted(tmp_path.rglob("*"))
    for work in _WORK:
        monkeypatch.setattr(cli, work, _not_before_the_checks)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("config error: cannot write output file")
    assert sorted(tmp_path.rglob("*")) == before  # nothing written


def test_emit_refuses_a_non_finite_result_and_maps_a_write_error(tmp_path, capsys):
    # both happen after the work is done, so no exit case above reaches them
    out = tmp_path / "out.json"
    with pytest.raises(NumericalError, match="non-finite number; nothing written"):
        cli._emit([out], {"lambda_qut": float("nan")})
    with pytest.raises(NumericalError):
        cli._emit([], {"lambda_qut": float("inf")})
    assert not out.exists() and capsys.readouterr().out == ""
    with pytest.raises(ConfigError, match="cannot write output file: .*No such file"):
        cli._emit([tmp_path / "gone" / "out.json"], {"lambda_qut": 1.0})


@pytest.mark.parametrize("name", sorted(n for n, (code, _) in CLI_EXIT_CASES.items() if code == 2))
def test_config_errors_are_found_before_any_work(name, regression_csv, tmp_path, monkeypatch):
    argv = CLI_EXIT_CASES[name][1](tmp_path, str(regression_csv))
    for work in _WORK:
        monkeypatch.setattr(cli, work, _not_before_the_checks)
    assert main(argv) == 2


def test_flags_override_the_config(regression_csv, tmp_path):
    by_config, by_flags = tmp_path / "by_config.json", tmp_path / "by_flags.json"
    cfg = _config_file(tmp_path, {
        "task": "regression", "seed": 4, "qut": {"alpha": 0.1, "mc_samples": 200},
        "io": {"data": str(regression_csv), "response": "y", "out": str(by_config)}})
    assert main(["qut", "--config", cfg]) == 0
    # a flag given as "" counts as not given
    assert main(["qut", "--config", cfg, "--seed", "9", "--alpha", "0.2", "--mc-samples", "100",
                 "--data", "", "--out", str(by_flags)]) == 0
    for path, want in ((by_config, (0.1, 200, 4)), (by_flags, (0.2, 100, 9))):
        got = json.loads(path.read_text())
        assert (got["alpha"], got["mc_samples"], got["seed"]) == want
