"""Every file the package reads goes through the two readers in data.py,
and every read fault is a PerstreesError naming the file or its row and
column; through the CLI, it exits 2 with one line."""

import ast
import pathlib

import numpy as np
import pytest

import perstrees
from perstrees.cli import main
from perstrees.errors import ParseError, PerstreesError
from perstrees.opt.mip import load_solution_json
from perstrees.submatch import (
    greedy_submatch,
    load_matched_csv,
    mahalanobis_metric,
    optimal_submatch,
    save_matched_csv,
)

from helpers import random_dataset

UNDECODABLE = b"\xff\xfe\x00"
JSON_FAULTS = {
    "undecodable": UNDECODABLE,
    "invalid-json": b"{broken",
    "nested-past-recursion": b"[" * 100_000 + b"]" * 100_000,
}
MATCHED = b"subject_index,factual_t,factual_y,yhat_1,yhat_2\n"
MATCHED_FAULTS = {
    "undecodable": UNDECODABLE,
    "undecodable-body": MATCHED + b"0,1,\xff,1,2\n",
    "short-row": MATCHED + b"0,1\n",
    "nan-cell": MATCHED + b"0,1,1,1,nan\n",
    "word-yhat": MATCHED + b"0,1,1,1,big\n",
    "label-0": MATCHED + b"0,0,1,1,2\n",
    "label-7": MATCHED + b"0,7,1,1,2\n",
    "negative-index": MATCHED + b"-3,1,1,1,2\n",
    "fractional-index": MATCHED + b"1.5,1,1,1,2\n",
    "word-index": MATCHED + b"0,1,1,1,2\nfirst,2,2,1,2\n",
    "own-arm-mismatch": MATCHED + b"0,1,1,3,2\n",
}
READERS = {"solution": (load_solution_json, JSON_FAULTS),
           "matched": (load_matched_csv, MATCHED_FAULTS)}
CLI_READERS = {
    "spec": ("gen-data", "--out", "d.csv", "--spec"),
    "config": ("experiment", "--config"),
    "model": ("predict", "--data", "d.csv", "--out", "p.csv", "--model"),
}


@pytest.mark.parametrize("reader, fault", [
    (reader, fault) for reader, (_, faults) in READERS.items() for fault in faults
])
def test_a_read_fault_names_the_file_or_its_cell(tmp_path, reader, fault):
    read, faults = READERS[reader]
    path = tmp_path / "input"
    path.write_bytes(faults[fault])
    with pytest.raises(PerstreesError) as err:
        read(path)
    cell = getattr(err.value, "row", None) is not None and err.value.column is not None
    assert str(path) in str(err.value) or cell, str(err.value)


@pytest.mark.parametrize("row, column", [
    (b"0,1,1,1,big", "yhat_2"), (b"0,1,x,1,2", "factual_y"), (b"first,1,1,1,2", "subject_index"),
])
def test_a_matched_cell_that_is_not_a_number_names_its_column(tmp_path, row, column):
    path = tmp_path / "matched.csv"
    path.write_bytes(MATCHED + row + b"\n")
    with pytest.raises(ParseError, match="not a number") as err:
        load_matched_csv(path)
    assert (err.value.row, err.value.column) == (2, column)


@pytest.mark.parametrize("fault", JSON_FAULTS)
@pytest.mark.parametrize("reader", CLI_READERS)
def test_a_cli_read_fault_exits_2_with_one_line_naming_the_file(tmp_path, capsys, reader, fault):
    path = tmp_path / "input.json"
    path.write_bytes(JSON_FAULTS[fault])
    assert main([*CLI_READERS[reader], str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"perstrees: error: {path}: ") and err.count("\n") == 1, err


def test_unparsable_params_exit_2_with_one_line_naming_the_flag(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("x1,treatment,outcome\n0,1,0\n1,2,1\n")
    code = main(["train", "--algo", "pt", "--data", str(data), "--params", "{broken",
                 "--out", str(tmp_path / "m.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("perstrees: error: --params: invalid JSON: ") and err.count("\n") == 1
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("row, named", [
    ("0,0,1,1,2,0.5", "treatment label 0 < 1 (row 3)"),
    ("0,3,1,1,2,0.5", "label 3 exceeds the 2 counterfactual columns (row 3)"),
    ("0,1,1,5,2,0.5", "Y must equal the counterfactual of the received treatment (subject 1)"),
    ("0,1,1,1,2,1.5", "propensities must lie in (0, 1] (subject 1)"),
])
def test_a_cli_domain_fault_exits_2_with_one_line_naming_the_file(tmp_path, capsys, row, named):
    # CSV row r holds subject r - 2: row 1 is the header
    data, out = tmp_path / "d.csv", tmp_path / "m.json"
    data.write_text("x1,treatment,outcome,y1,y2,q\n0,1,0,0,3,0.5\n" + row + "\n")
    code = main(["train", "--algo", "pt", "--data", str(data), "--cf-cols", "y1,y2",
                 "--q-col", "q", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"perstrees: error: {data}: {named}\n"
    assert not out.exists()


@pytest.mark.parametrize("row, named", [
    ("0,1,oops", "not a number (row 3, column 'outcome')"),
    ("nan,1,2", "not a finite number (row 3, column 'x1')"),
    ("0,1.5,2", "treatment label must be an integer (row 3, column 'treatment')"),
    ("0,1", "expected 3 cells, got 2 (row 3, column '')"),
])
def test_a_cli_parse_fault_exits_2_with_one_line_naming_the_file(tmp_path, capsys, row, named):
    data, out = tmp_path / "bad.csv", tmp_path / "m.json"
    data.write_text("x1,treatment,outcome\n0,2,1\n" + row + "\n")
    assert main(["train", "--algo", "pt", "--data", str(data), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"perstrees: error: {data}: {named}\n"
    assert not out.exists()


@pytest.mark.parametrize("fault", ["negative-index", "fractional-index", "word-index"])
def test_a_matched_subject_index_fault_names_the_file_and_its_cell(tmp_path, fault):
    path = tmp_path / "matched.csv"
    path.write_bytes(MATCHED_FAULTS[fault])
    with pytest.raises(ParseError) as err:
        load_matched_csv(path)
    assert str(err.value).startswith(f"{path}: ")
    assert (err.value.row, err.value.column) == (3 if fault == "word-index" else 2, "subject_index")


@pytest.mark.parametrize("protocol", ["greedy", "optimal"])
def test_matched_sets_load_back_as_written(tmp_path, protocol):
    ds = random_dataset(np.random.default_rng(4), 60, 2, 2, all_arms=True)
    metric = mahalanobis_metric(ds)
    if protocol == "greedy":
        mts = greedy_submatch(ds, 25, metric, seed=1)
    else:
        mts = optimal_submatch(ds, 12, metric)
    path = tmp_path / "matched.csv"
    save_matched_csv(mts, path)
    back = load_matched_csv(path)
    want = {"drawn": mts.drawn, "factual_t": mts.factual_t, "factual_y": mts.factual_y,
            "yhat": mts.yhat}
    assert list(back) == list(want)
    for key, value in want.items():
        assert back[key].dtype == value.dtype and back[key].shape == value.shape, key
        assert back[key].tobytes() == value.tobytes(), key


FILE_READERS = {"json.load", "json.loads", "csv.reader"}


def _reader_uses(path):
    """(top-level definition, reader) for each use of a file reader in a
    module, as an attribute (json.loads) or an import (from json import)."""
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            yield from ((getattr(top, "name", None), n) for n in names if n in FILE_READERS)


def test_only_data_reads_json_and_csv():
    package = pathlib.Path(perstrees.__file__).parent
    uses = {
        (path.relative_to(package).as_posix(), *use)
        for path in package.rglob("*.py") if path != package / "data.py"
        for use in _reader_uses(path)
    }
    assert uses == {("cli.py", "cmd_train", "json.loads")}  # the --params string
