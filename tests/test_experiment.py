"""run_experiment across worker counts: the same rows, the same CSV
bytes and the same first error whether its cells run in process or in
a fork pool, and no worker left behind."""

import logging
import multiprocessing
import os
import re
import signal
from concurrent.futures.process import BrokenProcessPool

import pytest

from perstrees import experiment
from perstrees.errors import ParseError, UndefinedImpurityError
from perstrees.experiment import experiment_config_from_doc, run_experiment

ORACLE = {
    "version": 1,
    "algorithms": [{"name": "pt", "params": {"n_min_leaf": 5}, "label": "tree"}, "rc-ols"],
    "n_grid": [60, 90],
    "replications": 2,
    "protocol": {"kind": "oracle", "n_test": 40},
    "master_seed": 5,
    "data": {"preset": "quadratic"},
}
GREEDY = {
    "version": 1,
    "algorithms": ["pt", {"name": "pf", "params": {"trees_count": 3}}, "rc-knn"],
    "n_grid": [200, 300],
    "replications": 2,
    "protocol": {"kind": "greedy-submatch", "n_test": 30},
    "master_seed": 2,
    "data": {"preset": "warfarin-like"},
}
# greedy-submatching 50 of 100 subjects leaves a cell without arm 2
FAILING = dict(GREEDY, algorithms=["pt"], n_grid=[100, 200], replications=3, master_seed=19,
               protocol={"kind": "greedy-submatch", "n_test": 50})


def config(doc, path):
    return experiment_config_from_doc(dict(doc, output=str(path)))


def with_workers(monkeypatch, workers):
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: workers)


def raised(cfg):
    with pytest.raises(Exception) as err:
        run_experiment(cfg)
    return err.value


@pytest.mark.parametrize("doc", [ORACLE, GREEDY], ids=["oracle", "greedy-submatch"])
def test_rows_and_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, doc):
    outputs = {}
    for workers in (1, 2, 3):
        with_workers(monkeypatch, workers)
        cfg = config(doc, tmp_path / f"curve{workers}.csv")
        outputs[workers] = (run_experiment(cfg), (tmp_path / f"curve{workers}.csv").read_bytes())
        assert multiprocessing.active_children() == []
    assert outputs[2] == outputs[1] and outputs[3] == outputs[1]


def test_the_serial_error_at_every_worker_count(tmp_path, monkeypatch):
    cfg = config(FAILING, tmp_path / "curve.csv")
    with_workers(monkeypatch, 1)
    serial = raised(cfg)
    assert isinstance(serial, UndefinedImpurityError)
    assert str(serial) == "treatment 2 absent from the subsample"
    for workers in (2, 3):
        with_workers(monkeypatch, workers)
        err = raised(cfg)
        assert (type(err), str(err), vars(err)) == (type(serial), str(serial), vars(serial))
        assert "in fit_pt" in str(err.__cause__)
        assert multiprocessing.active_children() == []
    assert not (tmp_path / "curve.csv").exists()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_first_failing_cell_in_grid_order_raises(tmp_path, monkeypatch, workers):
    # the pool starts the largest n first, so later cells fail before earlier ones
    cell = experiment._cell

    def failing_cell(cfg, n, rep):
        if rep > 1:
            raise ParseError(f"cell {n} {rep}", row=n, column=str(rep))
        return cell(cfg, n, rep)

    monkeypatch.setattr(experiment, "_cell", failing_cell)
    with_workers(monkeypatch, workers)
    err = raised(config(ORACLE, tmp_path / "curve.csv"))
    assert isinstance(err, ParseError)
    assert (str(err), err.row, err.column) == ("cell 60 2 (row 60, column '2')", 60, "2")
    if workers > 1:
        cause = str(err.__cause__)
        assert re.search(r"raise ParseError.*\nperstrees.errors.ParseError: cell 60 2", cause)
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "curve.csv").exists()


def test_a_worker_that_dies_raises_instead_of_hanging(tmp_path, monkeypatch):
    cell = experiment._cell

    def dying_cell(cfg, n, rep):
        if (n, rep) == (90, 2):
            assert multiprocessing.parent_process() is not None, "the cell ran in the test process"
            os._exit(1)
        return cell(cfg, n, rep)

    def hung(signum, frame):
        raise TimeoutError("run_experiment still waits for a dead worker")

    monkeypatch.setattr(experiment, "_cell", dying_cell)
    with_workers(monkeypatch, 2)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(BrokenProcessPool):
            run_experiment(config(ORACLE, tmp_path / "curve.csv"))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "curve.csv").exists()


@pytest.mark.parametrize("case", ["one CPU", "no fork", "daemon"])
def test_cells_run_in_process(tmp_path, monkeypatch, case):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    with_workers(monkeypatch, 1 if case == "one CPU" else 2)
    if case == "no fork":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    if case == "daemon":
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    rows = run_experiment(config(ORACLE, tmp_path / "curve.csv"))
    assert [r[:3] for r in rows[:2]] == [("rc-ols", 60, 1), ("rc-ols", 60, 2)]


@pytest.mark.parametrize("workers", [1, 2])
def test_one_debug_record_per_cell_in_grid_order(tmp_path, monkeypatch, caplog, workers):
    with_workers(monkeypatch, workers)
    with caplog.at_level(logging.DEBUG, logger="perstrees"):
        run_experiment(config(ORACLE, tmp_path / "curve.csv"))
    records = [r.getMessage() for r in caplog.records if r.name == "perstrees.experiment"]
    cells = [re.match(r"experiment cell n=(\d+) replication=(\d+): ", m).groups() for m in records]
    assert cells == [("60", "1"), ("60", "2"), ("90", "1"), ("90", "2")]
    timing = r"fit \d+\.\d{4} s, evaluate \d+\.\d{4} s"
    for message in records:
        assert re.search(rf": tree {timing}; rc-ols {timing}$", message), message
