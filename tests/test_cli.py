import json
import logging
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import ADJACENT
import perstrees
from perstrees import model_io
from perstrees.cli import build_parser, main
from perstrees.data import load_csv
from perstrees.errors import SchemaError
from perstrees.forest import PersonalizationForest
from perstrees.model_io import load_model, model_from_doc, model_to_doc, save_model
from perstrees.risk import oracle_metrics
from perstrees.submatch import load_matched_csv


def run(*argv):
    """Invoke the CLI in-process; argparse exits become return codes."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def quad_spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"preset": "quadratic", "n": 120, "seed": 3}))
    return path


@pytest.fixture
def quad_csv(tmp_path, quad_spec):
    out = tmp_path / "data.csv"
    assert run("gen-data", "--spec", str(quad_spec), "--out", str(out)) == 0
    return out


class TestGenData:
    def test_writes_loadable_csv(self, tmp_path, quad_spec, capsys):
        out = tmp_path / "data.csv"
        assert run("gen-data", "--spec", str(quad_spec), "--out", str(out)) == 0
        assert "120 rows" in capsys.readouterr().out
        ds = load_csv(out, cf_cols=["y1", "y2"], q_col="q")
        assert (ds.n, ds.d, ds.m) == (120, 2, 2)
        assert ds.CF is not None and ds.Q is not None

    def test_rerun_is_byte_identical(self, tmp_path, quad_spec):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("gen-data", "--spec", str(quad_spec), "--out", str(a)) == 0
        assert run("gen-data", "--spec", str(quad_spec), "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_explicit_spec_without_preset(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "n": 50,
                    "d": 3,
                    "m": 2,
                    "seed": 1,
                    "outcome_model": {"name": "linear", "coef": [[1, 0, 0], [0, 1, 0]]},
                    "propensity_model": {"name": "uniform"},
                }
            )
        )
        out = tmp_path / "data.csv"
        assert run("gen-data", "--spec", str(spec), "--out", str(out)) == 0
        assert load_csv(out, cf_cols=["y1", "y2"], q_col="q").d == 3


class TestTrainPredictEvaluate:
    def test_full_pipeline(self, tmp_path, quad_csv, capsys):
        cols = ("--cf-cols", "y1,y2", "--q-col", "q")
        model = tmp_path / "model.json"
        code = run(
            "train", "--algo", "pt", "--data", str(quad_csv), *cols,
            "--params", '{"n_min_leaf": 5, "delta_max": 2}', "--out", str(model),
        )
        assert code == 0
        assert json.loads(model.read_text())["kind"] == "pt"

        pres = tmp_path / "pres.csv"
        code = run(
            "predict", "--model", str(model), "--data", str(quad_csv), *cols,
            "--out", str(pres),
        )
        assert code == 0
        lines = pres.read_text().splitlines()
        assert lines[0] == "prescription"
        assert len(lines) == 121
        assert set(lines[1:]) <= {"1", "2"}

        capsys.readouterr()
        code = run(
            "evaluate", "--model", str(model), "--data", str(quad_csv), *cols,
            "--oracle",
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["protocol"] == "oracle" and doc["n_test"] == 120

        # the CLI must agree with the library on the same inputs
        ds = load_csv(quad_csv, cf_cols=["y1", "y2"], q_col="q")
        score = oracle_metrics(ds, load_model(model))
        assert doc["risk"] == score.risk
        assert doc["p1"] == pytest.approx(score.p1)

    def test_train_is_deterministic(self, tmp_path, quad_csv):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ("train", "--algo", "pf", "--data", str(quad_csv),
                "--params", '{"trees_count": 4, "n_min_leaf": 8}', "--seed", "5")
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "algo,params",
        [
            ("rc-ols", "{}"),
            ("rc-knn", '{"k": 5}'),
            ("1va-ols", "{}"),
            ("1v1b-knn", '{"k": 5}'),
        ],
    )
    def test_baseline_algorithms_train(self, tmp_path, quad_csv, algo, params):
        model = tmp_path / "model.json"
        code = run(
            "train", "--algo", algo, "--data", str(quad_csv),
            "--params", params, "--out", str(model),
        )
        assert code == 0
        assert load_model(model).m == 2

    def test_optimal_tree_trains_to_tree_model(self, tmp_path, quad_csv):
        model = tmp_path / "model.json"
        code = run(
            "train", "--algo", "opt", "--data", str(quad_csv),
            "--params", '{"delta": 1, "n_min_leaf": 5, "n_cuts": 3}',
            "--out", str(model),
        )
        assert code == 0
        doc = json.loads(model.read_text())
        assert doc["kind"] == "pt"
        assert "split" in doc["root"]

    @pytest.mark.parametrize("algo,params,kind", [
        ("pt", '{"n_min_leaf": 3}', "pt"),
        ("pf", '{"trees_count": 3, "n_min_leaf": 8}', "pf"),
        ("opt", '{"delta": 2, "n_min_leaf": 5, "n_cuts": 3}', "pt"),
        ("rc-ols", "{}", "rc-ols"),
        ("rc-knn", '{"k": 5}', "rc-knn"),
        ("1va-knn", '{"k": 5}', "1va"),
        ("1v1a-ols", "{}", "1v1a"),
        ("1v1b-knn", '{"k": 5}', "1v1b"),
    ])
    def test_model_file_resaves_byte_identical(self, tmp_path, quad_csv, algo, params, kind):
        model, again = tmp_path / "model.json", tmp_path / "again.json"
        code = run(
            "train", "--algo", algo, "--data", str(quad_csv), "--cf-cols", "y1,y2",
            "--q-col", "q", "--params", params, "--out", str(model),
        )
        assert code == 0
        assert json.loads(model.read_text())["kind"] == kind
        save_model(load_model(model), again)
        assert again.read_bytes() == model.read_bytes()
        want = oracles.dumps_reference(model_to_doc(load_model(model))) + "\n"
        assert model.read_text(encoding="utf-8") == want

    def test_greedy_evaluation(self, tmp_path, quad_csv, capsys):
        model = tmp_path / "model.json"
        run("train", "--algo", "pt", "--data", str(quad_csv),
            "--params", '{"n_min_leaf": 10}', "--out", str(model))
        metrics = tmp_path / "metrics.json"
        capsys.readouterr()
        code = run(
            "evaluate", "--model", str(model), "--data", str(quad_csv),
            "--greedy", "25", "--seed", "2", "--out", str(metrics),
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["protocol"] == "greedy-submatch" and doc["n_test"] == 25
        assert json.loads(metrics.read_text()) == doc


class TestBlasThreads:
    def test_evaluate_bytes_do_not_depend_on_blas_threads(self, tmp_path, monkeypatch):
        """The nearest-neighbour screens multiply matrices with BLAS, whose
        summation order may follow the thread count; matched sets and kNN
        predictions must not."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "spec.json").write_text(
            json.dumps({"preset": "warfarin-like", "n": 2000, "seed": 5})
        )
        assert run("gen-data", "--spec", "spec.json", "--out", "data.csv") == 0
        data = ("--data", "data.csv", "--cf-cols", "y1,y2,y3", "--q-col", "q")
        assert run("train", "--algo", "pt", *data, "--params", '{"n_min_leaf": 10}',
                   "--out", "pt.json") == 0
        assert run("train", "--algo", "rc-knn", *data, "--out", "knn.json") == 0
        src = os.path.dirname(os.path.dirname(perstrees.__file__))
        script = ("import json, sys; from perstrees.cli import main; "
                  "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
        for threads in ("1", "2"):
            commands = [
                ["evaluate", "--model", "pt.json", *data, "--greedy", "500", "--seed", "1",
                 "--out", f"greedy-{threads}.json"],
                ["evaluate", "--model", "knn.json", *data, "--oracle",
                 "--out", f"oracle-{threads}.json"],
            ]
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                           env=env, check=True, capture_output=True, timeout=300)
        for name in ("greedy", "oracle"):
            assert (tmp_path / f"{name}-1.json").read_bytes() == (
                tmp_path / f"{name}-2.json").read_bytes()


class TestVerbose:
    def test_debug_records_go_to_stderr_only(self, tmp_path, quad_csv, capsys):
        cols = ("--data", str(quad_csv), "--cf-cols", "y1,y2", "--q-col", "q")
        model = tmp_path / "model.json"
        assert run("train", "--algo", "pt", *cols, "--params", '{"n_min_leaf": 5}',
                   "--out", str(model)) == 0
        capsys.readouterr()
        handlers = list(logging.getLogger("perstrees").handlers)
        outputs = {}
        for flag in ((), ("-v",)):
            out = tmp_path / f"metrics{len(flag)}.json"
            assert run(*flag, "evaluate", "--model", str(model), *cols, "--greedy", "30",
                       "--out", str(out)) == 0
            captured = capsys.readouterr()
            outputs[flag] = (captured.out, out.read_bytes(), captured.err)
        assert outputs[()][:2] == outputs[("-v",)][:2]
        assert outputs[()][2] == ""
        assert "greedy_submatch: 0 of 30 pairs rescored exactly" in outputs[("-v",)][2]
        assert logging.getLogger("perstrees").handlers == handlers

    def test_knn_record(self, tmp_path, quad_csv, capsys):
        cols = ("--data", str(quad_csv), "--cf-cols", "y1,y2", "--q-col", "q")
        model = tmp_path / "knn.json"
        assert run("-v", "train", "--algo", "rc-knn", *cols, "--out", str(model)) == 0
        assert run("-v", "evaluate", "--model", str(model), *cols, "--oracle") == 0
        assert "knn: " in capsys.readouterr().err

    def test_solver_record(self, tmp_path, quad_csv, capsys):
        cols = ("--data", str(quad_csv), "--cf-cols", "y1,y2", "--q-col", "q")
        model = tmp_path / "opt.json"
        handlers = list(logging.getLogger("perstrees").handlers)
        outputs = {}
        for flag in ((), ("-v",)):
            assert run(*flag, "train", "--algo", "opt", *cols, "--params",
                       '{"n_min_leaf": 5, "n_cuts": 4}', "--out", str(model)) == 0
            captured = capsys.readouterr()
            outputs[flag] = (captured.out, model.read_bytes(), captured.err)
        assert outputs[()][:2] == outputs[("-v",)][:2]
        assert outputs[()][2] == ""
        records = [line for line in outputs[("-v",)][2].splitlines() if "solve_exact:" in line]
        assert len(records) == 1
        assert re.fullmatch(
            r"solve_exact: 1 scans screened \d+ cuts, \d+ settled exactly; \d+ bottom passes; "
            r"memo \d+ hits, \d+ misses, \d+ evictions; optimality proved",
            records[0],
        )
        assert logging.getLogger("perstrees").handlers == handlers


class TestColdStart:
    """scipy costs about half a second to import; only optimal submatching
    loads it, on first use."""

    def env(self):
        src = os.path.dirname(os.path.dirname(perstrees.__file__))
        return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def scipy_modules_after(self, script, *argv):
        """The scipy modules loaded once script has run in a fresh process."""
        script += "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        done = subprocess.run([sys.executable, "-c", script, *argv], env=self.env(),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.splitlines()[-1]

    def test_import_leaves_scipy_unloaded(self):
        assert self.scipy_modules_after("import sys, perstrees, perstrees.cli") == "[]"

    def test_export_mip_leaves_scipy_unloaded(self, tmp_path, quad_csv):
        script = "import sys, perstrees.cli\nassert perstrees.cli.main(sys.argv[1:]) == 0"
        out = tmp_path / "tree.mps"
        assert self.scipy_modules_after(
            script, "export-mip", "--data", str(quad_csv), "--cf-cols", "y1,y2", "--q-col", "q",
            "--delta", "2", "--n-min-leaf", "5", "--n-cuts", "3", "--out", str(out),
        ) == "[]"
        assert out.read_text().rstrip().endswith("ENDATA")

    def test_check_solution_leaves_scipy_unloaded(self):
        script = """
import sys
import numpy as np
from perstrees.data import Dataset
from perstrees.opt import (OptConfig, TreeAssignment, build_cut_menu, build_mip,
                           check_solution, objective_value, solution_from_assignment)
ds = Dataset(X=np.arange(8.0)[:, None], T=np.array([1, 2] * 4), Y=np.arange(8.0) % 3, m=2)
cfg = OptConfig(delta=1, n_min_leaf=1, n_cuts=3)
menu = build_cut_menu(ds, cfg)
model = build_mip(ds, menu, cfg)
values = solution_from_assignment(ds, menu, TreeAssignment(menu.for_node(1)[:1], (1, 2)))
assert isinstance(check_solution(model, values), list)
objective_value(model, values)"""
        assert self.scipy_modules_after(script) == "[]"

    def test_scipy_commands_run_in_fresh_processes(self, tmp_path, quad_csv):
        cols = ("--data", str(quad_csv), "--cf-cols", "y1,y2", "--q-col", "q")
        model = tmp_path / "model.json"
        assert run("train", "--algo", "pt", *cols, "--params", '{"n_min_leaf": 5}',
                   "--out", str(model)) == 0
        commands = [
            ["evaluate", "--model", str(model), *cols, "--optimal", "10"],
            ["export-mip", *cols, "--delta", "1", "--n-min-leaf", "5", "--n-cuts", "3",
             "--out", str(tmp_path / "tree.mps")],
        ]
        stdout = []
        for argv in commands:
            done = subprocess.run([sys.executable, "-m", "perstrees.cli", *argv],
                                  env=self.env(), capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            stdout.append(done.stdout)
        assert json.loads(stdout[0])["protocol"] == "optimal-submatch"
        assert (tmp_path / "tree.mps").read_text().rstrip().endswith("ENDATA")


class TestAdjacentValues:
    """Two x values one float apart, whose midpoint rounds onto the upper."""

    def write_csv(self, tmp_path):
        data = tmp_path / "adjacent.csv"
        rows = (f"{x!r},{t},{y!r}\n" for x, t, y in zip(ADJACENT * 2, (1, 1, 2, 2), range(4)))
        data.write_text("x,treatment,outcome\n" + "".join(rows))
        return data

    def test_greedy_tree_trains(self, tmp_path):
        # a fresh process, so a fit that never ends is cut by the timeout
        data, model = self.write_csv(tmp_path), tmp_path / "pt.json"
        argv = ["train", "--algo", "pt", "--data", str(data), "--out", str(model)]
        done = subprocess.run([sys.executable, "-m", "perstrees.cli", *argv],
                              env=TestColdStart().env(), capture_output=True, text=True, timeout=20)
        assert done.returncode == 0, done.stderr
        assert json.loads(model.read_text())["root"]["split"]["threshold"] == ADJACENT[0]

    def test_optimal_tree_trains(self, tmp_path):
        data, model = self.write_csv(tmp_path), tmp_path / "opt.json"
        assert run("train", "--algo", "opt", "--data", str(data), "--params",
                   '{"delta": 1, "n_min_leaf": 1}', "--out", str(model)) == 0
        assert json.loads(model.read_text())["root"]["split"]["threshold"] == ADJACENT[0]


class TestSubmatchCommand:
    def test_greedy(self, tmp_path, quad_csv):
        out = tmp_path / "matched.csv"
        code = run(
            "submatch", "--data", str(quad_csv), "--method", "greedy",
            "--n-test", "15", "--seed", "4", "--out", str(out),
        )
        assert code == 0
        assert len(load_matched_csv(out)["drawn"]) == 15

    def test_optimal(self, tmp_path, quad_csv):
        out = tmp_path / "matched.csv"
        code = run(
            "submatch", "--data", str(quad_csv), "--method", "optimal",
            "--n-pair", "10", "--out", str(out),
        )
        assert code == 0
        back = load_matched_csv(out)
        assert len(back["drawn"]) == 20  # two test rows per pair

    def test_negative_seed_exits_1(self, quad_csv, tmp_path, capsys):
        code = run(
            "submatch", "--data", str(quad_csv), "--method", "greedy", "--n-test", "10",
            "--seed", "-1", "--out", str(tmp_path / "m.csv"),
        )
        assert code == 1
        assert "seed must be" in capsys.readouterr().err

    def test_greedy_needs_n_test(self, quad_csv, tmp_path):
        code = run(
            "submatch", "--data", str(quad_csv), "--method", "greedy",
            "--out", str(tmp_path / "m.csv"),
        )
        assert code == 1

    @pytest.mark.parametrize("method, flags, named", [
        ("greedy", ("--n-test", "10", "--n-pair", "5"), "n_pair is not a setting"),
        ("optimal", ("--n-pair", "5", "--n-test", "10"), "n_test is not a setting"),
    ])
    def test_a_flag_the_method_ignores_exits_1(self, quad_csv, tmp_path, method, flags, named,
                                               capsys):
        out = tmp_path / "m.csv"
        assert run("submatch", "--data", str(quad_csv), "--method", method, *flags,
                   "--out", str(out)) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestExportMip:
    def test_writes_mps_and_names(self, tmp_path, quad_csv, capsys):
        out = tmp_path / "model.mps"
        code = run(
            "export-mip", "--data", str(quad_csv), "--delta", "1",
            "--n-min-leaf", "2", "--n-cuts", "3", "--out", str(out),
        )
        assert code == 0
        assert "binary" in capsys.readouterr().out
        assert out.read_text().startswith("NAME")
        names = json.loads((tmp_path / "model.names.json").read_text())
        assert names["objective"] == "OBJ"

    def test_rerun_is_byte_identical(self, tmp_path, quad_csv):
        a, b = tmp_path / "a.mps", tmp_path / "b.mps"
        args = ("export-mip", "--data", str(quad_csv), "--delta", "1",
                "--n-min-leaf", "2", "--n-cuts", "3")
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_infeasible_sizes_exit_2(self, tmp_path, quad_csv):
        code = run(
            "export-mip", "--data", str(quad_csv), "--delta", "2",
            "--n-min-leaf", "40", "--out", str(tmp_path / "m.mps"),
        )
        assert code == 2


    @pytest.mark.parametrize("command", [
        ("train", "--algo", "opt", "--params", '{"delta": 40}'),
        ("export-mip", "--delta", "40"),
    ], ids=["train", "export-mip"])
    def test_a_depth_the_rows_cannot_fill_exits_2_at_once(self, tmp_path, quad_csv, command):
        # 2**40 leaves: refused before any per-node work, in a fresh
        # process so that a run building every node is cut by the timeout
        argv = [*command, "--data", str(quad_csv), "--out", str(tmp_path / "out")]
        done = subprocess.run([sys.executable, "-m", "perstrees.cli", *argv],
                              env=TestColdStart().env(), capture_output=True, text=True, timeout=20)
        assert done.returncode == 2
        assert done.stderr == (
            "perstrees: error: 120 subjects cannot fill 1099511627776 leaves with 20 of each of 2 treatments\n")
        assert not (tmp_path / "out").exists()


class TestSeedFlag:
    """Only greedy matching draws at random, so only it takes --seed."""

    @pytest.fixture
    def model(self, tmp_path, quad_csv):
        model = tmp_path / "model.json"
        assert run("train", "--algo", "pt", "--data", str(quad_csv),
                   "--params", '{"n_min_leaf": 10}', "--out", str(model)) == 0
        return model

    @pytest.mark.parametrize("command", [
        ("evaluate", "--oracle", "--cf-cols", "y1,y2"),
        ("evaluate", "--optimal", "10"),
        ("submatch", "--method", "optimal", "--n-pair", "10"),
    ], ids=["evaluate-oracle", "evaluate-optimal", "submatch-optimal"])
    def test_seed_where_nothing_is_drawn_exits_1(self, tmp_path, quad_csv, model, command, capsys):
        out = tmp_path / "out"
        if command[0] == "evaluate":
            command += ("--model", str(model))
        capsys.readouterr()
        assert run(*command, "--data", str(quad_csv), "--seed", "0", "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("perstrees: error: --seed applies to ") and err.count("\n") == 1
        assert not out.exists()

    def test_greedy_draws_use_seed_0_when_unset(self, tmp_path, quad_csv, model):
        for command in (("evaluate", "--model", str(model), "--greedy", "25"),
                        ("submatch", "--method", "greedy", "--n-test", "25")):
            unset, zero = tmp_path / "unset", tmp_path / "zero"
            assert run(*command, "--data", str(quad_csv), "--out", str(unset)) == 0
            assert run(*command, "--data", str(quad_csv), "--seed", "0", "--out", str(zero)) == 0
            assert unset.read_bytes() == zero.read_bytes()
            assert run(*command, "--data", str(quad_csv), "--seed", "3", "--out", str(zero)) == 0
            assert unset.read_bytes() != zero.read_bytes()


class TestExperiment:
    def config_doc(self, tmp_path, output):
        return {
            "version": 1,
            "data": {"preset": "quadratic"},
            "algorithms": [
                {"name": "pt", "params": {"n_min_leaf": 5}, "label": "tree"},
                "rc-ols",
            ],
            "n_grid": [60, 90],
            "replications": 2,
            "protocol": {"kind": "oracle", "n_test": 40},
            "master_seed": 5,
            "output": str(output),
        }

    def test_oracle_protocol(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(self.config_doc(tmp_path, out)))
        assert run("experiment", "--config", str(cfg)) == 0
        assert "8 rows" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert lines[0] == "algo,n,replication,risk,p1,p2"
        assert len(lines) == 9
        cells = [line.split(",")[:3] for line in lines[1:]]
        assert cells == sorted(cells)
        assert {c[0] for c in cells} == {"tree", "rc-ols"}
        for line in lines[1:]:
            assert np.isfinite(float(line.split(",")[3]))

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "curve.csv"
        cfg = tmp_path / "config.json"
        doc = self.config_doc(tmp_path, out)
        doc["n_grid"] = [60]
        doc["replications"] = 1
        cfg.write_text(json.dumps(doc))
        assert run("experiment", "--config", str(cfg)) == 0
        first = out.read_bytes()
        assert run("experiment", "--config", str(cfg)) == 0
        assert out.read_bytes() == first

    def test_submatch_protocol(self, tmp_path):
        out = tmp_path / "curve.csv"
        cfg = tmp_path / "config.json"
        doc = self.config_doc(tmp_path, out)
        doc["algorithms"] = [{"name": "pt", "params": {"n_min_leaf": 5}}]
        doc["n_grid"] = [100]
        doc["replications"] = 1
        doc["protocol"] = {"kind": "greedy-submatch", "n_test": 20}
        cfg.write_text(json.dumps(doc))
        assert run("experiment", "--config", str(cfg)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert np.isfinite(float(lines[1].split(",")[3]))

    def test_verbose_logs_one_record_per_cell(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(self.config_doc(tmp_path, out)))
        outputs = {}
        for flag in ((), ("-v",)):
            assert run(*flag, "experiment", "--config", str(cfg)) == 0
            captured = capsys.readouterr()
            outputs[flag] = (captured.out, out.read_bytes(), captured.err)
        assert outputs[()][:2] == outputs[("-v",)][:2]
        assert outputs[()][2] == ""
        cells = re.findall(r"^experiment cell n=(\d+) replication=(\d+): tree fit .*; rc-ols fit ",
                           outputs[("-v",)][2], re.M)
        assert cells == [("60", "1"), ("60", "2"), ("90", "1"), ("90", "2")]

    def test_bad_config_exits_1(self, tmp_path):
        cfg = tmp_path / "config.json"
        doc = self.config_doc(tmp_path, tmp_path / "curve.csv")
        doc["algorithms"] = ["no-such-algo"]
        cfg.write_text(json.dumps(doc))
        assert run("experiment", "--config", str(cfg)) == 1

    @pytest.mark.parametrize(
        "params", [{"work_limit": float("nan")}, {"work_limit": "10"}, {"work_limit": 2.5},
                   {"delta": 1.0}, {"n_features": 1.5}, {"warm": "no"}]
    )
    def test_malformed_opt_params_exit_1(self, tmp_path, params, capsys):
        cfg = tmp_path / "config.json"
        doc = self.config_doc(tmp_path, tmp_path / "curve.csv")
        doc["algorithms"] = [{"name": "opt", "params": dict(params, n_min_leaf=2, n_cuts=2)}]
        doc["n_grid"] = [60]
        doc["replications"] = 1
        cfg.write_text(json.dumps(doc))
        assert run("experiment", "--config", str(cfg)) == 1
        assert f"{next(iter(params))} must be" in capsys.readouterr().err

    def test_forest_drawing_more_features_than_the_data_has_exits_1(self, tmp_path, capsys):
        # the quadratic preset has two features; the cell's fit refuses three
        out = tmp_path / "curve.csv"
        cfg = tmp_path / "config.json"
        doc = self.config_doc(tmp_path, out)
        doc["algorithms"] = [{"name": "pf", "params": {"trees_count": 2, "n_features": 3}}]
        cfg.write_text(json.dumps(doc))
        assert run("experiment", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert err == "perstrees: error: n_features must be an integer in 1..2, got 3\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value, named", [
        ("n_grid", [60.7], "n_grid entry must be"),
        ("n_grid", "60", "n_grid must be"),
        ("master_seed", 1.5, "master_seed must be"),
        ("replications", "x", "replications must be"),
        ("protocol", {"kind": "oracle", "n_test": 2.5}, "n_test must be"),
        ("protocol", {"kind": "optimal-submatch", "n_pair": 0}, "n_pair must be"),
        ("data", {"preset": "quadratic", "n": 50}, "unknown data spec parameter 'n'"),
        ("data", {"preset": "quadratic", "m": 2.0}, "m must be"),
        ("algorithms", ["pt", {"name": "rc-knn", "params": {"kk": 3}}], "'kk'; valid keys: k"),
        ("algorithms", ["pt", {"name": "pf", "params": {"n_min_lef": 5}}], "'n_min_lef'"),
        ("algorithms", ["pt", {"name": "opt", "params": {"seed": 3}}], "opt parameter 'seed'"),
        ("protocol", "oracle", "protocol must be a JSON object"),
        ("algorithms", [5], "algorithms entry must be a JSON object"),
        ("data", "quadratic", "data must be a JSON object"),
        ("algorithms", [{"name": "pt", "params": [1]}], "params must be a JSON object"),
        ("algorithms", "pt", "algorithms must be a list"),
        ("master_sed", 7, "unknown experiment config parameter 'master_sed'"),
        ("algorithms", [{"name": "pt", "lable": "tree"}],
         "unknown algorithms entry parameter 'lable'"),
        ("protocol", {"kind": "optimal-submatch", "n_pair": 5, "n_pairs": 5},
         "unknown protocol parameter 'n_pairs'"),
        ("data", {"preset": "warfarin-like",
                  "outcome_model": {"name": "warfarin_like", "flip_probability": 0.1}},
         "unknown warfarin_like outcome model parameter 'flip_probability'"),
        ("algorithms", [{"name": "pt", "label": ["a"]}], "label must be null or a CSV-safe string"),
        ("algorithms", [{"name": "pt", "label": "a,b"}], "label must be null or a CSV-safe string"),
        ("algorithms", [{"name": "pt", "label": ""}], "label must be null or a CSV-safe string"),
        ("output", 7, "output must be a path, got 7"),
        ("protocol", {"kind": "oracle", "n_test": 40, "n_pair": 5},
         "n_pair is not a setting of the oracle protocol"),
        ("protocol", {"kind": "greedy-submatch", "n_test": 40, "n_pair": 7},
         "n_pair is not a setting of the greedy-submatch protocol"),
        ("protocol", {"kind": "optimal-submatch", "n_test": 99, "n_pair": 5},
         "n_test is not a setting of the optimal-submatch protocol"),
        ("algorithms", ["pt", {"name": "opt", "params": {"time_limit": 1}}],
         "unknown opt parameter 'time_limit'; valid keys: delta, n_min_leaf, n_features, n_cuts, "
         "work_limit, warm"),
    ])
    def test_malformed_config_exits_1_before_any_cell(
        self, tmp_path, monkeypatch, capsys, key, value, named
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("a cell trained before the config was refused")

        monkeypatch.setattr("perstrees.experiment.fit_algorithm", no_fit)
        cfg = tmp_path / "config.json"
        doc = self.config_doc(tmp_path, tmp_path / "curve.csv")
        doc[key] = value
        cfg.write_text(json.dumps(doc))
        assert run("experiment", "--config", str(cfg)) == 1
        assert named in capsys.readouterr().err


# an OLS regressor over the five columns quad_csv loads as features
# without --cf-cols and --q-col
OLS5 = {"type": "ols", "weights": [0.0, 1.0, -1.0, 0.5, 0.0, 2.0]}


class TestModelWriter:
    """save_model writes json.dumps(doc, indent=2) byte for byte; the
    reference in tests/oracles.py is that call. Every trained kind is
    checked in TestTrainPredictEvaluate::test_model_file_resaves_byte_identical."""

    EDGE_PT = {"kind": "pt", "m": 2, "d": 3, "root": {
        "split": {"feature": 2, "threshold": -0.0},
        "left": {"leaf": {"treatment": 2, "counts": [0, 2**53 + 1], "means": [None, 5e-324]}},
        "right": {"split": {"feature": 0, "threshold": 1e308},
                  "left": {"leaf": {"treatment": 1, "counts": [2**62, 1], "means": [-1e308, -0.0]}},
                  "right": {"leaf": {"treatment": 1, "counts": [1, 0], "means": [2.5, None]}}}}}

    @pytest.mark.parametrize("doc", [
        EDGE_PT,
        {"kind": "pt", "m": 1, "d": 1, "root": {"leaf": {"treatment": 1, "counts": [7],
                                                         "means": [-0.0]}}},
        {"kind": "rc-ols", "m": 2, "d": 0, "arms": [{"type": "ols", "weights": [5e-324]},
                                                   {"type": "ols", "weights": [-0.0]}]},
        {"kind": "rc-knn", "m": 1, "d": 2, "arms": [
            {"type": "knn", "k": 1, "center": [0.0, -0.0], "scale": [1.0, 1e308],
             "x": [[1.5, -0.0]], "y": [5e-324]}]},
        {"kind": "rc-knn", "m": 1, "d": 0, "arms": [
            {"type": "knn", "k": 2, "center": [], "scale": [], "x": [[], []], "y": [1.0, 2.0]}]},
    ], ids=["pt-edges", "pt-one-leaf", "ols-one-weight", "knn-one-point", "knn-no-features"])
    def test_edge_models_write_the_reference_bytes(self, tmp_path, doc):
        path = tmp_path / "model.json"
        save_model(model_from_doc(doc), path)
        want = oracles.dumps_reference(model_to_doc(model_from_doc(doc)))
        assert path.read_text(encoding="utf-8") == want + "\n"
        assert json.loads(path.read_text(encoding="utf-8")) == doc

    @pytest.mark.parametrize("doc", [
        [], {}, [[]], [[], [1.0]], [[1.0]], [[1, 2], []], [0], [None], [-0.0], [5e-324],
        [2**53 + 1, -(2**70)], [1e308, -1e308, 1e-7, 1e16, 123456789.0],
        [float("nan"), float("inf"), -float("inf"), None, True, False],
        list(range(20)), [0.5] * 9 + [None], [[0.5, None]] * 3, [[1, [2]], [3]],
        [[[1.0, 2.0]], [[3.0]]], ["a, b", "[1, 2]"], [1, "a, b"], [1.0, {"a": [2]}],
        {"a, b": [1, 2], "é ": "x\"y", "": {}}, {"k": (1, 2.5)},
        [np.float64(0.1), np.float64(-0.0)], [[np.float64(1e-300)] * 2],
    ])
    def test_documents_write_the_reference_text(self, doc):
        assert model_io._dumps(doc) == oracles.dumps_reference(doc)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(doc=st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda children: (st.lists(children, max_size=10)
                          | st.dictionaries(st.text(max_size=4), children, max_size=4)),
        max_leaves=40))
    def test_generated_documents_write_the_reference_text(self, doc):
        assert model_io._dumps(doc) == oracles.dumps_reference(doc)


def chain_doc(depth):
    """A pt document on m = 2, d = 1 whose splits form a right-leaning
    chain `depth` splits deep; built without recursion."""
    leaf = {"leaf": {"treatment": 1, "counts": [5, 5], "means": [0.0, 1.0]}}
    node = leaf
    for _ in range(depth):
        node = {"split": {"feature": 0, "threshold": 0.5}, "left": leaf, "right": node}
    return {"kind": "pt", "m": 2, "d": 1, "root": node}


class TestModelDepthCap:
    """A nested model file holds at most 988 levels: a pt tree of depth
    984, a pf tree of depth 982. That is the deepest chain the json
    encoder wrote from `python -m perstrees.cli`, and the deepest that
    json.load reads back there at the default recursion limit. The
    writer walks the document without recursion, so the cap is its own;
    the reader enforces the same cap, and a file is written exactly when
    a fresh CLI process reads it back."""

    @staticmethod
    def predict(tmp_path, model):
        data = tmp_path / "x.csv"
        data.write_text("x,treatment,outcome\n0,1,0\n1,2,1\n")
        src = os.path.dirname(os.path.dirname(perstrees.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        return subprocess.run(
            [sys.executable, "-m", "perstrees.cli", "predict", "--model", str(model),
             "--data", str(data), "--out", str(tmp_path / "p.csv")],
            env=env, capture_output=True, text=True, timeout=300)

    @pytest.mark.parametrize("kind,depth", [("pt", 984), ("pf", 982)])
    def test_deepest_tree_is_written_and_read_back(self, tmp_path, kind, depth):
        tree = model_from_doc(chain_doc(depth))
        policy = tree if kind == "pt" else PersonalizationForest(trees=(tree,), m=2, d=1)
        model = tmp_path / "model.json"
        save_model(policy, model)
        assert model.read_text().startswith('{\n  "kind": "%s"' % kind)
        done = self.predict(tmp_path, model)
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("kind,depth", [("pt", 985), ("pf", 983)])
    def test_one_level_deeper_is_neither_written_nor_read(self, tmp_path, kind, depth):
        doc = chain_doc(depth)
        tree = model_from_doc(doc)
        policy = tree if kind == "pt" else PersonalizationForest(trees=(tree,), m=2, d=1)
        model = tmp_path / "model.json"
        with pytest.raises(SchemaError, match="too deep for a nested model file"):
            save_model(policy, model)
        assert not model.exists()
        doc = doc if kind == "pt" else {"kind": "pf", "trees": [doc]}
        model.write_text(model_io._dumps(doc))  # json.dumps cannot nest this deep here
        done = self.predict(tmp_path, model)
        assert done.returncode == 2
        assert "too deep for a nested model file" in done.stderr


# a kNN regressor on the five columns of quad_csv, as OLS5 is an OLS one
KNN5 = {"type": "knn", "k": 1, "center": [0.0] * 5, "scale": [1.0] * 5,
        "x": [[0.0] * 5, [1.0] * 5], "y": [0.0, 1.0]}


def ols_pairs(m):
    """1v1 estimators of every ordered pair of m arms."""
    arms = range(1, m + 1)
    return [{"t": t, "s": s, "pos": OLS5, "neg": OLS5} for t in arms for s in arms if s != t]


def pt5(split=(), leaf=(), **shape):
    """A pt document on m = 2, d = 5: one split over two leaves, with
    fields of the split and of the left leaf replaced."""
    right = {"treatment": 1, "counts": [3, 2], "means": [0.5, 1.0]}
    left = {"leaf": {**right, **dict(leaf)}}
    root = {"split": {"feature": 0, "threshold": 0.5, **dict(split)}, "left": left,
            "right": {"leaf": right}}
    return {"kind": "pt", "m": 2, "d": 5, **shape, "root": root}


class TestExitCodes:
    def test_usage_errors_exit_1(self, tmp_path, quad_csv):
        assert run("no-such-command") == 1
        assert run("train", "--algo", "pt") == 1  # missing required args
        assert run(
            "train", "--algo", "bogus", "--data", str(quad_csv),
            "--out", str(tmp_path / "m.json"),
        ) == 1

    def test_the_parser_is_built_once(self, tmp_path):
        parser = build_parser()
        assert run("-v", "no-such-command") == 1
        assert build_parser() is parser

    def test_missing_file_exits_2(self, tmp_path):
        assert run(
            "train", "--algo", "pt", "--data", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "m.json"),
        ) == 2

    def test_malformed_csv_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")  # lacks treatment/outcome columns
        assert run(
            "train", "--algo", "pt", "--data", str(bad),
            "--out", str(tmp_path / "m.json"),
        ) == 2

    @pytest.mark.parametrize("cell, named", [
        (b"\xff", " text: invalid start byte"),
        (b"1" * 131_074, "line 3: field larger than field limit (131072)"),
    ], ids=["undecodable-byte", "over-long-cell"])
    def test_unreadable_csv_exits_2(self, tmp_path, capsys, cell, named):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"x1,treatment,outcome\n1,1,0\n" + cell + b",2,1\n")
        assert run(
            "train", "--algo", "pt", "--data", str(bad), "--out", str(tmp_path / "m.json"),
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"perstrees: error: {bad}: ") and err.endswith(f"{named}\n")
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("algo", ["1v1a-ols", "1v1b-ols"])
    def test_one_vs_one_on_a_header_only_csv_exits_2(self, tmp_path, capsys, algo):
        data, model = tmp_path / "h.csv", tmp_path / "m.json"
        data.write_text("x1,treatment,outcome\n")
        assert run("train", "--algo", algo, "--data", str(data), "--out", str(model)) == 2
        assert capsys.readouterr().err == "perstrees: error: treatment 1 has no subjects\n"
        assert not model.exists()

    @pytest.mark.parametrize("command, flag", [
        (("gen-data", "--out", "d.csv"), "--spec"),
        (("experiment",), "--config"),
        (("predict", "--data", "d.csv", "--out", "p.csv"), "--model"),
    ], ids=["spec", "config", "model"])
    def test_undecodable_json_exits_2(self, tmp_path, capsys, command, flag):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe\x00{}")
        assert run(*command, flag, str(bad)) == 2
        err = capsys.readouterr().err
        assert err == f"perstrees: error: {bad}: not utf-8 text: invalid start byte\n"

    def test_json_nested_past_the_recursion_limit_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text("[" * 100_000 + "]" * 100_000)
        assert run("gen-data", "--spec", str(spec), "--out", str(tmp_path / "d.csv")) == 2
        assert capsys.readouterr().err == f"perstrees: error: {spec}: JSON nested too deeply to read\n"

    def test_invalid_spec_json_exits_2(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text("{not json")
        assert run("gen-data", "--spec", str(spec), "--out", str(tmp_path / "d.csv")) == 2

    def test_spec_missing_n_exits_1(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"preset": "quadratic"}))
        assert run("gen-data", "--spec", str(spec), "--out", str(tmp_path / "d.csv")) == 1

    @pytest.mark.parametrize("n", [2.5, True, "abc", 0])
    def test_spec_bad_n_exits_1(self, tmp_path, n, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"preset": "quadratic", "n": n}))
        assert run("gen-data", "--spec", str(spec), "--out", str(tmp_path / "d.csv")) == 1
        assert "n must be" in capsys.readouterr().err

    def test_spec_unknown_key_exits_1(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"preset": "quadratic", "n": 20, "sede": 3}))
        assert run("gen-data", "--spec", str(spec), "--out", str(tmp_path / "d.csv")) == 1
        assert "unknown data spec parameter 'sede'" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, named", [
        ({"preset": "warfarin-like", "outcome_model": {"name": "warfarin_like", "flip_prob": 0.5}},
         "unknown warfarin_like outcome model parameter 'flip_prob'; valid keys: driver"),
        ({"preset": "quadratic", "propensity_model": {"name": "logistic_binary", "strenght": 9}},
         "unknown logistic_binary propensity model parameter 'strenght'"),
        ({"preset": "warfarin-like", "outcome_model": {"name": "warfarin_like", "driver": 2.7}},
         "warfarin_like outcome model: driver must be an integer"),
        ({"preset": "quadratic",
          "outcome_model": {"name": "quadratic", "centers": [0, 1], "feature": -1}},
         "quadratic outcome model: feature must be an integer of at least 0"),
        ({"preset": "quadratic",
          "outcome_model": {"name": "quadratic", "centers": [0, 1], "noise": "0.1"}},
         "quadratic outcome model: noise must be a finite number"),
        ({"preset": "quadratic", "outcome_model": {"name": "quadratic", "feature": 0}},
         "quadratic outcome model: centers is required"),
        ({"preset": "quadratic", "covariate_model": {"name": "discrete_grid", "values": "abc"}},
         "discrete_grid covariate model: values must be"),
        ({"preset": "warfarin-like", "outcome_model": {"name": "warfarin_like", "up_feature": 10}},
         "warfarin_like outcome model: up_feature must be below d = 10"),
    ], ids=["flip_prob", "strenght", "driver-2.7", "feature--1", "noise-text", "no-centers",
            "values-text", "up_feature-10"])
    def test_bad_model_parameter_exits_1(self, tmp_path, spec, named, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**spec, "n": 20}))
        out = tmp_path / "d.csv"
        assert run("gen-data", "--spec", str(path), "--out", str(out)) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("algo, params, extra, named", [
        ("pt", {"n_min_lef": 50}, (), "unknown pt parameter 'n_min_lef'; valid keys: n_min_leaf"),
        ("pf", {"n_min_lef": 50}, (), "unknown pf parameter 'n_min_lef'; valid keys: trees_count"),
        ("pt", {"trees_count": 3}, (), "unknown pt parameter 'trees_count'"),
        ("pt", {"seed": 3}, (), "unknown pt parameter 'seed'"),
        ("opt", {"n_min_lef": 5}, (), "unknown opt parameter 'n_min_lef'; valid keys: delta"),
        ("pt", {"scarce_mode": "no"}, (), "scarce_mode must be"),
        ("pf", {"scarce_mode": "no"}, (), "scarce_mode must be"),
        ("opt", {"warm": "no"}, (), "warm must be"),
        ("pt", {"n_min_leaf": 2.5}, (), "n_min_leaf must be"),
        ("pf", {"n_min_leaf": 2.5}, (), "n_min_leaf must be"),
        ("pt", {"n_min_leaf": float("nan")}, (), "n_min_leaf must be"),
        ("pf", {"n_min_leaf": float("nan")}, (), "n_min_leaf must be"),
        ("pt", {"n_min_leaf": "5"}, (), "n_min_leaf must be"),
        ("pf", {"n_min_leaf": "5"}, (), "n_min_leaf must be"),
        ("pt", {"n_features": 1.5}, (), "n_features must be"),
        ("pf", {"n_features": 1.5}, (), "n_features must be"),
        ("pf", {"trees_count": 2.5}, (), "trees_count must be"),
        ("opt", {"n_cuts": "3"}, (), "n_cuts must be"),
        ("pt", {}, ("--seed", "-1"), "seed must be"),
        ("pf", {}, ("--seed", "-1"), "seed must be"),
        ("opt", {}, ("--seed", "-1"), "seed must be"),
        ("rc-knn", {"k": 0}, (), "k must be"),
        ("rc-knn", {"k": -3}, (), "k must be"),
        ("rc-knn", {"k": 2.5}, (), "k must be"),
        ("1v1a-knn", {"k": 0}, (), "k must be"),
        ("rc-ols", {"k": 5}, (), "unknown ols parameter 'k'; valid keys: none"),
        ("1v1a-ols", {"k": 5}, (), "unknown ols parameter 'k'"),
        ("opt", {"work_limit": -1}, (), "work_limit must be"),
        ("opt", {"time_limit": 1}, (), "unknown opt parameter 'time_limit'; valid keys: delta, "
         "n_min_leaf, n_features, n_cuts, work_limit, warm"),
    ])
    def test_malformed_params_exit_1(self, tmp_path, quad_csv, algo, params, extra, named, capsys):
        code = run(
            "train", "--algo", algo, "--data", str(quad_csv), "--params", json.dumps(params),
            *extra, "--out", str(tmp_path / "m.json"),
        )
        assert code == 1
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ["pt", "pf"])
    def test_drawing_more_features_than_the_data_has_exits_1(self, tmp_path, quad_csv, algo,
                                                              capsys):
        # y1, y2 and q load as features too, five in all
        model = tmp_path / "m.json"
        assert run("train", "--algo", algo, "--data", str(quad_csv),
                   "--params", '{"n_features": 6}', "--out", str(model)) == 1
        assert capsys.readouterr().err == (
            "perstrees: error: n_features must be an integer in 1..5, got 6\n")
        assert not model.exists()

    @pytest.mark.parametrize("protocol, named", [
        (("--greedy", "0"), "n_test must be"),
        (("--optimal", "0"), "n_pair must be"),
    ])
    def test_an_empty_matched_set_exits_1(self, tmp_path, quad_csv, protocol, named, capsys):
        model = tmp_path / "model.json"
        assert run("train", "--algo", "pt", "--data", str(quad_csv), "--cf-cols", "y1,y2",
                   "--q-col", "q", "--out", str(model)) == 0
        capsys.readouterr()
        cols = ("--data", str(quad_csv), "--cf-cols", "y1,y2", "--q-col", "q")
        assert run("evaluate", "--model", str(model), *cols, *protocol) == 1
        assert named in capsys.readouterr().err

    def test_bad_params_json_exits_2(self, tmp_path, quad_csv):
        code = run(
            "train", "--algo", "pt", "--data", str(quad_csv),
            "--params", "{broken", "--out", str(tmp_path / "m.json"),
        )
        assert code == 2

    @pytest.mark.parametrize("algo", ["pt", "rc-ols"])
    def test_feature_count_mismatch_exits_2(self, tmp_path, quad_csv, algo, capsys):
        # without --cf-cols and --q-col, y1, y2 and q load as three more features
        model = tmp_path / "model.json"
        assert run(
            "train", "--algo", algo, "--data", str(quad_csv), "--cf-cols", "y1,y2",
            "--q-col", "q", "--out", str(model),
        ) == 0
        capsys.readouterr()
        code = run(
            "predict", "--model", str(model), "--data", str(quad_csv),
            "--out", str(tmp_path / "pres.csv"),
        )
        assert code == 2
        assert "policy expects 2 features, the data has 5" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"kind": "rc-ols", "m": 2, "d": 1},
        {"kind": "rc-knn", "m": 1, "d": 1, "arms": [{"type": "knn", "k": "few"}]},
        *({"kind": "rc-knn", "m": 1, "d": 5, "arms": [{
            "type": "knn", "k": k, "center": [0.0] * 5, "scale": [1.0] * 5,
            "x": [[0.0] * 5, [1.0] * 5], "y": [0.0, 1.0]}]} for k in (0, -3)),
        {"kind": "1va", "m": 1, "d": 1, "estimators": [
            {"pos": {"type": "ols"}, "neg": {"type": "ols", "weights": [0.0, 1.0]}}]},
        {"kind": "1v1a", "m": 2, "d": 1, "estimators": [{"t": 1}]},
        {"kind": "pf"},
        {"kind": "pt", "m": None, "d": 1, "root": {}},
        {"kind": "pt", "m": 2, "d": 1, "root": {"split": {"feature": 0, "threshold": 0.5}}},
        {"kind": ["pt"]},
        {"kind": "rc-ols", "m": 3, "d": 5, "arms": [OLS5, OLS5]},
        {"kind": "1v1a", "m": 2, "d": 5, "estimators": ols_pairs(3)},
        {"kind": "rc-ols", "m": 2, "d": 5, "arms": [OLS5, {"type": "ols", "weights": [0.0] * 3}]},
        {"kind": "1v1a", "m": 3, "d": 5, "estimators": ols_pairs(3)[1:]},
        pt5(split={"feature": 1.7}),
        pt5(leaf={"treatment": 1.9}),
        pt5(leaf={"counts": [2.5, -1]}),
        pt5(split={"threshold": True}),
        pt5(m="2", d="5"),
        pt5(leaf={"means": [1e400, 0.0]}),
        {"kind": "pf", "trees": [pt5(), pt5(split={"feature": 1.7})]},
        pt5(leaf={"counts": [10**30, 1]}),
        {"kind": "1va", "base": 7, "m": 2, "d": 5, "estimators": [{"pos": OLS5, "neg": OLS5}] * 2},
        {"kind": "rc-knn", "m": 2, "d": 5, "arms": [KNN5, {**KNN5, "scale": [1.0, 0.0, 1.0, 1.0, 1.0]}]},
        {"kind": "rc-ols", "m": 2, "d": 5, "arms": [OLS5, KNN5]},
        {"kind": "rc-knn", "m": 2, "d": 5, "arms": [OLS5, OLS5]},
        {"kind": "1v1b", "base": "ols", "m": 2, "d": 5, "estimators": [
            {"t": t, "s": 3 - t, "pos": KNN5, "neg": KNN5} for t in (1, 2)]},
        {"kind": "pf", "trees": [{**pt5(), "kind": "rc-ols"}]},
    ], ids=["rc-no-arms", "knn-k-text", "knn-k-0", "knn-k-negative", "1va-no-weights",
            "1v1-no-s", "pf-no-trees", "pt-m-null", "pt-no-children", "kind-list",
            "rc-arm-missing", "1v1-m-short", "ols-weights-short", "1v1-pair-missing",
            "pt-feature-1.7", "pt-treatment-1.9", "pt-counts-2.5-and-negative",
            "pt-threshold-true", "pt-m-d-strings", "pt-mean-1e400", "pf-tree-feature-1.7",
            "pt-counts-past-int64", "1va-base-7", "knn-scale-0", "rc-ols-knn-arm",
            "rc-knn-ols-arms", "1v1-ols-base-knn-estimators", "pf-tree-kind-rc-ols"])
    def test_malformed_model_exits_2(self, tmp_path, quad_csv, doc, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        code = run(
            "predict", "--model", str(model), "--data", str(quad_csv),
            "--out", str(tmp_path / "pres.csv"),
        )
        assert code == 2
        kind = doc["kind"]
        want = f"malformed {kind} model" if isinstance(kind, str) else "unknown model kind"
        assert want in capsys.readouterr().err

    def test_tree_too_deep_to_save_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # each cut peels one row off, a chain 1,499 splits deep
        data, model = tmp_path / "chain.csv", tmp_path / "model.json"
        rows = (f"{i},{1 + i % 2},{10**6 * (i % 2) + i}\n" for i in range(3000))
        data.write_text("x,treatment,outcome\n" + "".join(rows))
        assert run("train", "--algo", "pt", "--data", str(data), "--out", str(model)) == 2
        assert "too deep for a nested model file" in capsys.readouterr().err
        assert not model.exists()

    def test_model_file_too_deep_to_read_exits_2(self, tmp_path, quad_csv, capsys):
        # written as text: json itself cannot write a document this deep
        leaf = '{"leaf": {"treatment": 1, "counts": [5, 5], "means": [0.0, 1.0]}}'
        split = '{"split": {"feature": 0, "threshold": 0.5}, "left": ' + leaf + ', "right": '
        model = tmp_path / "model.json"
        model.write_text('{"kind": "pt", "m": 2, "d": 5, "root": ' + split * 1499 + leaf + "}" * 1500)
        code = run(
            "predict", "--model", str(model), "--data", str(quad_csv),
            "--out", str(tmp_path / "pres.csv"),
        )
        assert code == 2
        assert "too deep for a nested model file" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["1e300", "-1e300"])
    def test_oversized_label_exits_2(self, tmp_path, label, capsys):
        data = tmp_path / "big.csv"
        data.write_text(f"x1,treatment,outcome\n1,1,0\n2,{label},1\n")
        code = run("train", "--algo", "pt", "--data", str(data), "--out", str(tmp_path / "m.json"))
        assert code == 2
        assert "(row 3, column 'treatment')" in capsys.readouterr().err

    def test_oracle_without_cf_columns_exits_2(self, tmp_path, quad_csv):
        model = tmp_path / "model.json"
        run("train", "--algo", "pt", "--data", str(quad_csv),
            "--params", '{"n_min_leaf": 10}', "--out", str(model))
        assert run("evaluate", "--model", str(model), "--data", str(quad_csv), "--oracle") == 2

    @pytest.mark.parametrize("protocol", [["--oracle"], ["--greedy", "20"]])
    def test_model_with_more_arms_than_the_data_exits_2(self, tmp_path, quad_csv, protocol, capsys):
        # arm 3 has the lowest fitted outcome everywhere, and the data has two arms
        arms = [{"type": "ols", "weights": [w, 0.0, 0.0]} for w in (0.0, 0.0, -1.0)]
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"kind": "rc-ols", "m": 3, "d": 2, "arms": arms}))
        cols = ("--data", str(quad_csv), "--cf-cols", "y1,y2", "--q-col", "q")
        assert run("evaluate", "--model", str(model), *cols, *protocol) == 2
        assert "prescription 3 exceeds the data's 2 arms" in capsys.readouterr().err
