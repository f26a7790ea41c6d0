"""Benchmark workloads: inputs made from the seed, then CLI commands.

A workload is a dict of input files (JSON documents the benchmark
writes itself), set-up commands that generate the data CSVs, and timed
commands. Every command names the artifacts it writes and a check that
holds for any seed; at the default seed the artifacts' sha256 must also
equal `reference.json`.
"""

import json
import math
from dataclasses import dataclass

DEFAULT_SEED = 0

DATA = ("--cf-cols", "y1,y2,y3", "--q-col", "q")


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Command:
    argv: tuple
    kind: str  # "setup", "train", "evaluate", "export" or "experiment"
    artifacts: tuple = ()  # (path, check) pairs


@dataclass(frozen=True)
class Workload:
    inputs: dict  # file name -> JSON document
    setup: tuple
    timed: tuple


def csv_rows(n):
    def check(path):
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if len(lines) != n + 1:
            raise CheckFailed(f"{path}: {len(lines) - 1} rows, expected {n}")
    return check


def curve_rows(n):
    def check(path):
        csv_rows(n)(path)
        with open(path, encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        if not all(math.isfinite(float(r.split(",")[3])) for r in rows):
            raise CheckFailed(f"{path}: non-finite risk")
    return check


def prescription_rows(n, m=3):
    def check(path):
        csv_rows(n)(path)
        with open(path, encoding="utf-8") as fh:
            values = fh.read().splitlines()[1:]
        if not all(1 <= int(v) <= m for v in values):
            raise CheckFailed(f"{path}: prescription outside 1..{m}")
    return check


def json_object(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise CheckFailed(f"{path}: not a JSON object")
    return doc


def finite_risk(path):
    risk = json_object(path).get("risk")
    if not isinstance(risk, (int, float)) or not math.isfinite(risk):
        raise CheckFailed(f"{path}: risk {risk!r} is not finite")


def mps_file(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if not text.startswith("NAME") or text.rstrip().splitlines()[-1] != "ENDATA":
        raise CheckFailed(f"{path}: not a complete MPS file")


def data_spec(n, seed, k):
    """warfarin-like spec for the k-th data file of a workload seed."""
    return {"preset": "warfarin-like", "n": n, "seed": 10 * seed + k}


def gen_data(spec, out, n):
    return Command(("gen-data", "--spec", spec, "--out", out), "setup", ((out, csv_rows(n)),))


def learning_curve(seed, small=False):
    # n starts at 200, not 100: greedy-submatching 50 test subjects out of
    # 100 can leave a treatment absent from the training rows (master
    # seeds 19 and 270 do), and training then rightly refuses the cell.
    n_grid = [40, 80] if small else [200, 400, 1600]
    algorithms = ["pt", {"name": "pf", "params": {"trees_count": 5 if small else 10}},
                  "rc-ols", "rc-knn", "1v1a-ols"]
    replications = 1 if small else 3
    config = {
        "version": 1,
        "algorithms": algorithms,
        "n_grid": n_grid,
        "replications": replications,
        "protocol": {"kind": "greedy-submatch", "n_test": 10 if small else 50},
        "master_seed": seed,
        "data": {"preset": "warfarin-like"},
        "output": "curve.csv",
    }
    rows = len(algorithms) * len(n_grid) * replications
    return Workload(
        inputs={"experiment.json": config},
        setup=(),
        timed=(Command(("experiment", "--config", "experiment.json"), "experiment",
                       (("curve.csv", curve_rows(rows)),)),),
    )


def cohort_cli(seed, small=False):
    n_big, n_mid, n_test = (2000, 400, 200) if small else (10000, 2000, 1000)
    n_greedy = 50 if small else 250
    trees = 4 if small else 10

    def train(algo, data, out, params=None):
        argv = ("train", "--algo", algo, "--data", data) + DATA + ("--seed", str(seed))
        if params:
            argv += ("--params", json.dumps(params))
        return Command(argv + ("--out", out), "train", ((out, json_object),))

    def evaluate(model, data, mode, out):
        argv = ("evaluate", "--model", model, "--data", data) + DATA + mode
        return Command(argv + ("--out", out), "evaluate", ((out, finite_risk),))

    models = ("pt.json", "pf.json", "knn.json")
    greedy = ("--greedy", str(n_greedy), "--seed", "1")
    return Workload(
        inputs={"big.json": data_spec(n_big, seed, 1), "mid.json": data_spec(n_mid, seed, 2),
                "test.json": data_spec(n_test, seed, 3)},
        setup=(gen_data("big.json", "big.csv", n_big),
               gen_data("mid.json", "mid.csv", n_mid),
               gen_data("test.json", "test.csv", n_test)),
        timed=(train("pt", "big.csv", "pt.json", {"n_min_leaf": 10}),
               train("pf", "mid.csv", "pf.json", {"trees_count": trees}),
               train("rc-knn", "mid.csv", "knn.json"),
               Command(("predict", "--model", "pf.json", "--data", "test.csv") + DATA
                       + ("--out", "prescriptions.csv"), "evaluate",
                       (("prescriptions.csv", prescription_rows(n_test)),)))
        + tuple(evaluate(m, "test.csv", ("--oracle",), f"oracle-{m}") for m in models)
        + tuple(evaluate(m, "mid.csv", greedy, f"greedy-{m}") for m in models[:2]),
    )


def exact_opt(seed, small=False):
    n_opt, n_mip = (300, 300) if small else (600, 300)

    def train_opt(params, out):
        argv = ("train", "--algo", "opt", "--data", "opt.csv") + DATA + (
            "--seed", str(seed), "--params", json.dumps(params), "--out", out)
        return Command(argv, "train", ((out, json_object),))

    return Workload(
        inputs={"opt.json": data_spec(n_opt, seed, 1), "mip.json": data_spec(n_mip, seed, 2)},
        setup=(gen_data("opt.json", "opt.csv", n_opt), gen_data("mip.json", "mip.csv", n_mip)),
        timed=(train_opt({"delta": 2, "n_cuts": 12, "n_min_leaf": 5}, "opt-d2.json"),
               train_opt({"delta": 3, "n_cuts": 3, "n_min_leaf": 5}, "opt-d3.json"),
               Command(("export-mip", "--data", "mip.csv") + DATA
                       + ("--delta", "2", "--seed", str(seed), "--out", "tree.mps"), "export",
                       (("tree.mps", mps_file), ("tree.names.json", json_object)))),
    )


WORKLOADS = {
    "learning-curve": learning_curve,
    "cohort-cli": cohort_cli,
    "exact-opt": exact_opt,
}
