"""Tests of the benchmark itself, on shrunken workloads.

    python3 -m pytest -q perfbench/tests
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def digests(result):
    return [rec["digests"] for rec in run.commands(result)]


@pytest.fixture(scope="module")
def sessions():
    deadline = run.Deadline(300)
    out = {}
    for name in ("cohort-cli", "exact-opt"):
        plain = run.session(name, 3, 0, deadline, small=True)
        traced = run.session(name, 3, 0, deadline, trace=True, small=True)
        out[name] = (plain, traced)
    return out


@pytest.mark.parametrize("name", ["cohort-cli", "exact-opt"])
def test_traced_and_untraced_artifacts_match(sessions, name):
    plain, traced = sessions[name]
    assert digests(plain) == digests(traced)
    assert run.score([plain, traced], {})[1] == 0


@pytest.mark.parametrize("name", ["cohort-cli", "exact-opt"])
def test_self_times_nonnegative_and_within_wall(sessions, name):
    _, traced = sessions[name]
    trace = json.loads((run.STATE / "trace" / f"{name}-seed3.json").read_text())
    assert all(s >= 0 for s in trace["self_ns"])
    timed = {rec["index"] for it in traced["iterations"] for rec in it["commands"]}
    timed_self = sum(s for span, s in zip(trace["spans"], trace["self_ns"]) if span[4] in timed)
    wall = sum(it["wall_s"] for it in traced["iterations"])
    assert 0 < timed_self / 1e9 <= wall
    assert sum(v["self_s"] for v in traced["spans"].values()) > 0


def test_traced_layers_report_every_metric(sessions):
    plain, traced = sessions["exact-opt"]
    values = run.traced_metrics([plain], [traced])
    assert [n for n, _, _ in run.per_layer_spec()] == list(values)
    assert values["solve_exact.calls"] == 2
    assert values["build_mip.variables"] > 0 and values["export_mps.bytes"] > 0


def test_corrupted_artifact_raises_error_rate(sessions):
    plain, _ = sessions["cohort-cli"]
    expected = {p: d for rec in run.commands(plain) for p, d in rec["digests"].items()}
    corrupted = json.loads(json.dumps(plain))
    rec = corrupted["iterations"][0]["commands"][0]
    path = next(iter(rec["digests"]))
    rec["digests"][path] = hashlib.sha256(b"corrupted").hexdigest()
    attempted, failed, errors = run.score([corrupted], expected)
    assert run.score([plain], expected)[1] == 0
    assert (attempted, failed) == (len(run.commands(plain)), 1)
    assert path in errors[0]


def test_tracer_patches_every_binding():
    sys.path.insert(0, str(run.ROOT / "src"))
    import perstrees.forest
    import perstrees.opt.solver
    import perstrees.tree
    from tracer import Tracer, install

    original = perstrees.tree.fit_pt
    tracer = Tracer()
    install(tracer)
    try:
        assert perstrees.tree.fit_pt is not original
        assert perstrees.forest.fit_pt is perstrees.tree.fit_pt
        assert perstrees.opt.solver.fit_pt is perstrees.tree.fit_pt
    finally:
        tracer.uninstall()
    assert perstrees.forest.fit_pt is original


def test_benchmark_json_matches_the_reported_metrics():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == run.per_layer_spec()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-opt", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
