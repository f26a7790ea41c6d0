"""perstrees benchmark: three CLI workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-reference

Each workload session runs in its own worker process (`worker.py`) with
BLAS/OpenMP pinned to one thread, so `ru_maxrss` is that session's own.
With `--trace 0` a run starts three sessions one after another, each
spending a third of `--seconds` on repeated timed commands, and reports
`wall_s` (median seconds of one pass over the timed commands),
`setup_s` (median seconds from spawning a session to its inputs being
written: interpreter start-up, importing perstrees, numpy and scipy,
and the `gen-data` commands) and `peak_rss_mb` (median of the
sessions). With `--trace 1` it alternates untraced and traced sessions
of one pass each until `--seconds` are used, and reports the traced
layers, the tracing overhead and the untraced `train_s`, `evaluate_s`
and `export_s`.

Every command's artifacts are checked: at the default seed their
sha256 must equal `reference.json` (recorded at the seed commit); at any
seed every pass must reproduce the first pass's digests, traced or not.
A command that exits non-zero, raises, fails its artifact check or
writes other bytes counts as failed; `error_rate` is failed over
attempted commands, set-up included. The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
SESSIONS = 3
DEADLINE_S = 170.0
PHASES = {"train_s": ("train",), "evaluate_s": ("evaluate",), "export_s": ("export",)}

FULL = ("calls", "total_s", "self_s", "p50_us", "p99_us")
BASIC = ("calls", "total_s", "self_s")
SPAN_UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "p50_us": "us", "p99_us": "us"}
SPANS = (
    [("sweep_feature", FULL), ("best_split", FULL), ("fit_pt", BASIC),
     ("PersonalizationTree.predict_many", FULL),
     ("fit_pf", BASIC), ("PersonalizationForest.predict_many", BASIC),
     ("prescriptions", BASIC), ("oracle_metrics", BASIC),
     ("fit_rc", BASIC), ("fit_1v1", BASIC), ("KnnRegressor.predict", FULL),
     ("greedy_submatch", BASIC), ("Metric.distances", FULL), ("matched_metrics", BASIC),
     ("mahalanobis_metric", BASIC),
     ("generate_synthetic", BASIC), ("save_csv", BASIC), ("load_csv", BASIC),
     ("save_model", BASIC), ("load_model", BASIC),
     ("build_cut_menu", BASIC), ("warm_start_from_pt", BASIC), ("solve_exact", BASIC),
     ("evaluate_assignment", BASIC), ("assignment_to_tree", BASIC),
     ("build_mip", BASIC), ("export_mps", BASIC)]
    + [(f"fit_algorithm.{a}", ("calls", "total_s"))
       for a in ("pt", "pf", "rc-ols", "rc-knn", "1v1a-ols", "opt")]
)
COUNTERS = (
    ("sweep_feature.rows", "count", "lower"), ("tree.split_yield", "ratio", "higher"),
    ("forest.trees", "count", "lower"), ("forest.redraws", "count", "lower"),
    ("prescriptions.rows", "count", "lower"), ("risk.fallback_rows", "count", "lower"),
    ("submatch.test_subjects", "count", "lower"),
    ("save_csv.rows", "count", "lower"), ("load_csv.rows", "count", "lower"),
    ("save_model.bytes", "B", "lower"), ("load_model.bytes", "B", "lower"),
    ("opt.menu_cuts", "count", "lower"), ("opt.solve_exact.rss_growth_mb", "MB", "lower"),
    ("opt.proved", "count", "higher"),
    ("build_mip.variables", "count", "lower"), ("build_mip.constraints", "count", "lower"),
    ("export_mps.bytes", "B", "lower"), ("experiment.cells", "count", "lower"),
)
RUN_METRICS = (("trace.overhead_s", "s", "lower"),) + tuple((p, "s", "lower") for p in PHASES)
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [(f"{span}.{field}", SPAN_UNITS[field], "lower")
            for span, fields in SPANS for field in fields]
    return spec + list(COUNTERS) + list(RUN_METRICS)


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark ran out of time")
        return left


def session(name, seed, budget, deadline, trace=False, small=False):
    """Run one worker process and return its parsed result."""
    workdir = STATE / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    result = workdir / "result.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    argv = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
            "--workload", name, "--seed", str(seed), "--workdir", str(workdir),
            "--budget", repr(budget), "--result", str(result)]
    if trace:
        (STATE / "trace").mkdir(parents=True, exist_ok=True)
        argv += ["--trace-file", str(STATE / "trace" / f"{name}-seed{seed}.json")]
    if small:
        argv.append("--small")
    try:
        argv += ["--spawned", repr(time.monotonic())]
        proc = subprocess.run(argv, env=env, stdout=sys.stderr, timeout=deadline.left())
        if proc.returncode != 0:
            raise RuntimeError(f"{name} worker exited with code {proc.returncode}")
        return json.loads(result.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def commands(result):
    return result["setup"] + [c for it in result["iterations"] for c in it["commands"]]


def score(results, expected):
    """(attempted, failed, messages) over every command of every session.

    `expected` maps artifact path to sha256; paths it lacks take the
    first digest seen, so every later pass must reproduce it.
    """
    expected = dict(expected)
    attempted, errors = 0, []
    for result in results:
        for rec in commands(result):
            attempted += 1
            error = rec["error"]
            for path, digest in rec["digests"].items():
                want = expected.setdefault(path, digest)
                if digest != want and error is None:
                    error = f"{path}: sha256 {digest[:12]}… differs from {want[:12]}…"
            if error:
                errors.append(f"{rec['command']} #{rec['index']}: {error}")
    return attempted, len(errors), errors


def reference_for(name, seed, small):
    if seed != DEFAULT_SEED or small or not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(name, {})


def phase_seconds(results):
    """Median per-pass seconds of each phase the workload has."""
    out = {}
    for phase, kinds in PHASES.items():
        passes = [sum(c["seconds"] for c in it["commands"] if c["kind"] in kinds)
                  for r in results for it in r["iterations"]
                  if any(c["kind"] in kinds for c in it["commands"])]
        if passes:
            out[phase] = statistics.median(passes)
    return out


def untraced_metrics(results):
    walls = [it["wall_s"] for r in results for it in r["iterations"]]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in results),
    }
    return metrics, walls


def layer_values(result):
    spans, counters = result["spans"], result["counters"]
    values = {}
    for span, fields in SPANS:
        for field in fields:
            values[f"{span}.{field}"] = spans.get(span, {}).get(field, 0)
    for name, _, _ in COUNTERS:
        values[name] = counters.get(name, 0)
    calls = spans.get("best_split", {}).get("calls", 0)
    values["tree.split_yield"] = counters.get("best_split.splits", 0) / calls if calls else 0
    return values


def traced_metrics(plain, traced):
    per_run = [layer_values(r) for r in traced]
    values = {k: statistics.median(v[k] for v in per_run) for k in per_run[0]}
    wall = [it["wall_s"] for r in traced for it in r["iterations"]]
    base = [it["wall_s"] for r in plain for it in r["iterations"]]
    values["trace.overhead_s"] = statistics.median(wall) - statistics.median(base)
    phases = phase_seconds(plain)
    for phase in PHASES:
        values[phase] = phases.get(phase, 0)
    return values


def run_workload(name, seed, seconds, trace, deadline, small=False):
    """Sessions of one workload; returns (report dict, text lines)."""
    started = time.monotonic()
    lines = []
    if trace:
        plain, traced = [], []
        while not traced or time.monotonic() - started < seconds:
            plain.append(session(name, seed, 0, deadline, small=small))
            traced.append(session(name, seed, 0, deadline, trace=True, small=small))
        results = plain + traced
        values = traced_metrics(plain, traced)
        units = {n: u for n, u, _ in per_layer_spec()}
        metrics = {n: {"value": values[n], "unit": units[n]} for n, _, _ in per_layer_spec()}
        lines.append(f"{name}: {len(traced)} traced and {len(plain)} untraced sessions; "
                     f"tracing overhead {values['trace.overhead_s']:.3f} s per pass; "
                     f"spans in {STATE / 'trace'}")
        for span, fields in SPANS:
            if values[f"{span}.calls"]:
                lines.append(f"  {span:<36} " + "  ".join(
                    f"{f}={values[f'{span}.{f}']:.6g}" for f in fields))
        for counter, unit, _ in COUNTERS:
            if values[counter]:
                lines.append(f"  {counter:<36} {values[counter]:.6g} {unit}")
    else:
        results = [session(name, seed, seconds / SESSIONS, deadline, small=small)
                   for _ in range(SESSIONS)]
        values, walls = untraced_metrics(results)
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
        phases = phase_seconds(results)
        q = statistics.quantiles(walls, n=4) if len(walls) > 1 else [walls[0]] * 3
        lines.append(f"{name}: wall_s {values['wall_s']:.4f} s (median of {len(walls)} passes, "
                     f"quartiles {q[0]:.4f}..{q[2]:.4f}); setup_s {values['setup_s']:.4f} s; "
                     f"peak_rss_mb {values['peak_rss_mb']:.1f} MB")
        lines.append("  passes " + " ".join(f"{w:.4f}" for w in walls))
        if phases:
            lines.append("  " + "; ".join(f"{p} {v:.4f} s" for p, v in phases.items())
                         + " (median per pass)")
    attempted, failed, errors = score(results, reference_for(name, seed, small))
    lines.append(f"  error_rate {failed / attempted:.4g} ({failed} failed of {attempted} "
                 f"commands, set-up included)")
    lines.extend(f"  FAILED {e}" for e in errors[:20])
    report = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return report, lines


def record_reference(deadline):
    """Write the default seed's artifact digests for every workload."""
    doc = {}
    for name in WORKLOADS:
        result = session(name, DEFAULT_SEED, 0, deadline)
        bad = [c for c in commands(result) if c["error"]]
        if bad:
            raise RuntimeError(f"{name}: cannot record a reference from failed commands: {bad}")
        doc[name] = {p: d for c in commands(result) for p, d in sorted(c["digests"].items())}
    REFERENCE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "perstrees" / "cli.py").is_file():
        print(f"perfbench: no perstrees sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = Deadline(DEADLINE_S * len(names))
    if args.record_reference:
        record_reference(deadline)
        return 0
    reports = {}
    for name in names:
        reports[name], lines = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        print("\n".join(lines), flush=True)
    print(json.dumps(reports[names[0]] if len(names) == 1 else reports))
    return 0


if __name__ == "__main__":
    sys.exit(main())
