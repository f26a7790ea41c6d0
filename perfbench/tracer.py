"""In-memory span tracer that wraps perstrees functions from outside.

The tracer never edits the package: it replaces every `perstrees.*`
module binding of a wrapped function (``from .tree import fit_pt``
copies the name into ``forest``, ``experiment`` and ``opt.solver``, so
patching the home module alone would miss those callers) and the
listed methods on their classes. Each call records one span
``[name, start_ns, end_ns, parent, command]``; counters are updated by
per-target hooks at the same boundary. Spans stay in memory until
`summary` or `dump` is called after the run.
"""

import functools
import json
import math
import os
import resource
import sys
import time
from collections import defaultdict


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.command = -1
        self._stack = []
        self._undo = []

    def wrap(self, fn, name, after=None, before=None):
        """Wrapper recording a span named `name` (or `name(args)`) per call.

        `before(args, kwargs)` runs first and its value is handed to
        `after(counters, args, kwargs, result, state)`.
        """
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            rec = [name(args) if callable(name) else name, 0, 0,
                   stack[-1] if stack else -1, self.command]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after:
                after(counters, args, kwargs, result, state)
            return result

        return wrapper

    def patch_function(self, module, attr, name=None, **hooks):
        """Replace `module.attr` in every loaded perstrees module."""
        original = getattr(module, attr)
        wrapper = self.wrap(original, name or attr, **hooks)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "perstrees":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def patch_method(self, cls, attr, **hooks):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, f"{cls.__name__}.{attr}", **hooks))
        self._undo.append((cls, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def self_times(self):
        """Per-span self time in ns: duration minus the children's durations."""
        selfs = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs

    def summary(self):
        """{span name: {calls, total_s, self_s, p50_us, p99_us}}."""
        durations = defaultdict(list)
        own = defaultdict(int)
        for (name, start, end, _, _), s in zip(self.spans, self.self_times()):
            durations[name].append(end - start)
            own[name] += s
        out = {}
        for name, ds in durations.items():
            ds.sort()
            out[name] = {
                "calls": len(ds),
                "total_s": sum(ds) / 1e9,
                "self_s": own[name] / 1e9,
                "p50_us": _rank(ds, 0.50) / 1e3,
                "p99_us": _rank(ds, 0.99) / 1e3,
            }
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "command"],
                       "spans": self.spans, "self_ns": self.self_times(),
                       "counters": dict(self.counters)}, fh)


def _rank(sorted_values, q):
    """Nearest-rank percentile of a non-empty ascending list."""
    return sorted_values[max(0, math.ceil(len(sorted_values) * q) - 1)]


def install(tracer):
    """Wrap every layer boundary the per-layer metrics name."""
    from perstrees import baselines, data, experiment, forest, model_io, risk, submatch, tree
    from perstrees.opt import mip, mps, skeleton, solver

    def count(key, value):
        def after(c, args, kwargs, result, state):
            c[key] += value(args, kwargs, result, state)
        return after

    def file_bytes(pos):
        return lambda a, k, r, s: os.path.getsize(a[pos] if len(a) > pos else k["path"])

    def solve_after(c, args, kwargs, result, rss_before):
        c["opt.solve_exact.rss_growth_mb"] += _maxrss_mb() - rss_before
        c["opt.proved"] += bool(result.proved)

    def prescriptions_after(c, args, kwargs, result, state):
        c["prescriptions.rows"] += len(result)
        if not hasattr(args[0], "predict_many"):
            c["risk.fallback_rows"] += len(result)

    def fit_pf_after(c, args, kwargs, result, state):
        c["forest.trees"] += len(result.trees)

    def mip_after(c, args, kwargs, result, state):
        c["build_mip.variables"] += len(result.variables)
        c["build_mip.constraints"] += len(result.constraints)

    def experiment_after(c, args, kwargs, result, state):
        config = args[0]
        c["experiment.cells"] += len(config.n_grid) * config.replications

    tp = tracer.patch_function
    tp(tree, "sweep_feature", after=count("sweep_feature.rows", lambda a, k, r, s: len(a[0])))
    tp(tree, "best_split", after=count("best_split.splits", lambda a, k, r, s: r is not None))
    tp(tree, "fit_pt")
    tracer.patch_method(tree.PersonalizationTree, "predict_many")

    tp(forest, "fit_pf", after=fit_pf_after)
    tp(forest, "replicate_seed", after=count(
        "forest.redraws",
        lambda a, k, r, s: (a[2] if len(a) > 2 else k.get("attempt", 0)) > 0))
    tracer.patch_method(forest.PersonalizationForest, "predict_many")

    tp(risk, "prescriptions", after=prescriptions_after)
    tp(risk, "oracle_metrics")

    tp(baselines, "fit_rc")
    tp(baselines, "fit_1v1")
    tracer.patch_method(baselines.KnnRegressor, "predict")

    tp(submatch, "greedy_submatch", after=count("submatch.test_subjects", lambda a, k, r, s: r.n_test))
    tracer.patch_method(submatch.Metric, "distances")
    tp(submatch, "matched_metrics")
    tp(submatch, "mahalanobis_metric")

    tp(data, "generate_synthetic")
    tp(data, "save_csv", after=count("save_csv.rows", lambda a, k, r, s: a[0].n))
    tp(data, "load_csv", after=count("load_csv.rows", lambda a, k, r, s: r.n))

    tp(model_io, "save_model", after=count("save_model.bytes", file_bytes(1)))
    tp(model_io, "load_model", after=count("load_model.bytes", file_bytes(0)))

    tp(skeleton, "build_cut_menu", after=count(
        "opt.menu_cuts", lambda a, k, r, s: sum(len(cuts) for cuts in r.cuts)))
    tp(solver, "warm_start_from_pt")
    tp(solver, "solve_exact", before=lambda a, k: _maxrss_mb(), after=solve_after)
    tp(solver, "evaluate_assignment")
    tp(solver, "assignment_to_tree")

    tp(mip, "build_mip", after=mip_after)
    tp(mps, "export_mps", after=count("export_mps.bytes", file_bytes(1)))

    tp(experiment, "fit_algorithm", name=lambda a: f"fit_algorithm.{a[0]}")
    tp(experiment, "run_experiment", after=experiment_after)
