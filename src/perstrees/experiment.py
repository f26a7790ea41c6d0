"""Learning-curve experiment harness.

A JSON config names algorithms, a grid of dataset sizes, a replication
count, a test protocol, and a master seed. For every (n, replication)
cell one synthetic dataset is generated from a per-cell derived seed,
every algorithm trains on the same training rows, and one output row
(algo, n, replication, risk, p1, p2) is appended per algorithm. Rows
are sorted by (algo, n, replication) and written as a long-format CSV,
so any plotting tool can draw risk or personalization curves from it.

Protocols:
    oracle            n + n_test rows are generated; the last n_test
                      are held out and scored against their simulated
                      counterfactuals.
    greedy-submatch   a matched test set of n_test subjects is drawn
                      from the n-row pool; drawn and flagged subjects
                      are removed before training; scores come from the
                      imputed outcome matrix.
    optimal-submatch  as above with n_pair optimally matched pairs
                      (two treatments only).

Cells share nothing: each draws its data, matched set and fit seeds
from the master seed alone. They run in forked worker processes, one
per CPU this process may use, or in process where one worker would do,
where `fork` is missing, or inside a daemon process, which may start no
children. The rows and the CSV are the same bytes either way.
"""

import logging
import os
import time
from dataclasses import MISSING, dataclass, field, fields
from functools import partial

import numpy as np

from .baselines import fit_1v1, fit_1va, fit_rc, make_cate, make_regressor
from .data import SyntheticSpec, generate_synthetic, split
from .errors import ConfigError, _check_int, _check_keys, _check_object
from .forest import PfConfig, fit_pf
from .opt import OptConfig, build_cut_menu, solve_exact, warm_start_from_pt
from .risk import oracle_metrics
from .seeding import derive_seed
from .submatch import greedy_submatch, mahalanobis_metric, matched_metrics, optimal_submatch
from .tree import PtConfig, fit_pt

CONFIG_VERSION = 1

logger = logging.getLogger(__name__)

# generator templates for the bundled benchmarks; "n" and "seed" are
# filled in per replication
PRESETS = {
    "warfarin-like": {
        "d": 10,
        "m": 3,
        "outcome_model": {"name": "warfarin_like", "driver": 0, "up_feature": 1, "down_feature": 2, "flip": 0.1},
        "propensity_model": {"name": "bmi_logistic", "feature": 0},
    },
    "quadratic": {
        "d": 2,
        "m": 2,
        "outcome_model": {"name": "quadratic", "centers": [-1.0, 1.0], "feature": 0, "noise": 0.1},
        "propensity_model": {"name": "logistic_binary", "feature": 0, "strength": 1.0},
    },
}


def _fields(cls, *skip):
    """Field names of a config dataclass, skip aside."""
    return tuple(f.name for f in fields(cls) if f.name not in skip)


# Each algorithm is build(params, seed) -> fit(ds). build maps the params
# onto its config's fields by name; the seed comes from the caller alone.
# An undeclared key or a bad value raises ConfigError before any fit.


def _from_config(name, cls, fit):
    """pt and pf: params map onto cls's fields, fit(ds, config) trains."""
    def build(params, seed):
        _check_keys(name, params, _fields(cls, "seed"))
        cfg = cls(**params, seed=seed)
        return lambda ds: fit(ds, cfg)

    return build


def _opt(params, seed):
    _check_keys("opt", params, _fields(OptConfig, "seed"))
    cfg = OptConfig(**params, seed=seed)

    def fit(ds):
        menu = build_cut_menu(ds, cfg)
        return solve_exact(ds, menu, cfg, warm=warm_start_from_pt(ds, cfg, menu)).tree

    return fit


def _rc(base):
    def build(params, seed):
        factory = make_regressor(base, params)
        return lambda ds: fit_rc(ds, regressor_factory=factory)

    return build


def _relabel(base, variant=None):
    def build(params, seed):
        factory = make_cate(base, params)
        if variant is None:
            return lambda ds: fit_1va(ds, cate_factory=factory)
        return lambda ds: fit_1v1(ds, cate_factory=factory, variant=variant)

    return build


ALGORITHMS = {
    "pt": _from_config("pt", PtConfig, fit_pt),
    "pf": _from_config("pf", PfConfig, fit_pf),
    "opt": _opt,
    "rc-ols": _rc("ols"),
    "rc-knn": _rc("knn"),
    "1va-ols": _relabel("ols"),
    "1va-knn": _relabel("knn"),
    "1v1a-ols": _relabel("ols", "A"),
    "1v1a-knn": _relabel("knn", "A"),
    "1v1b-ols": _relabel("ols", "B"),
    "1v1b-knn": _relabel("knn", "B"),
}


def _build(name, params, seed):
    """The fit of one named algorithm under params, all checked."""
    build = ALGORITHMS.get(name)
    if build is None:
        known = ", ".join(sorted(ALGORITHMS))
        raise ConfigError(f"unknown algorithm {name!r}; valid names: {known}")
    return build(dict(params or {}), seed)


def fit_algorithm(name, ds, params=None, seed=0):
    """Train one named algorithm; an unknown name, an undeclared
    parameter or a bad value raises ConfigError."""
    return _build(name, params, seed)(ds)


@dataclass(frozen=True)
class AlgoSpec:
    name: str
    params: dict = field(default_factory=dict)
    label: str = None

    def __post_init__(self):
        _check_object("params", self.params)
        label = self.label  # a cell of the results CSV, written unquoted
        if label is not None and (not isinstance(label, str) or not label
                                  or any(c in ',"\r\n' for c in label)):
            raise ConfigError(f"label must be null or a CSV-safe string, got {label!r}")
        _build(self.name, self.params, 0)

    @property
    def column(self):
        return self.label if self.label is not None else self.name


@dataclass(frozen=True)
class Protocol:
    kind: str  # "oracle" | "greedy-submatch" | "optimal-submatch"
    n_test: int = None
    n_pair: int = None

    def __post_init__(self):
        if self.kind not in ("oracle", "greedy-submatch", "optimal-submatch"):
            raise ConfigError("protocol kind must be oracle, greedy-submatch, or optimal-submatch")
        optimal = self.kind == "optimal-submatch"
        own, other = ("n_pair", "n_test") if optimal else ("n_test", "n_pair")
        _check_int(own, getattr(self, own), 1)
        if getattr(self, other) is not None:  # an optimal test set holds 2 * n_pair subjects
            raise ConfigError(f"{other} is not a setting of the {self.kind} protocol")


@dataclass(frozen=True)
class ExperimentConfig:
    algorithms: tuple
    n_grid: tuple
    replications: int
    protocol: Protocol
    master_seed: int
    data: dict  # SyntheticSpec fields but n and seed; a preset is expanded on construction
    output: str
    version: int = CONFIG_VERSION

    def __post_init__(self):
        if self.version != CONFIG_VERSION:
            raise ConfigError(f"config version must be {CONFIG_VERSION}")
        if not self.algorithms:
            raise ConfigError("at least one algorithm is required")
        if not all(isinstance(a, AlgoSpec) for a in self.algorithms):
            raise ConfigError(f"algorithms must be AlgoSpec entries, got {self.algorithms!r}")
        labels = [a.column for a in self.algorithms]
        if len(set(labels)) != len(labels):
            raise ConfigError("algorithm labels must be unique")
        grid = self.n_grid if isinstance(self.n_grid, (list, tuple)) else ()
        for n in grid:
            _check_int("n_grid entry", n, 1)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("n_grid must be a non-empty ascending list")
        if not isinstance(self.protocol, Protocol):
            raise ConfigError(f"protocol must be a Protocol, got {self.protocol!r}")
        if not isinstance(self.output, str):
            raise ConfigError(f"output must be a path, got {self.output!r}")
        object.__setattr__(self, "data", _data_template(_check_object("data", self.data), "n", "seed"))
        SyntheticSpec(n=grid[0], **self.data)  # checks d, m and the models now, not in the first cell
        _check_int("replications", self.replications, 1)
        _check_int("master_seed", self.master_seed, 0)


def _data_template(doc, *cell):
    """SyntheticSpec fields of a data document, any preset expanded.
    cell names the fields the caller fills in, which the document may
    not set."""
    data = dict(doc)
    preset = data.pop("preset", None)
    if preset is not None:
        if preset not in PRESETS:
            known = ", ".join(sorted(PRESETS))
            raise ConfigError(f"unknown preset {preset!r}; valid names: {known}")
        merged = dict(PRESETS[preset])
        merged.update(data)
        data = merged
    _check_keys("data spec", data, ("preset",) + _fields(SyntheticSpec, *cell))
    for f in fields(SyntheticSpec):
        required = f.default is MISSING and f.default_factory is MISSING
        if required and f.name not in data and f.name not in cell:
            raise ConfigError(f"data spec lacks {f.name!r}")
    return data


def experiment_config_from_doc(doc):
    """Structure a parsed experiment config JSON. The config classes
    check every value, every algorithm's params included, so a bad value
    fails before the first cell trains."""
    _check_object("experiment config", doc)
    _check_keys("experiment config", doc, _fields(ExperimentConfig))
    algos = []
    entries = doc.get("algorithms", [])
    if not isinstance(entries, list):
        raise ConfigError(f"algorithms must be a list, got {entries!r}")
    for entry in entries:
        entry = {"name": entry} if isinstance(entry, str) else _check_object("algorithms entry", entry)
        _check_keys("algorithms entry", entry, _fields(AlgoSpec))
        algos.append(AlgoSpec(entry.get("name"), entry.get("params", {}), entry.get("label")))
    proto = _check_object("protocol", doc.get("protocol", {}))
    _check_keys("protocol", proto, _fields(Protocol))
    grid = doc.get("n_grid")
    return ExperimentConfig(
        algorithms=tuple(algos),
        n_grid=tuple(grid) if isinstance(grid, list) else (),
        replications=doc.get("replications"),
        protocol=Protocol(proto.get("kind"), proto.get("n_test"), proto.get("n_pair")),
        master_seed=doc.get("master_seed", 0),
        data=doc.get("data", {}),
        output=doc.get("output"),
        version=doc.get("version"),
    )


def synthetic_spec_from_doc(doc):
    """SyntheticSpec from a JSON document, expanding any preset."""
    return SyntheticSpec(**_data_template(_check_object("synthetic spec", doc)))


def _matched_set(ds, protocol, seed):
    """The matched test set a submatch protocol draws from ds; seed
    drives greedy draws."""
    metric = mahalanobis_metric(ds)
    if protocol.kind == "greedy-submatch":
        return greedy_submatch(ds, protocol.n_test, metric, seed)
    return optimal_submatch(ds, protocol.n_pair, metric)


def _cell(config, n, rep):
    """Train/test material for one (n, replication) cell."""
    data_seed = derive_seed(config.master_seed, "data", n, rep)
    proto = config.protocol
    if proto.kind == "oracle":
        pool = generate_synthetic(SyntheticSpec(**config.data, n=n + proto.n_test, seed=data_seed))
        train = split(pool, np.arange(n))
        test = split(pool, np.arange(n, pool.n))
        return train, ("oracle", test)
    pool = generate_synthetic(SyntheticSpec(**config.data, n=n, seed=data_seed))
    mts = _matched_set(pool, proto, derive_seed(config.master_seed, "match", n, rep))
    keep = np.setdiff1d(np.arange(pool.n), np.asarray(mts.removed, dtype=np.int64))
    # removed-set audit: nothing matched may reach the training pool
    assert not set(keep.tolist()) & set(mts.removed), "matched subject leaked into training"
    return split(pool, keep), ("matched", mts)


def _run_cell(config, cell):
    """One (n, replication) cell's rows and each algorithm's (column,
    fit seconds, evaluate seconds)."""
    n, rep = cell
    train, (mode, held) = _cell(config, n, rep)
    score = oracle_metrics if mode == "oracle" else matched_metrics
    rows, seconds = [], []
    for algo in config.algorithms:
        fit_seed = derive_seed(config.master_seed, "fit", algo.column, n, rep)
        start = time.perf_counter()
        policy = fit_algorithm(algo.name, train, algo.params, fit_seed)
        fitted = time.perf_counter()
        metrics = score(held, policy)
        seconds.append((algo.column, fitted - start, time.perf_counter() - fitted))
        rows.append((algo.column, n, rep, metrics.risk, metrics.p1, metrics.p2))
    return rows, seconds


def _usable_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_cells(config, cells):
    """_run_cell over cells, the results in the order of cells, the
    first failing cell in that order raising its error.

    A pool of min(cells, usable CPUs) forked workers takes the cells
    one at a time, largest n first so that no long cell starts last. A
    worker's error comes back with its traceback chained as the cause,
    a worker that dies raises BrokenProcessPool, and leaving the `with`
    block waits for every worker to end. With one worker, without
    `fork`, or in a daemon process, which may start no children, the
    cells run in process and lazily instead."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(len(cells), _usable_cpus())
    if (workers < 2 or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return map(partial(_run_cell, config), cells)
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = {cell: pool.submit(_run_cell, config, cell)
                   for cell in sorted(cells, key=lambda cell: -cell[0])}
        return [futures[cell].result() for cell in cells]


def run_experiment(config):
    """Run every cell and write the long-format CSV; returns the rows.

    A failing cell raises its error and nothing is written. Each cell
    logs a DEBUG record of its fit and evaluate seconds."""
    cells = [(n, rep) for n in config.n_grid for rep in range(1, config.replications + 1)]
    rows = []
    for (n, rep), (cell_rows, seconds) in zip(cells, _map_cells(config, cells)):
        logger.debug("experiment cell n=%d replication=%d: %s", n, rep, "; ".join(
            f"{column} fit {fit:.4f} s, evaluate {ev:.4f} s" for column, fit, ev in seconds))
        rows.extend(cell_rows)
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    _write_rows(rows, config.output)
    return rows


def _write_rows(rows, path):
    lines = ["algo,n,replication,risk,p1,p2"]
    for algo, n, rep, risk, p1, p2 in rows:
        lines.append(f"{algo},{n},{rep}," + ",".join(repr(float(v)) for v in (risk, p1, p2)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
