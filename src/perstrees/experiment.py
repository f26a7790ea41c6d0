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

Replications run serially; determinism comes from the master seed
alone.
"""

from dataclasses import dataclass, field

import numpy as np

from .baselines import fit_1v1, fit_1va, fit_rc, make_cate, make_regressor
from .data import SyntheticSpec, generate_synthetic, split
from .errors import ConfigError
from .forest import PfConfig, fit_pf
from .opt import OptConfig, TreeSkeleton, build_cut_menu, solve_exact, warm_start_from_pt
from .risk import oracle_metrics
from .seeding import derive_seed
from .submatch import greedy_submatch, mahalanobis_metric, matched_metrics, optimal_submatch
from .tree import PtConfig, fit_pt

CONFIG_VERSION = 1

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


def _pt_config(params, seed, n_min_leaf=1):
    return PtConfig(
        n_min_leaf=params.get("n_min_leaf", n_min_leaf),
        delta_max=params.get("delta_max"),
        n_features=params.get("n_features"),
        scarce_mode=params.get("scarce_mode", False),
        seed=params.get("seed", seed),
    )


def _fit_pt(ds, params, seed):
    return fit_pt(ds, _pt_config(params, seed))


def _fit_pf(ds, params, seed):
    cfg = PfConfig(
        trees_count=params.get("trees_count", 100),
        base=_pt_config(params, seed, n_min_leaf=10),
        seed=params.get("seed", seed),
    )
    return fit_pf(ds, cfg)


def _fit_opt(ds, params, seed):
    cfg = OptConfig(
        delta=params.get("delta", 2),
        n_min_leaf=params.get("n_min_leaf", 20),
        n_features=params.get("n_features"),
        n_cuts=params.get("n_cuts", 10),
        time_limit=params.get("time_limit"),
        seed=params.get("seed", seed),
    )
    skeleton = TreeSkeleton(cfg.delta)
    menu = build_cut_menu(ds, skeleton, cfg)
    warm = None
    if params.get("warm", True):
        warm = warm_start_from_pt(ds, cfg, skeleton, menu)
    return solve_exact(ds, skeleton, menu, cfg, warm=warm).tree


def _fit_rc_base(base):
    def fit(ds, params, seed):
        del seed
        return fit_rc(ds, regressor_factory=make_regressor(base, params), base=base)

    return fit


def _fit_relabel(base, variant=None):
    def fit(ds, params, seed):
        del seed
        factory = make_cate(base, params)
        if variant is None:
            return fit_1va(ds, cate_factory=factory, base=base)
        return fit_1v1(ds, cate_factory=factory, base=base, variant=variant)

    return fit


ALGORITHMS = {
    "pt": _fit_pt,
    "pf": _fit_pf,
    "opt": _fit_opt,
    "rc-ols": _fit_rc_base("ols"),
    "rc-knn": _fit_rc_base("knn"),
    "1va-ols": _fit_relabel("ols"),
    "1va-knn": _fit_relabel("knn"),
    "1v1a-ols": _fit_relabel("ols", "A"),
    "1v1a-knn": _fit_relabel("knn", "A"),
    "1v1b-ols": _fit_relabel("ols", "B"),
    "1v1b-knn": _fit_relabel("knn", "B"),
}


def fit_algorithm(name, ds, params=None, seed=0):
    """Train one named algorithm; unknown names raise ConfigError."""
    fn = ALGORITHMS.get(name)
    if fn is None:
        known = ", ".join(sorted(ALGORITHMS))
        raise ConfigError(f"unknown algorithm {name!r}; valid names: {known}")
    return fn(ds, dict(params or {}), seed)


@dataclass(frozen=True)
class AlgoSpec:
    name: str
    params: dict = field(default_factory=dict)
    label: str = None

    @property
    def column(self):
        return self.label if self.label is not None else self.name


@dataclass(frozen=True)
class Protocol:
    kind: str  # "oracle" | "greedy-submatch" | "optimal-submatch"
    n_test: int = None
    n_pair: int = None


@dataclass(frozen=True)
class ExperimentConfig:
    algorithms: tuple
    n_grid: tuple
    replications: int
    protocol: Protocol
    master_seed: int
    data: dict
    output: str
    version: int = CONFIG_VERSION


def _data_template(doc):
    data = dict(doc)
    preset = data.pop("preset", None)
    if preset is not None:
        if preset not in PRESETS:
            known = ", ".join(sorted(PRESETS))
            raise ConfigError(f"unknown preset {preset!r}; valid names: {known}")
        merged = dict(PRESETS[preset])
        merged.update(data)
        data = merged
    for key in ("d", "m", "outcome_model", "propensity_model"):
        if key not in data:
            raise ConfigError(f"data spec lacks {key!r}")
    return data


def experiment_config_from_doc(doc):
    """Validate and structure a parsed experiment config JSON."""
    if not isinstance(doc, dict):
        raise ConfigError("experiment config must be a JSON object")
    if doc.get("version") != CONFIG_VERSION:
        raise ConfigError(f"config version must be {CONFIG_VERSION}")
    algos = []
    for entry in doc.get("algorithms", []):
        if isinstance(entry, str):
            entry = {"name": entry}
        name = entry.get("name")
        if name not in ALGORITHMS:
            known = ", ".join(sorted(ALGORITHMS))
            raise ConfigError(f"unknown algorithm {name!r}; valid names: {known}")
        algos.append(
            AlgoSpec(name=name, params=dict(entry.get("params", {})), label=entry.get("label"))
        )
    if not algos:
        raise ConfigError("at least one algorithm is required")
    labels = [a.column for a in algos]
    if len(set(labels)) != len(labels):
        raise ConfigError("algorithm labels must be unique")
    n_grid = tuple(int(n) for n in doc.get("n_grid", []))
    if not n_grid or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ConfigError("n_grid must be a non-empty ascending list")
    replications = int(doc.get("replications", 0))
    if replications < 1:
        raise ConfigError("replications must be at least 1")
    proto = doc.get("protocol", {})
    kind = proto.get("kind")
    if kind not in ("oracle", "greedy-submatch", "optimal-submatch"):
        raise ConfigError(
            "protocol kind must be oracle, greedy-submatch, or optimal-submatch"
        )
    n_test = proto.get("n_test")
    n_pair = proto.get("n_pair")
    if kind in ("oracle", "greedy-submatch") and not n_test:
        raise ConfigError(f"{kind} protocol needs n_test")
    if kind == "optimal-submatch" and not n_pair:
        raise ConfigError("optimal-submatch protocol needs n_pair")
    if "output" not in doc:
        raise ConfigError("output path is required")
    return ExperimentConfig(
        algorithms=tuple(algos),
        n_grid=n_grid,
        replications=replications,
        protocol=Protocol(kind=kind, n_test=n_test, n_pair=n_pair),
        master_seed=int(doc.get("master_seed", 0)),
        data=_data_template(doc.get("data", {})),
        output=str(doc["output"]),
    )


def _make_spec(template, n, seed):
    return SyntheticSpec(
        n=n,
        d=int(template["d"]),
        m=int(template["m"]),
        outcome_model=template["outcome_model"],
        propensity_model=template["propensity_model"],
        covariate_model=template.get("covariate_model", {"name": "normal"}),
        seed=seed,
    )


def synthetic_spec_from_doc(doc):
    """SyntheticSpec from a JSON document, expanding any preset."""
    if not isinstance(doc, dict):
        raise ConfigError("synthetic spec must be a JSON object")
    doc = dict(doc)
    n = doc.pop("n", None)
    if n is None:
        raise ConfigError("synthetic spec needs n")
    seed = int(doc.pop("seed", 0))
    return _make_spec(_data_template(doc), int(n), seed)


def _cell(config, n, rep):
    """Train/test material for one (n, replication) cell."""
    data_seed = derive_seed(config.master_seed, "data", n, rep)
    proto = config.protocol
    if proto.kind == "oracle":
        pool = generate_synthetic(_make_spec(config.data, n + proto.n_test, data_seed))
        train = split(pool, np.arange(n))
        test = split(pool, np.arange(n, pool.n))
        return train, ("oracle", test)
    pool = generate_synthetic(_make_spec(config.data, n, data_seed))
    metric = mahalanobis_metric(pool)
    if proto.kind == "greedy-submatch":
        match_seed = derive_seed(config.master_seed, "match", n, rep)
        mts = greedy_submatch(pool, proto.n_test, metric, match_seed)
    else:
        mts = optimal_submatch(pool, proto.n_pair, metric)
    keep = np.setdiff1d(np.arange(pool.n), np.asarray(mts.removed, dtype=np.int64))
    # removed-set audit: nothing matched may reach the training pool
    assert not set(keep.tolist()) & set(mts.removed), "matched subject leaked into training"
    return split(pool, keep), ("matched", mts)


def run_experiment(config):
    """Run every cell and write the long-format CSV; returns the rows."""
    rows = []
    for n in config.n_grid:
        for rep in range(1, config.replications + 1):
            train, (mode, held) = _cell(config, n, rep)
            for algo in config.algorithms:
                fit_seed = derive_seed(config.master_seed, "fit", algo.column, n, rep)
                policy = fit_algorithm(algo.name, train, algo.params, fit_seed)
                if mode == "oracle":
                    score = oracle_metrics(held, policy)
                else:
                    score = matched_metrics(held, policy)
                rows.append((algo.column, n, rep, score.risk, score.p1, score.p2))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    _write_rows(rows, config.output)
    return rows


def _fmt(v):
    v = float(v)
    if np.isnan(v):
        return "nan"
    return repr(v)


def _write_rows(rows, path):
    lines = ["algo,n,replication,risk,p1,p2"]
    for algo, n, rep, risk, p1, p2 in rows:
        lines.append(f"{algo},{n},{rep},{_fmt(risk)},{_fmt(p1)},{_fmt(p2)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
