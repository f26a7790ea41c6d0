"""Settings checks shared by every config class, and the README's lists
of accepted params keys and of generator-model parameters against the
ones the code declares."""

import dataclasses
import fnmatch
import json
import pathlib
import re

import numpy as np
import pytest

from perstrees import data
from perstrees.baselines import KnnRegressor
from perstrees.data import SyntheticSpec, generate_synthetic
from perstrees.errors import ConfigError, PerstreesError
from perstrees.experiment import (
    ALGORITHMS,
    PRESETS,
    AlgoSpec,
    ExperimentConfig,
    Protocol,
    fit_algorithm,
    run_experiment,
)
from perstrees.forest import PfConfig, fit_pf
from perstrees.model_io import model_to_doc
from perstrees.opt import OptConfig, build_cut_menu, solve_exact
from perstrees.tree import PtConfig, fit_pt

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# the smallest valid arguments of each class, which one field then spoils
VALID = {
    PtConfig: {},
    PfConfig: {},
    OptConfig: {},
    SyntheticSpec: {
        "n": 5, "d": 1, "m": 1,
        "outcome_model": {"name": "quadratic", "centers": [0.0]},
        "propensity_model": {"name": "uniform"},
    },
    KnnRegressor: {},
}

INTEGER_FIELDS = [
    (PtConfig, "n_min_leaf", 1),
    (PtConfig, "delta_max", 0),
    (PtConfig, "n_features", 1),
    (PtConfig, "seed", 0),
    (PfConfig, "trees_count", 1),
    (PfConfig, "n_min_leaf", 1),
    (PfConfig, "delta_max", 0),
    (PfConfig, "n_features", 1),
    (PfConfig, "seed", 0),
    (OptConfig, "delta", 1),
    (OptConfig, "n_min_leaf", 1),
    (OptConfig, "n_features", 1),
    (OptConfig, "n_cuts", 1),
    (OptConfig, "seed", 0),
    (SyntheticSpec, "n", 1),
    (SyntheticSpec, "d", 1),
    (SyntheticSpec, "m", 1),
    (SyntheticSpec, "seed", 0),
    (KnnRegressor, "k", 1),
]
FIELD_IDS = [f"{cls.__name__}.{name}" for cls, name, _ in INTEGER_FIELDS]


@pytest.mark.parametrize("cls, name, minimum", INTEGER_FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("bad", [True, 2.5, float("nan"), "3", "below"])
def test_integer_field_refuses(cls, name, minimum, bad):
    value = minimum - 1 if bad == "below" else bad
    with pytest.raises(ConfigError, match=f"{name} must be"):
        cls(**{**VALID[cls], name: value})


@pytest.mark.parametrize("cls, name, minimum", INTEGER_FIELDS, ids=FIELD_IDS)
def test_integer_field_takes_its_minimum(cls, name, minimum):
    cls(**{**VALID[cls], name: minimum})
    cls(**{**VALID[cls], name: np.int64(minimum)})


def test_pf_config_takes_no_base():
    # a forest's tree settings are its own fields
    with pytest.raises(TypeError, match="base"):
        PfConfig(base=PtConfig(n_min_leaf=5))


@pytest.mark.parametrize("value", ["no", 1, None])
def test_scarce_mode_must_be_bool(value):
    for cls in (PtConfig, PfConfig):
        with pytest.raises(ConfigError, match="scarce_mode must be"):
            cls(scarce_mode=value)


def fit_opt(ds, config):
    return solve_exact(ds, build_cut_menu(ds, config), config).tree


# Per config class: its fit, the settings each case starts from, and one
# other value of every field. Each value must move the fitted document
# or be refused by the fit, so no setting goes unread.
SETTINGS = {
    PtConfig: (fit_pt, {}, {
        "n_min_leaf": 5, "delta_max": 1, "n_features": 1, "scarce_mode": True, "seed": 1}),
    PfConfig: (fit_pf, {"trees_count": 3}, {
        "trees_count": 4, "n_min_leaf": 5, "delta_max": 1, "n_features": 10,
        "scarce_mode": True, "seed": 1}),
    OptConfig: (fit_opt, {"n_min_leaf": 5, "n_features": 3, "n_cuts": 4}, {
        "delta": 1, "n_min_leaf": 7, "n_features": 10, "n_cuts": 6, "work_limit": 0, "seed": 1}),
}
SETTING_CASES = [(cls, f.name) for cls in SETTINGS for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("cls, name", SETTING_CASES,
                         ids=[f"{cls.__name__}.{name}" for cls, name in SETTING_CASES])
def test_every_setting_changes_the_fit(cls, name):
    fit, start, other = SETTINGS[cls]
    ds = generate_synthetic(SyntheticSpec(n=200, seed=0, **PRESETS["warfarin-like"]))
    changed = cls(**{**start, name: other[name]})
    assert changed != cls(**start)
    before = model_to_doc(fit(ds, cls(**start)))
    try:
        after = model_to_doc(fit(ds, changed))
    except PerstreesError:
        return
    assert after != before


@pytest.mark.parametrize("algo, params, named", [
    ("opt", {"warm": True}, "unknown opt parameter 'warm'"),
    ("pf", {"base": {}}, "unknown pf parameter 'base'"),
])
def test_bad_params_refused_before_fitting(algo, params, named):
    # no dataset is needed: the params are checked before any fit
    with pytest.raises(ConfigError, match=named):
        fit_algorithm(algo, None, params)


def experiment(tmp_path, **fields):
    """A small valid ExperimentConfig, the given fields replaced."""
    return ExperimentConfig(**{
        "algorithms": (AlgoSpec("pt"),), "n_grid": (40,), "replications": 1,
        "protocol": Protocol("oracle", n_test=20), "master_seed": 0,
        "data": {"preset": "quadratic"}, "output": str(tmp_path / "curve.csv"), **fields,
    })


@pytest.mark.parametrize("field, value, named", [
    ("algorithms", (AlgoSpec("pt"), AlgoSpec("pt")), "labels must be unique"),
    ("algorithms", (), "at least one algorithm"),
    ("algorithms", ("pt",), "AlgoSpec entries"),
    ("n_grid", (60, 40), "n_grid must be"),
    ("n_grid", (40.5,), "n_grid entry must be"),
    ("replications", 0, "replications must be"),
    ("master_seed", -5, "master_seed must be"),
    ("protocol", {"kind": "oracle", "n_test": 20}, "protocol must be a Protocol"),
    ("data", {"preset": "cubic"}, "unknown preset 'cubic'"),
    ("data", {"preset": "quadratic", "n": 5}, "unknown data spec parameter 'n'"),
    ("output", None, "output must be a path"),
    ("version", 2, "config version must be 1"),
])
def test_experiment_config_checks_its_fields(tmp_path, field, value, named):
    with pytest.raises(ConfigError, match=named):
        experiment(tmp_path, **{field: value})


@pytest.mark.parametrize("cls, kwargs, named", [
    (AlgoSpec, {"name": "pt", "label": "a,b"}, "label must be"),
    (AlgoSpec, {"name": "pt", "params": {"n_min_lef": 5}}, "'n_min_lef'"),
    (AlgoSpec, {"name": "pt", "params": [1]}, "params must be"),
    (AlgoSpec, {"name": "tree"}, "unknown algorithm 'tree'"),
    (Protocol, {"kind": "holdout"}, "protocol kind must be"),
    (Protocol, {"kind": "oracle"}, "n_test must be"),
    (Protocol, {"kind": "optimal-submatch", "n_pair": 0}, "n_pair must be"),
    (Protocol, {"kind": "oracle", "n_test": 40, "n_pair": 5},
     "n_pair is not a setting of the oracle protocol"),
    (Protocol, {"kind": "greedy-submatch", "n_test": 40, "n_pair": 7},
     "n_pair is not a setting of the greedy-submatch protocol"),
    (Protocol, {"kind": "optimal-submatch", "n_test": 99, "n_pair": 5},
     "n_test is not a setting of the optimal-submatch protocol"),
])
def test_algo_spec_and_protocol_check_their_fields(cls, kwargs, named):
    with pytest.raises(ConfigError, match=re.escape(named)):
        cls(**kwargs)


def test_experiment_config_expands_its_preset(tmp_path):
    config = experiment(tmp_path)
    assert "preset" not in config.data and config.data["d"] == 2
    assert [row[:3] for row in run_experiment(config)] == [("pt", 40, 1)]


def accepted_keys(algo):
    """The keys the code accepts, as listed by its unknown-key message."""
    with pytest.raises(ConfigError, match="valid keys: ") as info:
        fit_algorithm(algo, None, {"no_such_key": 1})
    listed = str(info.value).split("valid keys: ", 1)[1]
    return set() if listed == "none" else set(listed.split(", "))


def readme_bullets(marker):
    """The README's bullets after the first line holding marker, each
    joined onto one line."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if marker in line) + 1
    bullets = []
    for line in lines[start:]:
        if line.startswith("- "):
            bullets.append(line[2:])
        elif line.startswith("  ") and bullets:
            bullets[-1] += line
        elif bullets:
            break
    return bullets


def readme_keys():
    """{algorithm: keys} from the README's accepted-keys bullets."""
    found = {}
    for bullet in readme_bullets("the accepted keys"):
        names, keys = bullet.split(":", 1)
        patterns = re.findall(r"`([^`]+)`", names)
        for algo in {a for p in patterns for a in fnmatch.filter(ALGORITHMS, p)}:
            assert algo not in found, f"README lists {algo} twice"
            found[algo] = set(re.findall(r"`([^`]+)`", keys))
    return found


def test_readme_lists_the_accepted_keys():
    documented = readme_keys()
    assert sorted(documented) == sorted(ALGORITHMS)
    for algo in ALGORITHMS:
        assert documented[algo] == accepted_keys(algo), algo


MODELS = {"covariates": data._COVARIATE, "outcome": data._OUTCOME, "propensity": data._PROPENSITY}


def test_readme_lists_the_model_parameters():
    # a bullet reads "<kind> `<name>`[, m = <m> only]: <params>; <prose>",
    # each parameter `key` if required, else `key=<default as JSON>`
    documented = {}
    for bullet in readme_bullets("The models"):
        head, rest = bullet.split(":", 1)
        kind, name = re.match(r"(\w+) `(\w+)`", head).groups()
        only = re.search(r"m = (\d+) only", head)
        params = re.findall(r"`([^`]+)`", rest.split(";", 1)[0])
        documented[kind, name] = (
            only and int(only[1]), dict(p.partition("=")[::2] for p in params)
        )
    declared = {}
    for kind, registry in MODELS.items():
        for name, draw in registry.items():
            defaults = draw.__kwdefaults__ or {}
            params = {
                k: json.dumps(defaults[k]) if k in defaults else "" for k in draw.__annotations__
            }
            declared[kind, name] = (data._ONLY_M.get(draw), params)
    assert documented == declared
