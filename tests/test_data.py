import csv
import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from perstrees import data
from perstrees.data import (
    Dataset,
    Feature,
    FeatureSchema,
    SyntheticSpec,
    bootstrap,
    confounded_propensity,
    generate_synthetic,
    load_csv,
    save_csv,
    split,
)
from perstrees.errors import ConfigError, DomainError, ParseError, SchemaError
from perstrees.experiment import PRESETS

from helpers import random_dataset
from oracles import load_csv_reference, save_csv_reference


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestSchema:
    def test_numeric_names(self):
        schema = FeatureSchema(features=(Feature("age"), Feature("bmi")))
        assert schema.encoded_names == ("age", "bmi")
        assert schema.encoded_dim == 2

    def test_one_hot_expansion(self):
        schema = FeatureSchema(
            features=(Feature("color", levels=("b", "g", "r")), Feature("age"))
        )
        assert schema.encoded_names == ("color=b", "color=g", "color=r", "age")
        assert schema.encoded_dim == 4

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            FeatureSchema(features=(Feature("x"), Feature("x")))

    def test_duplicate_levels_rejected(self):
        with pytest.raises(SchemaError):
            FeatureSchema(features=(Feature("c", levels=("a", "a")),))


class TestDatasetInvariants:
    def test_label_out_of_range(self):
        with pytest.raises(DomainError):
            Dataset(X=np.zeros((2, 1)), T=np.array([1, 3]), Y=np.zeros(2), m=2)

    def test_cf_must_agree_with_y(self):
        with pytest.raises(DomainError):
            Dataset(
                X=np.zeros((1, 1)),
                T=np.array([1]),
                Y=np.array([5.0]),
                m=2,
                CF=np.array([[4.0, 0.0]]),
            )

    def test_q_range(self):
        with pytest.raises(DomainError):
            Dataset(
                X=np.zeros((1, 1)), T=np.array([1]), Y=np.zeros(1), m=2,
                Q=np.array([0.0]),
            )

    @pytest.mark.parametrize("fields, named", [
        ({"T": [1, 2, 3, 0]}, r"treatment labels must lie in 1\.\.2 \(subject 2\)"),
        ({"CF": [[0, 0], [0, 0], [1, 0], [0, 2]]}, r"received treatment \(subject 2\)"),
        ({"Q": [0.5, 1.0, 0.0, 2.0]}, r"\(0, 1\] \(subject 2\)"),
    ])
    def test_a_fault_names_its_first_subject(self, fields, named):
        arrays = {"X": np.zeros((4, 1)), "T": [1, 2, 1, 2], "Y": np.zeros(4), "m": 2,
                  "CF": np.zeros((4, 2)), "Q": np.full(4, 0.5)}
        with pytest.raises(DomainError, match=named):
            Dataset(**dict(arrays, **fields))

    @pytest.mark.parametrize("field", ["X", "Y", "CF", "Q"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, field, bad):
        arrays = {
            "X": np.zeros((2, 1)),
            "Y": np.zeros(2),
            "CF": np.zeros((2, 2)),
            "Q": np.full(2, 0.5),
        }
        arrays[field][-1] = bad
        if field == "Y":
            arrays["CF"][-1, 0] = bad
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            Dataset(T=np.array([1, 1]), m=2, **arrays)

    def test_arrays_read_only(self):
        ds = random_dataset(np.random.default_rng(0), 5, 2, 2)
        with pytest.raises(ValueError):
            ds.Y[0] = 1.0


class TestLoadCsv:
    def test_two_numeric_rows(self, tmp_path):
        p = write(tmp_path / "a.csv", "x1,x2,treatment,outcome\n1,2,1,0.5\n3,4,2,1.5\n")
        ds = load_csv(p)
        assert ds.n == 2 and ds.d == 2 and ds.m == 2
        assert ds.X.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.T.tolist() == [1, 2]
        assert ds.Y.tolist() == [0.5, 1.5]

    def test_categorical_one_hot(self, tmp_path):
        # one categorical column with 3 levels plus one numeric: d = 4
        p = write(
            tmp_path / "b.csv",
            "color,age,treatment,outcome\nred,30,1,1\ngreen,40,2,2\nblue,50,1,3\n",
        )
        ds = load_csv(p)
        assert ds.d == 4
        assert ds.schema.encoded_names == ("color=blue", "color=green", "color=red", "age")
        assert ds.X[0].tolist() == [0.0, 0.0, 1.0, 30.0]

    def test_missing_outcome_column(self, tmp_path):
        p = write(tmp_path / "c.csv", "x1,treatment\n1,1\n")
        with pytest.raises(SchemaError):
            load_csv(p)

    def test_parse_error_has_row_and_column(self, tmp_path):
        p = write(tmp_path / "d.csv", "x1,treatment,outcome\n1,1,0.5\n2,1,oops\n")
        with pytest.raises(ParseError) as err:
            load_csv(p)
        # rows are file line numbers, header included
        assert err.value.row == 3 and err.value.column == "outcome"

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    @pytest.mark.parametrize("column", ["x1", "outcome", "y2", "q"])
    def test_non_finite_cell_has_row_and_column(self, tmp_path, cell, column):
        header = ["x1", "treatment", "outcome", "y1", "y2", "q"]
        bad = ["2", "1", "0.5", "0.5", "0.25", "0.8"]
        bad[header.index(column)] = cell
        text = ",".join(header) + "\n1,2,0.25,0.5,0.25,0.8\n" + ",".join(bad) + "\n"
        p = write(tmp_path / "n.csv", text)
        with pytest.raises(ParseError, match="not a finite number") as err:
            load_csv(p, cf_cols=["y1", "y2"], q_col="q")
        assert err.value.row == 3 and err.value.column == column

    def test_label_below_one(self, tmp_path):
        p = write(tmp_path / "e.csv", "x1,treatment,outcome\n1,0,0.5\n")
        with pytest.raises(DomainError):
            load_csv(p)

    def test_cf_and_q_columns(self, tmp_path):
        p = write(
            tmp_path / "f.csv",
            "x1,treatment,outcome,y1,y2,q\n1,2,0.25,0.5,0.25,0.8\n",
        )
        ds = load_csv(p, cf_cols=["y1", "y2"], q_col="q")
        assert ds.m == 2
        assert ds.CF.tolist() == [[0.5, 0.25]]
        assert ds.Q.tolist() == [0.8]


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    ds = random_dataset(rng, 20, 3, 3, with_cf=True, with_q=True)
    path = tmp_path / "round.csv"
    save_csv(ds, path)
    back = load_csv(str(path), cf_cols=["y1", "y2", "y3"], q_col="q")
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.T, ds.T)
    assert np.array_equal(back.Y, ds.Y)
    assert np.array_equal(back.CF, ds.CF)
    assert np.array_equal(back.Q, ds.Q)


class TestConfoundedPropensity:
    def test_symmetry_at_zero(self):
        assert np.allclose(confounded_propensity(0.0), [1 / 3] * 3, atol=1e-15)

    def test_log_two(self):
        p = confounded_propensity(math.log(2.0))
        assert np.max(np.abs(p - np.array([1 / 7, 2 / 7, 4 / 7]))) < 1e-12

    def test_extreme_z(self):
        p = confounded_propensity(50.0)
        assert p[2] > 1 - 1e-12

    def test_simplex_and_ordering(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            z = rng.normal() * 3
            p = confounded_propensity(z)
            assert np.all(p > 0)
            assert abs(p.sum() - 1.0) < 1e-12
            if z > 0:
                assert p[2] > p[1] > p[0]
            elif z < 0:
                assert p[0] > p[1] > p[2]


WARFARIN_SPEC = dict(
    n=400,
    d=4,
    m=3,
    outcome_model={"name": "warfarin_like", "driver": 0, "up_feature": 1, "down_feature": 2},
    propensity_model={"name": "bmi_logistic", "feature": 0},
)


class TestGenerateSynthetic:
    def test_factual_consistency(self):
        ds = generate_synthetic(SyntheticSpec(seed=5, **WARFARIN_SPEC))
        idx = np.arange(ds.n)
        assert np.array_equal(ds.Y, ds.CF[idx, ds.T - 1])
        assert np.all((ds.Q > 0) & (ds.Q <= 1))

    def test_determinism(self):
        a = generate_synthetic(SyntheticSpec(seed=9, **WARFARIN_SPEC))
        b = generate_synthetic(SyntheticSpec(seed=9, **WARFARIN_SPEC))
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.T, b.T)
        assert np.array_equal(a.CF, b.CF)
        assert np.array_equal(a.Q, b.Q)

    def test_unknown_model_rejected(self):
        spec = dict(WARFARIN_SPEC)
        spec["outcome_model"] = {"name": "nope"}
        with pytest.raises(ConfigError):
            generate_synthetic(SyntheticSpec(seed=0, **spec))

    def test_treatment_frequency_tracks_propensity(self):
        # empirical arm frequencies vs the Monte-Carlo average of the
        # propensity rows actually drawn
        spec = dict(WARFARIN_SPEC)
        spec["n"] = 100_000
        ds = generate_synthetic(SyntheticSpec(seed=12, **spec))
        freq = np.bincount(ds.T - 1, minlength=3) / ds.n
        # Q holds only the drawn arm's probability; recompute the full
        # rows from the standardized driver feature
        z = ds.X[:, 0]
        z = (z - z.mean()) / z.std(ddof=1)
        probs = np.stack([confounded_propensity(v) for v in z])
        assert np.max(np.abs(freq - probs.mean(axis=0))) < 0.01


COEF = [[1.0, -0.5, 0.0], [0.25, 2.0, -1.5]]

# both presets, and every generator model with parameters off their
# defaults; integers stand in for some floats, as JSON configs write them
PINNED_SPECS = {
    "preset-warfarin-like": dict(PRESETS["warfarin-like"], n=300, seed=3),
    "preset-quadratic": dict(PRESETS["quadratic"], n=300, seed=4),
    "discrete_grid-flat": dict(
        n=120, d=3, m=2, seed=5,
        covariate_model={"name": "discrete_grid", "values": [-1, 0.0, 2.5]},
        outcome_model={"name": "linear", "coef": COEF},
        propensity_model={"name": "uniform"}),
    "discrete_grid-per-feature": dict(
        n=120, d=3, m=2, seed=6,
        covariate_model={"name": "discrete_grid", "values": [[0, 1], [0.5, 1.5, 2.5], [-3.0]]},
        outcome_model={"name": "linear", "coef": COEF, "noise": 0.2},
        propensity_model={"name": "uniform"}),
    "mixed_binary": dict(
        n=150, d=4, m=3, seed=7,
        covariate_model={"name": "mixed_binary", "binary_features": [3, 1]},
        outcome_model={"name": "warfarin_like", "up_feature": 3, "down_feature": 1},
        propensity_model={"name": "bmi_logistic", "feature": 2}),
    "linear": dict(
        n=200, d=3, m=2, seed=8,
        outcome_model={"name": "linear", "coef": COEF, "intercept": [0.5, -0.25], "noise": 0.7},
        propensity_model={"name": "logistic_binary", "feature": 2, "strength": -2.5}),
    "quadratic": dict(
        n=200, d=3, m=3, seed=9,
        outcome_model={"name": "quadratic", "centers": [-2.0, 0.0, 1.5], "feature": 1,
                       "noise": 0.4},
        propensity_model={"name": "uniform"}),
    "warfarin_like": dict(
        n=250, d=5, m=3, seed=10,
        outcome_model={"name": "warfarin_like", "driver": 4, "up_feature": 0, "down_feature": 2,
                       "cuts": [-1.0, 0.2], "flip": 0.3},
        propensity_model={"name": "bmi_logistic", "feature": 4}),
    "uniform-m4": dict(
        n=160, d=2, m=4, seed=11,
        outcome_model={"name": "quadratic", "centers": [-1.0, 0.0, 1.0, 2.0], "noise": 0.1},
        propensity_model={"name": "uniform"}),
    "bmi_logistic": dict(
        n=180, d=2, m=3, seed=12,
        outcome_model={"name": "linear", "coef": [[1.0, 0.0], [0.0, 1.0], [-1.0, 1.0]]},
        propensity_model={"name": "bmi_logistic", "feature": 1}),
    "logistic_binary": dict(
        n=180, d=2, m=2, seed=13,
        outcome_model={"name": "quadratic", "centers": [0.5, -0.5]},
        propensity_model={"name": "logistic_binary", "feature": 1, "strength": 3}),
}

# sha256 of X, T, Y, CF and Q's bytes, recorded before the generator
# models declared their parameters as keyword-only arguments
PINNED_DIGESTS = {
    "preset-warfarin-like": "4afe4e05181bff80b645dcc798d5c5e8a8a6e817be3ca832a0e8357ca74f945e",
    "preset-quadratic": "926cf2797616008ac91f318d58fbcb1bf33c92219d8ab678751248c28a1ba9dc",
    "discrete_grid-flat": "66da8156d08ca05b837a1e72f7aa997821e7af10127ac07f032642ffec98bda3",
    "discrete_grid-per-feature": "70943fd47a1666e31bf6cb6fbbf4d6f2e0685febcbdd6ec9575f31d9bf523fb3",
    "mixed_binary": "aa33de3ad9ff965fdc7d8578b020e218580ec33098d6f4bf4d1d0ecc1cea443b",
    "linear": "c7abdafba76a752d885b696ce3806f6188c8cce0aa4870e154b5d6dd659e690c",
    "quadratic": "9790075c4e46d14f4d6e9f25e6283b0685a1efbb47be4ad0980ccaee0490a08f",
    "warfarin_like": "94f30b3e3a828fde0c810a5b0f1b95269a7d87b180fa9423e931b00c18b413a1",
    "uniform-m4": "1f8d114af287f02bcf586fc5c1907f56fe6934ea0252f58ac2dbc48b11a2db13",
    "bmi_logistic": "7bf474325a6ecdef7279423c1ff3f7e68e526f39178d3a0f26f96c564a16a096",
    "logistic_binary": "159835546a5daf1ee3a45ac1fa55685a894d20262283b963c56027c991a1a425",
}


def synthetic_digest(spec):
    ds = generate_synthetic(SyntheticSpec(**spec))
    h = hashlib.sha256()
    for a in (ds.X, ds.T, ds.Y, ds.CF, ds.Q):
        h.update(a.tobytes())
    return h.hexdigest()


class TestPinnedSynthetic:
    @pytest.mark.parametrize("name", sorted(PINNED_SPECS))
    def test_generated_data_keeps_its_bits(self, name):
        assert synthetic_digest(PINNED_SPECS[name]) == PINNED_DIGESTS[name]

    def test_null_stands_for_a_null_default(self):
        spec = PINNED_SPECS["linear"]
        plain = {k: v for k, v in spec["outcome_model"].items() if k != "intercept"}
        given = dict(plain, intercept=None)
        assert synthetic_digest(dict(spec, outcome_model=given)) == synthetic_digest(
            dict(spec, outcome_model=plain))


def spec_with(**models):
    """A drawable two-arm spec, d = 3, with the given models replaced."""
    return dict(PINNED_SPECS["linear"], **models)


class TestModelChecks:
    """SyntheticSpec checks its models when it is made, before any draw."""

    @pytest.mark.parametrize("models, named", [
        ({"outcome_model": "linear"}, "outcome_model must be a JSON object"),
        ({"outcome_model": {"name": 3}}, "unknown outcome model 3; valid names: linear"),
        ({"propensity_model": {"name": "uniform", "feature": 0}},
         "unknown uniform propensity model parameter 'feature'; valid keys: none"),
        ({"outcome_model": {"name": "linear"}}, "linear outcome model: coef is required"),
        ({"outcome_model": {"name": "linear", "coef": COEF[:1]}},
         r"coef must be 2 x 3 finite numbers, got shape \(1, 3\)"),
        ({"outcome_model": {"name": "linear", "coef": [[1, 2, float("nan")], [0, 0, 0]]}},
         "coef must be 2 x 3 finite numbers, got a non-finite entry"),
        ({"outcome_model": {"name": "linear", "coef": [[True] * 3] * 2}}, "coef must be"),
        ({"outcome_model": {"name": "linear", "coef": [[1, 2], [3]]}}, "coef must be"),
        ({"outcome_model": {"name": "linear", "coef": COEF, "intercept": None, "noise": None}},
         "linear outcome model: noise must be a finite number, got None"),
        ({"outcome_model": {"name": "quadratic", "centers": [0, 1], "feature": 3}},
         "feature must be below d = 3, got 3"),
        ({"outcome_model": {"name": "quadratic", "centers": [0, 1], "feature": True}},
         "feature must be an integer"),
        ({"outcome_model": {"name": "warfarin_like"}},
         "warfarin_like outcome model is defined for m = 3 only, got m = 2"),
        ({"propensity_model": {"name": "logistic_binary", "strength": True}},
         "strength must be a finite number"),
        ({"propensity_model": {"name": "logistic_binary", "strength": float("inf")}},
         "strength must be a finite number"),
        ({"covariate_model": {"name": "discrete_grid", "values": []}},
         r"values must be k finite numbers, got shape \(0,\)"),
        ({"covariate_model": {"name": "discrete_grid", "values": [[0, 1], [2]]}},
         "values must hold 3 lists, one per feature, got 2"),
        ({"covariate_model": {"name": "mixed_binary", "binary_features": 1}},
         "binary_features must be a list of feature indices"),
        ({"covariate_model": {"name": "mixed_binary", "binary_features": [0, 3]}},
         "mixed_binary covariate model: binary_features must be below d = 3"),
    ])
    def test_bad_model_refused_at_construction(self, models, named):
        with pytest.raises(ConfigError, match=named):
            SyntheticSpec(**spec_with(**models))

    def test_checks_run_on_numpy_values(self):
        models = {"outcome_model": {"name": "quadratic", "centers": np.array([0.0, 1.0]),
                                    "feature": np.int64(2), "noise": np.float64(0.5)}}
        assert generate_synthetic(SyntheticSpec(**spec_with(**models))).n == 200


class TestSplitBootstrap:
    def test_split_identity(self):
        ds = random_dataset(np.random.default_rng(1), 10, 2, 3)
        sub = split(ds, np.arange(10))
        assert np.array_equal(sub.X, ds.X) and np.array_equal(sub.T, ds.T)
        assert sub.m == ds.m

    def test_split_empty(self):
        ds = random_dataset(np.random.default_rng(1), 10, 2, 3)
        sub = split(ds, [])
        assert sub.n == 0 and sub.m == 3 and sub.d == 2

    def test_split_out_of_range(self):
        ds = random_dataset(np.random.default_rng(1), 4, 2, 2)
        with pytest.raises(IndexError):
            split(ds, [4])

    def test_bootstrap_single_row(self):
        ds = random_dataset(np.random.default_rng(2), 1, 2, 2)
        boot, idx = bootstrap(ds, seed=123)
        assert idx.tolist() == [0]
        assert np.array_equal(boot.X, ds.X)

    def test_bootstrap_deterministic(self):
        ds = random_dataset(np.random.default_rng(3), 30, 2, 2)
        _, i1 = bootstrap(ds, seed=77)
        _, i2 = bootstrap(ds, seed=77)
        _, i3 = bootstrap(ds, seed=78)
        assert np.array_equal(i1, i2)
        assert not np.array_equal(i1, i3)
        assert len(i1) == 30


EDGE_VALUES = [
    0.0, -0.0, 1e15 - 1, -(1e15 - 1), 1e15, -1e15, 2.0**53 + 1.0, 5e-324, -5e-324,
    1.7e308, -1.7e308, 3.0, -7.0, 0.1, 1 / 3, 123456789.0, 2.5e-8, 1e16, 4503599627370497.0,
]


def _assert_same_dataset(a, b):
    assert a.schema == b.schema and a.m == b.m
    for name in ("X", "T", "Y", "CF", "Q"):
        x, y = getattr(a, name), getattr(b, name)
        if x is None or y is None:
            assert x is None and y is None, name
        else:
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name


def _same_outcome(fn, reference):
    """Run both loaders; they must agree on the dataset or on the error."""
    try:
        expected = reference()
    except Exception as exc:  # noqa: BLE001 - the type is compared below
        with pytest.raises(type(exc)) as err:
            fn()
        assert str(err.value) == str(exc)
        assert getattr(err.value, "row", None) == getattr(exc, "row", None)
        assert getattr(err.value, "column", None) == getattr(exc, "column", None)
        return err.value
    _assert_same_dataset(fn(), expected)
    return None


class TestCsvCodecExactness:
    CF = {"cf_cols": ["y1", "y2"], "q_col": "q"}

    def edge_dataset(self, seed):
        rng = np.random.default_rng(seed)
        n = 3 * len(EDGE_VALUES)
        pick = lambda shape: rng.choice(EDGE_VALUES, size=shape)  # noqa: E731
        X = np.column_stack([pick(n), rng.normal(size=n), pick(n).round(), pick(n)])
        T = rng.integers(1, 3, size=n)
        CF = pick((n, 2))
        Q = rng.choice([5e-324, 1e-300, 0.25, 1.0, 1 / 3, 0.1], size=n)
        return Dataset(X=X, T=T, Y=CF[np.arange(n), T - 1], m=2, CF=CF, Q=Q)

    @pytest.mark.parametrize("seed", range(4))
    def test_edge_values_bytes_and_bits(self, tmp_path, seed):
        ds = self.edge_dataset(seed)
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        save_csv(ds, new)
        save_csv_reference(ds, ref)
        assert new.read_bytes() == ref.read_bytes()
        back = _same_outcome(lambda: load_csv(str(new), **self.CF),
                             lambda: load_csv_reference(str(ref), **self.CF))
        assert back is None
        again = load_csv(str(new), **self.CF)
        for name in ("X", "T", "Y", "CF", "Q"):  # -0.0 is written as 0
            assert np.array_equal(getattr(again, name), getattr(ds, name)), name

    def test_each_edge_value_alone(self, tmp_path):
        for k, v in enumerate(EDGE_VALUES):
            ds = Dataset(X=np.array([[v]]), T=np.array([1]), Y=np.array([v]), m=1)
            new, ref = tmp_path / f"n{k}.csv", tmp_path / f"r{k}.csv"
            save_csv(ds, new)
            save_csv_reference(ds, ref)
            assert new.read_bytes() == ref.read_bytes(), v
            expected = 0.0 if v == 0 else v  # -0.0 is written as 0
            assert load_csv(str(new)).X.tobytes() == np.array([[expected]]).tobytes(), v

    def test_blocks_of_rows(self, tmp_path):
        rng = np.random.default_rng(11)
        ds = random_dataset(rng, 20_000, 2, 3, with_cf=True, with_q=True)
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        save_csv(ds, new)
        save_csv_reference(ds, ref)
        assert new.read_bytes() == ref.read_bytes()

    def test_categorical_levels_with_commas_and_quotes(self, tmp_path):
        levels = ('a,b', 'say "hi"', "plain", " padded ", "line\nbreak")
        p = tmp_path / "cat.csv"
        with open(p, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "x", "treatment", "outcome"])
            for i, lv in enumerate(levels * 3):
                writer.writerow([lv, i * 0.5, 1 + i % 2, -i])
        _same_outcome(lambda: load_csv(str(p)), lambda: load_csv_reference(str(p)))
        ds = load_csv(str(p))
        assert ds.schema.features[0].levels == tuple(sorted(levels))
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        save_csv(ds, new)
        save_csv_reference(ds, ref)
        assert new.read_bytes() == ref.read_bytes()
        assert b'"kind=a,b"' in new.read_bytes()

    def test_header_only(self, tmp_path):
        p = write(tmp_path / "h.csv", "x1,treatment,outcome,y1,y2,q\n")
        _same_outcome(lambda: load_csv(p, **self.CF), lambda: load_csv_reference(p, **self.CF))
        ds = load_csv(p, **self.CF)
        assert (ds.n, ds.d, ds.m) == (0, 1, 2)
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        save_csv(ds, new)
        save_csv_reference(ds, ref)
        assert new.read_bytes() == ref.read_bytes() == b"x1,treatment,outcome,y1,y2,q\r\n"

    HEADER = ["x1", "x2", "treatment", "outcome", "y1", "y2", "q"]
    GOOD = [["0.5", "1", "1", "0.25", "0.25", "3", "0.5"],
            ["-1", "2", "2", "7", "1", "7", "1"],
            ["2e-3", "3", "1", "0", "0", "-1", "0.125"]]

    @pytest.mark.parametrize("column,cell", [
        ("treatment", "abc"), ("treatment", ""), ("treatment", "1.5"), ("treatment", "0"),
        ("treatment", "-3"), ("treatment", "-0"), ("treatment", "nan"), ("treatment", "inf"),
        ("treatment", "-inf"), ("treatment", "3"), ("outcome", "x"), ("outcome", "nan"),
        ("outcome", "1e999"), ("y1", "?"), ("y1", "inf"), ("y2", "nan"), ("y2", "-"),
        ("q", "oops"), ("q", "-inf"), ("q", "0"), ("x1", "inf"), ("x1", "NaN"),
        ("x2", "-Infinity"), ("x2", "1e400"),
    ])
    @pytest.mark.parametrize("row", range(3))
    def test_single_bad_cell(self, tmp_path, column, cell, row):
        rows = [list(r) for r in self.GOOD]
        rows[row][self.HEADER.index(column)] = cell
        text = "\n".join(",".join(r) for r in [self.HEADER] + rows) + "\n"
        p = write(tmp_path / "bad.csv", text)
        err = _same_outcome(lambda: load_csv(p, **self.CF),
                            lambda: load_csv_reference(p, **self.CF))
        assert err is not None

    def test_ragged_row(self, tmp_path):
        p = write(tmp_path / "r.csv", "x1,treatment,outcome\n1,1,0\n2,1\n3,1,0,9\n")
        err = _same_outcome(lambda: load_csv(p), lambda: load_csv_reference(p))
        assert isinstance(err, ParseError) and err.row == 3

    def test_first_bad_cell_in_column_order(self, tmp_path):
        # a bad outcome on row 2 and a bad label on row 3: columns are
        # parsed in the order treatment, outcome, ..., so the label wins
        p = write(tmp_path / "two.csv", "x1,treatment,outcome\n1,1,oops\n2,1.5,0\n")
        with pytest.raises(ParseError) as err:
            load_csv(p)
        assert (err.value.row, err.value.column) == (3, "treatment")
        # within a column the first bad row wins, whatever its fault
        p = write(tmp_path / "col.csv", "x1,treatment,outcome\n1,1,0\n2,0,0\n3,abc,0\n")
        with pytest.raises(DomainError, match=r"label 0 < 1 \(row 3\)"):
            load_csv(p)


class TestOversizedLabel:
    @pytest.mark.parametrize("cell", ["1e300", "-1e300", "9223372036854775808", "1e19"])
    def test_parse_error_names_row_and_column(self, tmp_path, cell):
        p = write(tmp_path / "big.csv", f"x1,treatment,outcome\n1,1,0\n2,{cell},0\n")
        with pytest.raises(ParseError, match="64-bit integer range") as err:
            load_csv(p)
        assert (err.value.row, err.value.column) == (3, "treatment")

    def test_largest_int64_label_is_kept(self, tmp_path):
        # 2**63 - 1024 is the largest double below 2**63
        p = write(tmp_path / "edge.csv", "x1,treatment,outcome\n1,9223372036854774784,0\n")
        assert load_csv(p).T.tolist() == [2**63 - 1024]


HEAD = "x1,treatment,outcome"
CF_HEAD = "x1,treatment,outcome,y1,y2,q"
LIMIT = csv.field_size_limit()

# (id, file body, loader keywords): each file takes load_csv's one-block
# path or its per-cell path, and must load as the per-cell reference does
CORPUS = [
    ("plain", HEAD + "\n1,1,0\n2.5,2,1\n", {}),
    ("whitespace-line", HEAD + "\n1,1,0\n   \n2,2,1\n", {}),
    ("tab-line", HEAD + "\n1,1,0\n\t\n2,2,1\n", {}),
    ("empty-lines", HEAD + "\n\n1,1,0\n\n\n2,2,1\n\n", {}),
    ("crlf", HEAD + "\r\n1,1,0\r\n2,2,1\r\n", {}),
    ("bare-cr", HEAD + "\r1,1,0\r2,2,1\r", {}),
    ("mixed-line-ends", HEAD + "\n1,1,0\r\n2,2,1\r3,1,4\n\r\n", {}),
    ("cr-inside-row", HEAD + "\n1,1,0\r2,2\n", {}),
    ("no-final-newline", HEAD + "\n1,1,0\n2,2,1", {}),
    ("quoted-numbers", HEAD + '\n"1",1,"0"\n2,"2",1\n', {}),
    ("underscores", HEAD + "\n1_000,1,0\n2,2,1_0\n", {}),
    ("underscore-label", HEAD + "\n1,1_0,0\n", {}),
    ("full-width-digits", HEAD + "\n１２,1,0\n2,2,1\n", {}),
    ("hash-in-outcome", HEAD + "\n1,2#x\n", {}),
    ("hash-cell", HEAD + "\n1,1,2#x\n2,2,1\n", {}),
    ("hash-feature", HEAD + "\n1#x,1,0\n2,2,1\n", {}),
    ("trailing-comma", HEAD + "\n1,1,0,\n2,2,1,\n", {}),
    ("trailing-comma-header", HEAD + ",\n1,1,0,\n2,2,1,\n", {}),
    ("nan-outcome", HEAD + "\n1,1,nan\n", {}),
    ("minus-infinity-feature", HEAD + "\n-Infinity,1,0\n", {}),
    ("nan-label", HEAD + "\n1,NaN,0\n", {}),
    ("inf-cf", CF_HEAD + "\n1,1,0,0,inf,0.5\n", {"cf_cols": ["y1", "y2"], "q_col": "q"}),
    ("minus-zero", HEAD + "\n-0,1,-0\n-0.0,2,0\n", {}),
    ("minus-zero-label", HEAD + "\n1,-0,0\n", {}),
    ("denormal", HEAD + "\n5e-324,1,-5e-324\n", {}),
    ("17-digits", HEAD + "\n0.12345678901234567,1,12345678901234567\n"
     "1.7976931348623157e308,2,-2.2250738585072014e-308\n", {}),
    ("number-forms", HEAD + "\n.5,+1,5.\n1E+02,2,-1e-5\n  3 ,\t1\t, 7 \n", {}),
    ("not-hex", HEAD + "\n0x10,1,0\n", {}),
    ("bom-header", "﻿" + HEAD + "\n1,1,0\n", {}),
    ("bom-on-treatment", "﻿treatment,outcome,x1\n1,0,1\n", {}),
    ("bom-in-cell", HEAD + "\n1,1,﻿0\n", {}),
    ("header-only", HEAD + "\n", {}),
    ("header-only-no-newline", HEAD, {}),
    ("blank-body", HEAD + "\n\n\r\n\r\n", {}),
    ("whitespace-body", HEAD + "\n  \n", {}),
    ("header-only-cf", CF_HEAD + "\n", {"cf_cols": ["y1", "y2"], "q_col": "q"}),
    ("one-column", "t\n1\n2\n2\n", {"treatment_col": "t", "outcome_col": "t"}),
    ("one-column-blank-cell", "t\n1\n\n \n", {"treatment_col": "t", "outcome_col": "t"}),
    ("no-features", "treatment,outcome\n1,0\n2,1\n", {}),
    ("categorical", "color,x1,treatment,outcome\nred,1,1,0\nblue,2,2,1\nred,3,1,1\n", {}),
    ("categorical-numbers-and-words", "x1,treatment,outcome\n1,1,0\nabc,2,1\n", {}),
    ("largest-label", HEAD + "\n1,9223372036854774784,0\n", {}),
    ("fractional-label", HEAD + "\n1,1.5,0\n", {}),
    ("label-exceeds-cf", CF_HEAD + "\n1,3,0,0,0,0.5\n", {"cf_cols": ["y1", "y2"], "q_col": "q"}),
    ("ragged", HEAD + "\n1,1,0\n2,1\n", {}),
    ("wider-rows", HEAD + "\n1,1,0,9\n2,1,0,9\n", {}),
    ("empty-cell", HEAD + "\n1,,0\n", {}),
    ("separator-spaces", HEAD + "\n\x1c1,1,0\n2,2,1\x1f\n", {}),
    ("separator-space-feature", HEAD + "\n1\x1d,1,0\n2,2,1\n", {}),
    ("unicode-spaces", HEAD + "\n\xa01 ,1,0\n\x0c2,2,1\x85\n", {}),
    ("nul", HEAD + "\n1\x00,1,0\n", {}),
    ("field-past-limit", HEAD + "\n" + "0" * LIMIT + "1,1,0\n", {}),
    ("line-past-limit", HEAD + "\n" + "0" * (LIMIT // 2) + "1," + "0" * (LIMIT // 2) + "1,0\n", {}),
    ("missing-column", "x1,outcome\n1,0\n", {}),
    ("duplicate-column", "x1,x1,treatment,outcome\n1,1,1,0\n", {}),
]


@pytest.mark.filterwarnings("error::UserWarning")
class TestLoadCsvAgainstReference:
    """load_csv against the per-cell reference: the same array bits, or
    the same exception type, message, row and column."""

    @pytest.mark.parametrize("body,kwargs", [c[1:] for c in CORPUS], ids=[c[0] for c in CORPUS])
    def test_corpus(self, tmp_path, body, kwargs):
        p = tmp_path / "c.csv"
        p.write_bytes(body.encode("utf-8"))
        _same_outcome(lambda: load_csv(str(p), **kwargs), lambda: load_csv_reference(str(p), **kwargs))

    def test_undecodable_bytes(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_bytes(HEAD.encode() + b"\n1,1,0\n" * 5000 + b"2,2,\xff\n")
        _same_outcome(lambda: load_csv(str(p)), lambda: load_csv_reference(str(p)))

    @pytest.mark.parametrize("body", ["header-only", "header-only-no-newline", "blank-body"])
    def test_empty_bodies_load_without_a_warning(self, tmp_path, body):
        p = tmp_path / "c.csv"
        p.write_text(dict(c[:2] for c in CORPUS)[body], encoding="utf-8")
        ds = load_csv(str(p))
        assert (ds.n, ds.d, ds.m) == (0, 1, 1)

    def test_the_block_and_the_cells_agree_on_big_files(self, tmp_path):
        ds = random_dataset(np.random.default_rng(5), 3000, 4, 3, with_cf=True, with_q=True)
        p = tmp_path / "big.csv"
        save_csv(ds, p)
        kwargs = {"cf_cols": ["y1", "y2", "y3"], "q_col": "q"}
        _same_outcome(lambda: load_csv(str(p), **kwargs), lambda: load_csv_reference(str(p), **kwargs))


# the characters of the generated files: number syntax, separators, line
# ends, quotes, comment marks, words, and the spaces and digits outside
# ASCII on which loadtxt and float() disagree
ALPHABET = "0123456789.-+eE_,\n\r \t\"#nafiNIy１\x1c\x1f\xa0﻿"


@st.composite
def csv_bodies(draw):
    """A header and a few rows of feature, label and outcome cells, all
    valid but for at most one odd cell or row width, so that the odd one
    decides the outcome."""
    number = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                       st.sampled_from(["-0", "0.5", "1e3", "5e-324", "7"]))
    rows = draw(st.lists(st.tuples(number, st.sampled_from(["1", "2", "3"]), number)
                         .map(list), max_size=6))
    if rows and draw(st.booleans()):
        row = draw(st.integers(0, len(rows) - 1))
        known = st.sampled_from(["nan", "-Infinity", "", "2#x", '"3"', "1_0", "\x1c1", "１", " 2\t"])
        odd = st.one_of(known, known, known, st.text(ALPHABET, max_size=6))
        rows[row][draw(st.integers(0, 2))] = draw(odd)
        rows[row] = (rows[row] + ["1"])[:draw(st.sampled_from([3, 3, 3, 2, 4]))]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))  # one style per file, as files have
    ends = st.sampled_from([end, end, end, end + end])
    lines = ["x1,treatment,outcome"] + [",".join(r) for r in rows]
    return "".join(line + draw(ends) for line in lines)


def _cell_by_cell(path):
    """load_csv with its one-block path turned off."""
    with mock.patch.object(data, "_block", return_value=None):
        return load_csv(path)


@pytest.mark.filterwarnings("error::UserWarning")
class TestLoadCsvProperty:
    @settings(derandomize=True, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(body=csv_bodies())
    def test_generated_files_load_as_cell_by_cell(self, tmp_path, body):
        """The one-block path against load_csv's own per-cell path, on any
        file: the same arrays, or the same error. Against the reference:
        the same arrays where it loads the file, an error where it does
        not (with several bad cells, or a label of 2**63, the two report
        different errors by design)."""
        p = tmp_path / "g.csv"
        p.write_bytes(body.encode("utf-8"))
        _same_outcome(lambda: load_csv(str(p)), lambda: _cell_by_cell(str(p)))
        try:
            expected = load_csv_reference(str(p))
        except Exception:  # noqa: BLE001 - any error: load_csv must fail too
            with pytest.raises(Exception):  # noqa: B017
                load_csv(str(p))
        else:
            _assert_same_dataset(load_csv(str(p)), expected)
