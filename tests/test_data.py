import math

import numpy as np
import pytest

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

from helpers import random_dataset


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

    def test_m_not_three_rejected(self):
        with pytest.raises(ConfigError):
            confounded_propensity(0.0, m=4)

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
