from dataclasses import replace

import numpy as np
import pytest

from perstrees import tree
from perstrees.data import Dataset, split
from perstrees.errors import ConfigError, InfeasibleError, SchemaError
from perstrees.forest import (
    MAX_REDRAWS,
    PersonalizationForest,
    PfConfig,
    fit_pf,
    replicate_seed,
    tree_fit_seed,
)
from perstrees.model_io import load_model, model_from_doc, model_to_doc, save_model
from perstrees.seeding import make_rng
from perstrees.tree import PtConfig, fit_pt

from helpers import random_dataset


def stump(treatment, m=2):
    leaf = {"treatment": treatment, "counts": [1] * m, "means": [0.0] * m}
    return model_from_doc({"kind": "pt", "m": m, "d": 1, "root": {"leaf": leaf}})


class TestSeeds:
    def test_replicate_seeds_distinct(self):
        seeds = {replicate_seed(0, j, a) for j in range(20) for a in range(3)}
        assert len(seeds) == 60

    def test_fit_seed_differs_from_replicate(self):
        rep = replicate_seed(0, 0)
        assert tree_fit_seed(rep) != rep

    def test_prefix_stability(self):
        # growing the forest must not disturb the earlier trees
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, 120, 3, 2, all_arms=True)
        small = fit_pf(ds, PfConfig(trees_count=3, n_min_leaf=5, seed=9))
        large = fit_pf(ds, PfConfig(trees_count=6, n_min_leaf=5, seed=9))
        for a, b in zip(small.trees, large.trees):
            assert model_to_doc(a) == model_to_doc(b)

    def test_determinism(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, 100, 3, 2, all_arms=True)
        cfg = PfConfig(trees_count=4, n_min_leaf=5, seed=3)
        assert model_to_doc(fit_pf(ds, cfg)) == model_to_doc(fit_pf(ds, cfg))


class TestFit:
    def test_redraw_skips_replicates_missing_an_arm(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, 40, 2, 2, all_arms=True)
        seen = []

        def resample(seed, n):
            seen.append(seed)
            # first offer a replicate stuck on arm 1, then a fair one
            if len(seen) == 1:
                return np.flatnonzero(ds.T == 1)
            return np.arange(n)

        forest = fit_pf(ds, PfConfig(trees_count=1, n_min_leaf=1, seed=0), resample)
        assert len(seen) == 2
        assert seen[0] == replicate_seed(0, 0, 0)
        assert seen[1] == replicate_seed(0, 0, 1)
        assert len(forest.trees) == 1

    def test_gives_up_after_max_redraws(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, 40, 2, 2, all_arms=True)

        def resample(seed, n):
            return np.flatnonzero(ds.T == 1)

        with pytest.raises(InfeasibleError, match="tree 0"):
            fit_pf(ds, PfConfig(trees_count=1), resample)

    def test_identity_resample_reduces_to_base_trees(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng, 150, 4, 2, all_arms=True)
        cfg = PfConfig(trees_count=3, n_min_leaf=5, n_features=2, seed=7)
        forest = fit_pf(ds, cfg, resample=lambda seed, n: np.arange(n))
        for j, tree in enumerate(forest.trees):
            seed = tree_fit_seed(replicate_seed(7, j))
            want = fit_pt(ds, PtConfig(n_min_leaf=5, n_features=2, seed=seed))
            assert model_to_doc(tree) == model_to_doc(want)

    def test_default_feature_count_is_root_d(self):
        # leaving n_features unset on d=9 must behave like n_features=3
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, 60, 9, 2, all_arms=True)
        cfg = PfConfig(trees_count=2, n_min_leaf=5)
        forest = fit_pf(ds, cfg)
        assert len(forest.trees) == 2
        # indirect check: same data refit with n_features=3 matches
        twin = PfConfig(trees_count=2, n_min_leaf=5, n_features=3)
        assert model_to_doc(fit_pf(ds, twin)) == model_to_doc(forest)

    def test_more_features_than_the_data_has_rejected(self):
        ds = random_dataset(np.random.default_rng(8), 60, 2, 2, all_arms=True)
        with pytest.raises(ConfigError, match=r"n_features must be an integer in 1\.\.2, got 3"):
            fit_pf(ds, PfConfig(trees_count=2, n_features=3))

    def test_empty_dataset_rejected(self):
        from perstrees.data import Dataset

        ds = Dataset(X=np.empty((0, 1)), T=np.empty(0, dtype=int), Y=np.empty(0), m=1)
        with pytest.raises(ConfigError):
            fit_pf(ds)

    def test_tree_count_validated(self):
        with pytest.raises(ConfigError):
            PfConfig(trees_count=0)


class TestVoting:
    def test_majority(self):
        forest = PersonalizationForest(
            trees=(stump(1), stump(2), stump(2)), m=2, d=1
        )
        assert forest.prescribe([0.0]) == 2
        assert forest.votes([[0.0]])[0].tolist() == [1, 2]

    def test_tie_goes_to_lowest_label(self):
        forest = PersonalizationForest(
            trees=(stump(1, 3), stump(3, 3)), m=3, d=1
        )
        assert forest.prescribe([0.0]) == 1

    def test_predict_many_matches_row_loop(self):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, 80, 3, 3, all_arms=True)
        forest = fit_pf(
            ds, PfConfig(trees_count=7, n_min_leaf=3, scarce_mode=True)
        )
        many = forest.predict_many(ds.X)
        assert many.tolist() == [forest.prescribe(x) for x in ds.X]


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        ds = random_dataset(rng, 90, 3, 2, all_arms=True)
        forest = fit_pf(ds, PfConfig(trees_count=3, n_min_leaf=4))
        path = tmp_path / "forest.json"
        save_model(forest, path)
        back = load_model(path)
        assert back.m == forest.m and back.d == forest.d
        assert len(back.trees) == 3
        assert back.predict_many(ds.X).tolist() == forest.predict_many(ds.X).tolist()

    def test_rejects_wrong_kind(self):
        with pytest.raises(SchemaError):
            model_from_doc({"kind": "pt", "trees": []})

    def test_rejects_empty_forest(self):
        with pytest.raises(SchemaError):
            model_from_doc({"kind": "pf", "trees": []})

    def test_rejects_a_bad_tree_field(self):
        bad = model_to_doc(stump(1))
        bad["root"]["leaf"]["counts"] = [2.5, 1]
        with pytest.raises(SchemaError):
            model_from_doc({"kind": "pf", "trees": [model_to_doc(stump(1)), bad]})

    def test_rejects_mismatched_trees(self):
        docs = [model_to_doc(stump(1, m)) for m in (2, 3)]
        with pytest.raises(SchemaError):
            model_from_doc({"kind": "pf", "trees": docs})


def lumpy_dataset(rng, n, m):
    """Small data whose columns are normal, a five-value grid and one-hot,
    with a third of the rows repeated, so replicates and nodes hold ties."""
    base = random_dataset(rng, n, 2, m, all_arms=True)
    X = np.column_stack([
        base.X[:, 0],
        rng.integers(-2, 3, size=n) / 2.0,
        rng.integers(0, 2, size=n).astype(float),
        rng.integers(0, 2, size=n).astype(float),
    ])
    take = np.concatenate([np.arange(n), rng.integers(0, n, size=n // 3)])
    return Dataset(X=X[take], T=base.T[take], Y=base.Y[take], m=m)


class TestTreesAsSingleFits:
    @pytest.mark.parametrize("per_group", [1, 3])
    def test_trees_grown_in_groups_are_the_same(self, monkeypatch, per_group):
        # a forest past the lockstep budget grows its trees a group at a time
        rng = np.random.default_rng(51)
        ds = lumpy_dataset(rng, 60, 3)
        config = PfConfig(trees_count=7, n_min_leaf=2, seed=4)
        together = model_to_doc(fit_pf(ds, config))
        monkeypatch.setattr(tree, "_LOCKSTEP_BUDGET", per_group * ds.n * (ds.d + 1))
        assert model_to_doc(fit_pf(ds, config)) == together


    @pytest.mark.parametrize("settings", [
        {"n_min_leaf": 2},
        {"n_min_leaf": 3, "scarce_mode": True},
        {"n_min_leaf": 1, "delta_max": 3, "n_features": 4},
        {"n_min_leaf": 2, "n_features": 1},
    ], ids=["strict", "scarce", "delta_max", "one_feature"])
    def test_every_tree_is_fit_pt_on_its_replicate(self, settings):
        # a forest tree is fit_pt on split(ds, replicate) with its derived
        # seed, whatever order the forest grows its trees in
        rng = np.random.default_rng(50)
        for trial in range(4):
            m = 2 + trial % 2
            ds = lumpy_dataset(rng, int(rng.integers(30, 90)), m)
            seed = int(rng.integers(0, 1000))
            forest = fit_pf(ds, PfConfig(trees_count=6, **settings, seed=seed))
            base = PtConfig(**{"n_features": 2, **settings})  # unset means ceil(sqrt(4))
            for j, tree in enumerate(forest.trees):
                for attempt in range(MAX_REDRAWS + 1):
                    rep_seed = replicate_seed(seed, j, attempt)
                    idx = make_rng(rep_seed).integers(0, ds.n, size=ds.n)
                    if np.unique(ds.T[idx]).size == m:
                        break
                config = replace(base, seed=tree_fit_seed(rep_seed))
                assert model_to_doc(tree) == model_to_doc(fit_pt(split(ds, idx), config))
