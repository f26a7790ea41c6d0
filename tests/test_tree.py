import hashlib
import json

import numpy as np
import pytest

from perstrees.data import Dataset, SyntheticSpec, generate_synthetic
from perstrees.errors import ConfigError, SchemaError
from perstrees.experiment import PRESETS
from perstrees.forest import PfConfig, fit_pf, forest_to_doc
from perstrees.tree import (
    PersonalizationTree,
    PtConfig,
    Split,
    TreeNode,
    best_split,
    fit_pt,
    load_tree,
    save_tree,
    sweep_feature,
    tree_from_doc,
    tree_to_doc,
)

from helpers import random_dataset


def brute_force_best(ds, indices, features, config):
    """Independent re-derivation of the best feasible cut score.

    Enumerates every strict-gap position of every feature and scores it
    from the definition: each side weighs its size against the smallest
    eligible per-treatment mean.
    """
    idx = np.asarray(indices)
    best = np.inf
    for f in features:
        order = np.argsort(ds.X[idx, f], kind="stable")
        xs = ds.X[idx, f][order]
        ts = ds.T[idx][order]
        ys = ds.Y[idx][order]
        for j in range(1, len(idx)):
            if xs[j - 1] >= xs[j]:
                continue
            score = 0.0
            ok = True
            for side_t, side_y in ((ts[:j], ys[:j]), (ts[j:], ys[j:])):
                counts = np.bincount(side_t - 1, minlength=ds.m)
                if config.scarce_mode:
                    eligible = counts >= config.n_min_leaf
                    if not eligible.any():
                        ok = False
                        break
                else:
                    if (counts < config.n_min_leaf).any():
                        ok = False
                        break
                    eligible = counts > 0
                means = np.full(ds.m, np.inf)
                for t in range(1, ds.m + 1):
                    if eligible[t - 1]:
                        means[t - 1] = side_y[side_t == t].mean()
                score += len(side_t) * means.min()
            if ok and score < best:
                best = score
    return best


class TestSweepFeature:
    def test_hand_instance(self):
        x = [1.0, 2.0, 3.0, 4.0]
        t = [1, 2, 1, 2]
        y = [2.0, 6.0, 4.0, 8.0]
        sweep = sweep_feature(x, t, y, 2, 1)
        assert sweep["counts_left"].tolist() == [[1, 0], [1, 1], [2, 1]]
        assert sweep["sums_left"].tolist() == [[2.0, 0.0], [2.0, 6.0], [6.0, 6.0]]
        assert sweep["counts_right"].tolist() == [[1, 2], [1, 1], [0, 1]]
        assert sweep["gap"].tolist() == [True, True, True]
        # position 0 is missing arm 2 on the left, position 2 arm 1 on the right
        assert sweep["feasible"].tolist() == [False, True, False]
        assert sweep["impurity"].tolist() == [14.0, 12.0, 17.0]
        assert sweep["threshold"].tolist() == [1.5, 2.5, 3.5]

    def test_ties_have_no_gap(self):
        sweep = sweep_feature([1.0, 2.0, 2.0, 3.0], [1, 1, 1, 1], [0, 0, 0, 0], 1, 1)
        assert sweep["gap"].tolist() == [True, False, True]

    def test_degenerate_sizes(self):
        for x, t, y in (([], [], []), ([1.0], [1], [1.0])):
            sweep = sweep_feature(x, t, y, 2, 1)
            assert sweep["impurity"].size == 0
            assert sweep["feasible"].size == 0

    def test_scarce_mode_feasibility(self):
        # arm 2 never appears; strict has no feasible cuts, scarce does
        x = [1.0, 2.0, 3.0]
        t = [1, 1, 1]
        y = [1.0, 2.0, 3.0]
        assert not sweep_feature(x, t, y, 2, 1).get("feasible").any()
        assert sweep_feature(x, t, y, 2, 1, scarce_mode=True)["feasible"].all()


class TestBestSplit:
    def test_hand_instance(self):
        ds = Dataset(
            X=np.array([[1.0], [2.0], [3.0], [4.0]]),
            T=np.array([1, 2, 1, 2]),
            Y=np.array([2.0, 6.0, 4.0, 8.0]),
            m=2,
        )
        split = best_split(ds, np.arange(4), [0], PtConfig())
        assert split == Split(feature=0, threshold=2.5, impurity=12.0)

    def test_first_feature_wins_ties(self):
        # feature 1 duplicates feature 0; scanned first, it keeps the split
        # (4000 rows put the two features in separate vectorised passes)
        for reps in (1, 1000):
            x = np.arange(1.0, 4 * reps + 1)
            ds = Dataset(
                X=np.column_stack([x, x]),
                T=np.tile([1, 2], 2 * reps),
                Y=np.repeat([2.0, 6.0, 4.0, 8.0], reps),
                m=2,
            )
            rows = np.arange(4 * reps)
            assert best_split(ds, rows, [1, 0], PtConfig()).feature == 1
            assert best_split(ds, rows, [0, 1], PtConfig()).feature == 0

    def test_none_when_constant_feature(self):
        ds = Dataset(
            X=np.zeros((6, 1)),
            T=np.array([1, 2, 1, 2, 1, 2]),
            Y=np.arange(6.0),
            m=2,
        )
        assert best_split(ds, np.arange(6), [0], PtConfig()) is None

    @pytest.mark.parametrize("scarce", [False, True])
    def test_matches_brute_force(self, scarce):
        rng = np.random.default_rng(101 if scarce else 100)
        for trial in range(60):
            n = int(rng.integers(4, 26))
            d = int(rng.integers(1, 4))
            m = int(rng.integers(2, 4))
            ds = random_dataset(rng, n, d, m)
            config = PtConfig(n_min_leaf=int(rng.integers(1, 3)), scarce_mode=scarce)
            features = list(range(d))
            split = best_split(ds, np.arange(n), features, config)
            want = brute_force_best(ds, np.arange(n), features, config)
            if split is None:
                assert want == np.inf
            else:
                assert np.isclose(split.impurity, want)

    @pytest.mark.parametrize("scarce", [False, True])
    def test_presorted_rows_match_own_argsort(self, scarce):
        # filtering the global stable order to an ascending row subset
        # reproduces the subset's own stable argsort, ties included
        rng = np.random.default_rng(102 if scarce else 103)
        found = 0
        for trial in range(80):
            n = int(rng.integers(2, 80))
            d = int(rng.integers(1, 5))
            m = int(rng.integers(2, 4))
            ds = random_dataset(rng, n, d, m)
            if trial % 2:
                ds = Dataset(X=rng.integers(0, 4, size=(n, d)).astype(float), T=ds.T, Y=ds.Y, m=m)
            subset = np.flatnonzero(rng.random(n) < rng.uniform(0.3, 1.0))
            marks = np.zeros(n, dtype=bool)
            marks[subset] = True
            order = np.argsort(ds.X.T, axis=1, kind="stable")
            rows = order[marks[order]].reshape(d, subset.size)
            features = rng.permutation(d)[: int(rng.integers(1, d + 1))]
            config = PtConfig(n_min_leaf=int(rng.integers(1, 3)), scarce_mode=scarce)
            want = best_split(ds, subset, features, config)
            assert best_split(ds, subset, features, config, _presorted=rows) == want
            found += want is not None
        assert found >= 20

    def test_duplicate_x_values_respected(self):
        # the only balanced cut would fall between the two x=2 rows; no
        # strict gap there, and the gap positions are infeasible, so the
        # node cannot split at all
        X = np.array([[1.0], [2.0], [2.0], [3.0]])
        ds = Dataset(X=X, T=np.array([1, 2, 1, 2]), Y=np.array([0.0, 9.0, 9.0, 0.0]), m=2)
        assert best_split(ds, np.arange(4), [0], PtConfig()) is None
        assert brute_force_best(ds, np.arange(4), [0], PtConfig()) == np.inf


def two_leaf_tree():
    return PersonalizationTree(
        root=TreeNode(
            split=Split(feature=0, threshold=2.0, impurity=0.0),
            left=TreeNode(treatment=1, counts=(1, 1), means=(0.0, 1.0)),
            right=TreeNode(treatment=2, counts=(1, 1), means=(1.0, 0.0)),
        ),
        m=2,
        d=1,
    )


class TestRouting:
    def test_boundary_goes_left(self):
        tree = two_leaf_tree()
        assert tree.prescribe([2.0]) == 1
        assert tree.prescribe([2.0000001]) == 2
        assert tree.predict_many([[1.0], [2.0], [3.0]]).tolist() == [1, 1, 2]

    def test_predict_alias(self):
        tree = two_leaf_tree()
        assert tree.predict([0.0]) == tree.prescribe([0.0]) == 1

    def test_leaf_ids_left_to_right(self):
        tree = PersonalizationTree(
            root=TreeNode(
                split=Split(feature=0, threshold=0.0, impurity=0.0),
                left=TreeNode(
                    split=Split(feature=0, threshold=-1.0, impurity=0.0),
                    left=TreeNode(treatment=1, counts=(1,), means=(0.0,)),
                    right=TreeNode(treatment=1, counts=(1,), means=(0.0,)),
                ),
                right=TreeNode(treatment=1, counts=(1,), means=(0.0,)),
            ),
            m=1,
            d=1,
        )
        X = [[-2.0], [-0.5], [1.0]]
        assert tree.leaf_ids(X).tolist() == [1, 2, 3]
        assert tree.n_leaves == 3
        assert tree.depth == 2

    def test_leaf_ids_agree_with_prescriptions(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, 120, 3, 2, all_arms=True)
        tree = fit_pt(ds, PtConfig(n_min_leaf=5))
        ids = tree.leaf_ids(ds.X)
        pres = tree.predict_many(ds.X)
        assert ids.min() >= 1 and ids.max() <= tree.n_leaves
        for leaf in np.unique(ids):
            assert len(set(pres[ids == leaf])) == 1


class TestFitPt:
    def test_depth_zero_is_single_leaf(self):
        ds = random_dataset(np.random.default_rng(0), 30, 2, 2, all_arms=True)
        tree = fit_pt(ds, PtConfig(delta_max=0))
        assert tree.root.is_leaf and tree.n_leaves == 1

    def test_depth_bound_respected(self):
        rng = np.random.default_rng(3)
        for delta in (1, 2, 3):
            ds = random_dataset(rng, 200, 3, 2, all_arms=True)
            assert fit_pt(ds, PtConfig(delta_max=delta)).depth <= delta

    def test_strict_leaves_keep_all_arms(self):
        rng = np.random.default_rng(11)
        ds = random_dataset(rng, 300, 2, 3, all_arms=True)
        assert (np.bincount(ds.T - 1) >= 10).all()
        tree = fit_pt(ds, PtConfig(n_min_leaf=10))

        def walk(node):
            if node.is_leaf:
                assert min(node.counts) >= 10
            else:
                walk(node.left)
                walk(node.right)

        walk(tree.root)

    def test_scarce_prescribes_only_eligible(self):
        rng = np.random.default_rng(12)
        ds = random_dataset(rng, 150, 2, 3)
        tree = fit_pt(ds, PtConfig(n_min_leaf=8, scarce_mode=True))

        def walk(node):
            if node.is_leaf:
                assert node.counts[node.treatment - 1] >= 8
            else:
                walk(node.left)
                walk(node.right)

        walk(tree.root)

    def test_leaf_bookkeeping_matches_data(self):
        ds = Dataset(
            X=np.array([[0.0], [0.0], [1.0], [1.0]]),
            T=np.array([1, 2, 1, 2]),
            Y=np.array([1.0, 3.0, 8.0, 2.0]),
            m=2,
        )
        tree = fit_pt(ds, PtConfig())
        assert tree.n_leaves == 2
        left, right = tree.root.left, tree.root.right
        assert left.counts == (1, 1) and left.means == (1.0, 3.0) and left.treatment == 1
        assert right.counts == (1, 1) and right.means == (8.0, 2.0) and right.treatment == 2

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(21)
        ds = random_dataset(rng, 150, 6, 2, all_arms=True)
        config = PtConfig(n_min_leaf=3, n_features=2, seed=5)
        assert tree_to_doc(fit_pt(ds, config)) == tree_to_doc(fit_pt(ds, config))

    def test_seed_changes_feature_draws(self):
        rng = np.random.default_rng(22)
        ds = random_dataset(rng, 150, 8, 2, all_arms=True)
        docs = {
            str(tree_to_doc(fit_pt(ds, PtConfig(n_features=1, seed=s))))
            for s in range(6)
        }
        assert len(docs) > 1

    def test_risk_identity_on_fitted_tree(self):
        # n times the partition risk of a fitted tree equals the sum over
        # leaves of leaf size times the mean outcome of the prescribed arm
        rng = np.random.default_rng(30)
        ds = random_dataset(rng, 180, 3, 2, all_arms=True)
        tree = fit_pt(ds, PtConfig(n_min_leaf=5))
        from perstrees.risk import Partition, partition_risk_estimate

        est = partition_risk_estimate(
            ds, Partition(leaf_of=tree.leaf_ids(ds.X), n_leaves=tree.n_leaves), tree
        )
        total = 0.0

        def walk(node):
            nonlocal total
            if node.is_leaf:
                total += sum(node.counts) * node.means[node.treatment - 1]
            else:
                walk(node.left)
                walk(node.right)

        walk(tree.root)
        assert np.isclose(ds.n * est, total)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            PtConfig(n_min_leaf=0)
        with pytest.raises(ConfigError):
            PtConfig(delta_max=-1)
        with pytest.raises(ConfigError):
            PtConfig(n_features=0)

    def test_empty_dataset_rejected(self):
        ds = Dataset(X=np.empty((0, 1)), T=np.empty(0, dtype=int), Y=np.empty(0), m=1)
        with pytest.raises(ConfigError):
            fit_pt(ds)

    def test_n_features_beyond_d_rejected(self):
        ds = random_dataset(np.random.default_rng(0), 20, 2, 2, all_arms=True)
        with pytest.raises(ConfigError):
            fit_pt(ds, PtConfig(n_features=3))


class TestSerialization:
    def test_round_trip_predictions(self, tmp_path):
        rng = np.random.default_rng(40)
        ds = random_dataset(rng, 120, 4, 3, all_arms=True)
        tree = fit_pt(ds, PtConfig(n_min_leaf=4, scarce_mode=True))
        path = tmp_path / "tree.json"
        save_tree(tree, path)
        back = load_tree(path)
        assert back.m == tree.m and back.d == tree.d
        assert back.predict_many(ds.X).tolist() == tree.predict_many(ds.X).tolist()
        assert tree_to_doc(back) == tree_to_doc(tree)

    def test_nan_means_become_null(self):
        tree = PersonalizationTree(
            root=TreeNode(treatment=1, counts=(2, 0), means=(1.5, float("nan"))),
            m=2,
            d=1,
        )
        doc = tree_to_doc(tree)
        assert doc["root"]["leaf"]["means"] == [1.5, None]
        back = tree_from_doc(doc)
        assert np.isnan(back.root.means[1])

    def test_rejects_wrong_kind(self):
        with pytest.raises(SchemaError):
            tree_from_doc({"kind": "pf", "m": 1, "d": 1, "root": {}})

    def test_rejects_malformed_nodes(self):
        base = {"kind": "pt", "m": 2, "d": 1}
        bad_counts = {"leaf": {"treatment": 1, "counts": [1], "means": [0.0]}}
        bad_treatment = {"leaf": {"treatment": 3, "counts": [1, 1], "means": [0.0, 0.0]}}
        with pytest.raises(SchemaError):
            tree_from_doc({**base, "root": bad_counts})
        with pytest.raises(SchemaError):
            tree_from_doc({**base, "root": bad_treatment})
        with pytest.raises(SchemaError):
            tree_from_doc({**base, "root": {"neither": 1}})


GRID = {"name": "discrete_grid", "values": [-1.0, -0.5, 0.0, 0.5, 1.0]}

PINNED_CONFIGS = {
    "strict": PtConfig(n_min_leaf=5, seed=1),
    "scarce": PtConfig(n_min_leaf=5, scarce_mode=True, seed=2),
    "delta_max": PtConfig(n_min_leaf=2, delta_max=4, seed=3),
    "one_feature": PtConfig(n_min_leaf=3, n_features=1, seed=4),
}

# sha256 of json.dumps(tree_to_doc(...), sort_keys=True) for trees grown
# by a sweep that argsorts every feature at every node; a change to split
# choice, thresholds or leaf statistics moves them
PINNED_TREES = {
    ("normal", "strict"):
        "0f44beb1589558a38665d4d08b41f1ab296591182d6ac1de11662009776ba1d3",
    ("normal", "scarce"):
        "53ba5db60ff8fb7e040b0ed2d3b6a28c7a3646b357b1cf462acdd5b777aff015",
    ("normal", "delta_max"):
        "2c0290e0ec858312599c79084910ea114179305268380b93ebf4f516591242fc",
    ("normal", "one_feature"):
        "1af803c2e60ce407cd72cd4d54bfae384652b7e4a0e3d32c1f8ea53d21f94e41",
    ("grid", "strict"):
        "304569dd1d5a64d9a01863f1be4c718c1ca3dbc435ac43abe93edd5cd45424a2",
    ("grid", "scarce"):
        "836f14d446c81b1002e351a02c780dd509f652d1b8889a7bf93bdde7243b712c",
    ("grid", "delta_max"):
        "0e4cf89cf3e4e93a1f98751346b035b228358eccd30ade6ce53b521f939e7943",
    ("grid", "one_feature"):
        "0ae38123fba6920f33a0d2e599a03ab1c48077e3edfcad23da4375f86f63716f",
}

PINNED_FORESTS = {
    "normal": "8e6c79d6101368d4ca112c64299c05e250ba10b6aa08ababa0b0cf047e6742db",
    "grid": "b929fd504f5f6f9d1d17b1330b1d47a0c975bb4d1cbdfa5cf7cd7b911254800c",
}


def pinned_data(covariates):
    preset = dict(PRESETS["warfarin-like"])
    if covariates == "grid":
        preset["covariate_model"] = GRID
    return generate_synthetic(SyntheticSpec(n=400, seed=9, **preset))


def doc_digest(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class TestPinnedTrees:
    @pytest.mark.parametrize("covariates, name", sorted(PINNED_TREES))
    def test_fit_pt_digest(self, covariates, name):
        tree = fit_pt(pinned_data(covariates), PINNED_CONFIGS[name])
        assert doc_digest(tree_to_doc(tree)) == PINNED_TREES[covariates, name]

    @pytest.mark.parametrize("covariates", sorted(PINNED_FORESTS))
    def test_fit_pf_digest(self, covariates):
        forest = fit_pf(pinned_data(covariates), PfConfig(trees_count=10, seed=6))
        assert doc_digest(forest_to_doc(forest)) == PINNED_FORESTS[covariates]
