import hashlib
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from perstrees import tree as tree_module
from perstrees.data import Dataset, SyntheticSpec, generate_synthetic
from perstrees.errors import ConfigError, SchemaError
from perstrees.experiment import PRESETS
from perstrees.forest import PfConfig, fit_pf
from perstrees.model_io import load_model, model_from_doc, model_to_doc, save_model
from perstrees.opt import OptConfig, TreeSkeleton, build_cut_menu, solve_exact
from perstrees.tree import (
    PtConfig,
    Split,
    _best_splits,
    _by_key,
    _cut,
    _may_split,
    _sweep,
    _tie_runs,
    best_split,
    fit_pt,
    sweep_feature,
)

import oracles
from helpers import ADJACENT, adjacent_floats, random_dataset


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

    def test_none_without_features(self):
        ds = Dataset(X=np.arange(8.0)[:, None], T=np.tile([1, 2], 4), Y=np.arange(8.0), m=2)
        assert best_split(ds, np.arange(8), [], PtConfig()) is None

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
            if may_split(ds, subset, config):
                assert _best_splits(ds, [(features, rows)], config)[0] == want
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


TINY = np.finfo(np.float64).tiny


@st.composite
def straddling_pairs(draw):
    """Finite lo < hi: any two floats, or a value and one of its next few
    neighbours above, drawn also from near the float range's ends and
    from the subnormals."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    value = draw(st.one_of(
        finite,
        st.floats(min_value=-4 * TINY, max_value=4 * TINY),
        st.sampled_from([1.7e308, -1.7e308, 5e-324, -5e-324, 0.0, -0.0, TINY, 1.0]),
    ))
    other = draw(st.one_of(finite, st.integers(1, 3)))
    if isinstance(other, int):  # a neighbour `other` steps above value
        other = value
        for _ in range(draw(st.integers(1, 3))):
            other = float(np.nextafter(other, np.inf))
    lo, hi = sorted((value, other))
    assume(lo < hi and math.isfinite(hi))
    return lo, hi


class TestCut:
    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(pair=straddling_pairs())
    def test_threshold_separates_the_straddling_values(self, pair):
        """lo goes left and hi right, with no overflow (RuntimeWarnings
        fail the suite); the threshold is the midpoint lo * 0.5 + hi * 0.5
        where that is below hi, and else lo; and it is (lo + hi) / 2 bit for
        bit wherever that is finite and below hi and lo and hi halve exactly,
        which every value does but odd multiples of 2**-1074 under 2**-1021."""
        lo, hi = pair
        theta = _cut(lo, hi)
        assert math.isfinite(theta) and lo <= theta < hi
        mid = lo * 0.5 + hi * 0.5
        assert theta.hex() == (mid if mid < hi else lo).hex()
        assert _cut(np.array([lo]), np.array([hi]))[0].hex() == theta.hex()
        midpoint = (lo + hi) / 2
        halve = lo * 0.5 * 2 == lo and hi * 0.5 * 2 == hi
        if halve and math.isfinite(midpoint) and midpoint < hi:
            assert theta.hex() == midpoint.hex()

    def test_adjacent_floats_split_at_the_lower_value(self):
        lo, hi = ADJACENT
        assert (lo + hi) / 2 == hi
        tree = fit_pt(adjacent_floats())
        assert tree.left.size == 3
        assert tree.threshold[0] == lo
        assert tree.counts[1:].sum(axis=1).tolist() == [2, 2]


def may_split(ds, idx, config):
    """Whether growth would sweep the node of rows idx at all."""
    return _may_split(np.bincount(ds.T[idx] - 1, minlength=ds.m)[None], config)[0]


def tie_heavy(rng, shape):
    """Values from a handful of levels, -0.0 and +0.0 among them."""
    levels = np.array([-1.5, -0.0, 0.0, 0.0, 2.0, 1e300, -1e-300])
    return levels[rng.integers(0, levels.size, size=shape)]


def stable_order(X):
    """Stable ascending order from the two unstable sorts `_grow` uses:
    the keys tie run * n + position."""
    order, run = _tie_runs(X)
    return _by_key(run, order)


class TestStableArgsort:
    def test_equals_numpy_stable_order(self):
        rng = np.random.default_rng(70)
        for trial in range(200):
            shape = (int(rng.integers(1, 5)), int(rng.integers(0, 60)))
            X = tie_heavy(rng, shape) if trial % 3 else rng.normal(size=shape)
            if trial % 4 == 0:
                X = X[0]  # one-dimensional
            assert stable_order(X).tolist() == np.argsort(X, axis=-1, kind="stable").tolist()

    def test_signed_zeros_keep_their_positions(self):
        x = np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0])
        assert stable_order(x).tolist() == [5, 0, 1, 3, 4, 2]


def random_sweep_rows(rng, R, k, m):
    """R presorted feature rows of k points: tie-heavy x, every outcome
    kind the kernel must carry (negative, -0.0, huge), treatments 1..m."""
    xs = np.sort(tie_heavy(rng, (R, k)) if rng.random() < 0.5 else rng.normal(size=(R, k)), axis=1)
    kind = rng.integers(0, 4)
    ys = [rng.normal(size=(R, k)), -np.abs(rng.normal(size=(R, k))),
          tie_heavy(rng, (R, k)), rng.normal(size=(R, k)) * 1e150][kind]
    ts = rng.integers(1, m + 1, size=(R, k))
    return xs, ts, ys


class TestSweepKernel:
    """The trimmed kernel against the kernel it replaced, kept in
    tests/oracles.py: equal values at every position."""

    @pytest.mark.parametrize("scarce", [False, True])
    def test_equals_the_old_kernel_everywhere(self, scarce):
        rng = np.random.default_rng(71 if scarce else 72)
        for trial in range(300):
            R, k, m = int(rng.integers(1, 5)), int(rng.integers(1, 30)), int(rng.integers(1, 4))
            n_min_leaf = int(rng.integers(1, 4))
            xs, ts, ys = random_sweep_rows(rng, R, k, m)
            want = oracles.sweep(xs, ts, ys, m, n_min_leaf, scarce)
            got = _sweep(xs, ts, ys, k, m, n_min_leaf, scarce)
            for key in ("sides", "gap", "feasible", "impurity"):
                assert np.array_equal(got[key], want[key]), (trial, key)

    @pytest.mark.parametrize("scarce", [False, True])
    def test_pads_and_skipped_positions_change_no_value(self, scarce):
        # positions skipped at either end: every kept position scores as
        # it does in the full sweep
        rng = np.random.default_rng(73 if scarce else 74)
        for trial in range(100):
            m, n_min_leaf = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            R, k, side = int(rng.integers(1, 6)), int(rng.integers(2, 25)), int(rng.integers(1, 4))
            xs, ts, ys = random_sweep_rows(rng, R, k, m)
            got = _sweep(xs, ts, ys, k, m, n_min_leaf, scarce, side)
            want = oracles.sweep(xs, ts, ys, m, n_min_leaf, scarce)
            kept = slice(side - 1, max(side - 1, k - side))  # positions side..k-side
            for key in ("gap", "feasible", "impurity"):
                assert np.array_equal(got[key], want[key][:, kept]), (trial, key)
            assert np.array_equal(got["sides"], want["sides"][..., kept]), trial


class TestBatchedScoring:
    @pytest.mark.parametrize("scarce", [False, True])
    def test_a_batch_scores_each_node_as_best_split_alone(self, scarce):
        # nodes of mixed sizes in one list, big ones swept in feature
        # chunks; duplicate columns make the tie rule matter
        rng = np.random.default_rng(75 if scarce else 76)
        for trial in range(20):
            n, m = int(rng.integers(40, 3000)), int(rng.integers(2, 4))
            ds = random_dataset(rng, n, 3, m, all_arms=True)
            X = np.column_stack([ds.X, ds.X[:, 0], np.round(ds.X[:, 1]), np.round(ds.X[:, 1])])
            ds = Dataset(X=X, T=ds.T, Y=ds.Y, m=m)
            config = PtConfig(n_min_leaf=int(rng.integers(1, 4)), scarce_mode=scarce)
            order = np.argsort(ds.X.T, axis=1, kind="stable")
            nodes, want = [], []
            for _ in range(int(rng.integers(1, 12))):
                keep = np.zeros(n, dtype=bool)
                keep[rng.choice(n, int(rng.integers(2, n + 1)), replace=False)] = True
                idx = np.flatnonzero(keep)
                rows = order[keep[order]].reshape(ds.d, idx.size)
                features = rng.permutation(ds.d)[: int(rng.integers(1, ds.d + 1))]
                if not may_split(ds, idx, config):
                    continue
                nodes.append((features, rows))
                want.append(_best_splits(ds, [(features, rows)], config)[0])
            assert _best_splits(ds, nodes, config) == want


class TestSweepShape:
    """Each `_sweep` call holds the feature rows of one node: one k, no
    +inf pads and at most max(_SWEEP_BUDGET, k) cells, one call per chunk
    of max(1, _SWEEP_BUDGET // k) features of a node that can split."""

    def check(self, monkeypatch, ds, config, run):
        sweeps, lists = [], []
        sweep, best_splits = tree_module._sweep, tree_module._best_splits

        def wrapped_sweep(xs, ts, ys, k, *args):
            sweeps.append((xs.shape, k, bool(np.isinf(xs).any())))
            return sweep(xs, ts, ys, k, *args)

        def wrapped_best_splits(ds, nodes, config):
            lists.append([(len(features), rows.shape[1]) for features, rows in nodes])
            return best_splits(ds, nodes, config)

        monkeypatch.setattr(tree_module, "_sweep", wrapped_sweep)
        monkeypatch.setattr(tree_module, "_best_splits", wrapped_best_splits)
        result = run()
        side = config.n_min_leaf * (1 if config.scarce_mode else ds.m)
        for (R, K), k, padded in sweeps:
            assert type(k) is int and k == K and not padded
            assert R * K <= max(tree_module._SWEEP_BUDGET, k)
        want = sum(math.ceil(F / max(1, tree_module._SWEEP_BUDGET // k))
                   for nodes in lists for F, k in nodes if k >= 2 * side)
        assert len(sweeps) == want
        return lists, result

    @pytest.mark.parametrize("scarce", [False, True])
    def test_a_node_list_sweeps_node_by_node(self, monkeypatch, scarce):
        rng = np.random.default_rng(77 if scarce else 78)
        ds = random_dataset(rng, 6000, 6, 3, all_arms=True)
        config = PtConfig(n_min_leaf=2, scarce_mode=scarce)
        order = np.argsort(ds.X.T, axis=1, kind="stable")
        nodes = []
        for size in [3, 5000, 40, 6000, 41, 900, 2, 4100, 60]:
            keep = np.zeros(ds.n, dtype=bool)
            keep[rng.choice(ds.n, size, replace=False)] = True
            features = rng.permutation(ds.d)[: int(rng.integers(1, ds.d + 1))]
            nodes.append((features, order[keep[order]].reshape(ds.d, size)))
        lists, _ = self.check(monkeypatch, ds, config, lambda: tree_module._best_splits(ds, nodes, config))
        assert len(lists) == 1

    def test_growth_sweeps_node_by_node(self, monkeypatch):
        rng = np.random.default_rng(79)
        ds = random_dataset(rng, 5000, 4, 2, all_arms=True)
        config = PtConfig(n_min_leaf=20)
        lists, grown = self.check(monkeypatch, ds, config, lambda: fit_pt(ds, config))
        assert grown.n_leaves > 20 and max(k for nodes in lists for _, k in nodes) == ds.n
        forest_config = PfConfig(trees_count=6, n_min_leaf=5, seed=3)
        lists, _ = self.check(monkeypatch, ds, forest_config, lambda: fit_pf(ds, forest_config))
        assert max(map(len, lists)) > 1  # the trees' nodes are scored together


def leaf_doc(treatment, counts, means):
    return {"leaf": {"treatment": treatment, "counts": counts, "means": means}}


def split_doc(feature, threshold, left, right):
    return {"split": {"feature": feature, "threshold": threshold}, "left": left, "right": right}


def tree_doc(root, m, d):
    return {"kind": "pt", "m": m, "d": d, "root": root}


def two_leaf_tree():
    return model_from_doc(tree_doc(
        split_doc(0, 2.0, leaf_doc(1, [1, 1], [0.0, 1.0]), leaf_doc(2, [1, 1], [1.0, 0.0])),
        m=2,
        d=1,
    ))


class TestRouting:
    def test_boundary_goes_left(self):
        tree = two_leaf_tree()
        assert tree.prescribe([2.0]) == 1
        assert tree.prescribe([2.0000001]) == 2
        assert tree.predict_many([[1.0], [2.0], [3.0]]).tolist() == [1, 1, 2]

    def test_prescribe_is_one_row_predict_many(self):
        tree = two_leaf_tree()
        assert tree.prescribe([0.0]) == tree.predict_many([[0.0]])[0] == 1

    def test_leaf_ids_left_to_right(self):
        stump = leaf_doc(1, [1], [0.0])
        tree = model_from_doc(tree_doc(
            split_doc(0, 0.0, split_doc(0, -1.0, stump, stump), stump), m=1, d=1
        ))
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


def reference_node(tree, x):
    """Node one row reaches, walked one split at a time."""
    i = 0
    while tree.left[i] >= 0:
        i = tree.left[i] if x[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
    return i


def left_leaf_count(tree):
    """Number of leaves under the root's left child."""
    count, stack = 0, [tree.left[0]]
    while stack:
        i = stack.pop()
        if tree.left[i] < 0:
            count += 1
        else:
            stack += [tree.left[i], tree.right[i]]
    return count


def pre_order(tree):
    """Node indices in the order a pre-order walk meets them."""
    order, stack = [], [0]
    while stack:
        i = stack.pop()
        order.append(i)
        if tree.left[i] >= 0:
            stack += [tree.right[i], tree.left[i]]
    return order


class TestRoutingAgreement:
    """Greedy, forest and exact trees, all in pre-order, route alike."""

    @pytest.fixture(scope="class")
    def fits(self):
        ds = random_dataset(np.random.default_rng(50), 200, 3, 2, all_arms=True)
        sk = TreeSkeleton(2)
        cfg = OptConfig(delta=2, n_min_leaf=5, n_cuts=4)
        result = solve_exact(ds, sk, build_cut_menu(ds, sk, cfg), cfg)
        trees = {
            "pt": fit_pt(ds, PtConfig(n_min_leaf=5)),
            "pf": fit_pf(ds, PfConfig(trees_count=2, n_min_leaf=5)).trees[1],
            "opt": result.tree,
        }
        return ds, trees, sk, result

    @pytest.mark.parametrize("source", ["pt", "pf", "opt"])
    def test_batch_row_and_leaf_routes_agree(self, fits, source):
        ds, trees, _, _ = fits
        tree = trees[source]
        assert tree.n_leaves > 1
        # data rows, plus copies of them sitting exactly on every threshold
        X = [ds.X]
        for i in np.flatnonzero(tree.left >= 0):
            on_cut = ds.X[:20].copy()
            on_cut[:, tree.feature[i]] = tree.threshold[i]
            X.append(on_cut)
        X = np.concatenate(X)
        nodes = [reference_node(tree, x) for x in X]
        rank = np.cumsum(tree.left < 0)
        want = [tree.treatment[i] for i in nodes]
        assert tree.predict_many(X).tolist() == want
        assert [tree.prescribe(x) for x in X] == want
        assert tree.leaf_ids(X).tolist() == [rank[i] for i in nodes]

    @pytest.mark.parametrize("source", ["pt", "pf", "opt"])
    def test_threshold_goes_left(self, fits, source):
        ds, trees, _, _ = fits
        tree = trees[source]
        X = ds.X.copy()
        X[:, tree.feature[0]] = tree.threshold[0]
        n_left = left_leaf_count(tree)
        assert tree.leaf_ids(X).max() <= n_left
        X[:, tree.feature[0]] = np.nextafter(tree.threshold[0], np.inf)
        assert tree.leaf_ids(X).min() > n_left

    @pytest.mark.parametrize("source", ["pt", "pf", "opt"])
    def test_nodes_are_in_pre_order(self, fits, source):
        # parents before children, leaves left to right: a pre-order walk
        # meets the nodes in array order
        tree = fits[1][source]
        assert pre_order(tree) == list(range(tree.left.size))

    def test_exact_tree_prescribes_as_the_skeleton_routes(self, fits):
        ds, trees, sk, result = fits
        leaf = sk.route_many(ds.X, result.assignment.cuts) - 2**sk.delta
        want = np.asarray(result.assignment.treatments)[leaf]
        assert trees["opt"].predict_many(ds.X).tolist() == want.tolist()

    def test_skeleton_routes_like_the_exact_tree(self, fits):
        ds, _, sk, result = fits
        want = result.tree.leaf_ids(ds.X) + 2**sk.delta - 1
        assert sk.route_many(ds.X, result.assignment.cuts).tolist() == want.tolist()


class TestFitPt:
    def test_chain_deeper_than_the_recursion_limit(self):
        # every cut peels one row off the left, so the tree is a chain
        i = np.arange(3000)
        ds = Dataset(X=i[:, None], T=1 + i % 2, Y=1e6 * (i % 2) + i, m=2)
        tree = fit_pt(ds)
        assert (tree.depth, tree.n_leaves) == (1499, 1500)
        assert pre_order(tree) == list(range(tree.left.size))
        want = [tree.treatment[reference_node(tree, x)] for x in ds.X]
        assert tree.predict_many(ds.X).tolist() == want

    def test_depth_zero_is_single_leaf(self):
        ds = random_dataset(np.random.default_rng(0), 30, 2, 2, all_arms=True)
        tree = fit_pt(ds, PtConfig(delta_max=0))
        assert tree.left[0] < 0 and tree.n_leaves == 1

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
        for i in np.flatnonzero(tree.left < 0):
            assert min(tree.counts[i]) >= 10

    def test_scarce_prescribes_only_eligible(self):
        rng = np.random.default_rng(12)
        ds = random_dataset(rng, 150, 2, 3)
        tree = fit_pt(ds, PtConfig(n_min_leaf=8, scarce_mode=True))
        for i in np.flatnonzero(tree.left < 0):
            assert tree.counts[i, tree.treatment[i] - 1] >= 8

    def test_leaf_bookkeeping_matches_data(self):
        ds = Dataset(
            X=np.array([[0.0], [0.0], [1.0], [1.0]]),
            T=np.array([1, 2, 1, 2]),
            Y=np.array([1.0, 3.0, 8.0, 2.0]),
            m=2,
        )
        tree = fit_pt(ds, PtConfig())
        assert tree.n_leaves == 2
        left, right = tree.left[0], tree.right[0]
        assert tree.counts[left].tolist() == [1, 1]
        assert tree.means[left].tolist() == [1.0, 3.0] and tree.treatment[left] == 1
        assert tree.counts[right].tolist() == [1, 1]
        assert tree.means[right].tolist() == [8.0, 2.0] and tree.treatment[right] == 2

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(21)
        ds = random_dataset(rng, 150, 6, 2, all_arms=True)
        config = PtConfig(n_min_leaf=3, n_features=2, seed=5)
        assert model_to_doc(fit_pt(ds, config)) == model_to_doc(fit_pt(ds, config))

    def test_seed_changes_feature_draws(self):
        rng = np.random.default_rng(22)
        ds = random_dataset(rng, 150, 8, 2, all_arms=True)
        docs = {
            str(model_to_doc(fit_pt(ds, PtConfig(n_features=1, seed=s))))
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
        for i in np.flatnonzero(tree.left < 0):
            total += tree.counts[i].sum() * tree.means[i, tree.treatment[i] - 1]
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
        save_model(tree, path)
        back = load_model(path)
        assert back.m == tree.m and back.d == tree.d
        assert back.predict_many(ds.X).tolist() == tree.predict_many(ds.X).tolist()
        assert model_to_doc(back) == model_to_doc(tree)

    def test_nan_means_become_null(self):
        tree = model_from_doc(tree_doc(leaf_doc(1, [2, 0], [1.5, None]), m=2, d=1))
        assert np.isnan(tree.means[0, 1])
        doc = model_to_doc(tree)
        assert doc["root"]["leaf"]["means"] == [1.5, None]
        back = model_from_doc(doc)
        assert np.isnan(back.means[0, 1])

    @pytest.mark.parametrize(
        "feature,threshold",
        [(-1, 0.0), (7, 0.0), (0, float("nan")),
         (1.0, 0.0), (True, 0.0), (0, True), (0, float("inf"))],
        ids=["negative_feature", "feature_past_d", "nan_threshold",
             "float_feature", "bool_feature", "bool_threshold", "inf_threshold"],
    )
    def test_rejects_bad_split(self, feature, threshold):
        # -1 would route on the last column, 7 is past d = 2, and a NaN
        # threshold (which json.load accepts) would send every row right
        stump = leaf_doc(1, [1, 1], [0.0, 0.0])
        doc = tree_doc(split_doc(feature, threshold, stump, stump), m=2, d=2)
        with pytest.raises(SchemaError):
            model_from_doc(doc)

    def test_rejects_wrong_kind(self):
        # the pt reader checks the kind of each tree a forest document holds
        tree = {"kind": "pf", "m": 1, "d": 1, "root": {}}
        with pytest.raises(SchemaError, match="expected a pt document, got kind 'pf'"):
            model_from_doc({"kind": "pf", "trees": [tree]})

    def test_rejects_malformed_nodes(self):
        base = {"kind": "pt", "m": 2, "d": 1}
        bad_counts = {"leaf": {"treatment": 1, "counts": [1], "means": [0.0]}}
        bad_treatment = {"leaf": {"treatment": 3, "counts": [1, 1], "means": [0.0, 0.0]}}
        with pytest.raises(SchemaError):
            model_from_doc({**base, "root": bad_counts})
        with pytest.raises(SchemaError):
            model_from_doc({**base, "root": bad_treatment})
        with pytest.raises(SchemaError):
            model_from_doc({**base, "root": {"neither": 1}})

    @pytest.mark.parametrize("leaf,shape", [
        ({"treatment": 1.9}, {}),
        ({"treatment": 0}, {}),
        ({"counts": [2.5, 1]}, {}),
        ({"counts": [-1, 1]}, {}),
        ({"means": [float("inf"), None]}, {}),
        ({"means": ["1.5", None]}, {}),
        ({}, {"m": "2"}),
        ({}, {"d": 2.0}),
    ], ids=["treatment-float", "treatment-0", "counts-float", "counts-negative", "means-inf",
            "means-text", "m-text", "d-float"])
    def test_rejects_bad_leaf_and_shape_fields(self, leaf, shape):
        # each of these but treatment 0 was once cast to a valid-looking value
        fields = {"treatment": 1, "counts": [1, 1], "means": [0.0, None], **leaf}
        root = split_doc(0, 0.5, leaf_doc(**fields), leaf_doc(2, [1, 1], [1.0, 0.0]))
        with pytest.raises(SchemaError):
            model_from_doc({**tree_doc(root, m=2, d=2), **shape})


GRID = {"name": "discrete_grid", "values": [-1.0, -0.5, 0.0, 0.5, 1.0]}

PINNED_CONFIGS = {
    "strict": PtConfig(n_min_leaf=5, seed=1),
    "scarce": PtConfig(n_min_leaf=5, scarce_mode=True, seed=2),
    "delta_max": PtConfig(n_min_leaf=2, delta_max=4, seed=3),
    "one_feature": PtConfig(n_min_leaf=3, n_features=1, seed=4),
}

# sha256 of json.dumps(model_to_doc(...), sort_keys=True) for trees grown
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
    ("signed", "strict"):
        "262dd8d0673ae012d5447ad803be69ef58fef88014acc1f53b372cdc2dc14861",
    ("signed", "scarce"):
        "ae55e6b9877c411fe83c615dbf2c62f91758c4575169487ab8f89e0aac958f11",
}

PINNED_FORESTS = {
    "normal": "8e6c79d6101368d4ca112c64299c05e250ba10b6aa08ababa0b0cf047e6742db",
    "grid": "b929fd504f5f6f9d1d17b1330b1d47a0c975bb4d1cbdfa5cf7cd7b911254800c",
}

# the same for 10-tree forests (seed 6) with the tree settings of the
# named configs; "signed" fits the "normal" data with an
# outcome column of negatives, positives and -0.0
PINNED_FOREST_BASES = {
    ("normal", "scarce"):
        "bd6742be8df7284e4dae6ddbe9226ac4b29387b2f17d3017e5c3aa17bf120e6d",
    ("normal", "delta_max"):
        "fc17be8ad9e3265d90ea2135a032259460d9f0501fc792770b726c9940280f3b",
    ("normal", "one_feature"):
        "4f842784a75a9930f120b49819c85ce9b4ed5cade436723d17ddb2e82aabe99c",
    ("grid", "scarce"):
        "4a7ec6185367dfbe21621cf4c7a1cca34b8cbb38323f434bf6e33fea53ce9342",
    ("grid", "delta_max"):
        "d304f8e76e93b8dc265e970f5cbb27ce7c9ff3a633fb5908cdfee4fd9e789cc1",
    ("grid", "one_feature"):
        "49ab78acb5a78e5ad9f144bad9c9dbe0b2b87b479a0812fdba091071452c1baa",
    ("signed", "strict"):
        "b8bafd4a6e7de4fc606f7e2a06b4b4b5d26ebe5f7e47a72e6fd8d1cbda4036ab",
    ("signed", "scarce"):
        "12099f674fda06f300ad7da6dfc519a7c4ce49aa01f12380dfdf2cfad8aa9503",
}


def pinned_data(covariates):
    preset = dict(PRESETS["warfarin-like"])
    if covariates == "grid":
        preset["covariate_model"] = GRID
    ds = generate_synthetic(SyntheticSpec(n=400, seed=9, **preset))
    if covariates == "signed":  # the 0/1 outcome becomes -0.0 or a signed real
        Y = np.where(ds.Y == 0.0, -0.0, ds.Y * ds.X[:, 1])
        ds = Dataset(X=ds.X, T=ds.T, Y=Y, m=ds.m)
    return ds


def doc_digest(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class TestPinnedTrees:
    @pytest.mark.parametrize("covariates, name", sorted(PINNED_TREES))
    def test_fit_pt_digest(self, covariates, name):
        tree = fit_pt(pinned_data(covariates), PINNED_CONFIGS[name])
        assert doc_digest(model_to_doc(tree)) == PINNED_TREES[covariates, name]

    @pytest.mark.parametrize("covariates", sorted(PINNED_FORESTS))
    def test_fit_pf_digest(self, covariates):
        forest = fit_pf(pinned_data(covariates), PfConfig(trees_count=10, seed=6))
        assert doc_digest(model_to_doc(forest)) == PINNED_FORESTS[covariates]

    @pytest.mark.parametrize("covariates, name", sorted(PINNED_FOREST_BASES))
    def test_fit_pf_digest_on_base(self, covariates, name):
        config = PfConfig(trees_count=10, **{**asdict(PINNED_CONFIGS[name]), "seed": 6})
        forest = fit_pf(pinned_data(covariates), config)
        assert doc_digest(model_to_doc(forest)) == PINNED_FOREST_BASES[covariates, name]
