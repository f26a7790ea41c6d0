import dataclasses
import hashlib
import itertools
import logging
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp

from perstrees.data import Dataset, SyntheticSpec, generate_synthetic
from perstrees.errors import (
    ConfigError,
    EmptyMenuError,
    InfeasibleError,
    ParseError,
    SolveTimeout,
)
from perstrees.experiment import PRESETS
from perstrees.opt import skeleton, solver
from perstrees.opt import (
    CutMenu,
    OptConfig,
    TreeAssignment,
    assignment_to_tree,
    build_cut_menu,
    build_mip,
    check_solution,
    cut_positions,
    evaluate_assignment,
    load_solution_json,
    objective_value,
    solution_from_assignment,
    solve_exact,
    warm_start_from_pt,
)
from perstrees.tree import PtConfig, fit_pt

from helpers import ADJACENT, adjacent_floats, random_dataset, to_scipy
from oracles import reference_solve


def toy_1d():
    """Four subjects, one binary-looking feature, single menu cut at 0.5."""
    return Dataset(
        X=np.array([[0.0], [0.0], [1.0], [1.0]]),
        T=np.array([1, 2, 1, 2]),
        Y=np.array([0.0, 0.0, 10.0, 0.0]),
        m=2,
    )


def all_assignments(menu, m):
    n_leaves = len(menu.cuts) + 1
    for cuts in itertools.product(*menu.cuts):
        for treats in itertools.product(range(1, m + 1), repeat=n_leaves):
            yield TreeAssignment(cuts=tuple(cuts), treatments=tuple(treats))


class TestCutPositions:
    def test_examples(self):
        assert cut_positions(11, 5) == [1, 2, 4, 6, 8, 10]
        assert cut_positions(5, 10) == [1, 2, 3, 4]
        assert cut_positions(101, 10) == [1] + list(range(10, 101, 10))
        assert cut_positions(2, 1) == [1]

    def test_too_small(self):
        assert cut_positions(1, 5) == []
        assert cut_positions(0, 5) == []

    def test_dense_once_grid_saturates(self):
        for n in (3, 7, 12):
            assert cut_positions(n, n) == list(range(1, n))


def heap_leaves(X, cuts):
    """Heap leaf number of every row of X under the cuts, from the exact
    solver's one tally, `solver._leaves`."""
    X = np.asarray(X, dtype=np.float64)
    top = len(cuts) + 1
    ds = Dataset(X=X, T=np.ones(len(X), dtype=np.int64), Y=np.zeros(len(X)), m=1)
    return solver._leaves(ds, TreeAssignment(tuple(cuts), (1,) * top), ds.Y)[0] + top


class TestSkeleton:
    """The complete tree's heap layout and the routing of rows down it."""

    def test_node_layout(self):
        assert tuple(skeleton._internal_nodes(2)) == (1, 2, 3)
        assert tuple(skeleton._leaf_nodes(2)) == (4, 5, 6, 7)
        assert 3 not in skeleton._leaf_nodes(2) and 4 in skeleton._leaf_nodes(2)

    def test_path_to(self):
        assert skeleton._path_to(5) == [(1, -1), (2, +1)]
        assert skeleton._path_to(12) == [(1, +1), (3, -1), (6, -1)]
        assert skeleton._path_to(2**40) == [(2**j, -1) for j in range(40)]

    def test_route_boundary_goes_left(self):
        cuts = ((0, 0.5),)
        assert heap_leaves([[0.5], [0.50001]], cuts).tolist() == [2, 3]

    def test_route_many_heap_leaves(self):
        # a search tree on feature 0: node p cuts at the midpoint of its
        # interval, so leaf 8 + j holds (j - 4, j - 3]
        cuts = ((0, 0.0), (0, -2.0), (0, 2.0), (0, -3.0), (0, -1.0), (0, 1.0), (0, 3.0))
        X = [[x, 9.0] for x in (-3.5, -2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 3.5, -3.0, 0.0, 3.0)]
        assert heap_leaves(X, cuts).tolist() == [8, 9, 10, 11, 12, 13, 14, 15, 8, 11, 14]
        # the second feature decides at nodes 2 and 7 only
        cuts = ((0, 0.0), (1, 0.0), (0, 1.0), (0, -1.0), (0, -1.0), (0, 0.5), (1, 5.0))
        X = [[-2.0, -1.0], [-2.0, 1.0], [-0.5, 1.0], [0.7, 9.0], [2.0, 5.0], [2.0, 6.0]]
        assert heap_leaves(X, cuts).tolist() == [8, 10, 11, 13, 14, 15]

    @pytest.mark.parametrize("delta", [1, 2, 3, 4])
    def test_route_many_matches_the_tree_and_a_heap_walk(self, delta):
        rng = np.random.default_rng(40 + delta)
        ds = random_dataset(rng, 30, 3, 2, all_arms=True)
        top = 2**delta
        cuts = tuple((int(rng.integers(3)), float(rng.normal())) for _ in range(top - 1))
        treatments = tuple(int(t) for t in rng.integers(1, 3, size=top))
        # rows on each threshold, one ulp above it, and NaN at its feature
        X = [ds.X]
        for f, theta in cuts:
            for value in (theta, np.nextafter(theta, np.inf), np.nan):
                edge = ds.X[:10].copy()
                edge[:, f] = value
                X.append(edge)
        X = np.concatenate(X)

        def heap_walk(x):
            p = 1
            while p < top:
                f, theta = cuts[p - 1]
                p = 2 * p if x[f] <= theta else 2 * p + 1
            return p

        tree = assignment_to_tree(ds, TreeAssignment(cuts, treatments))
        walked = [heap_walk(x) - top for x in X]
        assert (tree.leaf_ids(X) - 1).tolist() == walked
        finite = np.isfinite(X).all(axis=1)
        assert (heap_leaves(X[finite], cuts) - top).tolist() == np.array(walked)[finite].tolist()

    @pytest.mark.parametrize("delta", [1, 2, 3])
    def test_route_many_refuses_a_wrong_cut_count(self, delta):
        ds = random_dataset(np.random.default_rng(3), 20, 1, 2, all_arms=True)
        for n_cuts in (2**delta - 2, 2**delta):
            a = TreeAssignment(((0, 0.0),) * n_cuts, (1,) * 2**delta)
            with pytest.raises(ConfigError, match="cut"):
                assignment_to_tree(ds, a)
            with pytest.raises(ConfigError, match="cut"):
                solver._leaves(ds, a, ds.Y)

    @pytest.mark.parametrize("feature", [-1, 2])
    def test_route_many_refuses_a_feature_outside_the_columns(self, feature):
        # -1 once routed on the last column and 2 died in an IndexError
        X = np.array([[0.0, 1.0], [1.0, -1.0], [2.0, 0.5]])
        with pytest.raises(ConfigError, match="cut feature"):
            heap_leaves(X, ((feature, 0.0),))

    def test_validation(self):
        with pytest.raises(ConfigError):
            OptConfig(delta=0)
        with pytest.raises(ConfigError):
            OptConfig(n_min_leaf=0)
        with pytest.raises(ConfigError):
            OptConfig(n_cuts=0)
        with pytest.raises(ConfigError):
            OptConfig(n_features=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"work_limit": float("nan")},
            {"work_limit": "10"},
            {"work_limit": -1},
            {"work_limit": True},
            {"work_limit": 2.5},
            {"work_limit": 1.0},
            {"delta": 1.0},
            {"delta": "2"},
            {"delta": True},
        ],
    )
    def test_rejects_malformed_depth_and_work_limit(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            OptConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"work_limit": None},
            {"work_limit": 0},
            {"work_limit": 1},
            {"work_limit": 10**30},
            {"work_limit": np.int64(1)},
            {"delta": np.int64(3)},
        ],
    )
    def test_accepts_numbers(self, kwargs):
        OptConfig(**kwargs)

    def test_time_limit_is_not_a_field(self):
        with pytest.raises(TypeError, match="time_limit"):
            OptConfig(time_limit=1.0)


class TestBuildMenu:
    def test_midpoints_on_distinct_values(self):
        ds = Dataset(
            X=np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]),
            T=np.array([1, 2, 1, 2, 1]),
            Y=np.zeros(5),
            m=2,
        )
        menu = build_cut_menu(ds, OptConfig(delta=1, n_min_leaf=1))
        assert menu.for_node(1) == ((0, 1.5), (0, 2.5), (0, 3.5), (0, 4.5))

    def test_coincident_values_contribute_nothing(self):
        ds = Dataset(
            X=np.array([[1.0], [1.0], [1.0], [2.0]]),
            T=np.array([1, 2, 1, 2]),
            Y=np.zeros(4),
            m=2,
        )
        menu = build_cut_menu(ds, OptConfig(delta=1, n_min_leaf=1))
        assert menu.for_node(1) == ((0, 1.5),)

    def test_adjacent_values_cut_at_the_lower(self):
        menu = build_cut_menu(adjacent_floats(), OptConfig(delta=1, n_min_leaf=1))
        assert menu.for_node(1) == ((0, ADJACENT[0]),)

    def test_thresholds_near_the_float_range_ends_stay_finite(self):
        X = np.array([[-1.7e308], [-1.6e308], [1.6e308], [1.7e308]])
        ds = Dataset(X=X, T=np.array([1, 2, 1, 2]), Y=np.zeros(4), m=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            menu = build_cut_menu(ds, OptConfig(delta=1, n_min_leaf=1))
        thresholds = [theta for _, theta in menu.for_node(1)]
        assert len(thresholds) == 3
        assert all(lo < theta < hi for lo, theta, hi in zip(X[:-1, 0], thresholds, X[1:, 0]))

    def test_constant_feature_empties_the_menu(self):
        ds = Dataset(
            X=np.zeros((6, 1)), T=np.array([1, 2] * 3), Y=np.zeros(6), m=2
        )
        with pytest.raises(EmptyMenuError, match="node 1"):
            build_cut_menu(ds, OptConfig(delta=1, n_min_leaf=1))

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, 40, 5, 2)
        cfg = OptConfig(delta=2, n_min_leaf=1, n_features=2, seed=11)
        assert build_cut_menu(ds, cfg) == build_cut_menu(ds, cfg)

    def test_n_features_validated(self):
        ds = random_dataset(np.random.default_rng(3), 20, 2, 2)
        with pytest.raises(ConfigError):
            build_cut_menu(ds, OptConfig(delta=1, n_features=3))


class TestEvaluateAssignment:
    def test_hand_values(self):
        ds = toy_1d()
        cfg = OptConfig(delta=1, n_min_leaf=1)
        cut = ((0, 0.5),)
        vals = {
            (1, 1): 20.0,  # right leaf pays 2 * 10
            (1, 2): 0.0,
            (2, 1): 20.0,
            (2, 2): 0.0,
        }
        for treats, want in vals.items():
            a = TreeAssignment(cuts=cut, treatments=treats)
            assert evaluate_assignment(ds, a, cfg) == want

    def test_occupancy_shortfall_is_inf(self):
        ds = toy_1d()
        a = TreeAssignment(cuts=((0, 0.5),), treatments=(1, 1))
        cfg = OptConfig(delta=1, n_min_leaf=2)
        assert evaluate_assignment(ds, a, cfg) == np.inf

    def test_shift_invariance(self):
        ds = toy_1d()
        shifted = Dataset(X=ds.X, T=ds.T, Y=ds.Y + 100.0, m=ds.m)
        a = TreeAssignment(cuts=((0, 0.5),), treatments=(1, 2))
        cfg = OptConfig(delta=1, n_min_leaf=1)
        assert evaluate_assignment(ds, a, cfg) == evaluate_assignment(
            shifted, a, cfg
        )

    @pytest.mark.parametrize("delta,n,n_cuts", [(2, 60, 3), (3, 80, 4)])
    def test_scores_the_optimum_bit_for_bit_as_the_search(self, delta, n, n_cuts):
        checked = 0
        for seed in range(20):
            ds = random_dataset(np.random.default_rng(seed), n, 2, 2)
            cfg = OptConfig(delta=delta, n_min_leaf=1, n_cuts=n_cuts, seed=seed)
            menu = build_cut_menu(ds, cfg)
            try:
                res = solve_exact(ds, menu, cfg)
            except InfeasibleError:
                continue
            assert evaluate_assignment(ds, res.assignment, cfg).hex() == res.objective.hex()
            checked += 1
        assert checked >= 10


# the three readers of a depth-one assignment, each as (ds, menu, assignment)
READERS = {
    "evaluate_assignment": lambda ds, menu, a: evaluate_assignment(ds, a, OptConfig(delta=1, n_min_leaf=1)),
    "assignment_to_tree": lambda ds, menu, a: assignment_to_tree(ds, a),
    "solution_from_assignment": solution_from_assignment,
}


class TestAssignmentChecks:
    @pytest.mark.parametrize("reader", list(READERS))
    @pytest.mark.parametrize("cut,treatments,named", [
        (None, (0, 2), "treatment"),
        (None, (1, 3), "treatment"),
        (None, (-2, 1), "treatment"),
        ((2, 0.0), (1, 2), "cut feature"),
        ((-1, 0.0), (1, 2), "cut feature"),
        ((0, float("nan")), (1, 2), "cut threshold"),
        ((0, float("inf")), (1, 2), "cut threshold"),
    ], ids=["treatment-0", "treatment-m+1", "treatment-negative", "feature-d",
            "feature-negative", "threshold-nan", "threshold-inf"])
    def test_readers_refuse_what_the_data_cannot_hold(self, reader, cut, treatments, named):
        ds = random_dataset(np.random.default_rng(17), 40, 2, 2, all_arms=True)
        menu = build_cut_menu(ds, OptConfig(delta=1, n_min_leaf=1, n_cuts=3))
        a = TreeAssignment((cut or menu.for_node(1)[0],), treatments)
        with pytest.raises(ConfigError, match=named):
            READERS[reader](ds, menu, a)

    def test_solution_refuses_a_cut_off_the_menu(self):
        # once a raw ValueError from tuple.index
        ds = random_dataset(np.random.default_rng(17), 40, 2, 2, all_arms=True)
        menu = build_cut_menu(ds, OptConfig(delta=1, n_min_leaf=1, n_cuts=3))
        assert (0, 0.123) not in menu.for_node(1)
        with pytest.raises(ConfigError, match="node 1"):
            solution_from_assignment(ds, menu, TreeAssignment(((0, 0.123),), (1, 2)))

    def test_solve_exact_refuses_a_warm_start_that_prescribes_0(self):
        ds = random_dataset(np.random.default_rng(17), 40, 2, 2, all_arms=True)
        cfg = OptConfig(delta=1, n_min_leaf=1, n_cuts=3)
        menu = build_cut_menu(ds, cfg)
        warm = TreeAssignment(menu.for_node(1)[:1], (0, 2))
        with pytest.raises(ConfigError, match="treatment"):
            solve_exact(ds, menu, cfg, warm=warm)


class TestSolveExact:
    def test_toy_optimum(self):
        ds = toy_1d()
        cfg = OptConfig(delta=1, n_min_leaf=1)
        menu = build_cut_menu(ds, cfg)
        assert menu.for_node(1) == ((0, 0.5),)
        result = solve_exact(ds, menu, cfg)
        assert result.proved
        assert result.objective == 0.0
        assert result.assignment == TreeAssignment(cuts=((0, 0.5),), treatments=(1, 2))

    def test_lexicographic_tie_break(self):
        # all outcomes equal: every feasible assignment scores zero, so
        # the first feasible cut in menu order and treatment 1 must win
        ds = Dataset(
            X=np.arange(1.0, 9.0)[:, None],
            T=np.array([1, 2, 1, 2, 1, 2, 1, 2]),
            Y=np.zeros(8),
            m=2,
        )
        cfg = OptConfig(delta=1, n_min_leaf=1)
        menu = build_cut_menu(ds, cfg)
        assert menu.for_node(1)[0] == (0, 1.5)  # infeasible: left side lacks arm 2
        result = solve_exact(ds, menu, cfg)
        assert result.assignment == TreeAssignment(cuts=((0, 2.5),), treatments=(1, 1))

    @pytest.mark.parametrize("delta,n,n_cuts,trials", [(1, 24, 3, 15), (2, 48, 2, 6)])
    def test_matches_enumeration(self, delta, n, n_cuts, trials):
        rng = np.random.default_rng(100 + delta)
        for trial in range(trials):
            ds = random_dataset(rng, n, 2, 2, all_arms=True)
            cfg = OptConfig(
                delta=delta, n_min_leaf=2, n_cuts=n_cuts, seed=int(rng.integers(1000))
            )
            menu = build_cut_menu(ds, cfg)
            best = min(
                evaluate_assignment(ds, a, cfg)
                for a in all_assignments(menu, ds.m)
            )
            if best == np.inf:
                with pytest.raises(InfeasibleError):
                    solve_exact(ds, menu, cfg)
                continue
            result = solve_exact(ds, menu, cfg)
            assert result.proved
            assert np.isclose(result.objective, best)
            got = evaluate_assignment(ds, result.assignment, cfg)
            assert np.isclose(got, result.objective)

    def test_result_tree_matches_assignment(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, 60, 2, 2, all_arms=True)
        cfg = OptConfig(delta=2, n_min_leaf=2, n_cuts=3)
        menu = build_cut_menu(ds, cfg)
        result = solve_exact(ds, menu, cfg)
        leaf = solver._leaves(ds, result.assignment, ds.Y)[0]
        want = [result.assignment.treatments[j] for j in leaf]
        assert result.tree.predict_many(ds.X).tolist() == want

    def test_tree_leaves_use_raw_outcomes(self):
        ds = Dataset(
            X=np.array([[0.0], [0.0], [1.0], [1.0]]),
            T=np.array([1, 2, 1, 2]),
            Y=np.array([3.0, 3.0, 13.0, 3.0]),
            m=2,
        )
        cfg = OptConfig(delta=1, n_min_leaf=1)
        result = solve_exact(ds, build_cut_menu(ds, cfg), cfg)
        tree = result.tree
        assert tree.means[tree.left[0]].tolist() == [3.0, 3.0]
        assert tree.means[tree.right[0]].tolist() == [13.0, 3.0]
        assert tree.counts[tree.left[0]].tolist() == [1, 1]

    def test_shift_invariant_assignment(self):
        rng = np.random.default_rng(13)
        ds = random_dataset(rng, 40, 2, 2, all_arms=True)
        shifted = Dataset(X=ds.X, T=ds.T, Y=ds.Y - 50.0, m=ds.m)
        cfg = OptConfig(delta=1, n_min_leaf=2, n_cuts=5)
        menu = build_cut_menu(ds, cfg)
        a = solve_exact(ds, menu, cfg)
        b = solve_exact(shifted, menu, cfg)
        assert a.assignment == b.assignment
        assert np.isclose(a.objective, b.objective)

    def test_infeasible_raises(self):
        ds = toy_1d()
        cfg = OptConfig(delta=1, n_min_leaf=10)
        with pytest.raises(InfeasibleError):
            solve_exact(ds, build_cut_menu(ds, cfg), cfg)

    def test_timeout_without_incumbent(self):
        ds = toy_1d()
        cfg = OptConfig(delta=1, n_min_leaf=1, work_limit=0)
        with pytest.raises(SolveTimeout, match="work limit"):
            solve_exact(ds, build_cut_menu(ds, cfg), cfg)

    def test_timeout_returns_warm_incumbent(self):
        ds = toy_1d()
        cfg = OptConfig(delta=1, n_min_leaf=1, work_limit=0)
        menu = build_cut_menu(ds, cfg)
        warm = TreeAssignment(cuts=((0, 0.5),), treatments=(1, 1))
        result = solve_exact(ds, menu, cfg, warm=warm)
        assert not result.proved
        assert result.assignment == warm
        assert result.objective == 20.0

    def test_warm_start_never_hurts(self):
        rng = np.random.default_rng(17)
        for trial in range(5):
            ds = random_dataset(rng, 80, 3, 2, all_arms=True)
            cfg = OptConfig(
                delta=2, n_min_leaf=2, n_cuts=2, seed=int(rng.integers(1000))
            )
            menu = build_cut_menu(ds, cfg)
            warm = warm_start_from_pt(ds, cfg, menu)
            try:
                cold = solve_exact(ds, menu, cfg)
            except InfeasibleError:
                assert warm is None or not np.isfinite(
                    evaluate_assignment(ds, warm, cfg)
                )
                continue
            if warm is not None:
                warm_val = evaluate_assignment(ds, warm, cfg)
                assert cold.objective <= warm_val + 1e-9
                hot = solve_exact(ds, menu, cfg, warm=warm)
                assert np.isclose(hot.objective, cold.objective)

    def test_warm_start_kept_when_better_than_every_menu_tree(self):
        # the warm cut 3.5 is off the menu; both menu cuts score 40, but
        # cut 1.5's left leaf alone ties the warm value, so the root scan
        # must not return it just for passing the warm bound
        ds = Dataset(
            X=np.repeat([1.0, 2.0, 4.0, 6.0], 2)[:, None],
            T=np.tile([1, 2], 4),
            Y=np.array([0.0, 0.0, 0.0, 20.0, 20.0, 0.0, 20.0, 0.0]),
            m=2,
        )
        cfg = OptConfig(delta=1, n_min_leaf=1)
        menu = CutMenu(cuts=(((0, 1.5), (0, 5.5)),))
        warm = TreeAssignment(cuts=((0, 3.5),), treatments=(1, 2))
        assert evaluate_assignment(ds, warm, cfg) == 0.0
        assert solve_exact(ds, menu, cfg).objective == 40.0
        result = solve_exact(ds, menu, cfg, warm=warm)
        assert result.assignment == warm
        assert result.objective == 0.0
        assert result.proved

    def test_warm_start_equal_to_the_optimum_moves_nothing(self):
        # evaluate_assignment sums leaves in another order, and on seed 6
        # scores the optimum one ulp below the search's own sum
        cfg = OptConfig(delta=2, n_min_leaf=2, n_cuts=3)
        for seed in range(8):
            ds = random_dataset(np.random.default_rng(seed), 60, 2, 2, all_arms=True)
            menu = build_cut_menu(ds, cfg)
            cold = solve_exact(ds, menu, cfg)
            hot = solve_exact(ds, menu, cfg, warm=cold.assignment)
            assert hot.assignment == cold.assignment
            assert hot.objective.hex() == cold.objective.hex()

    def test_menu_must_fit_the_skeleton(self):
        rng = np.random.default_rng(31)
        ds = random_dataset(rng, 40, 2, 2, all_arms=True)
        cfg = OptConfig(delta=2, n_min_leaf=1, n_cuts=3)
        menu2, menu3 = (build_cut_menu(ds, dataclasses.replace(cfg, delta=d)) for d in (2, 3))
        for call in (solve_exact, build_mip):
            with pytest.raises(ConfigError, match="menu"):
                call(ds, menu3, cfg)
        with pytest.raises(ConfigError, match="menu"):
            warm_start_from_pt(ds, cfg, menu3)
        short = TreeAssignment(cuts=menu2.cuts[0][:1], treatments=(1, 1))
        with pytest.raises(ConfigError, match="assignment"):
            evaluate_assignment(ds, short, cfg)
        with pytest.raises(ConfigError, match="assignment"):
            solve_exact(ds, menu2, cfg, warm=short)
        with pytest.raises(ConfigError, match="menu has 3 nodes, a depth-1 tree has 1"):
            solution_from_assignment(ds, menu2, short)

    def test_config_depth_must_be_the_menus(self):
        # a menu built for delta=1, passed with OptConfig(delta=2)
        ds = random_dataset(np.random.default_rng(31), 40, 2, 2, all_arms=True)
        cfg = OptConfig(delta=2, n_min_leaf=1, n_cuts=3)
        menu = build_cut_menu(ds, dataclasses.replace(cfg, delta=1))
        named = "menu has 1 nodes, a depth-2 tree has 3"
        for call in (solve_exact, build_mip):
            with pytest.raises(ConfigError, match=named):
                call(ds, menu, cfg)
        with pytest.raises(ConfigError, match=named):
            warm_start_from_pt(ds, cfg, menu)


def solve_outcome(solve, *args):
    try:
        return solve(*args)
    except (InfeasibleError, SolveTimeout) as exc:
        return type(exc)


def solve_exact_outcome(ds, menu, config):
    r = solve_exact(ds, menu, config)
    return r.assignment.cuts, r.assignment.treatments, r.objective.hex(), r.proved


class TestBottomPassEquivalence:
    @pytest.mark.parametrize("delta", [1, 2, 3])
    @pytest.mark.parametrize("grid", [False, True])
    def test_matches_per_leaf_recursion(self, delta, grid, monkeypatch):
        # grid covariates with binary outcomes make tied cuts common;
        # n_min_leaf 4 leaves some arm empty under many cuts, and 40
        # makes every instance infeasible
        rng = np.random.default_rng(40 + 2 * delta + grid)
        outcomes = set()
        for trial, (n_min_leaf, work_limit) in enumerate(
            [(1, None), (2, None), (4, None), (40, None), (1, 0)]
        ):
            spec = SyntheticSpec(
                n=90,
                d=3,
                m=3 if grid else 2,
                outcome_model=(
                    {"name": "warfarin_like", "flip": 0.2}
                    if grid
                    else {"name": "quadratic", "centers": [-1.0, 1.0], "noise": 1.0}
                ),
                propensity_model={"name": "uniform"},
                covariate_model=(
                    {"name": "discrete_grid", "values": [-1.0, 0.0, 1.0, 2.0]}
                    if grid
                    else {"name": "normal"}
                ),
                seed=int(rng.integers(1000)),
            )
            ds = generate_synthetic(spec)
            cfg = OptConfig(
                delta=delta,
                n_min_leaf=n_min_leaf,
                n_features=2,
                n_cuts=spec.n if grid else 4,  # a grid has 3 cuts per feature
                work_limit=work_limit,
                seed=trial,
            )
            # the menu reads no n_min_leaf, and build_cut_menu refuses
            # rows that cannot fill the leaves, as solve_exact then does
            menu = build_cut_menu(ds, dataclasses.replace(cfg, n_min_leaf=1))
            want = solve_outcome(reference_solve, ds, menu, cfg)
            assert solve_outcome(solve_exact_outcome, ds, menu, cfg) == want
            with monkeypatch.context() as patch:
                # passes chunked down to one cut at a bottom root and to a
                # few rows at a screened node, and a memo that keeps nothing
                patch.setattr(solver, "_PASS_BUDGET", ds.n)
                patch.setattr(solver, "MEMO_BYTES", 0)
                assert solve_outcome(solve_exact_outcome, ds, menu, cfg) == want
            outcomes.add(want if isinstance(want, type) else "solved")
        assert outcomes == {"solved", InfeasibleError, SolveTimeout}

    @pytest.mark.parametrize(
        "delta,n,d,n_features,n_cuts,duplicate",
        [
            (2, 150, 2, None, 16, False),  # many cuts per feature
            (3, 100, 2, 1, 12, False),
            (2, 120, 3, None, 6, True),  # exact ties across features
            (3, 100, 3, 2, 3, True),
            (4, 90, 2, 1, 2, False),  # screened nodes at depth two
        ],
    )
    def test_screened_scans_match_per_leaf_recursion(
        self, delta, n, d, n_features, n_cuts, duplicate
    ):
        # normal outcomes, so sums in block order and in row order round
        # differently; copies of one column tie cuts on different features
        for seed in range(4):
            ds = random_dataset(np.random.default_rng(seed), n, d, 2, all_arms=True)
            if duplicate:
                ds = Dataset(X=np.repeat(ds.X[:, :1], d, axis=1), T=ds.T, Y=ds.Y, m=ds.m)
            cfg = OptConfig(
                delta=delta, n_min_leaf=2, n_features=n_features, n_cuts=n_cuts, seed=seed
            )
            menu = build_cut_menu(ds, cfg)
            want = solve_outcome(reference_solve, ds, menu, cfg)
            assert solve_outcome(solve_exact_outcome, ds, menu, cfg) == want

    @pytest.mark.parametrize("budget", [64, 1000])
    def test_split_screen_passes(self, budget, monkeypatch):
        # a screen pass keys rows x feature groups of the screened node x
        # feature groups of one child (a bottom pass, rows x cuts); at
        # budget 1000, n_cuts 16 splits both group axes and n_cuts 6 the
        # rows and the screened node's groups
        passes = []
        tally = solver._tally

        def spy(chunks, size):
            chunks = list(chunks)
            if chunks and chunks[0][0].ndim == 3:
                passes.append((len(chunks), *chunks[0][0].shape[1:]))
            return tally(chunks, size)

        d = 4
        for delta, n_cuts, duplicate in [(2, 16, False), (3, 6, False), (3, 6, True), (4, 3, False)]:
            ds = random_dataset(np.random.default_rng(delta), 200, d, 2, all_arms=True)
            if duplicate:
                ds = Dataset(X=np.repeat(ds.X[:, :1], d, axis=1), T=ds.T, Y=ds.Y, m=ds.m)
            cfg = OptConfig(delta=delta, n_min_leaf=2, n_cuts=n_cuts, seed=delta)
            menu = build_cut_menu(ds, cfg)
            want = solve_outcome(reference_solve, ds, menu, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_PASS_BUDGET", budget)
                patch.setattr(solver, "_tally", spy)
                assert solve_outcome(solve_exact_outcome, ds, menu, cfg) == want
        chunks, outer, inner = zip(*passes)
        assert max(chunks) > 1  # rows split
        assert min(outer) < d  # the screened node's feature groups split
        assert min(inner) < d  # the child's feature groups split

    def test_pinned_block_order_rounding(self):
        # seed 181 of a search over seeds 0-299 of this generator: root cuts
        # (2, 2.5) and (1, 1.5) tie exactly in the row-order arithmetic, and
        # sums over the root's blocks round differently from row order
        rng = np.random.default_rng(181)
        ds = Dataset(
            X=rng.integers(0, 4, size=(40, 3)).astype(float),
            T=rng.integers(1, 3, size=40),
            Y=rng.choice([0.1, 0.2, 0.3], size=40),
            m=2,
        )
        cfg = OptConfig(delta=2, n_min_leaf=1, n_cuts=40)
        menu = build_cut_menu(ds, cfg)
        want = reference_solve(ds, menu, cfg)
        assert want[0][0] == (2, 2.5)
        assert solve_exact_outcome(ds, menu, cfg) == want
        ybar = ds.Y - ds.Y.min()
        differ = 0
        for f in range(ds.d):
            thresholds = np.array(sorted(theta for g, theta in menu.for_node(1) if g == f))
            block = np.searchsorted(thresholds, ds.X[:, f])
            for arm in range(ds.m):
                rows = ds.T - 1 == arm
                by_block = np.cumsum(np.bincount(block[rows], ybar[rows], thresholds.size + 1))
                for j in range(thresholds.size):
                    right = (block[rows] > j).astype(np.intp)
                    differ += by_block[j] != np.bincount(right, ybar[rows], 2)[0]
        assert differ > 0

    def test_the_margin_needs_its_row_count_term(self):
        # Columns 0 and 1 hold the same values within every (arm, outcome)
        # class in another row order, so cuts on them tie in real
        # arithmetic, and a rare outcome 1 among many of 0.75 ulp(1) makes
        # each sum's rounding hang on where the 1 falls. Seed 46 of a search
        # over seeds 0-149: the screen's block-order totals put the cut the
        # row-order scan picks more than 8 eps above another, so a margin of
        # 4 eps without the (k + 4) row count settles a wrong cut.
        rng = np.random.default_rng(46)
        n, tiny = 1200, 0.75 * 2**-52
        T = rng.integers(1, 3, size=n)
        Y = rng.choice([0.0, tiny, 1.0], size=n, p=[0.3, 0.69, 0.01])
        x0 = rng.integers(0, 4, size=n).astype(float)
        x1 = x0.copy()
        for t in (1, 2):
            for y in (0.0, tiny, 1.0):
                rows = np.flatnonzero((T == t) & (Y == y))
                x1[rows] = rng.permutation(x0[rows])
        ds = Dataset(X=np.column_stack([x0, x1]), T=T, Y=Y, m=2)
        cfg = OptConfig(delta=2, n_min_leaf=1, n_cuts=n)
        menu = build_cut_menu(ds, cfg)
        want = reference_solve(ds, menu, cfg)
        assert want[0] == ((1, 0.5), (0, 0.5), (1, 2.5))
        assert solve_exact_outcome(ds, menu, cfg) == want
        # the screen's order: (root block, child block) bins in row order,
        # then running sums over the root's blocks and over the child's
        tvec, ybar = ds.T - 1, ds.Y - ds.Y.min()
        differ = 0
        for f, g in itertools.product(range(2), repeat=2):
            root = np.array(sorted(theta for h, theta in menu.for_node(1) if h == f))
            child = np.array(sorted(theta for h, theta in menu.for_node(2) if h == g))
            outer, inner = np.searchsorted(root, ds.X[:, f]), np.searchsorted(child, ds.X[:, g])
            bins = np.bincount((tvec * (root.size + 1) + outer) * (child.size + 1) + inner, ybar,
                               ds.m * (root.size + 1) * (child.size + 1))
            by_block = bins.reshape(ds.m, root.size + 1, child.size + 1).cumsum(axis=1).cumsum(axis=2)
            for arm, j, k in itertools.product(range(ds.m), range(root.size), range(child.size)):
                rows = (tvec == arm) & (outer <= j) & (inner <= k)
                # a one-bin bincount adds in row order, as a bottom pass does
                differ += by_block[arm, j, k] != np.bincount(np.zeros(rows.sum(), np.intp), ybar[rows], 1)[0]
        assert differ > 0

    def test_stats_record(self, caplog):
        ds = random_dataset(np.random.default_rng(5), 120, 2, 2, all_arms=True)
        cfg = OptConfig(delta=2, n_min_leaf=2, n_cuts=5)
        menu = build_cut_menu(ds, cfg)
        with caplog.at_level(logging.DEBUG, logger="perstrees"):
            solve_exact(ds, menu, cfg)
        (record,) = [r.getMessage() for r in caplog.records if r.name == "perstrees.opt.solver"]
        got = re.fullmatch(
            r"solve_exact: 1 scans screened (\d+) cuts, (\d+) settled exactly; (\d+) bottom "
            r"passes; memo (\d+) hits, (\d+) misses, 0 evictions; optimality proved",
            record,
        )
        screened, settled, passes, hits, misses = map(int, got.groups())
        assert screened == len(menu.for_node(1))
        assert 1 <= settled < screened
        assert passes == misses  # at depth two only bottom nodes reach the memo


@st.composite
def margin_instances(draw):
    """A dataset of at most 40 rows and an OptConfig of depth 2 or 3, aimed
    at the screen's margin: grid, duplicate and one-ulp-apart columns, and
    copies shuffled within each (arm, outcome) class, whose cuts tie in
    real arithmetic but may round apart; outcomes tied, one ulp apart,
    decimal, rare or on a large common offset; and an n_min_leaf at the edge
    where the smallest arm can just fill the leaves (or cannot)."""
    delta, m = draw(st.sampled_from([2, 3])), draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2**delta * m, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(kind):
        if kind == "grid":
            return rng.integers(-1, 3, size=n).astype(float)
        if kind == "ulp":  # a few neighbours of one value
            base = rng.normal()
            return base + rng.integers(0, 3, size=n) * np.spacing(base)
        if kind == "binary":
            return rng.integers(0, 2, size=n).astype(float)
        if kind == "decimal":
            return rng.choice([0.1, 0.2, 0.3], size=n)
        if kind == "rare":  # sums whose rounding hangs on where the rare 1s fall
            return rng.choice([0.0, 0.75 * 2**-52, 1.0], size=n, p=[0.3, 0.6, 0.1])
        return rng.normal(size=n)

    T = rng.integers(1, m + 1, size=n)
    T[rng.permutation(n)[:m]] = np.arange(1, m + 1)
    Y = values(draw(st.sampled_from(["normal", "binary", "ulp", "decimal", "rare"])))
    columns = []
    for j in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["normal", "grid", "ulp"] + ["duplicate", "shuffled"] * (j > 0)))
        if kind in ("duplicate", "shuffled"):
            column = columns[draw(st.integers(0, j - 1))].copy()
            for t, y in set(zip(T.tolist(), Y.tolist())) if kind == "shuffled" else ():
                rows = np.flatnonzero((T == t) & (Y == y))
                column[rows] = rng.permutation(column[rows])
        else:
            column = values(kind)
        columns.append(column)
    edge = max(1, int(np.bincount(T).min()) // 2**delta)
    config = OptConfig(
        delta=delta,
        n_min_leaf=draw(st.sampled_from([edge, edge + 1, max(1, edge - 1)])),
        n_features=draw(st.sampled_from([None, 1])),
        n_cuts=draw(st.sampled_from([3, 6, n])),
        seed=draw(st.integers(0, 3)),
    )
    Y = Y + draw(st.sampled_from([0.0, 1e6, 1e12]))
    return Dataset(X=np.column_stack(columns), T=T, Y=Y, m=m), config


@settings(derandomize=True, max_examples=150, deadline=None)
@given(instance=margin_instances())
def test_solve_exact_is_the_per_leaf_recursion_bit_for_bit(instance):
    # objective .hex(), cuts and treatments, or the same refusal; the menu
    # reads no n_min_leaf, and build_cut_menu refuses unfillable leaves
    ds, cfg = instance
    try:
        menu = build_cut_menu(ds, dataclasses.replace(cfg, n_min_leaf=1))
    except EmptyMenuError:  # a grid too coarse for the cut positions
        reject()
    want = solve_outcome(reference_solve, ds, menu, cfg)
    assert solve_outcome(solve_exact_outcome, ds, menu, cfg) == want


@st.composite
def margin_zero_instances(draw):
    """16 to 40 rows at depth 2, two arms and a cut at every position: a
    grid column and a copy of it shuffled within each (arm, outcome)
    class, so the two columns' cuts tie in real arithmetic, with decimal
    or rare-1 outcomes. The screen's block sums and a bottom pass's row
    order then round apart, and a screen without its margin settles a
    wrong cut on about 1 in 110 such instances."""
    n = draw(st.integers(16, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T = rng.integers(1, 3, size=n)
    T[rng.permutation(n)[:2]] = (1, 2)
    if draw(st.booleans()):
        Y = rng.choice([0.1, 0.2, 0.3], size=n)
    else:
        Y = rng.choice([0.0, 0.75 * 2**-52, 1.0], size=n, p=[0.3, 0.6, 0.1])
    x0 = rng.integers(draw(st.sampled_from([-1, 0])), 4, size=n).astype(float)
    x1 = x0.copy()
    for t, y in set(zip(T.tolist(), Y.tolist())):
        rows = np.flatnonzero((T == t) & (Y == y))
        x1[rows] = rng.permutation(x0[rows])
    return Dataset(X=np.column_stack([x0, x1]), T=T, Y=Y, m=2), OptConfig(2, n_min_leaf=1, n_cuts=n)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(instance=margin_zero_instances())
def test_solve_exact_is_the_per_leaf_recursion_on_tied_grid_columns(instance):
    ds, cfg = instance
    menu = build_cut_menu(ds, cfg)
    want = solve_outcome(reference_solve, ds, menu, cfg)
    assert solve_outcome(solve_exact_outcome, ds, menu, cfg) == want


def test_a_capped_memo_evicts_and_finds_the_same_tree(monkeypatch, caplog):
    # every memo key holds ceil(n/8) bytes, so this MEMO_BYTES keeps three entries
    ds = random_dataset(np.random.default_rng(4), 150, 2, 2, all_arms=True)
    cfg = OptConfig(delta=4, n_min_leaf=1, n_cuts=4)
    menu = build_cut_menu(ds, cfg)
    want = solve_exact(ds, menu, cfg)
    monkeypatch.setattr(solver, "MEMO_BYTES", 3 * -(-ds.n // 8))
    with caplog.at_level(logging.DEBUG, logger="perstrees"):
        got = solve_exact(ds, menu, cfg)
    assert (got.assignment, got.objective, got.proved) == (want.assignment, want.objective, True)
    for name in ("feature", "threshold", "left", "right", "treatment", "counts", "means"):
        np.testing.assert_array_equal(getattr(got.tree, name), getattr(want.tree, name))
    (record,) = [r.getMessage() for r in caplog.records if r.name == "perstrees.opt.solver"]
    assert int(re.search(r"(\d+) evictions", record).group(1)) > 0


def spy_on_passes(monkeypatch, caplog):
    """Wrap solver._tally so that each pass records whether solve_exact
    had already logged its DEBUG record; returns that list."""
    tally, late = solver._tally, []

    def spy(chunks, size):
        late.append(any(r.name == "perstrees.opt.solver" for r in caplog.records))
        return tally(chunks, size)

    monkeypatch.setattr(solver, "_tally", spy)
    return late


class TestSearchEnd:
    """A memo that keeps nothing makes any second walk of the chosen tree
    solve its nodes again, so passes after the DEBUG record would show it."""

    @pytest.mark.parametrize("delta,n_cuts", [(2, 6), (3, 4), (4, 4)])
    def test_no_pass_runs_after_the_search(self, delta, n_cuts, monkeypatch, caplog):
        ds = random_dataset(np.random.default_rng(delta), 150, 2, 2, all_arms=True)
        cfg = OptConfig(delta=delta, n_min_leaf=1, n_cuts=n_cuts)
        menu = build_cut_menu(ds, cfg)
        monkeypatch.setattr(solver, "MEMO_BYTES", 0)
        late = spy_on_passes(monkeypatch, caplog)
        with caplog.at_level(logging.DEBUG, logger="perstrees"):
            result = solve_exact(ds, menu, cfg)
        assert result.proved
        assert late and not any(late)

    @pytest.mark.parametrize("delta", [3, 4])
    def test_a_work_limit_of_k_runs_k_passes_and_no_more(self, delta, caplog):
        # a limited run is a prefix of the unlimited one, so its incumbent
        # only improves with k, and at k >= P it is the unlimited answer
        ds = random_dataset(np.random.default_rng(4), 150, 2, 2, all_arms=True)
        cfg = OptConfig(delta=delta, n_min_leaf=1, n_cuts=4)
        menu = build_cut_menu(ds, cfg)
        warm = warm_start_from_pt(ds, cfg, menu)

        def solve(limit):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="perstrees"):
                result = solve_exact(ds, menu, dataclasses.replace(cfg, work_limit=limit), warm)
            (record,) = [r.getMessage() for r in caplog.records if r.name == "perstrees.opt.solver"]
            return result, int(re.search(r"(\d+) bottom passes", record).group(1)), record

        want, passes, record = solve(None)
        assert want.proved and record.endswith("optimality proved")
        objectives = []
        for k in range(passes + 2):
            got, ran, record = solve(k)
            assert ran == min(k, passes)
            if k < passes:
                assert not got.proved and record.endswith("work limit reached")
                assert got.objective == evaluate_assignment(ds, got.assignment, cfg)
            else:
                assert (got.assignment, got.objective.hex(), got.proved) == (
                    want.assignment, want.objective.hex(), True)
            objectives.append(got.objective)
        assert objectives == sorted(objectives, reverse=True)
        assert objectives[0] > objectives[-1]  # the limit changed the answer


class TestWarmStart:
    def test_snaps_to_nearest_menu_threshold(self):
        rng = np.random.default_rng(23)
        ds = random_dataset(rng, 100, 1, 2, all_arms=True)
        cfg = OptConfig(delta=1, n_min_leaf=5, n_cuts=4, seed=3)
        menu = build_cut_menu(ds, cfg)
        pt = fit_pt(ds, PtConfig(n_min_leaf=5, delta_max=1, seed=3))
        assert pt.left[0] >= 0
        warm = warm_start_from_pt(ds, cfg, menu)
        assert warm is not None
        nearest = min(menu.for_node(1), key=lambda c: abs(c[1] - pt.threshold[0]))
        assert warm.cuts[0] == nearest
        assert warm.treatments == (pt.treatment[pt.left[0]], pt.treatment[pt.right[0]])

    def test_pads_shallow_tree_with_menu_cuts(self):
        # the greedy fit draws feature 0 (constant, unsplittable) under
        # seed 1, so the warm start must pad the root from the menu and
        # spread the root prescription over both leaves
        ds = Dataset(
            X=np.array([[0.0, -1.0], [0.0, -1.0], [0.0, 1.0], [0.0, 1.0]]),
            T=np.array([1, 2, 1, 2]),
            Y=np.array([5.0, 1.0, 2.0, 3.0]),
            m=2,
        )
        cfg = OptConfig(delta=1, n_min_leaf=1, n_features=1, seed=1)
        pt = fit_pt(ds, PtConfig(n_min_leaf=1, delta_max=1, n_features=1, seed=1))
        assert pt.left[0] < 0 and pt.treatment[0] == 2
        menu = CutMenu(cuts=(((1, 0.0),),))
        warm = warm_start_from_pt(ds, cfg, menu)
        assert warm == TreeAssignment(cuts=((1, 0.0),), treatments=(2, 2))

    def test_returns_none_when_nothing_feasible(self):
        ds = toy_1d()
        cfg = OptConfig(delta=1, n_min_leaf=10)
        assert warm_start_from_pt(ds, cfg) is None

    def test_builds_own_menu(self):
        rng = np.random.default_rng(29)
        ds = random_dataset(rng, 80, 2, 2, all_arms=True)
        cfg = OptConfig(delta=2, n_min_leaf=2, n_cuts=3, seed=5)
        warm = warm_start_from_pt(ds, cfg)
        if warm is not None:
            menu = build_cut_menu(ds, cfg)
            assert len(warm.cuts) == 3 and len(warm.treatments) == 4
            for cuts, cut in zip(menu.cuts, warm.cuts):
                assert cut in cuts
            assert np.isfinite(evaluate_assignment(ds, warm, cfg))


def warfarin_like(n, seed):
    return generate_synthetic(SyntheticSpec(n=n, seed=seed, **PRESETS["warfarin-like"]))


def test_rows_too_few_for_the_leaves_below_end_a_subtree_before_the_memo(caplog):
    # every leaf below a node needs n_min_leaf of each arm; this instance has
    # no feasible tree, and the check cut its scans from 1,962 to 1,234 and
    # its bottom passes from 1,603 to 1,460
    ds = warfarin_like(400, 3)
    cfg = OptConfig(delta=4, n_min_leaf=5, n_cuts=3)
    menu = build_cut_menu(ds, cfg)
    assert warm_start_from_pt(ds, cfg, menu) is None
    with caplog.at_level(logging.DEBUG, logger="perstrees"), pytest.raises(InfeasibleError):
        solve_exact(ds, menu, cfg)
    (record,) = [r.getMessage() for r in caplog.records if r.name == "perstrees.opt.solver"]
    assert record.startswith("solve_exact: 1234 scans ")
    assert "; 1460 bottom passes;" in record


class TestWarmStartPruning:
    """A subtree whose rows hold fewer than n_min_leaf of some arm per
    leaf below it is given up at once; the depth-first order is the same,
    so every warm start is too."""

    # (n, delta, n_min_leaf, n_features, n_cuts, seed): the first 16 hex
    # digits of the sha256 of the warm start's repr, recorded before the
    # pruning, or None where there was no warm start. The seed draws both
    # the warfarin-like data and the padding orders.
    PINNED = [
        (275, 1, 5, 3, 4, 0, "628bcb7ee31a6f63"),
        (88, 2, 9, 5, 7, 1, None),
        (292, 3, 7, 2, 3, 2, None),
        (271, 3, 6, 1, 2, 3, None),
        (310, 1, 18, 8, 4, 4, "654257b0ff2b4f6a"),
        (365, 3, 1, 10, 7, 5, "f5e52701e3633136"),
        (358, 3, 4, 6, 6, 6, "fc75c6c668ef702b"),
        (122, 1, 20, 8, 7, 7, None),
        (354, 4, 4, 9, 2, 8, "accd7dc1ca13cb5e"),
        (94, 1, 33, 8, 3, 9, None),
        (349, 2, 14, 9, 2, 10, "da9e845af51277ce"),
        (280, 4, 6, 3, 3, 11, None),
        (332, 3, 2, 3, 3, 12, "6a7ceb0ba5b40cc4"),
        (306, 2, 3, 10, 3, 13, "268eec2cd7839bda"),
        (375, 1, 7, 1, 4, 14, "422eaf5c0a100a83"),
        (278, 2, 12, 2, 2, 15, "c1b9e8f5c287231d"),
        (247, 1, 13, 9, 3, 16, "60b8af4233129d19"),
        (135, 3, 8, 4, 3, 17, None),
        (124, 3, 2, 6, 7, 18, "9dd362721756afde"),
        (296, 4, 3, 7, 3, 19, None),
    ]

    @pytest.mark.parametrize("n, delta, n_min_leaf, n_features, n_cuts, seed, want", PINNED)
    def test_equals_the_recorded_warm_start(self, n, delta, n_min_leaf, n_features, n_cuts,
                                            seed, want):
        cfg = OptConfig(delta=delta, n_min_leaf=n_min_leaf, n_features=n_features,
                        n_cuts=n_cuts, seed=seed)
        warm = warm_start_from_pt(warfarin_like(n, seed), cfg)
        got = None if warm is None else hashlib.sha256(repr(warm).encode()).hexdigest()[:16]
        assert got == want

    @pytest.mark.parametrize("n, delta, n_min_leaf, n_cuts, draws", [
        # the leaf-only check drew 11,247, 76,439 and 30,150 padding orders
        (400, 3, 20, 10, 0), (400, 4, 5, 3, 1139), (600, 4, 12, 3, 0),
    ])
    def test_padding_orders_drawn_on_infeasible_cases(self, monkeypatch, n, delta, n_min_leaf,
                                                      n_cuts, draws):
        calls = []
        make_rng = solver.make_rng
        monkeypatch.setattr(solver, "make_rng", lambda seed: calls.append(seed) or make_rng(seed))
        cfg = OptConfig(delta=delta, n_min_leaf=n_min_leaf, n_cuts=n_cuts)
        assert warm_start_from_pt(warfarin_like(n, 3), cfg) is None
        assert len(calls) == draws


def slack_instance(seed, n=60, delta=1):
    """An instance whose largest arm clears the occupancy minimums by a
    wide margin, keeping the mean-consistency big-M safely positive."""
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, n, 2, 2, all_arms=True)
    cfg = OptConfig(delta=delta, n_min_leaf=3, n_cuts=3, seed=seed)
    return ds, build_cut_menu(ds, cfg), cfg


class TestMip:
    def test_binary_count(self):
        # 3 internal nodes with 5-cut menus need 3 code bits each; 4
        # leaves with 3 treatments need 12 choice bits: 21 binaries
        ds = Dataset(
            X=np.arange(25.0)[:, None],
            T=np.array(([1, 2, 3] * 9)[:25]),
            Y=np.zeros(25),
            m=3,
        )
        cfg = OptConfig(delta=2, n_min_leaf=1, n_cuts=4)
        menu = build_cut_menu(ds, cfg)
        assert [len(cuts) for cuts in menu.cuts] == [5, 5, 5]
        model = build_mip(ds, menu, cfg)
        assert model.n_binary == 21

    def test_small_sample_precheck(self):
        ds = toy_1d()
        cfg = OptConfig(delta=1, n_min_leaf=2)  # needs 2*2*2 = 8 > 4 subjects
        with pytest.raises(InfeasibleError):
            build_mip(ds, CutMenu(cuts=(((0, 0.5),),)), cfg)

    def test_variable_inventory(self):
        ds, menu, cfg = slack_instance(1)
        model = build_mip(ds, menu, cfg)
        roles = {}
        for name in model.variables:
            role = name.split("(")[0]
            roles[role] = roles.get(role, 0) + 1
        n_cuts = sum(len(cuts) for cuts in menu.cuts)
        assert roles["gamma"] == n_cuts
        assert roles["w"] == ds.n * 2
        assert roles["nu"] == ds.n * 2
        assert roles["lambda"] == 2 * ds.m
        assert roles["mu"] == 2
        gamma = model.variables.index("gamma(1,1)")
        assert not model.binary[gamma]
        assert (model.lower[gamma], model.upper[gamma]) == (0.0, 1.0)
        assert model.binary[model.variables.index("lambda(2,1)")]

    def test_every_feasible_assignment_satisfies_the_model(self):
        ds, menu, cfg = slack_instance(2)
        model = build_mip(ds, menu, cfg)
        checked = 0
        for a in all_assignments(menu, ds.m):
            value = evaluate_assignment(ds, a, cfg)
            sol = solution_from_assignment(ds, menu, a)
            problems = check_solution(model, sol)
            if np.isfinite(value):
                assert problems == []
                assert abs(objective_value(model, sol) - value) < 1e-9
                checked += 1
            else:
                assert any(p["name"].startswith("leafmin") for p in problems)
        assert checked >= 2

    def test_solver_optimum_satisfies_the_model(self):
        for seed in (3, 4, 5):
            ds, menu, cfg = slack_instance(seed)
            model = build_mip(ds, menu, cfg)
            result = solve_exact(ds, menu, cfg)
            sol = solution_from_assignment(ds, menu, result.assignment)
            assert check_solution(model, sol) == []
            assert abs(objective_value(model, sol) - result.objective) < 1e-9

    def test_depth_two_agreement(self):
        ds, menu, cfg = slack_instance(6, n=120, delta=2)
        model = build_mip(ds, menu, cfg)
        result = solve_exact(ds, menu, cfg)
        sol = solution_from_assignment(ds, menu, result.assignment)
        assert check_solution(model, sol) == []
        assert abs(objective_value(model, sol) - result.objective) < 1e-9

    def test_corruption_is_detected(self):
        ds, menu, cfg = slack_instance(7)
        model = build_mip(ds, menu, cfg)
        result = solve_exact(ds, menu, cfg)
        clean = solution_from_assignment(ds, menu, result.assignment)

        moved = dict(clean)
        # move one subject to the other leaf without rerouting
        flip = "w(1,2)" if clean["w(1,2)"] == 1.0 else "w(1,3)"
        other = "w(1,3)" if flip == "w(1,2)" else "w(1,2)"
        moved[flip], moved[other] = 0.0, 1.0
        assert any(
            p["name"].startswith(("routeub", "routelb"))
            for p in check_solution(model, moved)
        )

        fractional = dict(clean)
        fractional["delta(1,1)"] = 0.5
        kinds = {p["kind"] for p in check_solution(model, fractional)}
        assert "integrality" in kinds

        alien = dict(clean)
        alien["zeta(1)"] = 1.0
        assert any(p["kind"] == "unknown" for p in check_solution(model, alien))

        dropped = dict(clean)
        for j in range(1, len(menu.for_node(1)) + 1):
            dropped[f"gamma(1,{j})"] = 0.0
        assert any(
            p["name"] == "onecut(1)" for p in check_solution(model, dropped)
        )

    def test_constant_outcomes_degenerate_cleanly(self):
        ds = Dataset(
            X=np.arange(16.0)[:, None],
            T=np.array([1, 2] * 8),
            Y=np.full(16, 4.0),
            m=2,
        )
        cfg = OptConfig(delta=1, n_min_leaf=2, n_cuts=3)
        menu = build_cut_menu(ds, cfg)
        model = build_mip(ds, menu, cfg)
        a = TreeAssignment(cuts=(menu.for_node(1)[1],), treatments=(1, 2))
        sol = solution_from_assignment(ds, menu, a)
        assert check_solution(model, sol) == []
        assert objective_value(model, sol) == 0.0

    def test_non_finite_values_are_bound_problems(self):
        ds, menu, cfg = slack_instance(7)
        model = build_mip(ds, menu, cfg)
        result = solve_exact(ds, menu, cfg)
        clean = solution_from_assignment(ds, menu, result.assignment)
        means = {name for name in clean if name.startswith(("mu(", "nu("))}
        nan = {name: float("nan") if name in means else v for name, v in clean.items()}
        assert {p["name"] for p in check_solution(model, nan) if p["kind"] == "bound"} == means
        for name, value in (("delta(1,1)", np.nan), ("mu(2)", np.inf), ("w(1,2)", -np.inf)):
            problems = check_solution(model, {**clean, name: value})
            assert any(p["kind"] == "bound" and p["name"] == name for p in problems)

    def test_load_solution_json_rejects_non_finite_numbers(self, tmp_path):
        path = tmp_path / "sol.json"
        for text in ("NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400):
            path.write_text('{"mu(2)": %s}' % text)
            with pytest.raises(ParseError):
                load_solution_json(path)

    def test_load_solution_json(self, tmp_path):
        path = tmp_path / "sol.json"
        path.write_text('{"w(1,2)": 1, "mu(2)": 0.25}')
        assert load_solution_json(path) == {"w(1,2)": 1.0, "mu(2)": 0.25}
        path.write_text('{"w(1,2)": true}')
        with pytest.raises(ParseError):
            load_solution_json(path)
        path.write_text('[1, 2]')
        with pytest.raises(ParseError):
            load_solution_json(path)
        path.write_text('{"w(1,2)": "big"}')
        with pytest.raises(ParseError):
            load_solution_json(path)


class TestHighsOracle:
    """scipy's bundled HiGHS solves the model's arrays on its own. Its
    optimum must equal solve_exact's, so on these instances the MIP is
    neither looser nor tighter than the combinatorial search."""

    @staticmethod
    def instance(seed, n, delta, n_cuts):
        ds, _, cfg = slack_instance(seed, n=n, delta=delta)
        cfg = dataclasses.replace(cfg, n_cuts=n_cuts)
        return ds, build_cut_menu(ds, cfg), cfg

    @staticmethod
    def highs(model):
        return milp(
            model.c,
            constraints=LinearConstraint(to_scipy(model.A), model.row_lo, model.row_hi),
            bounds=Bounds(model.lower, model.upper),
            integrality=model.binary,
            options={"mip_rel_gap": 0},
        )

    @pytest.mark.parametrize(
        "seed,n,delta,n_cuts",
        [(1, 30, 1, 3), (2, 30, 1, 3), (3, 30, 1, 3), (2, 40, 2, 2), (6, 40, 2, 2), (7, 40, 2, 2)],
    )
    def test_optimum_matches_solve_exact(self, seed, n, delta, n_cuts):
        ds, menu, cfg = self.instance(seed, n, delta, n_cuts)
        found = self.highs(build_mip(ds, menu, cfg))
        objective = solve_exact(ds, menu, cfg).objective
        assert found.status == 0
        assert abs(found.fun - objective) <= 1e-9 * max(1.0, abs(objective))

    def test_infeasibility_matches_solve_exact(self):
        ds, menu, cfg = self.instance(8, 40, 2, 2)
        assert self.highs(build_mip(ds, menu, cfg)).status == 2
        with pytest.raises(InfeasibleError):
            solve_exact(ds, menu, cfg)
