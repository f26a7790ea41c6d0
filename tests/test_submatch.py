import itertools
import logging
import math

import numpy as np
import pytest

from perstrees import _nearest
from perstrees.data import Dataset
from perstrees.errors import DomainError, ParseError, SchemaError
from perstrees.risk import FunctionPolicy
from perstrees.seeding import make_rng
from perstrees.submatch import (
    MatchedTestSet,
    Metric,
    greedy_submatch,
    load_matched_csv,
    mahalanobis_metric,
    matched_metrics,
    matched_risk,
    optimal_submatch,
    p1_hat,
    p2_hat,
    save_matched_csv,
)

from helpers import random_dataset

IDENTITY_1D = Metric(inverse=np.eye(1))


def const_policy(t, m=2):
    return FunctionPolicy(fn=lambda x: t, m=m)


class TestMetric:
    def test_diagonal_inverse(self):
        # covariance diag(4, 1): two units along the wide axis count as one
        metric = Metric(inverse=np.diag([0.25, 1.0]))
        assert metric.distance([0.0, 0.0], [2.0, 0.0]) == 1.0
        assert metric.distance([0.0, 0.0], [0.0, 2.0]) == 2.0

    def test_distances_match_pairwise(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(4, 4))
        metric = Metric(inverse=A @ A.T + np.eye(4))
        x = rng.normal(size=4)
        X = rng.normal(size=(10, 4))
        many = metric.distances(x, X)
        assert np.allclose(many, [metric.distance(x, row) for row in X])

    def test_from_sample_covariance(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, 200, 3, 2)
        metric = mahalanobis_metric(ds)
        cov = np.cov(ds.X, rowvar=False)
        eps = 1e-8 * np.trace(cov) / 3
        assert np.allclose(metric.inverse, np.linalg.inv(cov + eps * np.eye(3)))

    def test_degenerate_covariance_still_invertible(self):
        ds = Dataset(
            X=np.zeros((4, 2)), T=np.array([1, 2, 1, 2]), Y=np.zeros(4), m=2
        )
        metric = mahalanobis_metric(ds)
        assert np.isfinite(metric.inverse).all()

    def test_needs_two_subjects(self):
        ds = Dataset(X=np.zeros((1, 1)), T=np.array([1]), Y=np.zeros(1), m=1)
        with pytest.raises(DomainError):
            mahalanobis_metric(ds)


class TestGreedy:
    def hand_ds(self):
        return Dataset(
            X=np.array([[0.0], [1.0], [10.0], [11.0]]),
            T=np.array([1, 2, 2, 1]),
            Y=np.array([1.0, 2.0, 3.0, 4.0]),
            m=2,
        )

    def test_hand_instance(self):
        mts = greedy_submatch(self.hand_ds(), 4, IDENTITY_1D, seed=0)
        assert sorted(mts.drawn.tolist()) == [0, 1, 2, 3]
        assert mts.removed.tolist() == [0, 1, 2, 3]
        want = {0: [1.0, 2.0], 1: [1.0, 2.0], 2: [4.0, 3.0], 3: [4.0, 3.0]}
        for j, i in enumerate(mts.drawn):
            assert mts.yhat[j].tolist() == want[int(i)]
            assert mts.factual_t[j] == self.hand_ds().T[i]
            assert mts.factual_y[j] == self.hand_ds().Y[i]

    def test_received_arm_keeps_own_outcome(self):
        mts = greedy_submatch(self.hand_ds(), 4, IDENTITY_1D, seed=1)
        own = mts.yhat[np.arange(4), mts.factual_t - 1]
        assert own.tolist() == mts.factual_y.tolist()

    def test_distance_ties_go_to_lowest_row(self):
        ds = Dataset(
            X=np.array([[0.0], [1.0], [-1.0]]),
            T=np.array([1, 2, 2]),
            Y=np.array([5.0, 7.0, 9.0]),
            m=2,
        )
        # seed 11 draws subject 0, equidistant from both arm-2 rows
        mts = greedy_submatch(ds, 1, IDENTITY_1D, seed=11)
        assert mts.drawn.tolist() == [0]
        assert mts.yhat[0].tolist() == [5.0, 7.0]
        assert mts.removed.tolist() == [0, 1]

    def test_matching_is_with_replacement(self):
        # both arm-1 subjects pull the single central arm-2 subject
        ds = Dataset(
            X=np.array([[0.0], [1.0], [0.5]]),
            T=np.array([1, 1, 2]),
            Y=np.array([1.0, 2.0, 8.0]),
            m=2,
        )
        mts = greedy_submatch(ds, 3, IDENTITY_1D, seed=0)
        for j, i in enumerate(mts.drawn):
            if ds.T[i] == 1:
                assert mts.yhat[j, 1] == 8.0

    def test_removed_is_sorted_superset_of_drawn(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            ds = random_dataset(rng, 40, 2, 3, all_arms=True)
            mts = greedy_submatch(
                ds, int(rng.integers(1, 20)), mahalanobis_metric(ds), seed=trial
            )
            removed = mts.removed.tolist()
            assert removed == sorted(set(removed))
            assert set(mts.drawn.tolist()) <= set(removed)

    def test_deterministic_in_seed(self):
        ds = random_dataset(np.random.default_rng(4), 30, 2, 2, all_arms=True)
        metric = mahalanobis_metric(ds)
        a = greedy_submatch(ds, 10, metric, seed=7)
        b = greedy_submatch(ds, 10, metric, seed=7)
        assert a.drawn.tolist() == b.drawn.tolist()
        assert a.yhat.tolist() == b.yhat.tolist()

    def test_bounds_and_missing_arms(self):
        ds = self.hand_ds()
        with pytest.raises(DomainError):
            greedy_submatch(ds, 0, IDENTITY_1D, seed=0)
        with pytest.raises(DomainError):
            greedy_submatch(ds, 5, IDENTITY_1D, seed=0)
        ds_one_arm = Dataset(X=np.zeros((3, 1)), T=np.ones(3, dtype=int), Y=np.zeros(3), m=2)
        with pytest.raises(DomainError, match="treatment 2"):
            greedy_submatch(ds_one_arm, 1, IDENTITY_1D, seed=0)


def greedy_reference(ds, n_test, metric, seed):
    """The row-at-a-time greedy loop: one `Metric.distances` pass and
    argmin per drawn subject and missing arm. Returns drawn, yhat and
    removed."""
    drawn = make_rng(seed).choice(ds.n, size=n_test, replace=False)
    arms = [np.flatnonzero(ds.T == t) for t in range(1, ds.m + 1)]
    yhat = np.empty((n_test, ds.m), dtype=np.float64)
    flagged = set()
    for j, i in enumerate(drawn):
        for t in range(1, ds.m + 1):
            if t == ds.T[i]:
                yhat[j, t - 1] = ds.Y[i]
                continue
            cands = arms[t - 1]
            match = int(cands[np.argmin(metric.distances(ds.X[i], ds.X[cands]))])
            yhat[j, t - 1] = ds.Y[match]
            flagged.add(match)
    return drawn, yhat, np.array(sorted(set(drawn.tolist()) | flagged), dtype=np.int64)


def screen_dataset(X, m=2, seed=0):
    rng = np.random.default_rng(seed)
    T = rng.integers(1, m + 1, size=len(X))
    T[:m] = np.arange(1, m + 1)
    return Dataset(X=X, T=T, Y=rng.normal(size=len(X)), m=m)


def ulp_pairs(n, offset):
    """n / 2 points around `offset`, each followed by its 1-ulp neighbour."""
    base = offset + np.random.default_rng(1).uniform(-1.0, 1.0, size=(n // 2, 2))
    return np.stack([base, np.nextafter(base, np.inf)], axis=1).reshape(-1, 2)


# name -> (dataset, metric or None for the sample's, n_test, whether the
# screen must leave some pairs to exact rescoring)
SCREEN_CASES = {
    "discrete-grid ties": lambda: (
        screen_dataset(np.random.default_rng(2).choice([-1.0, 0.0, 1.0], size=(300, 3)), m=3),
        None, 120, True),
    "duplicate rows": lambda: (
        screen_dataset(np.tile(np.random.default_rng(3).normal(size=(40, 2)), (3, 1))),
        None, 80, True),
    "one ulp apart": lambda: (screen_dataset(ulp_pairs(200, 1e3)), IDENTITY_2D, 100, True),
    "common offset 1e6": lambda: (
        screen_dataset(1e6 + 1e-3 * np.random.default_rng(4).normal(size=(200, 3))),
        None, 60, False),
    "singular metric": lambda: (
        screen_dataset(np.random.default_rng(5).normal(size=(120, 2))),
        Metric(inverse=np.diag([1.0, 0.0])), 50, True),
    "indefinite metric": lambda: (
        screen_dataset(np.random.default_rng(6).normal(size=(120, 2))),
        Metric(inverse=np.diag([1.0, -1.0])), 50, True),
    "blocks past the budget": lambda: (
        screen_dataset(np.random.default_rng(7).normal(size=(600, 4)), m=3),
        None, 450, False),
}

IDENTITY_2D = Metric(inverse=np.eye(2))


class TestScreenedGreedy:
    @pytest.mark.parametrize("case", sorted(SCREEN_CASES))
    def test_matches_row_reference(self, case, caplog):
        ds, metric, n_test, rescores = SCREEN_CASES[case]()
        metric = metric or mahalanobis_metric(ds)
        with caplog.at_level(logging.DEBUG, logger="perstrees"):
            mts = greedy_submatch(ds, n_test, metric, seed=5)
        drawn, yhat, removed = greedy_reference(ds, n_test, metric, seed=5)
        assert mts.drawn.tobytes() == drawn.tobytes()
        assert mts.yhat.tobytes() == yhat.tobytes()
        assert mts.removed.tobytes() == removed.tobytes()
        (record,) = [r for r in caplog.records if r.name == "perstrees.submatch"]
        rescored, pairs = record.args
        assert pairs == n_test * (ds.m - 1)
        assert (rescored > 0) == rescores
        if case == "blocks past the budget":
            arm = np.bincount(ds.T).max()
            assert n_test * arm > _nearest._SCREEN_CELLS  # several blocks per arm

    def test_unsymmetric_inverse_is_exact(self):
        ds = screen_dataset(np.random.default_rng(8).normal(size=(150, 2)))
        metric = Metric(inverse=np.array([[1.0, 0.3], [-0.1, 2.0]]))
        mts = greedy_submatch(ds, 40, metric, seed=1)
        assert mts.yhat.tobytes() == greedy_reference(ds, 40, metric, seed=1)[1].tobytes()


class TestOptimal:
    def test_single_pair(self):
        ds = Dataset(
            X=np.array([[0.0], [1.0], [5.0]]),
            T=np.array([1, 2, 2]),
            Y=np.array([1.0, 2.0, 3.0]),
            m=2,
        )
        mts = optimal_submatch(ds, 1, IDENTITY_1D)
        assert mts.drawn.tolist() == [0, 1]
        assert mts.yhat.tolist() == [[1.0, 2.0], [1.0, 2.0]]
        assert mts.factual_t.tolist() == [1, 2]
        assert mts.removed.tolist() == [0, 1]

    def test_full_pairing_of_interleaved_clusters(self):
        ds = Dataset(
            X=np.array([[0.0], [1.0], [10.0], [11.0], [20.0], [21.0]]),
            T=np.array([1, 2, 1, 2, 1, 2]),
            Y=np.arange(6.0),
            m=2,
        )
        mts = optimal_submatch(ds, 3, IDENTITY_1D)
        assert mts.drawn.tolist() == [0, 1, 2, 3, 4, 5]
        assert mts.yhat.tolist() == [
            [0.0, 1.0], [0.0, 1.0], [2.0, 3.0], [2.0, 3.0], [4.0, 5.0], [4.0, 5.0]
        ]

    def test_keeps_cheapest_pairs_when_padded(self):
        ds = Dataset(
            X=np.array([[0.0], [1.0], [10.0], [11.5], [20.0], [21.0]]),
            T=np.array([1, 2, 1, 2, 1, 2]),
            Y=np.arange(6.0),
            m=2,
        )
        mts = optimal_submatch(ds, 2, IDENTITY_1D)
        # the 1.5-cost middle pair is the one dropped
        assert mts.drawn.tolist() == [0, 1, 4, 5]

    def test_beats_nearest_neighbor_pairing(self):
        # pairing 0 with its nearest (-0.2) frees 2 to take 1.1: total
        # 1.1 versus 3.3 the other way around
        ds = Dataset(
            X=np.array([[0.0], [2.0], [1.1], [-0.2]]),
            T=np.array([1, 1, 2, 2]),
            Y=np.array([0.0, 1.0, 2.0, 3.0]),
            m=2,
        )
        mts = optimal_submatch(ds, 2, IDENTITY_1D)
        pairs = {
            (int(mts.drawn[2 * k]), int(mts.drawn[2 * k + 1]))
            for k in range(2)
        }
        assert pairs == {(0, 3), (2, 1)} or pairs == {(0, 3), (1, 2)}

    def test_matches_brute_force_total_cost(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            n1, n2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            n_pair = int(rng.integers(1, min(n1, n2) + 1))
            X = rng.normal(size=(n1 + n2, 2))
            T = np.array([1] * n1 + [2] * n2)
            ds = Dataset(X=X, T=T, Y=rng.normal(size=n1 + n2), m=2)
            metric = Metric(inverse=np.eye(2))
            mts = optimal_submatch(ds, n_pair, metric)
            got = sum(
                metric.distance(ds.X[mts.drawn[2 * k]], ds.X[mts.drawn[2 * k + 1]])
                for k in range(n_pair)
            )
            best = min(
                sum(metric.distance(ds.X[i], ds.X[j]) for i, j in zip(lhs, rhs))
                for lhs in itertools.permutations(range(n1), n_pair)
                for rhs in itertools.combinations(range(n1, n1 + n2), n_pair)
            )
            assert got <= best + 1e-9

    def test_pairs_are_disjoint(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng, 30, 2, 2, all_arms=True)
        n_pair = min(np.bincount(ds.T - 1)[0], np.bincount(ds.T - 1)[1], 8)
        mts = optimal_submatch(ds, int(n_pair), mahalanobis_metric(ds))
        assert len(set(mts.drawn.tolist())) == len(mts.drawn)
        assert mts.removed.tolist() == sorted(mts.drawn.tolist())

    def test_rejects_more_than_two_arms(self):
        ds = random_dataset(np.random.default_rng(7), 30, 2, 3, all_arms=True)
        with pytest.raises(DomainError):
            optimal_submatch(ds, 2, mahalanobis_metric(ds))

    def test_n_pair_bounds(self):
        ds = Dataset(
            X=np.arange(4.0)[:, None],
            T=np.array([1, 1, 1, 2]),
            Y=np.zeros(4),
            m=2,
        )
        with pytest.raises(DomainError, match="1..1"):
            optimal_submatch(ds, 2, IDENTITY_1D)


def tiny_mts():
    """Two test subjects mirroring the oracle-metrics hand instance."""
    return MatchedTestSet(
        drawn=np.array([0, 1]),
        factual_t=np.array([1, 2]),
        factual_y=np.array([1.0, 2.0]),
        yhat=np.array([[1.0, 3.0], [4.0, 2.0]]),
        removed=np.array([0, 1]),
        X_test=np.array([[0.0], [1.0]]),
        m=2,
    )


class TestMatchedMetrics:
    def test_risk_hand_values(self):
        mts = tiny_mts()
        assert matched_risk(mts, const_policy(1)) == 2.5
        assert matched_risk(mts, const_policy(2)) == 2.5
        switch = FunctionPolicy(fn=lambda x: 1 + int(x[0] > 0.5), m=2)
        assert matched_risk(mts, switch) == 1.5  # prescient here

    def test_coefficient_hand_values(self):
        mts = tiny_mts()
        assert p1_hat(mts, const_policy(1)) == 0.0
        assert math.isnan(p2_hat(mts, const_policy(1)))
        score = matched_metrics(mts, const_policy(1))
        assert score.p1_defined and not score.p2_defined

    def test_prescient_policy_scores_one(self):
        rng = np.random.default_rng(8)
        yhat = rng.normal(size=(30, 3))
        mts = MatchedTestSet(
            drawn=np.arange(30),
            factual_t=np.ones(30, dtype=int),
            factual_y=yhat[:, 0] + 1.0,  # worse than prescient
            yhat=yhat,
            removed=np.arange(30),
            X_test=rng.normal(size=(30, 2)),
            m=3,
        )
        best = type(
            "P", (), {"m": 3, "predict_many": lambda self, X: 1 + np.argmin(yhat, axis=1)}
        )()
        score = matched_metrics(mts, best)
        assert np.isclose(score.p1, 1.0)
        assert np.isclose(score.p2, 1.0)
        assert np.isclose(score.risk, yhat.min(axis=1).mean())

    def test_p2_zero_when_policy_reproduces_history(self):
        # historical assignment (2, 1) is strictly worse than prescient,
        # so p2 is defined, and a policy repeating it scores exactly zero
        mts = MatchedTestSet(
            drawn=np.array([0, 1]),
            factual_t=np.array([2, 1]),
            factual_y=np.array([3.0, 4.0]),
            yhat=np.array([[1.0, 3.0], [4.0, 2.0]]),
            removed=np.array([0, 1]),
            X_test=np.array([[0.0], [1.0]]),
            m=2,
        )
        hist = type(
            "P", (), {"m": 2, "predict_many": lambda self, X: np.array([2, 1])}
        )()
        assert p2_hat(mts, hist) == 0.0

    def test_flat_outcomes_leave_p1_undefined(self):
        mts = MatchedTestSet(
            drawn=np.array([0, 1]),
            factual_t=np.array([1, 2]),
            factual_y=np.array([2.0, 2.0]),
            yhat=np.full((2, 2), 2.0),
            removed=np.array([0, 1]),
            X_test=np.zeros((2, 1)),
            m=2,
        )
        assert math.isnan(p1_hat(mts, const_policy(1)))
        assert math.isnan(p2_hat(mts, const_policy(1)))

    @pytest.mark.parametrize("t,m,named", [
        (0, 2, "outside 1..2"), (3, 3, "exceeds the data's 2 arms")
    ])
    def test_refuses_a_prescription_outside_the_arms(self, t, m, named):
        with pytest.raises(DomainError, match=named):
            matched_metrics(tiny_mts(), const_policy(t, m))


class TestCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        ds = random_dataset(rng, 40, 2, 3, all_arms=True)
        mts = greedy_submatch(ds, 12, mahalanobis_metric(ds), seed=2)
        path = tmp_path / "matched.csv"
        save_matched_csv(mts, path)
        back = load_matched_csv(path)
        assert back["drawn"].tolist() == mts.drawn.tolist()
        assert back["factual_t"].tolist() == mts.factual_t.tolist()
        assert back["factual_y"].tolist() == mts.factual_y.tolist()
        assert back["yhat"].tolist() == mts.yhat.tolist()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="header"):
            load_matched_csv(path)

    def test_foreign_header_rejected(self, tmp_path):
        path = tmp_path / "foreign.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(SchemaError):
            load_matched_csv(path)

    def test_malformed_row_reported_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject_index,factual_t,factual_y,yhat_1\n0,1,oops,2.0\n")
        with pytest.raises(ParseError, match="row 2"):
            load_matched_csv(path)
