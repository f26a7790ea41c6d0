import math
import re

import numpy as np
import pytest

from perstrees.data import Dataset
from perstrees.errors import (
    DomainError,
    MissingCounterfactualError,
    MissingPropensityError,
    UndefinedEstimateError,
    UndefinedImpurityError,
)
from perstrees.risk import (
    FunctionPolicy,
    Partition,
    best_treatment,
    impurity,
    ipw_risk,
    oracle_metrics,
    partition_risk_estimate,
    prescriptions,
)
from perstrees.tree import fit_pt

from helpers import random_dataset


def const_policy(t, m):
    return FunctionPolicy(fn=lambda x: t, m=m)


class TestImpurity:
    def test_both_arms_once(self):
        # k=2, means are 2 and 4, min is 2 -> 2*2
        assert impurity([1, 2], [2.0, 4.0], 2) == 4.0

    def test_single_subject_single_arm(self):
        assert impurity([1], [5.0], 1) == 5.0

    def test_three_subjects(self):
        # arm1 mean (1+3)/2 = 2, arm2 mean 10 -> 3*2
        assert impurity([1, 1, 2], [1.0, 3.0, 10.0], 2) == 6.0

    def test_strict_mode_missing_arm(self):
        with pytest.raises(UndefinedImpurityError):
            impurity([1, 1], [0.0, 1.0], 2)

    def test_empty(self):
        with pytest.raises(UndefinedImpurityError):
            impurity([], [], 2)

    def test_scarce_mode_ignores_missing(self):
        assert impurity([1, 1], [0.0, 1.0], 2, scarce_mode=True) == 1.0

    def test_scarce_mode_eligibility_threshold(self):
        # arm 2 has one subject, below n_min_leaf=2, so arm 1 wins
        # despite the larger mean
        t = [1, 1, 2]
        y = [5.0, 5.0, 0.0]
        best, mean = best_treatment(t, y, 2, scarce_mode=True, n_min_leaf=2)
        assert best == 1 and mean == 5.0

    def test_scarce_mode_nobody_eligible(self):
        with pytest.raises(UndefinedImpurityError):
            best_treatment([1, 2], [0.0, 1.0], 2, scarce_mode=True, n_min_leaf=2)

    def test_tie_goes_to_lowest_label(self):
        best, _ = best_treatment([1, 2], [3.0, 3.0], 2)
        assert best == 1


class TestPartitionRisk:
    def test_identity_with_leaf_argmin(self):
        # n * risk estimate == sum of leaf impurities whenever every leaf
        # prescribes its own argmin-mean treatment
        rng = np.random.default_rng(42)
        for trial in range(50):
            n = int(rng.integers(8, 50))
            m = int(rng.integers(2, 5))
            ds = random_dataset(rng, n, 2, m, all_arms=False)
            leaf_of = 1 + (ds.X[:, 0] > float(np.median(ds.X[:, 0]))).astype(int)
            part = Partition(leaf_of=leaf_of, n_leaves=2)
            total = 0.0
            choice = {}
            ok = True
            for leaf in (1, 2):
                rows = np.flatnonzero(leaf_of == leaf)
                if rows.size == 0:
                    continue
                try:
                    t_star, mean = best_treatment(
                        ds.T[rows], ds.Y[rows], m, scarce_mode=True
                    )
                except UndefinedImpurityError:
                    ok = False
                    break
                choice[leaf] = t_star
                total += rows.size * mean
            if not ok:
                continue
            # prescribe by row via a vectorized leaf lookup
            lut = np.array([0] + [choice.get(l, 1) for l in (1, 2)])
            pol = type(
                "P", (), {"m": m, "predict_many": lambda self, X, lut=lut, lo=leaf_of: lut[lo]}
            )()
            est = partition_risk_estimate(ds, part, pol)
            assert abs(n * est - total) < 1e-10

    def test_empty_leaf_contributes_zero(self):
        ds = Dataset(
            X=np.array([[0.0], [1.0]]), T=np.array([1, 1]), Y=np.array([2.0, 4.0]), m=1
        )
        part = Partition(leaf_of=np.array([1, 1]), n_leaves=3)
        assert partition_risk_estimate(ds, part, const_policy(1, 1)) == 3.0

    def test_unmatched_leaf_raises(self):
        ds = Dataset(
            X=np.array([[0.0], [1.0]]), T=np.array([1, 2]), Y=np.array([2.0, 4.0]), m=2
        )
        part = Partition(leaf_of=np.array([1, 2]), n_leaves=2)
        with pytest.raises(UndefinedEstimateError, match="leaf 2"):
            partition_risk_estimate(ds, part, const_policy(1, 2))

    def test_single_leaf_is_matched_mean(self):
        ds = Dataset(
            X=np.zeros((4, 1)),
            T=np.array([1, 2, 1, 2]),
            Y=np.array([1.0, 10.0, 3.0, 20.0]),
            m=2,
        )
        part = Partition(leaf_of=np.ones(4, dtype=int), n_leaves=1)
        assert partition_risk_estimate(ds, part, const_policy(1, 2)) == 2.0
        assert partition_risk_estimate(ds, part, const_policy(2, 2)) == 15.0


class TestIpwRisk:
    def test_hand_value(self):
        # only subject 1 follows the policy: (1/2) * 2 / 0.5 = 2
        ds = Dataset(
            X=np.zeros((2, 1)),
            T=np.array([1, 2]),
            Y=np.array([2.0, 6.0]),
            m=2,
            Q=np.array([0.5, 0.75]),
        )
        assert ipw_risk(ds, const_policy(1, 2)) == 2.0

    def test_requires_q(self):
        ds = random_dataset(np.random.default_rng(0), 5, 1, 2)
        with pytest.raises(MissingPropensityError):
            ipw_risk(ds, const_policy(1, 2))

    def test_full_compliance_is_mean(self):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, 20, 1, 2, with_q=True)
        pol = type("P", (), {"m": 2, "predict_many": lambda self, X, t=ds.T: t})()
        got = ipw_risk(ds, pol)
        assert np.isclose(got, np.mean(ds.Y / ds.Q))


class TestOracleMetrics:
    def test_hand_instance(self):
        ds = Dataset(
            X=np.zeros((2, 1)),
            T=np.array([1, 2]),
            Y=np.array([1.0, 2.0]),
            m=2,
            CF=np.array([[1.0, 3.0], [4.0, 2.0]]),
        )
        score = oracle_metrics(ds, const_policy(1, 2))
        assert score.risk == 2.5
        assert score.p1 == 0.0  # exactly the best-constant level
        assert math.isnan(score.p2)  # factual mean equals prescient mean
        assert score.p1_defined and not score.p2_defined

    def test_prescient_scores_one(self):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, 30, 2, 3, with_cf=True)
        pol = type(
            "P",
            (),
            {"m": 3, "predict_many": lambda self, X, cf=ds.CF: 1 + np.argmin(cf, axis=1)},
        )()
        score = oracle_metrics(ds, pol)
        assert np.isclose(score.p1, 1.0) and np.isclose(score.p2, 1.0)

    def test_requires_cf(self):
        ds = random_dataset(np.random.default_rng(0), 5, 1, 2)
        with pytest.raises(MissingCounterfactualError):
            oracle_metrics(ds, const_policy(1, 2))

    @pytest.mark.parametrize("t,m,named", [
        (0, 2, "outside 1..2"), (3, 3, "exceeds the data's 2 arms")
    ])
    def test_refuses_a_prescription_outside_the_arms(self, t, m, named):
        ds = random_dataset(np.random.default_rng(0), 5, 1, 2, with_cf=True)
        with pytest.raises(DomainError, match=named):
            oracle_metrics(ds, const_policy(t, m))


def test_prescriptions_row_loop_matches_vectorized():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(40, 3))
    pol = FunctionPolicy(fn=lambda x: 1 + int(x[0] > 0), m=2)
    got = prescriptions(pol, X)
    assert got.tolist() == [1 + int(v > 0) for v in X[:, 0]]


@pytest.mark.parametrize("shape", [(2,), (2, 2, 3)])
def test_prescriptions_need_a_matrix_of_rows(shape):
    policy = fit_pt(random_dataset(np.random.default_rng(3), 30, 2, 2, all_arms=True))
    with pytest.raises(DomainError, match=re.escape(f"(n, d) matrix of rows, got shape {shape}")):
        prescriptions(policy, np.zeros(shape))


@pytest.mark.parametrize("t", [0, -1, 4])
def test_prescriptions_outside_1_to_m_are_refused(t):
    X = np.zeros((3, 1))
    pol = FunctionPolicy(fn=lambda x: t if x[0] > 0 else 1, m=3)
    assert prescriptions(pol, X).tolist() == [1, 1, 1]
    X[1, 0] = 1.0
    with pytest.raises(DomainError, match="outside 1..3"):
        prescriptions(pol, X)
