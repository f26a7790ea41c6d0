"""Policy risk: impurity, partition and inverse-probability estimates.

Risk here is the expected outcome under a policy's prescriptions, so
smaller is always better. The impurity of a subsample is its size times
the smallest per-treatment mean outcome; summing leaf impurities over a
partition equals n times the partition risk estimate of the policy that
prescribes each leaf's best treatment.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UndefinedEstimateError, UndefinedImpurityError


class _BatchPolicy:
    """A policy: `m` treatments, optionally `d` features, and
    `predict_many(X)` giving one treatment in 1..m per row of X."""

    def prescribe(self, x):
        return int(self.predict_many([x])[0])


@dataclass(frozen=True)
class FunctionPolicy(_BatchPolicy):
    """Policy defined by an arbitrary prescription function.

    Attributes:
        fn: maps one covariate row to a treatment in 1..m.
        m: number of treatments.
    """

    fn: object
    m: int

    def predict_many(self, X):
        X = np.asarray(X, dtype=np.float64)
        return np.fromiter((int(self.fn(x)) for x in X), dtype=np.int64, count=len(X))


def prescriptions(policy, X):
    """`policy.predict_many(X)` as an int array; DomainError when X's
    column count differs from the policy's `d` or a prescription lies
    outside 1..`policy.m`."""
    X = np.asarray(X, dtype=np.float64)
    d = getattr(policy, "d", None)
    if d is not None and X.shape[1] != d:
        raise DomainError(f"policy expects {d} features, the data has {X.shape[1]}")
    pres = np.asarray(policy.predict_many(X), dtype=np.int64)
    if pres.size and not 1 <= pres.min() <= pres.max() <= policy.m:
        raise DomainError(f"prescriptions span {pres.min()}..{pres.max()}, outside 1..{policy.m}")
    return pres


def _outcomes_under(policy, X, outcomes):
    """Row i's entry of outcomes (one column per arm) under the policy's
    prescription for X[i]; DomainError for a prescription past the arms."""
    pres = prescriptions(policy, X)
    if pres.size and pres.max() > outcomes.shape[1]:
        raise DomainError(f"prescription {pres.max()} exceeds the data's {outcomes.shape[1]} arms")
    return outcomes[np.arange(len(pres)), pres - 1]


@dataclass(frozen=True)
class Partition:
    """Assignment of sample rows to leaves 1..n_leaves. Leaves may be empty."""

    leaf_of: np.ndarray
    n_leaves: int

    def __post_init__(self):
        leaf_of = np.asarray(self.leaf_of, dtype=np.int64)
        if self.n_leaves < 1:
            raise DomainError("a partition needs at least one leaf")
        if leaf_of.size and (leaf_of.min() < 1 or leaf_of.max() > self.n_leaves):
            raise DomainError("leaf ids must lie in 1..n_leaves")
        leaf_of.setflags(write=False)
        object.__setattr__(self, "leaf_of", leaf_of)


def _counts_and_sums(t, y, m, leaf=0, n_leaves=1):
    """Per-(leaf, treatment) counts and outcome sums as (n_leaves, m)
    arrays, for rows in leaves `leaf` (0-based). Each bin is summed in row
    order, as a bincount over that leaf's rows alone would be."""
    key = np.asarray(t, dtype=np.int64) + (leaf * m - 1)
    size = n_leaves * m
    counts = np.bincount(key, minlength=size).reshape(n_leaves, m)
    sums = np.bincount(key, weights=np.asarray(y, dtype=np.float64), minlength=size)
    return counts, sums.reshape(n_leaves, m)


def best_treatment(t, y, m, scarce_mode=False, n_min_leaf=1):
    """Best treatment of a subsample and its mean outcome.

    In strict mode every treatment 1..m must appear; in scarce mode only
    treatments with at least n_min_leaf subjects are eligible. Ties go to
    the lowest treatment index.

    Returns:
        (treatment, mean outcome of that treatment)

    Raises:
        UndefinedImpurityError: no treatment is eligible.
    """
    if len(t) == 0:
        raise UndefinedImpurityError("empty subsample")
    counts, sums = _counts_and_sums(t, y, m)
    treatment, mean = _best_of_stats(counts, _means(counts, sums), scarce_mode, n_min_leaf)
    return int(treatment[0]), float(mean[0])


def _means(counts, sums):
    """Mean outcomes from counts and outcome sums, NaN where a treatment
    is absent (its sum is 0, and 0/0 is NaN)."""
    with np.errstate(invalid="ignore"):
        return sums / counts


def _best_of_stats(counts, means, scarce_mode=False, n_min_leaf=1):
    """`best_treatment` of each row of (rows, m) per-treatment counts and
    `_means`: arrays of the treatments and their means. The first row
    with no eligible treatment raises."""
    if scarce_mode:
        eligible = counts >= n_min_leaf
        if not eligible.any(axis=1).all():
            raise UndefinedImpurityError(
                f"no treatment has {n_min_leaf} subjects in the subsample"
            )
    else:
        eligible = counts > 0
        if not eligible.all():
            missing = int(np.flatnonzero(~eligible)[0]) % counts.shape[1] + 1  # first row's lowest
            raise UndefinedImpurityError(f"treatment {missing} absent from the subsample")
    best = np.where(eligible, means, np.inf).argmin(axis=1)
    return best + 1, means[np.arange(best.size), best]


def impurity(t, y, m, scarce_mode=False, n_min_leaf=1):
    """Subsample size times the smallest eligible per-treatment mean outcome."""
    _, mean = best_treatment(t, y, m, scarce_mode=scarce_mode, n_min_leaf=n_min_leaf)
    return len(t) * mean


def partition_risk_estimate(ds, partition, policy):
    """Risk estimate of a policy over a fixed partition of the sample.

    Each non-empty leaf contributes its sample fraction times the mean
    outcome of its subjects whose received treatment matches the policy's
    prescription.

    Raises:
        UndefinedEstimateError: some non-empty leaf has no subject whose
            received treatment matches its prescription.
    """
    if partition.leaf_of.shape != (ds.n,):
        raise DomainError("partition must cover every sample row")
    pres = prescriptions(policy, ds.X)
    total = 0.0
    for leaf in range(1, partition.n_leaves + 1):
        members = np.flatnonzero(partition.leaf_of == leaf)
        if members.size == 0:
            continue
        matched = members[ds.T[members] == pres[members]]
        if matched.size == 0:
            raise UndefinedEstimateError(
                f"no subject in leaf {leaf} received its prescribed treatment"
            )
        total += (members.size / ds.n) * ds.Y[matched].mean()
    return total


def ipw_risk(ds, policy):
    """Inverse-probability-weighted risk estimate.

    Averages 1[T_i = policy(X_i)] * Y_i / Q_i; unbiased for the policy's
    true risk when Q holds the true assignment probabilities.
    """
    Q = ds.require_q()
    pres = prescriptions(policy, ds.X)
    agree = (ds.T == pres).astype(np.float64)
    return float(np.mean(agree * ds.Y / Q))


@dataclass(frozen=True)
class PolicyScore:
    """Risk plus the two coefficients of personalization.

    p1 compares the policy against the best single treatment, p2 against
    the historical assignment; both equal 1 for a prescient policy. An
    undefined coefficient (zero denominator) is NaN with its flag False.
    """

    risk: float
    p1: float
    p2: float

    @property
    def p1_defined(self):
        return not math.isnan(self.p1)

    @property
    def p2_defined(self):
        return not math.isnan(self.p2)


def _coefficient(excess, spread):
    if spread == 0.0:
        return float("nan")
    return 1.0 - excess / spread


def oracle_metrics(ds, policy):
    """Exact risk and personalization coefficients from counterfactuals.

    Requires the full counterfactual table. The prescient reference takes
    each subject's best treatment; the best-constant reference takes the
    single treatment with the smallest mean counterfactual outcome.
    """
    CF = ds.require_cf()
    risk = float(_outcomes_under(policy, ds.X, CF).mean())
    prescient = float(CF.min(axis=1).mean())
    best_const = float(CF.mean(axis=0).min())
    excess = risk - prescient
    p1 = _coefficient(excess, best_const - prescient)
    p2 = _coefficient(excess, float(ds.Y.mean()) - prescient)
    return PolicyScore(risk=risk, p1=p1, p2=p2)
