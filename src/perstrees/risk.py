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


@dataclass(frozen=True)
class FunctionPolicy:
    """Policy defined by an arbitrary prescription function.

    Attributes:
        fn: maps one covariate row to a treatment in 1..m.
        m: number of treatments.
    """

    fn: object
    m: int

    def prescribe(self, x):
        return int(self.fn(x))


def prescriptions(policy, X):
    """Prescriptions for every row of X as an int array.

    Uses the policy's vectorized `predict_many` when it has one.
    """
    X = np.asarray(X, dtype=np.float64)
    if hasattr(policy, "predict_many"):
        return np.asarray(policy.predict_many(X), dtype=np.int64)
    return np.fromiter((policy.prescribe(x) for x in X), dtype=np.int64, count=len(X))


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


def _counts_and_sums(t, y, m):
    t = np.asarray(t, dtype=np.int64)
    y = np.asarray(y, dtype=np.float64)
    counts = np.bincount(t - 1, minlength=m)
    sums = np.bincount(t - 1, weights=y, minlength=m)
    return counts, sums


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
    return _best_of_stats(counts, sums, scarce_mode=scarce_mode, n_min_leaf=n_min_leaf)


def _best_of_stats(counts, sums, scarce_mode=False, n_min_leaf=1):
    """`best_treatment` from per-treatment counts and outcome sums."""
    m = counts.size
    if scarce_mode:
        eligible = counts >= n_min_leaf
        if not eligible.any():
            raise UndefinedImpurityError(
                f"no treatment has {n_min_leaf} subjects in the subsample"
            )
    else:
        if (counts == 0).any():
            missing = int(np.flatnonzero(counts == 0)[0]) + 1
            raise UndefinedImpurityError(f"treatment {missing} absent from the subsample")
        eligible = np.ones(m, dtype=bool)
    means = np.full(m, np.inf)
    means[eligible] = sums[eligible] / counts[eligible]
    best = int(np.argmin(means))
    return best + 1, float(means[best])


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
    pres = prescriptions(policy, ds.X)
    risk = float(CF[np.arange(ds.n), pres - 1].mean())
    prescient = float(CF.min(axis=1).mean())
    best_const = float(CF.mean(axis=0).min())
    excess = risk - prescient
    p1 = _coefficient(excess, best_const - prescient)
    p2 = _coefficient(excess, float(ds.Y.mean()) - prescient)
    return PolicyScore(risk=risk, p1=p1, p2=p2)
