"""Policy evaluation on data without counterfactuals via submatching.

A matched test set imputes, for each drawn test subject, the outcome
under every treatment: the received arm contributes the subject's own
outcome and every other arm the outcome of its nearest neighbor in
Mahalanobis distance. The greedy protocol draws test subjects at random
and matches each against the full sample; the optimal protocol (two
treatments only) picks the set of disjoint cross-arm pairs with the
smallest total distance. Matched subjects are flagged so training pools
can exclude them.

Greedy matching screens, then verifies. The exact distance is
`Metric.distances`, one pass per subject. The screen centers every row
and whitens it by the Cholesky factor of the metric inverse, and gets
all distances of a block of subjects to an arm from one matrix product,
each with a proven bound on its rounding error (`_nearest`). A
subject-arm pair with exactly one row that can be nearest takes that
row; every other pair, ties included, is recomputed by
`Metric.distances` and `argmin`, as is every pair when the factorization
fails. Matches therefore equal the exact pass's, lowest row on ties.
`optimal_submatch` needs the exact distances themselves as assignment
costs, so it keeps computing them one row at a time.
"""

import csv
import logging
from dataclasses import dataclass

import numpy as np

from ._nearest import screen, whiten
from .data import _arms, _column, load_csv
from .errors import DomainError, ParseError, SchemaError
from .risk import PolicyScore, _coefficient, _outcomes_under
from .seeding import make_rng

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Metric:
    """Mahalanobis distance with a fixed positive definite inverse."""

    inverse: np.ndarray

    def distance(self, a, b):
        return float(self.distances(a, [b])[0])

    def distances(self, x, X):
        """Distance from one point to every row of X."""
        diff = np.asarray(X, dtype=np.float64) - np.asarray(x, dtype=np.float64)
        sq = np.einsum("ij,jk,ik->i", diff, self.inverse, diff)
        return np.sqrt(np.clip(sq, 0.0, None))


def mahalanobis_metric(ds):
    """Metric from the sample covariance of the covariates.

    The covariance is regularized by 1e-8 * trace / d on the diagonal
    (falling back to a bare 1e-8 for identically-zero covariance), so
    the inverse exists even for degenerate samples.
    """
    if ds.n < 2:
        raise DomainError("the covariance metric needs at least two subjects")
    if ds.d == 0:
        raise DomainError("the covariance metric needs at least one covariate")
    cov = np.cov(ds.X, rowvar=False)
    cov = np.atleast_2d(cov)
    eps = 1e-8 * float(np.trace(cov)) / ds.d
    if eps <= 0.0:
        eps = 1e-8
    return Metric(inverse=np.linalg.inv(cov + eps * np.eye(ds.d)))


@dataclass(frozen=True)
class MatchedTestSet:
    """Imputed outcomes for a set of test subjects.

    Attributes:
        drawn: test subject row indices, in draw order.
        factual_t: their received treatments.
        factual_y: their observed outcomes.
        yhat: n_test x m imputed outcomes; column t-1 of row j is the
            outcome of subject drawn[j] under treatment t.
        removed: sorted union of drawn subjects and their matches; the
            training pool must exclude these rows.
        X_test: covariate rows of the drawn subjects.
        m: number of treatments.
    """

    drawn: np.ndarray
    factual_t: np.ndarray
    factual_y: np.ndarray
    yhat: np.ndarray
    removed: np.ndarray
    X_test: np.ndarray
    m: int

    @property
    def n_test(self):
        return len(self.drawn)


def _nearest_matches(ds, drawn, arms, metric):
    """match[j, t - 1]: the row of arm t nearest to subject drawn[j] by
    `Metric.distances`, ties to the lowest row; -1 on the subject's own
    arm. The screen settles every pair with a single possible nearest
    row; the others are recomputed by `Metric.distances` and `argmin`."""
    match = np.full((len(drawn), ds.m), -1, dtype=np.int64)
    white = whiten(metric.inverse, ds.X)
    rescored = 0
    for t, cands in enumerate(arms, start=1):
        js = np.flatnonzero(ds.T[drawn] != t)
        if white is not None:
            W, b = white
            q = drawn[js]
            for start, near, settled in screen(W[q], b[q], W[cands], b[cands], 1):
                rows = js[start : start + len(near)][settled]
                match[rows, t - 1] = cands[near[settled].argmax(axis=1)]
        for j in js[match[js, t - 1] < 0]:
            dist = metric.distances(ds.X[drawn[j]], ds.X[cands])
            match[j, t - 1] = cands[np.argmin(dist)]
            rescored += 1
    logger.debug(
        "greedy_submatch: %d of %d pairs rescored exactly",
        rescored, len(drawn) * (ds.m - 1),
    )
    return match


def greedy_submatch(ds, n_test, metric, seed):
    """Draw test subjects and match their missing arms greedily.

    Each drawn subject's missing arms are matched against every subject
    of that arm (drawn subjects included, with replacement across test
    subjects); distance ties go to the lowest row index.
    """
    if not 1 <= n_test <= ds.n:
        raise DomainError(f"n_test must lie in 1..{ds.n}")
    arms = _arms(ds)
    drawn = make_rng(seed).choice(ds.n, size=n_test, replace=False)
    match = _nearest_matches(ds, drawn, arms, metric)
    match[np.arange(n_test), ds.T[drawn] - 1] = drawn
    return MatchedTestSet(
        drawn=drawn.astype(np.int64),
        factual_t=ds.T[drawn],
        factual_y=ds.Y[drawn],
        yhat=ds.Y[match],
        removed=np.unique(match),
        X_test=ds.X[drawn].copy(),
        m=ds.m,
    )


def optimal_submatch(ds, n_pair, metric):
    """Minimum-total-distance disjoint cross-arm pairs (two treatments).

    Solves an assignment problem between the two arms, padded with
    zero-cost dummy partners so exactly n_pair real pairs are selected.
    Each pair contributes two test rows: each partner's missing arm is
    imputed from the other.

    Memory: the cost matrix is dense float64 of n1 x (n2 + n1 - n_pair)
    for arm sizes n1 and n2, about 8 * n1 * (n2 + n1) bytes; 10,000
    subjects per arm take 1.6 GB.
    """
    from scipy.optimize import linear_sum_assignment  # imported on use; nothing else needs scipy

    if ds.m != 2:
        raise DomainError("optimal submatching is defined for two treatments only")
    arm1, arm2 = _arms(ds)
    n1, n2 = arm1.size, arm2.size
    if not 1 <= n_pair <= min(n1, n2):
        raise DomainError(f"n_pair must lie in 1..{min(n1, n2)}")
    cost = np.zeros((n1, n2 + n1 - n_pair), dtype=np.float64)
    for a, i in enumerate(arm1):
        cost[a, :n2] = metric.distances(ds.X[i], ds.X[arm2])
    rows, cols = linear_sum_assignment(cost)
    real = np.flatnonzero(cols < n2)  # in arm-1 row order, as rows is ascending
    # the n_pair cheapest, cost ties to the lower arm-1 row, kept in arm-1 row order
    real = np.sort(real[np.argsort(cost[rows[real], cols[real]], kind="stable")[:n_pair]])
    pairs = np.column_stack([arm1[rows[real]], arm2[cols[real]]])  # (n_pair, 2)
    drawn = pairs.ravel()
    return MatchedTestSet(
        drawn=drawn,
        factual_t=ds.T[drawn],
        factual_y=ds.Y[drawn],
        yhat=ds.Y[pairs.repeat(2, axis=0)],
        removed=np.sort(drawn),
        X_test=ds.X[drawn],
        m=2,
    )


def matched_metrics(mts, policy):
    """Matched risk plus both coefficients as a PolicyScore, from one
    pass of prescriptions. p1 compares against the best single
    treatment, p2 against the historical assignment; an undefined
    coefficient is NaN."""
    chosen = _outcomes_under(policy, mts.X_test, mts.yhat)
    best = mts.yhat.min(axis=1).sum()
    excess = chosen.sum() - best
    p1 = _coefficient(excess, mts.yhat.sum(axis=0).min() - best)
    p2 = _coefficient(excess, mts.factual_y.sum() - best)
    return PolicyScore(risk=float(chosen.mean()), p1=float(p1), p2=float(p2))


def matched_risk(mts, policy):
    """Mean imputed outcome under the policy's prescriptions."""
    return matched_metrics(mts, policy).risk


def p1_hat(mts, policy):
    return matched_metrics(mts, policy).p1


def p2_hat(mts, policy):
    return matched_metrics(mts, policy).p2


def save_matched_csv(mts, path):
    """Write the matched test set (one row per test subject)."""
    header = ["subject_index", "factual_t", "factual_y"] + [
        f"yhat_{t}" for t in range(1, mts.m + 1)
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for j in range(mts.n_test):
            row = [str(int(mts.drawn[j])), str(int(mts.factual_t[j])), repr(float(mts.factual_y[j]))]
            row += [repr(float(v)) for v in mts.yhat[j]]
            writer.writerow(row)


def load_matched_csv(path):
    """Read back a matched test set CSV as a dict of arrays.

    The header must be subject_index, factual_t, factual_y, yhat_1..yhat_m.
    The body goes through `load_csv` (factual_t the treatment, factual_y
    the outcome, the yhats counterfactuals), so it refuses what load_csv
    and Dataset refuse; a subject index must be a whole number >= 0.
    The covariates of the drawn subjects are not stored in the CSV, so
    the result supports inspection but not policy evaluation.
    """
    # bytes that do not decode fail the header check here, or load_csv below
    with open(path, newline="", errors="replace") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
    yhat = [f"yhat_{t}" for t in range(1, len(header) - 2)]
    if not yhat or header != ["subject_index", "factual_t", "factual_y", *yhat]:
        raise SchemaError(f"{path}: not a matched test set file: header must be "
                          "subject_index,factual_t,factual_y,yhat_1..yhat_m")
    ds = load_csv(path, "factual_t", "factual_y", cf_cols=yhat)
    index, = ds.schema.features
    try:
        if index.is_categorical:  # a cell float() refuses: _column names its row
            _column(np.asarray(index.levels)[ds.X.argmax(axis=1)].tolist(), index.name)
        drawn = ds.X[:, 0]
        bad = np.flatnonzero((drawn < 0) | (drawn != np.trunc(drawn)) | (drawn >= 2.0**63))
        if bad.size:
            raise ParseError("subject index must be a whole number >= 0", row=int(bad[0]) + 2,
                             column=index.name)
    except ParseError as exc:
        exc.args = (f"{path}: {exc}",)  # as load_csv names the file
        raise
    return {"drawn": drawn.astype(np.int64), "factual_t": np.array(ds.T),
            "factual_y": np.array(ds.Y), "yhat": np.array(ds.CF)}
