"""Regression baselines: regress-and-compare and pairwise relabeling.

Regress-and-compare fits one outcome regressor per treatment arm and
prescribes the arm with the smallest prediction. The relabeling
strategies reduce the m-treatment problem to binary contrasts estimated
by a treatment-effect estimator on relabeled data: one-vs-all contrasts
each arm with the pooled rest; one-vs-one fits every ordered pair and
prescribes either the arm whose worst pairwise contrast is smallest
(variant A) or the arm winning the most pairwise comparisons
(variant B). Regressors and estimators predict one value per row of an
(n, d) matrix, and every policy takes the argmin of an (n, m) score
matrix, so ties always go to the lowest treatment index.
"""

import logging
from dataclasses import dataclass

import numpy as np

from ._nearest import row_norms, screen
from .data import _arms
from .errors import ConfigError, DomainError, _check_int, _check_keys
from .risk import _BatchPolicy, _matrix

logger = logging.getLogger(__name__)

# query rows x training points x features of one exact kNN distance
# block, so the block's float64 temporary stays at 128 KB for any query
# count
_KNN_BUDGET = 1 << 14


class OlsRegressor:
    """Least squares with intercept; ridge fallback on singular designs.

    When the normal matrix is not positive definite, a ridge of
    1e-8 * trace(X'X)/d is added before solving.
    """

    def __init__(self):
        self.weights = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        A = np.hstack([np.ones((len(X), 1)), X])
        G = A.T @ A
        b = A.T @ y
        try:
            c = np.linalg.cholesky(G)
            w = np.linalg.solve(c.T, np.linalg.solve(c, b))
        except np.linalg.LinAlgError:
            d = max(1, X.shape[1])
            lam = 1e-8 * float(np.trace(X.T @ X)) / d
            if lam == 0.0:
                lam = 1e-8
            w = np.linalg.solve(G + lam * np.eye(G.shape[0]), b)
        self.weights = w
        return self

    def predict(self, X):
        return self.weights[0] + _matrix(X) @ self.weights[1:]


def _masked_means(y, near):
    """Mean of y over each row's marked points, summed in index order as
    `y[near[r]].mean()` does: one gather per neighbour count."""
    counts = near.sum(axis=1)
    out = np.empty(len(near))
    for c in np.unique(counts):
        rows = np.flatnonzero(counts == c)
        out[rows] = y[np.nonzero(near[rows])[1].reshape(len(rows), c)].mean(axis=1)
    return out


class KnnRegressor:
    """k-nearest-neighbor mean outcome on standardized features.

    k defaults to floor(sqrt(n)) of the fitted sample. All points tied
    with the k-th smallest distance are included in the average, so the
    prediction does not depend on sort order among co-distant points.

    The exact distances are those of one pass per query row, the square
    root of the summed squared differences. `predict` screens each block
    of queries with one Gram product first (`_nearest.screen`): a row
    whose k nearest points are certain under a proven rounding margin
    takes them, and every other row, ties included, is recomputed by the
    exact pass, so predictions equal the exact pass's bit for bit.
    """

    def __init__(self, k=None):
        self.k = _check_int("k", k, 1, none_ok=True)
        self.x = None
        self.y = None
        self.center = None
        self.scale = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if len(X) == 0:
            raise DomainError("knn needs at least one training point")
        self.center = X.mean(axis=0)
        sd = X.std(axis=0, ddof=1) if len(X) > 1 else np.zeros(X.shape[1])
        self.scale = np.where(sd > 0, sd, 1.0)
        self.x = (X - self.center) / self.scale
        self.y = y
        if self.k is None:
            self.k = max(1, int(np.sqrt(len(X))))
        self.k = min(self.k, len(X))
        return self

    def predict(self, X):
        Z = (_matrix(X) - self.center) / self.scale
        out = np.empty(len(Z))
        rescored = 0
        for start, near, settled in screen(Z, row_norms(Z), self.x, row_norms(self.x), self.k):
            redo = np.flatnonzero(~settled)
            if redo.size:
                near[redo] = self._near(Z[start + redo])
                rescored += redo.size
            out[start : start + len(near)] = _masked_means(self.y, near)
        logger.debug("knn: %d of %d rows rescored exactly", rescored, len(Z))
        return out

    def _near(self, Z):
        """Neighbour masks by the exact arithmetic, one distance pass per
        row: every training point no farther than the k-th nearest."""
        near = np.empty((len(Z), len(self.x)), dtype=bool)
        step = max(1, _KNN_BUDGET // self.x.size)
        for lo in range(0, len(Z), step):
            diff = self.x[None] - Z[lo : lo + step, None]
            dist = np.sqrt(np.square(diff, out=diff).sum(axis=2))
            boundary = np.partition(dist, self.k - 1, axis=1)[:, self.k - 1, None]
            near[lo : lo + len(dist)] = dist <= boundary
        return near


_REGRESSORS = {"ols": OlsRegressor, "knn": KnnRegressor}


def make_regressor(base, params=None):
    """Regressor factory by identifier ("ols" or "knn").

    params are the regressor's constructor arguments: "k" for knn, none
    for ols. An unknown key or a bad value raises ConfigError here, not
    at the first fit.
    """
    if base not in _REGRESSORS:
        raise ConfigError(f"unknown regressor {base!r} (known: ols, knn)")
    params = dict(params or {})
    _check_keys(base, params, ("k",) if base == "knn" else ())
    cls = _REGRESSORS[base]
    cls(**params)
    return lambda: cls(**params)


@dataclass(frozen=True)
class RcPolicy(_BatchPolicy):
    """One regressor per arm; prescribes the smallest predicted outcome."""

    regressors: tuple
    m: int
    d: int
    base: str = "ols"

    def predictions(self, X):
        """(n, m) predicted outcome of every arm for each row of X."""
        return np.column_stack([r.predict(X) for r in self.regressors])

    def predict_many(self, X):
        return np.argmin(self.predictions(X), axis=1) + 1


def fit_rc(ds, regressor_factory=None, base="ols"):
    """Fit regress-and-compare; every arm needs at least one subject.

    regressor_factory: optional hook () -> regressor whose `fit(X, y)`
    returns itself and whose `predict(X)` gives one value per row."""
    factory = regressor_factory or make_regressor(base)
    regs = [factory().fit(ds.X[rows], ds.Y[rows]) for rows in _arms(ds)]
    return RcPolicy(regressors=tuple(regs), m=ds.m, d=ds.d, base=base)


class RegressionCate:
    """Treatment-effect estimate as a difference of two arm regressors.

    Fit on relabeled data with labels in {1, 2}; predicts, for each row
    of X, the label-2 regression minus the label-1 regression.
    """

    def __init__(self, regressor_factory):
        self.factory = regressor_factory
        self.hi = None
        self.lo = None

    def fit(self, X, labels, y):
        labels = np.asarray(labels)
        for lab in (1, 2):
            if not (labels == lab).any():
                raise DomainError(f"relabeled arm {lab} has no subjects")
        self.hi = self.factory().fit(X[labels == 2], y[labels == 2])
        self.lo = self.factory().fit(X[labels == 1], y[labels == 1])
        return self

    def predict(self, X):
        return self.hi.predict(X) - self.lo.predict(X)


def make_cate(base="ols", params=None):
    """Factory (t, s) -> fresh RegressionCate, ignoring the pair labels."""
    factory = make_regressor(base, params)
    return lambda t, s=None: RegressionCate(factory)


@dataclass(frozen=True)
class OneVsAllPolicy(_BatchPolicy):
    """Prescribes the arm with the smallest contrast against the rest."""

    estimators: tuple  # index t-1 -> estimator of arm t vs pooled rest
    m: int
    d: int
    base: str = "ols"

    def contrasts(self, X):
        """(n, m) contrast of every arm against the rest for each row of X."""
        return np.column_stack([e.predict(X) for e in self.estimators])

    def predict_many(self, X):
        return np.argmin(self.contrasts(X), axis=1) + 1


def fit_1va(ds, cate_factory=None, base="ols"):
    """Fit the one-vs-all policy.

    Args:
        ds: dataset; every treatment needs at least one subject.
        cate_factory: optional hook (t, s=None) -> estimator whose
            `fit(X, labels, y)` returns itself and whose `predict(X)`
            gives one contrast per row, as RegressionCate; tests inject
            oracles.
    """
    factory = cate_factory or make_cate(base)
    ests = []
    for t in range(1, ds.m + 1):
        labels = 1 + (ds.T == t).astype(np.int64)
        ests.append(factory(t).fit(ds.X, labels, ds.Y))
    return OneVsAllPolicy(estimators=tuple(ests), m=ds.m, d=ds.d, base=base)


@dataclass(frozen=True)
class OneVsOnePolicy(_BatchPolicy):
    """Pairwise-contrast policy.

    Variant "A" prescribes the arm whose smallest pairwise contrast is
    smallest; variant "B" the arm that wins the most pairwise
    comparisons (contrast below zero)."""

    estimators: dict  # (t, s) -> estimator of arm t vs arm s
    m: int
    d: int
    variant: str = "A"
    base: str = "ols"

    def contrast(self, t, s, X):
        """Contrast of arm t against arm s for each row of X."""
        return self.estimators[(t, s)].predict(X)

    def predict_many(self, X):
        X = np.asarray(X, dtype=np.float64)
        arms = range(1, self.m + 1)
        pair = np.array([[self.contrast(t, s, X) for s in arms if s != t] for t in arms])
        pair = pair.reshape(self.m, self.m - 1, len(X))  # (arm t, rival s, row)
        if self.variant == "A":
            return np.argmin(pair.min(axis=1, initial=np.inf), axis=0) + 1
        return np.argmin(-(pair < 0.0).sum(axis=1), axis=0) + 1


def fit_1v1(ds, cate_factory=None, base="ols", variant="A"):
    """Fit a one-vs-one policy over every ordered treatment pair.

    cate_factory: optional hook (t, s) -> estimator of arm t vs arm s,
    with the contract described in `fit_1va`."""
    if variant not in ("A", "B"):
        raise ConfigError("variant must be 'A' or 'B'")
    factory = cate_factory or make_cate(base)
    _arms(ds)  # every arm has subjects, even where m = 1 leaves no pair to fit
    ests = {}
    for t in range(1, ds.m + 1):
        for s in range(1, ds.m + 1):
            if s == t:
                continue
            rows = np.flatnonzero((ds.T == t) | (ds.T == s))
            labels = 1 + (ds.T[rows] == t).astype(np.int64)
            ests[(t, s)] = factory(t, s).fit(ds.X[rows], labels, ds.Y[rows])
    return OneVsOnePolicy(estimators=ests, m=ds.m, d=ds.d, variant=variant, base=base)

