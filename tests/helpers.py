"""Shared builders for the test suite."""

import numpy as np

from perstrees.data import Dataset


def random_dataset(rng, n, d, m, with_cf=False, with_q=False, all_arms=False):
    """A dataset of standard-normal covariates and outcomes.

    all_arms forces every treatment to appear at least once (requires
    n >= m).
    """
    X = rng.normal(size=(n, d))
    T = rng.integers(1, m + 1, size=n)
    if all_arms:
        pos = rng.permutation(n)[:m]
        T[pos] = np.arange(1, m + 1)
    CF = rng.normal(size=(n, m)) if with_cf else None
    if with_cf:
        Y = CF[np.arange(n), T - 1]
    else:
        Y = rng.normal(size=n)
    Q = rng.uniform(0.05, 1.0, size=n) if with_q else None
    return Dataset(X=X, T=T, Y=Y, m=m, CF=CF, Q=Q)


# 1 + 2**-52 and its upper neighbour: their midpoint (lo + hi) / 2 rounds
# onto hi, so a cut there must take lo as its threshold
ADJACENT = (1.0000000000000002, 1.0000000000000004)


def adjacent_floats():
    """Four rows, one of each of two arms at each of the ADJACENT values;
    the one cut between the values leaves both arms on each side."""
    lo, hi = ADJACENT
    return Dataset(
        X=np.array([[lo], [lo], [hi], [hi]]),
        T=np.array([1, 2, 1, 2]),
        Y=np.array([1.0, 2.0, 3.0, 4.0]),
        m=2,
    )


def margin_rows(draw, st, rng, n, d):
    """n x d rows aimed at the nearest-neighbour screens' margins: normal
    or grid values, scaled by 1 or 1e-3 and put on a common offset of 0,
    1e6 or 1e12, where some rows copy an earlier row and some lie one ulp
    above one. draw and st are hypothesis's, so the shape of the rows
    shrinks with the example."""
    if draw(st.booleans()):
        X = rng.normal(size=(n, d))
    else:
        X = rng.integers(-1, 3, size=(n, d)).astype(float)
    X = X * draw(st.sampled_from([1.0, 1e-3])) + draw(st.sampled_from([0.0, 1e6, 1e12]))
    copies, ulps = draw(st.sampled_from([0.0, 0.3])), draw(st.sampled_from([0.0, 0.3]))
    for i in range(1, n):
        u = rng.random()
        if u < copies + ulps:
            X[i] = X[rng.integers(0, i)]
            if u >= copies:
                X[i] = np.nextafter(X[i], np.inf)
    return X


def leaf_argmin_policy(ds, leaf_of):
    """Per-leaf argmin-mean prescriptions for a fixed leaf labeling."""
    n_leaves = int(leaf_of.max())
    choice = {}
    for leaf in range(1, n_leaves + 1):
        rows = np.flatnonzero(leaf_of == leaf)
        means = np.full(ds.m, np.inf)
        for t in range(1, ds.m + 1):
            sel = rows[ds.T[rows] == t]
            if sel.size:
                means[t - 1] = ds.Y[sel].mean()
        choice[leaf] = int(np.argmin(means)) + 1
    return choice


def to_scipy(A):
    """A model's CscMatrix as a scipy.sparse.csc_array over the same arrays."""
    from scipy import sparse

    return sparse.csc_array((A.data, A.indices, A.indptr), shape=A.shape)
