"""Greedy personalization trees.

A tree is grown by recursive partitioning: at each node a random subset
of features is drawn, every strict-gap cut position along each drawn
feature is scored by the summed impurity of the two sides, and the best
feasible cut is taken. Splitting continues while feasible cuts exist and
the depth bound allows; leaves prescribe the treatment with the smallest
mean outcome among their eligible treatments.

Each feature is sorted once per fit (a stable argsort of every column).
A node holds its rows in that order for every feature, a d x k index
array; a split hands each child the rows of this array that fall on its
side, and filtering a stable order keeps it stable, so no node sorts
again. The sweep moves one point at a time from the right side to the
left along each order, keeping per-treatment counts and outcome sums as
prefix sums. All drawn features of a node are swept in one vectorised
pass, up to a budget of feature-by-row cells per pass; larger nodes
take one feature per pass, which bounds the sweep's memory.

A fitted tree is a set of parallel node arrays (`PersonalizationTree`)
in pre-order: every parent precedes its children and the leaves appear
left to right. `_build` is the one walk that builds such arrays (greedy
fits, model files, exact solutions) and `_route` the one that sends rows
down them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SchemaError, _check_int, _check_number, _check_shape
from .risk import _BatchPolicy, _best_of_stats, _counts_and_sums
from .seeding import make_rng


@dataclass(frozen=True)
class PtConfig:
    """Tree-growing settings.

    Attributes:
        n_min_leaf: minimum subjects per treatment on each side of a cut
            (strict mode), or the eligibility threshold for a treatment
            to be prescribable (scarce mode).
        delta_max: depth bound; None means unbounded.
        n_features: features drawn per node; None means all.
        scarce_mode: allow nodes missing some treatments, prescribing
            only among treatments with at least n_min_leaf subjects.
        seed: seed for the per-node feature draws.
    """

    n_min_leaf: int = 1
    delta_max: int = None
    n_features: int = None
    scarce_mode: bool = False
    seed: int = 0

    def __post_init__(self):
        _check_int("n_min_leaf", self.n_min_leaf, 1)
        _check_int("delta_max", self.delta_max, 0, none_ok=True)
        _check_int("n_features", self.n_features, 1, none_ok=True)
        if not isinstance(self.scarce_mode, bool):
            raise ConfigError(f"scarce_mode must be true or false, got {self.scarce_mode!r}")
        _check_int("seed", self.seed, 0)


@dataclass(frozen=True)
class Split:
    """A chosen cut: route left iff x[feature] <= threshold."""

    feature: int
    threshold: float
    impurity: float


# Most feature-by-row cells one vectorised sweep may hold. Small nodes
# sweep all drawn features in one call; a node above the budget is swept
# one feature per call, so its arrays stay those of a single feature.
_SWEEP_BUDGET = 4096


def _sweep(xs, ts, ys, m, n_min_leaf, scarce_mode):
    """Score every cut position of F presorted features at once.

    xs, ts, ys are (F, k) arrays: covariate, treatment and outcome of the
    node's rows, each row of the arrays in ascending order of its
    feature. Position j (1..k-1) puts the first j of them on the left.

    Returns a dict: "sides", a (2, 2m, F, k-1) array holding, for the
    left then the right side of each cut, the per-treatment counts
    (first m) and outcome sums (last m); and (F, k-1) arrays "gap"
    (strict gap at the cut), "feasible" and "impurity" (side sizes
    times their smallest eligible mean, summed). Treatments lead the
    layout so the reductions over them run on whole contiguous planes.
    """
    F, k = xs.shape
    onehot = ts == np.arange(1, m + 1)[:, None, None]
    # counts ride along as floats (small integers, so exact), so one
    # prefix-sum pass serves counts and sums; sides[1] is its scratch input
    sides = np.empty((2, 2 * m, F, k))
    sides[1, :m] = onehot
    sides[1, m:] = np.where(onehot, ys, 0.0)
    np.cumsum(sides[1], axis=2, out=sides[0])
    np.subtract(sides[0, :, :, -1:], sides[0], out=sides[1])
    # position j keeps the first j rows on the left; j = k is no cut
    sides = sides[:, :, :, :-1]
    counts, sums = sides[:, :m], sides[:, m:]
    # scarce mode takes a side's minimum over its eligible treatments only
    valid = counts >= n_min_leaf if scarce_mode else counts > 0
    means = np.divide(sums, counts, out=np.full(counts.shape, np.inf), where=valid)
    defined = valid.any(axis=1) if scarce_mode else (counts >= n_min_leaf).all(axis=1)
    side_min = means.min(axis=1)
    gap = xs[:, :-1] < xs[:, 1:]
    k_left = np.arange(1, k, dtype=np.float64)
    return {
        "sides": sides,
        "gap": gap,
        "feasible": defined[0] & defined[1] & gap,
        "impurity": k_left * side_min[0] + (k - k_left) * side_min[1],
    }


def sweep_feature(x, t, y, m, n_min_leaf, scarce_mode=False):
    """Score every cut position along one feature.

    Position j (1..k-1) puts the first j points of the sorted order on
    the left. Returns a dict of arrays over positions: the sort order,
    left/right per-treatment counts and outcome sums, the strict-gap
    mask, the feasibility mask, the candidate impurity I, and the
    midpoint thresholds. A one-feature view of the kernel `best_split`
    runs on presorted rows, exposed for instrumentation and tests.
    """
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ts = np.asarray(t, dtype=np.int64)[order]
    ys = np.asarray(y, dtype=np.float64)[order]
    sweep = _sweep(xs[None], ts[None], ys[None], m, n_min_leaf, scarce_mode)
    sides = sweep["sides"][:, :, 0].transpose(0, 2, 1)  # (2, k-1, 2m)
    counts = sides[:, :, :m].astype(np.int64)
    return {
        "order": order,
        "counts_left": counts[0],
        "sums_left": sides[0, :, m:],
        "counts_right": counts[1],
        "sums_right": sides[1, :, m:],
        "gap": sweep["gap"][0],
        "feasible": sweep["feasible"][0],
        "impurity": sweep["impurity"][0],
        "threshold": (xs[:-1] + xs[1:]) / 2.0,
    }


def best_split(ds, indices, features, config, _presorted=None):
    """Best feasible cut for a node subsample, or None.

    Features are scanned in the given order, positions in ascending
    order; ties keep the first candidate encountered. Scores assume
    finite data, which `Dataset` enforces.

    Args:
        ds: dataset.
        indices: rows belonging to the node.
        features: feature ids to consider, in draw order.
        config: PtConfig.
        _presorted: for `fit_pt` only: a d x k array whose row f holds
            the node's rows in stable ascending order of feature f.
            Without it the drawn features are argsorted here.

    Returns:
        Split or None when no feasible cut exists.
    """
    idx = np.asarray(indices, dtype=np.int64)
    features = np.asarray(features, dtype=np.int64)
    # each side of a cut needs n_min_leaf of every treatment (strict) or
    # of some treatment (scarce); a node short of twice that cannot split
    need = 2 * config.n_min_leaf
    if config.scarce_mode:
        if idx.size < need:
            return None
    elif np.bincount(ds.T[idx] - 1, minlength=ds.m).min() < need:
        return None
    if _presorted is None:
        rows = idx[np.argsort(ds.X[idx][:, features].T, axis=1, kind="stable")]
    else:
        rows = _presorted[features]
    step = max(1, _SWEEP_BUDGET // idx.size)
    best = None
    for lo in range(0, features.size, step):
        chunk = rows[lo:lo + step]
        xs = ds.X[chunk, features[lo:lo + step, None]]
        sweep = _sweep(xs, ds.T[chunk], ds.Y[chunk], ds.m, config.n_min_leaf, config.scarce_mode)
        score = np.where(sweep["feasible"], sweep["impurity"], np.inf)
        f, pos = divmod(int(np.argmin(score)), score.shape[1])
        value = score[f, pos]
        if np.isfinite(value) and (best is None or value < best.impurity):
            best = Split(
                feature=int(features[lo + f]),
                threshold=float((xs[f, pos] + xs[f, pos + 1]) / 2.0),
                impurity=float(value),
            )
    return best


def _route(X, feature, threshold, left, right):
    """Node each row of X reaches in a tree of parallel node arrays.

    At split node i (left[i] >= 0) a row goes to left[i] when its
    feature[i] value is <= threshold[i], else to right[i]. Rows descend
    one level per step and leave the active set at a leaf, where their
    node is written. Every fitted tree routes through this one function.
    """
    X = np.asarray(X, dtype=np.float64)
    split = left >= 0
    node = np.zeros(len(X), dtype=np.int64)
    active = np.flatnonzero(split[node])
    at = node[active]
    while active.size:
        at = np.where(X[active, feature[at]] <= threshold[at], left[at], right[at])
        inner = split[at]
        if np.count_nonzero(inner) == inner.size:  # no row reached a leaf
            continue
        node[active] = at
        active, at = active[inner], at[inner]
    return node


@dataclass(frozen=True, eq=False)
class PersonalizationTree(_BatchPolicy):
    """Fitted tree policy: parallel arrays with one entry per node.

    Node i is a split when left[i] >= 0, routing by feature[i] and
    threshold[i] to left[i] or right[i]. Otherwise it is a leaf
    prescribing treatment[i], fit on counts[i] subjects of each treatment
    with mean outcomes means[i] (NaN where a treatment is absent); counts
    and means are (nodes, m). Unused entries hold -1, NaN or 0.

    Nodes are in pre-order, as `_build` numbers them: every parent comes
    before its children and the leaves appear in left-to-right order, so
    node 0 is the root and leaf ranks follow the array.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    treatment: np.ndarray
    counts: np.ndarray
    means: np.ndarray
    m: int
    d: int

    def predict_many(self, X):
        return self.treatment[_route(X, self.feature, self.threshold, self.left, self.right)]

    def leaf_ids(self, X):
        """Leaf index in 1..n_leaves (left-to-right order) for each row."""
        node = _route(X, self.feature, self.threshold, self.left, self.right)
        return np.cumsum(self.left < 0)[node]

    @property
    def n_leaves(self):
        return int(np.count_nonzero(self.left < 0))

    @property
    def depth(self):
        level = np.zeros(self.left.size, dtype=np.int64)
        for i in np.flatnonzero(self.left >= 0):  # parents come first
            level[self.left[i]] = level[self.right[i]] = level[i] + 1
        return int(level.max())


def _build(root, expand, m, d):
    """Tree of the nodes `expand` gives, walked in pre-order from the root
    item on an explicit stack. expand(item) returns a leaf (treatment,
    counts, means) or a split (feature, threshold, left item, right item).
    Nodes are numbered parents first and leaves left to right, and an item
    waiting on the stack is held there alone. Each node records its
    parent's link, and one scatter fills left and right.
    """
    feature, threshold, links, leaves = [], [], [], []
    stack, root = [(root, -1)], None
    while stack:
        item, link = stack.pop()
        node = expand(item)
        links.append(link)
        if len(node) == 3:
            leaves.append((len(feature), *node))
            node = (-1, np.nan)
        else:
            stack += ((node[3], 2 * len(feature) + 1), (node[2], 2 * len(feature)))
        feature.append(node[0])
        threshold.append(node[1])
    n = len(feature)
    children = np.full((2, n), -1, dtype=np.int64)
    link = np.array(links[1:], dtype=np.int64)
    children[link & 1, link >> 1] = np.arange(1, n)
    at, *stats = zip(*leaves)
    columns = np.zeros(n, dtype=np.int64), np.zeros((n, m), dtype=np.int64), np.full((n, m), np.nan)
    for column, values in zip(columns, stats):
        column[list(at)] = values
    feature = np.array(feature, dtype=np.int64)
    return PersonalizationTree(feature, np.array(threshold), *children, *columns, m=m, d=d)


def _grower(ds, config, n_features):
    """`_build`'s expand step for greedy growth, one per tree. An item is
    (idx, rows, depth): a node's rows in ascending order, the d x k
    presort `best_split` takes, and the node's depth. Each child gets the
    rows of the presort on its side, a stable order of its own rows.
    """
    rng = make_rng(config.seed)
    marks = np.zeros(ds.n, dtype=bool)  # all False between calls

    def expand(item):
        idx, rows, depth = item
        split = None
        if config.delta_max is None or depth < config.delta_max:
            features = rng.choice(ds.d, size=n_features, replace=False)
            split = best_split(ds, idx, features, config, _presorted=rows)
        if split is None:
            counts, sums = (a[0] for a in _counts_and_sums(ds.T[idx], ds.Y[idx], ds.m))
            means = np.divide(sums, counts, out=np.full(ds.m, np.nan), where=counts > 0)
            treatment, _ = _best_of_stats(counts, sums, config.scarce_mode, config.n_min_leaf)
            return treatment, counts, means
        mask = ds.X[idx, split.feature] <= split.threshold
        left_idx, right_idx = idx[mask], idx[~mask]
        marks[left_idx] = True
        goes_left = marks[rows]
        marks[left_idx] = False
        return (
            split.feature, split.threshold,
            (left_idx, rows[goes_left].reshape(ds.d, left_idx.size), depth + 1),
            (right_idx, rows[~goes_left].reshape(ds.d, right_idx.size), depth + 1),
        )

    return expand


def fit_pt(ds, config=None):
    """Grow a personalization tree on the full dataset.

    Feature draws consume the seeded generator in pre-order (node, left
    subtree, right subtree), so identical data and config reproduce the
    tree exactly.
    """
    config = config or PtConfig()
    if ds.n == 0:
        raise ConfigError("cannot fit a tree on an empty dataset")
    n_features = _check_int("n_features", config.n_features or ds.d, 1, maximum=ds.d)
    return _build(  # the root item goes in unnamed, so the stack alone holds its presort
        (np.arange(ds.n), np.argsort(ds.X.T, axis=1, kind="stable"), 0),
        _grower(ds, config, n_features), ds.m, ds.d,
    )


def tree_to_doc(tree):
    """JSON-ready document for a fitted tree."""
    docs = [None] * tree.left.size
    for i in reversed(range(tree.left.size)):  # children come after parents
        if tree.left[i] < 0:
            means = [None if math.isnan(v) else v for v in tree.means[i].tolist()]
            leaf = {"treatment": int(tree.treatment[i]), "counts": tree.counts[i].tolist()}
            docs[i] = {"leaf": {**leaf, "means": means}}
        else:
            split = {"feature": int(tree.feature[i]), "threshold": float(tree.threshold[i])}
            docs[i] = {"split": split, "left": docs[tree.left[i]], "right": docs[tree.right[i]]}
    return {"kind": "pt", "m": int(tree.m), "d": int(tree.d), "root": docs[0]}


def tree_from_doc(doc):
    if doc.get("kind") != "pt":
        raise SchemaError(f"expected a pt document, got kind {doc.get('kind')!r}")
    most = int(np.iinfo(np.int64).max)  # leaf counts are held as int64

    def expand(node):
        """A node document as `_build` takes it; ConfigError for a bad field."""
        if "leaf" in node:
            leaf = node["leaf"]
            counts = [_check_int("leaf counts", c, 0, maximum=most) for c in leaf["counts"]]
            means = [np.nan if v is None else _check_number("leaf means", v) for v in leaf["means"]]
            if len(counts) != m or len(means) != m:
                raise SchemaError("leaf counts/means must have one entry per treatment")
            return _check_int("leaf treatment", leaf["treatment"], 1, maximum=m), counts, means
        if "split" not in node:
            raise SchemaError("tree node must hold either a split or a leaf")
        sp = node["split"]
        feature = _check_int("split feature", sp["feature"], 0, maximum=d - 1)
        return feature, _check_number("split threshold", sp["threshold"]), node["left"], node["right"]

    try:
        m, d = _check_shape(doc)
        return _build(doc["root"], expand, m, d)
    except ConfigError as exc:
        raise SchemaError(str(exc)) from exc
