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
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SchemaError
from .risk import _best_of_stats, _counts_and_sums
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
        if self.n_min_leaf < 1:
            raise ConfigError("n_min_leaf must be at least 1")
        if self.delta_max is not None and self.delta_max < 0:
            raise ConfigError("delta_max must be non-negative")
        if self.n_features is not None and self.n_features < 1:
            raise ConfigError("n_features must be positive")


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


@dataclass(frozen=True)
class TreeNode:
    """Internal node (split, left, right) or leaf (treatment, counts, means)."""

    split: Split = None
    left: "TreeNode" = None
    right: "TreeNode" = None
    treatment: int = None
    counts: tuple = None
    means: tuple = None

    @property
    def is_leaf(self):
        return self.split is None


def _leaf(ds, idx, config):
    counts, sums = _counts_and_sums(ds.T[idx], ds.Y[idx], ds.m)
    means = np.divide(sums, counts, out=np.full(ds.m, np.nan), where=counts > 0)
    treatment, _ = _best_of_stats(
        counts, sums, scarce_mode=config.scarce_mode, n_min_leaf=config.n_min_leaf
    )
    return TreeNode(treatment=treatment, counts=tuple(counts.tolist()), means=tuple(means.tolist()))


def _grow(ds, idx, rows, depth, config, rng, n_features, marks):
    """Grow the subtree of rows `idx` (ascending) with presort `rows`.

    `rows` is the d x k presort `best_split` takes; the caller keeps no
    reference to it, so it is freed before the subtrees grow. `marks` is
    an all-False scratch mask over the dataset's rows.
    """
    if config.delta_max is not None and depth >= config.delta_max:
        return _leaf(ds, idx, config)
    features = rng.choice(ds.d, size=n_features, replace=False)
    split = best_split(ds, idx, features, config, _presorted=rows)
    if split is None:
        return _leaf(ds, idx, config)
    mask = ds.X[idx, split.feature] <= split.threshold
    left_idx, right_idx = idx[mask], idx[~mask]
    # a stable order filtered to a subset is the subset's stable order
    marks[left_idx] = True
    goes_left = marks[rows]
    marks[left_idx] = False
    # popped into the calls, so each child holds its presort's only reference
    parts = [rows[~goes_left].reshape(ds.d, right_idx.size),
             rows[goes_left].reshape(ds.d, left_idx.size)]
    del rows, goes_left
    left = _grow(ds, left_idx, parts.pop(), depth + 1, config, rng, n_features, marks)
    right = _grow(ds, right_idx, parts.pop(), depth + 1, config, rng, n_features, marks)
    return TreeNode(split=split, left=left, right=right)


def fit_pt(ds, config=None):
    """Grow a personalization tree on the full dataset.

    Feature draws consume the seeded generator in pre-order (node, left
    subtree, right subtree), so identical data and config reproduce the
    tree exactly.
    """
    config = config or PtConfig()
    if ds.n == 0:
        raise ConfigError("cannot fit a tree on an empty dataset")
    n_features = ds.d if config.n_features is None else config.n_features
    if not 1 <= n_features <= ds.d:
        raise ConfigError(f"n_features must lie in 1..{ds.d}")
    rng = make_rng(config.seed)
    marks = np.zeros(ds.n, dtype=bool)
    root = _grow(
        ds, np.arange(ds.n), np.argsort(ds.X.T, axis=1, kind="stable"),
        0, config, rng, n_features, marks,
    )
    return PersonalizationTree(root=root, m=ds.m, d=ds.d)


@dataclass(frozen=True)
class PersonalizationTree:
    """Fitted tree policy."""

    root: TreeNode
    m: int
    d: int

    def prescribe(self, x):
        node = self.root
        while not node.is_leaf:
            if x[node.split.feature] <= node.split.threshold:
                node = node.left
            else:
                node = node.right
        return node.treatment

    # alias: trees are predictors as well as policies
    predict = prescribe

    def predict_many(self, X):
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(len(X), dtype=np.int64)

        def route(node, rows):
            if rows.size == 0:
                return
            if node.is_leaf:
                out[rows] = node.treatment
                return
            mask = X[rows, node.split.feature] <= node.split.threshold
            route(node.left, rows[mask])
            route(node.right, rows[~mask])

        route(self.root, np.arange(len(X)))
        return out

    def leaf_ids(self, X):
        """Leaf index in 1..n_leaves (left-to-right order) for each row."""
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(len(X), dtype=np.int64)
        counter = [0]

        def route(node, rows):
            if node.is_leaf:
                counter[0] += 1
                out[rows] = counter[0]
                return
            mask = X[rows, node.split.feature] <= node.split.threshold
            route(node.left, rows[mask])
            route(node.right, rows[~mask])

        route(self.root, np.arange(len(X)))
        return out

    @property
    def n_leaves(self):
        def count(node):
            return 1 if node.is_leaf else count(node.left) + count(node.right)

        return count(self.root)

    @property
    def depth(self):
        def deep(node):
            return 0 if node.is_leaf else 1 + max(deep(node.left), deep(node.right))

        return deep(self.root)


def _node_to_doc(node):
    if node.is_leaf:
        means = [None if np.isnan(v) else float(v) for v in node.means]
        return {
            "leaf": {
                "treatment": int(node.treatment),
                "counts": [int(c) for c in node.counts],
                "means": means,
            }
        }
    return {
        "split": {"feature": int(node.split.feature), "threshold": float(node.split.threshold)},
        "left": _node_to_doc(node.left),
        "right": _node_to_doc(node.right),
    }


def _node_from_doc(doc, m):
    if "leaf" in doc:
        leaf = doc["leaf"]
        counts = leaf["counts"]
        means = leaf["means"]
        if len(counts) != m or len(means) != m:
            raise SchemaError("leaf counts/means must have one entry per treatment")
        if not 1 <= leaf["treatment"] <= m:
            raise SchemaError("leaf treatment out of range")
        return TreeNode(
            treatment=int(leaf["treatment"]),
            counts=tuple(int(c) for c in counts),
            means=tuple(float("nan") if v is None else float(v) for v in means),
        )
    if "split" not in doc:
        raise SchemaError("tree node must hold either a split or a leaf")
    sp = doc["split"]
    return TreeNode(
        split=Split(feature=int(sp["feature"]), threshold=float(sp["threshold"]), impurity=0.0),
        left=_node_from_doc(doc["left"], m),
        right=_node_from_doc(doc["right"], m),
    )


def tree_to_doc(tree):
    """JSON-ready document for a fitted tree."""
    return {"kind": "pt", "m": int(tree.m), "d": int(tree.d), "root": _node_to_doc(tree.root)}


def tree_from_doc(doc):
    if doc.get("kind") != "pt":
        raise SchemaError(f"expected a pt document, got kind {doc.get('kind')!r}")
    m = int(doc["m"])
    return PersonalizationTree(root=_node_from_doc(doc["root"], m), m=m, d=int(doc["d"]))


def save_tree(tree, path):
    with open(path, "w") as fh:
        json.dump(tree_to_doc(tree), fh, indent=2)
        fh.write("\n")


def load_tree(path):
    with open(path) as fh:
        return tree_from_doc(json.load(fh))
