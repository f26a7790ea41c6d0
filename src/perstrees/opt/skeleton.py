"""Complete-tree skeletons and candidate cut menus for exact search.

The skeleton of depth delta is a complete binary tree in heap order:
internal nodes 1..2^delta - 1, leaves 2^delta..2^(delta+1) - 1, node p's
children 2p and 2p + 1. Rows are routed by heap arithmetic, one gather
per level from feature and threshold arrays holding node p's cut at
index p - 1: a row at p moves to 2p when x[feature] <= threshold and to
2p + 1 otherwise (so NaN goes right), as in fitted trees.

Each internal node gets a finite menu of candidate cuts: for each of
n_features randomly drawn features, the cuts between consecutive
distinct values of the full-data sorted order at roughly n_cuts evenly
spaced positions, with the thresholds greedy trees use (`tree._cut`).
"""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, EmptyMenuError, _check_int
from ..seeding import make_rng
from ..tree import _cut, _features_drawn


@dataclass(frozen=True)
class OptConfig:
    """Exact-search settings.

    Attributes:
        delta: exact tree depth, an integer (every leaf sits at this depth).
        n_min_leaf: minimum subjects of every treatment in every leaf.
        n_features: features drawn per node menu; None means all.
        n_cuts: target number of cut positions per feature.
        work_limit: most bottom-node passes solve_exact runs, an integer
            >= 0; None means unlimited. Screens are not counted.
        seed: seed for menu feature draws and warm-start padding.
    """

    delta: int = 2
    n_min_leaf: int = 20
    n_features: int = None
    n_cuts: int = 10
    work_limit: int = None
    seed: int = 0

    def __post_init__(self):
        _check_int("delta", self.delta, 1)
        _check_int("n_min_leaf", self.n_min_leaf, 1)
        _check_int("n_features", self.n_features, 1, none_ok=True)
        _check_int("n_cuts", self.n_cuts, 1)
        _check_int("work_limit", self.work_limit, 0, none_ok=True)
        _check_int("seed", self.seed, 0)


@dataclass(frozen=True)
class TreeSkeleton:
    """Node layout of a complete binary tree of the given depth."""

    delta: int

    def __post_init__(self):
        _check_int("delta", self.delta, 1)

    @property
    def internal_nodes(self):
        return tuple(range(1, 2**self.delta))

    @property
    def leaves(self):
        return tuple(range(2**self.delta, 2 ** (self.delta + 1)))

    def path_to(self, leaf):
        """Ancestors of a leaf, root first, as (node, direction) pairs.

        direction is +1 when the path takes the right child at that
        ancestor, -1 when it takes the left child.
        """
        path = []
        for j in range(self.delta, 0, -1):
            q = leaf >> j
            step = leaf >> (j - 1)
            path.append((q, +1 if step == 2 * q + 1 else -1))
        return path

    def _check_nodes(self, name, seq):
        """ConfigError unless seq holds one entry per internal node."""
        n = 2**self.delta - 1
        if len(seq) != n:
            raise ConfigError(f"{name} has {len(seq)} nodes, a depth-{self.delta} skeleton has {n}")

    def _check_fit(self, menu, config):
        """ConfigError unless the menu has one entry per internal node and
        config.delta is this skeleton's depth."""
        self._check_nodes("menu", menu.cuts)
        if config.delta != self.delta:
            raise ConfigError(f"config delta {config.delta} does not match the depth-{self.delta} skeleton")

    def route_many(self, X, cuts):
        """Leaf id (heap numbering) of every row of X under the given cuts;
        ConfigError unless each internal node has one, on a column of X."""
        self._check_nodes("the cut list", cuts)
        X = np.asarray(X, dtype=np.float64)
        last = X.shape[1] - 1
        feature = np.array([_check_int("cut feature", f, 0, maximum=last) for f, _ in cuts], dtype=np.intp)
        threshold = np.array([theta for _, theta in cuts], dtype=np.float64)
        rows = np.arange(len(X))
        p = 2 + ~(X[:, feature[0]] <= threshold[0])  # the root's children
        for _ in range(self.delta - 1):
            q = p - 1
            p += p + ~(X[rows, feature[q]] <= threshold[q])
        return p


@dataclass(frozen=True)
class CutMenu:
    """Candidate cuts per internal node; cuts[p - 1] lists (feature,
    threshold) pairs in menu order."""

    cuts: tuple

    def for_node(self, p):
        return self.cuts[p - 1]


def cut_positions(n, n_cuts):
    """Sorted-order positions at which cut thresholds are taken.

    Position j separates the first j sorted points from the rest. The
    grid is {1} plus every multiple of ceil((n - 1) / n_cuts) up to
    n - 1, giving roughly n_cuts positions, and all n - 1 positions once
    n_cuts >= n - 1.
    """
    if n < 2:
        return []
    step = math.ceil((n - 1) / n_cuts)
    grid = {1}
    grid.update(range(step, n, step))
    return sorted(grid)


def build_cut_menu(ds, skeleton, config):
    """Draw per-node features and build each node's cut menu.

    Features are drawn node by node in ascending node order from one
    generator seeded by config.seed. At each grid position the straddling
    sorted values lo < hi of feature f give the cut (f, `_cut(lo, hi)`),
    and equal ones none; f's thresholds ascend strictly, so none repeats.

    Raises:
        EmptyMenuError: some node ends up with no candidate cuts.
    """
    n_features = _features_drawn(config.n_features, ds.d, ds.d)
    positions = np.array(cut_positions(ds.n, config.n_cuts), dtype=np.intp)
    thresholds = {}
    rng = make_rng(config.seed)
    menus = []
    for p in skeleton.internal_nodes:
        feats = rng.choice(ds.d, size=n_features, replace=False)
        cuts = []
        for f in feats.tolist():
            if f not in thresholds:
                xs = np.sort(ds.X[:, f])
                lo, hi = xs[positions - 1], xs[positions]
                thresholds[f] = _cut(lo, hi)[lo < hi].tolist()
            cuts += [(f, theta) for theta in thresholds[f]]
        if not cuts:
            raise EmptyMenuError(f"node {p}: no candidate cuts (features {feats.tolist()})")
        menus.append(tuple(cuts))
    return CutMenu(cuts=tuple(menus))
