"""Complete-tree skeletons and candidate cut menus for exact search.

The skeleton of depth delta is a complete binary tree in heap order:
internal nodes 1..2^delta - 1, leaves 2^delta..2^(delta+1) - 1, node p's
children 2p and 2p + 1. Rows are routed by heap arithmetic, one gather
per level from feature and threshold arrays holding node p's cut at
index p - 1: a row at p moves to 2p when x[feature] <= threshold and to
2p + 1 otherwise (so NaN goes right), as in fitted trees.

Each internal node gets a finite menu of candidate cuts: for each of
n_features randomly drawn features, midpoints of consecutive distinct
values of the full-data sorted order at roughly n_cuts evenly spaced
positions.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, EmptyMenuError, _check_int
from ..seeding import make_rng


@dataclass(frozen=True)
class OptConfig:
    """Exact-search settings.

    Attributes:
        delta: exact tree depth, an integer (every leaf sits at this depth).
        n_min_leaf: minimum subjects of every treatment in every leaf.
        n_features: features drawn per node menu; None means all.
        n_cuts: target number of cut positions per feature.
        time_limit: wall-clock budget in seconds for solve_exact, a
            number >= 0 (not NaN); None means unlimited.
        seed: seed for menu feature draws and warm-start padding.
    """

    delta: int = 2
    n_min_leaf: int = 20
    n_features: int = None
    n_cuts: int = 10
    time_limit: float = None
    seed: int = 0

    def __post_init__(self):
        _check_int("delta", self.delta, 1)
        _check_int("n_min_leaf", self.n_min_leaf, 1)
        _check_int("n_features", self.n_features, 1, none_ok=True)
        _check_int("n_cuts", self.n_cuts, 1)
        limit = self.time_limit
        if limit is not None and (
            isinstance(limit, bool) or not isinstance(limit, numbers.Real) or not limit >= 0
        ):
            raise ConfigError(f"time_limit must be None or a number >= 0, got {limit!r}")
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
    generator seeded by config.seed. Thresholds are midpoints between
    consecutive distinct sorted values at the grid positions; a feature
    whose straddling values coincide at a position contributes no cut
    there, and duplicate (feature, threshold) pairs are dropped.

    Raises:
        EmptyMenuError: some node ends up with no candidate cuts.
    """
    n_features = _check_int("n_features", config.n_features or ds.d, 1, maximum=ds.d)
    positions = cut_positions(ds.n, config.n_cuts)
    sorted_cols = {}
    rng = make_rng(config.seed)
    menus = []
    for p in skeleton.internal_nodes:
        feats = rng.choice(ds.d, size=n_features, replace=False)
        cuts = []
        seen = set()
        for f in feats:
            f = int(f)
            if f not in sorted_cols:
                sorted_cols[f] = np.sort(ds.X[:, f])
            xs = sorted_cols[f]
            for j in positions:
                if xs[j - 1] < xs[j]:
                    theta = float((xs[j - 1] + xs[j]) / 2.0)
                    if (f, theta) not in seen:
                        seen.add((f, theta))
                        cuts.append((f, theta))
        if not cuts:
            raise EmptyMenuError(f"node {p}: no candidate cuts (features {feats.tolist()})")
        menus.append(tuple(cuts))
    return CutMenu(cuts=tuple(menus))
