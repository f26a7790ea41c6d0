"""The complete-tree layout and candidate cut menus of exact search.

An exact tree of depth delta (OptConfig.delta, or for an assignment its
own cut count) is complete and numbered in heap order: internal nodes
1..2^delta - 1, leaves 2^delta..2^(delta+1) - 1, node p's children 2p
and 2p + 1. Menus and assignments list one cut per internal node, node p
at index p - 1. As the parallel node arrays of a fitted tree, node p
sits at index p - 1 and its children at 2p - 1 and 2p, so rows are
routed by `tree._route`: x[feature] <= threshold goes left (NaN goes
right).

Each internal node gets a finite menu of candidate cuts: for each of
n_features randomly drawn features, the cuts between consecutive
distinct values of the full-data sorted order at roughly n_cuts evenly
spaced positions, with the thresholds greedy trees use (`tree._cut`).
"""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, EmptyMenuError, InfeasibleError, _check_int
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


def _internal_nodes(delta):
    return range(1, 2**delta)


def _leaf_nodes(delta):
    return range(2**delta, 2 ** (delta + 1))


def _path_to(leaf):
    """Ancestors of a leaf, root first, as (node, direction) pairs.

    direction is +1 when the path takes the right child at that
    ancestor, -1 when it takes the left child.
    """
    return [(leaf >> j, 1 if leaf >> (j - 1) & 1 else -1) for j in range(leaf.bit_length() - 1, 0, -1)]


def _check_depth(name, nodes, delta):
    """ConfigError unless nodes (a menu's or an assignment's cuts) holds
    one entry per internal node of the depth-delta tree."""
    if len(nodes) != 2**delta - 1:
        raise ConfigError(f"{name} has {len(nodes)} nodes, a depth-{delta} tree has {2**delta - 1}")


def _check_fill(ds, config):
    """InfeasibleError unless n >= 2^delta * m * n_min_leaf: fewer rows cannot fill the leaves."""
    if ds.n < 2**config.delta * ds.m * config.n_min_leaf:
        raise InfeasibleError(f"{ds.n} subjects cannot fill {2**config.delta} leaves with "
                              f"{config.n_min_leaf} of each of {ds.m} treatments")


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


def build_cut_menu(ds, config):
    """Draw per-node features and build each node's cut menu for the
    depth config.delta tree.

    Features are drawn node by node in ascending node order from one
    generator seeded by config.seed. At each grid position the straddling
    sorted values lo < hi of feature f give the cut (f, `_cut(lo, hi)`),
    and equal ones none; f's thresholds ascend strictly, so none repeats.

    Raises:
        InfeasibleError: the rows cannot fill the leaves (`_check_fill`).
        EmptyMenuError: some node ends up with no candidate cuts.
    """
    n_features = _features_drawn(config.n_features, ds.d, ds.d)
    _check_fill(ds, config)
    positions = np.array(cut_positions(ds.n, config.n_cuts), dtype=np.intp)
    thresholds = {}
    rng = make_rng(config.seed)
    menus = []
    for p in _internal_nodes(config.delta):
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
