"""Exact search over complete trees with menu cuts.

solve_exact minimizes the summed leaf impurity over all assignments of
menu cuts to internal nodes and treatments to leaves, subject to every
leaf holding at least n_min_leaf subjects of every treatment. The
search decomposes by node: the value of a subtree on a row set is the
best over its menu of the two child values.

A bottom node, one whose children are leaves, is solved in one pass:
a bincount keyed by (cut, side, treatment) gives the per-treatment
counts and outcome sums of both children under every cut of its menu
at once. Nodes above the bottom level scan their menu cut by cut, and
the subtree values below them are memoized on (node, row set). A row
set is keyed by its packed bit mask, n/8 bytes, and the least recently
used entries are dropped once the keys pass MEMO_BYTES in total.

Outcomes are shifted to be non-negative, so a left child value alone
already bounds a cut's total from below, which allows skipping right
children; a warm-start incumbent tightens the root scan the same way.
Ties break toward the lexicographically first assignment in node order
(lowest cut index, then lowest treatment).
"""

import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, InfeasibleError, SolveTimeout
from ..seeding import derive_seed, make_rng
from ..risk import _counts_and_sums
from ..tree import PersonalizationTree, PtConfig, fit_pt
from .skeleton import TreeSkeleton, build_cut_menu

# total bytes of memo keys held before the least recently used entries go
MEMO_BYTES = 1 << 25

# Most row-by-cut cells one bottom-node pass scores at once; a larger
# node scores its menu in chunks of cuts, so each of the pass's
# per-cell temporaries (keys, weights, gathered values) stays within 32 MB.
_PASS_BUDGET = 1 << 22


@dataclass(frozen=True)
class TreeAssignment:
    """A complete tree: one menu cut per internal node (heap order) and
    one treatment per leaf (left to right)."""

    cuts: tuple
    treatments: tuple


class _TimeUp(Exception):
    pass


def evaluate_assignment(ds, skeleton, assignment, config):
    """Objective of one assignment, or +inf when it is infeasible.

    The objective is the sum over leaves of leaf size times the mean
    shifted outcome (Y minus its dataset minimum) of the leaf's chosen
    treatment; infeasible means some leaf holds fewer than n_min_leaf
    subjects of some treatment.

    Raises:
        ConfigError: the assignment's cut or treatment count does not fit
            the skeleton.
    """
    top = 2**skeleton.delta
    if len(assignment.cuts) != top - 1 or len(assignment.treatments) != top:
        raise ConfigError(
            f"assignment has {len(assignment.cuts)} cuts and {len(assignment.treatments)} "
            f"treatments, a depth-{skeleton.delta} skeleton has {top - 1} and {top}"
        )
    leaf = skeleton.route_many(ds.X, assignment.cuts) - top
    counts, sums = _counts_and_sums(ds.T, ds.Y - ds.Y.min(), ds.m, leaf, top)
    if counts.min() < config.n_min_leaf:
        return float("inf")
    chosen = (np.arange(top), np.asarray(assignment.treatments) - 1)
    value = counts.sum(axis=1) * (sums[chosen] / counts[chosen])
    while value.size > 1:  # sibling pairs first, as the search adds left + right
        value = value[0::2] + value[1::2]
    return float(value[0])


@dataclass(frozen=True)
class OptResult:
    """Solved assignment with its objective, proof flag, and tree form."""

    assignment: TreeAssignment
    objective: float
    proved: bool
    tree: PersonalizationTree


def assignment_to_tree(ds, skeleton, assignment):
    """Materialize an assignment as a tree policy in heap order, with leaf
    statistics recomputed by routing the dataset."""
    top = 2**skeleton.delta
    leaf = skeleton.route_many(ds.X, assignment.cuts) - top
    counts, sums = _counts_and_sums(ds.T, ds.Y, ds.m, leaf, top)
    means = np.divide(sums, counts, out=np.full(counts.shape, np.nan), where=counts > 0)
    splits = top - 1
    return PersonalizationTree(
        *skeleton._heap(assignment.cuts),
        treatment=np.concatenate([np.zeros(splits, dtype=np.int64), assignment.treatments]),
        counts=np.concatenate([np.zeros((splits, ds.m), dtype=np.int64), counts]),
        means=np.concatenate([np.full((splits, ds.m), np.nan), means]),
        m=ds.m,
        d=ds.d,
    )


def solve_exact(ds, skeleton, menu, config, warm=None):
    """Globally optimal assignment by memoized recursive decomposition.

    Args:
        ds: dataset.
        skeleton: TreeSkeleton of depth config.delta.
        menu: CutMenu for the skeleton.
        config: OptConfig; time_limit bounds the search.
        warm: optional feasible TreeAssignment used as the incumbent.

    Returns:
        OptResult; proved is False when the time limit cut the search
        short, in which case the best incumbent found so far (or the
        warm start) is returned. A warm start that scores strictly
        below the scanned assignment is returned in its place.

    Raises:
        ConfigError: the menu or the warm start does not fit the skeleton.
        InfeasibleError: no feasible assignment exists.
        SolveTimeout: time expired with no incumbent available.
    """
    top = 2**skeleton.delta
    if len(menu.cuts) != top - 1:
        raise ConfigError(
            f"menu has {len(menu.cuts)} nodes, a depth-{skeleton.delta} skeleton has {top - 1}"
        )
    ybar = ds.Y - ds.Y.min()
    tvec = ds.T - 1
    m = ds.m
    nm = config.n_min_leaf
    deadline = None
    if config.time_limit is not None:
        deadline = time.monotonic() + config.time_limit
    bottom_menus = {}
    for p in range(top // 2, top):
        cuts = menu.for_node(p)
        bottom_menus[p] = (
            np.array([f for f, _ in cuts], dtype=np.intp),
            np.array([theta for _, theta in cuts], dtype=np.float64),
        )
    memo = OrderedDict()
    memo_bytes = 0

    def check_time():
        if deadline is not None and time.monotonic() > deadline:
            raise _TimeUp()

    def bottom(p, idx):
        """Best cut and leaf treatments of a node whose children are
        leaves, as (value, (cut, left treatment, right treatment)).

        Every cut is scored in one bincount keyed by (cut, side, arm).
        The flattened key runs row by row, so each bin adds its rows in
        ascending order, as a bincount over the child's rows alone would:
        the sums, and every value and choice derived from them, are
        those of scoring each leaf on its own.
        """
        check_time()
        features, thresholds = bottom_menus[p]
        counts = np.empty((features.size, 2, m), dtype=np.int64)
        sums = np.empty((features.size, 2, m))
        rows = ds.X[idx]
        t = tvec[idx][:, None]
        step = max(1, _PASS_BUDGET // max(1, idx.size))
        for lo in range(0, features.size, step):
            part = slice(lo, lo + step)
            c = features[part].size
            key = t + 2 * m * np.arange(c)
            key += m * (rows[:, features[part]] > thresholds[part])
            key = key.ravel()
            counts[part] = np.bincount(key, minlength=2 * m * c).reshape(c, 2, m)
            sums[part] = np.bincount(
                key, weights=np.repeat(ybar[idx], c), minlength=2 * m * c
            ).reshape(c, 2, m)
        means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
        arm = means.argmin(axis=2)
        leaf = np.where(counts.min(axis=2) >= nm, counts.sum(axis=2) * means.min(axis=2), np.inf)
        total = leaf[:, 0] + leaf[:, 1]
        ci = int(np.argmin(total))
        if total[ci] == np.inf:
            return float("inf"), None
        return float(total[ci]), (ci, int(arm[ci, 0]) + 1, int(arm[ci, 1]) + 1)

    def node_value(p, idx):
        nonlocal memo_bytes
        member = np.zeros(ds.n, dtype=bool)
        member[idx] = True
        key = (p, np.packbits(member).tobytes())
        hit = memo.get(key)
        if hit is not None:
            memo.move_to_end(key)
            return hit
        val = bottom(p, idx) if 2 * p >= top else scan(p, idx)
        memo[key] = val
        memo_bytes += len(key[1])
        while memo_bytes > MEMO_BYTES:
            (_, old), _ = memo.popitem(last=False)
            memo_bytes -= len(old)
        return val

    def scan(p, idx):
        best_val = float("inf")
        best_cut = None
        for ci, (f, theta) in enumerate(menu.for_node(p)):
            check_time()
            mask = ds.X[idx, f] <= theta
            left, _ = node_value(2 * p, idx[mask])
            if left > best_val:
                continue  # right child value is non-negative
            right, _ = node_value(2 * p + 1, idx[~mask])
            total = left + right
            if total < best_val:
                best_val, best_cut = total, ci
        return best_val, best_cut

    cuts, treats = {}, {}

    def reconstruct(p, idx, choice):
        if 2 * p >= top:
            ci, treats[2 * p], treats[2 * p + 1] = choice
            cuts[p] = menu.for_node(p)[ci]
            return
        cuts[p] = f, theta = menu.for_node(p)[choice]
        mask = ds.X[idx, f] <= theta
        for child, sub in ((2 * p, idx[mask]), (2 * p + 1, idx[~mask])):
            reconstruct(child, sub, node_value(child, sub)[1])

    warm_value = float("inf")
    if warm is not None:
        warm_value = evaluate_assignment(ds, skeleton, warm, config)

    all_rows = np.arange(ds.n)
    proved = True
    best_val = float("inf")
    best_cut = None
    try:
        if top == 2:
            best_val, best_cut = bottom(1, all_rows)
        else:
            # root scan, kept inline so each completed cut updates the incumbent
            for ci, (f, theta) in enumerate(menu.for_node(1)):
                check_time()
                mask = ds.X[all_rows, f] <= theta
                left, _ = node_value(2, all_rows[mask])
                bound = min(best_val, warm_value)
                if left > bound:
                    continue
                right, _ = node_value(3, all_rows[~mask])
                total = left + right
                if total < best_val:
                    best_val, best_cut = total, ci
    except _TimeUp:
        proved = False

    deadline = None  # reconstruction must not be interrupted
    assignment, objective = None, best_val
    if best_cut is not None:
        reconstruct(1, all_rows, best_cut)
        assignment = TreeAssignment(
            cuts=tuple(cuts[p] for p in skeleton.internal_nodes),
            treatments=tuple(treats[p] for p in skeleton.leaves),
        )
    if warm_value < best_val:
        assignment, objective = warm, warm_value
    if assignment is None:
        if proved:
            raise InfeasibleError("no assignment satisfies the per-leaf treatment minimums")
        raise SolveTimeout("time limit expired before any incumbent was found")
    return OptResult(
        assignment=assignment,
        objective=objective,
        proved=proved,
        tree=assignment_to_tree(ds, skeleton, assignment),
    )


def warm_start_from_pt(ds, config, skeleton=None, menu=None):
    """Greedy-tree warm start snapped onto the cut menu.

    Fits a depth-bounded greedy tree, maps its cuts to the nearest
    same-feature menu thresholds, and pads shallower leaves to full
    depth with menu cuts tried in seeded random order; padded leaves
    inherit the greedy leaf's prescription. Returns None when no
    feasible completion exists along the attempted padding orders.
    Builds the skeleton and menu from config when not supplied.
    """
    if skeleton is None:
        skeleton = TreeSkeleton(config.delta)
    if menu is None:
        menu = build_cut_menu(ds, skeleton, config)
    pt = fit_pt(
        ds,
        PtConfig(
            n_min_leaf=config.n_min_leaf,
            delta_max=skeleton.delta,
            n_features=config.n_features,
            seed=config.seed,
        ),
    )
    top = 2**skeleton.delta
    cuts = {}
    treats = {}

    def candidates(p, node):
        """Cut candidates at skeleton node p, preferred first."""
        options = menu.for_node(p)
        if pt.left[node] >= 0:
            same = [c for c in options if c[0] == pt.feature[node]]
            if same:
                snapped = min(same, key=lambda c: abs(c[1] - pt.threshold[node]))
                rest = [c for c in options if c != snapped]
                order = make_rng(derive_seed(config.seed, "pad", p)).permutation(len(rest))
                return [snapped] + [rest[i] for i in order]
        order = make_rng(derive_seed(config.seed, "pad", p)).permutation(len(options))
        return [options[i] for i in order]

    def place(p, idx, node):
        """Fill skeleton node p over rows idx after greedy node `node`,
        which is a leaf once p is: the greedy tree is no deeper."""
        if p >= top:
            counts, _ = _counts_and_sums(ds.T[idx], ds.Y[idx], ds.m)
            if counts.min() < config.n_min_leaf:
                return False
            treats[p] = int(pt.treatment[node])
            return True
        children = (pt.left[node], pt.right[node]) if pt.left[node] >= 0 else (node, node)
        for f, theta in candidates(p, node):
            mask = ds.X[idx, f] <= theta
            if place(2 * p, idx[mask], children[0]) and place(
                2 * p + 1, idx[~mask], children[1]
            ):
                cuts[p] = (f, theta)
                return True
        return False

    if not place(1, np.arange(ds.n), 0):
        return None
    return TreeAssignment(
        cuts=tuple(cuts[p] for p in skeleton.internal_nodes),
        treatments=tuple(treats[p] for p in skeleton.leaves),
    )
