"""Exact search over complete trees with menu cuts.

solve_exact minimizes the summed leaf impurity over all assignments of
menu cuts to internal nodes and treatments to leaves, subject to every
leaf holding at least n_min_leaf subjects of every treatment. The
search decomposes by node: the value of a subtree on a row set is the
best over its menu of the two child values. Outcomes are shifted to be
non-negative (Y minus its minimum) before any sum is taken.

Side tables. Each bottom node, one whose children are leaves, gets one
table per solve holding every row's bin under every cut of its menu,
arm * 2C + side * C + cut for C cuts (side 1 when x[f] > theta), in the
narrowest unsigned dtype. Arms lead every bin layout, so reductions
over arms run on whole (side, cut) planes. `bottom` gathers the table's
rows and scores its whole menu with two bincounts, counts and outcome
sums. The gathered keys run row by row, so each bin adds its rows in
ascending order, as a bincount over one leaf's rows alone would: the
sums, and every value and choice derived from them, are those of
scoring each leaf on its own.

The screen. A node whose children are bottom nodes (the root at depth
two, depth delta - 2 in general) needs both child values under every
cut of its menu. Its menu is grouped by feature, and a per-node block
table gives each row, per feature, the number of that feature's
thresholds it exceeds. One pass per child tallies counts and sums per
(feature, block, arm, side, child cut); prefix sums over the blocks
give the left child's tallies under every cut at once, and suffix sums
the right child's. Counts are exact, so feasibility is. The sums add
the same non-negative outcomes as `bottom` does, in another order.

The margin. Let k be the screened node's row count, u = eps / 2 the
unit roundoff and gamma_j = j u / (1 - j u). A floating-point sum of at
most k non-negative terms lies within gamma_{k-1} of the exact sum in
any order, so the row-order and block-order arm sums both do. Each
later step rounds once: the mean (sum / count), the leaf value (count
times the least mean), the sum of a cut's two leaves and the total
left + right; a least mean or a least cut keeps a relative bound. So
the exact scan's total T and the screen's T~ both lie within
gamma_{k+3} of the value V in real arithmetic, and |T - T~| is at most
2 gamma_{k+3} V, that is (k + 3) eps T~ to first order. The margin
used is M = (k + 4) eps T~ plus the smallest normal number: the extra
eps covers the higher-order terms and the rounding of M and T~ -/+ M,
and the absolute term covers gradual underflow (a subnormal mean or
product is off by at most 2^-1075, times at most k rows). The bounds
assume sums that do not overflow.

Settling. Only cuts whose lower bound T~ - M reaches the least upper
bound T~ + M (or the caller's bound, when smaller) are settled, by the
exact node_value, in ascending menu index with a strict <, as a
cut-by-cut scan would. Every cut that could tie or beat the best is
among them, so the chosen cut, its value, the warm-start rule and the
tie-break are those of scanning the whole menu. Under a work limit a
screened scan yields an incumbent only once its first settled cut
completes.

Levels above scan their menu cut by cut. Subtree values are memoized
on (node, row set); a row set is keyed by its packed bit mask, n/8
bytes, and the oldest entries are dropped once the keys pass MEMO_BYTES
in total. A left child value alone already bounds a cut's total from
below, which allows skipping right children; a warm-start incumbent
tightens the root scan the same way. Ties break toward the
lexicographically first assignment in node order (lowest cut index,
then lowest treatment). Each value carries its best subtree, nested
(cut, left, right) tuples with the leaf treatments at the bottom level,
and the answer is read off the root's: nothing is solved again after
the search.
"""

import logging
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, InfeasibleError, SolveTimeout, _check_int, _check_number
from ..seeding import derive_seed, make_rng
from ..risk import _counts_and_sums, _means
from ..tree import PersonalizationTree, PtConfig, _build, fit_pt
from .skeleton import TreeSkeleton, build_cut_menu

logger = logging.getLogger(__name__)

# total bytes of memo keys held before the oldest entries go
MEMO_BYTES = 1 << 25

# Most key cells (rows x cuts) one pass tallies at once, and most bins a
# screen pass holds, so each per-cell temporary (keys, weights, sums)
# stays within 128 KB. Passes twice that size made one depth-three solve
# at n=2000 take about 170,000 minor page faults in a fresh process
# (25,000 at this size), and bins that stay in cache keep bincount fast.
# A bottom node splits its menu into chunks of cuts, which keeps each
# bin's row order; a screen splits its rows and feature groups, though a
# pass holds at least one row and one group.
_PASS_BUDGET = 1 << 14

_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class TreeAssignment:
    """A complete tree: one menu cut per internal node (heap order) and
    one treatment per leaf (left to right)."""

    cuts: tuple
    treatments: tuple


def _leaves(ds, skeleton, assignment, y):
    """Each row's 0-based leaf under the assignment, and per-(leaf, arm)
    counts and sums of y; ConfigError unless its cut and treatment counts
    fit the skeleton, its thresholds are finite, its treatments lie in
    1..m and (checked by the routing) its cut features lie in 0..d-1."""
    top = 2**skeleton.delta
    cuts, treatments = assignment.cuts, assignment.treatments
    if len(cuts) != top - 1 or len(treatments) != top:
        raise ConfigError(
            f"assignment has {len(cuts)} cuts and {len(treatments)} treatments, "
            f"a depth-{skeleton.delta} skeleton has {top - 1} and {top}"
        )
    for _, theta in cuts:
        _check_number("cut threshold", theta)
    for t in treatments:
        _check_int("treatment", t, 1, maximum=ds.m)
    leaf = skeleton.route_many(ds.X, cuts) - top
    return (leaf, *_counts_and_sums(ds.T, y, ds.m, leaf, top))


class _LimitReached(Exception):
    pass


def _assignment(tree):
    """The TreeAssignment of a nested (cut, left, right) subtree whose
    bottom level holds leaf treatments, read level by level."""
    cuts, level = [], [tree]
    while isinstance(level[0], tuple):
        cuts += [cut for cut, _, _ in level]
        level = [child for _, left, right in level for child in (left, right)]
    return TreeAssignment(tuple(cuts), tuple(level))


def _side_table(X, arm, cuts, m):
    """Every row's bin arm * 2C + side * C + cut under each of the C cuts,
    side 1 when x[f] > theta, in the narrowest unsigned dtype."""
    c = len(cuts)
    features = np.array([f for f, _ in cuts], dtype=np.intp)
    thresholds = np.array([theta for _, theta in cuts], dtype=np.float64)
    table = np.empty((len(X), c), dtype=np.min_scalar_type(2 * m * c - 1))
    step = max(1, _PASS_BUDGET // c)
    for lo in range(0, len(X), step):
        rows = slice(lo, lo + step)
        table[rows] = (X[rows][:, features] > thresholds) * c + np.arange(c) + 2 * c * arm[rows, None]
    return table


def _block_table(X, cuts):
    """Block numbers of a screened node's menu, grouped by feature.

    Returns (blocks, k1, position): blocks[i, g] = g * k1 + the number of
    group g's thresholds that row i exceeds; k1 is one more than the
    largest group; a menu cut with sorted place j in group g has flat
    position g * (k1 - 1) + j. Cut j's left rows are then group g's
    blocks 0..j and its right rows blocks j + 1 onwards.
    """
    features = np.array([f for f, _ in cuts], dtype=np.intp)
    thresholds = np.array([theta for _, theta in cuts], dtype=np.float64)
    order = np.lexsort((thresholds, features))
    groups, start, size = np.unique(features[order], return_index=True, return_counts=True)
    k1 = int(size.max()) + 1
    position = np.empty(len(cuts), dtype=np.intp)
    position[order] = np.arange(len(cuts)) + np.repeat(np.arange(len(groups)) * (k1 - 1) - start, size)
    blocks = np.empty((len(X), len(groups)), dtype=np.intp)
    for g, f in enumerate(groups):
        sorted_thresholds = thresholds[order[start[g] : start[g] + size[g]]]
        blocks[:, g] = g * k1 + np.searchsorted(sorted_thresholds, X[:, f], side="left")
    return blocks, k1, position


def _tally(chunks, size):
    """Counts and weight sums per bin, added up over (keys, weights)
    chunks; a key array's leading axis runs over rows, one weight each."""
    counts, sums = np.zeros(size, dtype=np.int64), np.zeros(size)
    for keys, weights in chunks:
        flat = keys.ravel()
        counts += np.bincount(flat, minlength=size)
        sums += np.bincount(flat, np.repeat(weights, flat.size // max(1, weights.size)), size)
        del keys, flat  # before the next chunk is built
    return counts, sums


def _leaf_values(counts, sums, nm):
    """Leaf values (size times least arm mean; inf below nm of some arm)
    and arm means, for tallies with arms on axis -3."""
    means = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
    feasible = counts.min(axis=-3) >= nm
    return np.where(feasible, counts.sum(axis=-3) * means.min(axis=-3), np.inf), means


def evaluate_assignment(ds, skeleton, assignment, config):
    """Objective of one assignment, or +inf when it is infeasible.

    The objective is the sum over leaves of leaf size times the mean
    shifted outcome (Y minus its dataset minimum) of the leaf's chosen
    treatment; infeasible means some leaf holds fewer than n_min_leaf
    subjects of some treatment.

    Raises:
        ConfigError: the assignment does not fit the skeleton or the data.
    """
    _, counts, sums = _leaves(ds, skeleton, assignment, ds.Y - ds.Y.min())
    if counts.min() < config.n_min_leaf:
        return float("inf")
    chosen = (np.arange(len(counts)), np.asarray(assignment.treatments) - 1)
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
    """Materialize an assignment as a tree policy, skeleton node p as item p
    of `_build`, with leaf statistics recomputed by routing the dataset;
    ConfigError when the assignment does not fit the skeleton or the data."""
    _, counts, sums = _leaves(ds, skeleton, assignment, ds.Y)
    means, top = _means(counts, sums), len(counts)

    def expand(p):
        if p >= top:
            return assignment.treatments[p - top], counts[p - top], means[p - top]
        return (*assignment.cuts[p - 1], 2 * p, 2 * p + 1)

    return _build(1, expand, ds.m, ds.d)


def solve_exact(ds, skeleton, menu, config, warm=None):
    """Globally optimal assignment by memoized recursive decomposition.

    Builds each bottom node's side table and each screened node's block
    table once, then searches: bottom nodes score their menu in one
    table pass, nodes just above them screen their menu and settle the
    close calls exactly, and higher nodes scan cut by cut (see the
    module docstring). Every value carries its best subtree, and the
    answer is read off the root's, so a work limit ends the solve:
    nothing is solved again after the search. One DEBUG record on the
    "perstrees" logger gives the scans and cuts screened, the cuts
    settled exactly, the bottom passes, the memo's hits, misses and
    evictions, and whether optimality was proved.

    Args:
        ds: dataset.
        skeleton: TreeSkeleton of depth config.delta.
        menu: CutMenu for the skeleton.
        config: OptConfig; work_limit bounds the bottom passes. A
            solve with work_limit k runs min(k, P) of them, P the count
            of the unlimited solve, on any host and under any load.
        warm: optional feasible TreeAssignment used as the incumbent.

    Returns:
        OptResult; proved is False when the work limit cut the search
        short, in which case the best incumbent found so far (or the
        warm start) is returned. A screened root scan has an incumbent
        only once its first settled cut completes. A warm start that
        scores strictly below the scanned assignment is returned in its
        place.

    Raises:
        ConfigError: the menu or the warm start does not fit the skeleton,
            or the warm start does not fit the data.
        InfeasibleError: no feasible assignment exists.
        SolveTimeout: the work limit was reached with no incumbent
            available.
    """
    skeleton._check_nodes("menu", menu.cuts)
    top = 2**skeleton.delta
    ybar = ds.Y - ds.Y.min()
    tvec = ds.T - 1
    m = ds.m
    nm = config.n_min_leaf
    tables = {p: _side_table(ds.X, tvec, menu.for_node(p), m) for p in range(top // 2, top)}
    blocks = {p: _block_table(ds.X, menu.for_node(p)) for p in range(max(1, top // 4), top // 2)}
    stats = dict.fromkeys(("scans", "screened", "settled", "passes", "hits", "misses", "evicted"), 0)
    memo = {}
    memo_cap = MEMO_BYTES // max(1, (ds.n + 7) // 8)  # entries: every key is ceil(n/8) bytes

    def bottom(p, idx):
        """Best cut and leaf treatments of a node whose children are
        leaves, as (value, (cut, left treatment, right treatment)), from
        one pass over the rows' side-table keys."""
        if stats["passes"] == config.work_limit:
            raise _LimitReached()
        stats["passes"] += 1
        keys = tables[p][idx]
        c = keys.shape[1]
        step = max(1, _PASS_BUDGET // max(1, idx.size))
        # chunks of cuts fill disjoint bins, so adding their zeros is exact
        chunks = ((keys[:, lo : lo + step], ybar[idx]) for lo in range(0, c, step))
        counts, sums = _tally(chunks, 2 * m * c)
        leaf, means = _leaf_values(counts.reshape(m, 2, c), sums.reshape(m, 2, c), nm)
        total = leaf[0] + leaf[1]
        ci = int(np.argmin(total))
        if total[ci] == np.inf:
            return float("inf"), None
        arm = means[:, :, ci].argmin(axis=0) + 1
        return float(total[ci]), (menu.for_node(p)[ci], int(arm[0]), int(arm[1]))

    def screen(p, idx, bound):
        """Menu indices, ascending, of the cuts at p (whose children are
        bottom nodes) that may tie or beat the least total or bound."""
        stats["scans"] += 1
        stats["screened"] += len(menu.for_node(p))
        if not idx.size:
            return ()
        position = blocks[p][2]
        approx = (child_values(p, 2 * p, idx) + child_values(p, 2 * p + 1, idx)).ravel()[position]
        feasible = np.flatnonzero(approx < np.inf)
        approx = approx[feasible]
        margin = (idx.size + 4) * _EPS * approx + _TINY
        settle = feasible[approx - margin <= min(bound, (approx + margin).min(initial=np.inf))]
        stats["settled"] += settle.size
        return settle

    def child_values(p, q, idx):
        """Approximate value of bottom node q, a child of p, under every
        cut of p's menu, as a (feature group, sorted place) array."""
        block, k1, _ = blocks[p]
        n_groups = block.shape[1]
        table = tables[q]
        c = table.shape[1]
        width = 2 * m * c
        values = np.empty((n_groups, k1 - 1))
        g_step = max(1, _PASS_BUDGET // (k1 * width))
        for g0 in range(0, n_groups, g_step):
            g1 = min(n_groups, g0 + g_step)
            r_step = max(1, _PASS_BUDGET // ((g1 - g0) * c))
            chunks = (
                ((block[rows, g0:g1, None] - g0 * k1) * width + table[rows][:, None, :], ybar[rows])
                for rows in (idx[lo : lo + r_step] for lo in range(0, idx.size, r_step))
            )
            counts, sums = _tally(chunks, (g1 - g0) * k1 * width)
            shape = (g1 - g0, k1, m, 2, c)
            counts, sums = counts.reshape(shape), sums.reshape(shape)
            # in place: prefix sums over blocks give a left child (cut j
            # takes blocks 0..j), suffix sums a right one (blocks j + 1 on)
            order = slice(None, None, -1) if q % 2 else slice(None)
            np.cumsum(counts[:, order], axis=1, out=counts[:, order])
            np.cumsum(sums[:, order], axis=1, out=sums[:, order])
            cut = slice(1, None) if q % 2 else slice(None, -1)
            leaf, _ = _leaf_values(counts[:, cut], sums[:, cut], nm)
            values[g0:g1] = (leaf[..., 0, :] + leaf[..., 1, :]).min(axis=-1)
        return values

    def node_value(p, idx):
        member = np.zeros(ds.n, dtype=bool)
        member[idx] = True
        key = (p, np.packbits(member).tobytes())
        hit = memo.get(key)
        if hit is not None:
            stats["hits"] += 1
            return hit
        stats["misses"] += 1
        val = bottom(p, idx) if 2 * p >= top else scan(p, idx)
        memo[key] = val
        if len(memo) > memo_cap:
            del memo[next(iter(memo))]
            stats["evicted"] += 1
        return val

    def scan(p, idx, bound=float("inf"), best=None):
        """(value, subtree) of the first cut of least total at p, skipping
        cuts whose left child alone exceeds the best so far or bound.
        A given best list is updated as each cut completes."""
        best = [float("inf"), None] if best is None else best
        options = menu.for_node(p)
        for ci in screen(p, idx, bound) if 4 * p >= top else range(len(options)):
            f, theta = cut = options[ci]
            mask = ds.X[idx, f] <= theta
            left, left_tree = node_value(2 * p, idx[mask])
            if left > min(best[0], bound):
                continue  # right child value is non-negative
            right, right_tree = node_value(2 * p + 1, idx[~mask])
            total = left + right
            if total < best[0]:
                best[:] = total, (cut, left_tree, right_tree)
        return tuple(best)

    warm_value = float("inf")
    if warm is not None:
        warm_value = evaluate_assignment(ds, skeleton, warm, config)

    all_rows = np.arange(ds.n)
    proved = True
    best = [float("inf"), None]  # the root's incumbent, kept if the work limit is reached
    try:
        if top == 2:
            best[:] = bottom(1, all_rows)
        else:
            scan(1, all_rows, warm_value, best)
    except _LimitReached:
        proved = False
    logger.debug(
        "solve_exact: %d scans screened %d cuts, %d settled exactly; %d bottom passes; "
        "memo %d hits, %d misses, %d evictions; %s",
        stats["scans"], stats["screened"], stats["settled"], stats["passes"],
        stats["hits"], stats["misses"], stats["evicted"],
        "optimality proved" if proved else "work limit reached",
    )

    objective, tree = best
    assignment = None if tree is None else _assignment(tree)
    if warm_value < objective:
        assignment, objective = warm, warm_value
    if assignment is None:
        if proved:
            raise InfeasibleError("no assignment satisfies the per-leaf treatment minimums")
        raise SolveTimeout("work limit reached before any incumbent was found")
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
    Builds the skeleton and menu from config when not supplied;
    ConfigError when a supplied menu does not fit the skeleton.
    """
    if skeleton is None:
        skeleton = TreeSkeleton(config.delta)
    if menu is None:
        menu = build_cut_menu(ds, skeleton, config)
    skeleton._check_nodes("menu", menu.cuts)
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

    def candidates(p, node):
        """Cut candidates at skeleton node p, preferred first."""
        options = menu.for_node(p)
        same = [c for c in options if pt.left[node] >= 0 and c[0] == pt.feature[node]]
        snapped = [min(same, key=lambda c: abs(c[1] - pt.threshold[node]))] if same else []
        rest = [c for c in options if c not in snapped]
        order = make_rng(derive_seed(config.seed, "pad", p)).permutation(len(rest))
        return snapped + [rest[i] for i in order]

    def place(p, idx, node):
        """Subtree of skeleton node p over rows idx after greedy node
        `node` (a leaf once p is: the greedy tree is no deeper), or None.
        Each leaf below p needs n_min_leaf of every arm, so rows short of
        that many times the leaves cannot fill any subtree."""
        leaves = top >> (p.bit_length() - 1)
        if np.bincount(ds.T[idx], minlength=ds.m + 1)[1:].min() < config.n_min_leaf * leaves:
            return None
        if p >= top:
            return int(pt.treatment[node])
        children = (pt.left[node], pt.right[node]) if pt.left[node] >= 0 else (node, node)
        for f, theta in candidates(p, node):
            mask = ds.X[idx, f] <= theta
            left = place(2 * p, idx[mask], children[0])
            right = None if left is None else place(2 * p + 1, idx[~mask], children[1])
            if right is not None:
                return (f, theta), left, right
        return None

    tree = place(1, np.arange(ds.n), 0)
    return None if tree is None else _assignment(tree)
