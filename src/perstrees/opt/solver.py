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
cut of its menu. It and each bottom node get a block table per solve:
the node's menu grouped by feature, and each row's block per group, the
number of the group's thresholds the row exceeds. For each child q of a
screened node p, one tally counts and sums the rows per (arm, p block,
q block), for every pair of a feature group of p and one of q: one key
per (row, group pair), in passes of a few group pairs and rows. Running
sums over p's blocks, ascending for the left child and descending for
the right, give the rows q receives under every cut of p (blocks 0..j
of the cut's group for sorted place j, or blocks j + 1 on). Running
sums of those over q's blocks, in both directions, give q's two leaves
under every cut of q. So each child is valued under every (p cut, q
cut) pair at once. Counts are exact, so feasibility is. The screen only
counts and adds, with no matrix product, so which cuts it settles, and
so the bottom passes a limited solve runs, are the same on any host.

The margin. Let k be the screened node's row count, u = eps / 2 the
unit roundoff and gamma_j = j u / (1 - j u). A floating-point sum of at
most k non-negative terms lies within gamma_{k-1} of the exact sum in
any order and under any grouping: in a tree of additions each term
passes through at most k - 1 roundings, as an addition of an exact zero
(an empty bin) rounds nothing. The screen's sum for a leaf is such a
tree over the leaf's own rows: the bincount adds each bin's rows, and
the running sums add whole bins that all lie inside the leaf, since a
side of a cut is a run of blocks from one end and nothing is ever
subtracted. So the row-order and block-order arm sums both lie within
gamma_{k-1}, and the running sums need no term of their own. Each
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

Levels above scan their menu cut by cut, and each screened child is
screened on its own rows. (One tally per node above, with its blocks as
a third axis, would screen all of its children at once; it did more
work than the screens it replaces, as the memo and the left-child bound
below skip many of those children.) A node whose rows hold fewer than
n_min_leaf of some arm per leaf below it has no feasible subtree and is
given up before the memo. Subtree values are memoized on (node, row
set); a row set is keyed by its packed bit mask, n/8 bytes, and the
oldest entries are dropped once the keys pass MEMO_BYTES in total. A
left child value alone already bounds a cut's total from below, which
allows skipping right children; a warm-start incumbent tightens the
root scan the same way. Ties break toward the lexicographically first
assignment in node order (lowest cut index, then lowest treatment).
Each value carries its best subtree, nested (cut, left, right) tuples
with the leaf treatments at the bottom level, and the answer is read
off the root's: nothing is solved again after the search.
"""

import itertools
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

# Most key cells (rows x cuts, or rows x feature group pairs) one pass
# tallies at once, and most bins a screen pass holds, so each per-cell
# temporary (keys, weights, sums) stays within 128 KB. Passes twice that
# size made one depth-three solve at n=2000 take about 170,000 minor
# page faults in a fresh process (25,000 at this size), and bins that
# stay in cache keep bincount fast.
# A bottom node splits its menu into chunks of cuts, which keeps each
# bin's row order; a screen splits its rows and the feature groups of
# the screened node and its child, though a pass holds at least one row
# and one group of each.
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


def _short(arm, m, nm, top, p):
    """Whether rows with 0-based arms `arm` hold fewer than nm of some arm
    per leaf below node p of a skeleton with top leaves, so that no
    subtree at p over them is feasible."""
    return np.bincount(arm, minlength=m).min() < nm * (top >> (p.bit_length() - 1))


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
    """Block numbers of a node's menu, grouped by feature.

    Returns (blocks, k1, position): blocks[i, g] is the number of group
    g's thresholds that row i exceeds, in the narrowest unsigned dtype;
    k1 is one more than the largest group; a menu cut with sorted place
    j in group g has flat position g * (k1 - 1) + j. Cut j's left rows
    are then group g's blocks 0..j and its right rows blocks j + 1 on.
    """
    features = np.array([f for f, _ in cuts], dtype=np.intp)
    thresholds = np.array([theta for _, theta in cuts], dtype=np.float64)
    order = np.lexsort((thresholds, features))
    groups, start, size = np.unique(features[order], return_index=True, return_counts=True)
    k1 = int(size.max()) + 1
    position = np.empty(len(cuts), dtype=np.intp)
    position[order] = np.arange(len(cuts)) + np.repeat(np.arange(len(groups)) * (k1 - 1) - start, size)
    blocks = np.empty((len(X), len(groups)), dtype=np.min_scalar_type(k1 - 1))
    for g, f in enumerate(groups):
        sorted_thresholds = thresholds[order[start[g] : start[g] + size[g]]]
        blocks[:, g] = np.searchsorted(sorted_thresholds, X[:, f], side="left")
    return blocks, k1, position


def _side(a, axis, right):
    """Tallies of each cut's left side (blocks 0..j for sorted place j)
    or right side (blocks j + 1 on) along a block axis, as running sums
    that only add, one whole block plane at a time."""
    at = (slice(None),) * axis
    out = a[at + (slice(1, None) if right else slice(None, -1),)].copy()
    for j in range(out.shape[axis] - 2, -1, -1) if right else range(1, out.shape[axis]):
        out[at + (j,)] += out[at + (j + 1 if right else j - 1,)]
    return out


def _tally(chunks, size):
    """Counts and weight sums per bin, stacked as one (2, size) float
    array (counts stay exact below 2**53), added up over (keys, weights)
    chunks; a key array's leading axis runs over rows, one weight each."""
    tallies = np.zeros((2, size))
    for keys, weights in chunks:
        flat = keys.ravel()
        tallies[0] += np.bincount(flat, minlength=size)
        tallies[1] += np.bincount(flat, np.repeat(weights, flat.size // max(1, weights.size)), size)
        del keys, flat  # before the next chunk is built
    return tallies


def _leaf_values(tallies, nm):
    """Leaf values (size times least arm mean; inf below nm of some arm)
    and arm means, for stacked (counts, sums) with arms on axis 1."""
    counts, sums = tallies
    with np.errstate(divide="ignore", invalid="ignore"):  # an empty arm is infeasible (nm >= 1)
        means = sums / counts
        return np.where(counts.min(axis=0) >= nm, counts.sum(axis=0) * means.min(axis=0), np.inf), means


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

    Builds each bottom node's side table and the block tables of the
    bottom and screened nodes once, then searches: bottom nodes score
    their menu in one table pass, nodes just above them screen their
    menu and settle the close calls exactly, and higher nodes scan cut
    by cut (see the module docstring). Every value carries its best
    subtree, and the answer is read off the root's, so a work limit
    ends the solve: nothing is solved again after the search. One DEBUG
    record on the "perstrees" logger gives the scans and cuts screened,
    the cuts settled exactly, the bottom passes, the memo's hits, misses
    and evictions, and whether optimality was proved.

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
        ConfigError: the menu, config.delta or the warm start does not
            fit the skeleton, or the warm start does not fit the data.
        InfeasibleError: no feasible assignment exists.
        SolveTimeout: the work limit was reached with no incumbent
            available.
    """
    skeleton._check_fit(menu, config)
    top = 2**skeleton.delta
    ybar = ds.Y - ds.Y.min()
    tvec = ds.T - 1
    m = ds.m
    nm = config.n_min_leaf
    tables = {p: _side_table(ds.X, tvec, menu.for_node(p), m) for p in range(top // 2, top)}
    # screened nodes (whose children are bottom nodes) and their children
    blocks = {p: _block_table(ds.X, menu.for_node(p)) for p in range(top // 4, top) if top > 2}
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
        leaf, means = _leaf_values(_tally(chunks, 2 * m * c).reshape(2, m, 2, c), nm)
        total = leaf[0] + leaf[1]
        ci = int(np.argmin(total))
        if total[ci] == np.inf:
            return float("inf"), None
        arm = means[:, :, ci].argmin(axis=0) + 1
        return float(total[ci]), (menu.for_node(p)[ci], int(arm[0]), int(arm[1]))

    def totals(p, idx):
        """Approximate totals of p, whose children are bottom nodes, under
        every cut of its menu, in menu order: per child, one tally per few
        (feature group of p, feature group of the child) pairs counts and
        sums the rows per (arm, p block, child block)."""
        outer, k1, position = blocks[p]
        outer, arm, y = outer[idx].astype(np.intp), tvec[idx], ybar[idx]
        total = 0.0
        for q in (2 * p, 2 * p + 1):
            inner, k1q, _ = blocks[q]
            inner = inner[idx].astype(np.intp)
            n_outer, n_inner = outer.shape[1], inner.shape[1]
            value = np.full((n_outer, k1 - 1), np.inf)
            fit = max(1, _PASS_BUDGET // (m * k1 * k1q))  # group pairs a pass holds
            h_step = min(n_inner, fit)
            g_step = min(n_outer, max(1, fit // h_step))
            r_step = max(1, _PASS_BUDGET // (g_step * h_step))
            for g0, h0 in itertools.product(range(0, n_outer, g_step), range(0, n_inner, h_step)):
                g, h = slice(g0, g0 + g_step), slice(h0, h0 + h_step)
                n_g, n_h = min(g_step, n_outer - g0), min(h_step, n_inner - h0)
                shape = (m, k1, k1q, n_g, n_h)  # arm, p block, q block, p group, q group
                key_p = (arm[:, None] * k1 + outer[:, g]) * (k1q * n_g * n_h) + np.arange(n_g) * n_h
                key_q = inner[:, h] * (n_g * n_h) + np.arange(n_h)
                chunks = (
                    (key_p[rows, :, None] + key_q[rows, None, :], y[rows])
                    for rows in (slice(lo, lo + r_step) for lo in range(0, idx.size, r_step))
                )
                tallies = _side(_tally(chunks, int(np.prod(shape))).reshape(2, *shape), 2, q % 2)
                left, right = (_leaf_values(_side(tallies, 3, side), nm)[0] for side in (0, 1))
                value[g] = np.minimum(value[g], (left + right).min(axis=(1, 3)).T)
            total = total + value
        return total.ravel()[position]

    def screen(p, idx, bound):
        """Menu indices, ascending, of the cuts at p (whose children are
        bottom nodes) that may tie or beat the least total or bound."""
        stats["scans"] += 1
        stats["screened"] += len(menu.for_node(p))
        approx = totals(p, idx)
        feasible = np.flatnonzero(approx < np.inf)
        approx = approx[feasible]
        margin = (idx.size + 4) * _EPS * approx + _TINY
        settle = feasible[approx - margin <= min(bound, (approx + margin).min(initial=np.inf))]
        stats["settled"] += settle.size
        return settle

    def node_value(p, idx):
        if _short(tvec[idx], m, nm, top, p):
            return float("inf"), None
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
    ConfigError when the menu or config.delta does not fit the skeleton.
    """
    if skeleton is None:
        skeleton = TreeSkeleton(config.delta)
    if menu is None:
        menu = build_cut_menu(ds, skeleton, config)
    skeleton._check_fit(menu, config)
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
        `node` (a leaf once p is: the greedy tree is no deeper), or None."""
        if _short(ds.T[idx] - 1, ds.m, config.n_min_leaf, top, p):
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
