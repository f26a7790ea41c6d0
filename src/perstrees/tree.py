"""Greedy personalization trees.

A tree is grown by recursive partitioning: at each node a random subset
of features is drawn, every cut between consecutive distinct values
lo < hi of each is scored by the summed impurity of the two sides, and
the best feasible cut is taken; it sends x <= `_cut(lo, hi)` left, the
midpoint or lo where that rounds onto hi. Splitting continues while
feasible cuts exist and the depth bound allows; leaves prescribe the
treatment with the smallest mean outcome among their eligible treatments.

Each column is sorted once per fit: one unstable sort ranks its values,
and one sort of the unique keys rank * n + position puts a tree's rows
in stable order of it (`_tie_runs`, `_by_key`). A node holds its rows in
that order for every feature, a d x k index array; a split hands each
child the rows of this array that fall on its side, and filtering a
stable order keeps it stable, so no node sorts again. The sweep moves
one point at a time from the right side to the left along each order,
keeping per-treatment counts and outcome sums as prefix sums, and
scores only the positions that leave both sides large enough.

Trees are grown in lockstep (`_lockstep`): every tree keeps its own
seeded generator and pre-order stack, and each round expands the next
node of every unfinished tree. Each node's drawn features are swept
on their own, in chunks held under a budget of feature-by-row cells,
which bounds the sweep's memory. Feature draws and cuts are those of a
tree grown alone, so a forest's trees are identical to one-by-one fits,
and `fit_pt` is the one-tree case.

A fitted tree is a set of parallel node arrays (`PersonalizationTree`)
in pre-order: every parent precedes its children and the leaves appear
left to right. `_walk` is the one walk that builds such arrays (greedy
fits, model files, exact solutions) and `_route` the one that sends rows
down them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, _check_int
from .risk import _BatchPolicy, _best_of_stats, _counts_and_sums, _means
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


# Most feature-by-row cells one vectorised sweep may hold: a node is
# swept in chunks of as many features as fit, at least one, which bounds
# the sweep's memory.
_SWEEP_BUDGET = 4096

# Most row ids (d + 1 per row of a replicate) the trees grown together
# may hold: past it a forest grows in groups of trees, one group after
# another, so their presorts stay within 4 to 8 MB (int32 or int64 ids).
_LOCKSTEP_BUDGET = 1 << 20


def _tie_runs(X):
    """An unstable (SIMD) ascending argsort of X along the last axis, and
    the tie run of each sorted value: runs count up from 0, and equal
    values (-0.0 and +0.0 among them) share one. X must hold no NaN."""
    order = np.argsort(X, axis=-1)
    xs = np.take_along_axis(X, order, axis=-1)
    run = np.zeros(X.shape, dtype=np.int64)
    np.cumsum(xs[..., 1:] != xs[..., :-1], axis=-1, out=run[..., 1:])
    return order, run


def _by_key(rank, position):
    """Positions in ascending (rank, position) order along the last axis,
    from one unstable sort of the unique keys rank * n + position."""
    n = rank.shape[-1]
    key = np.multiply(rank, n, dtype=np.int64)
    key += position
    key.sort(axis=-1)
    return np.remainder(key, n, out=key)


def _sweep(xs, ts, ys, k, m, n_min_leaf, scarce_mode, side=1):
    """Score cut positions side..K-side of R presorted feature rows at once.

    xs, ts, ys are (R, K) arrays: covariate, treatment and outcome of a
    node's k = K rows, each row of the arrays in ascending order of its
    feature. Position j puts the first j points on the left. Each side
    of a feasible cut holds at least `side` points, so callers pass that
    bound to skip positions that cannot be feasible, or 1 to score them
    all.

    Returns a dict: "sides", a (2, 2m, R, P) array over the P positions
    holding, for the left then the right side of each cut, the
    per-treatment counts (first m) and outcome sums (last m); and (R, P)
    arrays "gap" (strict gap at the cut), "feasible" and "impurity"
    (side sizes times their smallest eligible mean, summed). Treatments
    lead the layout so the reductions over them run on whole contiguous
    planes.
    """
    K = xs.shape[1]
    # counts ride along as floats (small integers, so exact), so one
    # prefix-sum pass serves counts and sums; sides[1] is its scratch input
    sides = np.empty((2, 2 * m, *xs.shape))
    onehot = np.equal(ts, np.arange(1, m + 1)[:, None, None], out=sides[1, :m])
    np.multiply(onehot, ys, out=sides[1, m:])
    np.add.accumulate(sides[1], axis=2, out=sides[0])
    # position j keeps the first j points on the left, prefix column j - 1;
    # the right side is the row's total less that
    total = sides[0, :, :, -1:]
    sides = sides[:, :, :, side - 1:K - side]
    np.subtract(total, sides[0], out=sides[1])
    counts, sums = sides[:, :m], sides[:, m:]
    k_left = np.arange(side, K - side + 1, dtype=np.float64)
    # an absent treatment's 0/0 is NaN, which fmin skips
    with np.errstate(invalid="ignore"):
        if scarce_mode:  # a side's minimum over its eligible treatments only
            valid = counts >= n_min_leaf
            means = np.divide(sums, counts, out=np.full(counts.shape, np.inf), where=valid)
            side_min = np.minimum.reduce(means, axis=1)
            defined = np.logical_or.reduce(valid, axis=1)
        else:
            side_min = np.fmin.reduce(sums / counts, axis=1)
            defined = np.minimum.reduce(counts, axis=1) >= n_min_leaf
        impurity = k_left * side_min[0] + (k - k_left) * side_min[1]
    gap = xs[:, side - 1:K - side] < xs[:, side:K - side + 1]
    return {
        "sides": sides,
        "gap": gap,
        "feasible": defined[0] & defined[1] & gap,
        "impurity": impurity,
    }


def _cut(lo, hi):
    """Thresholds between finite values lo < hi, elementwise: lo * 0.5 + hi * 0.5
    where that is below hi, else lo. The midpoint meets hi only when lo is its
    neighbour, where lo - mid is exact; a blend, so two floats need no numpy call."""
    mid = lo * 0.5 + hi * 0.5
    return mid + (mid >= hi) * (lo - mid)


def sweep_feature(x, t, y, m, n_min_leaf, scarce_mode=False):
    """Score every cut position along one feature.

    Position j (1..k-1) puts the first j points of the sorted order on
    the left. Returns a dict of arrays over positions: the sort order,
    left/right per-treatment counts and outcome sums, the strict-gap
    mask, the feasibility mask, the candidate impurity I, and the
    thresholds (`_cut`). A one-feature view of the kernel `best_split`
    runs on presorted rows, exposed for instrumentation and tests.
    """
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ts = np.asarray(t, dtype=np.int64)[order]
    ys = np.asarray(y, dtype=np.float64)[order]
    sweep = _sweep(xs[None], ts[None], ys[None], x.size, m, n_min_leaf, scarce_mode)
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
        "threshold": _cut(xs[:-1], xs[1:]),
    }


def _may_split(counts, config):
    """Which nodes, given their (nodes, m) treatment counts, can hold a
    feasible cut: each side needs n_min_leaf of every treatment (strict)
    or of some treatment (scarce), so a node short of twice that cannot."""
    held = (np.add if config.scarce_mode else np.minimum).reduce(counts, axis=1)
    return held >= 2 * config.n_min_leaf


def _least_side(config, m):
    """Fewest rows a side of a feasible cut holds: n_min_leaf of each of
    the m treatments (strict) or of one (scarce)."""
    return config.n_min_leaf * (1 if config.scarce_mode else m)


def _best_split(ds, features, rows, config):
    """`best_split` of one presorted node that passes `_may_split`.

    features are its feature ids in draw order, and rows a d x k array
    whose row f holds its rows in stable ascending order of feature f
    (only the drawn rows are read). It is swept one chunk of as many
    features as fit in _SWEEP_BUDGET cells (at least one) at a time, over
    the positions a feasible cut can take. It keeps the first minimum
    over (feature, position), as `best_split` does: the chunks come in
    draw order, and a later one replaces the best only when strictly
    lower. Returns a Split or None.
    """
    side = _least_side(config, ds.m)
    k, split = rows.shape[1], None
    step = max(1, _SWEEP_BUDGET // k)
    for lo in range(0, len(features), step):
        chunk = features[lo:lo + step]
        # int32 row ids gather fastest once widened
        block = rows[chunk].astype(np.intp, copy=False)
        xs, ts, ys = ds.X[block, chunk[:, None]], ds.T[block], ds.Y[block]
        sweep = _sweep(xs, ts, ys, k, ds.m, config.n_min_leaf, config.scarce_mode, side)
        score = np.where(sweep["feasible"], sweep["impurity"], np.inf)
        f, pos = divmod(int(score.argmin()), score.shape[1])
        value = score[f, pos]
        if math.isfinite(value) and (split is None or value < split.impurity):
            theta = _cut(*xs[f, side - 1 + pos:side + 1 + pos].tolist())
            split = Split(int(chunk[f]), theta, float(value))
    return split


def best_split(ds, indices, features, config):
    """Best feasible cut for a node subsample, or None.

    Features are scanned in the given order, positions in ascending
    order; ties keep the first candidate encountered. Scores assume
    finite data, which `Dataset` enforces.

    Args:
        ds: dataset.
        indices: rows belonging to the node.
        features: feature ids to consider, in draw order.
        config: PtConfig.

    Returns:
        Split or None when no feasible cut exists.
    """
    idx = np.asarray(indices, dtype=np.int64)
    features = np.asarray(features, dtype=np.int64)
    if not _may_split(np.bincount(ds.T[idx] - 1, minlength=ds.m)[None], config)[0]:
        return None
    rows = np.empty((ds.d, idx.size), dtype=np.int64)
    rows[features] = idx[np.argsort(ds.X[idx][:, features].T, axis=-1, kind="stable")]
    return _best_split(ds, features, rows, config)


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
        left, right = self.left.tolist(), self.right.tolist()
        level = [0] * len(left)
        for i, child in enumerate(left):  # parents come first
            if child >= 0:
                level[child] = level[right[i]] = level[i] + 1
        return max(level)


def _walk(root, m, d):
    """The pre-order walk that builds a tree, from the root item on an
    explicit stack. It is a generator: it yields each item and is sent
    back its node, a leaf (treatment, counts, means) or a split (feature,
    threshold, left item, right item), and it returns the tree. Nodes are
    numbered parents first and leaves left to right. A waiting item is
    held by the stack alone, and a yielded one by the walk no more. Each
    node records its parent's link, and one scatter fills left and right.
    """
    feature, threshold, links, leaves = [], [], [], []
    stack, root = [(root, -1)], None
    while stack:
        links.append(stack[-1][1])
        node = yield stack.pop()[0]
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


def _lockstep(walks, expand):
    """Run `_walk`s side by side and return their trees in order. Each
    round hands the current item of every unfinished walk to one
    expand(items) call, which returns their nodes in the same order. The
    list is expand's to empty: an item it drops is held nowhere else."""
    trees = [None] * len(walks)
    live = list(enumerate(walks))
    items = [walk.send(None) for walk in walks]
    while live:
        nodes = expand(items)
        items, going = [], []
        for (j, walk), node in zip(live, nodes):
            try:
                items.append(walk.send(node))
                going.append((j, walk))
            except StopIteration as done:
                trees[j] = done.value
        live = going
    return trees


def _build(root, expand, m, d):
    """Tree of the nodes expand(item) gives, walked from the root item."""
    return _lockstep([_walk(root, m, d)], lambda items: map(expand, items))[0]


def _grower(ds, config, n_features):
    """`_lockstep`'s expand step for greedy growth. An item is (rng, idx,
    rows, depth): the tree's feature-draw generator, the node's dataset
    rows in the order of its replicate, the d x k presort `_best_split`
    takes (int32 row ids where they fit), and the node's depth. Rows may
    repeat; the copies of a row share its values, so every cut sends
    them the same way.

    A round finds every node's treatment counts and outcome sums with one
    bincount each, draws each node's features in turn, and scores each
    node that may split with `_best_split`. It hands each child the rows
    of the presort on its side, a stable order of its own rows. A child
    that will never be swept, too small for two sides or at the depth
    bound, gets no presort (None).
    """
    need = 2 * _least_side(config, ds.m)

    def expand(items):
        idx, slot = items[0][1], 0  # one tree's round needs no bins per node
        if len(items) > 1:
            idx = [item[1] for item in items]
            slot = np.repeat(np.arange(len(idx)), [i.size for i in idx])
            idx = np.concatenate(idx)
        counts, sums = _counts_and_sums(ds.T[idx], ds.Y[idx], ds.m, slot, len(items))
        del idx, slot
        may = _may_split(counts, config)
        splits = [None] * len(items)
        for i, (rng, _, rows, depth) in enumerate(items):
            if config.delta_max is None or depth < config.delta_max:
                # drawn even where the node cannot split, as its tree's later draws assume
                features = rng.choice(ds.d, size=n_features, replace=False)
                if may[i]:
                    splits[i] = _best_split(ds, features, rows, config)
        leaves = [i for i, split in enumerate(splits) if split is None]
        if leaves:
            counts = counts[leaves]
            means = _means(counts, sums[leaves])
            chosen, _ = _best_of_stats(counts, means, config.scarce_mode, config.n_min_leaf)
            leaves = dict(zip(leaves, zip(chosen.tolist(), counts, means)))
        out = []
        for i, split in enumerate(splits):
            if split is None:
                out.append(leaves[i])
                continue
            rng, idx, rows, depth = items[i]
            items[i] = None  # the children replace it
            mask = ds.X[idx, split.feature] <= split.threshold
            left_idx, right_idx = idx[mask], idx[~mask]
            left_rows = right_rows = None
            deeper = config.delta_max is None or depth + 1 < config.delta_max
            if deeper and max(left_idx.size, right_idx.size) >= need:
                goes_left = ds.X[rows, split.feature] <= split.threshold
                if left_idx.size >= need:
                    left_rows = rows[goes_left].reshape(ds.d, left_idx.size)
                if right_idx.size >= need:
                    right_rows = rows[~goes_left].reshape(ds.d, right_idx.size)
            out.append((
                split.feature, split.threshold,
                (rng, left_idx, left_rows, depth + 1),
                (rng, right_idx, right_rows, depth + 1),
            ))
        return out

    return expand


def _features_drawn(n_features, d, unset):
    """Features drawn per node from d: n_features, or unset where that is
    None; ConfigError unless it lies in 1..d (0 only when d is)."""
    return _check_int("n_features", unset if n_features is None else n_features, min(1, d), maximum=d)


def _grow(ds, config, n_features, replicates):
    """Greedy trees grown in lockstep, one per (seed, replicate) pair: the
    seed of the tree's feature draws and the dataset rows it is fit on,
    in order, repeats allowed. config, a PtConfig or PfConfig, gives the
    tree settings (its seed is not read). Each tree is the one fit_pt
    grows on split(ds, replicate) under those settings and that seed.
    Trees are grown together in groups of at most _LOCKSTEP_BUDGET row
    ids (one tree at least)."""
    # a replicate's rows in stable order of a column are its positions in
    # (rank, position) order, rank being the dense rank of the row's value
    # presorts and ranks hold int32 where they fit: a group's rows are alive at once
    index = np.int32 if ds.n <= np.iinfo(np.int32).max else np.int64
    order, run = _tie_runs(ds.X.T)
    rank = np.empty(run.shape, dtype=index)
    np.put_along_axis(rank, order, run, axis=-1)
    del order, run
    expand = _grower(ds, config, n_features)
    group = max(1, _LOCKSTEP_BUDGET // (ds.n * (ds.d + 1)))
    trees = []
    for lo in range(0, len(replicates), group):
        walks = []
        for seed, rep in replicates[lo:lo + group]:
            presort = rep.astype(index)[_by_key(rank[:, rep], np.arange(rep.size))]
            walks.append(_walk((make_rng(seed), rep, presort, 0), ds.m, ds.d))
        trees += _lockstep(walks, expand)
    return trees


def fit_pt(ds, config=None):
    """Grow a personalization tree on the full dataset.

    Feature draws consume the seeded generator in pre-order (node, left
    subtree, right subtree), so identical data and config reproduce the
    tree exactly. This is the one-tree case of the lockstep growth that
    fits a forest.
    """
    config = config or PtConfig()
    if ds.n == 0:
        raise ConfigError("cannot fit a tree on an empty dataset")
    n_features = _features_drawn(config.n_features, ds.d, ds.d)
    return _grow(ds, config, n_features, [(config.seed, np.arange(ds.n))])[0]

