"""Greedy personalization trees.

A tree is grown by recursive partitioning: at each node a random subset
of features is drawn, every strict-gap cut position along each drawn
feature is scored by the summed impurity of the two sides, and the best
feasible cut is taken. Splitting continues while feasible cuts exist and
the depth bound allows; leaves prescribe the treatment with the smallest
mean outcome among their eligible treatments.

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
node of every unfinished tree. The drawn features of those nodes are
swept in a few vectorised passes of similar-sized nodes, each padded to
its largest node and held under a budget of feature-by-row cells; a
node above the budget is swept in chunks of features, which bounds the
sweep's memory. Feature draws and cuts are those of a tree grown alone,
so a forest's trees are identical to one-by-one fits, and `fit_pt` is
the one-tree case.

A fitted tree is a set of parallel node arrays (`PersonalizationTree`)
in pre-order: every parent precedes its children and the leaves appear
left to right. `_walk` is the one walk that builds such arrays (greedy
fits, model files, exact solutions) and `_route` the one that sends rows
down them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SchemaError, _check_int, _check_number, _check_shape
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


# Most feature-by-row cells one vectorised sweep may hold. Nodes of
# similar size share a sweep up to the budget; a node above it is swept
# in chunks of as many features as fit, at least one, which bounds the
# sweep's memory.
_SWEEP_BUDGET = 4096

# Nodes share a padded sweep while the largest holds at most 5/4 of the
# smallest's rows, so pads stay under a fifth of the cells.
_PAD_RATIO = (5, 4)

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
    node's rows, each row of the arrays in ascending order of its
    feature. Row r holds k[r] real points, then pads (treatment 0,
    outcome +0.0, x = +inf), which count for no treatment and add zero
    to every sum; k may be one size for all rows. Position j puts the
    first j points on the left, and positions at or past k[r] are never
    feasible. Each side of a feasible cut holds at least `side` points,
    so callers pass that bound to skip positions that cannot be feasible,
    or 1 to score them all.

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
    # an absent treatment's 0/0 is NaN, which fmin skips; on pads an empty
    # right side can meet a zero or negative size
    with np.errstate(invalid="ignore"):
        if scarce_mode:  # a side's minimum over its eligible treatments only
            valid = counts >= n_min_leaf
            means = np.divide(sums, counts, out=np.full(counts.shape, np.inf), where=valid)
            side_min = np.minimum.reduce(means, axis=1)
            defined = np.logical_or.reduce(valid, axis=1)
        else:
            side_min = np.fmin.reduce(sums / counts, axis=1)
            defined = np.minimum.reduce(counts, axis=1) >= n_min_leaf
        impurity = k_left * side_min[0] + np.subtract.outer(k, k_left) * side_min[1]
    gap = xs[:, side - 1:K - side] < xs[:, side:K - side + 1]
    return {
        "sides": sides,
        "gap": gap,
        "feasible": defined[0] & defined[1] & gap,
        "impurity": impurity,
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
        "threshold": (xs[:-1] + xs[1:]) / 2.0,
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


def _batches(nodes):
    """The feature rows of `_best_splits`' nodes in sweep batches, each a
    list of (node, lo, hi): node i's features lo:hi. Nodes go in order
    of k. A batch takes whole nodes while its largest k is within
    _PAD_RATIO of its smallest and its cells stay within _SWEEP_BUDGET;
    a node over the budget alone is swept in chunks of features that fit
    (at least one each)."""
    batch, first, rows = [], 0, 0
    wide, tall = _PAD_RATIO
    for i in sorted(range(len(nodes)), key=lambda i: nodes[i][1].shape[1]):
        F, k = len(nodes[i][0]), nodes[i][1].shape[1]
        step = max(1, _SWEEP_BUDGET // k)
        if not F:  # no feature drawn, nothing to sweep
            continue
        if F > step:
            yield from ([(i, lo, min(lo + step, F))] for lo in range(0, F, step))
            continue
        if batch and (k * tall > first * wide or (rows + F) * k > _SWEEP_BUDGET):
            yield batch
            batch = []
        if not batch:
            first, rows = k, 0
        batch.append((i, 0, F))
        rows += F
    if batch:
        yield batch


def _best_splits(ds, nodes, config):
    """`best_split` for many nodes at once: a Split or None per node.

    A node is (features, rows): its feature ids in draw order and a
    d x k array whose row f holds its rows in stable ascending order of
    feature f (only the drawn rows are read). Each batch of `_batches`
    is one sweep, its nodes padded to its largest k, of the positions a
    feasible cut can take. A node keeps the first minimum over (feature,
    position), as `best_split` does: its chunks come in draw order, and
    a later one replaces the best only when strictly lower.
    """
    best = [None] * len(nodes)
    side = _least_side(config, ds.m)
    for batch in _batches(nodes):
        picks = [nodes[i][0][lo:hi] for i, lo, hi in batch]
        blocks = [nodes[i][1][f] for (i, _, _), f in zip(batch, picks)]
        features = picks[0] if len(picks) == 1 else np.concatenate(picks)
        k = blocks[-1].shape[1]
        if k < 2 * side:  # no cut leaves `side` points on both sides
            continue
        if blocks[0].shape[1] == k:
            # int32 row ids gather fastest once widened
            block = np.concatenate(blocks, dtype=np.intp, casting="same_kind")
            xs, ts, ys = ds.X[block, features[:, None]], ds.T[block], ds.Y[block]
        else:
            k = np.repeat([b.shape[1] for b in blocks], [b.shape[0] for b in blocks])
            flat = np.concatenate([b.ravel() for b in blocks], dtype=np.intp, casting="same_kind")
            real = np.arange(k[-1]) < k[:, None]
            xs = np.full(real.shape, np.inf)
            xs[real] = ds.X[flat, features.repeat(k)]
            ts = np.zeros(real.shape, dtype=ds.T.dtype)
            ts[real] = ds.T[flat]
            ys = np.zeros(real.shape)
            ys[real] = ds.Y[flat]
        sweep = _sweep(xs, ts, ys, k, ds.m, config.n_min_leaf, config.scarce_mode, side)
        score = np.where(sweep["feasible"], sweep["impurity"], np.inf)
        top = 0
        for i, lo, hi in batch:
            f, pos = divmod(int(score[top:top + hi - lo].argmin()), score.shape[1])
            f += top
            value = score[f, pos]
            if math.isfinite(value) and (best[i] is None or value < best[i].impurity):
                best[i] = Split(
                    feature=int(features[f]),
                    threshold=float((xs[f, side - 1 + pos] + xs[f, side + pos]) / 2.0),
                    impurity=float(value),
                )
            top += hi - lo
    return best


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
    return _best_splits(ds, [(features, rows)], config)[0]


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
    rows in the order of its replicate, the d x k presort `best_split`
    takes (int32 row ids where they fit), and the node's depth. Rows may
    repeat; the copies of a row share its values, so every cut sends
    them the same way.

    A round draws each node's features in turn, finds every node's
    treatment counts and outcome sums with one bincount each, scores the
    nodes that may split in one `_best_splits` call, and hands each child
    the rows of the presort on its side, a stable order of its own rows.
    A child that will never be swept, too small for two sides or at the
    depth bound, gets no presort (None).
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
        scored, nodes = [], []
        for i, (rng, _, rows, depth) in enumerate(items):
            if config.delta_max is None or depth < config.delta_max:
                features = rng.choice(ds.d, size=n_features, replace=False)
                if may[i]:
                    scored.append(i)
                    nodes.append((features, rows))
        splits = [None] * len(items)
        for i, split in zip(scored, _best_splits(ds, nodes, config) if nodes else ()):
            splits[i] = split
        del nodes
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


def _grow(ds, config, n_features, replicates):
    """Greedy trees grown in lockstep, one per (seed, replicate) pair: the
    seed of the tree's feature draws (config's own is not read) and the
    dataset rows it is fit on, in order, repeats allowed. Each tree is
    the one fit_pt(split(ds, replicate), config with that seed) grows.
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
    n_features = _check_int("n_features", config.n_features or ds.d, 1, maximum=ds.d)
    return _grow(ds, config, n_features, [(config.seed, np.arange(ds.n))])[0]


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
