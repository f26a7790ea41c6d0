"""Bagged personalization forests.

Each tree is fit on a bootstrap replicate drawn with a seed derived from
the master seed and the tree index, so adding trees never perturbs the
earlier ones. Replicates missing a treatment entirely are redrawn (at
most 100 retries) to keep every tree fittable. A replicate is a row-index
array into the forest's dataset, and the trees are grown together in
lockstep (`tree._grow`); each comes out identical to `fit_pt` on
`split(ds, replicate)` with its derived seed. Prescriptions are the
majority vote over trees, ties to the lowest treatment index.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InfeasibleError, SchemaError, _check_int
from .risk import _BatchPolicy
from .seeding import derive_seed, make_rng
# fit_pt is kept as a name here, bound to the tree module's, as the one
# fit each forest tree equals; perfbench's tracer wraps every binding
from .tree import PtConfig, _grow, fit_pt, tree_from_doc, tree_to_doc  # noqa: F401

MAX_REDRAWS = 100


@dataclass(frozen=True)
class PfConfig:
    """Forest settings: tree count, shared tree config, master seed.

    The base config's seed is ignored (per-tree seeds are derived from
    the forest seed); its n_features defaults to ceil(sqrt(d)) when left
    unset.
    """

    trees_count: int = 100
    base: PtConfig = field(default_factory=lambda: PtConfig(n_min_leaf=10))
    seed: int = 0

    def __post_init__(self):
        _check_int("trees_count", self.trees_count, 1)
        if not isinstance(self.base, PtConfig):
            raise ConfigError(f"base must be a PtConfig, got {self.base!r}")
        _check_int("seed", self.seed, 0)


def replicate_seed(forest_seed, tree_index, attempt=0):
    """Seed of one bootstrap replicate (attempt > 0 after redraws)."""
    return derive_seed(forest_seed, tree_index, attempt)


def tree_fit_seed(rep_seed):
    """Seed for the feature draws of the tree fit on that replicate."""
    return derive_seed(rep_seed, "fit")


def _default_resample(seed, n):
    return make_rng(seed).integers(0, n, size=n)


def fit_pf(ds, config=None, resample=None):
    """Fit a personalization forest.

    Args:
        ds: dataset.
        config: PfConfig.
        resample: optional hook (seed, n) -> index array replacing the
            bootstrap draw; tests use the identity to reduce the forest
            to its base trees.
    """
    config = config or PfConfig()
    if ds.n == 0:
        raise ConfigError("cannot fit a forest on an empty dataset")
    resample = resample or _default_resample
    n_features = config.base.n_features
    if n_features is None:
        n_features = min(ds.d, max(1, math.ceil(math.sqrt(ds.d))))
    replicates = []
    for j in range(config.trees_count):
        for attempt in range(MAX_REDRAWS + 1):
            rep_seed = replicate_seed(config.seed, j, attempt)
            idx = np.asarray(resample(rep_seed, ds.n), dtype=np.int64)
            if np.unique(ds.T[idx]).size == ds.m:
                break
        else:
            raise InfeasibleError(
                f"tree {j}: no bootstrap replicate contained every treatment "
                f"after {MAX_REDRAWS} redraws"
            )
        replicates.append((tree_fit_seed(rep_seed), idx))
    trees = _grow(ds, config.base, n_features, replicates)
    return PersonalizationForest(trees=tuple(trees), m=ds.m, d=ds.d)


@dataclass(frozen=True)
class PersonalizationForest(_BatchPolicy):
    """Fitted forest policy."""

    trees: tuple
    m: int
    d: int

    def votes(self, X):
        """(n, m) per-treatment vote counts; each row sums to the tree count."""
        X = np.asarray(X, dtype=np.float64)
        counts = np.zeros((len(X), self.m), dtype=np.int64)
        rows = np.arange(len(X))
        for tree in self.trees:
            counts[rows, tree.predict_many(X) - 1] += 1
        return counts

    def predict_many(self, X):
        return np.argmax(self.votes(X), axis=1) + 1


def forest_to_doc(forest):
    return {"kind": "pf", "trees": [tree_to_doc(t) for t in forest.trees]}


def forest_from_doc(doc):
    if doc.get("kind") != "pf":
        raise SchemaError(f"expected a pf document, got kind {doc.get('kind')!r}")
    trees = tuple(tree_from_doc(t) for t in doc["trees"])
    if not trees:
        raise SchemaError("a forest document must contain at least one tree")
    m, d = trees[0].m, trees[0].d
    if any(t.m != m or t.d != d for t in trees):
        raise SchemaError("all trees in a forest must agree on m and d")
    return PersonalizationForest(trees=trees, m=m, d=d)
