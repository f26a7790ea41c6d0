"""Datasets: loading, validation, synthetic generation, resampling.

A dataset holds covariates X (n x d, after one-hot encoding), integer
treatment labels T in 1..m, observed outcomes Y (smaller is better), and
optionally the full counterfactual outcome table CF (n x m) and the
assignment probabilities Q of the received treatments.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    MissingCounterfactualError,
    MissingPropensityError,
    ParseError,
    SchemaError,
)
from .seeding import make_rng


@dataclass(frozen=True)
class Feature:
    """One original feature: numeric, or categorical with fixed levels."""

    name: str
    levels: tuple = None  # None -> numeric

    @property
    def is_categorical(self):
        return self.levels is not None


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered original features plus their one-hot encoded layout.

    Categorical features are expanded to one indicator column per level
    (no level is dropped), so the encoded dimension can exceed the number
    of original features.
    """

    features: tuple

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate feature names")
        for f in self.features:
            if f.is_categorical:
                if len(f.levels) == 0:
                    raise SchemaError(f"feature {f.name!r} has no levels")
                if len(set(f.levels)) != len(f.levels):
                    raise SchemaError(f"feature {f.name!r} has duplicate levels")

    @property
    def encoded_names(self):
        out = []
        for f in self.features:
            if f.is_categorical:
                out.extend(f"{f.name}={lv}" for lv in f.levels)
            else:
                out.append(f.name)
        return tuple(out)

    @property
    def encoded_dim(self):
        return len(self.encoded_names)

    @staticmethod
    def numeric(names):
        """Schema of purely numeric features with the given names."""
        return FeatureSchema(tuple(Feature(n) for n in names))


@dataclass(frozen=True)
class Dataset:
    """Immutable observational sample.

    Attributes:
        X: float covariates, n x d (encoded).
        T: int treatment labels in 1..m.
        Y: observed outcomes, length n.
        m: number of treatments.
        CF: optional counterfactual outcomes, n x m; CF[i, t-1] is the
            outcome subject i would have had under treatment t.
        Q: optional probability of the received treatment, in (0, 1].
        schema: feature layout.
    """

    X: np.ndarray
    T: np.ndarray
    Y: np.ndarray
    m: int
    CF: np.ndarray = None
    Q: np.ndarray = None
    schema: FeatureSchema = None

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.X, dtype=np.float64))
        T = np.asarray(self.T, dtype=np.int64)
        Y = np.asarray(self.Y, dtype=np.float64)
        CF = None if self.CF is None else np.asarray(self.CF, dtype=np.float64)
        Q = None if self.Q is None else np.asarray(self.Q, dtype=np.float64)
        for name, val in (("X", X), ("Y", Y), ("CF", CF), ("Q", Q)):
            if val is not None and not np.isfinite(val).all():
                raise DomainError(f"{name} must be finite (no NaN or infinity)")
        if X.ndim != 2:
            raise SchemaError("X must be 2-dimensional")
        n = X.shape[0]
        if T.shape != (n,) or Y.shape != (n,):
            raise SchemaError("T and Y must have one entry per row of X")
        if self.m < 1:
            raise DomainError("m must be at least 1")
        if n and (T.min() < 1 or T.max() > self.m):
            raise DomainError(f"treatment labels must lie in 1..{self.m}")
        if CF is not None:
            if CF.shape != (n, self.m):
                raise SchemaError("CF must have shape (n, m)")
            if n and not np.array_equal(CF[np.arange(n), T - 1], Y):
                raise DomainError("Y must equal the counterfactual of the received treatment")
        if Q is not None:
            if Q.shape != (n,):
                raise SchemaError("Q must have one entry per row")
            if n and (Q.min() <= 0.0 or Q.max() > 1.0):
                raise DomainError("propensities must lie in (0, 1]")
        schema = self.schema
        if schema is None:
            schema = FeatureSchema.numeric([f"x{j + 1}" for j in range(X.shape[1])])
        if schema.encoded_dim != X.shape[1]:
            raise SchemaError("schema encoded dimension does not match X")
        for name, val in (("X", X), ("T", T), ("Y", Y), ("CF", CF), ("Q", Q)):
            if val is not None:
                val.setflags(write=False)
            object.__setattr__(self, name, val)
        object.__setattr__(self, "schema", schema)

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def d(self):
        return self.X.shape[1]

    def require_cf(self):
        if self.CF is None:
            raise MissingCounterfactualError("dataset has no counterfactual outcomes")
        return self.CF

    def require_q(self):
        if self.Q is None:
            raise MissingPropensityError("dataset has no assignment probabilities")
        return self.Q


def split(ds, indices):
    """Row subset (any order, repeats allowed); m and schema are preserved."""
    idx = np.asarray(indices, dtype=np.int64)
    return Dataset(
        X=ds.X[idx],
        T=ds.T[idx],
        Y=ds.Y[idx],
        m=ds.m,
        CF=None if ds.CF is None else ds.CF[idx],
        Q=None if ds.Q is None else ds.Q[idx],
        schema=ds.schema,
    )


def bootstrap(ds, seed):
    """Uniform resample of n rows with replacement.

    Returns:
        (resampled dataset, drawn indices)
    """
    idx = make_rng(seed).integers(0, ds.n, size=ds.n)
    return split(ds, idx), idx


def _parse_float(cell, row, column):
    try:
        v = float(cell)
    except ValueError:
        raise ParseError("not a number", row=row, column=column) from None
    if not math.isfinite(v):
        raise ParseError("not a finite number", row=row, column=column)
    return v


def _parse_label(cell, row, column):
    v = _parse_float(cell, row, column)
    if not v.is_integer():
        raise ParseError("treatment label must be an integer", row=row, column=column)
    return int(v)


def load_csv(path, treatment_col="treatment", outcome_col="outcome", cf_cols=None, q_col=None):
    """Load a dataset from CSV.

    All columns other than the treatment, outcome, counterfactual, and
    propensity columns are treated as features. A feature column whose
    cells all parse as numbers is numeric; otherwise it is categorical
    and one-hot encoded over its sorted distinct values.

    Args:
        path: CSV file with a header row.
        treatment_col: column of integer labels >= 1.
        outcome_col: column of observed outcomes.
        cf_cols: optional list of m counterfactual columns, one per
            treatment in label order (conventionally y1..ym).
        q_col: optional column of received-treatment probabilities.

    Returns:
        Dataset. m is the largest label seen unless cf_cols pins it.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, header required") from None
        rows = [r for r in reader if r]

    reserved = [treatment_col, outcome_col] + list(cf_cols or []) + ([q_col] if q_col else [])
    for col in reserved:
        if col not in header:
            raise SchemaError(f"{path}: missing column {col!r}")
    if len(set(header)) != len(header):
        raise SchemaError(f"{path}: duplicate column names")
    col_index = {name: j for j, name in enumerate(header)}
    feature_cols = [name for name in header if name not in reserved]

    for i, r in enumerate(rows):
        if len(r) != len(header):
            raise ParseError(f"expected {len(header)} cells, got {len(r)}", row=i + 2, column="")

    n = len(rows)
    T = np.empty(n, dtype=np.int64)
    Y = np.empty(n, dtype=np.float64)
    for i, r in enumerate(rows):
        T[i] = _parse_label(r[col_index[treatment_col]], i + 2, treatment_col)
        if T[i] < 1:
            raise DomainError(f"treatment label {T[i]} < 1 (row {i + 2})")
        Y[i] = _parse_float(r[col_index[outcome_col]], i + 2, outcome_col)

    m = int(T.max()) if n else 1
    CF = None
    if cf_cols:
        m = len(cf_cols)
        if n and T.max() > m:
            raise DomainError(f"label {T.max()} exceeds the {m} counterfactual columns")
        CF = np.empty((n, m), dtype=np.float64)
        for i, r in enumerate(rows):
            for t, col in enumerate(cf_cols):
                CF[i, t] = _parse_float(r[col_index[col]], i + 2, col)
    Q = None
    if q_col:
        Q = np.empty(n, dtype=np.float64)
        for i, r in enumerate(rows):
            Q[i] = _parse_float(r[col_index[q_col]], i + 2, q_col)

    features = []
    encoded = []
    for name in feature_cols:
        j = col_index[name]
        cells = [r[j] for r in rows]
        try:
            col = np.array([float(c) for c in cells], dtype=np.float64)
            bad = np.flatnonzero(~np.isfinite(col))
            if bad.size:
                raise ParseError("not a finite number", row=int(bad[0]) + 2, column=name)
            features.append(Feature(name))
            encoded.append(col.reshape(-1, 1))
        except ValueError:
            levels = tuple(sorted(set(cells)))
            features.append(Feature(name, levels=levels))
            block = np.zeros((n, len(levels)), dtype=np.float64)
            pos = {lv: k for k, lv in enumerate(levels)}
            for i, c in enumerate(cells):
                block[i, pos[c]] = 1.0
            encoded.append(block)

    X = np.hstack(encoded) if encoded else np.empty((n, 0))
    return Dataset(X=X, T=T, Y=Y, m=m, CF=CF, Q=Q, schema=FeatureSchema(tuple(features)))


def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def save_csv(ds, path):
    """Write the encoded dataset as CSV (features, treatment, outcome,
    y1..ym if counterfactuals are present, q if propensities are).

    Floats are written with shortest round-trip precision, so a reload
    reproduces the arrays bit for bit.
    """
    header = list(ds.schema.encoded_names) + ["treatment", "outcome"]
    if ds.CF is not None:
        header += [f"y{t + 1}" for t in range(ds.m)]
    if ds.Q is not None:
        header += ["q"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(ds.n):
            row = [_fmt(v) for v in ds.X[i]]
            row.append(str(int(ds.T[i])))
            row.append(_fmt(ds.Y[i]))
            if ds.CF is not None:
                row.extend(_fmt(v) for v in ds.CF[i])
            if ds.Q is not None:
                row.append(_fmt(ds.Q[i]))
            writer.writerow(row)


def confounded_propensity(z, m=3):
    """Assignment probabilities proportional to exp((t - 2) * z), t = 1..3.

    Subjects with large z are steered toward treatment 3, small z toward
    treatment 1. Only defined for three treatments.

    Args:
        z: scalar or array of standardized scores.

    Returns:
        Array with a trailing axis of length 3 summing to 1.
    """
    if m != 3:
        raise ConfigError("confounded_propensity is defined for m = 3 only")
    z = np.asarray(z, dtype=np.float64)
    logits = np.stack([-z, np.zeros_like(z), z], axis=-1)
    logits = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic observational dataset.

    outcome_model, propensity_model, and covariate_model are dicts with a
    "name" key plus model parameters; see the _OUTCOME/_PROPENSITY/
    _COVARIATE registries for the available identifiers.
    """

    n: int
    d: int
    m: int
    outcome_model: dict
    propensity_model: dict
    seed: int = 0
    covariate_model: dict = field(default_factory=lambda: {"name": "normal"})

    def __post_init__(self):
        if self.n < 1 or self.d < 1 or self.m < 1:
            raise ConfigError("n, d, m must be positive")


def _cov_normal(spec, rng, params):
    return rng.standard_normal((spec.n, spec.d))


def _cov_discrete_grid(spec, rng, params):
    values = params.get("values")
    if not values:
        raise ConfigError("discrete_grid needs a non-empty 'values' list")
    if isinstance(values[0], (list, tuple)):
        if len(values) != spec.d:
            raise ConfigError("per-feature 'values' must list every feature")
        cols = [rng.choice(np.asarray(v, dtype=np.float64), size=spec.n) for v in values]
        return np.column_stack(cols)
    vals = np.asarray(values, dtype=np.float64)
    return rng.choice(vals, size=(spec.n, spec.d))


def _cov_mixed_binary(spec, rng, params):
    X = rng.standard_normal((spec.n, spec.d))
    for j in params.get("binary_features", []):
        if not 0 <= j < spec.d:
            raise ConfigError(f"binary feature index {j} out of range")
        X[:, j] = rng.integers(0, 2, size=spec.n).astype(np.float64)
    return X


_COVARIATE = {
    "normal": _cov_normal,
    "discrete_grid": _cov_discrete_grid,
    "mixed_binary": _cov_mixed_binary,
}


def _out_linear(spec, rng, X, params):
    coef = np.asarray(params["coef"], dtype=np.float64)
    intercept = np.asarray(params.get("intercept", np.zeros(spec.m)), dtype=np.float64)
    if coef.shape != (spec.m, spec.d) or intercept.shape != (spec.m,):
        raise ConfigError("linear model needs coef (m x d) and intercept (m)")
    mean = X @ coef.T + intercept
    noise = float(params.get("noise", 0.0))
    return mean + noise * rng.standard_normal(mean.shape)


def _out_quadratic(spec, rng, X, params):
    centers = np.asarray(params["centers"], dtype=np.float64)
    if centers.shape != (spec.m,):
        raise ConfigError("quadratic model needs one center per treatment")
    f = int(params.get("feature", 0))
    mean = (X[:, [f]] - centers[None, :]) ** 2
    noise = float(params.get("noise", 0.0))
    return mean + noise * rng.standard_normal(mean.shape)


def _out_warfarin_like(spec, rng, X, params):
    """Binary "dose incorrect" outcomes over three dose groups.

    The correct group is 1 + 1[x_driver > cut1] + 1[x_driver > cut2],
    bumped up by one when the up feature is set and down by one when the
    down feature is set (clipped to 1..3). The counterfactual outcome is
    1 when the treatment differs from the correct group, 0 when it
    matches, each cell flipped independently with probability `flip`.
    """
    if spec.m != 3:
        raise ConfigError("warfarin_like is defined for m = 3 only")
    cuts = params.get("cuts", (-0.4, 0.6))
    driver = int(params.get("driver", 0))
    up = params.get("up_feature")
    down = params.get("down_feature")
    x = X[:, driver]
    group = 1 + (x > cuts[0]).astype(np.int64) + (x > cuts[1]).astype(np.int64)
    if up is not None:
        group = group + (X[:, int(up)] > 0.5).astype(np.int64)
    if down is not None:
        group = group - (X[:, int(down)] > 0.5).astype(np.int64)
    group = np.clip(group, 1, 3)
    cf = (np.arange(1, 4)[None, :] != group[:, None]).astype(np.float64)
    flip = float(params.get("flip", 0.0))
    if flip > 0.0:
        mask = rng.random(cf.shape) < flip
        cf = np.abs(cf - mask.astype(np.float64))
    return cf


_OUTCOME = {
    "linear": _out_linear,
    "quadratic": _out_quadratic,
    "warfarin_like": _out_warfarin_like,
}


def _standardize(col):
    sd = col.std(ddof=1) if col.size > 1 else 0.0
    if sd == 0.0:
        return np.zeros_like(col)
    return (col - col.mean()) / sd


def _prop_uniform(spec, X, params):
    return np.full((spec.n, spec.m), 1.0 / spec.m)


def _prop_bmi_logistic(spec, X, params):
    if spec.m != 3:
        raise ConfigError("bmi_logistic is defined for m = 3 only")
    f = int(params.get("feature", 0))
    z = _standardize(X[:, f])
    return confounded_propensity(z)


def _prop_logistic_binary(spec, X, params):
    if spec.m != 2:
        raise ConfigError("logistic_binary is defined for m = 2 only")
    f = int(params.get("feature", 0))
    a = float(params.get("strength", 1.0))
    p2 = 1.0 / (1.0 + np.exp(-a * X[:, f]))
    return np.column_stack([1.0 - p2, p2])


_PROPENSITY = {
    "uniform": _prop_uniform,
    "bmi_logistic": _prop_bmi_logistic,
    "logistic_binary": _prop_logistic_binary,
}


def _lookup(registry, model, what):
    name = model.get("name")
    if name not in registry:
        known = ", ".join(sorted(registry))
        raise ConfigError(f"unknown {what} model {name!r} (known: {known})")
    return registry[name]


def generate_synthetic(spec):
    """Generate a dataset with full counterfactuals and true propensities.

    Drawing order (covariates, counterfactual noise, treatments) is fixed,
    so identical specs produce bit-identical datasets.
    """
    rng = make_rng(spec.seed)
    cov = _lookup(_COVARIATE, spec.covariate_model, "covariate")
    out = _lookup(_OUTCOME, spec.outcome_model, "outcome")
    prop = _lookup(_PROPENSITY, spec.propensity_model, "propensity")

    X = cov(spec, rng, spec.covariate_model)
    CF = out(spec, rng, X, spec.outcome_model)
    probs = prop(spec, X, spec.propensity_model)
    if probs.shape != (spec.n, spec.m) or probs.min() <= 0.0:
        raise ConfigError("propensity model must return positive n x m probabilities")

    u = rng.random(spec.n)
    cum = np.cumsum(probs, axis=1)
    T = 1 + (u[:, None] > cum).sum(axis=1)
    T = np.minimum(T, spec.m)  # guard against float round-off in the last bin
    Q = probs[np.arange(spec.n), T - 1]
    Y = CF[np.arange(spec.n), T - 1]
    return Dataset(X=X, T=T, Y=Y, m=spec.m, CF=CF, Q=Q)
