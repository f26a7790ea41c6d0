"""Datasets: loading, validation, synthetic generation, resampling.

A dataset holds covariates X (n x d, after one-hot encoding), integer
treatment labels T in 1..m, observed outcomes Y (smaller is better), and
optionally the full counterfactual outcome table CF (n x m) and the
assignment probabilities Q of the received treatments.
"""

import csv
import functools
import json
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
    _check_floats,
    _check_int,
    _check_keys,
    _check_number,
    _check_object,
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
        bad = (T < 1) | (T > self.m)
        if bad.any():
            raise DomainError(f"treatment labels must lie in 1..{self.m} (subject {bad.argmax()})")
        if CF is not None:
            if CF.shape != (n, self.m):
                raise SchemaError("CF must have shape (n, m)")
            bad = CF[np.arange(n), T - 1] != Y
            if bad.any():
                raise DomainError("Y must equal the counterfactual of the received treatment"
                                  f" (subject {bad.argmax()})")
        if Q is not None:
            if Q.shape != (n,):
                raise SchemaError("Q must have one entry per row")
            bad = (Q <= 0.0) | (Q > 1.0)
            if bad.any():
                raise DomainError(f"propensities must lie in (0, 1] (subject {bad.argmax()})")
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


def _arms(ds):
    """The rows of each treatment 1..m; DomainError if one has none."""
    arms = [np.flatnonzero(ds.T == t) for t in range(1, ds.m + 1)]
    for t, rows in enumerate(arms, start=1):
        if rows.size == 0:
            raise DomainError(f"treatment {t} has no subjects")
    return arms


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
    if not -(2.0**63) <= v < 2.0**63:
        raise ParseError("treatment label beyond the 64-bit integer range", row=row, column=column)
    if v < 1:
        raise DomainError(f"treatment label {int(v)} < 1 (row {row})")
    return int(v)


def _valid_labels(v):
    return np.isfinite(v) & (v == np.trunc(v)) & (v >= 1) & (v < 2.0**63)


def _cell_floats(cells):
    """The cells as a float array (as given if they are one already), or
    None if float() refuses a cell."""
    if isinstance(cells, np.ndarray):
        return cells
    try:
        return np.array(list(map(float, cells)), dtype=np.float64)
    except ValueError:
        return None


def _column(cells, column, valid=np.isfinite, parse=_parse_float):
    """Parse one column with float(); on any bad cell, rescan the column
    with the per-cell `parse`, which raises for its first bad row."""
    v = _cell_floats(cells)
    if v is None or not valid(v).all():
        for i, cell in enumerate(cells):
            parse(cell, i + 2, column)
    return v


# characters loadtxt strips around a number as spaces and float() refuses
_LOADTXT_ONLY_SPACES = "\x1c\x1d\x1e\x1f"


def _block(fh, width):
    """The rest of the file as one float64 array of `width` columns,
    parsed in C by loadtxt, or None for a body it might read otherwise
    than csv and float() do: a cell loadtxt refuses (a quote, a word, an
    empty cell, `1_000`, non-ASCII digits), a bare \\r line end (loadtxt
    refuses one inside a line), a ragged row or one of another width, a
    blank body, undecodable bytes, a character that only loadtxt takes for
    a space, or a line past csv's field size limit. Blank lines are
    skipped as csv skips them, so row i is the i-th non-blank row."""
    try:
        body = fh.read()
    except UnicodeDecodeError:
        return None
    lines = body.split("\n")
    if (not body.strip("\r\n") or any(c in body for c in _LOADTXT_ONLY_SPACES)
            or max(map(len, lines)) >= csv.field_size_limit()):
        return None
    try:
        block = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    return block if block.shape[1] == width else None


def _json_file(path, too_deep=None, parse_int=None):
    """The document in a JSON file, integers read by parse_int if given;
    ParseError naming the file for bytes that are not UTF-8 text, invalid
    JSON, or nesting past json's recursion (too_deep if given)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            # json.load's body minus a frame: model_io._MAX_NESTING
            return json.loads(fh.read(), parse_int=parse_int)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not {fh.encoding} text: {exc.reason}") from exc
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise too_deep or ParseError(f"{path}: JSON nested too deeply to read") from exc


def load_csv(path, treatment_col="treatment", outcome_col="outcome", cf_cols=None, q_col=None):
    """Load a dataset from CSV.

    All columns other than the treatment, outcome, counterfactual, and
    propensity columns are treated as features. A feature column whose
    cells all parse as numbers is numeric; otherwise it is categorical
    and one-hot encoded over its sorted distinct values.

    Columns are parsed whole, in the order treatment, outcome,
    counterfactuals, propensity, features, so with several bad cells the
    error names the first bad row of the first bad column in that order.
    The body is parsed as one float block where `_block` can take it,
    else cell by cell; both give the same arrays and the same errors.
    Every ParseError and DomainError names the file.

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
            block = _block(fh, len(header))
            if block is None:
                fh.seek(0)
                reader = csv.reader(fh)  # line_num counts from the top again
                next(reader)
                rows = list(filter(None, reader))
        except StopIteration:
            raise SchemaError(f"{path}: empty file, header required") from None
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not {fh.encoding} text: {exc.reason}") from exc
        except csv.Error as exc:
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from exc

    reserved = [treatment_col, outcome_col] + list(cf_cols or []) + ([q_col] if q_col else [])
    for col in reserved:
        if col not in header:
            raise SchemaError(f"{path}: missing column {col!r}")
    if len(set(header)) != len(header):
        raise SchemaError(f"{path}: duplicate column names")
    feature_cols = [name for name in header if name not in reserved]

    if block is not None:
        n = len(block)
        cells = dict(zip(header, np.ascontiguousarray(block.T)))
    else:
        if set(map(len, rows)) - {len(header)}:
            for i, r in enumerate(rows):
                if len(r) != len(header):
                    raise ParseError(f"{path}: expected {len(header)} cells, got {len(r)}", row=i + 2,
                                     column="")
        n = len(rows)
        cells = dict(zip(header, zip(*rows) if rows else [()] * len(header)))
    try:
        T = _column(cells[treatment_col], treatment_col, _valid_labels, _parse_label).astype(np.int64)
        Y = _column(cells[outcome_col], outcome_col)

        m = int(T.max()) if n else 1
        CF = None
        if cf_cols:
            m = len(cf_cols)
            if n and T.max() > m:
                i = int(np.argmax(T > m))
                raise DomainError(f"label {T[i]} exceeds the {m} counterfactual columns (row {i + 2})")
            CF = np.column_stack([_column(cells[col], col) for col in cf_cols])
        Q = _column(cells[q_col], q_col) if q_col else None

        features = []
        encoded = []
        for name in feature_cols:
            column = cells[name]
            col = _cell_floats(column)
            if col is None:
                levels = tuple(sorted(set(column)))
                features.append(Feature(name, levels=levels))
                pos = {lv: k for k, lv in enumerate(levels)}
                block = np.zeros((n, len(levels)), dtype=np.float64)
                block[np.arange(n), [pos[c] for c in column]] = 1.0
                encoded.append(block)
                continue
            _column(col, name)
            features.append(Feature(name))
            encoded.append(col.reshape(-1, 1))

        X = np.hstack(encoded) if encoded else np.empty((n, 0))
        return Dataset(X=X, T=T, Y=Y, m=m, CF=CF, Q=Q, schema=FeatureSchema(tuple(features)))
    except (DomainError, ParseError) as exc:
        exc.args = (f"{path}: {exc}",)  # a ParseError keeps its row and column
        raise


_SAVE_BLOCK = 8192  # rows formatted per write, so memory stays bounded


def _fmt(col):
    """The cells of one column, as strings."""
    if col.dtype.kind in "iu":
        return list(map(str, col.tolist()))
    whole = (col == np.trunc(col)) & (np.abs(col) < 1e15)
    if whole.all():
        return list(map(str, col.astype(np.int64).tolist()))
    if not whole.any():
        return list(map(repr, col.tolist()))
    return [str(int(v)) if w else repr(v) for v, w in zip(col.tolist(), whole.tolist())]


def save_csv(ds, path):
    """Write the encoded dataset as CSV (features, treatment, outcome,
    y1..ym if counterfactuals are present, q if propensities are).

    Floats are written with shortest round-trip precision, whole
    numbers below 1e15 without a fraction, so a reload reproduces the
    arrays bit for bit except that -0.0 comes back as 0.0. The header
    goes through csv.writer; numeric cells never need quoting, so data
    rows are joined directly, each ending in CRLF as csv.writer ends
    them.
    """
    header = list(ds.schema.encoded_names) + ["treatment", "outcome"]
    columns = [*ds.X.T, ds.T, ds.Y]
    if ds.CF is not None:
        header += [f"y{t + 1}" for t in range(ds.m)]
        columns += list(ds.CF.T)
    if ds.Q is not None:
        header += ["q"]
        columns.append(ds.Q)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, ds.n, _SAVE_BLOCK):
            cells = [_fmt(col[start : start + _SAVE_BLOCK]) for col in columns]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


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
    "name" key plus that model's parameters. Each model is a function
    below whose keyword-only arguments declare its parameters and their
    defaults, and the README lists them. Construction checks all three
    models against n, d and m, so a spec that exists can be drawn.
    """

    n: int
    d: int
    m: int
    outcome_model: dict
    propensity_model: dict
    seed: int = 0
    covariate_model: dict = field(default_factory=lambda: {"name": "normal"})

    def __post_init__(self):
        for name in ("n", "d", "m"):
            _check_int(name, getattr(self, name), 1)
        _check_int("seed", self.seed, 0)
        _bind_models(self)


# Each generator model is a function of (spec, rng), (spec, rng, X) or
# (spec, X) whose keyword-only arguments are its parameters: a default
# makes one optional, and the annotation is the check a given value
# passes, check(spec, key, value) -> the value to draw with. A given
# null stands for a null default.


def _feature(spec, key, j):
    """A feature index below d."""
    _check_int(key, j, 0)
    if j >= spec.d:
        raise ConfigError(f"{key} must be below d = {spec.d}, got {j!r}")
    return j


def _features(spec, key, value):
    """A list of feature indices below d."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list of feature indices, got {value!r}")
    return [_feature(spec, key, j) for j in value]


def _number(spec, key, value):
    """A finite real number, not a bool."""
    return _check_number(key, value)


def _floats(*shape):
    """The check of an array parameter: finite numbers of the shape,
    whose entries are lengths, "m", "d", or None for any length >= 1."""

    def check(spec, key, value):
        want = tuple(getattr(spec, n) if isinstance(n, str) else n for n in shape)
        return _check_floats(key, value, want)

    return check


def _levels(spec, key, value):
    """One list of levels for every feature, or a list per feature."""
    if isinstance(value, (list, tuple)) and value and isinstance(value[0], (list, tuple)):
        if len(value) != spec.d:
            raise ConfigError(f"{key} must hold {spec.d} lists, one per feature, got {len(value)}")
        return [_check_floats(key, v, (None,)) for v in value]
    return _check_floats(key, value, (None,))


def _cov_normal(spec, rng):
    return rng.standard_normal((spec.n, spec.d))


def _cov_discrete_grid(spec, rng, *, values: _levels):
    if isinstance(values, list):
        return np.column_stack([rng.choice(v, size=spec.n) for v in values])
    return rng.choice(values, size=(spec.n, spec.d))


def _cov_mixed_binary(spec, rng, *, binary_features: _features = ()):
    X = rng.standard_normal((spec.n, spec.d))
    for j in binary_features:
        X[:, j] = rng.integers(0, 2, size=spec.n).astype(np.float64)
    return X


_COVARIATE = {
    "normal": _cov_normal,
    "discrete_grid": _cov_discrete_grid,
    "mixed_binary": _cov_mixed_binary,
}


def _out_linear(spec, rng, X, *, coef: _floats("m", "d"), intercept: _floats("m") = None,
                noise: _number = 0.0):
    mean = X @ coef.T + (0.0 if intercept is None else intercept)
    return mean + noise * rng.standard_normal(mean.shape)


def _out_quadratic(spec, rng, X, *, centers: _floats("m"), feature: _feature = 0,
                   noise: _number = 0.0):
    mean = (X[:, [feature]] - centers[None, :]) ** 2
    return mean + noise * rng.standard_normal(mean.shape)


def _out_warfarin_like(spec, rng, X, *, driver: _feature = 0, up_feature: _feature = None,
                       down_feature: _feature = None, cuts: _floats(2) = (-0.4, 0.6),
                       flip: _number = 0.0):
    """Binary "dose incorrect" outcomes over three dose groups.

    The correct group is 1 + 1[x_driver > cut1] + 1[x_driver > cut2],
    bumped up by one when the up feature is set and down by one when the
    down feature is set (clipped to 1..3). The counterfactual outcome is
    1 when the treatment differs from the correct group, 0 when it
    matches, each cell flipped independently with probability `flip`.
    """
    x = X[:, driver]
    group = 1 + (x > cuts[0]).astype(np.int64) + (x > cuts[1]).astype(np.int64)
    if up_feature is not None:
        group = group + (X[:, up_feature] > 0.5).astype(np.int64)
    if down_feature is not None:
        group = group - (X[:, down_feature] > 0.5).astype(np.int64)
    group = np.clip(group, 1, 3)
    cf = (np.arange(1, 4)[None, :] != group[:, None]).astype(np.float64)
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


def _prop_uniform(spec, X):
    return np.full((spec.n, spec.m), 1.0 / spec.m)


def _prop_bmi_logistic(spec, X, *, feature: _feature = 0):
    return confounded_propensity(_standardize(X[:, feature]))


def _prop_logistic_binary(spec, X, *, feature: _feature = 0, strength: _number = 1.0):
    p2 = 1.0 / (1.0 + np.exp(-strength * X[:, feature]))
    return np.column_stack([1.0 - p2, p2])


_PROPENSITY = {
    "uniform": _prop_uniform,
    "bmi_logistic": _prop_bmi_logistic,
    "logistic_binary": _prop_logistic_binary,
}

# the models defined for one treatment count only
_ONLY_M = {_out_warfarin_like: 3, _prop_bmi_logistic: 3, _prop_logistic_binary: 2}


def _bind(kind, registry, model, spec):
    """The model dict's function with its parameters checked and bound;
    ConfigError naming the model and the key for an unknown name, an
    undeclared or missing parameter, or a value that fails its check."""
    _check_object(f"{kind}_model", model)
    name = model.get("name")
    draw = registry.get(name) if isinstance(name, str) else None
    if draw is None:
        known = ", ".join(registry)
        raise ConfigError(f"unknown {kind} model {name!r}; valid names: {known}")
    owner = f"{name} {kind} model"
    only = _ONLY_M.get(draw, spec.m)
    if spec.m != only:
        raise ConfigError(f"{owner} is defined for m = {only} only, got m = {spec.m}")
    checks = draw.__annotations__
    defaults = draw.__kwdefaults__ or {}
    params = {key: value for key, value in model.items() if key != "name"}
    _check_keys(owner, params, tuple(checks))
    try:
        for key, check in checks.items():
            if key not in params:
                if key not in defaults:
                    raise ConfigError(f"{key} is required")
            elif not (params[key] is None and key in defaults and defaults[key] is None):
                params[key] = check(spec, key, params[key])
    except ConfigError as exc:
        raise ConfigError(f"{owner}: {exc}") from None
    return functools.partial(draw, **params)


def _bind_models(spec):
    """The covariate, outcome and propensity draws of a spec."""
    return (
        _bind("covariate", _COVARIATE, spec.covariate_model, spec),
        _bind("outcome", _OUTCOME, spec.outcome_model, spec),
        _bind("propensity", _PROPENSITY, spec.propensity_model, spec),
    )


def generate_synthetic(spec):
    """Generate a dataset with full counterfactuals and true propensities.

    Drawing order (covariates, counterfactual noise, treatments) is fixed,
    so identical specs produce bit-identical datasets.
    """
    cov, out, prop = _bind_models(spec)
    rng = make_rng(spec.seed)
    X = cov(spec, rng)
    CF = out(spec, rng, X)
    probs = prop(spec, X)
    if probs.shape != (spec.n, spec.m) or probs.min() <= 0.0:
        raise ConfigError("propensity model must return positive n x m probabilities")

    u = rng.random(spec.n)
    cum = np.cumsum(probs, axis=1)
    T = 1 + (u[:, None] > cum).sum(axis=1)
    T = np.minimum(T, spec.m)  # guard against float round-off in the last bin
    Q = probs[np.arange(spec.n), T - 1]
    Y = CF[np.arange(spec.n), T - 1]
    return Dataset(X=X, T=T, Y=Y, m=spec.m, CF=CF, Q=Q)
