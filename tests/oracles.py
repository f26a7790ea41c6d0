"""Test-only reference implementations, kept as they were before their
production counterparts were rewritten for speed.

export_mps is the line-at-a-time MPS writer: one f-string per line and
json.dump for the name map. The columnar writer in perstrees.opt.mps
must produce the same bytes.

sweep is the split kernel as it was before the trimmed strict mode: a
masked divide into an inf-filled plane and a plain min over treatments.
perstrees.tree._sweep must give the same values at every cut position
it scores.

load_csv_reference and save_csv_reference are the per-cell CSV codec:
csv.reader and float() on every cell, row by row. perstrees.data's
load_csv must give the same arrays, bit for bit, or the same error, and
save_csv the same bytes. Every parse and domain fault names the file;
a domain fault then names the row (or, from Dataset, the 0-based
subject).

dumps_reference is json.dumps(doc, indent=2), the pure-Python encoder
that wrote model files before perstrees.model_io's own writer; that
writer must produce the same text.

reference_solve is the exact search as it was before bottom-node passes
and screens: a per-leaf recursion with its own memo, which re-walks the
chosen tree once the search ends. perstrees.opt.solve_exact must give
the same tree, the same objective bits and the same outcome.

greedy_reference is row-at-a-time greedy matching, and knn_row is the
kNN prediction of one row; perstrees.submatch.greedy_submatch and
perstrees.baselines.KnnRegressor.predict must give the same bits.
"""

import csv
import json
import math

import numpy as np

from perstrees.data import Dataset, Feature, FeatureSchema
from perstrees.errors import DomainError, InfeasibleError, ParseError, SchemaError, SolveTimeout
from perstrees.opt.mps import names_path
from perstrees.seeding import make_rng


def _num(x):
    x = float(x)
    if x == 0.0:
        return "0.0"  # normalizes -0.0
    return repr(x)


def _line(f1="", f2="", f3="", f4="", f5=""):
    out = " " + f1.ljust(2) + " " + f2.ljust(8) + "  " + f3.ljust(8)
    if f4 != "" or f5 != "":
        out += "  " + f4.ljust(12)
        if f5 != "":
            out += "   " + f5.ljust(8)
    return out.rstrip()


def _tags(prefix, count):
    return [f"{prefix}{idx:07d}" for idx in range(1, count + 1)]


def _lines(model, name, rows, cols):
    A = model.A
    lo, hi = model.row_lo, model.row_hi
    sense = np.where(lo == hi, "E", np.where(lo == -np.inf, "L", "G")).tolist()
    rhs = np.where(hi == np.inf, lo, hi).tolist()

    yield "NAME" + " " * 10 + name
    yield "ROWS"
    yield _line("N", "OBJ")
    for tag, s in zip(rows, sense):
        yield _line(s, tag)

    yield "COLUMNS"
    indptr = A.indptr.tolist()
    number = {value: _num(value) for value in np.unique(A.data).tolist()}
    binary, obj = model.binary.tolist(), model.c.tolist()
    marker = 0
    integral = False
    for j, cname in enumerate(cols):
        if binary[j] != integral:
            marker += 1
            tag = "'INTORG'" if binary[j] else "'INTEND'"
            yield _line("", f"MARK{marker:04d}", "'MARKER'", "", tag)
            integral = binary[j]
        if obj[j] != 0.0:
            yield _line("", cname, "OBJ", _num(obj[j]))
        part = slice(indptr[j], indptr[j + 1])
        if part.start < part.stop:
            # _line("", cname, row, value), written out: both tags fill
            # their 8-character fields, so no padding is left to strip
            cells = zip(A.indices[part].tolist(), A.data[part].tolist())
            yield "\n".join([f"    {cname}  {rows[i]}  {number[v]}" for i, v in cells])
    if integral:
        marker += 1
        yield _line("", f"MARK{marker:04d}", "'MARKER'", "", "'INTEND'")

    yield "RHS"
    for tag, value in zip(rows, rhs):
        if value != 0.0:
            yield _line("", "RHS", tag, _num(value))

    yield "BOUNDS"
    for cname, is_binary, lower, upper in zip(
        cols, binary, model.lower.tolist(), model.upper.tolist()
    ):
        if is_binary:
            yield _line("BV", "BND", cname)
            continue
        if lower != 0.0:
            yield _line("LO", "BND", cname, _num(lower))
        if upper != float("inf"):
            yield _line("UP", "BND", cname, _num(upper))
    yield "ENDATA"


def export_mps(model, path, name="PERSTREE"):
    """Write the model at path (fixed MPS) plus its name map.

    The output is deterministic: exporting an identical model twice
    produces identical bytes.
    """
    rows, cols = _tags("R", model.A.shape[0]), _tags("C", model.A.shape[1])
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(line + "\n" for line in _lines(model, name, rows, cols))
    name_map = {
        "objective": "OBJ",
        "rows": dict(zip(rows, model.constraints)),
        "columns": dict(zip(cols, model.variables)),
    }
    with open(names_path(path), "w", encoding="ascii", newline="\n") as fh:
        json.dump(name_map, fh, indent=2)
        fh.write("\n")


def sweep(xs, ts, ys, m, n_min_leaf, scarce_mode):
    """Score every cut position of F presorted features at once; xs, ts,
    ys are (F, k). Returns "sides" (2, 2m, F, k-1), and "gap",
    "feasible" and "impurity" (F, k-1)."""
    F, k = xs.shape
    onehot = ts == np.arange(1, m + 1)[:, None, None]
    sides = np.empty((2, 2 * m, F, k))
    sides[1, :m] = onehot
    sides[1, m:] = np.where(onehot, ys, 0.0)
    np.cumsum(sides[1], axis=2, out=sides[0])
    np.subtract(sides[0, :, :, -1:], sides[0], out=sides[1])
    sides = sides[:, :, :, :-1]
    counts, sums = sides[:, :m], sides[:, m:]
    valid = counts >= n_min_leaf if scarce_mode else counts > 0
    means = np.divide(sums, counts, out=np.full(counts.shape, np.inf), where=valid)
    defined = valid.any(axis=1) if scarce_mode else (counts >= n_min_leaf).all(axis=1)
    side_min = means.min(axis=1)
    gap = xs[:, :-1] < xs[:, 1:]
    k_left = np.arange(1, k, dtype=np.float64)
    return {
        "sides": sides,
        "gap": gap,
        "feasible": defined[0] & defined[1] & gap,
        "impurity": k_left * side_min[0] + (k - k_left) * side_min[1],
    }


def _parse_float_reference(cell, row, column):
    try:
        v = float(cell)
    except ValueError:
        raise ParseError("not a number", row=row, column=column) from None
    if not math.isfinite(v):
        raise ParseError("not a finite number", row=row, column=column)
    return v


def _parse_label_reference(cell, row, column):
    v = _parse_float_reference(cell, row, column)
    if not v.is_integer():
        raise ParseError("treatment label must be an integer", row=row, column=column)
    return int(v)


def load_csv_reference(path, treatment_col="treatment", outcome_col="outcome", cf_cols=None,
                       q_col=None):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            rows = [r for r in reader if r]
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
    col_index = {name: j for j, name in enumerate(header)}
    feature_cols = [name for name in header if name not in reserved]

    for i, r in enumerate(rows):
        if len(r) != len(header):
            raise ParseError(f"{path}: expected {len(header)} cells, got {len(r)}", row=i + 2, column="")

    try:
        n = len(rows)
        T = np.empty(n, dtype=np.int64)
        Y = np.empty(n, dtype=np.float64)
        for i, r in enumerate(rows):
            T[i] = _parse_label_reference(r[col_index[treatment_col]], i + 2, treatment_col)
            if T[i] < 1:
                raise DomainError(f"treatment label {T[i]} < 1 (row {i + 2})")
            Y[i] = _parse_float_reference(r[col_index[outcome_col]], i + 2, outcome_col)

        m = int(T.max()) if n else 1
        CF = None
        if cf_cols:
            m = len(cf_cols)
            for i in range(n):
                if T[i] > m:
                    raise DomainError(f"label {T[i]} exceeds the {m} counterfactual columns (row {i + 2})")
            CF = np.empty((n, m), dtype=np.float64)
            for i, r in enumerate(rows):
                for t, col in enumerate(cf_cols):
                    CF[i, t] = _parse_float_reference(r[col_index[col]], i + 2, col)
        Q = None
        if q_col:
            Q = np.empty(n, dtype=np.float64)
            for i, r in enumerate(rows):
                Q[i] = _parse_float_reference(r[col_index[q_col]], i + 2, q_col)

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
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from None
    except ParseError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _fmt_reference(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def save_csv_reference(ds, path):
    header = list(ds.schema.encoded_names) + ["treatment", "outcome"]
    if ds.CF is not None:
        header += [f"y{t + 1}" for t in range(ds.m)]
    if ds.Q is not None:
        header += ["q"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(ds.n):
            row = [_fmt_reference(v) for v in ds.X[i]]
            row.append(str(int(ds.T[i])))
            row.append(_fmt_reference(ds.Y[i]))
            if ds.CF is not None:
                row.extend(_fmt_reference(v) for v in ds.CF[i])
            if ds.Q is not None:
                row.append(_fmt_reference(ds.Q[i]))
            writer.writerow(row)


def dumps_reference(doc):
    return json.dumps(doc, indent=2)


def reference_solve(ds, skeleton, menu, config):
    """The per-leaf recursion that the bottom-node pass replaced: each cut
    scores its two children with one bincount over each child's rows.
    Returns (cuts, treatments, objective, proved); a work limit is
    honoured only as 0, where no cut completes."""
    ybar = ds.Y - ds.Y.min()
    tvec = ds.T - 1
    top = 2**skeleton.delta
    memo = {}

    def leaf_value(idx):
        counts = np.bincount(tvec[idx], minlength=ds.m)
        if counts.min() < config.n_min_leaf:
            return float("inf"), None
        sums = np.bincount(tvec[idx], weights=ybar[idx], minlength=ds.m)
        means = sums / counts
        best = int(np.argmin(means))
        return idx.size * float(means[best]), best + 1

    def node_value(p, idx):
        key = (p, idx.tobytes())
        if key not in memo:
            memo[key] = leaf_value(idx) if p >= top else scan(p, idx)
        return memo[key]

    def scan(p, idx):
        best_val, best_cut = float("inf"), None
        for ci, (f, theta) in enumerate(menu.for_node(p)):
            if config.work_limit == 0:
                raise SolveTimeout("work limit")
            mask = ds.X[idx, f] <= theta
            left, _ = node_value(2 * p, idx[mask])
            if left > best_val:
                continue
            right, _ = node_value(2 * p + 1, idx[~mask])
            if left + right < best_val:
                best_val, best_cut = left + right, ci
        return best_val, best_cut

    cuts, treats = {}, {}

    def reconstruct(p, idx, choice):
        if p >= top:
            treats[p] = choice
            return
        cuts[p] = f, theta = menu.for_node(p)[choice]
        mask = ds.X[idx, f] <= theta
        for child, sub in ((2 * p, idx[mask]), (2 * p + 1, idx[~mask])):
            reconstruct(child, sub, node_value(child, sub)[1])

    rows = np.arange(ds.n)
    objective, choice = scan(1, rows)
    if choice is None:
        raise InfeasibleError("no feasible assignment")
    reconstruct(1, rows, choice)
    return (
        tuple(cuts[p] for p in skeleton.internal_nodes),
        tuple(treats[p] for p in skeleton.leaves),
        objective.hex(),
        True,
    )


def greedy_reference(ds, n_test, metric, seed):
    """The row-at-a-time greedy loop: one `Metric.distances` pass and
    argmin per drawn subject and missing arm. Returns drawn, yhat and
    removed."""
    drawn = make_rng(seed).choice(ds.n, size=n_test, replace=False)
    arms = [np.flatnonzero(ds.T == t) for t in range(1, ds.m + 1)]
    yhat = np.empty((n_test, ds.m), dtype=np.float64)
    flagged = set()
    for j, i in enumerate(drawn):
        for t in range(1, ds.m + 1):
            if t == ds.T[i]:
                yhat[j, t - 1] = ds.Y[i]
                continue
            cands = arms[t - 1]
            match = int(cands[np.argmin(metric.distances(ds.X[i], ds.X[cands]))])
            yhat[j, t - 1] = ds.Y[match]
            flagged.add(match)
    return drawn, yhat, np.array(sorted(set(drawn.tolist()) | flagged), dtype=np.int64)


def knn_row(reg, x):
    """kNN prediction for one row: mean outcome of every training point
    no farther than the k-th nearest."""
    z = (np.asarray(x, dtype=np.float64) - reg.center) / reg.scale
    dist = np.sqrt(((reg.x - z) ** 2).sum(axis=1))
    return reg.y[dist <= np.sort(dist)[reg.k - 1]].mean()
