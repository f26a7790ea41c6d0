"""Test-only reference implementations, kept as they were before their
production counterparts were rewritten for speed.

export_mps is the line-at-a-time MPS writer: one f-string per line and
json.dump for the name map. The columnar writer in perstrees.opt.mps
must produce the same bytes.

sweep is the split kernel as it was before pads and the trimmed strict
mode: a masked divide into an inf-filled plane and a plain min over
treatments. perstrees.tree._sweep must give the same values at every
real cut position.
"""

import json

import numpy as np

from perstrees.opt.mps import names_path


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
