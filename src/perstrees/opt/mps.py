"""Fixed-format MPS export for MipModel.

No solver is bundled; the exported file plus the companion name map
lets any external MIP solver work the model, and check_solution can
then audit the returned values. The writer emits the NAME, ROWS,
COLUMNS, RHS, BOUNDS, and ENDATA sections, one coefficient per line,
with binaries wrapped in INTORG/INTEND marker lines and declared BV.
COLUMNS walks the CSC arrays column by column, objective first. Row
senses and right-hand sides come from the row bounds; zero right-hand
sides and default column bounds (0 and +inf) are omitted.

Fixed-format fields cap names at 8 characters, so rows become R0000001,
R0000002, ... in row order (the objective row is OBJ) and columns
become C0000001, ... in column order. The mapping back to the model's
names is written next to the file as <stem>.names.json, in the bytes
json.dump(..., indent=2) writes.

Sections are formatted a block of lines at a time, not line by line:
the fields of the lines go into a numpy record array of fixed-width
byte strings, and its bytes, without the NUL padding of the shorter
strings, are the block's text (_join). Each distinct number is
formatted once. The objective is a row tag placed first in its column,
so its lines take the layout of the matrix entries' lines. COLUMNS goes
out _CHUNK entries at a time, which bounds the writer's memory.
"""

from json.encoder import encode_basestring_ascii

import numpy as np

_CHUNK = 1 << 16  # COLUMNS lines formatted per block


def names_path(path):
    """Companion name-map path: the .mps suffix swapped for .names.json."""
    path = str(path)
    stem = path[:-4] if path.endswith(".mps") else path
    return stem + ".names.json"


def _num(x):
    x = float(x)
    if x == 0.0:
        return "0.0"  # normalizes -0.0
    return repr(x)


def _tags(prefix, count):
    """prefix and the 1-based index, zero-padded to at least seven digits."""
    index = np.arange(1, count + 1).astype(f"S{len(str(count))}")
    return np.char.add(prefix, np.char.zfill(index, 7)) if count else index


def _number_fields(values):
    """A function from an array of these values to their number fields:
    two spaces, _num's text and the line's end. Each distinct value is
    formatted once."""
    distinct = np.unique(values)
    fields = np.array([f"  {_num(v)}\n" for v in distinct.tolist()], dtype="S")
    return lambda v: fields[np.searchsorted(distinct, v)]


def _join(*fields):
    """Lines from fields that are constants or equal-length arrays of
    byte strings, one line per array element. A string shorter than its
    array's width is padded with NULs, and these are dropped."""
    size = next(len(f) for f in fields if isinstance(f, np.ndarray))
    dtype = [(str(k), f.dtype if isinstance(f, np.ndarray) else f"S{len(f)}")
             for k, f in enumerate(fields)]
    lines = np.empty(size, dtype=dtype)
    for k, f in enumerate(fields):
        lines[str(k)] = f
    text = lines.view(np.uint8)
    return text[text != 0].tobytes()


def _columns(model, rows, cols):
    """COLUMNS, in blocks. The objective is a row of its own, first in
    each column where c is nonzero. Entry p of that merged sequence
    lies in column j when start[j] <= p < start[j + 1]; it is the
    objective if it comes before the column's first matrix entry, else
    matrix entry p - n_obj[j + 1]."""
    A, c = model.A, model.c
    has_obj = c != 0.0
    n_obj = np.concatenate([[0], np.cumsum(has_obj)])
    start = A.indptr + n_obj
    lead = np.char.add(b"    ", cols)
    rows = np.char.add(b"  ", np.append(rows, np.array(b"OBJ     ")))
    obj_row = len(rows) - 1
    chunks = [np.unique(A.data[s : s + _CHUNK]) for s in range(0, A.data.size, _CHUNK)]
    number = _number_fields(np.concatenate(chunks + [c[has_obj]]))

    def block(first, stop):
        j0 = np.searchsorted(start, first, side="right") - 1
        j1 = np.searchsorted(start, stop - 1, side="right")
        j = np.repeat(np.arange(j0, j1), np.diff(np.clip(start[j0 : j1 + 1], first, stop)))
        entry = np.arange(first, stop) - n_obj[j + 1]
        row = np.full(stop - first, obj_row)
        value = c[j]
        on_a = entry >= A.indptr[j]
        row[on_a] = A.indices[entry[on_a]]
        value[on_a] = A.data[entry[on_a]]
        return _join(lead[j], rows[row], number(value))

    # runs of continuous and binary columns alternate, a marker before
    # each but the first, and one more if the last run is binary
    flips = np.flatnonzero(np.diff(model.binary, prepend=False)).tolist()
    if model.binary[-1:].any():
        flips.append(len(cols))
    edges = [0] + flips + [len(cols)]
    for k in range(len(edges) - 1):
        if k:  # odd markers open an integral run
            tag = "'INTORG'" if k % 2 else "'INTEND'"
            yield f"    MARK{k:04d}  'MARKER'                 {tag}\n".encode()
        first, stop = int(start[edges[k]]), int(start[edges[k + 1]])
        for s in range(first, stop, _CHUNK):
            yield block(s, min(s + _CHUNK, stop))


def _bounds(model, cols):
    """BOUNDS: BV for each binary column, else LO and UP where they
    differ from 0 and +inf."""
    lower, upper, binary = model.lower, model.upper, model.binary
    kinds = (binary, ~binary & (lower != 0.0), ~binary & (upper != np.inf))
    col = np.concatenate([np.flatnonzero(sel) for sel in kinds])
    kind = np.repeat(np.array([b"BV", b"LO", b"UP"]), [np.count_nonzero(sel) for sel in kinds])
    value = np.concatenate([lower[kinds[1]], upper[kinds[2]]])
    blank = np.full(np.count_nonzero(binary), b"\n")  # a BV line has no number
    number = np.concatenate([blank, _number_fields(value)(value)])
    order = np.argsort(col, kind="stable")  # LO before UP within a column
    return _join(b" ", kind[order], b" BND       ", cols[col[order]], number[order])


def _json_object(keys, names):
    """A string-to-string object as json.dump(..., indent=2) writes it
    at nesting level one."""
    if not len(keys):
        return b"{}"
    names = np.array([encode_basestring_ascii(name) for name in names], dtype="S")
    items = _join(b'    "', keys, b'": ', names, b",\n")
    return b"{\n" + items[:-2] + b"\n  }"


def export_mps(model, path, name="PERSTREE"):
    """Write the model at path (fixed MPS) plus its name map.

    The output is deterministic: exporting an identical model twice
    produces identical bytes.
    """
    rows, cols = _tags(b"R", model.A.shape[0]), _tags(b"C", model.A.shape[1])
    lo, hi = model.row_lo, model.row_hi
    sense = np.where(lo == hi, b"E ", np.where(lo == -np.inf, b"L ", b"G "))
    rhs = np.where(hi == np.inf, lo, hi)
    given = rhs != 0.0
    rhs = rhs[given]
    with open(path, "wb") as fh:
        fh.write(("NAME" + " " * 10 + name + "\nROWS\n N  OBJ\n").encode("ascii"))
        fh.write(_join(b" ", sense, b" ", rows, b"\n"))
        fh.write(b"COLUMNS\n")
        fh.writelines(_columns(model, rows, cols))
        fh.write(b"RHS\n")
        fh.write(_join(b"    RHS       ", rows[given], _number_fields(rhs)(rhs)))
        fh.write(b"BOUNDS\n")
        fh.write(_bounds(model, cols))
        fh.write(b"ENDATA\n")
    with open(names_path(path), "wb") as fh:
        fh.write(b'{\n  "objective": "OBJ",\n  "rows": ' + _json_object(rows, model.constraints)
                 + b',\n  "columns": ' + _json_object(cols, model.variables) + b"\n}\n")
