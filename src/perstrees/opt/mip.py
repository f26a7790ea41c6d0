"""Mixed-integer formulation of the optimal-tree search, as sparse arrays.

The model minimizes the summed shifted outcomes of leaf-prescribed
treatments over all routings of the data through a complete tree. It is
a MipModel: min c @ x s.t. row_lo <= A @ x <= row_hi, lower <= x <= upper,
x integral on the binary columns. Columns:

    gamma(p,j)   weight of the j-th menu cut at internal node p, [0,1]
    delta(p,i)   binary code bits forcing gamma integral
    w(i,p)       membership of subject i in leaf p, [0,1]
    lambda(p,t)  binary choice of treatment t at leaf p
    mu(p)        mean shifted outcome of the chosen treatment in p
    nu(i,p)      product mu(p) * w(i,p)

Rows, with Ybar = Y - min Y, Ymax = max Ybar, and
M = Ymax * (largest arm count - n_leaves * n_min_leaf):

    onecut(p)        sum_j gamma(p,j) = 1
    code(p,i)        sum_j bit_{i-1}(j) gamma(p,j) - delta(p,i) = 0
    routeub(i,p,q)   w(i,p) + R * chi_i(gamma_q) <= (1+R)/2 for each
                     ancestor q of p, R = +1 if p lies right of q
    routelb(i,p)     w(i,p) + sum_q R chi_i(gamma_q) >= 1 - #left steps
    leafmin(p,t)     sum_{i: T_i=t} w(i,p) >= n_min_leaf
    costw(i,p)       nu(i,p) <= Ymax w(i,p)
    costmu(i,p)      nu(i,p) <= mu(p)
    costlb(i,p)      nu(i,p) >= mu(p) - Ymax (1 - w(i,p))
    onetreat(p)      sum_t lambda(p,t) = 1
    meanub(p,t)      sum_{i: T_i=t} (nu(i,p) - Ybar_i w(i,p)) <= M (1 - lambda(p,t))
    meanlb(p,t)      same sum >= -M (1 - lambda(p,t))

Columns and rows follow these lists, except where _column_blocks and
_row_blocks interleave families (per node, per subject or per leaf).
chi_i(gamma_q) = sum over menu cuts (l, theta) at q with
X[i,l] <= theta of gamma(q, cut), i.e. the weight of going left. The
code bits are the binary digits of the 1-based cut index, so distinct
cuts get distinct codes and the simplex row pins gamma to a vertex
whenever delta is integral. Subjects are numbered from 1 in names.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..data import _json_file
from ..errors import ConfigError, InfeasibleError, ParseError
from .solver import _leaves


@dataclass(frozen=True, eq=False)
class CscMatrix:
    """A sparse matrix as compressed sparse column arrays, under the
    attribute names scipy uses: column j holds the values
    data[indptr[j]:indptr[j + 1]] in the rows indices[indptr[j]:indptr[j + 1]].
    scipy.sparse.csc_array((A.data, A.indices, A.indptr), shape=A.shape)
    wraps it for a solver such as scipy.optimize.milp.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    def __matmul__(self, x):
        """A @ x for a vector x. Each row is summed in column order from
        0.0, the order of scipy's CSC product, so the bits are the same."""
        col = np.repeat(np.arange(self.shape[1]), np.diff(self.indptr))
        return np.bincount(self.indices, weights=self.data * x[col], minlength=self.shape[0])


# Entries _csc packs, sorts and gathers per step, so its passes hold no
# array of every entry beyond those it returns.
_CSC_CHUNK = 1 << 20


def _csc(entries, shape):
    """CscMatrix from a list of (key, value) pieces, key being the
    column-major position col * n_rows + row of each entry. Positions
    must be distinct. Each column's rows come out sorted, as int32 where
    the row count allows.

    Memory: the pieces are copied out from the last one back, each dropped
    once copied, so their memory is freed from the top as the copies
    fill. Where every key fits 31 bits, it is packed above its entry's
    32-bit index and the packed keys are sorted in place; the order then
    takes 32-bit indices, and the values are gathered through it in
    chunks, so no 64-bit index array of every entry is made.
    """
    n_rows, n_cols = shape
    total = sum(k.size for k, _ in entries)
    key, data = np.empty(total, np.int64), np.empty(total)
    while entries:
        k, v = entries.pop()
        key[total - k.size:total], data[total - k.size:total] = k, v
        total -= k.size
        del k, v
    steps = range(0, key.size, _CSC_CHUNK)
    narrow = n_rows * n_cols <= 2**31 and key.size <= 2**32
    if narrow:
        key <<= 32
        for s in steps:
            key[s:s + _CSC_CHUNK] |= np.arange(s, min(s + _CSC_CHUNK, key.size))
        key.sort()
        order = np.empty(key.size, np.uint32)
        np.bitwise_and(key, 0xFFFFFFFF, out=order, casting="unsafe")
        np.right_shift(key, 32, out=key)
    else:
        order = np.argsort(key)
    rows = np.empty(key.size, np.int32 if n_rows <= np.iinfo(np.int32).max else np.int64)
    np.remainder(key, n_rows, out=rows, casting="same_kind")
    counts = np.bincount(np.floor_divide(key, n_rows, out=key), minlength=n_cols)
    del key
    if not narrow:  # the packed keys were sorted, and rows with them
        rows = rows[order]
    values, data = data, np.empty(data.size)
    for s in steps:
        data[s:s + _CSC_CHUNK] = values[order[s:s + _CSC_CHUNK]]
    return CscMatrix(data=data, indices=rows, indptr=np.append(0, counts.cumsum()), shape=shape)


@dataclass(frozen=True, eq=False)
class MipModel:
    """A linear objective c, the constraint matrix A as CSC arrays
    (CscMatrix: sorted indices, no stored zeros; no scipy needed), row
    bounds (row_lo -inf for `<=`, row_hi +inf for `>=`, equal for `=`),
    column bounds, and a mask of binary columns.

    Names are generated from blocks (templates, axes): for each index
    tuple of the product of the axes, in row-major order, every template
    is formatted with it in turn. (("w({0},{1})",), (range(1, 3), (4, 5)))
    names w(1,4), w(1,5), w(2,4), w(2,5); a template without axes is one
    plain name. Each name list, and the column index by name, is made
    once per model, on first use.
    """

    c: np.ndarray
    A: CscMatrix
    row_lo: np.ndarray
    row_hi: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    binary: np.ndarray
    col_blocks: tuple
    row_blocks: tuple

    @functools.cached_property
    def variables(self):
        """Column names, in column order."""
        return _names(self.col_blocks)

    @functools.cached_property
    def constraints(self):
        """Row names, in row order."""
        return _names(self.row_blocks)

    @functools.cached_property
    def _column_index(self):
        return {name: j for j, name in enumerate(self.variables)}

    @property
    def n_binary(self):
        return int(np.count_nonzero(self.binary))


def _names(blocks):
    return tuple(
        t.format(*ix)
        for templates, axes in blocks
        for ix in itertools.product(*axes)
        for t in templates
    )


def _starts(blocks):
    """First index of every block, plus the total count at the end."""
    sizes = [len(templates) * math.prod(map(len, axes)) for templates, axes in blocks]
    return np.concatenate([[0], np.cumsum(sizes)])


def _column_blocks(n, m, skeleton, menu):
    blocks = []
    for p in skeleton.internal_nodes:
        n_cut = len(menu.for_node(p))
        blocks.append(((f"gamma({p},{{0}})",), (range(1, n_cut + 1),)))
        blocks.append(((f"delta({p},{{0}})",), (range(1, (n_cut - 1).bit_length() + 1),)))
    subjects, leaves, arms = range(1, n + 1), skeleton.leaves, range(1, m + 1)
    blocks.append((("w({0},{1})",), (subjects, leaves)))
    blocks.append((("lambda({0},{1})",), (leaves, arms)))
    blocks.append((("mu({0})",), (leaves,)))
    blocks.append((("nu({0},{1})",), (subjects, leaves)))
    return tuple(blocks)


def _row_blocks(n, m, skeleton, menu):
    blocks = []
    for p in skeleton.internal_nodes:
        blocks.append(((f"onecut({p})",), ()))
        n_cut = len(menu.for_node(p))
        blocks.append(((f"code({p},{{0}})",), (range(1, (n_cut - 1).bit_length() + 1),)))
    subjects, leaves, arms = range(1, n + 1), skeleton.leaves, range(1, m + 1)
    for p in leaves:
        route = tuple(f"routeub({{0}},{p},{q})" for q, _ in skeleton.path_to(p))
        blocks.append((route + (f"routelb({{0}},{p})",), (subjects,)))
    blocks.append((("leafmin({0},{1})",), (leaves, arms)))
    blocks.append((("costw({0},{1})", "costmu({0},{1})", "costlb({0},{1})"), (subjects, leaves)))
    for p in leaves:
        blocks.append(((f"onetreat({p})",), ()))
        blocks.append(((f"meanub({p},{{0}})", f"meanlb({p},{{0}})"), (arms,)))
    return tuple(blocks)


def build_mip(ds, skeleton, menu, config):
    """Assemble the full model for one dataset, skeleton, and menu.

    Raises:
        ConfigError: the menu or config.delta does not fit the skeleton.
        InfeasibleError: n < n_leaves * m * n_min_leaf, so no routing
            can satisfy the per-leaf occupancy minimums.
    """
    skeleton._check_fit(menu, config)
    n, m, n_leaves = ds.n, ds.m, len(skeleton.leaves)
    if n < n_leaves * m * config.n_min_leaf:
        raise InfeasibleError(
            f"{n} subjects cannot fill {n_leaves} leaves with "
            f"{config.n_min_leaf} of each of {m} treatments"
        )
    ybar = ds.Y - ds.Y.min()
    ymax = float(ybar.max())
    counts = np.bincount(ds.T - 1, minlength=m)
    big_m = ymax * (int(counts.max()) - n_leaves * config.n_min_leaf)
    arm = ds.T - 1
    depth, n_split = skeleton.delta, n_leaves - 1

    col_blocks = _column_blocks(n, m, skeleton, menu)
    row_blocks = _row_blocks(n, m, skeleton, menu)
    col, row = _starts(col_blocks), _starts(row_blocks)
    # first column of gamma(p,.) and of delta(p,.) at index p - 1
    gamma, code = col[0 : 2 * n_split : 2], col[1 : 2 * n_split : 2]
    w0, lam0, mu0, nu0 = col[2 * n_split : 2 * n_split + 4]
    cell = np.arange(n)[:, None] * n_leaves + np.arange(n_leaves)  # (subject, leaf)
    w, nu = w0 + cell, nu0 + cell
    lam = lam0 + np.arange(n_leaves * m).reshape(n_leaves, m)
    mu = mu0 + np.arange(n_leaves)

    n_rows = int(row[-1])
    lo = np.full(n_rows, -np.inf)
    hi = np.full(n_rows, np.inf)
    entries = []

    def add(r, c, v):
        # every call below writes (row, column) cells that no other call
        # writes, so the entries are distinct and need no summing
        r, c, v = np.broadcast_arrays(r, c, v)
        keep = v != 0.0  # A stores no zeros
        entries.append((c[keep] * n_rows + r[keep], v[keep]))

    # cut choice: simplex row plus binary code rows
    fires = {}
    for p in skeleton.internal_nodes:
        cuts = menu.for_node(p)
        j = np.arange(len(cuts))
        one, bits = row[2 * p - 2], row[2 * p - 1] + np.arange((len(cuts) - 1).bit_length())
        add(one, gamma[p - 1] + j, 1.0)
        b, jb = np.nonzero(((j + 1) >> np.arange(bits.size)[:, None]) & 1)
        add(bits[b], gamma[p - 1] + jb, 1.0)
        add(bits, code[p - 1] + np.arange(bits.size), -1.0)
        lo[one] = hi[one] = 1.0
        lo[bits] = hi[bits] = 0.0
        features = np.array([f for f, _ in cuts], dtype=np.intp)
        fires[p] = np.nonzero(ds.X[:, features] <= np.array([t for _, t in cuts]))

    # routing: w(i,p) is the product of per-ancestor branch indicators
    for leaf, p in enumerate(skeleton.leaves):
        base = row[2 * n_split + leaf] + np.arange(n) * (depth + 1)
        n_left = 0
        for k, (q, sign) in enumerate(skeleton.path_to(p)):
            i, j = fires[q]
            add(base[i] + k, gamma[q - 1] + j, float(sign))
            add(base[i] + depth, gamma[q - 1] + j, float(sign))
            hi[base + k] = (1 + sign) / 2.0
            n_left += sign < 0
        add(base[:, None] + np.arange(depth + 1), w[:, leaf, None], 1.0)
        lo[base + depth] = 1.0 - n_left

    # occupancy: every treatment meets the leaf minimum
    first = row[2 * n_split + n_leaves]
    add(first + np.arange(n_leaves) * m + arm[:, None], w, 1.0)
    lo[first : first + n_leaves * m] = float(config.n_min_leaf)

    # nu(i,p) = mu(p) * w(i,p), linearized
    cost = row[2 * n_split + n_leaves + 1] + 3 * cell
    add(cost, nu, 1.0)
    add(cost, w, -ymax)
    hi[cost] = 0.0
    add(cost + 1, nu, 1.0)
    add(cost + 1, mu, -1.0)
    hi[cost + 1] = 0.0
    add(cost + 2, nu, 1.0)
    add(cost + 2, mu, -1.0)
    add(cost + 2, w, -ymax)
    lo[cost + 2] = -ymax

    # treatment choice and its consistency with mu
    one = row[2 * n_split + n_leaves + 2 : -1 : 2]
    add(one[:, None], lam, 1.0)
    lo[one] = hi[one] = 1.0
    ub = one[:, None] + 1 + 2 * np.arange(m)  # meanub(p,t); meanlb(p,t) follows it
    own = one + 1 + 2 * arm[:, None]  # meanub row of each subject's arm, per leaf
    for r in (own, own + 1):
        add(r, nu, 1.0)
        add(r, w, -ybar[:, None])
    add(ub, lam, big_m)
    add(ub + 1, lam, -big_m)
    hi[ub] = big_m
    lo[ub + 1] = -big_m

    A = _csc(entries, (n_rows, int(col[-1])))
    objective = np.zeros(col[-1])
    objective[nu] = 1.0
    upper = np.ones(col[-1])
    upper[mu0:] = np.inf
    binary = np.zeros(col[-1], dtype=bool)
    binary[lam0:mu0] = True
    for p in skeleton.internal_nodes:
        binary[code[p - 1] : col[2 * p]] = True
    return MipModel(
        c=objective,
        A=A,
        row_lo=lo,
        row_hi=hi,
        lower=np.zeros(col[-1]),
        upper=upper,
        binary=binary,
        col_blocks=col_blocks,
        row_blocks=row_blocks,
    )


def solution_from_assignment(ds, skeleton, menu, assignment):
    """Column values induced by a concrete tree assignment.

    Returns a complete name-to-value map: one-hot gamma with its code
    bits, memberships from routing, one-hot lambda, mu as the leaf mean
    of the chosen treatment's shifted outcome, and nu = mu * w.
    ConfigError when the menu or the assignment does not fit the
    skeleton, the assignment does not fit the data, or a cut is not on
    its node's menu.
    """
    skeleton._check_nodes("menu", menu.cuts)
    leaf, counts, sums = _leaves(ds, skeleton, assignment, ds.Y - ds.Y.min())
    top = len(counts)
    blocks = _column_blocks(ds.n, ds.m, skeleton, menu)
    col = _starts(blocks)
    x = np.zeros(col[-1])
    for p in skeleton.internal_nodes:
        cut, options = assignment.cuts[p - 1], menu.for_node(p)
        if cut not in options:
            raise ConfigError(f"cut {cut!r} of node {p} is not on that node's menu")
        chosen = options.index(cut)
        x[col[2 * p - 2] + chosen] = 1.0
        bits = slice(col[2 * p - 1], col[2 * p])
        x[bits] = ((chosen + 1) >> np.arange(bits.stop - bits.start)) & 1
    w0, lam0, mu0, nu0 = col[2 * top - 2 : 2 * top + 2]
    member = leaf[:, None] == np.arange(top)
    t = np.asarray(assignment.treatments) - 1
    n_t = counts[np.arange(top), t]
    mu = np.divide(sums[np.arange(top), t], n_t, out=np.zeros(top), where=n_t > 0)
    x[w0:lam0] = member.ravel()
    x[lam0:mu0] = (t[:, None] == np.arange(ds.m)).ravel()
    x[mu0:nu0] = mu
    x[nu0:] = (member * mu).ravel()
    return dict(zip(_names(blocks), x.tolist()))


def _vector(model, values):
    """x from a name-to-value map, missing names as zero, and the names
    that are not columns of the model."""
    index = model._column_index
    x = np.zeros(len(index))
    unknown = []
    for name, val in values.items():
        j = index.get(name)
        if j is None:
            unknown.append(name)
        else:
            x[j] = val
    return x, unknown


def objective_value(model, values):
    """Objective at a name-to-value map; missing names count as zero."""
    return float(model.c @ _vector(model, values)[0])


def check_solution(model, values, tol=1e-9):
    """Validate a candidate solution against the model.

    Checks bounds, integrality of binaries, and every constraint, all
    within the additive tolerance; a non-finite value is a bound
    violation. Unknown variable names are reported too. Returns a list
    of violation records (unknown names, then column by column, then row
    by row); an empty list means the solution is valid.
    """
    x, unknown = _vector(model, values)
    problems = [{"kind": "unknown", "name": name, "amount": 0.0} for name in unknown]
    finite = np.isfinite(x)
    xf = np.where(finite, x, 0.0)
    bound = np.where(finite, np.maximum(model.lower - xf, xf - model.upper), np.inf)
    frac = np.where(model.binary, np.abs(xf - np.rint(xf)), 0.0)
    bad = np.flatnonzero((bound > tol) | (frac > tol))
    names = model.variables if bad.size else ()
    for j in bad:
        if bound[j] > tol:
            problems.append({"kind": "bound", "name": names[j], "amount": float(bound[j])})
        if frac[j] > tol:
            problems.append({"kind": "integrality", "name": names[j], "amount": float(frac[j])})
    with np.errstate(invalid="ignore"):  # inf - inf on non-finite values; NaN gaps pass
        activity = model.A @ x
        gap = np.maximum(model.row_lo - activity, activity - model.row_hi)
    bad = np.flatnonzero(gap > tol)
    names = model.constraints if bad.size else ()
    for r in bad:
        problems.append({"kind": "constraint", "name": names[r], "amount": float(gap[r])})
    return problems


def load_solution_json(path):
    """Read a flat JSON object mapping variable names to finite numbers,
    through `data._json_file` with integers read as floats (one past the
    float range is inf, and refused)."""
    doc = _json_file(path, parse_int=float)
    if not isinstance(doc, dict):
        raise ParseError("solution file must be a JSON object")
    out = {}
    for key, val in doc.items():
        if not isinstance(val, float):
            raise ParseError(f"value for {key!r} is not a number")
        if not math.isfinite(val):
            raise ParseError(f"value for {key!r} is not finite")
        out[str(key)] = val
    return out
