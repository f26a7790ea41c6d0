"""Screened nearest-neighbour search, exact against the reference arithmetic.

The reference computes each squared distance on its own: the difference
of two rows, then `einsum("ij,jk,ik->i", diff, A, diff)` under a metric
inverse A (greedy matching) or the sum of squared differences (kNN on
standardized features). That is one pass per query row. The screen
instead gets every squared distance of a block of query rows from one
Gram product of whitened rows,

    s = |w_q|^2 + |w_c|^2 - 2 w_q . w_c,    w = x L,

with L the Cholesky factor of A (the identity for kNN), and carries a
margin M with each value that provably bounds the gap to the reference's
computed value q: s - M <= q <= s + M. A candidate whose lower bound
lies above the k-th smallest upper bound, inflated by a relative 4 eps,
is strictly farther than the k-th neighbour under the reference
(eps = 2^-52 here, u = eps / 2 the unit roundoff). A query whose
survivors number exactly k therefore has exactly these k as its
reference neighbours, ties with the k-th included: with k = 1 the lone
survivor is the reference's argmin. Every other query, a tie, a
duplicate point or a margin too coarse to separate the candidates, is
left to the reference arithmetic, so the screen never changes a result.

The margin. `whiten` centers the rows on their column means mu first,
z = fl(x - mu), so that a large common offset does not swell it (kNN's
standardized rows are centered already: z = x). Let b be the row norm
of |z| |L| (b = |z| for kNN), and for a query i and candidate c let
v = |z_i| + |z_c|, so |x_i - x_c| <= (1 + gamma_1) v and |v| |L| has
norm at most b_i + b_c. Every error below is a multiple of
(b_i + b_c)^2; gamma_k = k u / (1 - k u).

- Centering: each entry of z is rounded once, so z_i - z_c is within
  gamma_1 v of x_i - x_c, and the quadratic form moves by 2 u to first
  order. kNN has no such term.
- Reference: the differences are rounded once (relative u each, so
  2u + u^2 on the quadratic form) and the quadratic form sums d^2
  products of three factors in some order, gamma_{d^2 + 1} on
  |diff|' |A| |diff|. With S = (A + A') / 2 and K = (A - A') / 2,
  |A| <= |S| + |K|; the screen runs only when every row sum of |K| is at
  most the matching diagonal entry of L L', so for v >= 0,
  v' |K| v <= sum_j rowsum_j v_j^2 <= v' |L||L'| v. The kNN sum of d
  squares of rounded differences is within gamma_{d + 2} of the exact
  squared distance.
- Cholesky: L is the factor of fl(S), within u of S entrywise, and
  L L' = fl(S) + E with |E| <= gamma_{d + 1} |L||L'|, for any inner
  product order. Together (d + 2) u.
- Whitening: w = fl(x L) is within gamma_d |x||L| of x L, so the squared
  whitened distance moves by at most (2 gamma_d + gamma_d^2).
- Gram: each norm and the cross product carry gamma_d relative to
  |w_i|^2, |w_c|^2 and |w_i| |w_c|, and the last two additions one u
  each: gamma_{d + 2} (1 + gamma_d)^2.

The sum is (2 d^2 + 4 d + 10) u = eps (d^2 + 2 d + 5) to first order,
and (2 d + 4) u for kNN. The margin used is
2 eps (d^2 + 2 d + 8) (b_i + b_c)^2 plus the smallest normal number. It
is at least twice the first-order sum; the slack covers the higher-order
gamma terms and the rounding of b, of M and of s -/+ M themselves, and
the absolute term covers gradual underflow. The relative 4 eps keeps
sqrt from rounding a strictly larger squared distance onto the k-th
neighbour's distance: the square roots of values 1 + 3 eps apart differ
by more than an ulp. The bounds assume finite data whose squared norms
do not overflow; NaN propagates to failed comparisons, and a query
without exactly k survivors goes to the reference.

The screen's own arithmetic (a BLAS product whose summation order may
depend on the thread count) decides only which queries the reference
recomputes, never a result.
"""

import numpy as np

# query x candidate cells of one screened block: 128 KB of float64
_SCREEN_CELLS = 1 << 14
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny


def row_norms(W):
    """Euclidean norm of each row of W."""
    return np.sqrt(np.einsum("ij,ij->i", W, W))


def whiten(inverse, X):
    """Rows of X centered on their mean and whitened by the Cholesky
    factor L of a metric inverse, with the row norms of |X - mean| |L|
    that size the margin.

    Returns None, so that every query goes to the reference, when the
    symmetric part of the inverse has no Cholesky factor or its skew
    part is larger than the margin allows.
    """
    inverse = np.asarray(inverse, dtype=np.float64)
    try:
        L = np.linalg.cholesky((inverse + inverse.T) * 0.5)
    except np.linalg.LinAlgError:
        return None
    skew = np.abs(inverse - inverse.T).sum(axis=1) * 0.5
    if not (skew <= np.einsum("ij,ij->i", L, L)).all():
        return None
    X = X - X.mean(axis=0)
    return X @ L, row_norms(np.abs(X) @ np.abs(L))


def screen(wq, bq, wc, bc, k):
    """Screen query rows against candidate rows, one block at a time.

    wq, wc are whitened query and candidate rows and bq, bc their margin
    norms (see the module docstring). Yields (start, near, settled) for
    the block of queries start..start + len(near) - 1: near[r] marks the
    candidates that may lie within the k-th smallest reference distance
    of query start + r. Where settled[r], near[r] marks exactly k
    candidates and they are that query's reference neighbours; other
    queries need the reference arithmetic.
    """
    d = wq.shape[1]
    nc = np.einsum("ij,ij->i", wc, wc)
    scale = 2.0 * _EPS * (d * d + 2 * d + 8)
    step = max(1, _SCREEN_CELLS // len(wc))
    for start in range(0, len(wq), step):
        w, b = wq[start : start + step], bq[start : start + step]
        sq = np.einsum("ij,ij->i", w, w)[:, None] + nc - 2.0 * (w @ wc.T)
        margin = scale * np.square(b[:, None] + bc) + _TINY
        reach = np.partition(sq + margin, k - 1, axis=1)[:, k - 1]
        bound = np.maximum(reach, 0.0) * (1.0 + 4.0 * _EPS)
        near = sq - margin <= bound[:, None]
        yield start, near, near.sum(axis=1) == k
