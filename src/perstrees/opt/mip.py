"""Mixed-integer formulation of the optimal-tree search.

The model minimizes the summed shifted outcomes of leaf-prescribed
treatments over all routings of the data through a complete tree.
Variables:

    gamma(p,j)   weight of the j-th menu cut at internal node p, [0,1]
    delta(p,i)   binary code bits forcing gamma integral
    w(i,p)       membership of subject i in leaf p, [0,1]
    lambda(p,t)  binary choice of treatment t at leaf p
    mu(p)        mean shifted outcome of the chosen treatment in p
    nu(i,p)      product mu(p) * w(i,p)

Constraint families, with Ybar = Y - min Y, Ymax = max Ybar, and
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

chi_i(gamma_q) = sum over menu cuts (l, theta) at q with X[i,l] <= theta
of gamma(q, cut), i.e. the weight of going left. The code bits are the
binary digits of the 1-based cut index, so distinct cuts get distinct
codes and the simplex row pins gamma to a vertex whenever delta is
integral. Subjects are numbered from 1 in variable names.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from ..errors import InfeasibleError, ParseError
from ..risk import _counts_and_sums


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str  # "binary" | "continuous"
    lower: float = 0.0
    upper: float = float("inf")


@dataclass(frozen=True)
class Constraint:
    name: str
    coeffs: tuple  # ((variable name, coefficient), ...)
    sense: str  # "<=" | "=" | ">="
    rhs: float


@dataclass
class MipModel:
    """A linear objective, variables, and sparse constraints, plus a
    registry describing what each variable stands for."""

    variables: tuple
    constraints: tuple
    objective: tuple  # ((variable name, coefficient), ...), minimized
    meta: dict = field(default_factory=dict)

    def variable(self, name):
        return self._by_name[name]

    @property
    def _by_name(self):
        cache = getattr(self, "_by_name_cache", None)
        if cache is None:
            cache = {v.name: v for v in self.variables}
            self._by_name_cache = cache
        return cache

    @property
    def n_binary(self):
        return sum(1 for v in self.variables if v.kind == "binary")


def _code_bits(j, k):
    """Binary digits of the 1-based index j, lowest bit first."""
    return [(j >> i) & 1 for i in range(k)]


def build_mip(ds, skeleton, menu, config):
    """Assemble the full model for one dataset, skeleton, and menu.

    Raises:
        InfeasibleError: n < n_leaves * m * n_min_leaf, so no routing
            can satisfy the per-leaf occupancy minimums.
    """
    leaves = skeleton.leaves
    if ds.n < len(leaves) * ds.m * config.n_min_leaf:
        raise InfeasibleError(
            f"{ds.n} subjects cannot fill {len(leaves)} leaves with "
            f"{config.n_min_leaf} of each of {ds.m} treatments"
        )
    ybar = ds.Y - ds.Y.min()
    ymax = float(ybar.max())
    counts = np.bincount(ds.T - 1, minlength=ds.m)
    big_m = ymax * (int(counts.max()) - len(leaves) * config.n_min_leaf)

    variables = []
    meta = {}
    constraints = []

    def add_var(name, kind, lower, upper, **info):
        variables.append(Variable(name=name, kind=kind, lower=lower, upper=upper))
        meta[name] = info

    for p in skeleton.internal_nodes:
        cuts = menu.for_node(p)
        k = (len(cuts) - 1).bit_length()
        for j, (f, theta) in enumerate(cuts, start=1):
            add_var(
                f"gamma({p},{j})", "continuous", 0.0, 1.0,
                role="gamma", node=p, cut=j, feature=f, threshold=theta,
            )
        for i in range(1, k + 1):
            add_var(f"delta({p},{i})", "binary", 0.0, 1.0, role="delta", node=p, bit=i)
    for i in range(1, ds.n + 1):
        for p in leaves:
            add_var(f"w({i},{p})", "continuous", 0.0, 1.0, role="w", subject=i, leaf=p)
    for p in leaves:
        for t in range(1, ds.m + 1):
            add_var(f"lambda({p},{t})", "binary", 0.0, 1.0, role="lambda", leaf=p, treatment=t)
    for p in leaves:
        add_var(f"mu({p})", "continuous", 0.0, float("inf"), role="mu", leaf=p)
    for i in range(1, ds.n + 1):
        for p in leaves:
            add_var(f"nu({i},{p})", "continuous", 0.0, float("inf"), role="nu", subject=i, leaf=p)

    # cut choice: simplex row plus binary code rows
    for p in skeleton.internal_nodes:
        cuts = menu.for_node(p)
        k = (len(cuts) - 1).bit_length()
        constraints.append(
            Constraint(
                name=f"onecut({p})",
                coeffs=tuple((f"gamma({p},{j})", 1.0) for j in range(1, len(cuts) + 1)),
                sense="=",
                rhs=1.0,
            )
        )
        for i in range(1, k + 1):
            row = [
                (f"gamma({p},{j})", 1.0)
                for j in range(1, len(cuts) + 1)
                if _code_bits(j, k)[i - 1]
            ]
            row.append((f"delta({p},{i})", -1.0))
            constraints.append(
                Constraint(name=f"code({p},{i})", coeffs=tuple(row), sense="=", rhs=0.0)
            )

    # left-branch indicator terms of chi_i(gamma_q), precomputed per node
    chi_terms = {}
    for q in skeleton.internal_nodes:
        cuts = menu.for_node(q)
        fires = [ds.X[:, f] <= theta for f, theta in cuts]
        chi_terms[q] = [
            [(f"gamma({q},{j})", 1.0) for j, col in enumerate(fires, start=1) if col[i]]
            for i in range(ds.n)
        ]

    # routing: w(i,p) is the product of per-ancestor branch indicators
    for p in leaves:
        path = skeleton.path_to(p)
        n_left = sum(1 for _, sign in path if sign < 0)
        for i in range(1, ds.n + 1):
            for q, sign in path:
                row = [(f"w({i},{p})", 1.0)]
                row.extend((name, sign * c) for name, c in chi_terms[q][i - 1])
                constraints.append(
                    Constraint(
                        name=f"routeub({i},{p},{q})",
                        coeffs=tuple(row),
                        sense="<=",
                        rhs=(1 + sign) / 2.0,
                    )
                )
            row = [(f"w({i},{p})", 1.0)]
            for q, sign in path:
                row.extend((name, sign * c) for name, c in chi_terms[q][i - 1])
            constraints.append(
                Constraint(
                    name=f"routelb({i},{p})",
                    coeffs=tuple(row),
                    sense=">=",
                    rhs=1.0 - n_left,
                )
            )

    # occupancy: every treatment meets the leaf minimum
    for p in leaves:
        for t in range(1, ds.m + 1):
            members = [f"w({i},{p})" for i in range(1, ds.n + 1) if ds.T[i - 1] == t]
            constraints.append(
                Constraint(
                    name=f"leafmin({p},{t})",
                    coeffs=tuple((name, 1.0) for name in members),
                    sense=">=",
                    rhs=float(config.n_min_leaf),
                )
            )

    # nu(i,p) = mu(p) * w(i,p), linearized
    for i in range(1, ds.n + 1):
        for p in leaves:
            nu, w, mu = f"nu({i},{p})", f"w({i},{p})", f"mu({p})"
            cw = [(nu, 1.0)]
            if ymax != 0.0:
                cw.append((w, -ymax))
            constraints.append(
                Constraint(name=f"costw({i},{p})", coeffs=tuple(cw), sense="<=", rhs=0.0)
            )
            constraints.append(
                Constraint(
                    name=f"costmu({i},{p})",
                    coeffs=((nu, 1.0), (mu, -1.0)),
                    sense="<=",
                    rhs=0.0,
                )
            )
            cl = [(nu, 1.0), (mu, -1.0)]
            if ymax != 0.0:
                cl.append((w, -ymax))
            constraints.append(
                Constraint(name=f"costlb({i},{p})", coeffs=tuple(cl), sense=">=", rhs=-ymax)
            )

    # treatment choice and its consistency with mu
    for p in leaves:
        constraints.append(
            Constraint(
                name=f"onetreat({p})",
                coeffs=tuple((f"lambda({p},{t})", 1.0) for t in range(1, ds.m + 1)),
                sense="=",
                rhs=1.0,
            )
        )
        for t in range(1, ds.m + 1):
            base = []
            for i in range(1, ds.n + 1):
                if ds.T[i - 1] != t:
                    continue
                base.append((f"nu({i},{p})", 1.0))
                if ybar[i - 1] != 0.0:
                    base.append((f"w({i},{p})", -float(ybar[i - 1])))
            lam = [(f"lambda({p},{t})", big_m)] if big_m != 0.0 else []
            constraints.append(
                Constraint(
                    name=f"meanub({p},{t})",
                    coeffs=tuple(base + lam),
                    sense="<=",
                    rhs=big_m,
                )
            )
            constraints.append(
                Constraint(
                    name=f"meanlb({p},{t})",
                    coeffs=tuple(base + [(n, -c) for n, c in lam]),
                    sense=">=",
                    rhs=-big_m,
                )
            )

    objective = tuple(
        (f"nu({i},{p})", 1.0) for i in range(1, ds.n + 1) for p in leaves
    )
    return MipModel(
        variables=tuple(variables),
        constraints=tuple(constraints),
        objective=objective,
        meta=meta,
    )


def solution_from_assignment(ds, skeleton, menu, assignment):
    """Variable values induced by a concrete tree assignment.

    Returns a complete name-to-value map: one-hot gamma with its code
    bits, memberships from routing, one-hot lambda, mu as the leaf mean
    of the chosen treatment's shifted outcome, and nu = mu * w.
    """
    ybar = ds.Y - ds.Y.min()
    top = 2**skeleton.delta
    leaf_ids = skeleton.route_many(ds.X, assignment.cuts)
    counts, sums = _counts_and_sums(ds.T, ybar, ds.m, leaf_ids - top, top)
    values = {}
    for p in skeleton.internal_nodes:
        cuts = menu.for_node(p)
        chosen = cuts.index(assignment.cuts[p - 1]) + 1
        k = (len(cuts) - 1).bit_length()
        for j in range(1, len(cuts) + 1):
            values[f"gamma({p},{j})"] = 1.0 if j == chosen else 0.0
        bits = _code_bits(chosen, k)
        for i in range(1, k + 1):
            values[f"delta({p},{i})"] = float(bits[i - 1])
    mu = {}
    for p, t in zip(skeleton.leaves, assignment.treatments):
        n_t = counts[p - top, t - 1]
        mu[p] = float(sums[p - top, t - 1] / n_t) if n_t else 0.0
    for i in range(1, ds.n + 1):
        for p in skeleton.leaves:
            values[f"w({i},{p})"] = 1.0 if leaf_ids[i - 1] == p else 0.0
    for p, t in zip(skeleton.leaves, assignment.treatments):
        for s in range(1, ds.m + 1):
            values[f"lambda({p},{s})"] = 1.0 if s == t else 0.0
    for p in skeleton.leaves:
        values[f"mu({p})"] = mu[p]
    for i in range(1, ds.n + 1):
        for p in skeleton.leaves:
            values[f"nu({i},{p})"] = mu[p] if leaf_ids[i - 1] == p else 0.0
    return values


def objective_value(model, values):
    """Objective at a name-to-value map; missing names count as zero."""
    return sum(c * values.get(name, 0.0) for name, c in model.objective)


def check_solution(model, values, tol=1e-9):
    """Validate a candidate solution against the model.

    Checks bounds, integrality of binaries, and every constraint, all
    within the additive tolerance. Unknown variable names are reported
    too. Returns a list of violation records; an empty list means the
    solution is valid.
    """
    problems = []
    known = model._by_name
    for name in values:
        if name not in known:
            problems.append({"kind": "unknown", "name": name, "amount": 0.0})
    for v in model.variables:
        x = values.get(v.name, 0.0)
        if x < v.lower - tol:
            problems.append({"kind": "bound", "name": v.name, "amount": v.lower - x})
        elif x > v.upper + tol:
            problems.append({"kind": "bound", "name": v.name, "amount": x - v.upper})
        if v.kind == "binary" and abs(x - round(x)) > tol:
            problems.append(
                {"kind": "integrality", "name": v.name, "amount": abs(x - round(x))}
            )
    for con in model.constraints:
        activity = sum(c * values.get(name, 0.0) for name, c in con.coeffs)
        if con.sense == "<=":
            gap = activity - con.rhs
        elif con.sense == ">=":
            gap = con.rhs - activity
        else:
            gap = abs(activity - con.rhs)
        if gap > tol:
            problems.append({"kind": "constraint", "name": con.name, "amount": gap})
    return problems


def load_solution_json(path):
    """Read a flat JSON object mapping variable names to numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ParseError("solution file must be a JSON object")
    out = {}
    for key, val in doc.items():
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ParseError(f"value for {key!r} is not a number")
        out[str(key)] = float(val)
    return out
