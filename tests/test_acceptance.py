"""Acceptance gate: one test per release criterion.

Every test prints a single "criterion N (title): PASS|FAIL" line (visible
with -s or in captured output) and enforces its stated tolerance and
runtime budget. Statistical criteria are fully seeded, so their outcomes
are reproducible bit for bit.

Known red: criterion 8's one-vs-all leg. The population contrast of one
arm against the propensity-weighted pool of the others can rank a
suboptimal arm first when assignment probabilities are uneven, so that
meta-strategy cannot always recover the true argmin; the failing assert
reports the measured rate and a counterexample. The one-vs-one legs hold.
"""

import functools
import itertools
import time

import numpy as np

from perstrees.baselines import fit_1v1, fit_1va
from perstrees.data import Dataset, SyntheticSpec, confounded_propensity, generate_synthetic
from perstrees.errors import InfeasibleError
from perstrees.experiment import fit_algorithm
from perstrees.opt import (
    OptConfig,
    build_cut_menu,
    build_mip,
    check_solution,
    evaluate_assignment,
    export_mps,
    objective_value,
    solution_from_assignment,
    solve_exact,
)
from perstrees.opt.solver import TreeAssignment
from perstrees.risk import (
    FunctionPolicy,
    Partition,
    impurity,
    ipw_risk,
    oracle_metrics,
    partition_risk_estimate,
    prescriptions,
)
from perstrees.seeding import derive_seed, make_rng
from perstrees.submatch import (
    Metric,
    greedy_submatch,
    mahalanobis_metric,
    matched_risk,
    optimal_submatch,
)
from perstrees.tree import PtConfig, best_split

from helpers import leaf_argmin_policy, random_dataset
from test_mps import GOLDENS, six_subject_model, tiny_model
from test_tree import brute_force_best


def criterion(num, title, budget=None):
    """Print one pass/fail line per criterion and enforce its budget."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({title}): FAIL")
                raise
            elapsed = time.monotonic() - start
            print(f"criterion {num} ({title}): PASS [{elapsed:.1f}s]")
            if budget is not None:
                assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s"

        return wrapper

    return deco


def lookup_policy(m, leaf_of, choice):
    """Row-indexed policy prescribing each leaf's chosen treatment."""
    lut = np.array([1] + [choice.get(l, 1) for l in range(1, max(leaf_of.max(), 1) + 1)])
    return type(
        "P", (), {"m": m, "predict_many": lambda self, X, lut=lut, lo=leaf_of: lut[lo]}
    )()


@criterion(1, "leaf impurities sum to n times the partition risk", budget=5.0)
def test_c01_risk_identity():
    rng = make_rng(1001)
    for _ in range(200):
        n = int(rng.integers(2, 51))
        d = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        ds = random_dataset(rng, n, d, m)

        leaf_of = np.zeros(n, dtype=np.int64)
        counter = itertools.count(1)

        def split(rows, depth):
            if depth == 0 or rows.size == 0 or rng.random() < 0.35:
                leaf_of[rows] = next(counter)
                return
            f = int(rng.integers(d))
            theta = float(rng.normal())
            split(rows[ds.X[rows, f] <= theta], depth - 1)
            split(rows[ds.X[rows, f] > theta], depth - 1)

        split(np.arange(n), 3)
        n_leaves = next(counter) - 1

        choice = leaf_argmin_policy(ds, leaf_of)
        policy = lookup_policy(m, leaf_of, choice)
        est = partition_risk_estimate(ds, Partition(leaf_of, n_leaves), policy)
        total = 0.0
        for leaf in range(1, n_leaves + 1):
            rows = np.flatnonzero(leaf_of == leaf)
            if rows.size:
                total += impurity(ds.T[rows], ds.Y[rows], m, scarce_mode=True, n_min_leaf=1)
        assert abs(n * est - total) < 1e-10


@criterion(2, "greedy split scan agrees with exhaustive enumeration", budget=10.0)
def test_c02_split_oracle():
    rng = make_rng(1002)
    for trial in range(200):
        n = int(rng.integers(4, 31))
        d = int(rng.integers(1, 4))
        m = int(rng.integers(2, 4))
        # half-integer outcomes make every partial sum exact, so the scan
        # and the enumeration oracle must agree to the last bit
        ds = Dataset(
            X=rng.normal(size=(n, d)),
            T=rng.integers(1, m + 1, size=n),
            Y=np.round(rng.normal(size=n) * 2.0) / 2.0,
            m=m,
        )
        config = PtConfig(n_min_leaf=int(rng.integers(1, 4)), scarce_mode=trial % 2 == 0)
        features = list(range(d))
        split = best_split(ds, np.arange(n), features, config)
        want = brute_force_best(ds, np.arange(n), features, config)
        if split is None:
            assert want == np.inf
        else:
            assert split.impurity == want


def _c3_instance(seed):
    rng = make_rng(seed * 7919)
    n = int(rng.integers(24, 41))
    m = int(rng.integers(2, 4))
    ds = random_dataset(rng, n, 1, m, all_arms=True)
    cfg = OptConfig(delta=2, n_min_leaf=2, n_cuts=4, seed=seed)
    return ds, build_cut_menu(ds, cfg), cfg


def _all_assignments(menu, m):
    n_leaves = len(menu.cuts) + 1
    for cuts in itertools.product(*menu.cuts):
        for treats in itertools.product(range(1, m + 1), repeat=n_leaves):
            yield TreeAssignment(cuts=tuple(cuts), treatments=tuple(treats))


@criterion(3, "exact solver matches enumeration and satisfies its own program", budget=120.0)
def test_c03_exact_solver_oracle():
    done = 0
    seed = 0
    while done < 25:
        seed += 1
        assert seed < 200, "instance generator starved"
        ds, menu, cfg = _c3_instance(seed)
        assert all(len(cuts) <= 5 for cuts in menu.cuts)
        best = min(evaluate_assignment(ds, a, cfg) for a in _all_assignments(menu, ds.m))
        try:
            res = solve_exact(ds, menu, cfg)
        except InfeasibleError:
            assert best == np.inf
            continue
        assert res.proved
        assert abs(res.objective - best) < 1e-9
        model = build_mip(ds, menu, cfg)
        values = solution_from_assignment(ds, menu, res.assignment)
        assert check_solution(model, values) == []
        assert abs(objective_value(model, values) - res.objective) < 1e-9
        done += 1


@criterion(4, "no random feasible assignment beats the solver", budget=60.0)
def test_c04_solver_dominance():
    for seed in (1, 2, 3, 4, 5):
        rng = make_rng(seed * 104729)
        ds = random_dataset(rng, 40, 2, 2, all_arms=True)
        cfg = OptConfig(delta=2, n_min_leaf=1, n_cuts=3, seed=seed)
        menu = build_cut_menu(ds, cfg)
        res = solve_exact(ds, menu, cfg)
        cut_lists = menu.cuts
        feasible = 0
        attempts = 0
        while feasible < 1000:
            attempts += 1
            assert attempts < 200000, "feasible assignments too rare"
            cuts = tuple(c[rng.integers(len(c))] for c in cut_lists)
            treats = tuple(int(t) for t in rng.integers(1, ds.m + 1, size=len(cut_lists) + 1))
            val = evaluate_assignment(ds, TreeAssignment(cuts, treats), cfg)
            if np.isfinite(val):
                feasible += 1
                assert val >= res.objective - 1e-12


@criterion(5, "inverse-probability risk is unbiased under true propensities", budget=30.0)
def test_c05_ipw_unbiased():
    policy = FunctionPolicy(fn=lambda x: 1 if x[0] <= 0.3 else 2, m=2)
    diffs = np.empty(2000)
    for rep in range(2000):
        ds = generate_synthetic(
            SyntheticSpec(
                n=200,
                d=2,
                m=2,
                outcome_model={
                    "name": "quadratic", "centers": [-1.0, 1.0], "feature": 0, "noise": 0.1,
                },
                propensity_model={"name": "logistic_binary", "feature": 0, "strength": 1.0},
                seed=derive_seed(5, "ipw", rep),
            )
        )
        pres = prescriptions(policy, ds.X)
        cf_mean = float(ds.CF[np.arange(ds.n), pres - 1].mean())
        diffs[rep] = ipw_risk(ds, policy) - cf_mean
    se = diffs.std(ddof=1) / np.sqrt(len(diffs))
    assert abs(diffs.mean()) <= 3.0 * se, f"mean {diffs.mean():.5f} vs 3se {3 * se:.5f}"


@criterion(6, "matched risk is unbiased when exact matches exist", budget=60.0)
def test_c06_matched_risk_unbiased():
    policy = FunctionPolicy(fn=lambda x: 1 if x[0] <= -0.5 else 2, m=2)
    diffs = np.empty(2000)
    for rep in range(2000):
        ds = generate_synthetic(
            SyntheticSpec(
                n=200,
                d=1,
                m=2,
                covariate_model={"name": "discrete_grid", "values": [-1.0, 0.0, 1.0]},
                outcome_model={
                    "name": "linear",
                    "coef": [[1.0], [-0.5]],
                    "intercept": [0.0, 0.3],
                    "noise": 0.5,
                },
                propensity_model={"name": "logistic_binary", "feature": 0, "strength": 0.5},
                seed=derive_seed(6, "data", rep),
            )
        )
        mts = greedy_submatch(ds, 40, mahalanobis_metric(ds), seed=derive_seed(6, "match", rep))
        pres = prescriptions(policy, mts.X_test)
        cf_mean = float(ds.CF[mts.drawn, pres - 1].mean())
        diffs[rep] = matched_risk(mts, policy) - cf_mean
    se = diffs.std(ddof=1) / np.sqrt(len(diffs))
    assert abs(diffs.mean()) <= 3.0 * se, f"mean {diffs.mean():.5f} vs 3se {3 * se:.5f}"


@criterion(7, "pairing solver matches brute-force total cost", budget=5.0)
def test_c07_pairing_oracle():
    rng = make_rng(1007)
    for _ in range(50):
        n1 = int(rng.integers(2, 9))
        n2 = int(rng.integers(2, 9))
        n_pair = int(rng.integers(1, min(3, n1, n2) + 1))
        X = rng.normal(size=(n1 + n2, 2))
        ds = Dataset(
            X=X, T=np.array([1] * n1 + [2] * n2), Y=rng.normal(size=n1 + n2), m=2
        )
        metric = Metric(inverse=np.eye(2))
        mts = optimal_submatch(ds, n_pair, metric)
        got = sum(
            metric.distance(ds.X[mts.drawn[2 * k]], ds.X[mts.drawn[2 * k + 1]])
            for k in range(n_pair)
        )
        D = np.array([[metric.distance(X[i], X[n1 + j]) for j in range(n2)] for i in range(n1)])
        perms = np.array(list(itertools.permutations(range(n1), n_pair)))
        best = min(
            float(D[perms, np.array(comb)[None, :]].sum(axis=1).min())
            for comb in itertools.combinations(range(n2), n_pair)
        )
        assert abs(got - best) <= 1e-9


class _FixedContrast:
    """Estimator stub returning one oracle contrast value."""

    def __init__(self, value):
        self.value = value

    def fit(self, X, labels, y):
        return self

    def predict(self, X):
        return np.full(len(X), self.value)


def _fuzz_tables(seed, count):
    rng = make_rng(seed)
    made = 0
    while made < count:
        m = int(rng.integers(2, 6))
        mu = np.round(rng.uniform(0.0, 1.0, size=m), 3)
        order = np.sort(mu)
        if order[1] - order[0] < 1e-3:
            continue
        phi = rng.dirichlet(np.full(m, 0.7))
        if phi.min() <= 1e-3:
            continue
        made += 1
        yield mu, phi


def _arm_dataset(m):
    return Dataset(
        X=np.zeros((m, 1)), T=np.arange(1, m + 1), Y=np.zeros(m), m=m
    )


@criterion(8, "one-vs-one contrasts recover the true argmin", budget=5.0)
def test_c08_one_vs_one_argmin_equivalence():
    x = np.zeros(1)
    for mu, _ in _fuzz_tables(8, 500):
        m = len(mu)
        true = int(np.argmin(mu)) + 1
        ds = _arm_dataset(m)
        pair_factory = lambda t, s: _FixedContrast(float(mu[t - 1] - mu[s - 1]))
        for variant in ("A", "B"):
            pol = fit_1v1(ds, cate_factory=pair_factory, variant=variant)
            assert pol.prescribe(x) == true, (variant, mu.tolist())


@criterion(9, "disagreement with the pointwise-best policy shrinks with n")
def test_c09_consistency_trend():
    x_test = make_rng(999).normal(size=(4000, 2))
    tau_star = np.where(x_test[:, 0] < 0.0, 1, 2)
    params = {
        "pt": {"n_min_leaf": 15},
        "pf": {"trees_count": 25, "n_min_leaf": 10},
        "rc-knn": {},
    }
    for algo in ("pt", "pf", "rc-knn"):
        means = []
        for n in (100, 400, 1600):
            vals = []
            for rep in range(20):
                ds = generate_synthetic(
                    SyntheticSpec(
                        n=n,
                        d=2,
                        m=2,
                        outcome_model={
                            "name": "quadratic",
                            "centers": [-1.0, 1.0],
                            "feature": 0,
                            "noise": 0.1,
                        },
                        propensity_model={
                            "name": "logistic_binary", "feature": 0, "strength": 1.0,
                        },
                        seed=derive_seed(9, "data", n, rep),
                    )
                )
                policy = fit_algorithm(algo, ds, params[algo], seed=derive_seed(9, "fit", n, rep))
                vals.append(float(np.mean(prescriptions(policy, x_test) != tau_star)))
            means.append(float(np.mean(vals)))
        assert means[0] >= means[1] >= means[2], (algo, means)
        if algo == "pf":
            assert means[2] < 0.10, means


def _dose_benchmark(n, seed, flip=0.1):
    """Three dose groups on a confounded driver, with a genotype flag and
    a symmetric band on an independent lab value shifting the group."""
    rng = make_rng(seed)
    X = rng.normal(size=(n, 5))
    X[:, 1] = (rng.random(n) < 0.5).astype(np.float64)
    base = 1 + (X[:, 0] > 0.2).astype(np.int64)
    bump = (X[:, 1] > 0.5).astype(np.int64) + (np.abs(X[:, 3]) > 1.3).astype(np.int64)
    group = np.clip(base + bump, 1, 3)
    CF = (np.arange(1, 4)[None, :] != group[:, None]).astype(np.float64)
    flips = rng.random(CF.shape) < flip
    CF = np.abs(CF - flips)
    z = X[:, 0]
    z = (z - z.mean()) / z.std(ddof=1)
    probs = confounded_propensity(z)
    T = 1 + (rng.random(n)[:, None] > probs.cumsum(axis=1)).sum(axis=1)
    Y = CF[np.arange(n), T - 1]
    Q = probs[np.arange(n), T - 1]
    return Dataset(X=X, T=T, Y=Y, m=3, CF=CF, Q=Q)


@criterion(10, "forest beats least-squares regress-and-compare on held-out risk", budget=300.0)
def test_c10_forest_vs_least_squares():
    wins = 0
    for rep in range(50):
        train = _dose_benchmark(200, derive_seed(10, "train", rep))
        test = _dose_benchmark(500, derive_seed(10, "test", rep))
        pf = fit_algorithm(
            "pf",
            train,
            {"trees_count": 50, "n_min_leaf": 5, "scarce_mode": True, "delta_max": 4},
            seed=derive_seed(10, "fit", rep),
        )
        rc = fit_algorithm("rc-ols", train, {}, seed=0)
        if oracle_metrics(test, pf).risk < oracle_metrics(test, rc).risk:
            wins += 1
    assert wins >= 40, f"forest won only {wins}/50 replications"


@criterion(11, "personalization coefficients hit their reference points", budget=1.0)
def test_c11_coefficient_identities():
    CF = np.array([[0.0, 2.0], [3.0, 1.0], [2.0, 5.0], [4.0, 0.0]])
    T = np.array([2, 1, 1, 2])
    ds = Dataset(
        X=np.arange(4.0)[:, None],
        T=T,
        Y=CF[np.arange(4), T - 1],
        m=2,
        CF=CF,
    )
    row_best = CF.argmin(axis=1) + 1
    prescient = lookup_policy(2, np.arange(1, 5), {i + 1: int(row_best[i]) for i in range(4)})
    score = oracle_metrics(ds, prescient)
    assert score.p1 == 1.0 and score.p2 == 1.0

    best_const = FunctionPolicy(fn=lambda x: 2, m=2)
    score = oracle_metrics(ds, best_const)
    assert score.p1 == 0.0
    assert score.p2 < 0.0  # repeating the worse historical mix scores below zero


@criterion(12, "model exports are byte-identical to the committed goldens")
def test_c12_golden_exports(tmp_path):
    export_mps(tiny_model(), tmp_path / "tiny.mps", name="TINY")
    export_mps(six_subject_model(), tmp_path / "six.mps")
    for fname in ("tiny.mps", "tiny.names.json", "six.mps", "six.names.json"):
        assert (tmp_path / fname).read_bytes() == (GOLDENS / fname).read_bytes()


@criterion(8, "one-vs-all contrasts recover the true argmin")
def test_c08_one_vs_all_argmin_equivalence():
    """Known red: uneven assignment probabilities skew the pooled-rest
    reference, so the smallest own-vs-rest contrast can sit on a
    suboptimal arm no matter how good the contrast estimates are."""
    x = np.zeros(1)
    bad = 0
    example = None
    for mu, phi in _fuzz_tables(8, 500):
        m = len(mu)
        true = int(np.argmin(mu)) + 1
        rest = np.array(
            [(phi @ mu - phi[t] * mu[t]) / (1.0 - phi[t]) for t in range(m)]
        )
        contrasts = mu - rest
        factory = lambda t, s=None: _FixedContrast(float(contrasts[t - 1]))
        pol = fit_1va(_arm_dataset(m), cate_factory=factory)
        got = pol.prescribe(x)
        if got != true:
            bad += 1
            if example is None:
                example = {
                    "mu": mu.tolist(),
                    "phi": np.round(phi, 3).tolist(),
                    "true": true,
                    "prescribed": got,
                }
    assert bad == 0, (
        f"one-vs-all missed the true argmin on {bad} of 500 tables; "
        f"first counterexample: {example}"
    )
