import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perstrees import _nearest, baselines
from perstrees.baselines import (
    KnnRegressor,
    OlsRegressor,
    OneVsAllPolicy,
    RcPolicy,
    RegressionCate,
    fit_1v1,
    fit_1va,
    fit_rc,
    make_cate,
    make_regressor,
)
from perstrees.data import Dataset, SyntheticSpec, generate_synthetic
from perstrees.errors import ConfigError, DomainError, SchemaError
from perstrees.model_io import model_from_doc, model_to_doc
from perstrees.risk import prescriptions

from helpers import margin_rows, random_dataset
from oracles import knn_row


def round_trip(reg, d):
    """reg read back from the rc document of a one-arm policy on d features."""
    policy = RcPolicy(regressors=(reg,), m=1, d=d)
    return model_from_doc(model_to_doc(policy)).regressors[0]


class TestOls:
    def test_recovers_exact_line(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = 3.0 + 2.0 * X[:, 0]
        reg = OlsRegressor().fit(X, y)
        assert np.allclose(reg.weights, [3.0, 2.0])
        assert np.isclose(reg.predict([[10.0]])[0], 23.0)

    def test_two_features(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(30, 2))
        y = 1.0 + 2.0 * X[:, 0] - X[:, 1]
        reg = OlsRegressor().fit(X, y)
        assert np.allclose(reg.weights, [1.0, 2.0, -1.0])

    def test_singular_design_falls_back_to_ridge(self):
        # duplicated column: normal matrix is rank deficient
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([2.0, 4.0, 6.0])
        reg = OlsRegressor().fit(X, y)
        for row, want in zip(X, y):
            assert abs(reg.predict([row])[0] - want) < 1e-3

    def test_round_trip(self):
        reg = OlsRegressor().fit(np.array([[0.0], [1.0]]), np.array([1.0, 2.0]))
        back = round_trip(reg, 1)
        assert np.isclose(back.predict([[0.5]])[0], reg.predict([[0.5]])[0])

    @pytest.mark.parametrize("make", [OlsRegressor, lambda: KnnRegressor(k=1)])
    def test_one_dimensional_input_rejected(self, make):
        reg = make().fit(np.array([[0.0], [1.0], [2.0]]), np.array([1.0, 2.0, 3.0]))
        for X in ([10.0], 10.0, np.zeros((1, 1, 1))):
            with pytest.raises(DomainError, match="matrix"):
                reg.predict(X)


class TestKnn:
    def test_two_nearest(self):
        reg = KnnRegressor(k=2).fit(
            np.array([[0.0], [1.0], [2.0], [10.0]]), np.array([0.0, 1.0, 2.0, 10.0])
        )
        assert reg.predict([[0.9]])[0] == 0.5  # neighbors at 1 and 0

    def test_codistant_points_share_the_average(self):
        reg = KnnRegressor(k=1).fit(np.array([[0.0], [2.0]]), np.array([3.0, 7.0]))
        assert reg.predict([[1.0]])[0] == 5.0

    def test_default_k_is_root_n(self):
        X = np.arange(16.0)[:, None]
        assert KnnRegressor().fit(X, np.zeros(16)).k == 4
        assert KnnRegressor().fit(X[:7], np.zeros(7)).k == 2

    def test_k_capped_at_n(self):
        reg = KnnRegressor(k=99).fit(np.arange(5.0)[:, None], np.arange(5.0))
        assert reg.k == 5
        assert reg.predict([[0.0]])[0] == 2.0  # global mean

    def test_scaling_invariance(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        queries = rng.normal(size=(5, 2))
        stretch = np.array([1000.0, 0.001])
        a = KnnRegressor(k=3).fit(X, y)
        b = KnnRegressor(k=3).fit(X * stretch, y)
        for q in queries:
            assert np.isclose(a.predict([q])[0], b.predict([q * stretch])[0])

    def test_constant_feature_is_harmless(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        reg = KnnRegressor(k=1).fit(X, np.array([10.0, 20.0, 30.0]))
        assert reg.predict([[2.1, 5.0]])[0] == 20.0

    def test_empty_fit_rejected(self):
        with pytest.raises(DomainError):
            KnnRegressor().fit(np.empty((0, 1)), np.empty(0))

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        X, y = rng.normal(size=(12, 2)), rng.normal(size=12)
        reg = KnnRegressor(k=3).fit(X, y)
        back = round_trip(reg, 2)
        for q in rng.normal(size=(4, 2)):
            assert np.isclose(back.predict([q])[0], reg.predict([q])[0])

    def test_each_fit_takes_k_from_the_constructor(self):
        # a fit on fewer rows than k caps k for that fit alone
        fixed, rooted = KnnRegressor(k=10), KnnRegressor()
        fixed.fit(np.arange(5.0)[:, None], np.zeros(5))
        rooted.fit(np.arange(4.0)[:, None], np.zeros(4))
        assert (fixed.k, rooted.k) == (5, 2)
        fixed.fit(np.arange(100.0)[:, None], np.zeros(100))
        rooted.fit(np.arange(100.0)[:, None], np.zeros(100))
        assert (fixed.k, rooted.k) == (10, 10)

    def test_factory_passes_k(self):
        factory = make_regressor("knn", {"k": 3})
        reg = factory().fit(np.arange(9.0)[:, None], np.zeros(9))
        assert reg.k == 3

    def test_unknown_base_rejected(self):
        with pytest.raises(ConfigError, match="ols, knn"):
            make_regressor("forest")


def linear_arms_dataset(n=40):
    """Arm 1 pays x, arm 2 pays 1 - x, assigned alternately on a grid."""
    x = np.linspace(-1.0, 2.0, n)
    T = np.tile([1, 2], n // 2)
    Y = np.where(T == 1, x, 1.0 - x)
    return Dataset(X=x[:, None], T=T, Y=Y, m=2)


class TestRegressAndCompare:
    def test_recovers_linear_crossover(self):
        pol = fit_rc(linear_arms_dataset())
        for q, want in ((-0.5, 1), (0.2, 1), (0.8, 2), (1.7, 2)):
            assert pol.prescribe([q]) == want

    def test_prediction_vector_ordered_by_arm(self):
        pol = fit_rc(linear_arms_dataset())
        preds = pol.predictions([[0.0]])[0]
        assert np.isclose(preds[0], 0.0) and np.isclose(preds[1], 1.0)

    def test_tie_goes_to_lowest_arm(self):
        class Flat:
            def fit(self, X, y):
                return self

            def predict(self, X):
                return np.ones(len(X))

        pol = fit_rc(linear_arms_dataset(), regressor_factory=Flat)
        assert pol.prescribe([0.3]) == 1

    def test_empty_arm_rejected(self):
        ds = Dataset(X=np.zeros((3, 1)), T=np.array([1, 1, 1]), Y=np.zeros(3), m=2)
        with pytest.raises(DomainError, match="treatment 2"):
            fit_rc(ds)

    @pytest.mark.parametrize("base", ["ols", "knn"])
    def test_round_trip(self, base):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, 40, 2, 3, all_arms=True)
        pol = fit_rc(ds, regressor_factory=make_regressor(base))
        doc = model_to_doc(pol)
        assert doc["kind"] == f"rc-{base}"
        back = model_from_doc(doc)
        for x in ds.X[:8]:
            assert back.prescribe(x) == pol.prescribe(x)

    def test_rejects_wrong_kind(self):
        # the kind picks the reader, so an rc body under another kind has none
        with pytest.raises(SchemaError, match="unknown model kind 'rc-forest'"):
            model_from_doc({"kind": "rc-forest", "m": 1, "d": 1, "arms": []})

    def test_rejects_knn_k_past_the_stored_points(self):
        doc = model_to_doc(fit_rc(linear_arms_dataset(), make_regressor("knn")))
        doc["arms"][1]["k"] = 21  # each arm stores 20 points
        with pytest.raises(SchemaError, match="k must be an integer in 1..20"):
            model_from_doc(doc)


class FakeCate:
    """Scripted contrast estimator recording what it was fitted on."""

    def __init__(self, value, log, key):
        self.value = value
        self.log = log
        self.key = key

    def fit(self, X, labels, y):
        self.log.append((self.key, np.asarray(X).copy(), np.asarray(labels).copy()))
        return self

    def predict(self, X):
        X = np.asarray(X, dtype=np.float64)
        return self.value(X) if callable(self.value) else np.full(len(X), self.value)


class TestOneVsAll:
    def make(self):
        ds = Dataset(
            X=np.array([[-2.0], [0.0], [2.0]]),
            T=np.array([1, 2, 3]),
            Y=np.zeros(3),
            m=3,
        )
        log = []
        values = {1: lambda X: X[:, 0], 2: -1.0, 3: 1.0}
        pol = fit_1va(ds, cate_factory=lambda t, s=None: FakeCate(values[t], log, t))
        return ds, log, pol

    def test_relabeling_marks_the_target_arm(self):
        ds, log, _ = self.make()
        assert [key for key, _, _ in log] == [1, 2, 3]
        for key, X, labels in log:
            assert X.shape == ds.X.shape  # fitted on the full sample
            assert labels.tolist() == (1 + (ds.T == key)).tolist()

    def test_prescribes_smallest_contrast(self):
        _, _, pol = self.make()
        assert pol.prescribe([-2.0]) == 1  # own contrast -2 beats -1
        assert pol.prescribe([0.0]) == 2
        assert pol.prescribe([5.0]) == 2

    def test_contrast_vector(self):
        _, _, pol = self.make()
        assert pol.contrasts([[3.0]])[0].tolist() == [3.0, -1.0, 1.0]

    def test_real_estimators_prefer_the_better_arm(self):
        # arm 2 is uniformly 1 lower, so both contrasts point at it
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 1))
        T = np.tile([1, 2], 30)
        Y = np.where(T == 2, -1.0, 0.0) + 0.01 * rng.normal(size=60)
        pol = fit_1va(Dataset(X=X, T=T, Y=Y, m=2))
        assert all(pol.prescribe(x) == 2 for x in X[:10])


PAIRS = {
    (1, 2): -1.0,
    (1, 3): 2.0,
    (2, 1): 1.0,
    (2, 3): -3.0,
    (3, 1): -2.0,
    (3, 2): 3.0,
}


class TestOneVsOne:
    def fit(self, variant):
        ds = Dataset(
            X=np.arange(6.0)[:, None],
            T=np.array([1, 1, 2, 2, 3, 3]),
            Y=np.zeros(6),
            m=3,
        )
        log = []
        pol = fit_1v1(
            ds,
            cate_factory=lambda t, s: FakeCate(PAIRS[(t, s)], log, (t, s)),
            variant=variant,
        )
        return ds, log, pol

    def test_fits_every_ordered_pair_on_its_rows(self):
        ds, log, _ = self.fit("A")
        assert sorted(key for key, _, _ in log) == sorted(PAIRS)
        for (t, s), X, labels in log:
            rows = np.flatnonzero((ds.T == t) | (ds.T == s))
            assert X.tolist() == ds.X[rows].tolist()
            assert labels.tolist() == (1 + (ds.T[rows] == t)).tolist()

    def test_variant_a_takes_best_worst_contrast(self):
        # worst contrasts per arm: -1, -3, -2; arm 2 wins
        _, _, pol = self.fit("A")
        assert pol.prescribe([0.0]) == 2

    def test_variant_b_counts_wins(self):
        # every arm wins exactly one comparison; tie goes to arm 1
        _, _, pol = self.fit("B")
        assert pol.prescribe([0.0]) == 1

    def test_contrast_lookup(self):
        _, _, pol = self.fit("A")
        assert pol.contrast(2, 3, [[0.0]])[0] == -3.0

    @pytest.mark.parametrize("variant", ["A", "B"])
    @pytest.mark.parametrize("T, m, empty", [([], 1, 1), ([1, 1, 3, 3], 3, 2)],
                             ids=["no-rows", "middle-arm"])
    def test_an_arm_without_subjects_is_refused(self, variant, T, m, empty):
        ds = Dataset(X=np.zeros((len(T), 1)), T=np.array(T, dtype=np.int64),
                     Y=np.zeros(len(T)), m=m)
        with pytest.raises(DomainError, match=f"treatment {empty} has no subjects"):
            fit_1v1(ds, variant=variant)

    def test_variant_validated(self):
        ds = Dataset(X=np.zeros((2, 1)), T=np.array([1, 2]), Y=np.zeros(2), m=2)
        with pytest.raises(ConfigError):
            fit_1v1(ds, variant="C")


class TestRegressionCate:
    def test_difference_of_arm_fits(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        labels = np.array([1, 1, 2, 2])
        y = np.array([0.0, 1.0, 4.0, 6.0])  # arm 1: y=x, arm 2: y=2x
        est = RegressionCate(lambda: OlsRegressor()).fit(X, labels, y)
        assert np.isclose(est.predict([[5.0]])[0], 5.0)

    def test_missing_class_rejected(self):
        est = RegressionCate(lambda: OlsRegressor())
        with pytest.raises(DomainError, match="arm 2"):
            est.fit(np.zeros((2, 1)), np.array([1, 1]), np.zeros(2))

    def test_make_cate_knn(self):
        est = make_cate("knn", {"k": 1})(1, 2)
        X = np.array([[0.0], [1.0]])
        est.fit(X, np.array([1, 2]), np.array([2.0, 5.0]))
        assert est.predict([[0.9]])[0] == 3.0  # 5 - 2 from the single neighbors


class TestRelabelSerialization:
    @pytest.mark.parametrize("base", ["ols", "knn"])
    def test_1va_round_trip(self, base):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, 45, 2, 3, all_arms=True)
        pol = fit_1va(ds, cate_factory=make_cate(base))
        doc = model_to_doc(pol)
        assert (doc["kind"], doc["base"]) == ("1va", base)
        back = model_from_doc(doc)
        for x in ds.X[:8]:
            assert back.prescribe(x) == pol.prescribe(x)
        assert model_to_doc(back) == doc

    @pytest.mark.parametrize("variant", ["A", "B"])
    def test_1v1_round_trip(self, variant):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng, 45, 2, 3, all_arms=True)
        pol = fit_1v1(ds, variant=variant)
        doc = model_to_doc(pol)
        assert doc["kind"] == f"1v1{variant.lower()}"
        back = model_from_doc(doc)
        assert back.variant == variant
        for x in ds.X[:8]:
            assert back.prescribe(x) == pol.prescribe(x)

    def test_rejects_unknown_kind(self):
        with pytest.raises(SchemaError, match="unknown model kind '2v2'"):
            model_from_doc({"kind": "2v2", "m": 2, "d": 1, "estimators": []})

    def test_rejects_wrong_estimator_count(self):
        with pytest.raises(SchemaError):
            model_from_doc({"kind": "1va", "m": 3, "d": 1, "estimators": []})

    @pytest.mark.parametrize("change", [{"base": 7}, {"base": "forest"}, {"m": True}])
    def test_rejects_bad_fields(self, change):
        ds = random_dataset(np.random.default_rng(5), 45, 2, 3, all_arms=True)
        doc = model_to_doc(fit_1va(ds))
        with pytest.raises(SchemaError):
            model_from_doc({**doc, **change})


def grid_sample(n, seed):
    return generate_synthetic(SyntheticSpec(
        n=n, d=3, m=2,
        outcome_model={"name": "quadratic", "centers": [-1.0, 1.0], "feature": 0, "noise": 1.0},
        propensity_model={"name": "uniform"},
        covariate_model={"name": "discrete_grid", "values": [-1.0, 0.0, 1.0]},
        seed=seed,
    ))


class TestKnnBatch:
    @pytest.mark.parametrize("k", [1, 4, None, 60])
    def test_matches_row_reference_with_ties(self, k):
        train = grid_sample(150, 21)
        reg = KnnRegressor(k=k).fit(train.X, train.Y)
        block = max(1, baselines._KNN_BUDGET // reg.x.size)
        queries = grid_sample(2 * block + 7, 22).X
        got = reg.predict(queries)
        want = np.array([knn_row(reg, q) for q in queries])
        assert got.tobytes() == want.tobytes()
        # co-distant grid points do tie with the k-th neighbour
        ties = 0
        for q in queries:
            z = (q - reg.center) / reg.scale
            dist = np.sqrt(((reg.x - z) ** 2).sum(axis=1))
            ties += np.count_nonzero(dist <= np.sort(dist)[reg.k - 1]) > reg.k
        assert ties > 0


def ulp_pairs(n, offset):
    """n / 2 points around `offset`, each followed by its 1-ulp neighbour."""
    base = offset + np.random.default_rng(1).uniform(-1.0, 1.0, size=(n // 2, 2))
    return np.stack([base, np.nextafter(base, np.inf)], axis=1).reshape(-1, 2)


# name -> (training X, queries, whether the screen must leave some rows
# to exact rescoring at k = 1, whether the model stores X unscaled)
KNN_SCREEN_CASES = {
    "discrete-grid ties": lambda: (grid_sample(150, 23).X, grid_sample(60, 24).X, True, False),
    "duplicate rows": lambda: (
        np.tile(np.random.default_rng(3).normal(size=(50, 2)), (3, 1)),
        np.random.default_rng(4).normal(size=(60, 2)), True, False),
    # stored as given, as a model document may hold them, so the pairs
    # stay 1 ulp apart where the distances are taken
    "one ulp apart": lambda: (ulp_pairs(150, 1e3), ulp_pairs(60, 1e3) + 1e-3, True, True),
    "common offset 1e6": lambda: (
        1e6 + 1e-3 * np.random.default_rng(5).normal(size=(150, 3)),
        1e6 + 1e-3 * np.random.default_rng(6).normal(size=(60, 3)), False, False),
    "blocks past the budget": lambda: (
        np.random.default_rng(7).normal(size=(150, 4)),
        np.random.default_rng(8).normal(size=(_nearest._SCREEN_CELLS // 150 * 2 + 7, 4)),
        False, False),
}


class TestKnnScreen:
    @pytest.mark.parametrize("k", [1, 5, None, 150])
    @pytest.mark.parametrize("case", sorted(KNN_SCREEN_CASES))
    def test_matches_row_reference(self, case, k, caplog):
        X, queries, rescores, unscaled = KNN_SCREEN_CASES[case]()
        reg = KnnRegressor(k=k).fit(X, np.random.default_rng(9).normal(size=len(X)))
        if unscaled:
            reg.center, reg.scale, reg.x = np.zeros(X.shape[1]), np.ones(X.shape[1]), X
        with caplog.at_level(logging.DEBUG, logger="perstrees"):
            got = reg.predict(queries)
        want = np.array([knn_row(reg, q) for q in queries])
        assert got.tobytes() == want.tobytes()
        (record,) = [r for r in caplog.records if r.name == "perstrees.baselines"]
        rescored, rows = record.args
        assert rows == len(queries)
        if k == 1:
            assert (rescored > 0) == rescores
        if k == len(X):
            assert rescored == 0  # every point is a neighbour, ties or not


@st.composite
def knn_instances(draw):
    """A kNN regressor fit on 1 to 40 rows of margin_rows, held as fit or
    as given (as a model document may hold them, so ulp pairs stay one
    ulp apart where the distances are taken), and queries that copy a
    training row, lie one ulp above one, or are drawn afresh."""
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = margin_rows(draw, st, rng, n + 20, d)
    reg = KnnRegressor(k=draw(st.one_of(st.none(), st.integers(1, n + 2))))
    reg.fit(X[:n], rng.normal(size=n))
    if draw(st.booleans()):
        reg.center, reg.scale, reg.x = np.zeros(d), np.ones(d), X[:n]
    queries = X[n:]
    picks = rng.integers(0, n, size=len(queries))
    near = rng.integers(0, 3, size=len(queries))
    queries[near == 1] = X[picks[near == 1]]
    queries[near == 2] = np.nextafter(X[picks[near == 2]], -np.inf)
    return reg, queries


@settings(derandomize=True, max_examples=200, deadline=None)
@given(instance=knn_instances())
def test_knn_predict_is_the_row_reference_bit_for_bit(instance):
    reg, queries = instance
    want = np.array([knn_row(reg, q) for q in queries])
    assert reg.predict(queries).tobytes() == want.tobytes()


def row_value(reg, x):
    if isinstance(reg, OlsRegressor):
        return reg.weights[0] + sum(w * v for w, v in zip(reg.weights[1:], x))
    return knn_row(reg, x)


def row_prescriptions(pol, X):
    """Prescriptions from a loop over rows and arms."""

    def contrast(t, s, x):
        est = pol.estimators[t - 1] if s is None else pol.estimators[(t, s)]
        return row_value(est.hi, x) - row_value(est.lo, x)

    arms = range(1, pol.m + 1)
    pres = []
    for x in X:
        if isinstance(pol, RcPolicy):
            scores = [row_value(r, x) for r in pol.regressors]
        elif isinstance(pol, OneVsAllPolicy):
            scores = [contrast(t, None, x) for t in arms]
        elif pol.variant == "A":
            scores = [min(contrast(t, s, x) for s in arms if s != t) for t in arms]
        else:
            scores = [-sum(contrast(t, s, x) < 0.0 for s in arms if s != t) for t in arms]
        pres.append(1 + int(np.argmin(scores)))
    return pres


def regressors_of(pol):
    if isinstance(pol, RcPolicy):
        return list(pol.regressors)
    ests = pol.estimators.values() if isinstance(pol.estimators, dict) else pol.estimators
    return [r for e in ests for r in (e.hi, e.lo)]


FITTERS = {
    "rc-ols": lambda ds: fit_rc(ds),
    "rc-knn": lambda ds: fit_rc(ds, make_regressor("knn")),
    "1va-ols": lambda ds: fit_1va(ds),
    "1v1a-ols": lambda ds: fit_1v1(ds, variant="A"),
    "1v1b-ols": lambda ds: fit_1v1(ds, variant="B"),
}


class TestBatchPrescriptions:
    @pytest.mark.parametrize("algo", sorted(FITTERS))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_match_row_reference(self, algo, seed):
        rng = np.random.default_rng(100 + seed)
        ds = random_dataset(rng, 90, 3, 2 + seed, all_arms=True)
        X = rng.normal(size=(200, 3))
        pol = FITTERS[algo](ds)
        assert prescriptions(pol, X).tolist() == row_prescriptions(pol, X)
        for reg in regressors_of(pol):
            got = reg.predict(X)
            want = np.array([row_value(reg, x) for x in X])
            if isinstance(reg, OlsRegressor):
                assert np.abs(got - want).max() <= 1e-12
            else:
                assert got.tobytes() == want.tobytes()
