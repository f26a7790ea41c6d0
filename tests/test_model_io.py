"""The model document layout of every policy kind lives in model_io."""

import dataclasses
import inspect

import numpy as np
import pytest

from perstrees import baselines, forest, tree
from perstrees.baselines import (
    KnnRegressor, OlsRegressor, RcPolicy, fit_1v1, fit_1va, fit_rc, make_cate, make_regressor,
)
from perstrees.errors import SchemaError
from perstrees.model_io import model_from_doc, model_to_doc, save_model

from helpers import random_dataset


def test_policy_modules_know_nothing_of_documents():
    for module in (tree, forest, baselines):
        for name, value in vars(module).items():
            where = f"{module.__name__}.{name}"
            if inspect.isfunction(value):
                assert not name.endswith("_doc"), where
            if inspect.isclass(value):
                assert not hasattr(value, "to_doc") and not hasattr(value, "from_doc"), where


@pytest.mark.parametrize("doc", [[], "pt", None], ids=["list", "string", "null"])
def test_model_from_doc_refuses_a_non_object(doc):
    with pytest.raises(SchemaError, match="model file must hold a JSON object"):
        model_from_doc(doc)


def test_a_one_treatment_1v1_writes_base_ols():
    # one arm leaves no pair to fit, so no regressor names a type
    one = random_dataset(np.random.default_rng(1), 5, 2, 1, all_arms=True)
    assert model_to_doc(fit_1v1(one, cate_factory=make_cate("knn")))["base"] == "ols"


def mixed(policy):
    """policy with its first regressor swapped for one of the other type."""
    other = {OlsRegressor: "knn", KnnRegressor: "ols"}
    if isinstance(policy, RcPolicy):
        first = policy.regressors[0]
        swap = make_regressor(other[type(first)])().fit(np.zeros((3, policy.d)), np.zeros(3))
        return dataclasses.replace(policy, regressors=(swap, *policy.regressors[1:]))
    est = policy.estimators[0]
    est.hi = make_regressor(other[type(est.hi)])().fit(np.zeros((3, policy.d)), np.zeros(3))
    return policy


@pytest.mark.parametrize("fit", [
    lambda ds: fit_rc(ds, regressor_factory=make_regressor("knn")),
    lambda ds: fit_1va(ds, cate_factory=make_cate("ols")),
], ids=["rc", "1va"])
def test_mixed_regressor_types_are_refused(tmp_path, fit):
    policy = mixed(fit(random_dataset(np.random.default_rng(0), 20, 2, 2, all_arms=True)))
    path = tmp_path / "model.json"
    with pytest.raises(SchemaError, match="regressors of one known type, got KnnRegressor, "
                                          "OlsRegressor"):
        save_model(policy, path)
    assert not path.exists()


def test_an_unknown_regressor_type_is_refused(tmp_path):
    class Mean:
        def fit(self, X, y):
            self.mean = float(np.mean(y))
            return self

        def predict(self, X):
            return np.full(len(X), self.mean)

    policy = fit_rc(random_dataset(np.random.default_rng(0), 20, 2, 2, all_arms=True), Mean)
    path = tmp_path / "model.json"
    with pytest.raises(SchemaError, match="regressors of one known type, got Mean"):
        save_model(policy, path)
    assert not path.exists()
