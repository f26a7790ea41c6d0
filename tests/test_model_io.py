"""The model document layout of every policy kind lives in model_io."""

import inspect

import numpy as np
import pytest

from perstrees import baselines, forest, tree
from perstrees.baselines import fit_1va, fit_rc, make_cate, make_regressor
from perstrees.errors import SchemaError
from perstrees.model_io import model_from_doc, save_model

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


@pytest.mark.parametrize("fit", [
    lambda ds: fit_rc(ds, regressor_factory=make_regressor("knn")),
    lambda ds: fit_1va(ds, cate_factory=make_cate("knn")),
], ids=["rc", "1va"])
def test_a_regressor_that_contradicts_its_base_is_not_written(tmp_path, fit):
    # base defaults to "ols", and the reader refuses any kNN arm under it
    policy = fit(random_dataset(np.random.default_rng(0), 20, 2, 2, all_arms=True))
    path = tmp_path / "model.json"
    with pytest.raises(SchemaError, match="regressor type must be 'ols', got a KnnRegressor"):
        save_model(policy, path)
    assert not path.exists()
