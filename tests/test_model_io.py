"""The model document layout of every policy kind lives in model_io."""

import inspect

import pytest

from perstrees import baselines, forest, tree
from perstrees.errors import SchemaError
from perstrees.model_io import model_from_doc


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
