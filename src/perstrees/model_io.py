"""One-stop save/load for every trained policy kind.

Model files are JSON documents with a "kind" discriminator: "pt",
"pf", "rc-ols", "rc-knn", "1va", "1v1a", "1v1b". Loading returns the
matching policy object; saving dispatches on the object's type.
"""

import json

from .baselines import (
    OneVsAllPolicy,
    OneVsOnePolicy,
    RcPolicy,
    rc_from_doc,
    rc_to_doc,
    relabel_from_doc,
    relabel_to_doc,
)
from .errors import SchemaError
from .forest import PersonalizationForest, forest_from_doc, forest_to_doc
from .tree import PersonalizationTree, tree_from_doc, tree_to_doc


def model_to_doc(policy):
    if isinstance(policy, PersonalizationTree):
        return tree_to_doc(policy)
    if isinstance(policy, PersonalizationForest):
        return forest_to_doc(policy)
    if isinstance(policy, RcPolicy):
        return rc_to_doc(policy)
    if isinstance(policy, (OneVsAllPolicy, OneVsOnePolicy)):
        return relabel_to_doc(policy)
    raise SchemaError(f"cannot serialize a {type(policy).__name__}")


_LOADERS = {
    "pt": tree_from_doc,
    "pf": forest_from_doc,
    "rc-ols": rc_from_doc,
    "rc-knn": rc_from_doc,
    "1va": relabel_from_doc,
    "1v1a": relabel_from_doc,
    "1v1b": relabel_from_doc,
}


def model_from_doc(doc):
    """Policy of a model document; SchemaError for any malformed one."""
    kind = doc.get("kind")
    loader = _LOADERS.get(kind) if isinstance(kind, str) else None
    if loader is None:
        raise SchemaError(f"unknown model kind {kind!r}")
    try:
        return loader(doc)
    except (LookupError, TypeError, ValueError, AttributeError, SchemaError) as exc:
        raise SchemaError(f"malformed {kind} model document: {exc!r}") from exc


# json takes one call per level: a tree past the recursion limit is refused whole
_TOO_DEEP = "the tree is too deep for a nested model file"


def save_model(policy, path):
    doc = model_to_doc(policy)
    try:
        text = json.dumps(doc, indent=2)
    except RecursionError as exc:
        raise SchemaError(_TOO_DEEP) from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError as exc:
            raise SchemaError(_TOO_DEEP) from exc
    if not isinstance(doc, dict):
        raise SchemaError("model file must hold a JSON object")
    return model_from_doc(doc)
