"""One-stop save/load for every trained policy kind.

Model files are JSON documents with a "kind" discriminator: "pt",
"pf", "rc-ols", "rc-knn", "1va", "1v1a", "1v1b". Loading returns the
matching policy object; saving dispatches on the object's type.
"""

import json
from json.encoder import encode_basestring_ascii as _quote

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


# json.load takes one call per nesting level, and in a fresh
# `python -m perstrees.cli` process at the default recursion limit it
# reads 988 levels: a pt document nests its tree's depth + 4 levels
# (document, nodes, leaf, counts), so a tree of depth 984, and a pf
# document 2 more. A policy nested deeper is neither written nor read.
_MAX_NESTING = 988
_TOO_DEEP = "the tree is too deep for a nested model file"


def _nesting(policy):
    """How deeply the policy's model document nests (0 if shallow)."""
    if isinstance(policy, PersonalizationTree):
        return policy.depth + 4
    if isinstance(policy, PersonalizationForest):
        return max(t.depth for t in policy.trees) + 6
    return 0


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CONTAINERS = (dict, list, tuple)


def _scalar(v):
    """A scalar (or empty container) as json.dumps writes it."""
    t = type(v)
    if t is float:
        text = float.__repr__(v)
        return _NONFINITE.get(text, text)
    if t is int:
        return int.__repr__(v)
    if t is str:
        return _quote(v)
    return json.dumps(v)


def _numbers(items, pad, close):
    """The indent-2 text of a list of scalars, or of non-empty lists of
    scalars, or None for a list that holds anything else. A short list of
    numbers is joined here; any other is re-spaced from one C-encoded
    json.dumps, whose ", " can then only stand between items."""
    if len(items) <= 8 and all(type(v) in (int, float) for v in items):
        return "[" + pad + ("," + pad).join(map(_scalar, items)) + close
    rows = all(isinstance(r, (list, tuple)) and r for r in items)
    head = items[0][0] if rows else items[0]
    if isinstance(head, (str, *_CONTAINERS)):
        return None
    text = json.dumps(items)
    if '"' in text or "{" in text or text.count("[") != (len(items) + 1 if rows else 1):
        return None
    if not rows:
        return "[" + pad + text[1:-1].replace(", ", "," + pad) + close
    inner = pad + "  "
    text = text[2:-2].replace("], [", pad + "]," + pad + "[" + inner)
    return "[" + pad + "[" + inner + text.replace(", ", "," + inner) + pad + "]" + close


def _dumps(doc):
    """json.dumps(doc, indent=2), byte for byte, without the pure-Python
    encoder that any indent selects. Containers are walked on an explicit
    stack of pending text and (value, level) items, so nesting costs no
    recursion. Keys must be strings, as in every model document."""
    pads = ["\n"]  # pads[level]: a newline and the indent of that level
    out, todo = [], [(doc, 0)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        value, level = item
        if not isinstance(value, _CONTAINERS) or not value:
            out.append(_scalar(value))
            continue
        while len(pads) < level + 2:
            pads.append(pads[-1] + "  ")
        pad = pads[level + 1]
        if isinstance(value, dict):
            opening, closing = "{", pads[level] + "}"
            entries = [(pad + _quote(key) + ": ", v) for key, v in value.items()]
        else:
            text = _numbers(value, pad, pads[level] + "]")
            if text is not None:
                out.append(text)
                continue
            opening, closing = "[", pads[level] + "]"
            entries = [(pad, v) for v in value]
        todo.append(closing)
        for k in range(len(entries) - 1, -1, -1):
            head, v = entries[k]
            head = ("," if k else opening) + head
            if isinstance(v, _CONTAINERS) and v:
                todo.append((v, level + 1))
                todo.append(head)
            else:
                todo.append(head + _scalar(v))
    return "".join(out)


def save_model(policy, path):
    if _nesting(policy) > _MAX_NESTING:
        raise SchemaError(_TOO_DEEP)
    text = _dumps(model_to_doc(policy))
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
    policy = model_from_doc(doc)
    if _nesting(policy) > _MAX_NESTING:
        raise SchemaError(_TOO_DEEP)
    return policy
