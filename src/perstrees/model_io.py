"""One-stop save/load for every trained policy kind.

Model files are JSON documents with a "kind" discriminator: "pt",
"pf", "rc-ols", "rc-knn", "1va", "1v1a", "1v1b". This module alone
knows the layout of every kind: `model_to_doc` builds a policy's
document, dispatching on its type, and `model_from_doc` reads one back
through the reader of its kind. The policy modules hold in-memory
policies only.
"""

import json
import math
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .baselines import (
    _REGRESSORS, OlsRegressor, OneVsAllPolicy, OneVsOnePolicy, RcPolicy, RegressionCate,
)
from .data import _json_file
from .errors import ConfigError, SchemaError, _check_floats, _check_int, _check_number, _check_shape
from .forest import PersonalizationForest
from .tree import PersonalizationTree, _build


def _base(regressors):
    """The one type, by `make_regressor`'s table, of a policy's regressors
    ("ols" for none); SchemaError for mixed or unknown types."""
    types = {type(r) for r in regressors} or {OlsRegressor}
    for base, cls in _REGRESSORS.items():
        if types == {cls}:
            return base
    names = ", ".join(sorted(t.__name__ for t in types))
    raise SchemaError(f"a model file holds regressors of one known type, got {names}")


def _regressor_doc(r):
    """A regressor's document, as `_regressor` reads it."""
    if isinstance(r, OlsRegressor):
        return {"type": "ols", "weights": [float(w) for w in r.weights]}
    return {"type": "knn", "k": int(r.k), "center": r.center.tolist(),
            "scale": r.scale.tolist(), "x": r.x.tolist(), "y": r.y.tolist()}


def model_to_doc(policy):
    """The JSON-ready document of a policy."""
    if isinstance(policy, PersonalizationTree):
        return _tree_doc(policy)
    if isinstance(policy, PersonalizationForest):
        return {"kind": "pf", "trees": [_tree_doc(t) for t in policy.trees]}
    if isinstance(policy, RcPolicy):
        return {"kind": f"rc-{_base(policy.regressors)}", "m": int(policy.m), "d": int(policy.d),
                "arms": [_regressor_doc(r) for r in policy.regressors]}
    if isinstance(policy, OneVsAllPolicy):
        kind, ests = "1va", [({}, e) for e in policy.estimators]
    elif isinstance(policy, OneVsOnePolicy):
        kind = f"1v1{policy.variant.lower()}"
        ests = [({"t": t, "s": s}, e) for (t, s), e in sorted(policy.estimators.items())]
    else:
        raise SchemaError(f"cannot serialize a {type(policy).__name__}")
    base = _base([r for _, e in ests for r in (e.hi, e.lo)])
    return {"kind": kind, "base": base, "m": int(policy.m), "d": int(policy.d), "estimators": [
        {**pair, "pos": _regressor_doc(e.hi), "neg": _regressor_doc(e.lo)} for pair, e in ests]}


def _tree(doc):
    """The tree of a pt document, which may stand alone or in a forest."""
    if doc.get("kind") != "pt":
        raise SchemaError(f"expected a pt document, got kind {doc.get('kind')!r}")
    m, d = _check_shape(doc)
    most = int(np.iinfo(np.int64).max)  # leaf counts are held as int64

    def expand(node):
        """A node document as `_build` takes it; ConfigError for a bad field."""
        if "leaf" in node:
            leaf = node["leaf"]
            counts = [_check_int("leaf counts", c, 0, maximum=most) for c in leaf["counts"]]
            means = [np.nan if v is None else _check_number("leaf means", v) for v in leaf["means"]]
            if len(counts) != m or len(means) != m:
                raise SchemaError("leaf counts/means must have one entry per treatment")
            return _check_int("leaf treatment", leaf["treatment"], 1, maximum=m), counts, means
        if "split" not in node:
            raise SchemaError("tree node must hold either a split or a leaf")
        sp = node["split"]
        feature = _check_int("split feature", sp["feature"], 0, maximum=d - 1)
        return feature, _check_number("split threshold", sp["threshold"]), node["left"], node["right"]

    return _build(doc["root"], expand, m, d)


def _forest(doc):
    trees = tuple(_tree(t) for t in doc["trees"])
    if not trees:
        raise SchemaError("a forest document must contain at least one tree")
    m, d = trees[0].m, trees[0].d
    if any(t.m != m or t.d != d for t in trees):
        raise SchemaError("all trees in a forest must agree on m and d")
    return PersonalizationForest(trees=trees, m=m, d=d)


def _regressor(doc, base, d):
    """The regressor of a document on d features, whose type must be
    base: the rc kind's suffix, or the 1va or 1v1 document's base."""
    if doc.get("type") != base:
        raise SchemaError(f"regressor type must be {base!r}, got {doc.get('type')!r}")
    r = _REGRESSORS[base]()
    if base == "ols":
        r.weights = _check_floats("weights", doc["weights"], (d + 1,))
        return r
    r.center = _check_floats("center", doc["center"], (d,))
    r.scale = _check_floats("scale", doc["scale"], (d,))
    if (r.scale <= 0.0).any():
        raise SchemaError(f"scale must hold positive numbers, got {doc['scale']!r:.60}")
    r.x = _check_floats("x", doc["x"], (None, d))
    r.y = _check_floats("y", doc["y"], (len(r.x),))
    r.k = _check_int("k", doc["k"], 1, maximum=len(r.x))
    return r


def _rc(doc):
    m, d = _check_shape(doc)
    base = doc["kind"][3:]
    regs = tuple(_regressor(arm, base, d) for arm in doc["arms"])
    if len(regs) != m:
        raise SchemaError(f"rc document must hold one regressor per treatment, got {len(regs)}")
    return RcPolicy(regressors=regs, m=m, d=d)


def _cate(doc, base, d):
    est = RegressionCate(None)
    est.hi = _regressor(doc["pos"], base, d)
    est.lo = _regressor(doc["neg"], base, d)
    return est


def _relabeling(doc):
    kind, base = doc["kind"], doc.get("base", "ols")
    if base not in ("ols", "knn"):
        raise SchemaError(f"relabeling base must be 'ols' or 'knn', got {base!r}")
    m, d = _check_shape(doc)
    if kind == "1va":
        ests = tuple(_cate(e, base, d) for e in doc["estimators"])
        if len(ests) != m:
            raise SchemaError("1va document must hold one estimator per treatment")
        return OneVsAllPolicy(estimators=ests, m=m, d=d)
    ests = {(_check_int("t", e["t"], 1), _check_int("s", e["s"], 1)): _cate(e, base, d)
            for e in doc["estimators"]}
    pairs = {(t, s) for t in range(1, m + 1) for s in range(1, m + 1) if s != t}
    if len(doc["estimators"]) != len(pairs) or ests.keys() != pairs:
        raise SchemaError(f"{kind} document must hold one estimator per ordered pair of arms")
    return OneVsOnePolicy(estimators=ests, m=m, d=d, variant=kind[-1].upper())


_LOADERS = {
    "pt": _tree,
    "pf": _forest,
    "rc-ols": _rc,
    "rc-knn": _rc,
    "1va": _relabeling,
    "1v1a": _relabeling,
    "1v1b": _relabeling,
}


def model_from_doc(doc):
    """Policy of a model document; SchemaError for any malformed one."""
    if not isinstance(doc, dict):
        raise SchemaError("model file must hold a JSON object")
    kind = doc.get("kind")
    loader = _LOADERS.get(kind) if isinstance(kind, str) else None
    if loader is None:
        raise SchemaError(f"unknown model kind {kind!r}")
    try:
        return loader(doc)
    except (LookupError, TypeError, ValueError, AttributeError, ConfigError, SchemaError) as exc:
        raise SchemaError(f"malformed {kind} model document: {exc!r}") from exc


def _tree_doc(tree):
    """The pt document of a tree, built without recursion."""
    docs = [None] * tree.left.size
    for i in reversed(range(tree.left.size)):  # children come after parents
        if tree.left[i] < 0:
            means = [None if math.isnan(v) else v for v in tree.means[i].tolist()]
            leaf = {"treatment": int(tree.treatment[i]), "counts": tree.counts[i].tolist()}
            docs[i] = {"leaf": {**leaf, "means": means}}
        else:
            split = {"feature": int(tree.feature[i]), "threshold": float(tree.threshold[i])}
            docs[i] = {"split": split, "left": docs[tree.left[i]], "right": docs[tree.right[i]]}
    return {"kind": "pt", "m": int(tree.m), "d": int(tree.d), "root": docs[0]}


# json.loads takes one call per nesting level, and called by `load_model`
# through `_json_file` in a fresh `python -m perstrees.cli` process at the
# default recursion limit it reads 988 levels (one frame more on that
# stack, one level less): `_tree_doc` nests a tree's depth + 4 levels
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
    policy = model_from_doc(_json_file(path, SchemaError(f"{path}: {_TOO_DEEP}")))
    if _nesting(policy) > _MAX_NESTING:
        raise SchemaError(_TOO_DEEP)
    return policy
