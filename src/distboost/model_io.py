"""Model persistence: a single JSON document per model.

Serialization is deterministic (sorted keys, fixed indentation) and floats
use Python's shortest round-trip representation, so save -> load -> save is
byte-idempotent and a loaded model predicts bit-identically to the saved
one.  This is the package's stable interchange format; bump FORMAT_VERSION
on any breaking change.
"""

from __future__ import annotations

import json

from .booster import BoostedModel, ParamEnsemble
from .errors import ModelFormatError, ValidationError
from .fields import Fields, read_json, typed
from .losses import ParameterDomain, loss_names, make_loss
from .tree import RegressionTree

FORMAT_VERSION = 1

_TOP_KEYS = {"format_version", "loss_name", "nuisance", "feature_names", "params"}
_PARAM_KEYS = {"name", "base_value", "domain", "trees"}
_TREE_KEYS = {"eta", "nodes"}
_SPLIT_KEYS = {"kind", "feature", "threshold", "left", "right"}
_LEAF_KEYS = {"kind", "weight"}
_DOMAIN_KEYS = {"lo", "hi"}


def _tree_to_nodes(tree: RegressionTree):
    return [{"kind": "leaf", "weight": float(w)} if f < 0 else
            {"kind": "split", "feature": int(f), "threshold": float(t),
             "left": int(left), "right": int(right)}
            for f, t, left, right, w in zip(tree.feature, tree.threshold, tree.left,
                                            tree.right, tree.weight)]


def model_to_dict(model: BoostedModel):
    return {
        "format_version": FORMAT_VERSION,
        "loss_name": model.loss_name,
        "nuisance": {k: float(v) for k, v in model.nuisance.items()},
        "feature_names": list(model.feature_names),
        "params": [
            {
                "name": p.name,
                "base_value": float(p.base_value),
                "domain": {"lo": float(p.domain.lo), "hi": float(p.domain.hi)},
                "trees": [{"eta": float(eta), "nodes": _tree_to_nodes(t)}
                          for t, eta in p.trees],
            }
            for p in model.params
        ],
    }


def dumps(model: BoostedModel):
    return json.dumps(model_to_dict(model), sort_keys=True, indent=2) + "\n"


def save(model: BoostedModel, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(model))


def _nodes_to_tree(nodes, n_features, where):
    if not nodes:
        raise ModelFormatError(f"{where}: nodes must be a nonempty array")
    rows = []  # (feature, threshold, left, right, weight) per node
    for k, node in enumerate(nodes):
        at = f"{where}.nodes[{k}]"
        if node.get("kind") == "split":
            f = Fields(node, at, ModelFormatError, _SPLIT_KEYS, _SPLIT_KEYS)
            rows.append((f.get("feature", "integer"), f.get("threshold", "number"),
                         f.get("left", "integer"), f.get("right", "integer"), 0.0))
        elif node.get("kind") == "leaf":
            f = Fields(node, at, ModelFormatError, _LEAF_KEYS, _LEAF_KEYS)
            rows.append((-1, 0.0, -1, -1, f.get("weight", "number")))
        else:
            raise ModelFormatError(f"{at}: kind must be 'split' or 'leaf'")
    try:
        tree = RegressionTree(*zip(*rows))
        tree.validate_structure(n_features)
    except (ValidationError, OverflowError) as exc:
        raise ModelFormatError(f"{where}: {exc}") from None
    return tree


def model_from_dict(doc):
    version = typed(doc, "object", "model", ModelFormatError).get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(
            f"unsupported format_version {version!r}; this build reads {FORMAT_VERSION}")
    f = Fields(doc, "model", ModelFormatError, _TOP_KEYS, _TOP_KEYS)
    loss_name = f.get("loss_name", "string")
    if loss_name not in loss_names():
        raise ModelFormatError(f"unknown loss_name '{loss_name}'")
    try:
        loss = make_loss(loss_name, f.get("nuisance", "object"))
    except ValidationError as exc:
        raise ModelFormatError(f"model.nuisance: {exc}") from None
    feature_names = f.items("feature_names", "string")
    if not feature_names:
        raise ModelFormatError("feature_names must be nonempty")

    params = []
    for j, block in enumerate(f.items("params", "object")):
        where = f"params[{j}]"
        b = Fields(block, where, ModelFormatError, _PARAM_KEYS, _PARAM_KEYS)
        d = Fields(b.get("domain", "object"), f"{where}.domain", ModelFormatError,
                   _DOMAIN_KEYS, _DOMAIN_KEYS)
        try:
            domain = ParameterDomain(d.get("lo", "number"), d.get("hi", "number"))
        except ValidationError as exc:
            raise ModelFormatError(f"{where}.domain: {exc}") from None
        trees = []
        for k, entry in enumerate(b.items("trees", "object")):
            t = Fields(entry, f"{where}.trees[{k}]", ModelFormatError, _TREE_KEYS, _TREE_KEYS)
            trees.append((_nodes_to_tree(t.items("nodes", "object"), len(feature_names),
                                         f"{where}.trees[{k}]"),
                          t.get("eta", "number")))
        params.append(ParamEnsemble(b.get("name", "string"), b.get("base_value", "number"),
                                    domain, trees))
    names = tuple(p.name for p in params)
    if names != loss.param_names:
        raise ModelFormatError(
            f"loss '{loss_name}' has parameter(s) {', '.join(loss.param_names)} "
            f"but the model has {', '.join(names) or 'none'}")
    return BoostedModel(loss_name, loss.nuisance, feature_names, params)


def load(path):
    return model_from_dict(read_json(path, "model file", ModelFormatError))
