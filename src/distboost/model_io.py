"""Model persistence: a single JSON document per model.

Serialization is deterministic (sorted keys, fixed indentation) and floats
use Python's shortest round-trip representation, so save -> load -> save is
byte-idempotent and a loaded model predicts bit-identically to the saved
one.  This is the package's stable interchange format; bump FORMAT_VERSION
on any breaking change.
"""

from __future__ import annotations

import json

import numpy as np

from .booster import BoostedModel, ParamEnsemble
from .errors import ModelFormatError, ValidationError
from .fields import Fields, read_json, typed
from .losses import ParameterDomain, loss_names, make_loss
from .tree import RegressionTree

FORMAT_VERSION = 2

_TOP_KEYS = {"format_version", "loss_name", "nuisance", "feature_names", "params"}
_PARAM_KEYS = {"name", "base_value", "domain", "trees"}
_DOMAIN_KEYS = {"lo", "hi"}
# per node, in RegressionTree's argument order; children are tree-local
_NODE_COLUMNS = (("feature", "integer"), ("threshold", "number"), ("left", "integer"),
                 ("right", "integer"), ("weight", "number"))
_TREES_KEYS = {"eta", "size"} | {key for key, _ in _NODE_COLUMNS}


def _trees_to_columns(trees):
    columns = {key: [v for t, _ in trees for v in getattr(t, key).tolist()]
               for key, _ in _NODE_COLUMNS}
    return dict(columns, eta=[float(eta) for _, eta in trees],
                size=[t.n_nodes for t, _ in trees])


def model_to_dict(model: BoostedModel):
    return {
        "format_version": FORMAT_VERSION,
        "loss_name": model.loss_name,
        "nuisance": {k: typed(v, "number", f"model.nuisance.{k}", ModelFormatError)
                     for k, v in model.nuisance.items()},
        "feature_names": list(model.feature_names),
        "params": [
            {
                "name": p.name,
                "base_value": float(p.base_value),
                "domain": {"lo": float(p.domain.lo), "hi": float(p.domain.hi)},
                "trees": _trees_to_columns(p.trees),
            }
            for p in model.params
        ],
    }


def dumps(model: BoostedModel):
    return json.dumps(model_to_dict(model), sort_keys=True, indent=2) + "\n"


def save(model: BoostedModel, path):
    text = dumps(model)
    model_from_dict(json.loads(text))  # load's reader: a model it rejects is never written
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _columns_to_trees(block, where):
    """The (tree, eta) pairs of one trees object; BoostedModel checks their structure."""
    f = Fields(block, where, ModelFormatError, _TREES_KEYS, _TREES_KEYS)
    etas = f.items("eta", "number")
    sizes = f.items("size", "integer")
    if len(etas) != len(sizes):
        raise ModelFormatError(f"{where}: {len(etas)} eta entries for {len(sizes)} trees")
    columns = [f.items(key, kind) for key, kind in _NODE_COLUMNS]
    for (key, _), column in zip(_NODE_COLUMNS, columns):
        if len(column) != sum(sizes):
            raise ModelFormatError(f"{where}.{key}: {len(column)} entries, "
                                   f"but the sizes sum to {sum(sizes)}")
    # every column converted once (`fields` caps integers at 2^53), then cut per tree
    nodes = RegressionTree(*columns)
    columns = [getattr(nodes, key) for key, _ in _NODE_COLUMNS]
    ends = np.cumsum(sizes, dtype=np.intp)
    return [(RegressionTree(*(c[end - size:end] for c in columns)), eta)
            for eta, size, end in zip(etas, sizes, ends)]


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
        if j < loss.n_params and loss.must_be_positive[j] and domain.lo <= 0:
            raise ModelFormatError(f"{where}.domain: [{domain.lo}, {domain.hi}] must stay "
                                   f"above 0 for '{loss_name}'")
        params.append(ParamEnsemble(b.get("name", "string"), b.get("base_value", "number"),
                                    domain, _columns_to_trees(b.get("trees", "object"),
                                                              f"{where}.trees")))
    names = tuple(p.name for p in params)
    if names != loss.param_names:
        raise ModelFormatError(
            f"loss '{loss_name}' has parameter(s) {', '.join(loss.param_names)} "
            f"but the model has {', '.join(names) or 'none'}")
    try:
        return BoostedModel(loss_name, loss.nuisance, feature_names, params)
    except ValidationError as exc:
        raise ModelFormatError(str(exc)) from None


def load(path):
    return model_from_dict(read_json(path, "model file", ModelFormatError))
