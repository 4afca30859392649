"""Command-line entry point.

Subcommands: train, predict, eval, check-loss, gen.  Hyperparameters live
in a JSON config file (flags nest too poorly for per-parameter blocks, and
the config doubles as the experiment record).  Exit codes are stable for
scripting: 0 ok, 2 validation, 3 runtime/numeric, 4 I/O.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import booster, dataset, evaluate, losses, model_io
from .errors import DistboostError, ValidationError
from .fields import Fields, count, parse_json, read_json
from .tree import TreeParams

_TOP_KEYS = {"loss", "response_col", "exposure_col", "adjustment_col",
             "total_rounds", "seed", "holdout_fraction", "trace_path", "params"}
_LOSS_KEYS = {"name", "nuisance"}
# a parameter block is its name, then the fields of the two dataclasses it
# builds, which type and range-check the raw values themselves
_TREE_KEYS = {x.name for x in dataclasses.fields(TreeParams)}
_PARAM_KEYS = ({"name"} | _TREE_KEYS
               | {x.name for x in dataclasses.fields(booster.ParamTrainConfig)}) - {"tree"}
_GEN_KEYS = {"cuts", "cells", "exposure_choices", "adjustment_choices"}


@dataclasses.dataclass
class RunConfig:
    loss: losses.Loss
    response_col: str
    exposure_col: str | None
    adjustment_col: str | None
    total_rounds: int
    seed: int
    holdout_fraction: float | None
    trace_path: str | None
    param_configs: list


def _param_config(block, where, name):
    f = Fields(block, where, ValidationError, _PARAM_KEYS)
    given = f.get("name", "string", None)
    if given is not None and given != name:
        raise ValidationError(f"{where}: name '{given}' != parameter '{name}'")
    domain = f.items("domain", "number", None)
    if domain is not None and len(domain) != 2:
        raise ValidationError(f"{where}.domain: expected [lo, hi]")
    args = {key: value for key, value in f.obj.items() if key not in ("name", "domain")}
    tree_args = {key: args.pop(key) for key in _TREE_KEYS & f.obj.keys()}
    try:
        if domain is not None:
            args["domain"] = losses.ParameterDomain(*domain)
        return booster.ParamTrainConfig(tree=TreeParams(**tree_args), **args)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def parse_run_config(doc):
    """Validate a config document and build the loss and per-parameter configs."""
    f = Fields(doc, "config", ValidationError, _TOP_KEYS)
    lf = Fields(f.get("loss", "object"), "config.loss", ValidationError, _LOSS_KEYS)
    loss = losses.make_loss(lf.get("name", "string"), lf.get("nuisance", "object", None))
    total_rounds = count(f.get("total_rounds", "integer"), "config.total_rounds", ValidationError)
    seed = count(f.get("seed", "integer", 0), "config.seed", ValidationError)

    blocks = f.get("params", "array", None)
    if blocks is None:
        blocks = [{}] * loss.n_params
    elif len(blocks) != loss.n_params:
        raise ValidationError(
            f"config.params must list exactly {loss.n_params} block(s) "
            f"for loss '{loss.name}'")
    param_configs = [_param_config(block, f"config.params[{j}]", loss.param_names[j])
                     for j, block in enumerate(blocks)]

    return RunConfig(
        loss=loss,
        response_col=f.get("response_col", "string", "y"),
        exposure_col=f.get("exposure_col", "string", None),
        adjustment_col=f.get("adjustment_col", "string", None),
        total_rounds=total_rounds,
        seed=seed,
        holdout_fraction=f.get("holdout_fraction", "number", None),
        trace_path=f.get("trace_path", "string", None),
        param_configs=param_configs,
    )


def _write_trace(path, loss, trace):
    """One row per round; per-parameter cells are empty where it was inactive."""
    names = loss.param_names
    per_param = ("max_abs_grad", "clamped_rows", "grad_clipped", "hess_zeroed")
    cols = (["round"] + [f"active_{p}" for p in names] + ["train_nll"]
            + [f"{field}_{p}" for field in per_param for p in names])
    dataset.write_table(path, cols, np.array([
        [rec.round, *map(int, rec.active), rec.train_nll,
         *(v if f else "" for field in per_param
           for f, v in zip(rec.active, getattr(rec, field)))]
        for rec in trace], dtype=object))


def cmd_train(args):
    config = parse_run_config(read_json(args.config, "config", ValidationError))
    ds = dataset.load_csv(args.data, config.response_col,
                          config.exposure_col, config.adjustment_col)
    holdout = None
    if config.holdout_fraction is not None:
        ds, holdout = dataset.split_holdout(ds, config.holdout_fraction, config.seed)

    result = booster.train(ds, config.loss, config.param_configs, config.total_rounds)
    model_io.save(result.model, args.out)

    trace_path = args.trace or config.trace_path
    if trace_path:
        _write_trace(trace_path, config.loss, result.trace)

    final_nll = result.trace[-1].train_nll if result.trace else result.initial_nll
    print(f"final_train_nll={final_nll!r}")
    if final_nll > result.initial_nll:
        print("warning: training loss ended above its starting value "
              f"({result.initial_nll!r}); the learning rate is likely too "
              "large for this loss (reduce eta or raise lambda_reg)",
              file=sys.stderr)
    if holdout is not None:
        report = evaluate.nll_score(result.model, config.loss, holdout,
                                    model_id=args.out)
        print(f"holdout_nll={report.total_nll!r}")
    return 0


def cmd_predict(args):
    model = model_io.load(args.model)
    header, table = dataset.read_table(args.data)
    X = table[:, dataset.bind_columns(args.data, header,
                                      [("feature", c) for c in model.feature_names])]
    preds = model.predict_many(X)
    dataset.write_table(args.out, model.param_names, preds)
    print(f"wrote {preds.shape[0]} prediction rows to {args.out}")
    return 0


def cmd_eval(args):
    model = model_io.load(args.model)
    loss = losses.make_loss(model.loss_name, model.nuisance)
    ds = dataset.load_csv(args.data, args.response_col, args.exposure_col,
                          args.adjustment_col, model.feature_names)
    report = evaluate.nll_score(model, loss, ds, model_id=args.model)
    for line in report.lines():
        print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
    return 0


def cmd_check_loss(args):
    loss = losses.make_loss(args.loss, parse_json(args.nuisance, "--nuisance", ValidationError))
    try:
        y_samples = [float(v) for v in args.y_samples.split(",") if v.strip() != ""]
    except ValueError:
        raise ValidationError(f"--y-samples: not a comma-separated number list: "
                              f"{args.y_samples!r}") from None
    try:
        report = losses.check_admissibility(loss, y_samples, args.grid)
    except MemoryError:
        raise ValidationError(f"--grid {args.grid}: too many points to hold in memory") from None
    print(report.describe())
    return 0 if report.passed else 3


def cmd_gen(args):
    spec = Fields(read_json(args.params, "params file", ValidationError), "params file",
                  ValidationError, _GEN_KEYS, {"cuts", "cells"}).obj
    param_fn = dataset.PiecewiseParamMap(spec["cuts"], spec["cells"])
    try:
        ds = dataset.generate_synthetic(
            args.dist, args.n, args.seed, param_fn,
            exposure_choices=spec.get("exposure_choices"),
            adjustment_choices=spec.get("adjustment_choices"),
        )
    except MemoryError:
        raise ValidationError(f"--n {args.n}: too many rows to hold in memory") from None
    dataset.write_csv(ds, args.out)
    print(f"wrote {ds.n_rows} rows to {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="distboost",
        description="Tree boosting for distribution parameters with "
                    "non-convex-capable losses.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model from a CSV and a JSON config")
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--config", required=True, help="JSON run config")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--trace", default=None,
                   help="write the per-round loss trace CSV here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="write per-parameter predictions as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score a model by holdout NLL")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--response-col", default="y")
    p.add_argument("--exposure-col", default=None)
    p.add_argument("--adjustment-col", default=None)
    p.add_argument("--out", default=None, help="also write the report as JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check-loss",
                       help="scan a loss for the per-coordinate shape conditions")
    p.add_argument("--loss", required=True,
                   help=f"one of: {', '.join(losses.loss_names())}")
    p.add_argument("--nuisance", default="{}", help="JSON map, e.g. '{\"alpha\": 5}'")
    p.add_argument("--y-samples", required=True, help="comma-separated responses")
    p.add_argument("--grid", type=int, default=512)
    p.set_defaults(func=cmd_check_loss)

    p = sub.add_parser("gen", help="sample a synthetic dataset to CSV")
    p.add_argument("--dist", required=True,
                   help=f"one of: {', '.join(dataset.SYNTHETIC_DISTRIBUTIONS)}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--params", required=True,
                   help="JSON file with piecewise-constant parameter cells")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DistboostError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
