"""Span recording around distboost's public functions, from outside the package.

`Tracer.install()` replaces module attributes and class methods with thin
wrappers that record a span (name, start, end, parent span id) per call and
bump work counters; `Tracer.uninstall()` puts every original back.  The
wrappers are placed where the callers look the names up at call time, e.g.
`booster.build_tree` rather than `tree.build_tree`, because booster imported
the function by name.  Spans are kept in memory and written out once, at the
end of the run.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter

import numpy as np

from distboost import booster, cli, dataset, evaluate, losses, model_io, tree

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.counts = Counter()
        self._stack = []
        self._patches = []
        # id(TreeParams) -> clip_m of the parameter it grows trees for, so the
        # build_tree counter can tell which gradients sit on the clip band
        self._clip_by_tree_params = {}

    # -- spans -------------------------------------------------------------

    def open(self, name):
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else NO_PARENT)
        self.ends.append(None)
        self._stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def close(self, sid):
        self.ends[sid] = time.perf_counter()
        top = self._stack.pop()
        if top != sid:
            raise RuntimeError(f"span {sid} closed while span {top} was open")

    def parent_name(self):
        return self.names[self._stack[-1]] if self._stack else None

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span of its own."""
        sid = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(sid)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, owner, attr, name, count=None, before=None):
        """Replace owner.attr by a span-recording wrapper.

        name is a span name or a function of the enclosing span's name.
        count(counts, span_name, args, result) runs after the span closes;
        before(args) runs before it opens.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            span_name = name(tracer.parent_name()) if callable(name) else name
            result = tracer.span(span_name, original, *args, **kwargs)
            if count is not None:
                count(tracer.counts, span_name, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        w = self._wrap
        w(cli, "cmd_train", "cli.train")
        w(cli, "cmd_predict", "cli.predict")
        w(cli, "cmd_eval", "cli.eval")
        w(dataset, "read_table", "dataset.read_table", _count_table_rows)
        w(dataset, "split_holdout", "dataset.split_holdout")
        w(dataset, "write_csv", "dataset.write_csv")
        w(booster, "train", "booster.train", _count_train, before=self._watch_configs)
        w(booster, "presort_features", "tree.presort_features")
        w(booster, "build_tree", "tree.build_tree", self._count_build_tree)
        w(booster.BoostedModel, "predict_many", "booster.predict_many", _count_rows)
        w(booster.BoostedModel, "predict", "booster.predict")
        # one method: the training-path apply under booster.train, the
        # ensemble's scoring step everywhere else
        w(tree.RegressionTree, "predict_many",
          lambda parent: "tree.apply" if parent == "booster.train" else "tree.predict_many",
          _count_rows)
        w(tree.RegressionTree, "predict", "tree.predict", _count_calls)
        w(model_io, "save", "model_io.save", _count_saved_bytes)
        w(model_io, "load", "model_io.load")
        w(evaluate, "nll_score", "evaluate.nll_score")
        # the loss classes look these up as globals of the losses module
        for fn in ("log_gamma", "digamma", "polygamma"):
            w(losses, fn, f"losses.{fn}")
        for cls in losses.Loss.__subclasses__():
            for method in ("value", "grad", "hess"):
                if method in cls.__dict__:
                    w(cls, method, f"losses.{method}", _count_rows)
            if "mle_init" in cls.__dict__:
                w(cls, "mle_init", "losses.mle_init")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        for owner, attr, original in self._patches:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                raise RuntimeError(f"wrapper left on {owner.__name__}.{attr}")
        self._patches.clear()

    # -- counters that need the run's state ----------------------------------

    def _watch_configs(self, args):
        configs = args[2]
        for cfg in configs:
            self._clip_by_tree_params[id(cfg.tree)] = cfg.clip_m

    def _count_build_tree(self, counts, span_name, args, result):
        X, g, h_eff, params = args[:4]
        n, m = np.shape(X)
        counts["tree.build_tree.calls"] += 1
        counts["tree.build_tree.rows"] += n
        counts["tree.build_tree.row_features"] += n * m
        counts["tree.build_tree.leaves"] += result.n_leaves
        counts["tree.build_tree.leaf_slots"] += 2 ** params.max_depth
        clip_m = self._clip_by_tree_params[id(params)]
        counts["booster.grad_clipped_rows"] += int(np.count_nonzero(np.abs(g) == clip_m))
        counts["booster.hess_zeroed_rows"] += int(np.count_nonzero(h_eff == 0.0))

    # -- output --------------------------------------------------------------

    def spans(self):
        return [{"id": i, "name": n, "parent": p, "start": s, "end": e}
                for i, (n, p, s, e) in enumerate(zip(self.names, self.parents,
                                                     self.starts, self.ends))]

    def self_times(self):
        """Per-span-name sum of (duration - duration of direct children)."""
        child_time = [0.0] * len(self.names)
        for sid, parent in enumerate(self.parents):
            if parent != NO_PARENT:
                child_time[parent] += self.ends[sid] - self.starts[sid]
        totals = Counter()
        for sid, name in enumerate(self.names):
            totals[name] += self.ends[sid] - self.starts[sid] - child_time[sid]
        return totals


def check_nesting(spans):
    """Raise ValueError unless every span lies inside its parent, in order."""
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["end"] is None or s["end"] < s["start"]:
            raise ValueError(f"span {s['id']} ({s['name']}) has no valid end")
        if s["parent"] == NO_PARENT:
            continue
        p = by_id.get(s["parent"])
        if p is None or p["id"] >= s["id"]:
            raise ValueError(f"span {s['id']} ({s['name']}) has a bad parent id")
        if not (p["start"] <= s["start"] and s["end"] <= p["end"]):
            raise ValueError(f"span {s['id']} ({s['name']}) escapes parent {p['id']}")


def _count_calls(counts, span_name, args, result):
    counts[f"{span_name}.calls"] += 1


def _count_rows(counts, span_name, args, result):
    """Rows of a per-row result (a scalar result is one row)."""
    counts[f"{span_name}.rows"] += len(np.atleast_1d(result))


def _count_table_rows(counts, span_name, args, result):
    counts[f"{span_name}.rows"] += int(result[1].shape[0])


def _count_train(counts, span_name, args, result):
    counts["booster.train.trees"] += sum(len(p.trees) for p in result.model.params)
    counts["booster.clamped_rows"] += sum(sum(r.clamped_rows) for r in result.trace)


def _count_saved_bytes(counts, span_name, args, result):
    counts["model_io.save.bytes"] += os.path.getsize(args[1])
