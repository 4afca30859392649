"""distboost benchmark: the CLI train -> predict -> eval chain plus single-row quotes.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload nb_joint --seed 1 --seconds 20 --trace 0

Each run generates its inputs from --seed, then repeats iterations of

    cli.main(["train", ...])     on the training CSV
    cli.main(["predict", ...])   on the scoring CSV
    cli.main(["eval", ...])      on the same scoring CSV
    a closed loop of single-row BoostedModel.predict(x) quotes, one caller,
    on a model loaded with distboost.load

until --seconds have passed, all in this one single-threaded process.  With
--trace 0 it reports the end-to-end metrics (upper quartiles over
iterations); with --trace 1 it runs one untraced and one traced chain plus a
fixed number of traced quotes and reports per-layer self times and work
counts.  Every CLI
call and every quote is one operation; failed operations are counted against
attempted ones.  The last line of stdout is one JSON object; a fuller record
(machine, inputs, samples, spans) goes to .perfbench_out/ in the checkout.
"""

import os

# Pin native thread pools before numpy loads, so every run is single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# (unit, better) of every reported metric; BENCHMARK.json lists the same.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_s": ("s", "lower"),
    "predict_rows_per_s": ("rows/s", "higher"),
    "eval_rows_per_s": ("rows/s", "higher"),
    "chain_s": ("s", "lower"),
    "quote_ms_p50": ("ms", "lower"),
    "quote_ms_p99": ("ms", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "score_mean_nll": ("nats/row", "lower"),
}

_SELF_S = [
    "losses.value", "losses.grad", "losses.hess", "losses.log_gamma",
    "losses.polygamma", "losses.digamma", "losses.mle_init",
    "tree.build_tree", "tree.presort_features", "tree.apply",
    "booster.train", "booster.predict_many", "tree.predict_many",
    "booster.predict", "tree.predict",
    "dataset.read_table", "dataset.split_holdout", "dataset.write_csv",
    "cli.train", "cli.predict", "cli.eval",
    "model_io.save", "model_io.load", "evaluate.nll_score",
]
_COUNTS = [
    "losses.value.rows", "losses.grad.rows", "losses.hess.rows",
    "tree.build_tree.calls", "tree.build_tree.row_features", "tree.build_tree.leaves",
    "tree.apply.rows", "booster.train.trees", "booster.clamped_rows",
    "booster.predict_many.rows", "tree.predict.calls", "dataset.read_table.rows",
    "model_io.save.bytes",
]
PER_LAYER = {f"{n}.self_s": ("s", "lower") for n in _SELF_S}
PER_LAYER.update({n: ("count", "lower") for n in _COUNTS})
PER_LAYER.update({
    "tree.build_tree.leaf_fill": ("ratio", "higher"),
    "booster.grad_clipped_share": ("ratio", "lower"),
    "booster.hess_zeroed_share": ("ratio", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
})



def _import_distboost():
    """Import distboost from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "distboost", "__init__.py")):
        sys.exit(f"run.py: {SRC}/distboost not found; run from a distboost checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import distboost

    if not os.path.abspath(distboost.__file__).startswith(SRC + os.sep):
        sys.exit(f"run.py: imported distboost from {distboost.__file__}, not {SRC}")
    return distboost


db = _import_distboost()
import numpy as np  # noqa: E402
import scipy  # noqa: E402

from distboost import cli  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class Run:
    """One benchmark invocation: inputs, operation tally and raw samples."""

    def __init__(self, workload, seed, workdir):
        self.wl = workload
        self.seed = seed
        self.workdir = workdir
        self.paths = None
        self.quote_header = None     # scoring CSV header
        self.quote_table = None      # the scoring rows the quotes cycle through
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.model_bytes = None      # bytes of the first trained model
        self.preds_bytes = None      # bytes of the first checked prediction CSV
        self.preds = None            # (n, l) predictions parsed from that CSV
        self.constant_nll = None     # mean NLL of the no-tree model on score.csv

    # -- operations ----------------------------------------------------------

    def record(self, op, ok, why=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{op}: {why}")

    def setup(self, tracer=None):
        """Generate CSVs and config, then parse the rows the quotes will use."""
        if tracer is None:
            self.paths = self.wl.setup(self.workdir, self.seed)
        else:
            self.paths = tracer.span("bench.setup", self.wl.setup, self.workdir, self.seed)
        with open(self.paths["score"], encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            lines = [fh.readline() for _ in range(min(self.wl.size.quotes,
                                                      self.wl.size.score_rows))]
        self.quote_header = header
        self.quote_table = [[float(c) for c in line.split(",")] for line in lines]

    def call_cli(self, argv, tracer=None, span=None):
        """Run one CLI command with its stdout discarded; return (code, seconds)."""
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.span(span, cli.main, argv)
            dt = time.perf_counter() - t0
        return code, dt

    def chain(self, tracer=None):
        """train -> predict -> eval; return per-step seconds and the eval mean NLL."""
        p = self.paths
        code, t_train = self.call_cli(
            ["train", "--data", p["train"], "--config", p["config"],
             "--out", p["model"], "--trace", p["trace"]], tracer, "bench.train")
        self.record("train", code == 0 and self._check_model(), f"exit {code} or model bytes")
        code, t_pred = self.call_cli(
            ["predict", "--model", p["model"], "--data", p["score"], "--out", p["preds"]],
            tracer, "bench.predict")
        self.record("predict", code == 0 and self._check_preds(), f"exit {code} or bad rows")
        code, t_eval = self.call_cli(
            ["eval", "--model", p["model"], "--data", p["score"], "--out", p["report"],
             *self.wl.eval_flags()], tracer, "bench.eval")
        mean_nll = self._check_eval(code)
        return {"train_s": t_train, "predict_s": t_pred, "eval_s": t_eval,
                "chain_s": t_train + t_pred + t_eval, "mean_nll": mean_nll}

    def quotes(self, n, tracer=None):
        """Closed loop of n single-row quotes; return per-quote seconds."""
        try:
            model = db.load(self.paths["model"])
        except (OSError, db.DistboostError) as exc:
            for _ in range(n):
                self.record("quote", False, f"cannot load the model: {exc}")
            return []
        cols = [self.quote_header.index(c) for c in model.feature_names]
        rows = [np.array([r[c] for c in cols]) for r in self.quote_table]
        quote = (model.predict if tracer is None
                 else functools.partial(tracer.span, "bench.quote", model.predict))
        out = [None] * n
        lat = [0.0] * n
        clock = time.perf_counter
        for i in range(n):
            x = rows[i % len(rows)]
            t0 = clock()
            out[i] = quote(x)
            lat[i] = clock() - t0
        for i, q in enumerate(out):
            expect = None if self.preds is None else self.preds[i % len(rows)]
            same = (expect is not None
                    and np.array(q, dtype=np.float64).tobytes() == expect.tobytes())
            self.record("quote", same, f"row {i % len(rows)}: {q} != predict CSV row")
        return lat

    # -- checks ----------------------------------------------------------------

    def _check_model(self):
        with open(self.paths["model"], "rb") as fh:
            data = fh.read()
        if self.model_bytes is None:
            self.model_bytes = data
            self._constant_model_nll()
        return data == self.model_bytes

    def _constant_model_nll(self):
        model = db.load(self.paths["model"])
        constant = db.BoostedModel(model.loss_name, model.nuisance, model.feature_names,
                                   [db.ParamEnsemble(p.name, p.base_value, p.domain, [])
                                    for p in model.params])
        cols = self.wl.columns
        ds = db.load_csv(self.paths["score"], "y", cols.get("exposure_col"),
                         cols.get("adjustment_col"))
        loss = db.make_loss(model.loss_name, model.nuisance)
        self.constant_nll = db.nll_score(constant, loss, ds).mean_nll

    def _check_preds(self):
        with open(self.paths["preds"], "rb") as fh:
            data = fh.read()
        if self.preds_bytes is not None:
            return data == self.preds_bytes
        model = db.load(self.paths["model"])
        lines = data.decode("utf-8").splitlines()
        if lines[0].split(",") != list(model.param_names):
            return False
        preds = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        if preds.shape != (self.wl.size.score_rows, model.n_params):
            return False
        for j, p in enumerate(model.params):
            col = preds[:, j]
            if not (np.all(np.isfinite(col)) and p.domain.contains(col)):
                return False
        self.preds_bytes = data
        self.preds = preds
        return True

    def _check_eval(self, code):
        if code != 0:
            self.record("eval", False, f"exit {code}")
            return None
        with open(self.paths["report"], encoding="utf-8") as fh:
            report = json.load(fh)
        mean_nll = report["mean_nll"]
        ok = (report["n"] == self.wl.size.score_rows and math.isfinite(mean_nll)
              and self.constant_nll is not None and mean_nll < self.constant_nll)
        self.record("eval", ok, f"mean_nll {mean_nll} vs constant {self.constant_nll}")
        return mean_nll


def upper_quartile(values):
    return float(np.percentile(values, 75))


def measure(run, seconds):
    """End-to-end metrics over repeated iterations, tracing off.

    Every iteration sets up afresh (same seed, same bytes), so set-up time is
    sampled across the whole run like the chain, not in one burst.  Quote
    percentiles are taken within each iteration's 1000 or more quotes, so at
    least 10 lie beyond the p99.  Set-up time and the quote p99 are medians
    over iterations; every other time is the upper quartile of its
    per-iteration values.  On a shared machine whose CPU alternates between a
    fast and a slow state for seconds at a time, the upper quartile reports
    the slow state unless it covers under a quarter of the run, where the
    median jumped between the two states from one run to the next.  The p99
    is already a tail, and stalls of the machine lasting milliseconds raise it
    tenfold in a minority of iterations, which the median leaves out.
    """
    setup_s, chains, q50, q99 = [], [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        run.setup()
        setup_s.append(time.perf_counter() - t0)
        chains.append(run.chain())
        # a model that fails to load yields no latencies, only failed quotes
        lat_ms = np.array(run.quotes(run.wl.size.quotes) or [0.0]) * 1e3
        q50.append(float(np.percentile(lat_ms, 50)))
        q99.append(float(np.percentile(lat_ms, 99)))
    measured_s = time.perf_counter() - start

    score_rows = run.wl.size.score_rows
    upper = {k: upper_quartile([c[k] for c in chains])
             for k in ("train_s", "predict_s", "eval_s", "chain_s")}
    # a failed eval has no NLL; it is already counted as a failed operation
    nlls = [c["mean_nll"] for c in chains if c["mean_nll"] is not None]
    if len(set(nlls)) > 1:
        run.record("eval", False, f"mean_nll differs between iterations: {nlls}")
    values = {
        "setup_s": statistics.median(setup_s),
        "train_s": upper["train_s"],
        "predict_rows_per_s": score_rows / upper["predict_s"],
        "eval_rows_per_s": score_rows / upper["eval_s"],
        "chain_s": upper["chain_s"],
        "quote_ms_p50": upper_quartile(q50),
        "quote_ms_p99": statistics.median(q99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "score_mean_nll": statistics.median(nlls) if nlls else 0.0,
    }
    raw = {"setup_s": setup_s, "chains": chains, "quote_ms_p50": q50, "quote_ms_p99": q99,
           "quotes_per_iteration": run.wl.size.quotes, "measured_s": measured_s}
    return values, {k: 1 if k == "peak_rss_mb" else len(chains) for k in values}, raw


def measure_traced(run):
    """Per-layer metrics from one traced chain and a fixed number of traced quotes."""
    run.setup()
    untraced = run.chain()
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        run.setup(tracer)
        traced = run.chain(tracer)
        run.quotes(run.wl.size.trace_quotes, tracer)
        traced_wall_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    self_s = tracer.self_times()
    counts = tracer.counts
    values = {f"{n}.self_s": self_s.get(n, 0.0) for n in _SELF_S}
    values.update({n: counts.get(n, 0) for n in _COUNTS})
    tree_rows = counts.get("tree.build_tree.rows", 0)
    values["tree.build_tree.leaf_fill"] = (
        counts["tree.build_tree.leaves"] / counts["tree.build_tree.leaf_slots"]
        if counts.get("tree.build_tree.leaf_slots") else 0.0)
    values["booster.grad_clipped_share"] = (
        counts.get("booster.grad_clipped_rows", 0) / tree_rows if tree_rows else 0.0)
    values["booster.hess_zeroed_share"] = (
        counts.get("booster.hess_zeroed_rows", 0) / tree_rows if tree_rows else 0.0)
    layer_s = sum(t for name, t in self_s.items() if not name.startswith("bench."))
    values["trace.unattributed_s"] = traced_wall_s - layer_s
    values["trace.overhead_share"] = traced["chain_s"] / untraced["chain_s"]
    raw = {"untraced_chain": untraced, "traced_chain": traced, "traced_wall_s": traced_wall_s,
           "bench_self_s": {k: v for k, v in self_s.items() if k.startswith("bench.")},
           "counts": dict(counts), "spans": tracer.spans()}
    return values, {k: 1 for k in values}, raw


def machine():
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(), "machine": platform.machine()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: seconds-long inputs for the self-test")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.size)
    tag = f"{wl.name}-{args.size}-seed{args.seed}-trace{args.trace}"
    run = Run(wl, args.seed, os.path.join(OUT_DIR, tag))
    try:
        if args.trace:
            values, samples, raw = measure_traced(run)
            table = PER_LAYER
        else:
            values, samples, raw = measure(run, args.seconds)
            table = END_TO_END
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)

    size = wl.size
    record = {
        "workload": wl.name, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "machine": machine(),
        "inputs": {"train_rows": size.train_rows, "score_rows": size.score_rows,
                   "features": wl.n_features, "rounds": size.rounds,
                   "quotes_per_iteration": size.quotes, "trace_quotes": size.trace_quotes},
        "attempted": run.attempted, "failed": run.failed, "failures": run.failures,
        "metrics": {k: {"value": values[k], "unit": table[k][0], "better": table[k][1],
                        "samples": samples[k]} for k in table},
        "raw": raw,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    for k in table:
        print(f"{wl.name} {k} = {values[k]!r} {table[k][0]} (n={samples[k]})")
    for f in run.failures:
        print(f"FAILED {f}")
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": values[k], "unit": table[k][0]} for k in table}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
