"""Self-test of the benchmark on tiny inputs; finishes in seconds.

    python3 perfbench/selftest.py

For every workload it runs run.py in tiny mode with tracing off and on, each
in its own process, and checks that

* the last stdout line is the result object, with no failed operation,
* every metric is reported with the unit and direction that run.py and
  BENCHMARK.json both declare,
* the traced spans nest properly, and
* a second traced run with the same seed repeats every count exactly.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import run  # noqa: E402  (imports distboost from the checkout)
from tracer import check_nesting  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def check(cond, message):
    if not cond:
        raise AssertionError(message)


def bench_run(workload, trace, seed=1):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    check(proc.returncode == 0, f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(result)}")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload} trace={trace}: {proc.stdout}")
    tag = f"{workload}-tiny-seed{seed}-trace{trace}"
    with open(os.path.join(run.OUT_DIR, tag + ".json"), encoding="utf-8") as fh:
        record = json.load(fh)
    return result, record


def check_metrics(workload, result, record, table, declared):
    names = set(result["metrics"])
    check(names == set(table), f"{workload}: metrics {sorted(names ^ set(table))} differ")
    check(names == set(declared), f"{workload}: BENCHMARK.json lists other metrics: "
          f"{sorted(names ^ set(declared))}")
    for name, (unit, better) in table.items():
        value = result["metrics"][name]["value"]
        check(isinstance(value, (int, float)), f"{workload} {name}: value {value!r}")
        check(result["metrics"][name]["unit"] == unit == declared[name]["unit"],
              f"{workload} {name}: unit mismatch")
        check(record["metrics"][name]["better"] == better == declared[name]["better"],
              f"{workload} {name}: direction mismatch")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    check({w["name"] for w in bench["workloads"]} == set(WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.py")
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    per_layer = {m["name"]: m for m in bench["per_layer"]}

    for workload in sorted(WORKLOADS):
        result, record = bench_run(workload, 0)
        check_metrics(workload, result, record, run.END_TO_END, end_to_end)
        for name in ("setup_s", "train_s", "chain_s", "quote_ms_p50", "peak_rss_mb"):
            check(result["metrics"][name]["value"] > 0, f"{workload} {name} is not > 0")

        result, record = bench_run(workload, 1)
        check_metrics(workload, result, record, run.PER_LAYER, per_layer)
        spans = record["raw"]["spans"]
        check(spans, f"{workload}: no spans recorded")
        check_nesting(spans)
        seen = {s["name"] for s in spans}
        for name in ("cli.train", "booster.train", "tree.build_tree", "tree.apply",
                     "booster.predict_many", "tree.predict_many", "tree.predict",
                     "dataset.read_table", "dataset.write_csv", "model_io.save",
                     "model_io.load", "evaluate.nll_score", "losses.value"):
            check(name in seen, f"{workload}: no {name} span")

        _, again = bench_run(workload, 1)
        check(again["raw"]["counts"] == record["raw"]["counts"],
              f"{workload}: counts differ between identical traced runs")
        print(f"{workload}: ok ({len(spans)} spans)")
    print("selftest ok")


if __name__ == "__main__":
    main()
