import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import distboost as db
from distboost.cli import main, parse_run_config


def _gamma_csv(tmp_path, n=400, seed=1):
    ds = db.generate_synthetic("gamma", n, seed,
                               lambda X: {"mu": np.where(X[:, 0] < 0.5, 2.0, 6.0),
                                          "alpha": 5.0})
    path = str(tmp_path / "data.csv")
    db.write_csv(ds, path)
    return path


def _gamma_config(tmp_path, **overrides):
    doc = {
        "loss": {"name": "gamma", "nuisance": {"alpha": 5.0}},
        "response_col": "y",
        "total_rounds": 25,
        "params": [{"eta": 0.1, "max_depth": 3, "lambda_reg": 1.0,
                    "min_leaf_samples": 5}],
    }
    doc.update(overrides)
    path = str(tmp_path / "config.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def test_train_eval_predict_pipeline(tmp_path, capsys):
    data = _gamma_csv(tmp_path)
    config = _gamma_config(tmp_path)
    model = str(tmp_path / "model.json")
    trace = str(tmp_path / "trace.csv")

    assert main(["train", "--data", data, "--config", config,
                 "--out", model, "--trace", trace]) == 0
    out = capsys.readouterr().out
    assert "final_train_nll=" in out

    trace_lines = pathlib.Path(trace).read_text().splitlines()
    assert trace_lines[0] == ("round,active_mu,train_nll,"
                              "max_abs_grad_mu,clamped_rows_mu,"
                              "grad_clipped_mu,hess_zeroed_mu")
    assert len(trace_lines) - 1 == 25

    assert main(["eval", "--model", model, "--data", data]) == 0
    out = capsys.readouterr().out
    assert "total_nll=" in out and "mean_nll=" in out

    preds = str(tmp_path / "preds.csv")
    assert main(["predict", "--model", model, "--data", data,
                 "--out", preds]) == 0
    lines = pathlib.Path(preds).read_text().splitlines()
    assert lines[0] == "mu"
    assert len(lines) - 1 == 400
    assert all(float(v) > 0 for v in lines[1:10])


def test_train_with_holdout_prints_holdout_nll(tmp_path, capsys):
    data = _gamma_csv(tmp_path)
    config = _gamma_config(tmp_path, holdout_fraction=0.25, seed=3)
    model = str(tmp_path / "model.json")
    assert main(["train", "--data", data, "--config", config,
                 "--out", model]) == 0
    out = capsys.readouterr().out
    assert "holdout_nll=" in out


def test_holdout_of_a_one_row_csv_exits_2_naming_the_file(tmp_path, capsys):
    data = _gamma_csv(tmp_path, n=1)
    config = _gamma_config(tmp_path, holdout_fraction=0.25)
    assert main(["train", "--data", data, "--config", config,
                 "--out", str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err == (
        f"error: {data}: holdout_fraction 0.25 needs at least 2 rows to split, got 1\n")
    assert not (tmp_path / "m.json").exists()


def test_final_train_nll_is_the_eval_total_nll_when_rows_clamp(tmp_path, capsys):
    # both negbin parameters in narrow domains, so rows clamp: the trace
    # scores the path the saved model predicts
    ds = db.generate_synthetic("negbin", 1500, 18,
                               lambda X: {"beta": np.where(X[:, 0] < 0.5, 1.0, 2.0),
                                          "gamma": 2.0},
                               exposure_choices=[0.5, 1.0, 2.0])
    data, model = str(tmp_path / "nb.csv"), str(tmp_path / "m.json")
    db.write_csv(ds, data)
    config = _gamma_config(tmp_path, loss={"name": "negbin"}, total_rounds=60,
                           exposure_col="exposure",
                           params=[{"eta": 0.1, "max_depth": 3, "domain": domain}
                                   for domain in ([0.8, 1.6], [1.5, 3.0])])
    trace = str(tmp_path / "trace.csv")
    assert main(["train", "--data", data, "--config", config, "--out", model,
                 "--trace", trace]) == 0
    final = re.search(r"^final_train_nll=(.*)$", capsys.readouterr().out, re.M).group(1)
    assert sum(int(r["clamped_rows_beta"]) for r in _read_trace(trace)) > 0
    assert main(["eval", "--model", model, "--data", data, "--exposure-col", "exposure"]) == 0
    assert re.search(r"^total_nll=(.*)$", capsys.readouterr().out, re.M).group(1) == final


@pytest.mark.parametrize("col", ["exposure", "adjustment"])
def test_columns_the_loss_does_not_read_exit_2(tmp_path, capsys, col):
    ds = db.generate_synthetic("zip", 200, 5, lambda X: {"mu": 1.0, "alpha": 0.5},
                               **{f"{col}_choices": [0.1, 5.0]})
    data, plain, model = (str(tmp_path / name) for name in ("data.csv", "plain.csv", "m.json"))
    db.write_csv(ds, data)
    db.write_csv(db.Dataset(ds.features, ds.response), plain)
    loss = {"name": "zip", "nuisance": {"alpha": 0.5}}
    config = _gamma_config(tmp_path, loss=loss, total_rounds=2, **{f"{col}_col": col})
    code, err = _run(["train", "--data", data, "--config", config, "--out", model], capsys)
    assert code == 2 and f"loss 'zip' does not read {col}" in err
    assert main(["train", "--data", plain, "--config", _gamma_config(tmp_path, loss=loss),
                 "--out", model]) == 0
    code, err = _run(["eval", "--model", model, "--data", data, f"--{col}-col", col], capsys)
    assert code == 2 and f"loss 'zip' does not read {col}" in err


def test_config_validation_failures_exit_2(tmp_path, capsys):
    data = _gamma_csv(tmp_path)
    model = str(tmp_path / "model.json")

    bad = _gamma_config(tmp_path, params=[{"a": 0.0, "lambda_reg": 0.0}])
    assert main(["train", "--data", data, "--config", bad, "--out", model]) == 2

    unknown = _gamma_config(tmp_path, mystery_key=1)
    assert main(["train", "--data", data, "--config", unknown,
                 "--out", model]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_empty_param_blocks_take_the_dataclass_defaults():
    for loss, nuisance, n in (("gamma", {"alpha": 5.0}, 1), ("negbin", {}, 2)):
        config = parse_run_config({"loss": {"name": loss, "nuisance": nuisance},
                                   "total_rounds": 1, "params": [{}] * n})
        assert config.param_configs == [db.ParamTrainConfig()] * n
    # null is the default only where the default is null
    config = parse_run_config({"loss": {"name": "gamma", "nuisance": {"alpha": 5.0}},
                               "total_rounds": 1,
                               "params": [{"rounds": None, "domain": None,
                                           "base_value": None}]})
    assert config.param_configs == [db.ParamTrainConfig()]
    with pytest.raises(db.ValidationError, match=r"config.params\[0\]: eta: expected a "
                                                 "finite number, got None"):
        parse_run_config({"loss": {"name": "gamma", "nuisance": {"alpha": 5.0}},
                          "total_rounds": 1, "params": [{"eta": None}]})


@pytest.mark.parametrize("block, named", [
    ({"domain": [-5, 50]}, "parameter 'mu': domain [-5.0, 50.0] must stay above 0"),
    ({"lambda_reg": 0, "base_value": 50}, "parameter 'mu': lambda_reg = 0 needs a > 0"),
], ids=["domain-below-zero", "lambda-zero-concave-start"])
def test_configs_that_would_fail_in_training_exit_2_up_front(tmp_path, capsys, block, named):
    data = _gamma_csv(tmp_path)
    config = _gamma_config(tmp_path, params=[block])
    code, err = _run(["train", "--data", data, "--config", config,
                      "--out", str(tmp_path / "m.json")], capsys)
    assert code == 2 and named in err
    assert not (tmp_path / "m.json").exists()


def test_missing_response_column_exit_2(tmp_path, capsys):
    data = _gamma_csv(tmp_path)
    config = _gamma_config(tmp_path, response_col="claims")
    model = str(tmp_path / "model.json")
    assert main(["train", "--data", data, "--config", config,
                 "--out", model]) == 2
    assert "claims" in capsys.readouterr().err


def test_missing_data_file_exit_2(tmp_path, capsys):
    config = _gamma_config(tmp_path)
    assert main(["train", "--data", str(tmp_path / "nope.csv"),
                 "--config", config, "--out", str(tmp_path / "m.json")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_predict_wrong_features_exit_2(tmp_path, capsys):
    data = _gamma_csv(tmp_path)
    config = _gamma_config(tmp_path)
    model = str(tmp_path / "model.json")
    assert main(["train", "--data", data, "--config", config,
                 "--out", model]) == 0
    capsys.readouterr()
    other = str(tmp_path / "other.csv")
    with open(other, "w") as fh:
        fh.write("z1,z2\n0.1,0.2\n")
    assert main(["predict", "--model", model, "--data", other,
                 "--out", str(tmp_path / "p.csv")]) == 2
    err = capsys.readouterr().err
    assert "x1" in err and "x2" in err


def test_eval_and_predict_bind_features_by_name(tmp_path, capsys):
    data = _gamma_csv(tmp_path)
    config = _gamma_config(tmp_path)
    model = str(tmp_path / "model.json")
    assert main(["train", "--data", data, "--config", config, "--out", model]) == 0
    header, table = db.read_table(data)
    assert header == ["x1", "x2", "y"]
    shuffled = str(tmp_path / "shuffled.csv")
    db.write_table(shuffled, ["x2", "policy_id", "y", "x1"],
                   np.column_stack([table[:, 1], np.arange(len(table)) + 1.0,
                                    table[:, 2], table[:, 0]]))

    totals, preds = [], []
    for path in (data, shuffled):
        capsys.readouterr()
        assert main(["eval", "--model", model, "--data", path]) == 0
        totals.append(next(line for line in capsys.readouterr().out.splitlines()
                           if line.startswith("total_nll=")))
        out = str(tmp_path / f"preds{len(preds)}.csv")
        assert main(["predict", "--model", model, "--data", path, "--out", out]) == 0
        preds.append(pathlib.Path(out).read_bytes())
    assert totals[0] == totals[1]
    assert preds[0] == preds[1]


def test_eval_rejects_feature_bound_as_response(tmp_path, capsys):
    data = _gamma_csv(tmp_path)
    model = str(tmp_path / "model.json")
    assert main(["train", "--data", data, "--config", _gamma_config(tmp_path),
                 "--out", model]) == 0
    capsys.readouterr()
    assert main(["eval", "--model", model, "--data", data, "--response-col", "x1"]) == 2
    assert "'x1' is bound twice" in capsys.readouterr().err


def test_gen_writes_expected_csv(tmp_path, capsys):
    params = str(tmp_path / "params.json")
    with open(params, "w") as fh:
        json.dump({
            "cuts": [[0.5], [0.5]],
            "cells": [[{"beta": 1.0, "gamma": 1.0}, {"beta": 1.0, "gamma": 3.0}],
                      [{"beta": 2.0, "gamma": 1.0}, {"beta": 2.0, "gamma": 3.0}]],
            "exposure_choices": [0.5, 1.0, 2.0],
        }, fh)
    out = str(tmp_path / "synth.csv")
    assert main(["gen", "--dist", "negbin", "--n", "200", "--seed", "7",
                 "--params", params, "--out", out]) == 0
    ds = db.load_csv(out, "y", exposure_col="exposure")
    assert ds.n_rows == 200
    assert set(np.unique(ds.exposure)) <= {0.5, 1.0, 2.0}

    # same flags, same bytes
    out2 = str(tmp_path / "synth2.csv")
    assert main(["gen", "--dist", "negbin", "--n", "200", "--seed", "7",
                 "--params", params, "--out", out2]) == 0
    assert pathlib.Path(out).read_text() == pathlib.Path(out2).read_text()


_GEN_CELLS = [[{"mu": 1.0, "alpha": 2.0}, {"mu": 2.0, "alpha": 2.0}],
              [{"mu": 3.0, "alpha": 2.0}, {"mu": 4.0, "alpha": 2.0}]]


@pytest.mark.parametrize("spec, field", [
    ({"cuts": [[0.5], "x"], "cells": _GEN_CELLS}, "cuts[1]"),
    ({"cuts": [[0.5], [0.5]],
      "cells": [_GEN_CELLS[0], [{"mu": 3.0, "alpha": 2.0}, {"mu": "a", "alpha": 2.0}]]},
     "cells[1][1].mu"),
    ({"cuts": [[], []], "cells": [5]}, "cells[0]"),
])
def test_malformed_gen_params_exit_2(tmp_path, capsys, spec, field):
    params = tmp_path / "params.json"
    params.write_text(json.dumps(spec))
    code, err = _run(["gen", "--dist", "gamma", "--n", "10", "--seed", "1",
                      "--params", str(params), "--out", str(tmp_path / "g.csv")], capsys)
    assert code == 2 and field in err


@pytest.mark.parametrize("dist, cell, named", [
    ("zip", {"mu": 1e20, "alpha": 0.5}, "mu up to 1e+20"),
    ("negbin", {"beta": 1e300, "gamma": 1e300}, "beta up to 1e+300, gamma up to 1e+300"),
    # the scale mu / alpha overflows, and numpy's gamma sampler returns inf
    ("gamma", {"mu": 1e300, "alpha": 1e-300}, "mu up to 1e+300, alpha up to 1e-300"),
])
def test_gen_parameters_beyond_the_sampler_exit_2(tmp_path, capsys, dist, cell, named):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"cuts": [[], []], "cells": [[cell]]}))
    code, err = _run(["gen", "--dist", dist, "--n", "10", "--seed", "1",
                      "--params", str(params), "--out", str(tmp_path / "g.csv")], capsys)
    assert code == 2 and f"cannot sample {dist} responses with {named}" in err


def test_gen_rows_beyond_memory_exit_2(tmp_path, capsys):
    # numpy refuses the 1.6 TB feature matrix before allocating any of it
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"cuts": [[], []], "cells": [[{"mu": 1.0, "alpha": 2.0}]]}))
    code, err = _run(["gen", "--dist", "gamma", "--n", "100000000000", "--seed", "1",
                      "--params", str(params), "--out", str(tmp_path / "g.csv")], capsys)
    assert code == 2 and "--n 100000000000" in err


def test_gen_negative_seed_exit_2(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"cuts": [[], []], "cells": [[{"mu": 1.0, "alpha": 2.0}]]}))
    code, err = _run(["gen", "--dist", "gamma", "--n", "10", "--seed", "-1",
                      "--params", str(params), "--out", str(tmp_path / "g.csv")], capsys)
    assert code == 2 and "seed must be >= 0, got -1" in err


def test_check_loss_grid_beyond_memory_exit_2(capsys):
    # numpy refuses the 745 GiB grid before allocating any of it
    code, err = _run(["check-loss", "--loss", "gamma", "--nuisance", '{"alpha": 5}',
                      "--y-samples", "1,2", "--grid", "100000000000"], capsys)
    assert code == 2 and "--grid 100000000000" in err


@pytest.mark.parametrize("flag", ["gen --n", "gen --seed", "check-loss --grid"])
def test_counts_beyond_2_to_the_53_exit_2(tmp_path, capsys, flag):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"cuts": [[], []], "cells": [[{"mu": 1.0, "alpha": 2.0}]]}))
    command, option = flag.split()
    argv = {"gen": ["gen", "--dist", "gamma", "--n", "10", "--seed", "1",
                    "--params", str(params), "--out", str(tmp_path / "g.csv")],
            "check-loss": ["check-loss", "--loss", "gamma", "--nuisance", '{"alpha": 5}',
                           "--y-samples", "1,2"]}[command]
    argv += [option, "10000000000000000000"]  # argparse keeps the last value
    code, err = _run(argv, capsys)
    assert code == 2 and "expected an integer of magnitude at most 2^53" in err


def test_check_loss_pass_and_fail(capsys):
    assert main(["check-loss", "--loss", "gamma", "--nuisance",
                 '{"alpha": 5}', "--y-samples", "0.1,4,100"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "single-minimum" in out

    assert main(["check-loss", "--loss", "squared_error",
                 "--y-samples", "1,2"]) == 0
    capsys.readouterr()

    assert main(["check-loss", "--loss", "double_well",
                 "--y-samples", "1"]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out and "minima near" in out


@pytest.mark.parametrize("loss, code", [("double_well", 3), ("tweedie", 2)])
def test_python_m_passes_the_exit_code_on(loss, code):
    # `sys.exit(main())` runs only when the module is the program
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-m", "distboost.cli", "check-loss", "--loss", loss,
                          "--y-samples", "1"], env=env, capture_output=True, text=True)
    assert run.returncode == code
    assert (loss in run.stderr) == (code == 2) and "Traceback" not in run.stderr


def test_check_loss_bad_flags(capsys):
    assert main(["check-loss", "--loss", "gamma", "--nuisance", "{",
                 "--y-samples", "1"]) == 2
    capsys.readouterr()
    assert main(["check-loss", "--loss", "gamma", "--nuisance",
                 '{"alpha": 5}', "--y-samples", "1,zap"]) == 2
    capsys.readouterr()
    assert main(["check-loss", "--loss", "gamma", "--nuisance",
                 '{"alpha": 5}', "--y-samples", ","]) == 2
    assert capsys.readouterr().err == "error: y_samples must be nonempty\n"


def test_unknown_flag_errors():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", "x", "--config", "y", "--out", "z",
              "--bogus", "1"])
    assert exc.value.code == 2


def test_eval_bad_model_file_exit_2(tmp_path, capsys):
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        fh.write('{"format_version": 42}')
    data = _gamma_csv(tmp_path)
    assert main(["eval", "--model", bad, "--data", data]) == 2
    assert "format_version" in capsys.readouterr().err


def test_eval_writes_json_report(tmp_path, capsys):
    data = _gamma_csv(tmp_path)
    config = _gamma_config(tmp_path)
    model = str(tmp_path / "model.json")
    report = str(tmp_path / "report.json")
    assert main(["train", "--data", data, "--config", config,
                 "--out", model]) == 0
    assert main(["eval", "--model", model, "--data", data,
                 "--out", report]) == 0
    doc = json.loads(pathlib.Path(report).read_text())
    assert set(doc) == {"model_id", "dataset_id", "n", "total_nll", "mean_nll"}
    assert doc["n"] == 400


@pytest.mark.parametrize("case", ["train-loss-overflows", "eval-loss-overflows",
                                  "train-out-in-missing-dir", "predict-data-is-a-dir"])
def test_numeric_and_io_failures_exit_3_and_4_with_one_error_line(tmp_path, capsys, case):
    rng = np.random.default_rng(5)
    X, y = rng.random((40, 1)), rng.random(40)
    data, huge = str(tmp_path / "data.csv"), str(tmp_path / "huge.csv")
    db.write_csv(db.Dataset(X, y), data)
    db.write_csv(db.Dataset(X, np.concatenate([[1e200], y[1:]])), huge)  # squares to inf
    config, model = str(tmp_path / "config.json"), str(tmp_path / "model.json")
    pathlib.Path(config).write_text(json.dumps({"loss": {"name": "squared_error"},
                                                "total_rounds": 3}))
    assert main(["train", "--data", data, "--config", config, "--out", model]) == 0
    capsys.readouterr()
    missing = str(tmp_path / "missing" / "m.json")
    argv, code, message = {
        "train-loss-overflows": (["train", "--data", huge, "--config", config, "--out", model],
                                 3, "training loss is non-finite at the start point"),
        "eval-loss-overflows": (["eval", "--model", model, "--data", huge],
                                3, "non-finite per-sample loss at row 0"),
        "train-out-in-missing-dir": (["train", "--data", data, "--config", config,
                                      "--out", missing],
                                     4, f"[Errno 2] No such file or directory: '{missing}'"),
        "predict-data-is-a-dir": (["predict", "--model", model, "--data", str(tmp_path),
                                   "--out", str(tmp_path / "p.csv")],
                                  4, f"[Errno 21] Is a directory: '{tmp_path}'"),
    }[case]
    assert main(argv) == code
    assert capsys.readouterr().err == f"error: {message}\n"


def test_repo_example_configs_parse(tmp_path):
    import pathlib
    from distboost.cli import parse_run_config
    root = pathlib.Path(__file__).resolve().parent.parent / "configs"
    for name in ("gamma_severity.json", "zip_frequency.json",
                 "negbin_exposure.json"):
        doc = json.loads((root / name).read_text())
        config = parse_run_config(doc)
        assert config.total_rounds > 0


# ---------------------------------------------------------------------------
# malformed documents exit 2 with a message

def _run(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error: ") and "Traceback" not in err
    return code, err


@pytest.mark.parametrize("overrides, field", [
    ({"params": [{"eta": "fast"}]}, "config.params[0]: eta"),
    ({"params": [None]}, "config.params[0]"),
    ({"loss": {"name": "gamma", "nuisance": {"alpha": "x"}}}, "alpha"),
    ({"total_rounds": 3.7}, "config.total_rounds"),
    ({"total_rounds": True}, "config.total_rounds"),
    ({"params": [{"max_depth": "3"}]}, "config.params[0]: max_depth"),
    ({"params": [{"domain": [1.0, "x"]}]}, "config.params[0].domain[1]"),
    ({"seed": -1, "holdout_fraction": 0.2}, "seed"),
    ({"total_rounds": 1e308}, "config.total_rounds"),
    ({"total_rounds": 2 ** 63}, "config.total_rounds"),
    ({"params": [{"domain": [1.0]}]}, "config.params[0].domain"),
])
def test_malformed_config_fields_exit_2(tmp_path, capsys, overrides, field):
    data = _gamma_csv(tmp_path, n=60)
    config = _gamma_config(tmp_path, **overrides)
    code, err = _run(["train", "--data", data, "--config", config,
                      "--out", str(tmp_path / "m.json")], capsys)
    assert code == 2
    assert field in err


@pytest.mark.parametrize("block, message", [
    ({"eta": 0}, "eta must lie in (0, 1], got 0.0"),
    ({"domain": [5, 1]}, "invalid domain [5.0, 1.0]"),
    ({"max_depth": 0}, "max_depth must be >= 1, got 0"),
    ({"name": "sigma"}, "name 'sigma' != parameter 'gamma'"),
], ids=["eta", "domain", "max-depth", "name"])
def test_param_block_errors_name_the_block(tmp_path, capsys, block, message):
    config = _gamma_config(tmp_path, loss={"name": "negbin", "nuisance": {}},
                           params=[{}, block])
    code, err = _run(["train", "--data", _gamma_csv(tmp_path, n=60), "--config", config,
                      "--out", str(tmp_path / "m.json")], capsys)
    assert code == 2 and err == f"error: config.params[1]: {message}\n"


def _corrupt(path, offset):
    """Overwrite the byte at offset with 0xff, which UTF-8 never uses."""
    data = bytearray(pathlib.Path(path).read_bytes())
    data[offset] = 0xFF
    pathlib.Path(path).write_bytes(bytes(data))
    return path


@pytest.mark.parametrize("target", ["train-csv", "predict-csv", "config", "model"])
def test_non_utf8_input_exits_2_naming_file_and_offset(tmp_path, capsys, target):
    data = _gamma_csv(tmp_path, n=60)
    config = _gamma_config(tmp_path, total_rounds=2)
    model = str(tmp_path / "model.json")
    assert main(["train", "--data", data, "--config", config, "--out", model]) == 0
    capsys.readouterr()
    bad = {"train-csv": data, "predict-csv": data, "config": config, "model": model}[target]
    _corrupt(bad, 40)
    if target in ("train-csv", "config"):
        argv = ["train", "--data", data, "--config", config, "--out", str(tmp_path / "m2.json")]
    else:
        argv = ["predict", "--model", model, "--data", data, "--out", str(tmp_path / "p.csv")]
    code, err = _run(argv, capsys)
    assert code == 2 and err == f"error: {bad}: not valid UTF-8: byte 0xff at offset 40\n"


def test_json_documents_may_start_with_a_byte_order_mark(tmp_path, capsys):
    data = _gamma_csv(tmp_path, n=60)
    config = _gamma_config(tmp_path, total_rounds=2)
    with open(config, "rb") as fh:
        text = fh.read()
    with open(config, "wb") as fh:
        fh.write(b"\xef\xbb\xbf" + text)
    model = str(tmp_path / "model.json")
    assert main(["train", "--data", data, "--config", config, "--out", model]) == 0
    # offsets count the byte-order mark: they are offsets into the file
    _corrupt(config, 10)
    code, err = _run(["train", "--data", data, "--config", config, "--out", model], capsys)
    assert code == 2 and err == f"error: {config}: not valid UTF-8: byte 0xff at offset 10\n"


def _trained_gamma_model(tmp_path, capsys, **overrides):
    data = _gamma_csv(tmp_path, n=60)
    config = _gamma_config(tmp_path, total_rounds=3, **overrides)
    model = str(tmp_path / "model.json")
    assert main(["train", "--data", data, "--config", config, "--out", model]) == 0
    capsys.readouterr()
    return data, json.loads(pathlib.Path(model).read_text())


def test_malformed_model_fields_exit_2(tmp_path, capsys):
    data, doc = _trained_gamma_model(tmp_path, capsys)
    doc["params"][0]["trees"]["feature"][0] = "a"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, err = _run(["predict", "--model", str(bad), "--data", data,
                      "--out", str(tmp_path / "p.csv")], capsys)
    assert code == 2 and "feature" in err

    doc["params"] = 5
    bad.write_text(json.dumps(doc))
    code, err = _run(["eval", "--model", str(bad), "--data", data], capsys)
    assert code == 2 and "model.params" in err


def test_model_with_shared_child_exit_2(tmp_path, capsys):
    data, doc = _trained_gamma_model(tmp_path, capsys)
    doc["params"][0]["trees"] = {
        "eta": [0.1], "size": [3], "feature": [0, -1, -1], "threshold": [0.5, 0.0, 0.0],
        "left": [1, -1, -1], "right": [1, -1, -1], "weight": [0.0, 1.0, 2.0]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, err = _run(["predict", "--model", str(bad), "--data", data,
                      "--out", str(tmp_path / "p.csv")], capsys)
    assert code == 2 and "tree 0 node 1 is listed twice" in err


def _child_into_next_tree(trees):
    assert trees["feature"][0] >= 0 and len(trees["size"]) > 1
    trees["left"][0] = trees["size"][0]  # tree-local index of tree 1's root


@pytest.mark.parametrize("defect, named", [
    pytest.param(_child_into_next_tree,
                 "params[0].trees: tree 0 node 0 has a child outside its tree",
                 id="child-in-next-tree"),
    pytest.param(lambda trees: trees["size"].__setitem__(0, trees["size"][0] + 1),
                 "entries, but the sizes sum to", id="sizes-miss-column-length"),
    pytest.param(lambda trees: trees["weight"].append(1.0),
                 "params[0].trees.weight: ", id="columns-differ-in-length"),
    pytest.param(lambda trees: trees["eta"].pop(),
                 "params[0].trees: 2 eta entries for 3 trees", id="eta-count-not-tree-count"),
    pytest.param(lambda trees: trees["left"].__setitem__(trees["feature"].index(-1), 0),
                 "is a leaf with children", id="leaf-with-child"),
    pytest.param(lambda trees: trees["eta"].__setitem__(1, 0.0),
                 "params[0].trees: tree 1 eta must lie in (0, 1], got 0.0", id="eta-zero"),
    pytest.param(lambda trees: trees["eta"].__setitem__(1, -1.0),
                 "params[0].trees: tree 1 eta must lie in (0, 1], got -1.0",
                 id="eta-negative"),
    # weight * eta would overflow; the eta is at fault, not the finite weight
    pytest.param(lambda trees: (trees["eta"].__setitem__(0, 1e300),
                                trees["weight"].__setitem__(trees["feature"].index(-1), 1e300)),
                 "params[0].trees: tree 0 eta must lie in (0, 1], got 1e+300",
                 id="eta-huge-on-huge-weight"),
    # indices beyond any tree reach the structural checks, not an integer overflow
    pytest.param(lambda trees: trees["feature"].__setitem__(0, 2 ** 40),
                 "params[0].trees: tree 0 node 0 splits on unknown feature",
                 id="feature-2-to-the-40"),
    pytest.param(lambda trees: trees["left"].__setitem__(0, 2 ** 40),
                 "params[0].trees: tree 0 node 0 has a child outside its tree",
                 id="left-2-to-the-40"),
    pytest.param(lambda trees: trees["right"].__setitem__(0, -2 ** 40),
                 "params[0].trees: tree 0 node 0 has a child outside its tree",
                 id="right-minus-2-to-the-40"),
])
def test_model_with_column_defects_exit_2(tmp_path, capsys, defect, named):
    data, doc = _trained_gamma_model(tmp_path, capsys)
    defect(doc["params"][0]["trees"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, err = _run(["predict", "--model", str(bad), "--data", data,
                      "--out", str(tmp_path / "p.csv")], capsys)
    assert code == 2 and named in err


def test_model_with_repeated_feature_names_exit_2(tmp_path, capsys):
    data, doc = _trained_gamma_model(tmp_path, capsys)
    assert doc["feature_names"] == ["x1", "x2"]
    doc["feature_names"] = ["x1", "x1"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, err = _run(["predict", "--model", str(bad), "--data", data,
                      "--out", str(tmp_path / "p.csv")], capsys)
    assert code == 2 and "feature_names must be nonempty and distinct" in err


_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=6))
_NON_NUMBERS = st.none() | st.booleans() | st.text(max_size=6)


def _json(leaves):
    return st.recursive(
        leaves, lambda inner: (st.lists(inner, max_size=3)
                               | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
        max_leaves=8)


def _replace(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _assert_clean_exit(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2), err
    assert "Traceback" not in err


# total_rounds and trace_path stay fixed: a huge round count or a stray
# output path would only make the run slow or write outside the test's
# directory.  Numbers are left out of the replacements, since the range
# checks of numeric fields are tested elsewhere.
_CONFIG_PATHS = ([("loss",), ("loss", "name"), ("loss", "nuisance"),
                  ("loss", "nuisance", "alpha"), ("params",), ("params", 0)]
                 + [(k,) for k in ("response_col", "exposure_col", "adjustment_col",
                                   "seed", "holdout_fraction")]
                 + [("params", 0, k) for k in ("name", "eta", "rounds", "clip_m", "a",
                                               "gamma_reg", "lambda_reg", "max_depth",
                                               "min_leaf_samples", "interval", "offset",
                                               "domain", "base_value")])


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_json(_SCALARS) | st.tuples(st.sampled_from(_CONFIG_PATHS), _json(_NON_NUMBERS)))
def test_arbitrary_json_config_never_escapes(tmp_path, capsys, doc):
    data = str(tmp_path / "data.csv")
    if not (tmp_path / "data.csv").exists():
        _gamma_csv(tmp_path, n=40)
    if isinstance(doc, tuple):
        path, value = doc
        doc = _replace({"loss": {"name": "gamma", "nuisance": {"alpha": 5.0}},
                        "total_rounds": 2, "params": [{"eta": 0.1}]}, path, value)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    _assert_clean_exit(["train", "--data", data, "--config", str(config),
                        "--out", str(tmp_path / "m.json")], capsys)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=_json(_SCALARS) | st.tuples(st.integers(0, 10 ** 6), _json(_SCALARS)))
def test_arbitrary_json_model_never_escapes(tmp_path, capsys, mutation):
    data = str(tmp_path / "data.csv")
    if not (tmp_path / "model.json").exists():
        _gamma_csv(tmp_path, n=40)
        config = _gamma_config(tmp_path, total_rounds=2)
        assert main(["train", "--data", data, "--config", config,
                     "--out", str(tmp_path / "model.json")]) == 0
    valid = json.loads((tmp_path / "model.json").read_text())
    if isinstance(mutation, tuple):
        paths = list(_key_paths(valid))
        pick, value = mutation
        doc = _replace(valid, paths[pick % len(paths)], value)
    else:
        doc = mutation
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    _assert_clean_exit(["predict", "--model", str(bad), "--data", data,
                        "--out", str(tmp_path / "p.csv")], capsys)


def _key_paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, prefix + (key,))


# ---------------------------------------------------------------------------
# trace columns

def _read_trace(path):
    lines = pathlib.Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_trace_reports_gradients_and_clamping(tmp_path, capsys):
    data = _gamma_csv(tmp_path)
    config = _gamma_config(tmp_path, params=[{"eta": 0.5, "lambda_reg": 1.0,
                                              "clip_m": 50.0, "domain": [3.5, 5.5]}])
    trace = str(tmp_path / "trace.csv")
    assert main(["train", "--data", data, "--config", config,
                 "--out", str(tmp_path / "m.json"), "--trace", trace]) == 0
    rows = _read_trace(trace)
    assert len(rows) == 25
    grads = [float(r["max_abs_grad_mu"]) for r in rows]
    assert all(0.0 < g <= 50.0 for g in grads)
    clamped = [int(r["clamped_rows_mu"]) for r in rows]
    assert sum(clamped) > 0


def test_trace_cells_empty_for_inactive_parameter(tmp_path, capsys):
    ds = db.generate_synthetic("negbin", 300, 4, lambda X: {"beta": 1.0, "gamma": 2.0})
    data = str(tmp_path / "nb.csv")
    db.write_csv(ds, data)
    config = str(tmp_path / "nb.json")
    with open(config, "w") as fh:
        json.dump({"loss": {"name": "negbin"}, "total_rounds": 4,
                   "params": [{"max_depth": 2}, {"max_depth": 2, "interval": 2}]}, fh)
    trace = str(tmp_path / "trace.csv")
    assert main(["train", "--data", data, "--config", config,
                 "--out", str(tmp_path / "m.json"), "--trace", trace]) == 0
    rows = _read_trace(trace)
    # integer cells stay integers, not 1.0
    assert [r["round"] for r in rows] == ["1", "2", "3", "4"]
    assert [r["active_beta"] for r in rows] == ["1"] * 4
    assert [r["active_gamma"] for r in rows] == ["1", "0", "1", "0"]
    for r in rows:
        assert r["max_abs_grad_beta"] != "" and r["clamped_rows_beta"] != ""
        assert r["clamped_rows_beta"].isdigit()
        inactive = r["active_gamma"] == "0"
        assert (r["max_abs_grad_gamma"] == "") == inactive
        assert (r["clamped_rows_gamma"] == "") == inactive
        assert r["grad_clipped_beta"].isdigit() and r["hess_zeroed_beta"].isdigit()
        # the gamma hessian is a sum of squares, never negative
        cells = {r["grad_clipped_gamma"], r["hess_zeroed_gamma"]}
        assert cells == ({""} if inactive else {"0"})


def test_trace_of_zero_rounds_is_its_header(tmp_path, capsys):
    data = _gamma_csv(tmp_path)
    config = _gamma_config(tmp_path, total_rounds=0)
    trace = tmp_path / "trace.csv"
    assert main(["train", "--data", data, "--config", config,
                 "--out", str(tmp_path / "m.json"), "--trace", str(trace)]) == 0
    assert trace.read_text() == ("round,active_mu,train_nll,max_abs_grad_mu,clamped_rows_mu,"
                                 "grad_clipped_mu,hess_zeroed_mu\n")


def test_trace_counts_clipped_gradients_and_zeroed_hessians(tmp_path, capsys):
    # mu starts at 40, past 2y for every row with y < 20: there the gamma
    # NLL is concave in mu, and its gradient alpha (mu - y) / mu^2 exceeds 0.05
    data = _gamma_csv(tmp_path)
    y = db.load_csv(data, "y").response
    config = _gamma_config(tmp_path, params=[{"eta": 0.1, "lambda_reg": 1.0, "clip_m": 0.05,
                                              "base_value": 40.0}])
    trace = str(tmp_path / "trace.csv")
    assert main(["train", "--data", data, "--config", config,
                 "--out", str(tmp_path / "m.json"), "--trace", trace]) == 0
    rows = _read_trace(trace)
    first = rows[0]
    assert int(first["hess_zeroed_mu"]) == int(np.sum(y < 20.0)) > 0
    g = 5.0 * (40.0 - y) / 40.0**2
    assert int(first["grad_clipped_mu"]) == int(np.sum(np.abs(g) > 0.05)) > 0
    for r in rows:
        assert 0 <= int(r["hess_zeroed_mu"]) <= len(y)
        assert 0 <= int(r["grad_clipped_mu"]) <= len(y)


# ---------------------------------------------------------------------------
# shipped configs

def test_shipped_negbin_gen_params_feed_shipped_config(tmp_path, capsys):
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent / "configs"
    data = str(tmp_path / "nb.csv")
    assert main(["gen", "--dist", "negbin", "--n", "4000", "--seed", "3",
                 "--params", str(root / "negbin_gen_params.json"), "--out", data]) == 0
    doc = json.loads((root / "negbin_exposure.json").read_text())
    doc["total_rounds"] = 2
    config = tmp_path / "negbin_exposure.json"
    config.write_text(json.dumps(doc))
    assert main(["train", "--data", data, "--config", str(config),
                 "--out", str(tmp_path / "m.json")]) == 0
    assert "holdout_nll=" in capsys.readouterr().out


_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_readme_walkthrough_prints_what_the_readme_shows(tmp_path, capsys):
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    spec = readme.split("cat > gen_params.json <<'EOF'\n")[1].split("\nEOF\n")[0]
    shown = re.findall(r"^# ((?:final_train|holdout)_nll=[0-9.]+)\.\.\.$", readme, re.M)
    assert len(shown) == 2
    params = tmp_path / "gen_params.json"
    params.write_text(spec)
    data, model = str(tmp_path / "severity.csv"), str(tmp_path / "model.json")
    assert main(["gen", "--dist", "gamma", "--n", "5000", "--seed", "1",
                 "--params", str(params), "--out", data]) == 0
    capsys.readouterr()
    assert main(["train", "--data", data, "--config", str(_ROOT / "configs/gamma_severity.json"),
                 "--out", model, "--trace", str(tmp_path / "trace.csv")]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and all(map(str.startswith, printed, shown)), (printed, shown)
    assert main(["eval", "--model", model, "--data", data]) == 0
    assert main(["predict", "--model", model, "--data", data,
                 "--out", str(tmp_path / "preds.csv")]) == 0


def test_readme_config_reference_lists_exactly_the_accepted_keys():
    from distboost import cli
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Config reference")[1].split("```jsonc\n")[1].split("\n```")[0]
    doc = json.loads(re.sub(r"//.*", "", block))
    assert doc.keys() == cli._TOP_KEYS
    assert doc["loss"].keys() == cli._LOSS_KEYS
    assert doc["params"][0].keys() == cli._PARAM_KEYS


def test_train_warns_once_when_the_loss_ends_above_its_start(tmp_path, capsys):
    # first-order steps at eta = 1 overshoot the gamma mean by far
    config = _gamma_config(tmp_path, total_rounds=1, params=[
        {"eta": 1.0, "a": 0.0, "lambda_reg": 1.0, "max_depth": 1}])
    code = main(["train", "--data", _gamma_csv(tmp_path, n=60), "--config", config,
                 "--out", str(tmp_path / "m.json")])
    out, err = capsys.readouterr()
    final = float(out.split("final_train_nll=")[1])
    assert code == 0 and len(err.splitlines()) == 1
    assert err.startswith("warning: training loss ended above its starting value (")
    start = float(err.split("(")[1].split(")")[0])
    assert final > start


_ZIP_SPEC = {"cuts": [[0.5], [0.5]],
             "cells": [[{"mu": 0.5, "alpha": 0.5}, {"mu": 1.0, "alpha": 0.5}],
                       [{"mu": 2.0, "alpha": 0.5}, {"mu": 4.0, "alpha": 0.5}]]}


@pytest.mark.parametrize("dist, n, spec, config", [
    ("zip", 2000, _ZIP_SPEC, "zip_frequency.json"),
    ("negbin", 4000, "negbin_gen_params.json", "negbin_exposure.json"),
])
def test_shipped_config_runs_gen_train_predict_eval(tmp_path, capsys, dist, n, spec, config):
    if isinstance(spec, dict):
        params = tmp_path / "gen_params.json"
        params.write_text(json.dumps(spec))
    else:
        params = _ROOT / "configs" / spec
    config = _ROOT / "configs" / config
    data, model = str(tmp_path / "data.csv"), str(tmp_path / "model.json")
    preds = tmp_path / "preds.csv"
    doc = json.loads(config.read_text())
    bound = [arg for key in ("exposure_col", "adjustment_col") if doc.get(key)
             for arg in (f"--{key[:-4]}-col", doc[key])]
    assert main(["gen", "--dist", dist, "--n", str(n), "--seed", "1",
                 "--params", str(params), "--out", data]) == 0
    assert main(["train", "--data", data, "--config", str(config), "--out", model]) == 0
    assert main(["predict", "--model", model, "--data", data, "--out", str(preds)]) == 0
    assert main(["eval", "--model", model, "--data", data, *bound]) == 0
    names = db.load(model).param_names
    assert names == db.make_loss(doc["loss"]["name"], doc["loss"]["nuisance"]).param_names
    assert preds.read_text().splitlines()[0] == ",".join(names)


# ---------------------------------------------------------------------------
# seeded mutation guard: whatever the edit to a model file, run config, CSV
# or gen spec, `main` returns 0 or 2

_ODD_VALUES = (None, True, "x", "", [], {}, [1.0], {"a": 1})
_EXTREMES = (0, 0.0, -1, 0.5, 1e300, -1e300, 2 ** 63)
_BYTES = b'0,.-eE\n\r" x9\xff\x00'


def _mutate_json(doc, rng):
    """One seeded edit of a JSON document: delete a key or item, repeat a
    list item, set a number to zero or an extreme, or swap a value's type."""
    doc = json.loads(json.dumps(doc))
    paths = list(_key_paths(doc))
    path = paths[rng.integers(len(paths))]
    node = doc
    for key in path[:-1]:
        node = node[key]
    key, value, op = path[-1], node[path[-1]], rng.integers(4)
    if op == 0:
        del node[key]
    elif op == 1 and isinstance(value, list) and value:
        value.insert(rng.integers(len(value)), value[rng.integers(len(value))])
    elif op == 2 and isinstance(value, (int, float)) and not isinstance(value, bool):
        node[key] = _EXTREMES[rng.integers(len(_EXTREMES))]
    else:
        node[key] = _ODD_VALUES[rng.integers(len(_ODD_VALUES))]
    return doc


def _mutate_bytes(data, rng):
    """One to three seeded byte edits: replace, delete or insert a byte,
    repeat a line, or cut the file short."""
    data = bytearray(data)
    for _ in range(rng.integers(1, 4)):
        i, op = int(rng.integers(len(data) + 1)), rng.integers(5)
        byte = _BYTES[rng.integers(len(_BYTES))]
        if op == 0 and i < len(data):
            data[i] = byte
        elif op == 1:
            del data[i:i + 1]
        elif op == 2:
            data.insert(i, byte)
        elif op == 3:
            start = data.rfind(b"\n", 0, i) + 1
            end = data.find(b"\n", i)
            end = len(data) if end < 0 else end + 1
            data[start:start] = data[start:end]
        else:
            del data[i:]
    return bytes(data)


@pytest.fixture
def negbin_run(tmp_path, capsys):
    """A 60-row negbin CSV with exposure and adjustment, its two-parameter
    run config at 2 rounds, the trained model, and the gen spec."""
    spec = json.loads((_ROOT / "configs/negbin_gen_params.json").read_text())
    config = json.loads((_ROOT / "configs/negbin_exposure.json").read_text())
    config["total_rounds"] = 2
    for block in config["params"]:
        block["min_leaf_samples"] = 5
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    (tmp_path / "config.json").write_text(json.dumps(config))
    data, model = tmp_path / "data.csv", tmp_path / "model.json"
    assert main(["gen", "--dist", "negbin", "--n", "60", "--seed", "1",
                 "--params", str(tmp_path / "spec.json"), "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--config", str(tmp_path / "config.json"),
                 "--out", str(model)]) == 0
    capsys.readouterr()
    return {"spec": spec, "config": config, "model": json.loads(model.read_text()),
            "data": data.read_bytes(), "dir": tmp_path}


@pytest.mark.parametrize("target, count", [("config", 120), ("model", 120), ("csv", 80),
                                           ("spec", 80)])
def test_seeded_mutations_exit_0_or_2(negbin_run, capsys, target, count):
    run = negbin_run
    d = run["dir"]
    bad, data, model, out = (str(d / name) for name in ("bad", "data.csv", "model.json", "out"))
    commands = {
        "config": [["train", "--data", data, "--config", bad, "--out", out]],
        "model": [["predict", "--model", bad, "--data", data, "--out", out]],
        "csv": [["predict", "--model", model, "--data", bad, "--out", out],
                ["eval", "--model", model, "--data", bad, "--exposure-col", "exposure",
                 "--adjustment-col", "adjustment"]],
        "spec": [["gen", "--dist", "negbin", "--n", "30", "--seed", "1", "--params", bad,
                  "--out", out]],
    }[target]
    rng = np.random.default_rng(["config", "model", "csv", "spec"].index(target))
    for i in range(count):
        if target == "csv":
            (d / "bad").write_bytes(_mutate_bytes(run["data"], rng))
        else:
            doc = _mutate_json(run[target], rng)
            (d / "bad").write_text(json.dumps(doc))
        for argv in commands:
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 2) and "Traceback" not in err, (
                target, i, (d / "bad").read_bytes()[:2000], err)
