import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distboost as db
from distboost.errors import DataError, ValidationError


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# load_csv

def test_load_csv_basic(tmp_path):
    path = _write(tmp_path, "x1,x2,y\n1,2,3\n4,5,6\n7,8,9\n")
    ds = db.load_csv(path, "y")
    assert ds.n_rows == 3 and ds.n_features == 2
    assert ds.feature_names == ("x1", "x2")
    assert np.array_equal(ds.response, [3.0, 6.0, 9.0])
    assert np.array_equal(ds.exposure, [1.0, 1.0, 1.0])
    assert np.array_equal(ds.adjustment, [1.0, 1.0, 1.0])
    # a leading byte-order mark, as spreadsheet "CSV UTF-8" exports write, is skipped
    bom = _write(tmp_path, "\ufeffx1,x2,y\n1,2,3\n4,5,6\n7,8,9\n", "bom.csv")
    assert db.read_table(bom)[0] == ["x1", "x2", "y"]
    assert np.array_equal(db.load_csv(bom, "y").features, ds.features)


def test_load_csv_exposure_passthrough(tmp_path):
    path = _write(tmp_path, "x1,y,w\n1,0,0.5\n2,1,2.0\n")
    ds = db.load_csv(path, "y", exposure_col="w")
    assert np.array_equal(ds.exposure, [0.5, 2.0])
    assert ds.feature_names == ("x1",)


def test_load_csv_rejects_nan_cell_with_location(tmp_path):
    path = _write(tmp_path, "x1,y\n1,2\n1,NaN\n")
    with pytest.raises(DataError, match=r"line 3.*'y'"):
        db.load_csv(path, "y")


def test_load_csv_rejects_non_numeric_with_location(tmp_path):
    path = _write(tmp_path, "x1,y\n1,2\nfoo,3\n")
    with pytest.raises(DataError, match=r"line 3.*'x1'"):
        db.load_csv(path, "y")


def test_load_csv_missing_file():
    with pytest.raises(DataError, match="no such file"):
        db.load_csv("/nonexistent/nope.csv", "y")


def test_load_csv_missing_column(tmp_path):
    path = _write(tmp_path, "x1,y\n1,2\n")
    with pytest.raises(DataError, match="missing response column 'z'"):
        db.load_csv(path, "z")


def test_load_csv_binds_named_features_and_ignores_extras(tmp_path):
    path = _write(tmp_path, "x2,id,y,x1\n1,7,3,2\n4,8,6,5\n")
    ds = db.load_csv(path, "y", feature_names=("x1", "x2"))
    assert ds.feature_names == ("x1", "x2")
    assert np.array_equal(ds.features, [[2.0, 1.0], [5.0, 4.0]])
    with pytest.raises(DataError, match=r"missing feature column 'x3'; expected: x1, x3"):
        db.load_csv(path, "y", feature_names=("x1", "x3"))
    with pytest.raises(DataError, match="'y' is bound twice"):
        db.load_csv(path, "y", feature_names=("x1", "y"))


def test_write_table_round_trips_floats(tmp_path):
    values = np.array([[0.1, 1e-300], [2.0 / 3.0, 12345678912345.678]])
    path = str(tmp_path / "t.csv")
    db.write_table(path, ["a", "b"], values.tolist())
    assert open(path).read().splitlines()[:2] == ["a,b", "0.1,1e-300"]
    header, table = db.read_table(path)
    assert header == ["a", "b"] and np.array_equal(table, values)


def test_load_csv_duplicate_column(tmp_path):
    path = _write(tmp_path, "x1,x1,y\n1,2,3\n")
    with pytest.raises(DataError, match="duplicate"):
        db.load_csv(path, "y")


def test_load_csv_nonpositive_exposure(tmp_path):
    path = _write(tmp_path, "x1,y,w\n1,2,0.0\n")
    with pytest.raises(DataError, match="exposure"):
        db.load_csv(path, "y", exposure_col="w")


def test_load_csv_ragged_row(tmp_path):
    path = _write(tmp_path, "x1,y\n1,2,3\n")
    with pytest.raises(DataError, match="line 2"):
        db.load_csv(path, "y")


def test_load_csv_no_features_left(tmp_path):
    path = _write(tmp_path, "y,w\n1,2\n")
    with pytest.raises(DataError, match="no feature columns"):
        db.load_csv(path, "y", exposure_col="w")


def test_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    ds = db.Dataset(rng.normal(size=(50, 3)), rng.gamma(2.0, 1.0, 50),
                    rng.uniform(0.5, 2.0, 50), rng.uniform(0.5, 2.0, 50))
    first = str(tmp_path / "a.csv")
    second = str(tmp_path / "b.csv")
    db.write_csv(ds, first)
    loaded = db.load_csv(first, "y", exposure_col="exposure",
                         adjustment_col="adjustment")
    assert np.array_equal(loaded.features, ds.features)
    assert np.array_equal(loaded.response, ds.response)
    assert np.array_equal(loaded.exposure, ds.exposure)
    assert np.array_equal(loaded.adjustment, ds.adjustment)
    db.write_csv(loaded, second)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


# ---------------------------------------------------------------------------
# Dataset construction

def test_dataset_rejects_nonfinite_feature():
    with pytest.raises(DataError, match="non-finite feature"):
        db.Dataset([[1.0], [np.inf]], [1.0, 2.0])


def test_dataset_rejects_empty():
    with pytest.raises(DataError):
        db.Dataset(np.zeros((0, 1)), [])


def test_dataset_is_immutable():
    ds = db.Dataset([[1.0], [2.0]], [1.0, 2.0])
    with pytest.raises(ValueError):
        ds.features[0, 0] = 5.0
    with pytest.raises(ValueError):
        ds.response[0] = 5.0


def test_dataset_fingerprint_tracks_content():
    a = db.Dataset([[1.0], [2.0]], [1.0, 2.0])
    b = db.Dataset([[1.0], [2.0]], [1.0, 2.0])
    c = db.Dataset([[1.0], [2.0]], [1.0, 3.0])
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()


# ---------------------------------------------------------------------------
# generate_synthetic

def test_synthetic_gamma_mean_lln():
    ds = db.generate_synthetic("gamma", 100_000, 42,
                               lambda X: {"mu": 4.0, "alpha": 5.0})
    assert ds.n_rows == 100_000 and ds.n_features == 2
    assert abs(float(np.mean(ds.response)) - 4.0) / 4.0 < 0.02
    assert np.all(ds.features >= 0.0) and np.all(ds.features < 1.0)


def test_synthetic_zip_alpha_one_zero_fraction():
    mu = 1.3
    ds = db.generate_synthetic("zip", 100_000, 7,
                               lambda X: {"mu": mu, "alpha": 1.0})
    zero_frac = float(np.mean(ds.response == 0))
    assert zero_frac == pytest.approx(math.exp(-mu), abs=0.01)


def test_synthetic_negbin_mean_identity():
    ds = db.generate_synthetic("negbin", 100_000, 21,
                               lambda X: {"beta": 1.5, "gamma": 2.0})
    assert abs(float(np.mean(ds.response)) - 3.0) / 3.0 < 0.02


def test_synthetic_is_pure_function_of_seed():
    fn = lambda X: {"mu": 2.0, "alpha": 0.5}
    a = db.generate_synthetic("zip", 500, 13, fn, exposure_choices=[0.5, 2.0])
    b = db.generate_synthetic("zip", 500, 13, fn, exposure_choices=[0.5, 2.0])
    c = db.generate_synthetic("zip", 500, 14, fn, exposure_choices=[0.5, 2.0])
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.response, b.response)
    assert np.array_equal(a.exposure, b.exposure)
    assert not np.array_equal(a.response, c.response)


def test_synthetic_exposure_choices_respected():
    ds = db.generate_synthetic("negbin", 2000, 3,
                               lambda X: {"beta": 1.0, "gamma": 1.0},
                               exposure_choices=[0.5, 1.0, 2.0])
    assert set(np.unique(ds.exposure)) == {0.5, 1.0, 2.0}


def test_synthetic_rejects_unknown_dist():
    with pytest.raises(ValidationError, match="unknown distribution"):
        db.generate_synthetic("weibull", 10, 0, lambda X: {})


def test_synthetic_rejects_bad_params():
    with pytest.raises(ValidationError):
        db.generate_synthetic("gamma", 10, 0, lambda X: {"mu": -1.0, "alpha": 5.0})
    with pytest.raises(ValidationError):
        db.generate_synthetic("gamma", 10, 0, lambda X: {"mu": 1.0})
    with pytest.raises(ValidationError):
        db.generate_synthetic("zip", 10, 0, lambda X: {"mu": 1.0, "alpha": 1.5})


# ---------------------------------------------------------------------------
# PiecewiseParamMap

def test_piecewise_param_map_quadrants():
    pm = db.PiecewiseParamMap(
        [[0.5], [0.5]],
        [[{"beta": 1.0, "gamma": 1.0}, {"beta": 1.0, "gamma": 3.0}],
         [{"beta": 2.0, "gamma": 1.0}, {"beta": 2.0, "gamma": 3.0}]])
    X = np.array([[0.2, 0.2], [0.2, 0.8], [0.8, 0.2], [0.8, 0.8]])
    out = pm(X)
    assert np.array_equal(out["beta"], [1.0, 1.0, 2.0, 2.0])
    assert np.array_equal(out["gamma"], [1.0, 3.0, 1.0, 3.0])


def test_piecewise_param_map_validation():
    with pytest.raises(ValidationError):
        db.PiecewiseParamMap([[0.5]], [[{"mu": 1.0}]])  # needs cuts for 2 features
    with pytest.raises(ValidationError):
        db.PiecewiseParamMap([[0.5], []], [[{"mu": 1.0}]])  # grid shape mismatch
    with pytest.raises(ValidationError):
        db.PiecewiseParamMap([[0.7, 0.3], []], [[{"mu": 1.0}], [{"mu": 2.0}],
                                                [{"mu": 3.0}]])  # unsorted cuts
    with pytest.raises(ValidationError):
        db.PiecewiseParamMap([[], [0.5]],
                             [[{"mu": 1.0}, {"alpha": 1.0}]])  # key mismatch


# ---------------------------------------------------------------------------
# split_holdout

def test_split_sizes_basic():
    ds = db.Dataset(np.arange(10.0).reshape(10, 1), np.arange(10.0))
    main, hold = db.split_holdout(ds, 0.2, 1)
    assert (main.n_rows, hold.n_rows) == (8, 2)


def test_split_deterministic():
    ds = db.Dataset(np.arange(30.0).reshape(30, 1), np.arange(30.0))
    a1, b1 = db.split_holdout(ds, 0.3, 5)
    a2, b2 = db.split_holdout(ds, 0.3, 5)
    assert np.array_equal(a1.response, a2.response)
    assert np.array_equal(b1.response, b2.response)


def test_split_nonempty_guarantee():
    ds = db.Dataset([[0.0], [1.0]], [0.0, 1.0])
    main, hold = db.split_holdout(ds, 0.999, 2)
    assert (main.n_rows, hold.n_rows) == (1, 1)


def test_split_rejects_degenerate_fraction():
    ds = db.Dataset([[0.0], [1.0]], [0.0, 1.0])
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValidationError):
            db.split_holdout(ds, bad, 0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 60), fraction=st.floats(0.01, 0.99), seed=st.integers(0, 2**31))
def test_split_parts_reunite_to_original(n, fraction, seed):
    ds = db.Dataset(np.arange(float(n)).reshape(n, 1), np.arange(float(n)))
    main, hold = db.split_holdout(ds, fraction, seed)
    assert main.n_rows + hold.n_rows == n
    merged = np.sort(np.concatenate([main.response, hold.response]))
    assert np.array_equal(merged, ds.response)
    # disjoint row sets
    assert not set(main.response) & set(hold.response)
