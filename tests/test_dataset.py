import math
import pathlib
import re
from unittest import mock

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


@pytest.mark.parametrize("text, response_col, message", [
    ("", "y", "empty file (header row required)"),
    ("x1,y\n", "y", "no data rows"),
    ("x1,y\n1,2\n", None, "response_col is required"),
], ids=["empty", "header-only", "no-response-col"])
def test_load_csv_refuses_a_file_without_rows_or_a_response(tmp_path, text, response_col,
                                                            message):
    path = _write(tmp_path, text)
    with pytest.raises(DataError, match=re.escape(message)):
        db.load_csv(path, response_col)


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
    assert pathlib.Path(path).read_text().splitlines()[:2] == ["a,b", "0.1,1e-300"]
    header, table = db.read_table(path)
    assert header == ["a", "b"] and np.array_equal(table, values)


@pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb", "a\u2028b", "a\x1cb",
                                  " a", "a ", "a\t", "a\n"])
def test_write_table_refuses_a_header_cell_read_table_cannot_read_back(tmp_path, name):
    path = tmp_path / "t.csv"
    with pytest.raises(ValidationError, match=re.escape(f"column name {name!r}")):
        db.write_csv(db.Dataset([[1.0, 2.0]], [3.0], feature_names=[name, "x"]), path)
    assert not path.exists()


def test_write_table_refuses_a_repeated_column_name(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValidationError, match=r"duplicate column name\(s\): a$"):
        db.write_table(path, ["a", "b", "a"], [[1.0, 2.0, 3.0]])
    with pytest.raises(ValidationError, match=r"duplicate column name\(s\): y$"):
        db.write_csv(db.Dataset([[1.0]], [2.0], feature_names=["y"]), path)
    assert not path.exists()


@pytest.mark.parametrize("header, table, message", [
    (["a", "b"], [[1.0], [2.0, 3.0]], "table rows differ in length"),
    (["a", "b"], [[1.0, 2.0, 3.0]], r"got 2 name\(s\), table shape \(1, 3\)"),
    (["a", "b"], [1.0, 2.0], r"got 2 name\(s\), table shape \(2,\)"),
    (["a"], np.empty((3, 0)), r"got 1 name\(s\), table shape \(3, 0\)"),
    ([], [], r"got 0 name\(s\), table shape \(0,\)"),
    ([], [[1.0]], r"got 0 name\(s\), table shape \(1, 1\)"),
], ids=["ragged", "extra-cell", "one-dim", "no-columns", "no-names", "no-names-one-cell"])
def test_write_table_refuses_a_table_read_table_cannot_read_back(tmp_path, header, table,
                                                                   message):
    path = tmp_path / "t.csv"
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: .*{message}"):
        db.write_table(path, header, table)
    assert not path.exists()


@pytest.mark.parametrize("table", [[], np.empty((0, 2)), np.empty((0, 2), dtype=object)])
def test_write_table_with_no_rows_writes_the_header(tmp_path, table):
    path = tmp_path / "t.csv"
    db.write_table(path, ["a", "b"], table)
    assert path.read_bytes() == b"a,b\n"


def test_write_csv_round_trips_ordinary_column_names(tmp_path):
    ds = db.Dataset([[1.0, 2.0, 0.5], [3.0, 4.0, 1.5]], [5.0, 6.0],
                    feature_names=["a b", "x_1", "über"])
    path = tmp_path / "t.csv"
    db.write_csv(ds, path)
    back = db.load_csv(path, "y")
    assert back.feature_names == ds.feature_names
    assert np.array_equal(back.features, ds.features)


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
# read_table: block conversion against the per-cell rescan

# cells float() accepts (padding, underscores, Unicode digits, subnormals,
# overflow to inf, nan spellings) and cells it rejects (hex, double
# underscores, empty, a bare exponent)
_PROBES = [
    "1", " 1 ", "\t2\t", "\xa01\xa0", " 1", "1_0", "1__0", "_1", "1_", "nan", "NaN",
    "-nan", "inf", "-Infinity", "+inf", "infinity", "١٢٣", "１",
    "1e500", "-1e500", "5e-324", "2.2250738585072014e-308", "0.1e-400",
    "1.000000000000000000000000000000000001", "0x10", "", " ", "1e", "e1",
    "1e+", ".5", "5.", "+.5e-3", "1.5E+3", "-0", "--1", "abc", "1 2", "1\x00",
    "nan(123)", "Ⅷ",
]


def _rescan_error(path):
    """The message the per-cell loop alone raises for the whole file."""
    lines = pathlib.Path(path).read_text(encoding="utf-8").splitlines()
    header = [c.strip() for c in lines[0].split(",")]
    with pytest.raises(DataError) as exc:
        db.dataset._parse_lines(path, header, lines[1:], 2)
    return str(exc.value)


@pytest.mark.parametrize("cell", _PROBES)
def test_read_table_reads_each_cell_as_float_does(tmp_path, cell):
    path = _write(tmp_path, f"a,b\n1,{cell}\n")
    try:
        expected = float(cell)
    except ValueError:
        expected = None
    if expected is not None and math.isfinite(expected):
        _, table = db.read_table(path)
        assert table[0, 1].tobytes() == np.float64(expected).tobytes()
    else:
        with pytest.raises(DataError) as exc:
            db.read_table(path)
        assert str(exc.value) == _rescan_error(path)
        what = "not a number" if expected is None else "non-finite value"
        assert str(exc.value) == f"{path}: line 2, column 'b': {what}: {cell!r}"


def test_rescan_of_a_block_without_a_bad_cell_still_raises():
    # read_table rescans only a block numpy rejected; were every cell to read
    # as a finite float, the rescan names the block's lines, blank ones included
    with pytest.raises(DataError, match=r"^t\.csv: lines 5-7: numpy rejected a block in "
                                        "which every cell reads as a finite float$"):
        db.dataset._parse_lines("t.csv", ["a", "b"], ["1,2", "", "3,4"], 5)


def _late_defect_file(tmp_path, defect_lines):
    """Three columns: valid rows filling the first block and more, the
    defect lines, more valid rows.  Returns the path and the file line of
    the first defect line."""
    n = db.dataset._PARSE_BUDGET // 3 + 100
    good = [f"{i},{i / 7!r},{-i}" for i in range(n)]
    path = _write(tmp_path, "\n".join(["a,b,c", *good, *defect_lines, *good[:50]]) + "\n")
    return path, n + 2


@pytest.mark.parametrize("defect_lines, message", [
    (["1,2", "1,2,3,4"], "line {0}: expected 3 cells, got 2"),
    (["1,2,3", "1,nan,3"], "line {1}, column 'b': non-finite value: 'nan'"),
    (["1,2,foo"], "line {0}, column 'c': not a number: 'foo'"),
    (["1,word,3", "inf,2,3"], "line {0}, column 'b': not a number: 'word'"),
    (["inf,word,3"], "line {0}, column 'a': non-finite value: 'inf'"),
    (["1"] * 40, "line {0}: expected 3 cells, got 1"),
    (["", "1,,3"], "line {1}, column 'b': not a number: ''"),
], ids=["short-then-long", "nan", "word", "word-then-inf", "inf-then-word",
        "one-column", "empty-cell-after-blank"])
def test_read_table_names_a_defect_past_the_first_block(tmp_path, defect_lines, message):
    path, first = _late_defect_file(tmp_path, defect_lines)
    with pytest.raises(DataError) as exc:
        db.read_table(path)
    assert str(exc.value) == f"{path}: " + message.format(first, first + 1)
    assert str(exc.value) == _rescan_error(path)


@pytest.mark.parametrize("good_blocks", [0, 1])
def test_read_table_one_column_blocks_under_a_wider_header(tmp_path, good_blocks):
    # a block of one-cell rows converts to shape (rows, 1), which would
    # broadcast into a three-column table without complaint
    step = db.dataset._PARSE_BUDGET // 3
    path = _write(tmp_path, "a,b,c\n" + "1,2,3\n" * (good_blocks * step) + "1\n" * (2 * step))
    with pytest.raises(DataError) as exc:
        db.read_table(path)
    first = good_blocks * step + 2
    assert str(exc.value) == f"{path}: line {first}: expected 3 cells, got 1"


def test_read_table_blank_lines_across_blocks(tmp_path):
    n = 3 * (db.dataset._PARSE_BUDGET // 2)
    values = np.arange(2.0 * n).reshape(n, 2) / 3.0
    lines = [f"{x!r},{y!r}" for x, y in values.tolist()]
    for i in range(len(lines) - 1, 0, -997):
        lines[i:i] = [""] * 3
    path = _write(tmp_path, "u,v\n" + "\n".join(lines) + "\n\n\n")
    header, table = db.read_table(path)
    assert header == ["u", "v"]
    assert table.tobytes() == values.tobytes()


@pytest.mark.parametrize("budget, rows, expected", [
    (6, ["1,2,3", "4,5,6", "7,8", "1,2,3"], "line 4: expected 3 cells, got 2"),
    (6, ["1,2,3", "4,5,6,7"], "line 3: expected 3 cells, got 4"),
    # 2 + 4 cells fill a two-row block's count, but not its row separator
    (6, ["1,2,3", "4,5,6", "7,8", "9,10,11,12"], "line 4: expected 3 cells, got 2"),
    (6, ["1,2,3", "4,5,6", "7,8,9,10", "11,12"], "line 4: expected 3 cells, got 4"),
    (6, ["1,2,3", "4,5,6", "7,8,9", "1,2"], "line 5: expected 3 cells, got 2"),
    (6, ["1,2,3", "4,5,6", "7,8"], "line 4: expected 3 cells, got 2"),
    (12, ["1,2,3", "", "4,5,6", "", "", "7,8,9"], [[1, 2, 3], [4, 5, 6], [7, 8, 9]]),
    (12, ["1,2,3", "", "4,x,6"], "line 4, column 'b': not a number: 'x'"),
    (6, ["1,2,3", "4,5,6", "7,x,9", "1,2,3"], "line 4, column 'b': not a number: 'x'"),
    (6, ["1,2,3", "4,5,6", "inf,8,9"], "line 4, column 'a': non-finite value: 'inf'"),
    (6, ["a", "1", "2", "", "3", "4", "5", "6", "7"], [[1], [2], [3], [4], [5], [6], [7]]),
    (6, ["a", "1", "2,3", "4"], "line 3: expected 1 cells, got 2"),
    (6, ["a", "1", "2", "3", "4", "5", "6", "x"], "line 8, column 'a': not a number: 'x'"),
], ids=["short", "long", "short-then-long", "long-then-short", "short-last", "short-last-alone",
        "blank-lines", "blank-then-bad", "bad-after-boundary", "inf-after-boundary",
        "one-column", "one-column-long", "one-column-bad-after-boundary"])
def test_read_table_block_split_matches_the_cell_by_cell_reader(tmp_path, budget, rows,
                                                                 expected):
    header = "a" if rows[0] == "a" else "a,b,c"
    path = _write(tmp_path, "\n".join([header, *rows[rows[0] == "a":]]) + "\n")
    with mock.patch.object(db.dataset, "_PARSE_BUDGET", budget):
        if isinstance(expected, str):
            with pytest.raises(DataError) as exc:
                db.read_table(path)
            assert str(exc.value) == f"{path}: {expected}" == _rescan_error(path)
        else:
            _, table = db.read_table(path)
            assert table.tobytes() == np.array(expected, dtype=np.float64).tobytes()


def _row_by_row(header, values):
    return ",".join(header) + "\n" + "".join(",".join(map(str, r)) + "\n"
                                             for r in values.tolist())


@pytest.mark.parametrize("budget", [1, 4, 5, 7, 1 << 14])
def test_write_table_blocks_write_the_per_row_text(tmp_path, budget):
    # 7 rows of 2 cells: no block size above 1 row divides the row count
    values = np.array([[-0.0, 5e-324], [1e16, 1e22], [123456789.0, 1.0], [0.0, -2.0],
                       [1e15, 0.1], [2.0 / 3.0, -1e-300], [1.7976931348623157e308, 3.0]])
    path = tmp_path / "t.csv"
    with mock.patch.object(db.dataset, "_PARSE_BUDGET", budget):
        db.write_table(path, ["a", "b"], values)
    text = path.read_text(encoding="utf-8")
    assert text == _row_by_row(["a", "b"], values)
    assert text.splitlines()[1:4] == ["-0.0,5e-324", "1e+16,1e+22", "123456789.0,1.0"]
    assert db.read_table(path)[1].tobytes() == values.tobytes()


@settings(max_examples=80, deadline=None)
@given(table=st.integers(1, 5).flatmap(lambda k: st.lists(
           st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=k, max_size=k),
           min_size=1, max_size=25)),
       budget=st.integers(1, 12), data=st.data())
def test_write_then_read_table_is_bit_exact(tmp_path_factory, table, budget, data):
    values = np.array(table, dtype=np.float64)
    path = str(tmp_path_factory.mktemp("rt") / "t.csv")
    header = [f"c{j}" for j in range(values.shape[1])]
    # blocks of 1 to 12 cells: the same text as the per-row formula
    with mock.patch.object(db.dataset, "_PARSE_BUDGET", budget):
        db.write_table(path, header, values)
    assert pathlib.Path(path).read_text(encoding="utf-8") == _row_by_row(header, values)
    # blank lines and CRLF endings mixed into the body
    lines = pathlib.Path(path).read_text(encoding="utf-8").splitlines()
    text = lines[0] + "\n" + "".join(
        "\r\n" * data.draw(st.integers(0, 2)) + line
        + data.draw(st.sampled_from(["\n", "\r\n"])) for line in lines[1:])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    with mock.patch.object(db.dataset, "_PARSE_BUDGET", budget):
        got_header, got = db.read_table(path)
    assert got_header == header
    assert got.shape == values.shape and got.tobytes() == values.tobytes()


# ---------------------------------------------------------------------------
# Dataset construction

def test_dataset_rejects_nonfinite_feature():
    with pytest.raises(DataError, match="non-finite feature"):
        db.Dataset([[1.0], [np.inf]], [1.0, 2.0])


def test_dataset_rejects_empty():
    with pytest.raises(DataError):
        db.Dataset(np.zeros((0, 1)), [])


@pytest.mark.parametrize("args, kwargs, message", [
    ([[[1.0], [2.0]], [1.0]], {}, "response length 1 != row count 2"),
    ([[[1.0], [2.0]], [1.0, np.nan]], {}, "non-finite response value at row 1"),
    ([[[1.0]], [1.0]], {"feature_names": ["a", "b"]}, "2 feature names for 1 features"),
    ([[[1.0, 2.0]], [1.0]], {"feature_names": ["a", "a"]}, "duplicate feature names"),
    ([[[1.0], [2.0]], [1.0, 2.0]], {"exposure": [1.0]}, "exposure length 1 != row count 2"),
    ([[1.0, 2.0], [1.0, 2.0]], {}, "features must be a 2-D matrix"),
], ids=["response-length", "response-non-finite", "name-count", "duplicate-names",
        "exposure-length", "features-1-D"])
def test_dataset_refuses_columns_that_do_not_fit_the_features(args, kwargs, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        db.Dataset(*args, **kwargs)


def test_dataset_is_immutable():
    ds = db.Dataset([[1.0], [2.0]], [1.0, 2.0])
    with pytest.raises(ValueError):
        ds.features[0, 0] = 5.0
    with pytest.raises(ValueError):
        ds.response[0] = 5.0


def test_dataset_keeps_its_own_copy_of_the_callers_columns():
    X, y, e, adj = np.ones((3, 1)), np.array([1.0, 2.0, 3.0]), np.ones(3), np.ones(3)
    ds = db.Dataset(X, y, e, adj)
    X[0, 0], y[0], e[1], adj[2] = -1.0, -7.0, -3.0, -5.0
    assert ds.features[0, 0] == 1.0 and ds.response[0] == 1.0
    assert ds.exposure[1] == 1.0 and ds.adjustment[2] == 1.0
    assert all(a.flags.writeable for a in (X, y, e, adj))


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


@pytest.mark.parametrize("choices, message", [
    (["x"], "exposure_choices[0]: expected a finite number, got 'x'"),
    ([True, 2], "exposure_choices[0]: expected a finite number, got True"),
    ((2.0, False), "exposure_choices[1]: expected a finite number, got False"),
    (np.array([True]), "exposure_choices[0]: expected a finite number, got np.True_"),
    ("0.5", "exposure_choices: expected an array, got '0.5'"),
    ([], "exposure_choices must be a non-empty list of positive numbers"),
    ([1.0, -2.0], "exposure_choices must be a non-empty list of positive numbers"),
], ids=["string", "bool", "tuple-bool", "array-bool", "not-a-list", "empty", "negative"])
def test_synthetic_choice_lists_are_lists_of_positive_numbers(choices, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        db.generate_synthetic("zip", 10, 1, lambda X: {"mu": 1.0, "alpha": 0.5},
                              exposure_choices=choices)


@pytest.mark.parametrize("choices", [(0.5, 2), np.array([0.5, 2.0]), np.array([1, 2])],
                         ids=["tuple", "float-array", "int-array"])
def test_synthetic_choice_lists_may_be_tuples_or_arrays(choices):
    ds = db.generate_synthetic("zip", 200, 1, lambda X: {"mu": 1.0, "alpha": 0.5},
                               adjustment_choices=choices)
    assert set(np.unique(ds.adjustment)) == set(np.asarray(choices, dtype=np.float64))


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
    with pytest.raises(ValidationError, match="^non-finite 'alpha' produced by param_fn$"):
        db.generate_synthetic("gamma", 10, 0, lambda X: {"mu": 1.0, "alpha": np.nan})


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


def test_split_of_one_row_names_the_source_fraction_and_row_count():
    ds = db.Dataset([[0.0]], [1.0], source="one.csv")
    with pytest.raises(ValidationError, match=re.escape(
            "one.csv: holdout_fraction 0.5 needs at least 2 rows to split, got 1")):
        db.split_holdout(ds, 0.5, 0)


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
