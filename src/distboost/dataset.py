"""Data ingestion and synthesis.

A :class:`Dataset` is an immutable bundle of a dense feature matrix, a
response vector, and per-row exposure and adjustment multipliers (both
defaulting to 1.0).  Exposure scales the observation window of a count
response (e.g. car-years); the adjustment coefficient rescales the
negative-binomial ``beta`` parameter per row (deductible effects).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .errors import DataError, ValidationError
from .fields import count, read_text, typed, typed_items

# Parameter keys the synthetic sampler expects from a param_fn, per distribution.
_PARAM_KEYS = {
    "gamma": ("mu", "alpha"),
    "zip": ("mu", "alpha"),
    "negbin": ("beta", "gamma"),
}
SYNTHETIC_DISTRIBUTIONS = tuple(_PARAM_KEYS)


class Dataset:
    """Immutable training/evaluation data.

    features is stored dense and column-major so per-feature sorted scans
    touch contiguous memory.  Every array is the Dataset's own copy, frozen
    after construction, so it is safe to share across threads.
    """

    def __init__(self, features, response, exposure=None, adjustment=None,
                 feature_names=None, source="memory"):
        features = np.array(features, dtype=np.float64, order="F")
        if features.ndim != 2:
            raise DataError("features must be a 2-D matrix")
        n, m = features.shape
        if n < 1 or m < 1:
            raise DataError(f"need at least 1 row and 1 feature, got shape ({n}, {m})")
        if not np.all(np.isfinite(features)):
            i, j = np.argwhere(~np.isfinite(features))[0]
            raise DataError(f"non-finite feature value at row {i}, column {j}")

        response = np.array(response, dtype=np.float64).reshape(-1)
        if response.shape[0] != n:
            raise DataError(f"response length {response.shape[0]} != row count {n}")
        if not np.all(np.isfinite(response)):
            i = int(np.flatnonzero(~np.isfinite(response))[0])
            raise DataError(f"non-finite response value at row {i}")

        exposure = self._positive_column(exposure, n, "exposure")
        adjustment = self._positive_column(adjustment, n, "adjustment")

        feature_names = (tuple(f"x{j + 1}" for j in range(m)) if feature_names is None
                         else tuple(str(c) for c in feature_names))
        if len(feature_names) != m:
            raise DataError(f"{len(feature_names)} feature names for {m} features")
        if len(set(feature_names)) != m:
            raise DataError("duplicate feature names")

        for arr in (features, response, exposure, adjustment):
            arr.setflags(write=False)
        self.features = features
        self.response = response
        self.exposure = exposure
        self.adjustment = adjustment
        self.feature_names = feature_names
        self.source = str(source)

    @staticmethod
    def _positive_column(values, n, what):
        if values is None:
            return np.ones(n, dtype=np.float64)
        values = np.array(values, dtype=np.float64).reshape(-1)
        if values.shape[0] != n:
            raise DataError(f"{what} length {values.shape[0]} != row count {n}")
        if not np.all(np.isfinite(values) & (values > 0.0)):
            i = int(np.flatnonzero(~(np.isfinite(values) & (values > 0.0)))[0])
            raise DataError(f"{what} must be positive and finite; bad value at row {i}")
        return values

    @property
    def n_rows(self):
        return self.features.shape[0]

    @property
    def n_features(self):
        return self.features.shape[1]

    def take(self, rows, source=None):
        """New Dataset restricted to the given row indices (in the given order)."""
        rows = np.asarray(rows, dtype=np.intp)
        return Dataset(
            self.features[rows],
            self.response[rows],
            self.exposure[rows],
            self.adjustment[rows],
            self.feature_names,
            source=self.source if source is None else source,
        )

    def fingerprint(self):
        """Content hash binding reports to the exact data they were scored on."""
        h = hashlib.sha256()
        for arr in (self.features, self.response, self.exposure, self.adjustment):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update("\x00".join(self.feature_names).encode("utf-8"))
        return h.hexdigest()

    def identifier(self):
        return f"{self.source}|n={self.n_rows}|{self.fingerprint()[:16]}"


# cells per block in read_table and write_table: one numpy conversion or one
# %-format per block, with the block's cells as the only per-cell Python objects
_PARSE_BUDGET = 1 << 14


def _check_distinct(path, header, error):
    dupes = sorted({c for c in header if header.count(c) > 1})
    if dupes:
        raise error(f"{path}: duplicate column name(s): {', '.join(dupes)}")


def read_table(path):
    """Read a headered all-numeric CSV into (column names, (n, k) array).

    The format is deliberately narrow: UTF-8 with an optional byte-order
    mark, comma-separated, first row is the header, every cell a finite
    decimal number (optional exponent).  No quoting or escaping.  Cell errors
    report the file line number (the header is line 1) and the column name.
    """
    try:
        lines = read_text(path, DataError).splitlines()
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    if not lines:
        raise DataError(f"{path}: empty file (header row required)")

    header = [c.strip() for c in lines.pop(0).split(",")]
    _check_distinct(path, header, DataError)

    # lines[i] is file line i + 2; blank lines are skipped
    k = len(header)
    table = np.empty((len(lines) - lines.count(""), k))
    if not table.size:
        raise DataError(f"{path}: no data rows")
    step = max(1, _PARSE_BUDGET // k)
    filled = 0
    for lo in range(0, len(lines), step):
        block = [line for line in lines[lo:lo + step] if line]
        n = len(block)
        if not n:
            continue
        # one split of the block; no line holds "\n", so the n - 1 row
        # separators sit at every (k+1)-th cell iff every row has k cells
        cells = ",\n,".join(block).split(",")
        ok = len(cells) == n * (k + 1) - 1 and cells[k::k + 1] == ["\n"] * (n - 1)
        # numpy reads a str cell by float()'s rules, so a block is converted by
        # numpy or not at all, and the per-cell rescan only names its defect;
        # rebinding `cells` frees the block's strings before the next split
        if ok:
            del cells[k::k + 1]
            try:
                cells = np.array(cells, dtype=np.float64).reshape(n, k)
                ok = np.isfinite(cells).all()
            except ValueError:  # a bad cell
                ok = False
        if not ok:
            _parse_lines(path, header, lines[lo:lo + step], lo + 2)
        table[filled:filled + n] = cells
        filled += n
    return header, table


def _parse_lines(path, header, lines, first):
    """Raise DataError naming the line and column of the first bad cell among
    the lines, lines[0] being file line `first`, blank lines skipped."""
    n_cols = len(header)
    for lineno, line in enumerate(lines, start=first):
        if line == "":
            continue
        cells = line.split(",")
        if len(cells) != n_cols:
            raise DataError(f"{path}: line {lineno}: expected {n_cols} cells, got {len(cells)}")
        for j, cell in enumerate(cells):
            try:
                v = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}: line {lineno}, column '{header[j]}': not a number: {cell!r}"
                ) from None
            if not math.isfinite(v):
                raise DataError(
                    f"{path}: line {lineno}, column '{header[j]}': non-finite value: {cell!r}"
                )
    raise DataError(f"{path}: lines {first}-{first + len(lines) - 1}: numpy rejected a "
                    "block in which every cell reads as a finite float")


def bind_columns(path, header, columns):
    """Header index of each (role, name) pair; DataError names a missing one."""
    index = {c: j for j, c in enumerate(header)}
    for role, name in columns:
        if name not in index:
            raise DataError(f"{path}: missing {role} column '{name}'; "
                            f"expected: {', '.join(n for _, n in columns)}")
    return [index[name] for _, name in columns]


def load_csv(path, response_col, exposure_col=None, adjustment_col=None,
             feature_names=None):
    """Load a Dataset from a headered CSV file.

    feature_names binds features by name, ignoring other columns; by default
    the columns not bound as response/exposure/adjustment are the features,
    in header order.  Missing exposure/adjustment bindings yield all-ones.
    """
    if response_col is None:
        raise DataError("response_col is required")
    header, table = read_table(path)

    bound = {role: name for role, name in (("response", response_col), ("exposure", exposure_col),
                                           ("adjustment", adjustment_col)) if name is not None}
    cols = dict(zip(bound, table.T[bind_columns(path, header, list(bound.items()))]))
    if feature_names is None:
        feature_names = [c for c in header if c not in bound.values()]
        if not feature_names:
            raise DataError(f"{path}: no feature columns left after binding named columns")
    names = [*bound.values(), *feature_names]
    if len(set(names)) != len(names):
        twice = next(c for c in names if names.count(c) > 1)
        raise DataError(f"{path}: column '{twice}' is bound twice")
    return Dataset(table[:, bind_columns(path, header, [("feature", c) for c in feature_names])],
                   cols["response"], cols.get("exposure"), cols.get("adjustment"),
                   feature_names, source=str(path))


def write_table(path, header, table):
    """Write the header, then each row of a 2-D table (or an empty list) with one
    column per name, every cell as str(): for a float the shortest decimal that
    reads back exactly; an object table keeps its cells' types (1 stays 1, "" empty)."""
    for name in header:
        if "," in name or name != name.strip() or len(name.splitlines()) > 1:
            raise ValidationError(f"{path}: column name {name!r} would not read back: it "
                                  "holds a comma, a line break or edge whitespace")
    _check_distinct(path, header, ValidationError)
    k = len(header)
    try:
        table = np.asarray(table)
    except ValueError:  # numpy's "inhomogeneous shape": rows of unequal length
        raise ValidationError(f"{path}: table rows differ in length") from None
    if not k or table.shape not in (table.shape[:1] + (k,), (0,)):
        raise ValidationError(f"{path}: need a column name and a 2-D table with one column "
                              f"per name; got {k} name(s), table shape {table.shape}")
    line, step = ",".join(["%s"] * k) + "\n", max(1, _PARSE_BUDGET // k)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, len(table), step):
            block = table[lo:lo + step]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def write_csv(ds, path):
    """Write a Dataset back to CSV using shortest round-trip decimals.

    The columns, stacked into one table for write_table: the features, the
    response as "y", then "exposure" and "adjustment" where not all ones.
    """
    cols = [*ds.feature_names, "y"]
    arrays = [ds.features, ds.response]
    for name, values in (("exposure", ds.exposure), ("adjustment", ds.adjustment)):
        if not np.all(values == 1.0):
            cols.append(name)
            arrays.append(values)
    write_table(path, cols, np.column_stack(arrays))


class PiecewiseParamMap:
    """Piecewise-constant parameter map over the two synthetic features.

    cuts gives the interior cut points per feature (sorted, within (0, 1));
    cells is the grid of per-cell parameter dicts, indexed
    cells[bin_of_x1][bin_of_x2], with shape (len(cuts[0])+1, len(cuts[1])+1).
    All cells must carry the same parameter keys.
    """

    def __init__(self, cuts, cells):
        cuts = typed_items(cuts, "array", "cuts", ValidationError)
        if len(cuts) != 2:
            raise ValidationError("cuts must list cut points for exactly 2 features")
        self.cuts = tuple(np.asarray(typed_items(c, "number", f"cuts[{i}]", ValidationError))
                          for i, c in enumerate(cuts))
        for c in self.cuts:
            if c.size and not np.all(np.diff(c) > 0):
                raise ValidationError("cut points must be strictly increasing")
        n1, n2 = len(self.cuts[0]) + 1, len(self.cuts[1]) + 1
        cells = [typed_items(row, "object", f"cells[{i}]", ValidationError)
                 for i, row in enumerate(typed_items(cells, "array", "cells", ValidationError))]
        if len(cells) != n1 or any(len(row) != n2 for row in cells):
            raise ValidationError(f"cells must form a {n1}x{n2} grid")
        keys = set(cells[0][0])
        if any(set(cell) != keys for row in cells for cell in row):
            raise ValidationError("all cells must define the same parameter keys")
        self.keys = tuple(sorted(keys))
        self._tables = {
            k: np.asarray([[typed(cell[k], "number", f"cells[{i}][{j}].{k}", ValidationError)
                            for j, cell in enumerate(row)] for i, row in enumerate(cells)])
            for k in self.keys
        }

    def __call__(self, X):
        X = np.asarray(X, dtype=np.float64)
        i = np.searchsorted(self.cuts[0], X[:, 0], side="right")
        j = np.searchsorted(self.cuts[1], X[:, 1], side="right")
        return {k: tab[i, j] for k, tab in self._tables.items()}


def _rng(seed):
    # Philox is counter-based, so streams are identical across platforms
    # and independent of draw batching.
    return np.random.Generator(np.random.Philox(seed))


def generate_synthetic(dist, n, seed, param_fn,
                       exposure_choices=None, adjustment_choices=None):
    """Sample a synthetic Dataset with 2 uniform features on [0, 1).

    param_fn maps the (n, 2) feature matrix to a dict of per-row (or scalar)
    distribution parameters: {mu, alpha} for gamma and zip, {beta, gamma}
    for negbin.  Exposure/adjustment, when choice lists are given, are drawn
    uniformly from those lists and (for negbin) enter the response law.
    The output is a pure function of (dist, n, seed, param_fn, choices).
    """
    if dist not in SYNTHETIC_DISTRIBUTIONS:
        raise ValidationError(
            f"unknown distribution '{dist}'; expected one of {SYNTHETIC_DISTRIBUTIONS}")
    n = count(n, "n", ValidationError, 1)
    seed = count(seed, "seed", ValidationError)

    rng = _rng(seed)
    X = rng.random((n, 2))
    exposure = _draw_choices(rng, exposure_choices, n, "exposure_choices")
    adjustment = _draw_choices(rng, adjustment_choices, n, "adjustment_choices")

    params = param_fn(X)
    expected = _PARAM_KEYS[dist]
    if set(params) != set(expected):
        raise ValidationError(
            f"param_fn for '{dist}' must produce keys {expected}, got {tuple(sorted(params))}")
    p = {k: np.broadcast_to(np.asarray(v, dtype=np.float64), (n,))
         for k, v in params.items()}
    for k, v in p.items():
        if not np.all(np.isfinite(v)):
            raise ValidationError(f"non-finite '{k}' produced by param_fn")

    try:
        # an overflow inside numpy's own parameter checks is reported below
        with np.errstate(over="ignore"):
            y = _sample_response(rng, dist, p, exposure, adjustment)
        if not np.all(np.isfinite(y)):
            raise ValueError("the sampler returned a non-finite response")
    except ValueError as exc:
        # numpy's samplers refuse some finite parameters, e.g. a Poisson
        # mean above about 9.2e18, and return inf for others, e.g. a gamma
        # scale mu / alpha that overflows
        named = ", ".join(f"{k} up to {p[k].max():g}" for k in expected)
        raise DataError(f"cannot sample {dist} responses with {named}: {exc}") from None

    return Dataset(X, y, exposure, adjustment,
                   source=f"synthetic:{dist}:seed={seed}:n={n}")


def _sample_response(rng, dist, p, exposure, adjustment):
    if dist == "gamma":
        _require(np.all(p["mu"] > 0) and np.all(p["alpha"] > 0),
                 "gamma requires mu > 0 and alpha > 0")
        return rng.gamma(shape=p["alpha"], scale=p["mu"] / p["alpha"])
    if dist == "zip":
        _require(np.all(p["mu"] > 0), "zip requires mu > 0")
        _require(np.all((p["alpha"] > 0) & (p["alpha"] <= 1)),
                 "zip requires alpha in (0, 1]")
        keep = rng.random(len(p["mu"])) < p["alpha"]
        counts = rng.poisson(lam=p["mu"] / p["alpha"])
        return np.where(keep, counts, 0).astype(np.float64)
    _require(np.all(p["beta"] > 0) and np.all(p["gamma"] > 0),
             "negbin requires beta > 0 and gamma > 0")
    r = exposure * p["gamma"]
    prob = 1.0 / (1.0 + adjustment * p["beta"])
    return rng.negative_binomial(n=r, p=prob).astype(np.float64)


def _draw_choices(rng, choices, n, what):
    if choices is None:
        return np.ones(n, dtype=np.float64)
    if isinstance(choices, (tuple, np.ndarray)):
        choices = list(choices)
    choices = np.asarray(typed_items(choices, "number", what, ValidationError))
    if choices.size < 1 or not np.all(np.isfinite(choices) & (choices > 0)):
        raise ValidationError(f"{what} must be a non-empty list of positive numbers")
    return choices[rng.integers(0, choices.size, size=n)]


def _require(cond, message):
    if not cond:
        raise ValidationError(message)


def split_holdout(ds, fraction, seed):
    """Deterministic disjoint row partition (main, holdout).

    The holdout gets floor(n * fraction) rows, nudged into [1, n-1] so both
    parts are nonempty.  Row order within each part follows the original
    dataset, and the two parts reunite to the original row multiset.
    """
    fraction = typed(fraction, "number", "holdout fraction", ValidationError)
    if not 0.0 < fraction < 1.0:
        raise ValidationError(f"holdout fraction must be in (0, 1), got {fraction}")
    n = ds.n_rows
    if n < 2:
        raise ValidationError(f"{ds.source}: holdout_fraction {fraction} needs at least 2 "
                              f"rows to split, got {n}")
    k = min(n - 1, max(1, int(math.floor(n * fraction))))
    perm = _rng(count(seed, "seed", ValidationError)).permutation(n)
    hold = np.sort(perm[:k])
    main = np.sort(perm[k:])
    return (ds.take(main, source=f"{ds.source}[main]"),
            ds.take(hold, source=f"{ds.source}[holdout]"))
