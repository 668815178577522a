"""The CLI's bulk formatters against the per-value serializer they replaced.

``old_num``, ``old_jsonify`` and ``old_csv_cell`` are copies of the
functions that used to format every value one at a time; they are the
reference.  A JSON float token is ``json.dumps`` of ``old_num`` and a CSV
cell is ``old_csv_cell``.  The table cases also rebuild a record the old
way (rows as a list of dicts) and write CSV through ``csv.writer`` cell by
cell.  Every record is written through ``_emit``, which writes a table
column by column; the repeating-column cases write several tables, where a
column bit for bit equal to the previous table's column of that name takes
that column's cells.
"""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernrdp.cli import _column_cells, _csv_cell, _emit, _num, _Record


def emit(records, fmt, fields=None):
    """``_emit``'s output for ``records``, without the CSV header."""
    buf = io.StringIO()
    _emit(records, fmt, buf, fields)
    text = buf.getvalue()
    return text.split("\n", 1)[1] if fmt == "csv" else text


def old_num(x):
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return float(f"{x:.12g}")


def old_jsonify(obj):
    if isinstance(obj, dict):
        return {k: old_jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [old_jsonify(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return old_num(obj)
    if isinstance(obj, (int, np.integer, str, bool)) or obj is None:
        return obj
    return str(obj)


def old_csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        n = old_num(v)
        return n if isinstance(n, str) else f"{n:.12g}"
    return str(v)


def old_json_token(x):
    return json.dumps(old_num(x))


SMALLEST_NORMAL = 2.2250738585072014e-308

#: Every float, with extra weight where the two formats disagree: integer
#: values in [1e11, 1e17] (12 digits end in "e+"), values that round to an
#: integer at 12 digits, subnormals, signed zeros and the non-finite values.
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(10**11, 10**17).map(float),
    st.builds(lambda k, e: k * (1.0 + e), st.integers(-10**6, 10**6), st.floats(-5e-13, 5e-13)),
    st.floats(-SMALLEST_NORMAL, SMALLEST_NORMAL),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, 1e16, 1e12]),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(FLOATS, max_size=40))
def test_bulk_floats_equal_per_value_serializer(xs):
    col = np.array(xs, dtype=float)
    assert list(_column_cells([{"x": col}], True)) == [{"x": [old_json_token(x) for x in xs]}]
    rows = emit([{"k": np.arange(len(xs)), "x": col}], "csv", ["k", "x"])
    assert rows == "".join(f"{k},{old_csv_cell(x)}\n" for k, x in enumerate(xs))


@settings(max_examples=500, deadline=None)
@given(FLOATS)
def test_single_values_equal_per_value_serializer(x):
    assert json.dumps(_num(x)) == old_json_token(x)
    assert json.dumps(_num(np.float64(x))) == old_json_token(x)
    assert _csv_cell(x) == old_csv_cell(x)


LABELS = st.sampled_from(["S", "T", "U", "boundary-exterior"])
#: Constant cells: numbers, nothing, and text that CSV must quote or that
#: holds a "%", which the row template must not read as a conversion.
CONSTANTS = st.one_of(FLOATS, st.integers(-10**6, 10**6), st.none(), st.booleans(),
                      st.text(alphabet='ab ,"%\n', max_size=6))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.lists(FLOATS, min_size=n, max_size=n),
    st.lists(st.integers(0, 10**6), min_size=n, max_size=n),
    st.lists(LABELS, min_size=n, max_size=n))),
    st.lists(CONSTANTS, min_size=2, max_size=2))
def test_table_equals_rows_of_dicts(table, consts):
    xs, ks, labels = table
    columns = {"k": np.array(ks, dtype=np.int64), "x": np.array(xs, dtype=float),
               "region": np.array(labels, dtype=str)}
    head = {"a": consts[0], "b": {"c": consts[1]}}
    rows = [{"k": k, "x": x, "region": r} for k, x, r in zip(ks, xs, labels)]
    old = json.dumps(old_jsonify({**head, "rows": rows}), separators=(", ", ": ")) + "\n"
    assert emit([_Record(head, {}, "rows", columns)], "json") == old

    fields = ["a", "k", "x", "b", "region"]
    row = {"a": consts[0], "b": consts[1], **columns}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for k, x, r in zip(ks, xs, labels):
        writer.writerow([old_csv_cell(v) for v in (consts[0], k, x, consts[1], r)])
    assert emit([row], "csv", fields) == buf.getvalue()


@given(st.lists(CONSTANTS, min_size=1, max_size=4))
def test_record_without_columns_is_one_line(values):
    fields = [f"f{i}" for i in range(len(values))]
    row = dict(zip(fields, values))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([old_csv_cell(v) for v in values])
    assert emit([row], "csv", fields) == buf.getvalue()
    old = json.dumps(old_jsonify(row), separators=(", ", ": ")) + "\n"
    assert emit([row], "json") == old


#: Pools of one to three values, so that columns drawn from them repeat;
#: signed zeros and NaN (either sign) are likely.
POOLS = st.lists(st.one_of(FLOATS, st.sampled_from([0.0, -0.0, math.nan, -math.nan])),
                 min_size=1, max_size=3)


@st.composite
def _repeating_tables(draw):
    """One to three tables of n rows whose float columns repeat values; the
    column ``shared`` is one array held by every table, as a curve's q is."""
    n = draw(st.integers(0, 12))
    pool = draw(POOLS)

    def column():
        return np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)),
                        dtype=float)

    shared = column()
    return [{"k": np.arange(n), "x": column(), "shared": shared, "y": column()}
            for _ in range(draw(st.integers(1, 3)))]


FIXED_TABLES = [
    [{"x": np.array([0.0, -0.0] * 10)}],
    [{"x": np.full(7, 0.1)}, {"x": np.full(7, 0.1)}],
    [{"x": np.array([math.nan, -math.nan, 0.0, math.nan])}],
    [{"x": np.array([1.0, 1e12, 1.0, 5e-324, 1e12, -0.0])}],
    [{"x": np.array([], dtype=float)}],
    # columns the reuse of the previous table's cells must not merge: a 0.0
    # that becomes -0.0, nan that becomes -nan, the same array under another
    # name, equal int and label columns, and a constant column of -0.0
    [{"x": np.array([0.5, 0.0, 0.25])}, {"x": np.array([0.5, -0.0, 0.25])}],
    [{"x": np.array([math.nan, 1.0])}, {"x": np.array([-math.nan, 1.0])}],
    [{"x": np.array([0.1, -0.0]), "y": np.array([0.2, 3.0])},
     {"x": np.array([0.2, 3.0]), "y": np.array([0.1, -0.0])}],
    [{"k": np.arange(3), "r": np.array(["S", "U", "T"]), "x": np.array([0.1, 0.2, 0.3])},
     {"k": np.arange(3), "r": np.array(["S", "U", "T"]), "x": np.array([0.1, 0.2, 0.4])}],
    [{"x": np.full(5, -0.0)}, {"x": np.full(5, -0.0)}],
]


def _old_rows(table):
    return [dict(zip(table, values)) for values in zip(*(c.tolist() for c in table.values()))]


def _check_emit_equals_old(tables, const):
    head = {"a": const}
    buf = io.StringIO()
    _emit([_Record(head, {}, "rows", t) for t in tables], "json", buf, None)
    assert buf.getvalue() == "".join(
        json.dumps(old_jsonify({**head, "rows": _old_rows(t)}), separators=(", ", ": ")) + "\n"
        for t in tables)

    buf = io.StringIO()
    _emit([_Record(head, {}, None, t) for t in tables], "json", buf, None)
    assert buf.getvalue() == "".join(
        json.dumps(old_jsonify({**head, **row}), separators=(", ", ": ")) + "\n"
        for t in tables for row in _old_rows(t))

    fields = ["a", *tables[0]]
    buf = io.StringIO()
    _emit([_Record(head, {"a": const, **t}) for t in tables], "csv", buf, fields)
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(fields)
    for t in tables:
        for row in _old_rows(t):
            writer.writerow([old_csv_cell(const), *map(old_csv_cell, row.values())])
    assert buf.getvalue() == want.getvalue()


@settings(max_examples=300, deadline=None)
@given(_repeating_tables(), CONSTANTS)
def test_repeating_columns_equal_per_value_serializer(tables, const):
    _check_emit_equals_old(tables, const)


@pytest.mark.parametrize("tables", FIXED_TABLES)
def test_fixed_repeating_columns_equal_per_value_serializer(tables):
    _check_emit_equals_old(tables, 0.5)


def test_signed_zeros_keep_their_signs():
    # keyed on the floats, the dedupe would write every cell as the first
    col = np.array([0.0, -0.0] * 10)
    assert list(_column_cells([{"x": col}], True)) == [{"x": ["0.0", "-0.0"] * 10}]
    assert list(_column_cells([{"x": col}], False)) == [{"x": ["0", "-0"] * 10}]
