"""The CLI's bulk formatters against the per-value serializer they replaced.

``old_num``, ``old_jsonify`` and ``old_csv_cell`` are copies of the
functions that used to format every value one at a time; they are the
reference.  A JSON float token is ``json.dumps`` of ``old_num`` and a CSV
cell is ``old_csv_cell``.  The table cases also rebuild a record the old
way (rows as a list of dicts) and write CSV through ``csv.writer`` cell by
cell.
"""

import csv
import io
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bernrdp.cli import _csv_cell, _csv_lines, _json_floats, _json_line, _num, _Record


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
    assert _json_floats(col) == [old_json_token(x) for x in xs]
    rows = _csv_lines({"k": np.arange(len(xs)), "x": col}, ["k", "x"])
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
    assert _json_line(_Record(head, {}, "rows", columns)) == old

    fields = ["a", "k", "x", "b", "region"]
    row = {"a": consts[0], "b": consts[1], **columns}
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for k, x, r in zip(ks, xs, labels):
        writer.writerow([old_csv_cell(v) for v in (consts[0], k, x, consts[1], r)])
    assert _csv_lines(row, fields) == buf.getvalue()


@given(st.lists(CONSTANTS, min_size=1, max_size=4))
def test_record_without_columns_is_one_line(values):
    fields = [f"f{i}" for i in range(len(values))]
    row = dict(zip(fields, values))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([old_csv_cell(v) for v in values])
    assert _csv_lines(row, fields) == buf.getvalue()
    old = json.dumps(old_jsonify(row), separators=(", ", ": ")) + "\n"
    assert _json_line(row) == old
