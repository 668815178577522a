"""Golden CLI outputs: the exact bytes of ``bernrdp graph``, ``eval``,
``curve``, ``region``, ``bounds`` and ``verify`` on fixed inputs.

The expected files in tests/golden/ were written by the CLI before the
solver, the graph adapter and the record building worked on arrays; the
array code must reproduce them byte for byte.  The graph cases cover
regions A and B and P = 0 on a 20-vertex matrix with two absent edges,
one certain edge and two edges at 1/2.  The eval cases use a source with a
q = 0 and a q = 1/2 component, so region C re-inserts the zero component
and gives the 1/2 one no perception; with the region-A and region-B points
they pin the per-component region labels.  The curve cases cover both axes
and formats, a P sweep from region C into A (whose d and rate columns
change and then repeat), and a CSV error row whose message holds a comma
(so the CSV quoting is pinned); the region cases have empty T and S
cells; the eval and bounds cases at P = inf pin how each format writes an
infinite value.
The verify cases are the benchmark's verify sources, including its known
scalar-oracle failure (exit 4); their files were written before the scalar
oracle took H(X) from the binary-entropy kernel ``core.h2_arr`` and that
kernel became masked ufuncs, and pin the oracles' reports.

Regenerate the files, only when an output change is intended, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import pathlib

import pytest

from bernrdp.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
MATRIX = str(GOLDEN / "er20.json")
EVAL_Q = "0.3,0,0.5,0.12,0.8"


def _graph(D, P, fmt):
    return ["graph", "--matrix", MATRIX, "-D", D, "-P", P, "--format", fmt]


def _eval(D, P, fmt):
    return ["eval", "--q", EVAL_Q, "-D", D, "-P", P, "--format", fmt]


def _bounds(D, P, fmt):
    return ["bounds", "--q", EVAL_Q, "-D", D, "-P", P, "--format", fmt]


def _curve(axis, start, stop, count, fixed, fmt):
    other = "-P" if axis == "D" else "-D"
    return ["curve", "--q", EVAL_Q, "--axis", axis, "--start", start, "--stop", stop,
            "--count", count, other, fixed, "--format", fmt]


def _verify(q, budget_count, fmt, scalar_only=False):
    return ["verify", *(["--scalar-only"] if scalar_only else []), "--q", q,
            "--budget-count", budget_count, "--format", fmt]


def _region(fmt):
    return ["region", "--q", EVAL_Q, "--d-max", "1.5", "--d-count", "4",
            "--p-max", "0.6", "--p-count", "3", "--format", fmt]


CASES = {
    "graph_a.json": _graph("20", "15", "json"),
    "graph_a.csv": _graph("20", "15", "csv"),
    "graph_b.json": _graph("57", "14", "json"),
    "graph_b.csv": _graph("57", "14", "csv"),
    "graph_p0.json": _graph("30", "0", "json"),
    "graph_p0.csv": _graph("30", "0", "csv"),
    "eval_c.json": _eval("0.4", "0.05", "json"),
    "eval_c.csv": _eval("0.4", "0.05", "csv"),
    "eval_p0.json": _eval("0.4", "0", "json"),
    "eval_a.json": _eval("0.3", "0.5", "json"),
    "eval_b.json": _eval("1.3", "0.3", "json"),
    "eval_inf.json": _eval("0.3", "inf", "json"),
    "eval_inf.csv": _eval("0.3", "inf", "csv"),
    "bounds_inf.json": _bounds("0.3", "inf", "json"),
    "bounds_inf.csv": _bounds("0.3", "inf", "csv"),
    "curve_d_p0.json": _curve("D", "0", "1.5", "7", "0", "json"),
    "curve_p_a.csv": _curve("P", "0.4", "1.0", "4", "0.3", "csv"),
    "curve_p_ca.json": _curve("P", "0", "0.3", "7", "0.4", "json"),
    "curve_error.csv": _curve("P", "-0.3", "0.3", "3", "0.3", "csv"),
    "curve_error.json": _curve("P", "-0.3", "0.3", "3", "0.3", "json"),
    "region.csv": _region("csv"),
    "region.json": _region("json"),
    "verify_n2.json": _verify("0.3,0.1", "2", "json"),
    "verify_n2.csv": _verify("0.25,0.05", "2", "csv"),
    "verify_n3.json": _verify("0.3,0.25,0.05", "2", "json"),
    "verify_scalar_n3.csv": _verify("0.3,0.1,0.05", "3", "csv", scalar_only=True),
    "verify_known_failure.json": _verify("0.35,0.2,0.05", "4", "json", scalar_only=True),
}

#: A curve with a failed point still writes every row, then exits 3.
#: The known verify failure exits 4.
EXIT_CODES = {"curve_error.csv": 3, "curve_error.json": 3, "verify_known_failure.json": 4}


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    code, text = _run(CASES[name])
    assert code == EXIT_CODES.get(name, 0)
    assert text == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    for name, argv in CASES.items():
        code, text = _run(argv)
        assert code == EXIT_CODES.get(name, 0), (name, code)
        (GOLDEN / name).write_text(text, encoding="utf-8")
