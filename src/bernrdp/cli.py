"""Command-line front end: evaluate points, sweep curves, map regions,
run graph queries, compute length bounds, and cross-check the closed form
against the brute-force oracles.

Output is deterministic: stable field order, floats at 12 significant
digits, no timestamps.  JSON is the default format (streams emit one JSON
object per line); --format csv gives flat tables.  The exit code is 0 on
success.  An error a command raises is written to stderr as one JSON
object (type, message, exit code) and exits with the code of its type in
``_EXIT_CODES``, the one place the codes are kept.

Every command writes through one emitter, ``_emit``.  Small records
(bounds, the region boundaries, the verify report and the head of every
solve) are dicts serialized value by value.  The per-component allocation
of ``eval`` and ``curve``, the per-edge shares of ``graph`` and the cells
of ``region`` stay numpy columns, written column by column: a column bit
for bit equal to the previous table's column of that name (a curve's q,
index and labels) takes its cells, a constant float column is formatted
once, and any other float column in one C-level call.  Each table is then
one % over its interleaved columns, into whose row template the record's
constant cells (a CSV line's D, P, rate and multipliers) are written once.

``region`` evaluates one boundary per D, not one region test per cell.
Each command takes only the options it reads: all six take --format, all
but ``graph`` take --q, and only eval, curve and bounds take --tol, whose
default they read from BERNRDP_TOL on every call.  The argument parser is
built once per process, and the command is looked up on every call.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import sys
from typing import NamedTuple

import numpy as np

from . import __version__
from .errors import ConvergenceError, DomainError, SizeError
from .graph import _parse_json, graph_rdp, load_matrix
from .oracle import (SCALAR_GRID, SCALAR_TOL, VECTOR_GRID, VECTOR_TOL, GridSpec,
                     allocation_grid_oracle, s_of_d_oracle, scalar_channel_oracle)
from .core import ScalarRegion, scalar_rdp
from .solver import (_LN2, BUDGET_RTOL, BudgetPair, PlaneRegion, _check_rtol, _plane_boundary,
                     classify, length_bounds, normalize, rdp, s_of_d)


class VerificationFailure(Exception):
    pass


#: The exit code of each error a command may raise: input validation,
#: convergence failure, verification failure and size limit.
_EXIT_CODES = {DomainError: 2, ConvergenceError: 3, VerificationFailure: 4, SizeError: 5}
EXIT_OK = 0
EXIT_INPUT, EXIT_CONVERGENCE, EXIT_VERIFY, EXIT_SIZE = _EXIT_CODES.values()

#: Output names of the component label codes (see KktCertificate).
_REGION_NAMES = np.array([r.value for r in ScalarRegion])


# ---------------------------------------------------------------------------
# deterministic serialization
#
# A float is written as its rounding to 12 significant digits, "%.12g": a
# CSV cell is that string, and a JSON number is the repr of the float it
# denotes (the same string, except "0" -> "0.0", "1e+12" ->
# "1000000000000.0" and subnormals), with inf, -inf and nan as JSON strings.

_G = "%.12g"
_NON_FINITE = ("inf", "-inf", "nan")
#: The "%.12g" cells whose JSON token may differ from them: those with no
#: point (integers, inf and nan) or with an exponent.  Each follows a newline.
_JSON_FIX = re.compile(r"\n(?:[^.\n]+$|[^\n]*e[^\n]*)", re.M)

#: Conversion of a column in a row template, by dtype kind.  Float columns
#: are formatted beforehand; labels are plain names.
_JSON_SPEC = {"f": "%s", "i": "%d", "U": '"%s"'}
_CSV_SPEC = {"f": "%s", "i": "%d", "U": "%s"}


class _Record(NamedTuple):
    """A record whose JSON and CSV forms differ.

    JSON: ``head``, then, when ``key`` is set, the table ``columns`` under
    ``key``, one object per row; with ``columns`` but no ``key``, one line
    per row, the head's fields followed by the row's.  CSV: ``csv`` maps
    each field to a value or to a column; a record with columns is one
    line per row.
    """

    head: dict
    csv: dict
    key: str | None = None
    columns: dict | None = None


def _num(x):
    """Round to 12 significant digits; non-finite floats become strings."""
    cell = _G % x
    return cell if cell in _NON_FINITE else float(cell)


def _json_token(match) -> str:
    cell = match.group()[1:]
    return f'\n"{cell}"' if cell in _NON_FINITE else "\n" + repr(float(cell))


def _tokens(values: np.ndarray, json_tokens: bool) -> list[str]:
    """The ``_G`` strings of ``values``, or with ``json_tokens`` the JSON
    tokens of ``_num``: one C-level ``%`` over the values, then, for JSON,
    one regex pass over that text."""
    text = ("\n" + _G) * values.size % tuple(values.tolist())
    if json_tokens:
        text = _JSON_FIX.sub(_json_token, text)
    return text.split()


def _column_cells(tables, json_tokens: bool):
    """For each table, a dict of values and columns, yield the cells of its
    columns by name: the values of an int or label column, and for a float
    column its ``_G`` strings, or with ``json_tokens`` the JSON tokens of
    ``_num``.

    A column bit for bit equal to the previous table's column of that name
    (a curve's index, q and labels, or its d along P in region A) takes
    that column's cells.  A constant float column is formatted once, and
    any other by one ``_tokens`` call.  Float columns are compared on their
    bit patterns: compared as floats, 0.0 and -0.0 would be equal, and
    would take one sign's cells for the other.
    """
    held = {}  # name -> (dtype, key, cells) of the previous table
    for table in tables:
        cells, current = {}, {}
        for name, col in table.items():
            if not isinstance(col, np.ndarray):
                continue
            floats = col.dtype.kind == "f"
            key = col.astype(np.float64, copy=False).view(np.uint64) if floats else col
            prev = held.get(name)
            if prev is not None and prev[0] == col.dtype and np.array_equal(prev[1], key):
                cells[name] = prev[2]
            elif not floats:
                cells[name] = col.tolist()
            elif key.size and (key == key[0]).all():
                cells[name] = _tokens(col[:1], json_tokens) * col.size
            else:
                cells[name] = _tokens(col, json_tokens)
            current[name] = col.dtype, key, cells[name]
        held = current
        yield cells


def _rows(template: str, cols: list[list]) -> str:
    """``template`` once per row, filled by one ``%`` over the cells of
    ``cols`` interleaved row by row."""
    width, count = len(cols), len(cols[0])
    cells = [None] * (width * count)
    for j, col in enumerate(cols):
        cells[j::width] = col
    return template * count % tuple(cells)


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return _num(obj)
    return obj


def _json_line(record, column_cells: dict) -> str:
    """A record as JSON: the head value by value, then its table (see
    ``_Record``) in one ``%`` of the row template over the interleaved
    columns.  The cells come from ``column_cells``, those ``_column_cells``
    yields for the record within its output."""
    head = record.head if isinstance(record, _Record) else record
    text = json.dumps(_jsonify(head), separators=(", ", ": "))
    if not isinstance(record, _Record) or record.columns is None:
        return text + "\n"
    specs, cols = [], []
    for name, col in record.columns.items():
        specs.append(f"{json.dumps(name)}: {_JSON_SPEC[col.dtype.kind]}")
        cols.append(column_cells[name])
    if record.key is None:
        lead = text[:-1].replace("%", "%%") + (", " if head else "")
        return _rows(lead + ", ".join(specs) + "}\n", cols)
    rows = _rows("{" + ", ".join(specs) + "}, ", cols)[:-2]
    return f"{text[:-1]}, {json.dumps(record.key)}: [{rows}]}}\n"


def _csv_cell(v) -> str:
    if v is None:
        return ""
    return _G % v if isinstance(v, (float, np.floating)) else str(v)


def _csv_lines(row: dict, fields, column_cells: dict) -> str:
    """A row of values and columns as CSV lines, one per row of the
    columns, through one template; column cells as in ``_json_line``."""
    cells, cols = [], []
    for name in fields:
        v = row.get(name)
        if isinstance(v, np.ndarray):
            cells.append(_CSV_SPEC[v.dtype.kind])
            cols.append(column_cells[name])
        else:
            cells.append(_csv_cell(v).replace("%", "%%"))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    template = buf.getvalue()
    return _rows(template, cols) if cols else template % ()


def _emit(records, fmt, out, fields) -> None:
    """Write records as JSON lines, or as one CSV table with the header
    ``fields``.  A record is a ``_Record`` or a dict written as it is.

    The cells of each record's table are taken column by column
    (``_column_cells``): a column the previous record holds bit for bit
    takes its cells, and a float column is otherwise formatted in one call,
    or once when it is constant.  Each table is then one ``%`` over its
    interleaved columns."""
    if fmt == "csv":
        rows = [r.csv if isinstance(r, _Record) else r for r in records]
        out.write(",".join(fields) + "\n")
        out.writelines(_csv_lines(row, fields, cells)
                       for row, cells in zip(rows, _column_cells(rows, False)))
    else:
        tables = [r.columns if isinstance(r, _Record) and r.columns is not None else {}
                  for r in records]
        out.writelines(map(_json_line, records, _column_cells(tables, True)))


# ---------------------------------------------------------------------------
# input parsing


def _parse_q(spec: str):
    """Inline comma-separated probabilities as an array, or the "q" value of
    the JSON document {"q": [...]} at that path as parsed; ``normalize``
    checks either."""
    try:
        return np.array([float(tok) for tok in spec.split(",") if tok.strip() != ""])
    except ValueError:
        pass
    if os.path.exists(spec):
        try:
            with open(spec, "rb") as fh:
                doc = _parse_json(fh.read())
        except (OSError, ValueError, RecursionError) as exc:
            raise DomainError(f"cannot read --q file {spec!r}: {exc}") from exc
        if not isinstance(doc, dict) or "q" not in doc:
            raise DomainError(f'{spec}: expected a JSON object with a "q" list')
        return doc["q"]
    raise DomainError(f"--q value {spec!r} is neither a number list nor a file")


def _check_count(flag: str, count: int) -> None:
    if count < 1:
        raise DomainError(f"{flag} must be >= 1")


def _axis(args, lo: str, hi: str, count: int) -> np.ndarray:
    """``count`` points from the flag ``lo`` to the flag ``hi``, which must be
    finite and a finite distance apart: ``linspace`` turns either fault into
    nan points."""
    start, stop = (getattr(args, flag[2:].replace("-", "_")) for flag in (lo, hi))
    for flag, value in ((lo, start), (hi, stop)):
        if not math.isfinite(value):
            raise DomainError(f"{flag} must be finite; got {value!r}")
    if not math.isfinite(stop - start):
        raise DomainError(f"{hi} - {lo} overflows: {stop!r} - {start!r}")
    return np.linspace(start, stop, count)


def _source_from(args):
    return normalize(_parse_q(args.q))


# ---------------------------------------------------------------------------
# record building


_ALLOCATION_FIELDS = ["D", "P", "region", "rate_nats", "rate_bits", "nu", "mu",
                      "residual_d", "residual_p", "iterations",
                      "index", "original_index", "q", "d", "p", "component_rate_nats",
                      "component_region"]
_EDGE_FIELDS = ["i", "j", "q", "d", "p", "rate_nats", "total_rate_nats", "region"]


def _solve_head(budget: BudgetPair, result) -> dict:
    cert = result.certificate
    return {
        "D": budget.D,
        "P": budget.P,
        "region": result.region,
        "rate_nats": result.rate,
        "rate_bits": result.rate / _LN2,
        "multipliers": {"nu": cert.nu, "mu": cert.mu},
        "residuals": {"distortion": result.residuals[0], "perception": result.residuals[1]},
        "solver": {"iterations": result.multiplier_iterations, "notes": list(result.notes)},
    }


def _base_record(src, budget: BudgetPair, result) -> _Record:
    head = _solve_head(budget, result)
    alloc = result.allocation
    columns = {"index": np.arange(src.n), "original_index": src.permutation, "q": src.q,
               "d": alloc.d, "p": alloc.p, "rate_nats": alloc.per_component_rate,
               "region": _REGION_NAMES[result.certificate.component_regions]}
    flat = (budget.D, budget.P, result.region, result.rate, head["rate_bits"],
            result.certificate.nu, result.certificate.mu, *result.residuals,
            result.multiplier_iterations, *columns.values())
    return _Record(head, dict(zip(_ALLOCATION_FIELDS, flat)), "allocation", columns)


# ---------------------------------------------------------------------------
# commands


def cmd_eval(args, out) -> int:
    src = _source_from(args)
    budget = BudgetPair(args.D, args.P)
    result = rdp(src, budget, budget_rtol=args.tol)
    _emit([_base_record(src, budget, result)], args.format, out, _ALLOCATION_FIELDS)
    return EXIT_OK


def cmd_curve(args, out) -> int:
    src = _source_from(args)
    _check_count("--count", args.count)
    values = _axis(args, "--start", "--stop", args.count)
    if args.start > args.stop:
        raise DomainError("--start must be <= --stop")
    records, rates = [], []  # a rate of None marks a failed point
    for v in values:
        D, P = (float(v), args.P) if args.axis == "D" else (args.D, float(v))
        try:
            budget = BudgetPair(D, P)
            result = rdp(src, budget, budget_rtol=args.tol)
            records.append(_base_record(src, budget, result))
            rates.append(result.rate)
        except (DomainError, ConvergenceError) as exc:
            records.append(_Record(
                {"D": D, "P": P, "error": {"type": type(exc).__name__, "message": str(exc)}},
                {"D": D, "P": P, "region": f"error: {exc}"}))
            rates.append(None)
    _emit(records, args.format, out, _ALLOCATION_FIELDS)
    if args.self_check:
        clean = [r for r in rates if r is not None]
        for prev, cur in zip(clean, clean[1:]):
            if cur > prev + 1e-9:
                raise VerificationFailure(
                    f"self-check: rate increased along the {args.axis} axis "
                    f"({prev:.12g} -> {cur:.12g})")
    return EXIT_CONVERGENCE if None in rates else EXIT_OK


def cmd_region(args, out) -> int:
    src = _source_from(args)
    _check_count("--d-count", args.d_count)
    _check_count("--p-count", args.p_count)
    d_vals = _axis(args, "--d-min", "--d-max", args.d_count).tolist()
    p_vals = _axis(args, "--p-min", "--p-max", args.p_count).tolist()
    # each cell is a budget: checking the first row, then the first column,
    # meets the bad value a scan of the cells row by row meets first
    p_cut = np.array([BudgetPair(d_vals[0], P).P for P in p_vals])
    tests = [_plane_boundary(src, BudgetPair(D, p_vals[0]).D)[:2] for D in d_vals]
    labels = np.array([[region.value] for region, _ in tests])
    bounds = np.array([[bound] for _, bound in tests])
    cells = {"D": np.repeat(d_vals, len(p_vals)), "P": np.tile(p_vals, len(d_vals)),
             "region": np.where(p_cut >= bounds, labels, PlaneRegion.C.value).ravel()}
    boundaries = [{"kind": "boundary", "D": D,
                   "T": bound if region == PlaneRegion.A else None,
                   "S": bound if region == PlaneRegion.B else None}
                  for D, (region, bound) in zip(d_vals, tests)]
    if args.self_check:
        for row in boundaries:
            for curve, want in (("T", PlaneRegion.A), ("S", PlaneRegion.B)):
                if row[curve] is None:
                    continue
                got = classify(src, BudgetPair(row["D"], row[curve]))
                if got != want:
                    raise VerificationFailure(f"self-check: classify(D, {curve}(D)) = {got} "
                                              f"!= {want} at D={row['D']:.12g}")
    table = _Record({"kind": "cell"}, {"kind": "cell", **cells}, None, cells)
    _emit([table, *boundaries], args.format, out, ["kind", "D", "P", "region", "T", "S"])
    return EXIT_OK


def cmd_graph(args, out) -> int:
    try:
        with open(args.matrix, "rb") as fh:
            matrix = load_matrix(fh)
    except OSError as exc:
        raise DomainError(f"cannot read --matrix {args.matrix!r}: {exc.strerror or exc}") from exc
    budget = BudgetPair(args.D, args.P)
    gres = graph_rdp(matrix, budget)
    result = gres.result
    edges = {"i": gres.i, "j": gres.j, "q": gres.q, "d": gres.d, "p": gres.p,
             "rate_nats": gres.edge_rate}
    record = _Record({"n_vertices": matrix.n_vertices, **_solve_head(budget, result)},
                     {**edges, "total_rate_nats": result.rate, "region": result.region},
                     "edges", edges)
    _emit([record], args.format, out, _EDGE_FIELDS)
    return EXIT_OK


def cmd_bounds(args, out) -> int:
    src = _source_from(args)
    budget = BudgetPair(args.D, args.P)
    result = rdp(src, budget, budget_rtol=args.tol)
    lower, upper = length_bounds(result.rate)
    record = {"D": budget.D, "P": budget.P, "rate_nats": result.rate,
              "lower_bits": lower, "upper_bits": upper, "region": result.region}
    _emit([record], args.format, out, ["D", "P", "rate_nats", "lower_bits", "upper_bits", "region"])
    return EXIT_OK


def cmd_verify(args, out) -> int:
    for flag, tol in (("--scalar-tol", args.scalar_tol), ("--vector-tol", args.vector_tol)):
        if not tol >= 0.0:  # NaN fails too
            raise DomainError(f"{flag} must be >= 0; got {tol!r}")
    src = _source_from(args)
    scalar_grid, vector_grid = (
        GridSpec(g.resolution if args.grid_resolution is None else args.grid_resolution,
                 g.refinement_rounds if args.refine_rounds is None else args.refine_rounds)
        for g in (SCALAR_GRID, VECTOR_GRID))
    _check_count("--budget-count", args.budget_count)
    if not args.scalar_only and src.n > 3:
        raise SizeError("vector oracle verification needs n <= 3 (use --scalar-only)")
    report = {"n": src.n, "stages": {}}

    def stage(name, worst, tol):
        report["stages"][name] = {"max_deviation": worst, "tolerance": tol, "pass": worst <= tol}

    pts = np.linspace(0.0, 0.6, args.budget_count).tolist()
    worst = 0.0
    for q in sorted(set(src.q.tolist())):
        for D in pts:
            # The oracle's answer at P >= D is its answer at P = D, bit for
            # bit, so it is asked once per distinct min(P, D).  With
            # u = (1-q)a >= 0 and v = qb >= 0, |u - v| <= u + v, and rounding
            # is monotone, so fl|u - v| <= fl(u + v) <= D <= P wherever the
            # distortion test holds: the perception test of each of the
            # oracle's blocks is implied by the distortion test it is joined
            # with, and the search sees the same cells.
            rates = {}
            for P in pts:
                at = min(P, D)
                if at not in rates:
                    rates[at] = scalar_channel_oracle(q, D, at, scalar_grid)[0]
                worst = max(worst, abs(rates[at] - scalar_rdp(D, P, q)))
    stage("scalar_channel", worst, args.scalar_tol)

    if not args.scalar_only:
        caps = float((2.0 * src.q * (1.0 - src.q)).sum())
        sum_q = float(src.q.sum())
        worst = 0.0
        for D in np.linspace(0.0, 1.1 * caps, args.budget_count):
            for P in np.linspace(0.0, 1.1 * sum_q, args.budget_count):
                oracle, _ = allocation_grid_oracle(src, BudgetPair(float(D), float(P)), vector_grid)
                worst = max(worst, abs(oracle - rdp(src, (float(D), float(P))).rate))
        stage("vector_allocation", worst, args.vector_tol)

        worst = 0.0
        for D in np.linspace(sum_q, caps, args.budget_count):
            oracle = s_of_d_oracle(src, float(D))
            worst = max(worst, abs(oracle - s_of_d(src, float(D)).value))
        stage("s_curve", worst, args.vector_tol)

    report["pass"] = ok = all(vals["pass"] for vals in report["stages"].values())
    rows = [{"stage": name, **vals} for name, vals in report["stages"].items()]
    _emit(rows if args.format == "csv" else [report], args.format, out,
          ["stage", "max_deviation", "tolerance", "pass"])
    if not ok:
        raise VerificationFailure("oracle verification exceeded tolerance")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="bernrdp",
        description="Rate-distortion-perception functions of Bernoulli vector "
                    "sources and Erdos-Renyi graphs.")
    parser.add_argument("--version", action="version", version=f"bernrdp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "csv"), default="json")
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--q", required=True,
                        help="inline q list '0.3,0.1' or a JSON file with {\"q\": [...]}")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=None,
                     help="budget residual tolerance (env BERNRDP_TOL)")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("-D", type=float, required=True)
    budget.add_argument("-P", type=float, required=True)

    sub.add_parser("eval", parents=[source, fmt, tol, budget], help="evaluate one (D, P) point")

    p = sub.add_parser("curve", parents=[source, fmt, tol], help="sweep rate along one axis")
    p.add_argument("--axis", choices=("D", "P"), required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("-D", type=float, default=0.0, help="fixed D for a P sweep")
    p.add_argument("-P", type=float, default=0.0, help="fixed P for a D sweep")
    p.add_argument("--self-check", action="store_true",
                   help="assert rates are non-increasing along the axis")

    p = sub.add_parser("region", parents=[source, fmt], help="map plane regions and boundaries")
    p.add_argument("--d-min", type=float, default=0.0)
    p.add_argument("--d-max", type=float, required=True)
    p.add_argument("--d-count", type=int, default=21)
    p.add_argument("--p-min", type=float, default=0.0)
    p.add_argument("--p-max", type=float, required=True)
    p.add_argument("--p-count", type=int, default=21)
    p.add_argument("--self-check", action="store_true",
                   help="assert the emitted boundaries classify as A / B")

    p = sub.add_parser("graph", parents=[fmt, budget], help="RDP of an ER edge-probability matrix")
    p.add_argument("--matrix", required=True, help="JSON file with n_vertices and probs")

    sub.add_parser("bounds", parents=[source, fmt, tol, budget], help="one-shot code length bounds")

    p = sub.add_parser("verify", parents=[source, fmt], help="cross-check against the oracles")
    p.add_argument("--scalar-only", action="store_true",
                   help="run only the scalar channel stage, which takes any n; "
                        "the vector stages need n <= 3")
    p.add_argument("--grid-resolution", type=int, default=None,
                   help=f"grid points per axis of the scalar and allocation oracles "
                        f"(default: {SCALAR_GRID.resolution} and {VECTOR_GRID.resolution})")
    p.add_argument("--refine-rounds", type=int, default=None,
                   help=f"refinement rounds of the scalar and allocation oracles (default: "
                        f"{SCALAR_GRID.refinement_rounds} and {VECTOR_GRID.refinement_rounds})")
    p.add_argument("--budget-count", type=int, default=4,
                   help="points per budget axis: the scalar stage takes D and P on "
                        "[0, 0.6] for each distinct q; the vector stage D on "
                        "[0, 1.1 sum 2q(1-q)] and P on [0, 1.1 sum q]; the S(D) "
                        "stage D on [sum q, sum 2q(1-q)] (default: %(default)s)")
    p.add_argument("--scalar-tol", type=float, default=SCALAR_TOL,
                   help="largest deviation of the scalar stage, in nats "
                        "(default: %(default)s)")
    p.add_argument("--vector-tol", type=float, default=VECTOR_TOL,
                   help="largest deviation of the vector and S(D) stages, in nats "
                        "(default: %(default)s)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if "tol" in args:  # eval, curve and bounds; BERNRDP_TOL is read per call
            tol = os.environ.get("BERNRDP_TOL", BUDGET_RTOL) if args.tol is None else args.tol
            try:
                args.tol = float(tol)
            except ValueError:
                raise DomainError(f"BERNRDP_TOL must be a number; got {tol!r}") from None
            _check_rtol(args.tol)  # here, or curve would report it once per point
        # looked up per call, so that a command replaced after import is run
        return globals()[f"cmd_{args.command}"](args, sys.stdout)
    except tuple(_EXIT_CODES) as exc:
        code = next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
        sys.stderr.write(json.dumps(
            {"error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code}}) + "\n")
        return code


if __name__ == "__main__":
    raise SystemExit(main())
