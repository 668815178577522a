"""Command-line front end: evaluate points, sweep curves, map regions,
run graph queries, compute length bounds, and cross-check the closed form
against the brute-force oracles.

Output is deterministic: stable field order, floats at 12 significant
digits, no timestamps.  JSON is the default format (streams emit one JSON
object per line); --format csv gives flat tables.  Exit codes: 0 success,
2 input validation, 3 convergence failure, 4 verification failure,
5 size limit.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import ConvergenceError, DomainError, SizeError
from .graph import graph_rdp, load_matrix
from .oracle import GridSpec, allocation_grid_oracle, s_of_d_oracle, scalar_channel_oracle
from .core import ScalarRegion, scalar_rdp
from .solver import (_LN2, BudgetPair, classify, length_bounds, normalize, rdp,
                     s_of_d, t_of_d)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONVERGENCE = 3
EXIT_VERIFY = 4
EXIT_SIZE = 5

#: Output names of the component label codes (see KktCertificate).
_REGION_NAMES = tuple(r.value for r in ScalarRegion)


class VerificationFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# deterministic serialization


def _num(x):
    """Round to 12 significant digits; non-finite floats become strings."""
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return float(f"{x:.12g}")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return _num(obj)
    if isinstance(obj, (int, np.integer, str, bool)) or obj is None:
        return obj
    return str(obj)


def _emit_json(record, out):
    out.write(json.dumps(_jsonify(record), separators=(", ", ": ")) + "\n")


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        n = _num(v)
        return n if isinstance(n, str) else f"{n:.12g}"
    return str(v)


def _emit_csv(rows, fieldnames, out):
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_csv_cell(row.get(k)) for k in fieldnames])


# ---------------------------------------------------------------------------
# input parsing


def _parse_q(spec: str) -> np.ndarray:
    """Inline comma-separated probabilities, or a path to a JSON document
    {"q": [...]}."""
    try:
        return np.array([float(tok) for tok in spec.split(",") if tok.strip() != ""])
    except ValueError:
        pass
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or "q" not in doc:
            raise DomainError(f'{spec}: expected a JSON object with a "q" list')
        return np.asarray(doc["q"], dtype=float)
    raise DomainError(f"--q value {spec!r} is neither a number list nor a file")


def _source_from(args):
    if getattr(args, "q", None) is None:
        raise DomainError("this command needs --q")
    return normalize(_parse_q(args.q))


# ---------------------------------------------------------------------------
# record building


def _base_record(src, budget: BudgetPair, result) -> dict:
    cert = result.certificate
    alloc = result.allocation
    cols = zip(src.permutation.tolist(), src.q.tolist(), alloc.d.tolist(), alloc.p.tolist(),
               alloc.per_component_rate.tolist(), cert.component_regions.tolist())
    rows = [{"index": i, "original_index": k, "q": q, "d": d, "p": p, "rate_nats": r,
             "region": _REGION_NAMES[code]}
            for i, (k, q, d, p, r, code) in enumerate(cols)]
    return {
        "D": budget.D,
        "P": budget.P,
        "region": result.region,
        "rate_nats": result.rate,
        "rate_bits": result.rate / _LN2,
        "multipliers": {"nu": cert.nu, "mu": cert.mu},
        "residuals": {"distortion": result.residuals[0], "perception": result.residuals[1]},
        "solver": {"iterations": result.multiplier_iterations, "notes": list(result.notes)},
        "allocation": rows,
    }


_FLAT_FIELDS = ["D", "P", "region", "rate_nats", "rate_bits", "nu", "mu",
                "residual_d", "residual_p", "iterations",
                "index", "original_index", "q", "d", "p", "component_rate_nats",
                "component_region"]


def _flat_rows(record) -> list[dict]:
    head = {
        "D": record["D"], "P": record["P"], "region": record["region"],
        "rate_nats": record["rate_nats"], "rate_bits": record["rate_bits"],
        "nu": record["multipliers"]["nu"], "mu": record["multipliers"]["mu"],
        "residual_d": record["residuals"]["distortion"],
        "residual_p": record["residuals"]["perception"],
        "iterations": record["solver"]["iterations"],
    }
    rows = []
    for comp in record["allocation"]:
        row = dict(head)
        row.update({
            "index": comp["index"], "original_index": comp["original_index"],
            "q": comp["q"], "d": comp["d"], "p": comp["p"],
            "component_rate_nats": comp["rate_nats"],
            "component_region": comp["region"],
        })
        rows.append(row)
    return rows


def _emit_records(records, args, out):
    if args.format == "csv":
        rows = []
        for rec in records:
            rows.extend(_flat_rows(rec))
        _emit_csv(rows, _FLAT_FIELDS, out)
    else:
        for rec in records:
            _emit_json(rec, out)


# ---------------------------------------------------------------------------
# commands


def cmd_eval(args, out) -> int:
    src = _source_from(args)
    budget = BudgetPair(args.D, args.P)
    result = rdp(src, budget, budget_rtol=args.tol)
    _emit_records([_base_record(src, budget, result)], args, out)
    return EXIT_OK


def cmd_curve(args, out) -> int:
    src = _source_from(args)
    if args.count < 1:
        raise DomainError("--count must be >= 1")
    if args.start > args.stop:
        raise DomainError("--start must be <= --stop")
    values = np.linspace(args.start, args.stop, args.count)
    records = []
    rates = []
    failed = False
    for v in values:
        D, P = (float(v), args.P) if args.axis == "D" else (args.D, float(v))
        try:
            budget = BudgetPair(D, P)
            result = rdp(src, budget, budget_rtol=args.tol)
            records.append(_base_record(src, budget, result))
            rates.append(result.rate)
        except (DomainError, ConvergenceError) as exc:
            failed = True
            records.append({"D": D, "P": P, "error":
                            {"type": type(exc).__name__, "message": str(exc)}})
            rates.append(None)
    if args.format == "csv":
        rows = []
        for rec in records:
            if "error" in rec:
                rows.append({"D": rec["D"], "P": rec["P"],
                             "region": f"error: {rec['error']['message']}"})
            else:
                rows.extend(_flat_rows(rec))
        _emit_csv(rows, _FLAT_FIELDS, out)
    else:
        for rec in records:
            _emit_json(rec, out)
    if args.self_check:
        clean = [r for r in rates if r is not None]
        for prev, cur in zip(clean, clean[1:]):
            if cur > prev + 1e-9:
                raise VerificationFailure(
                    f"self-check: rate increased along the {args.axis} axis "
                    f"({prev:.12g} -> {cur:.12g})")
    return EXIT_CONVERGENCE if failed else EXIT_OK


def cmd_region(args, out) -> int:
    src = _source_from(args)
    d_vals = np.linspace(args.d_min, args.d_max, args.d_count)
    p_vals = np.linspace(args.p_min, args.p_max, args.p_count)
    q_eff_sum = float(np.minimum(src.q, 0.5).sum())
    cells = []
    for D in d_vals:
        for P in p_vals:
            cells.append({"kind": "cell", "D": float(D), "P": float(P),
                          "region": classify(src, BudgetPair(float(D), float(P)))})
    boundaries = []
    for D in d_vals:
        t_val = t_of_d(src, float(D)) if D < q_eff_sum else None
        s_val = s_of_d(src, float(D)).value if D >= q_eff_sum else None
        boundaries.append({"kind": "boundary", "D": float(D), "T": t_val, "S": s_val})
    if args.self_check:
        for row in boundaries:
            if row["T"] is not None:
                got = classify(src, BudgetPair(row["D"], row["T"]))
                if got != "A":
                    raise VerificationFailure(
                        f"self-check: classify(D, T(D)) = {got} != A at D={row['D']:.12g}")
            if row["S"] is not None:
                got = classify(src, BudgetPair(row["D"], row["S"]))
                if got != "B":
                    raise VerificationFailure(
                        f"self-check: classify(D, S(D)) = {got} != B at D={row['D']:.12g}")
    if args.format == "csv":
        fields = ["kind", "D", "P", "region", "T", "S"]
        _emit_csv(cells + boundaries, fields, out)
    else:
        for rec in cells + boundaries:
            _emit_json(rec, out)
    return EXIT_OK


def cmd_graph(args, out) -> int:
    if args.matrix is None:
        raise DomainError("graph needs --matrix")
    try:
        with open(args.matrix, "rb") as fh:
            matrix = load_matrix(fh)
    except OSError as exc:
        raise DomainError(f"cannot read --matrix {args.matrix!r}: {exc.strerror or exc}") from exc
    budget = BudgetPair(args.D, args.P)
    gres = graph_rdp(matrix, budget)
    result = gres.result
    record = {
        "n_vertices": matrix.n_vertices,
        "D": budget.D,
        "P": budget.P,
        "region": result.region,
        "rate_nats": result.rate,
        "rate_bits": result.rate / _LN2,
        "multipliers": {"nu": result.certificate.nu, "mu": result.certificate.mu},
        "residuals": {"distortion": result.residuals[0],
                      "perception": result.residuals[1]},
        "solver": {"iterations": result.multiplier_iterations,
                   "notes": list(result.notes)},
        "edges": [{"i": i, "j": j, "q": q, "d": d, "p": p, "rate_nats": r}
                  for i, j, q, d, p, r in zip(*(a.tolist() for a in (
                      gres.i, gres.j, gres.q, gres.d, gres.p, gres.edge_rate)))],
    }
    if args.format == "csv":
        fields = ["i", "j", "q", "d", "p", "rate_nats", "total_rate_nats", "region"]
        rows = [{"i": e["i"], "j": e["j"], "q": e["q"], "d": e["d"], "p": e["p"],
                 "rate_nats": e["rate_nats"], "total_rate_nats": record["rate_nats"],
                 "region": record["region"]} for e in record["edges"]]
        _emit_csv(rows, fields, out)
    else:
        _emit_json(record, out)
    return EXIT_OK


def cmd_bounds(args, out) -> int:
    src = _source_from(args)
    budget = BudgetPair(args.D, args.P)
    result = rdp(src, budget, budget_rtol=args.tol)
    lower, upper = length_bounds(result.rate)
    record = {"D": budget.D, "P": budget.P, "rate_nats": result.rate,
              "lower_bits": lower, "upper_bits": upper, "region": result.region}
    if args.format == "csv":
        _emit_csv([record], ["D", "P", "rate_nats", "lower_bits", "upper_bits", "region"], out)
    else:
        _emit_json(record, out)
    return EXIT_OK


def cmd_verify(args, out) -> int:
    src = _source_from(args)
    scalar_grid = GridSpec(args.grid_resolution or 400, args.refine_rounds if args.refine_rounds is not None else 3)
    vector_grid = GridSpec(args.grid_resolution or 200, args.refine_rounds if args.refine_rounds is not None else 2)
    report = {"n": src.n, "stages": {}}
    ok = True

    d_pts = np.linspace(0.0, 0.6, args.budget_count)
    p_pts = np.linspace(0.0, 0.6, args.budget_count)
    worst = 0.0
    for q in sorted(set(src.q.tolist())):
        for D in d_pts:
            for P in p_pts:
                oracle, _ = scalar_channel_oracle(q, float(D), float(P), scalar_grid)
                worst = max(worst, abs(oracle - scalar_rdp(float(D), float(P), q)))
    stage = {"max_deviation": worst, "tolerance": args.scalar_tol, "pass": worst <= args.scalar_tol}
    ok = ok and stage["pass"]
    report["stages"]["scalar_channel"] = stage

    if not args.scalar_only:
        if src.n > 3:
            raise SizeError("vector oracle verification needs n <= 3 (use --scalar-only)")
        caps = float((2.0 * src.q * (1.0 - src.q)).sum())
        sum_q = float(src.q.sum())
        worst = 0.0
        for D in np.linspace(0.0, 1.1 * caps, args.budget_count):
            for P in np.linspace(0.0, 1.1 * sum_q, args.budget_count):
                oracle, _ = allocation_grid_oracle(src, BudgetPair(float(D), float(P)), vector_grid)
                worst = max(worst, abs(oracle - rdp(src, (float(D), float(P))).rate))
        stage = {"max_deviation": worst, "tolerance": args.vector_tol, "pass": worst <= args.vector_tol}
        ok = ok and stage["pass"]
        report["stages"]["vector_allocation"] = stage

        worst = 0.0
        for D in np.linspace(sum_q, caps, args.budget_count):
            oracle = s_of_d_oracle(src, float(D), vector_grid)
            worst = max(worst, abs(oracle - s_of_d(src, float(D)).value))
        stage = {"max_deviation": worst, "tolerance": args.vector_tol, "pass": worst <= args.vector_tol}
        ok = ok and stage["pass"]
        report["stages"]["s_curve"] = stage

    report["pass"] = ok
    if args.format == "csv":
        rows = [{"stage": name, **vals} for name, vals in report["stages"].items()]
        _emit_csv(rows, ["stage", "max_deviation", "tolerance", "pass"], out)
    else:
        _emit_json(report, out)
    if not ok:
        raise VerificationFailure("oracle verification exceeded tolerance")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    tol_default = float(os.environ.get("BERNRDP_TOL", "1e-8"))
    parser = argparse.ArgumentParser(
        prog="bernrdp",
        description="Rate-distortion-perception functions of Bernoulli vector "
                    "sources and Erdos-Renyi graphs.")
    parser.add_argument("--version", action="version", version=f"bernrdp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", help="inline q list '0.3,0.1' or a JSON file with {\"q\": [...]}")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--tol", type=float, default=tol_default,
                        help="budget residual tolerance (env BERNRDP_TOL)")

    p = sub.add_parser("eval", parents=[common], help="evaluate one (D, P) point")
    p.add_argument("-D", type=float, required=True)
    p.add_argument("-P", type=float, required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("curve", parents=[common], help="sweep rate along one axis")
    p.add_argument("--axis", choices=("D", "P"), required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("-D", type=float, default=0.0, help="fixed D for a P sweep")
    p.add_argument("-P", type=float, default=0.0, help="fixed P for a D sweep")
    p.add_argument("--self-check", action="store_true",
                   help="assert rates are non-increasing along the axis")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("region", parents=[common], help="map plane regions and boundaries")
    p.add_argument("--d-min", type=float, default=0.0)
    p.add_argument("--d-max", type=float, required=True)
    p.add_argument("--d-count", type=int, default=21)
    p.add_argument("--p-min", type=float, default=0.0)
    p.add_argument("--p-max", type=float, required=True)
    p.add_argument("--p-count", type=int, default=21)
    p.add_argument("--self-check", action="store_true",
                   help="assert the emitted boundaries classify as A / B")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("graph", parents=[common], help="RDP of an ER edge-probability matrix")
    p.add_argument("--matrix", required=True, help="JSON file with n_vertices and probs")
    p.add_argument("-D", type=float, required=True)
    p.add_argument("-P", type=float, required=True)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("bounds", parents=[common], help="one-shot code length bounds")
    p.add_argument("-D", type=float, required=True)
    p.add_argument("-P", type=float, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", parents=[common], help="cross-check against the oracles")
    p.add_argument("--scalar-only", action="store_true")
    p.add_argument("--grid-resolution", type=int, default=None)
    p.add_argument("--refine-rounds", type=int, default=None)
    p.add_argument("--budget-count", type=int, default=4)
    p.add_argument("--scalar-tol", type=float, default=2e-3)
    p.add_argument("--vector-tol", type=float, default=5e-3)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except DomainError as exc:
        _error(exc, EXIT_INPUT)
        return EXIT_INPUT
    except SizeError as exc:
        _error(exc, EXIT_SIZE)
        return EXIT_SIZE
    except ConvergenceError as exc:
        _error(exc, EXIT_CONVERGENCE)
        return EXIT_CONVERGENCE
    except VerificationFailure as exc:
        _error(exc, EXIT_VERIFY)
        return EXIT_VERIFY


def _error(exc: Exception, code: int) -> None:
    sys.stderr.write(json.dumps(
        {"error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code}}) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
