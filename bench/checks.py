"""Checks of bernrdp outputs against the independent references.

Each check raises ``CheckFailed`` with a message naming what was wrong.
Library results carry full float64 values; CLI records carry floats at 12
significant digits, so their checks pass ``rounded=True`` and allow the
rounding on top of the solver's documented budget tolerance.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import reference as ref

#: bernrdp's documented default relative tolerance on |sum d - D|, |sum p - P|.
BUDGET_RTOL = 1e-8
#: Relative agreement required between a rate and its recomputation.
RATE_RTOL = 1e-9
#: Relative error of one 12-significant-digit CLI number.
DIGITS_12 = 1e-11
#: Budgets closer than this (relative) to a plane boundary are not classified.
EDGE_RTOL = 1e-9
#: Step of the pairwise transfer test, relative to the smaller share.
TRANSFER_STEP = 1e-4
#: Largest decrease of a two-component total a transfer may produce.
TRANSFER_TOL = 1e-12
#: How far a rate may exceed the scipy minimisation at n <= 3.
SCIPY_TOL = 1e-6
_LN2 = math.log(2.0)


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= atol + rtol * max(1.0, abs(a), abs(b))


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# one solution: q, budgets, region, rate and allocation


def check_solution(q, D: float, P: float, region: str, rate: float, d, p,
                   comp_rate=None, rounded: bool = False, full: bool = True) -> None:
    """Budgets, the recomputed rate and the region-specific optimality
    properties of one (D, P) solution.  ``q``, ``d``, ``p`` are aligned
    component arrays in any order.  ``full`` adds the pairwise transfer
    test and, at n <= 3, the scipy minimisation (region C only)."""
    q = ref.fold(q)
    d = np.asarray(d, dtype=float)
    p = np.asarray(p, dtype=float)
    n = q.size
    require(d.shape == (n,) and p.shape == (n,), f"allocation has {d.size} rows, source {n}")
    digits = DIGITS_12 if rounded else 0.0
    require(bool(np.all(d >= -1e-12) and np.all(d <= 1.0 + 1e-12)), "a distortion share lies outside [0, 1]")
    require(bool(np.all(p >= -1e-12)), "a perception share is negative")

    allowed_d = max(0.0, D - n) + BUDGET_RTOL * max(1.0, min(D, n)) + digits * n * max(1.0, D)
    require(abs(float(d.sum()) - D) <= allowed_d + 1e-15,
            f"distortion budget missed: sum d = {float(d.sum())!r}, D = {D!r}")
    if math.isfinite(P):
        allowed_p = BUDGET_RTOL * max(1.0, P) + digits * n * max(1.0, P)
        require(abs(float(p.sum()) - P) <= allowed_p + 1e-15,
                f"perception budget missed: sum p = {float(p.sum())!r}, P = {P!r}")

    per = ref.scalar_rate(d, p, q)
    slack = 1e-12 * n + digits * 10.0 * n
    if comp_rate is not None:
        comp_rate = np.asarray(comp_rate, dtype=float)
        bad = np.abs(comp_rate - per) > 1e-9 * np.maximum(1.0, per) + slack / max(n, 1) + 1e-12
        require(not bool(np.any(bad)), "a component rate differs from R(d_i, p_i, q_i)")
    total = float(per.sum())
    require(_close(rate, total, RATE_RTOL, slack),
            f"rate {rate!r} differs from the recomputed sum {total!r}")

    want, edge = ref.classify(q, D, P)
    if edge > EDGE_RTOL:
        require(region == want, f"region {region} but the reference T/S put (D, P) in {want}")
    if region == "A":
        classic = ref.classic_rate(q, D)
        require(_close(rate, classic, RATE_RTOL, slack),
                f"region A rate {rate!r} != water-filled rate {classic!r}")
    elif region == "B":
        require(abs(rate) <= 1e-12 + slack, f"region B rate {rate!r} is not 0")
    elif region == "C":
        lower = ref.classic_rate(q, D)
        upper = ref.rate_p_zero(q, D)
        tol = RATE_RTOL * max(1.0, upper) + slack
        require(lower - tol <= rate <= upper + tol,
                f"region C rate {rate!r} outside [R(D, inf), R(D, 0)] = [{lower!r}, {upper!r}]")
        if P == 0.0:
            require(_close(rate, upper, RATE_RTOL, slack),
                    f"P = 0 rate {rate!r} != 1-D bisection rate {upper!r}")
        if full:
            check_no_improving_transfer(q, d, p)
            if n <= 3 and P > 0.0:
                # one-sided: the allocation is already shown feasible with
                # this rate, and near S(D), where components sit on the
                # kinks of R, SLSQP stalls above the optimum
                best = ref.scipy_rate(q, D, P)
                require(rate <= best + SCIPY_TOL * max(1.0, rate),
                        f"rate {rate!r} is above the scipy minimum {best!r}")
    else:
        raise CheckFailed(f"unknown region label {region!r}")


def _pairs(n: int, limit: int = 48) -> np.ndarray:
    if n * (n - 1) // 2 <= limit:
        return np.array([(i, j) for i in range(n) for j in range(i + 1, n)], dtype=int).reshape(-1, 2)
    rng = np.random.default_rng(n)
    i = rng.integers(0, n, limit)
    j = (i + 1 + rng.integers(0, n - 1, limit)) % n
    return np.stack((i, j), axis=1)


def check_no_improving_transfer(q, d, p) -> None:
    """No small move of distortion and/or perception from one component to
    another lowers the two components' summed rate."""
    q, d, p = ref.fold(q), np.asarray(d, dtype=float), np.asarray(p, dtype=float)
    if q.size < 2:
        return
    pr = _pairs(q.size)
    i, j = pr[:, 0], pr[:, 1]
    hd = TRANSFER_STEP * np.minimum(d[i], d[j])
    hp = TRANSFER_STEP * np.where(np.minimum(p[i], p[j]) > 0.0, np.minimum(p[i], p[j]),
                                  np.maximum(p[i], p[j]))
    base = ref.scalar_rate(d[i], p[i], q[i]) + ref.scalar_rate(d[j], p[j], q[j])
    for sd, sp in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)):
        di, dj = d[i] + sd * hd, d[j] - sd * hd
        pi, pj = p[i] + sp * hp, p[j] - sp * hp
        ok = (di >= 0) & (dj >= 0) & (di <= 1) & (dj <= 1) & (pi >= 0) & (pj >= 0)
        moved = ref.scalar_rate(di, pi, q[i]) + ref.scalar_rate(dj, pj, q[j])
        drop = np.where(ok, base - moved, -np.inf)
        k = int(np.argmax(drop))
        require(drop[k] <= TRANSFER_TOL * max(1.0, base[k]),
                f"moving ({sd}, {sp}) steps between components {i[k]} and {j[k]} "
                f"lowers the rate by {drop[k]:.3g}")


# ---------------------------------------------------------------------------
# library results


def sorted_source(raw_q) -> np.ndarray:
    """Folded q in the solver's component order (non-increasing)."""
    return np.sort(ref.fold(raw_q))[::-1]


def check_rdp_result(raw_q, D: float, P: float, result, full: bool = True) -> None:
    alloc = result.allocation
    check_solution(sorted_source(raw_q), D, P, result.region, float(result.rate),
                   alloc.d, alloc.p, alloc.per_component_rate, full=full)
    require(float(alloc.total_rate) == float(result.rate), "allocation total differs from the rate")


def edge_arrays(rows) -> dict:
    count = len(rows)
    return {k: np.fromiter((getattr(e, k) for e in rows), dtype=float, count=count)
            for k in ("i", "j", "q", "d", "p", "rate")}


def check_edge_rows(probs: np.ndarray, cols: dict) -> None:
    """Rows cover each vertex pair i < j exactly once, with q equal to the
    matrix entry."""
    nv = probs.shape[0]
    i, j = cols["i"].astype(np.int64), cols["j"].astype(np.int64)
    want = nv * (nv - 1) // 2
    require(i.size == want, f"{i.size} edge rows for {want} vertex pairs")
    require(bool(np.all((0 <= i) & (i < j) & (j < nv))), "an edge row is not a pair i < j")
    key = np.unique(i * nv + j)
    require(key.size == want, "an edge row is repeated or missing")
    require(bool(np.all(np.abs(cols["q"] - probs[i, j]) <= 1e-12)), "an edge q differs from its matrix entry")


def check_graph_result(probs: np.ndarray, D: float, P: float, gres) -> None:
    cols = edge_arrays(gres.edges)
    check_edge_rows(probs, cols)
    result = gres.result
    require(float(gres.rate) == float(result.rate), "graph rate differs from the solver rate")
    check_solution(cols["q"], D, P, result.region, float(result.rate), cols["d"], cols["p"],
                   cols["rate"], full=False)


# ---------------------------------------------------------------------------
# CLI output


def _csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


#: record columns, and the row fields that hold them in JSON and in CSV
_COLS = ("index", "original_index", "q", "d", "p", "rate")
_FIELDS = {"json": ("index", "original_index", "q", "d", "p", "rate_nats"),
           "csv": ("index", "original_index", "q", "d", "p", "component_rate_nats")}


def _record(head: dict, cols: dict) -> dict:
    return {"D": float(head["D"]), "P": float(head["P"]), "region": head["region"],
            "rate_nats": float(head["rate_nats"]), "rate_bits": float(head["rate_bits"]),
            "cols": {k: np.asarray(v, dtype=float) for k, v in cols.items()}}


def cli_records(text: str, fmt: str, n: int):
    """Parse eval/curve output into one record per point, streaming, with
    the component rows as column arrays (so a 3000-component curve is not
    held as tens of thousands of dicts)."""
    if fmt == "json":
        for line in text.splitlines():
            if not line.strip():
                continue
            rec = json.loads(line)
            if "error" in rec:
                yield {"D": float(rec["D"]), "P": float(rec["P"]), "error": rec["error"]}
                continue
            rows = rec["allocation"]
            yield _record(rec, {c: [r[f] for r in rows] for c, f in zip(_COLS, _FIELDS["json"])})
        return
    reader = csv.reader(io.StringIO(text))
    at = {name: k for k, name in enumerate(next(reader))}
    where = [at[f] for f in _FIELDS["csv"]]
    head, cols = None, None
    for row in reader:
        if head is None:
            if row[at["region"]].startswith("error"):
                yield {"D": float(row[at["D"]]), "P": float(row[at["P"]]), "error": row[at["region"]]}
                continue
            head = {k: row[at[k]] for k in ("D", "P", "region", "rate_nats", "rate_bits")}
            cols = {c: [] for c in _COLS}
        for c, k in zip(_COLS, where):
            cols[c].append(float(row[k]))
        if len(cols["q"]) == n:
            yield _record(head, cols)
            head = None
    require(head is None, "a CSV record has fewer component rows than the source")


def check_cli_record(raw_q, D: float, P: float, rec: dict) -> None:
    """One eval/curve record against the references."""
    require("error" not in rec, f"record reports an error: {rec.get('error')}")
    require(_close(float(rec["D"]), D, DIGITS_12) and _close(float(rec["P"]), P, DIGITS_12),
            "record budgets differ from the requested ones")
    cols = rec["cols"]
    order = np.argsort(cols["index"], kind="stable")
    folded = ref.fold(raw_q)
    orig = cols["original_index"][order].astype(int)
    require(np.array_equal(np.sort(orig), np.arange(folded.size)), "allocation rows do not cover the source")
    q = folded[orig]
    require(bool(np.all(np.abs(cols["q"][order] - q) <= DIGITS_12)), "a row q differs from the input")
    rate = float(rec["rate_nats"])
    require(_close(float(rec["rate_bits"]), rate / _LN2, DIGITS_12 * 10), "rate_bits != rate_nats / ln 2")
    check_solution(q, D, P, rec["region"], rate, cols["d"][order], cols["p"][order],
                   cols["rate"][order], rounded=True, full=False)


def check_curve(raw_q, budgets: list[tuple[float, float]], records) -> None:
    rates, count = [], 0
    records = iter(records)
    for (D, P), rec in zip(budgets, records):
        check_cli_record(raw_q, D, P, rec)
        rates.append(float(rec["rate_nats"]))
        count += 1
    extra = sum(1 for _ in records)
    require(count == len(budgets) and extra == 0,
            f"{count + extra} curve records for {len(budgets)} points")
    for a, b in zip(rates, rates[1:]):
        require(b <= a + 1e-9 * max(1.0, a), f"curve rate rises from {a!r} to {b!r}")


def check_bounds(raw_q, D: float, P: float, rec: dict) -> None:
    q = ref.fold(raw_q)
    region, edge = ref.classify(q, D, P)
    rate = float(rec["rate_nats"])
    if edge > EDGE_RTOL:
        require(rec["region"] == region, f"bounds region {rec['region']} != reference {region}")
    if region == "A":
        want = ref.classic_rate(q, D)
    elif region == "B":
        want = 0.0
    else:
        raise CheckFailed("bounds workload points must lie in region A or B")
    require(_close(rate, want, RATE_RTOL, DIGITS_12 * q.size), f"bounds rate {rate!r} != {want!r}")
    lower = rate / _LN2
    require(_close(float(rec["lower_bits"]), lower, DIGITS_12 * 10), "lower_bits != rate / ln 2")
    require(_close(float(rec["upper_bits"]), lower + math.log2(lower + 1.0) + 5.0, DIGITS_12 * 10),
            "upper_bits != R_b + log2(R_b + 1) + 5")


def parse_bounds(text: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(text)
    (row,) = _csv(text)
    return row


def check_region(raw_q, d_vals, p_vals, text: str, fmt: str) -> None:
    """Cells agree with the reference T and S (except within EDGE_RTOL of a
    boundary); boundary rows carry the reference T(D) and S(D)."""
    q = ref.fold(raw_q)
    if fmt == "json":
        rows = [json.loads(line) for line in text.splitlines() if line.strip()]
    else:
        rows = _csv(text)
    cells = [r for r in rows if r["kind"] == "cell"]
    bounds = [r for r in rows if r["kind"] == "boundary"]
    require(len(cells) == len(d_vals) * len(p_vals), "region output has the wrong number of cells")
    require(len(bounds) == len(d_vals), "region output has the wrong number of boundary rows")
    budgets = [(D, P) for D in d_vals for P in p_vals]
    for (D, P), cell in zip(budgets, cells):
        want, edge = ref.classify(q, D, P)
        require(_close(float(cell["D"]), D, DIGITS_12) and _close(float(cell["P"]), P, DIGITS_12),
                "region cell budgets differ from the grid")
        if edge > EDGE_RTOL:
            require(cell["region"] == want, f"cell ({D!r}, {P!r}) is {cell['region']}, reference {want}")
    sum_q = float(q.sum())
    for D, row in zip(d_vals, bounds):
        t_val, s_val = row["T"], row["S"]
        if D < sum_q:
            require(t_val not in (None, "") and s_val in (None, ""), "boundary row fills the wrong curve")
            require(_close(float(t_val), ref.t_of_d(q, D), 1e-9), f"T({D!r}) differs from the reference")
        else:
            require(s_val not in (None, "") and t_val in (None, ""), "boundary row fills the wrong curve")
            require(_close(float(s_val), ref.s_of_d(q, D), 1e-9), f"S({D!r}) differs from the reference")


def graph_cli_columns(text: str, fmt: str) -> tuple[dict, dict]:
    """(header, edge columns) of a graph command's output."""
    if fmt == "json":
        rec = json.loads(text)
        edges = rec["edges"]
        head = {"region": rec["region"], "rate_nats": float(rec["rate_nats"])}
        get = lambda k: np.array([e[k] for e in edges], dtype=float)
        cols = {"i": get("i"), "j": get("j"), "q": get("q"), "d": get("d"), "p": get("p"),
                "rate": get("rate_nats")}
        return head, cols
    reader = csv.reader(io.StringIO(text))
    at = {name: k for k, name in enumerate(next(reader))}
    rows = list(reader)
    require(len(rows) > 0, "graph CSV has no rows")
    head = {"region": rows[0][at["region"]], "rate_nats": float(rows[0][at["total_rate_nats"]])}
    get = lambda k: np.array([float(r[at[k]]) for r in rows])
    cols = {"i": get("i"), "j": get("j"), "q": get("q"), "d": get("d"), "p": get("p"),
            "rate": get("rate_nats")}
    return head, cols


def check_graph_cli(probs: np.ndarray, D: float, P: float, text: str, fmt: str) -> None:
    head, cols = graph_cli_columns(text, fmt)
    check_edge_rows(probs, cols)
    check_solution(cols["q"], D, P, head["region"], head["rate_nats"], cols["d"], cols["p"],
                   cols["rate"], rounded=True, full=False)


# ---------------------------------------------------------------------------
# verify


#: verify's default tolerances by stage
VERIFY_TOL = {"scalar_channel": 2e-3, "vector_allocation": 5e-3, "s_curve": 5e-3}


def parse_verify(text: str, fmt: str) -> tuple[int | None, dict, bool]:
    """(n or None in CSV, stages, overall pass flag) of a verify report."""
    if fmt == "json":
        rep = json.loads(text)
        return rep["n"], rep["stages"], rep["pass"]
    stages = {r["stage"]: {"max_deviation": float(r["max_deviation"]),
                           "tolerance": float(r["tolerance"]),
                           "pass": r["pass"] == "True"} for r in _csv(text)}
    return None, stages, all(s["pass"] for s in stages.values())


def check_verify(text: str, fmt: str, code: int, n: int, scalar_only: bool) -> bool:
    """A verify report is self-consistent: the expected stages, each pass
    flag equal to max_deviation <= tolerance, the overall flag their
    conjunction and the exit code 0 exactly when it passes.  Returns the
    overall pass flag."""
    got_n, stages, overall = parse_verify(text, fmt)
    require(got_n in (None, n), f"verify reports n = {got_n}, source has {n}")
    want = {k: v for k, v in VERIFY_TOL.items() if k == "scalar_channel" or not scalar_only}
    require(set(stages) == set(want), f"verify stages {sorted(stages)} != {sorted(want)}")
    for name, stage in stages.items():
        dev = float(stage["max_deviation"])
        require(math.isfinite(dev) and dev >= 0.0, f"{name}: bad max_deviation {dev!r}")
        require(float(stage["tolerance"]) == want[name], f"{name}: tolerance {stage['tolerance']!r}")
        require(bool(stage["pass"]) == (dev <= want[name]), f"{name}: pass flag disagrees with the deviation")
    require(bool(overall) == all(bool(s["pass"]) for s in stages.values()), "overall pass flag is wrong")
    require(code == (0 if overall else 4), f"verify exit code {code} with pass = {overall}")
    return bool(overall)


def reference_rate(q, D: float, P: float) -> float:
    """The least total rate at (D, P): water-filled in A, 0 in B, and in C
    the scipy minimum (n <= 3)."""
    region, _ = ref.classify(q, D, P)
    if region == "A":
        return ref.classic_rate(q, D)
    if region == "B":
        return 0.0
    return ref.scipy_rate(q, D, P)


def oracle_deviations(oracle, raw_q, budget_count: int, scalar_only: bool) -> dict:
    """Call the library's oracles (the module ``oracle``) on the inputs
    ``bernrdp verify`` uses, with its default grids.  Each answer must be
    feasible, carry the rate of its own channel or allocation, and lie no
    lower than the reference minimum.  Returns, per stage, (the largest
    excess over the reference, the input where it occurs)."""
    q_all = sorted_source(raw_q)
    out = {}
    grid = oracle.GridSpec(400, 3)
    worst = (0.0, None)
    pts = np.linspace(0.0, 0.6, budget_count)
    for q in sorted(set(q_all.tolist())):
        for D in pts:
            for P in pts:
                D, P = float(D), float(P)
                rate, ch = oracle.scalar_channel_oracle(q, D, P, grid)
                a, b = ch.a, ch.b
                require(0.0 <= a <= 1.0 and 0.0 <= b <= 1.0, f"channel ({a}, {b}) is not a channel")
                require((1 - q) * a + q * b <= D + 1e-12 and abs((1 - q) * a - q * b) <= P + 1e-12,
                        f"oracle channel ({a}, {b}) misses the budgets at q={q}, D={D}, P={P}")
                info = max(float(ref.channel_info(q, a, b)), 0.0)
                require(_close(rate, info, RATE_RTOL, 1e-12),
                        f"oracle rate {rate!r} != I(X; Xhat) {info!r} of its channel")
                best = float(ref.scalar_rate(D, P, q))
                require(rate >= best - 1e-9, f"oracle rate {rate!r} below R(D, P) = {best!r}")
                worst = max(worst, (rate - best, (q, D, P)), key=lambda t: t[0])
    out["scalar_channel"] = worst
    if scalar_only:
        return out
    grid = oracle.GridSpec(200, 2)
    n = q_all.size
    caps = float(np.sum(2 * q_all * (1 - q_all)))
    sum_q = float(q_all.sum())
    worst = (0.0, None)
    for D in np.linspace(0.0, 1.1 * caps, budget_count):
        for P in np.linspace(0.0, 1.1 * sum_q, budget_count):
            D, P = float(D), float(P)
            rate, (d, p) = oracle.allocation_grid_oracle(raw_q, (D, P), grid)
            d, p = np.asarray(d, dtype=float), np.asarray(p, dtype=float)
            require(d.shape == (n,) and p.shape == (n,), "oracle allocation has the wrong size")
            require(bool(np.all((d >= -1e-12) & (d <= 1 + 1e-12) & (p >= -1e-12))),
                    "oracle allocation leaves the box")
            require(abs(float(d.sum()) - min(D, n)) <= 1e-9 and abs(float(p.sum()) - P) <= 1e-9,
                    f"oracle allocation misses the budgets at D={D}, P={P}")
            total = float(ref.scalar_rate(d, p, q_all).sum())
            require(_close(rate, total, RATE_RTOL, 1e-12),
                    f"oracle rate {rate!r} != the recomputed sum {total!r}")
            best = reference_rate(q_all, D, P)
            require(rate >= best - 1e-9, f"oracle rate {rate!r} below the minimum {best!r}")
            worst = max(worst, (rate - best, (D, P)), key=lambda t: t[0])
    out["vector_allocation"] = worst
    worst = (0.0, None)
    for D in np.linspace(sum_q, caps, budget_count):
        value = float(oracle.s_of_d_oracle(raw_q, float(D), grid))
        best = ref.s_of_d(q_all, float(D))
        require(value >= best - 1e-9, f"oracle S({D!r}) = {value!r} below the reference {best!r}")
        worst = max(worst, (value - best, float(D)), key=lambda t: t[0])
    out["s_curve"] = worst
    return out


def check_verify_run(out, oracle, raw_q, budget_count: int, scalar_only: bool, fmt: str) -> dict:
    """A verify report is consistent and each stage's max_deviation is the
    one recomputed from the oracles' answers.  Returns the recomputed
    deviations (see ``oracle_deviations``)."""
    check_verify(out.out, fmt, out.code, len(raw_q), scalar_only)
    _, stages, _ = parse_verify(out.out, fmt)
    devs = oracle_deviations(oracle, raw_q, budget_count, scalar_only)
    for name, (dev, _) in devs.items():
        reported = float(stages[name]["max_deviation"])
        require(abs(reported - dev) <= 1e-6,
                f"{name}: max_deviation {reported!r}, recomputed {dev!r}")
    return devs


def require_within_tolerance(devs: dict) -> None:
    for name, (dev, where) in devs.items():
        require(dev <= VERIFY_TOL[name],
                f"{name}: an oracle answer lies {dev:.3g} above the reference minimum at {where}")


def line_search_p_zero(q: float, D: float, points: int = 200_001) -> float:
    """min I(X; Xhat) over binary channels on the P = 0 line (1-q)a = qb
    with distortion (1-q)a + qb <= D, by a dense search along the line
    that includes the line's crossing of the distortion limit."""
    q = float(ref.fold(q))
    a_max = min(1.0, q / (1.0 - q))
    a = np.append(np.linspace(0.0, a_max, points), min(a_max, D / (2.0 * (1.0 - q))))
    b = (1.0 - q) * a / q
    ok = (1.0 - q) * a + q * b <= D
    return float(np.min(np.where(ok, ref.channel_info(q, a, b), np.inf)))
