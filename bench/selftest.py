"""Tests of the benchmark itself: every check rejects a deliberately wrong
output, the tracer attributes time to layers, and every workload runs to
its end at a reduced size.

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from tracing import Tracer  # noqa: E402

RAW = np.array([0.42, 0.73, 0.12])  # one entry above 1/2 exercises the flip


@pytest.fixture(scope="module")
def api():
    return run.import_program()


def _budget_c(q):
    D = 0.5 * float(q.sum())
    return D, 0.5 * ref.t_of_d(q, D)


@pytest.fixture(scope="module")
def c_result(api):
    D, P = _budget_c(ref.fold(RAW))
    return D, P, api.rdp(RAW, (D, P))


def _with_alloc(result, **changes):
    alloc = dataclasses.replace(result.allocation, **changes)
    return dataclasses.replace(result, allocation=alloc)


# ---------------------------------------------------------------------------
# references


def test_references_agree_with_scipy_and_linprog():
    from scipy.optimize import linprog

    q = ref.fold(RAW)
    s, caps = float(q.sum()), float(np.sum(2 * q * (1 - q)))
    for D in (s, s + 0.3 * (caps - s), s + 0.9 * (caps - s)):
        # S(D) as a linear program over (d, p): min sum p on the zero-rate set
        n = q.size
        c = np.concatenate((np.zeros(n), np.ones(n)))
        a_ub = np.hstack((-np.eye(n), -np.diag(1 - 2 * q)))
        b_ub = -2 * q * (1 - q)
        bounds = [(qi, 1.0) for qi in q] + [(0.0, None)] * n
        lp = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=[np.concatenate((np.ones(n), np.zeros(n)))],
                     b_eq=[D], bounds=bounds)
        assert ref.s_of_d(q, D) == pytest.approx(lp.fun, abs=1e-9)
    D = 0.5 * s
    assert ref.rate_p_zero(q, D) == pytest.approx(ref.scipy_rate(q, D, 0.0), abs=1e-7)
    assert ref.classic_rate(q, D) <= ref.scipy_rate(q, D, 0.5 * ref.t_of_d(q, D)) <= ref.rate_p_zero(q, D)


def test_line_search_matches_formula_at_p_zero():
    assert checks.line_search_p_zero(0.35, 0.2) == pytest.approx(0.158992, abs=1e-6)
    assert float(ref.scalar_rate(0.2, 0.0, 0.35)) == pytest.approx(0.158992, abs=1e-6)


# ---------------------------------------------------------------------------
# each check rejects a wrong output


def test_correct_result_passes(c_result):
    D, P, res = c_result
    checks.check_rdp_result(RAW, D, P, res)


def test_shifted_rate_rejected(c_result):
    D, P, res = c_result
    bad = dataclasses.replace(res, rate=res.rate + 1e-6)
    with pytest.raises(CheckFailed, match="recomputed"):
        checks.check_rdp_result(RAW, D, P, bad)


def test_missed_budget_rejected(c_result):
    D, P, res = c_result
    with pytest.raises(CheckFailed, match="distortion budget"):
        checks.check_rdp_result(RAW, D, P, _with_alloc(res, d=res.allocation.d * 1.001), full=False)
    with pytest.raises(CheckFailed, match="perception budget"):
        checks.check_rdp_result(RAW, D, P, _with_alloc(res, p=res.allocation.p * 0.999), full=False)


def test_suboptimal_split_rejected(c_result):
    """Budgets met and the rate recomputed, but the split is not optimal."""
    D, P, res = c_result
    q = checks.sorted_source(RAW)
    d = res.allocation.d.copy()
    d[0] += 1e-3
    d[1] -= 1e-3
    per = ref.scalar_rate(d, res.allocation.p, q)
    bad = dataclasses.replace(_with_alloc(res, d=d, per_component_rate=per, total_rate=float(per.sum())),
                              rate=float(per.sum()))
    with pytest.raises(CheckFailed, match="lowers the rate"):
        checks.check_rdp_result(RAW, D, P, bad)


def test_region_a_rate_must_be_water_filled():
    q = ref.fold(RAW)
    D = 0.7 * float(q.sum())
    P = 2.0 * ref.t_of_d(q, D)
    d = np.full(3, D / 3)  # meets D but is not water-filled
    p = np.full(3, P / 3)
    rate = float(ref.scalar_rate(d, p, q).sum())
    with pytest.raises(CheckFailed, match="water-filled"):
        checks.check_solution(q, D, P, "A", rate, d, p)


def test_region_b_rate_must_be_zero():
    q = ref.fold(RAW)
    s, caps = float(q.sum()), float(np.sum(2 * q * (1 - q)))
    D = s + 0.5 * (caps - s)
    with pytest.raises(CheckFailed):
        checks.check_solution(q, D, 1.0, "B", 0.01, q + (D - s) / 3, np.full(3, 1 / 3))


def _run_cli(api, argv):
    return workloads.cli(api, argv)


def test_cli_record_checks(api):
    q_arg = ",".join(repr(float(v)) for v in RAW)
    D, P = _budget_c(ref.fold(RAW))
    out = _run_cli(api, ["eval", "--q", q_arg, "-D", repr(D), "-P", repr(P)])
    (rec,) = checks.cli_records(out.out, "json", 3)
    checks.check_cli_record(RAW, D, P, rec)
    bad = dict(rec, rate_nats=rec["rate_nats"] + 1e-6)
    with pytest.raises(CheckFailed):
        checks.check_cli_record(RAW, D, P, bad)
    d = rec["cols"]["d"].copy()
    d[0] *= 1.01
    bad = dict(rec, cols=dict(rec["cols"], d=d))
    with pytest.raises(CheckFailed, match="budget"):
        checks.check_cli_record(RAW, D, P, bad)
    out = _run_cli(api, ["eval", "--q", q_arg, "-D", repr(D), "-P", repr(P), "--format", "csv"])
    (rec,) = checks.cli_records(out.out, "csv", 3)
    checks.check_cli_record(RAW, D, P, rec)


def test_non_monotone_curve_rejected(api):
    q_arg = ",".join(repr(float(v)) for v in RAW)
    caps = float(np.sum(2 * ref.fold(RAW) * (1 - ref.fold(RAW))))
    out = _run_cli(api, ["curve", "--q", q_arg, "--axis", "D", "--start", "0", "--stop", repr(caps),
                         "--count", "6", "-P", "0"])
    records = list(checks.cli_records(out.out, "json", 3))
    budgets = [(float(v), 0.0) for v in np.linspace(0.0, caps, 6)]
    checks.check_curve(RAW, budgets, records)
    with pytest.raises(CheckFailed, match="rises"):
        checks.check_curve(RAW, budgets[::-1], records[::-1])


def test_region_cell_checks(api):
    q_arg = ",".join(repr(float(v)) for v in RAW)
    argv = ["region", "--q", q_arg, "--d-max", "1.2", "--p-max", "0.4", "--d-count", "5",
            "--p-count", "5"]
    out = _run_cli(api, argv)
    d_vals = list(np.linspace(0, 1.2, 5))
    p_vals = list(np.linspace(0, 0.4, 5))
    checks.check_region(RAW, d_vals, p_vals, out.out, "json")
    lines = out.out.splitlines()
    for k, line in enumerate(lines):
        row = json.loads(line)
        if row["kind"] == "cell" and row["region"] == "C":
            row["region"] = "A"
            lines[k] = json.dumps(row)
            break
    with pytest.raises(CheckFailed, match="reference"):
        checks.check_region(RAW, d_vals, p_vals, "\n".join(lines), "json")


def test_dropped_or_wrong_edge_rows_rejected(api):
    probs = workloads._er_matrix(np.random.default_rng(5), 8, False)
    gres = api.graph_rdp(api.load_matrix(json.dumps({"n_vertices": 8, "probs": probs.tolist()})),
                         (3.0, 2.0))
    checks.check_graph_result(probs, 3.0, 2.0, gres)
    cols = checks.edge_arrays(gres.edges)
    short = {k: v[1:] for k, v in cols.items()}
    with pytest.raises(CheckFailed, match="edge rows"):
        checks.check_edge_rows(probs, short)
    dup = {k: np.concatenate((v[:1], v[:-1])) for k, v in cols.items()}
    with pytest.raises(CheckFailed, match="repeated or missing"):
        checks.check_edge_rows(probs, dup)
    wrong_q = dict(cols, q=cols["q"] + 1e-6)
    with pytest.raises(CheckFailed, match="matrix entry"):
        checks.check_edge_rows(probs, wrong_q)


def test_verify_report_checks():
    report = {"n": 2, "stages": {"scalar_channel": {"max_deviation": 1e-4, "tolerance": 2e-3,
                                                    "pass": True}}, "pass": True}
    assert checks.check_verify(json.dumps(report), "json", 0, 2, True)
    report["stages"]["scalar_channel"]["max_deviation"] = 3e-3
    with pytest.raises(CheckFailed, match="pass flag"):
        checks.check_verify(json.dumps(report), "json", 0, 2, True)
    report["stages"]["scalar_channel"]["pass"] = False
    report["pass"] = False
    with pytest.raises(CheckFailed, match="exit code"):
        checks.check_verify(json.dumps(report), "json", 0, 2, True)
    assert not checks.check_verify(json.dumps(report), "json", 4, 2, True)


def test_verify_deviation_must_match_the_oracles(api):
    qs = (0.25, 0.1)
    out = _run_cli(api, ["verify", "--q", "0.25,0.1", "--budget-count", "2"])
    devs = checks.check_verify_run(out, api.oracle, qs, 2, False, "json")
    checks.require_within_tolerance(devs)
    report = json.loads(out.out)
    report["stages"]["vector_allocation"]["max_deviation"] += 1e-4
    bad = dataclasses.replace(out, out=json.dumps(report))
    with pytest.raises(CheckFailed, match="recomputed"):
        checks.check_verify_run(bad, api.oracle, qs, 2, False, "json")


def _oracle_with(api, **changes):
    import types

    return types.SimpleNamespace(**{**vars(api.oracle), **changes})


def test_wrong_oracle_rejected(api):
    qs = (0.25, 0.1)
    real = api.oracle

    def formula_only(q, D, P, grid=None):  # skips the search: no channel behind the rate
        return float(api.scalar_rdp(D, P, q)), real.ScalarChannel(0.0, 0.0)

    def infeasible(q, D, P, grid=None):
        rate, ch = real.scalar_channel_oracle(q, D, P, grid)
        return rate, real.ScalarChannel(ch.a + 0.05, ch.b)

    def shifted(src, budget, grid=None):
        rate, alloc = real.allocation_grid_oracle(src, budget, grid)
        return rate + 1e-4, alloc

    def off_budget(src, budget, grid=None):
        rate, (d, p) = real.allocation_grid_oracle(src, budget, grid)
        return rate, (d, p * 0.5)

    def too_high(q, D, P, grid=None):  # a feasible but poor channel
        return float(ref.channel_info(q, 0.0, 0.0)), real.ScalarChannel(0.0, 0.0)

    cases = [(dict(scalar_channel_oracle=formula_only), "I\\(X; Xhat\\)"),
             (dict(scalar_channel_oracle=infeasible), "misses the budgets"),
             (dict(allocation_grid_oracle=shifted), "recomputed sum"),
             (dict(allocation_grid_oracle=off_budget), "misses the budgets")]
    for change, match in cases:
        with pytest.raises(CheckFailed, match=match):
            checks.oracle_deviations(_oracle_with(api, **change), qs, 2, False)
    devs = checks.oracle_deviations(_oracle_with(api, scalar_channel_oracle=too_high), qs, 2, True)
    with pytest.raises(CheckFailed, match="above the reference minimum"):
        checks.require_within_tolerance(devs)


def test_known_failure_is_the_oracle_at_p_zero(api):
    out = _run_cli(api, workloads.KNOWN_FAILURE)
    assert out.code == 4
    workloads._check_known_failure(out, api)
    dev, (q, D, P) = checks.oracle_deviations(api.oracle, workloads.KNOWN_FAILURE_Q, 4,
                                              True)["scalar_channel"]
    assert P == 0.0 and dev > 2e-3


# ---------------------------------------------------------------------------
# the run: checks in a child process, scaled times


def test_check_runs_in_a_child():
    assert run.check_in_child(lambda out, api: None, 1, None) is None
    assert run.check_in_child(lambda out, api: checks.require(out == 2, "boom"), 1, None) == "boom"
    assert "ValueError" in run.check_in_child(lambda out, api: int("x"), 1, None)


def test_steps_are_scaled_by_their_calibrations():
    ref_ns = run.CAL_REF_NS
    res = {"steps": [("setup", 10.0), ("op", 100.0), ("op", 30.0)],
           "cals": [ref_ns, ref_ns, 3 * ref_ns, ref_ns]}
    setup_ns, op_ns, factors = run.scaled(res)
    assert setup_ns == [10.0]
    assert op_ns == pytest.approx([50.0, 15.0])
    assert factors == pytest.approx([0.5, 0.5])


# ---------------------------------------------------------------------------
# tracing


def test_tracer_attributes_self_time(api):
    tracer = Tracer()
    tracer.install(api)
    try:
        D, P = _budget_c(ref.fold(RAW))
        api.rdp(RAW, (D, P))
        workloads.cli(api, ["bounds", "--q", "0.3,0.1", "-D", "0.1", "-P", "1"])
    finally:
        run.import_program()  # drop the wrapped modules
    assert tracer.calls["solver.rdp"] == 2
    assert tracer.calls["solver.solve_region_c"] == 1
    assert tracer.calls["cli.main"] == 1
    assert tracer.counts["solver.multiplier_iterations"] > 0
    for name, total in tracer.total_ns.items():
        assert 0 <= tracer.self_ns[name] <= total
    roots = sum(e - s for _, parent, s, e in tracer.spans if parent == -1)
    assert sum(tracer.self_ns.values()) == roots
    metrics, absent = run.per_layer(tracer, tracer.self_ns, 0)
    assert metrics["solver.solve_region_c.calls"]["value"] == 1
    assert absent == []


def test_removed_function_is_reported_absent(api):
    import bernrdp.solver as solver

    saved = solver.water_fill
    del solver.water_fill
    try:
        tracer = Tracer()
        tracer.install(api)
        metrics, absent = run.per_layer(tracer, tracer.self_ns, 0)
    finally:
        solver.water_fill = saved
        run.import_program()
    assert "solver.water_fill.self_ms" in absent
    assert "solver.water_fill.self_ms" not in metrics


# ---------------------------------------------------------------------------
# whole workloads at a reduced size


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_to_its_end(name, tmp_path):
    build, _ = workloads.WORKLOADS[name]
    plan = build(7, True, tmp_path)
    res = run.run_steps(plan, rounds=2, setups=2)
    assert res["problems"] == []
    known = sum(op.known_failure for op in plan.ops)
    assert res["failed"] == 2 * known
    kinds = [kind for kind, _ in res["steps"]]
    assert kinds.count("op") == 2 * len(plan.ops) and kinds.count("setup") == 2
    assert len(res["cals"]) == len(kinds) + 1


def test_traced_run_reports_layers_and_overhead(tmp_path):
    plan = workloads.plan_graph_ab(7, True, tmp_path)
    metrics, info, res, spans = run.traced_run(plan, rounds=1)
    assert res["problems"] == [] and res["attempted"] == 2 * len(plan.ops)
    assert metrics["graph.edges"]["value"] == sum(66 for _ in plan.ops)
    assert metrics["graph.graph_rdp.self_ms"]["value"] > 0
    assert 0.0 < info["trace"]["traced_to_untraced"] < 2.0
    assert info["absent"] == [] and spans


def test_inputs_follow_the_seed(tmp_path):
    a = workloads.plan_solve_c(3, True, tmp_path)
    b = workloads.plan_solve_c(3, True, tmp_path)
    c = workloads.plan_solve_c(4, True, tmp_path)
    args = lambda plan: [op.run.__defaults__ for op in plan.ops]
    same = lambda x, y: all(np.array_equal(u[0], v[0]) and u[1:] == v[1:] for u, v in zip(x, y))
    assert same(args(a), args(b))
    assert not same(args(a), args(c))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
