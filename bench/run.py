"""Benchmark for bernrdp.

    python3 bench/run.py --workload solve-c --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed, then runs whole rounds of the
workload's operation list, one operation at a time in this single thread
(a closed loop with one caller).  Set-ups (a fresh import of ``bernrdp``
from ``src/`` plus warm-up operations) are spread through the run.  Every
set-up and operation is timed between two runs of a fixed calibration
block, and its time is scaled to the calibration's reference speed (see
``calibrate``).  Each output is checked against the references in
``reference.py``.  The last line printed is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  The result, and with
``--trace 1`` the spans, are also written under ``bench/out/``.
"""

from __future__ import annotations

import os

# One thread for BLAS and OpenMP, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy.optimize  # noqa: F401  (imported before set-up is timed)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from tracing import Tracer  # noqa: E402

#: Set-ups per untraced run, spread evenly through it; setup_s is their median.
SETUPS = 7
#: A tail percentile needs this many samples beyond it ...
TAIL_BEYOND = 10
#: ... and a run this many operations; below it the median stands alone.
TAIL_MIN_OPS = 40
#: The calibration block's time at the reference speed: a quiet 2.1 GHz
#: Xeon VM core, Python 3.11, numpy 2.4.  Reported times are scaled to it.
CAL_REF_NS = 1_250_000

PER_LAYER_MS = [
    "solver.solve_region_c", "solver.classify", "solver.water_fill", "solver.t_of_d",
    "solver.s_of_d", "solver.normalize", "solver.solve_region_a", "solver.solve_region_b",
    "solver.check_certificate", "solver.rdp", "core.scalar_rdp", "graph.load_matrix",
    "graph.flatten", "graph.graph_rdp", "oracle.scalar_channel_oracle",
    "oracle.allocation_grid_oracle", "oracle.s_of_d_oracle",
]
PER_LAYER_CALLS = [
    "solver.solve_region_c", "solver.classify", "solver.water_fill", "core.scalar_rdp",
    "oracle.scalar_channel_oracle", "oracle.allocation_grid_oracle", "oracle.s_of_d_oracle",
]

_CAL_X = np.linspace(0.01, 0.99, 3000)


def calibrate() -> float:
    """Median time, in ns, of seven runs of a fixed block of the kinds of
    work the program does: numpy calls on a 3000-element array, a Python
    float loop and float formatting.

    This host's speed drifts by up to 2x over tens of seconds, because
    other tenants share its cores.  Every step is timed between two
    calibrations, and its time is multiplied by CAL_REF_NS over their mean,
    so that a run measures the program rather than the host's mode.  The
    median of seven drops a block that a preemption lengthened."""
    times = []
    for _ in range(7):
        t0 = time.perf_counter_ns()
        s = 0.0
        for _ in range(30):
            s += float(np.log1p(_CAL_X).sum())
        for i in range(8000):
            s += i * 0.5
        _ = [f"{i * 0.1 + s:.12g}" for i in range(1500)]
        times.append(time.perf_counter_ns() - t0)
    return statistics.median(times)


def import_program():
    """Import bernrdp afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "bernrdp" or m.startswith("bernrdp.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    api = importlib.import_module("bernrdp")
    importlib.import_module("bernrdp.cli")
    where = Path(api.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"bernrdp was imported from {where}, not from {SRC}")
    return api


def set_up(plan):
    api = import_program()
    for warm in plan.warmup:
        warm(api)
    return api


def check_in_child(check, out, api) -> str | None:
    """Run ``check(out, api)`` in a forked child and return its failure
    message, or None.  The child's allocations never count towards this
    process's peak memory."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(rfd)
        try:
            check(out, api)
            msg = b""
        except CheckFailed as exc:
            msg = str(exc).encode()
        except BaseException as exc:  # a crashing check is a failed check
            msg = f"check raised {type(exc).__name__}: {exc}".encode()
        try:
            os.write(wfd, msg[:4000])
        finally:
            os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        msg = fh.read().decode()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        return msg or f"check process ended with status {status}"
    return msg or None


def run_steps(plan, rounds: int, setups: int, api=None, tracer=None, expect=None) -> dict:
    """Whole rounds of the plan's operations with ``setups`` set-ups spread
    through them (the first before any operation).

    Returns the raw time of every step (set-up or operation), the
    calibrations around them (``cals[i]`` before step i, ``cals[i + 1]``
    after it) and, for a traced run, each operation's self-time deltas.
    Round one's outputs are checked in a child process; later rounds must
    reproduce round one's digests, or ``expect``'s when given (then no
    check runs)."""
    ops = plan.ops
    total = rounds * len(ops)
    setup_at = {(i * total) // setups for i in range(setups)}
    steps, deltas, problems = [], [], []
    keys = dict(expect) if expect is not None else {}
    failed = cli_bytes = 0
    if tracer is not None and api is not None:
        tracer.install(api)
    gc.collect()
    cals = [calibrate()]
    for idx in range(total):
        if idx in setup_at:
            t0 = time.perf_counter_ns()
            api = set_up(plan)
            steps.append(("setup", time.perf_counter_ns() - t0))
            if tracer is not None:
                tracer.install(api)
            gc.collect()
            cals.append(calibrate())
        k = idx % len(ops)
        op = ops[k]
        before = dict(tracer.self_ns) if tracer is not None else None
        t0 = time.perf_counter_ns()
        try:
            out = op.run(api)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        steps.append(("op", time.perf_counter_ns() - t0))
        if tracer is not None:
            deltas.append({name: v - before.get(name, 0) for name, v in tracer.self_ns.items()
                           if v != before.get(name, 0)})
        if isinstance(out, workloads.CliOut):
            cli_bytes += len(out.out)
        is_failed = isinstance(out, Exception) or workloads.failed(out)
        if is_failed:
            failed += 1
            if not op.known_failure:
                print(f"operation failed: {op.label}: {_describe(out)}", file=sys.stderr)
        if not isinstance(out, Exception) and not (is_failed and not op.known_failure):
            key = op.key(out)
            if k not in keys:
                keys[k] = key
                problem = check_in_child(op.check, out, api)
                if problem:
                    problems.append(f"{op.label}: {problem}")
            elif key != keys[k]:
                problems.append(f"{op.label}: output differs from round one")
        del out
        gc.collect()  # no step pays for its predecessor's garbage
        cals.append(calibrate())
    return {"steps": steps, "cals": cals, "deltas": deltas, "failed": failed,
            "problems": problems, "cli_bytes": cli_bytes, "keys": keys, "api": api}


def scaled(res: dict) -> tuple[list[float], list[float], list[float]]:
    """(set-up ns, operation ns, factors of the operations), each step's
    raw time multiplied by CAL_REF_NS over the mean of its calibrations."""
    setup_ns, op_ns, factors = [], [], []
    cals = res["cals"]
    for i, (kind, raw) in enumerate(res["steps"]):
        factor = CAL_REF_NS / (0.5 * (cals[i] + cals[i + 1]))
        if kind == "setup":
            setup_ns.append(raw * factor)
        else:
            op_ns.append(raw * factor)
            factors.append(factor)
    return setup_ns, op_ns, factors


def _describe(out) -> str:
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}"
    return f"exit {out.code}: {out.err.strip()[:300]}"


def tail(lat_ms: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it, or the median when the run is too short for a tail."""
    xs = sorted(lat_ms)
    n = len(xs)
    if n < TAIL_MIN_OPS:
        return statistics.median(xs), 50.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(setup_ns: list[float], op_ns: list[float], peak_mb: float) -> tuple[dict, dict]:
    lat_ms = [v / 1e6 for v in op_ns]
    value, pct = tail(lat_ms)
    metrics = {
        "setup_s": {"value": statistics.median(setup_ns) / 1e9, "unit": "s"},
        "ops_per_s": {"value": len(op_ns) / (sum(op_ns) / 1e9), "unit": "1/s"},
        "op_ms_p50": {"value": statistics.median(lat_ms), "unit": "ms"},
        "op_ms_tail": {"value": value, "unit": "ms"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    return metrics, {"tail_percentile": pct, "samples": len(lat_ms)}


def per_layer(tracer: Tracer, self_ns: dict, cli_bytes: int) -> tuple[dict, list]:
    """The per-layer metrics from a tracer's wrapped names and calls and
    the (scaled) self times ``self_ns``; names whose function no longer
    exists are listed as absent."""
    metrics, absent = {}, []
    for name in PER_LAYER_MS:
        if name in tracer.wrapped:
            metrics[f"{name}.self_ms"] = {"value": self_ns.get(name, 0) / 1e6, "unit": "ms"}
        else:
            absent.append(f"{name}.self_ms")
    for name in PER_LAYER_CALLS:
        if name in tracer.wrapped:
            metrics[f"{name}.calls"] = {"value": tracer.calls.get(name, 0), "unit": "count"}
        else:
            absent.append(f"{name}.calls")
    if "solver.rdp" in tracer.wrapped:
        iters = tracer.counts.get("solver.multiplier_iterations", 0)
        c_results = tracer.counts.get("solver.c_results", 0)
        metrics["solver.multiplier_iterations"] = {"value": iters, "unit": "count"}
        metrics["solver.iterations_per_c_solve"] = {
            "value": iters / c_results if c_results else 0.0, "unit": "count"}
        metrics["solver.snapped_results"] = {
            "value": tracer.counts.get("solver.snapped_results", 0), "unit": "count"}
    else:
        absent += ["solver.multiplier_iterations", "solver.iterations_per_c_solve",
                   "solver.snapped_results"]
    if "graph.graph_rdp" in tracer.wrapped:
        metrics["graph.edges"] = {"value": tracer.counts.get("graph.edges", 0), "unit": "count"}
    else:
        absent.append("graph.edges")
    cli_ns = sum(v for k, v in self_ns.items() if k.split(".", 1)[0] == "cli")
    metrics["cli.self_ms"] = {"value": cli_ns / 1e6, "unit": "ms"}
    metrics["cli.output_bytes"] = {"value": cli_bytes, "unit": "count"}
    return metrics, absent


def traced_run(plan, rounds: int) -> tuple[dict, dict, dict, list]:
    """An untraced pass, then as many rounds again with the tracer
    installed, each pass half the run's rounds (at least one); the
    per-layer metrics come from the second pass and the overhead is its
    ops/s against the first's."""
    rounds = max(1, rounds // 2)
    plain = run_steps(plan, rounds, setups=1)
    tracer = Tracer()
    traced = run_steps(plan, rounds, setups=0, api=plain["api"], tracer=tracer,
                       expect=plain["keys"])
    _, plain_ns, _ = scaled(plain)
    _, traced_ns, factors = scaled(traced)
    self_ns: dict = {}
    for delta, factor in zip(traced["deltas"], factors):
        for name, v in delta.items():
            self_ns[name] = self_ns.get(name, 0.0) + v * factor
    metrics, absent = per_layer(tracer, self_ns, traced["cli_bytes"])
    plain_rate = len(plain_ns) / (sum(plain_ns) / 1e9)
    traced_rate = len(traced_ns) / (sum(traced_ns) / 1e9)
    info = {"absent": absent, "trace": {
        "ops_per_s": traced_rate, "untraced_ops_per_s": plain_rate,
        "traced_to_untraced": traced_rate / plain_rate,
        "covered_pct": 100.0 * sum(self_ns.values()) / sum(traced_ns),
        "unscaled_op_s": sum(raw for kind, raw in traced["steps"] if kind == "op") / 1e9,
        "spans": len(tracer.spans)}}
    res = {"failed": plain["failed"] + traced["failed"],
           "problems": plain["problems"] + traced["problems"],
           "attempted": len(plain_ns) + len(traced_ns)}
    return metrics, info, res, tracer.spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bernrdp" / "__init__.py").is_file():
        print(f"error: no bernrdp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    rounds = workloads.rounds_for(args.workload, args.seconds)
    try:
        build, _ = workloads.WORKLOADS[args.workload]
        plan = build(args.seed, False, work)
        if args.trace:
            metrics, info, res, spans = traced_run(plan, rounds)
        else:
            res = run_steps(plan, rounds, setups=SETUPS)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setup_ns, op_ns, factors = scaled(res)
            metrics, info = end_to_end(setup_ns, op_ns, peak_mb)
            raw_ops = [raw for kind, raw in res["steps"] if kind == "op"]
            per_op = len(plan.ops)
            info["unscaled"] = {
                "ops_per_s": len(raw_ops) / (sum(raw_ops) / 1e9),
                "op_ms_p50": statistics.median(raw_ops) / 1e6,
                "setup_s": statistics.median(raw for kind, raw in res["steps"]
                                             if kind == "setup") / 1e9,
                "calibration_ms_median": statistics.median(res["cals"]) / 1e6}
            info["op_ms"] = {op.label: round(statistics.median(op_ns[k::per_op]) / 1e6, 3)
                             for k, op in enumerate(plan.ops)}
            res["attempted"] = len(op_ns)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": not res["problems"], "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}
    info.update(workload=args.workload, seed=args.seed, rounds=rounds,
                ops_per_round=len(plan.ops), python=sys.version.split()[0],
                numpy=np.__version__, scipy=scipy.__version__)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({**result, "info": info}, indent=1) + "\n")
    if args.trace:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
