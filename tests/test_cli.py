"""Command-line interface: record contents, formats, exit codes, determinism."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernrdp import (ConvergenceError, GraphRdpResult, classify, cli, normalize, oracle, rdp,
                     s_of_d, scalar_rdp, t_of_d)
from bernrdp.cli import main
from bernrdp.solver import BUDGET_RTOL

TERN_01_005_025 = 0.238077788518041652


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def exits_2(argv, capsys, needle):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "DomainError"
    assert needle in error["message"]


class TestEval:
    @pytest.mark.parametrize("q, D, P", [("0.3,0.1", "0.1", "1e-16"), ("0.3,0.1", "0.1", "2.8e-17"),
                                         ("0.3,0,0.5,0.12,0.8", "0.3", "1e-12")])
    def test_perception_budget_near_zero(self, capsys, q, D, P):
        code, out, _ = run_cli(["eval", "--q", q, "-D", D, "-P", P], capsys)
        assert code == 0
        _, at_zero, _ = run_cli(["eval", "--q", q, "-D", D, "-P", "0"], capsys)
        assert json.loads(out)["rate_nats"] == json.loads(at_zero)["rate_nats"]

    def test_equal_pair_record(self, capsys):
        code, out, _ = run_cli(["eval", "--q", "0.25,0.25", "-D", "0.2", "-P", "0.1"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["region"] == "C"
        assert rec["rate_nats"] == pytest.approx(2 * TERN_01_005_025, rel=1e-9)
        assert rec["rate_bits"] == pytest.approx(rec["rate_nats"] / math.log(2), rel=1e-12)
        assert len(rec["allocation"]) == 2
        assert rec["allocation"][0]["region"] == "U"

    def test_large_distortion_region_b(self, capsys):
        code, out, _ = run_cli(["eval", "--q", "0.3,0.1", "-D", "0.9", "-P", "0.2"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["region"] == "B"
        assert rec["rate_nats"] == 0.0

    def test_malformed_q_exits_2(self, capsys):
        code, out, err = run_cli(["eval", "--q", "1.2,0.3", "-D", "0.1", "-P", "0.1"], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"]["exit_code"] == 2

    def test_nan_q_exits_2(self, capsys):
        code, out, err = run_cli(["eval", "--q", "nan,0.2", "-D", "0.1", "-P", "0.1"], capsys)
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "DomainError"
        assert "entry 0 is nan" in error["message"]

    def test_missing_q_exits_2(self, capsys):
        # argparse requires --q, so the command never runs without it
        with pytest.raises(SystemExit) as exc:
            main(["eval", "-D", "0.1", "-P", "0.1"])
        assert exc.value.code == 2
        assert "--q" in capsys.readouterr().err

    def test_q_file_input(self, tmp_path, capsys):
        path = tmp_path / "source.json"
        path.write_text(json.dumps({"q": [0.25, 0.25]}))
        code, out, _ = run_cli(["eval", "--q", str(path), "-D", "0.2", "-P", "0.1"], capsys)
        assert code == 0
        assert json.loads(out)["rate_nats"] == pytest.approx(2 * TERN_01_005_025, rel=1e-9)

    @pytest.mark.parametrize("content, needle", [
        ('{"q": [0.1, "x"]}', "raw_q must be a real number or an array of them"),
        ('{"q": [0.1, 0.2', "cannot read --q file"),
        ('{"q": [[0.1], [0.2, 0.3]]}', "raw_q must be a real number or an array of them"),
        (None, "cannot read --q file"),
        ('{"q": [NaN, 0.2]}', "entry 0 is nan"),
        ('[0.1, 0.2]', 'expected a JSON object with a "q" list'),
        ('{"q": [0.1, "0.2"]}', "raw_q must be a real number or an array of them"),
    ], ids=["non_numeric", "invalid_json", "ragged", "directory", "nan", "list", "numeric_string"])
    def test_bad_q_file_exits_2(self, tmp_path, capsys, content, needle):
        path = tmp_path
        if content is not None:
            path = tmp_path / "source.json"
            path.write_text(content)
        exits_2(["eval", "--q", str(path), "-D", "0.2", "-P", "0.1"], capsys, needle)

    def test_q_neither_numbers_nor_file_exits_2(self, tmp_path, capsys):
        exits_2(["eval", "--q", str(tmp_path / "absent.json"), "-D", "0.2", "-P", "0.1"],
                capsys, "is neither a number list nor a file")

    def test_convergence_error_exits_3(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise ConvergenceError("no multipliers meet both budgets")

        monkeypatch.setattr(cli, "rdp", fail)
        code, out, err = run_cli(["eval", "--q", "0.3,0.1", "-D", "0.2", "-P", "0.05"], capsys)
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == {"type": "ConvergenceError", "exit_code": 3,
                                            "message": "no multipliers meet both budgets"}

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(["eval", "--q", "0.3,0.1", "-D", "0.2", "-P", "0.05",
                                "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("D,P,region,rate_nats")
        assert len(lines) == 3  # header + one row per component

    def test_env_tolerance_override(self, capsys, monkeypatch):
        monkeypatch.setenv("BERNRDP_TOL", "1e-6")
        code, out, _ = run_cli(["eval", "--q", "0.3,0.1", "-D", "0.2", "-P", "0.05"], capsys)
        assert code == 0


class TestCurve:
    def test_d_sweep_endpoints(self, capsys):
        code, out, _ = run_cli(["curve", "--q", "0.3,0.1", "--axis", "D",
                                "--start", "0", "--stop", "1", "--count", "5",
                                "-P", "0", "--self-check"], capsys)
        assert code == 0
        recs = json_lines(out)
        assert len(recs) == 5
        assert recs[0]["rate_nats"] == pytest.approx(0.935947275446341703, rel=1e-9)
        assert recs[-1]["rate_nats"] == 0.0

    def test_p_sweep_constant_in_region_a(self, capsys):
        code, out, _ = run_cli(["curve", "--q", "0.3,0.1", "--axis", "P",
                                "--start", "0.3", "--stop", "0.6", "--count", "4",
                                "-D", "0.1"], capsys)
        assert code == 0
        rates = [r["rate_nats"] for r in json_lines(out)]
        assert all(r == pytest.approx(rates[0], abs=1e-10) for r in rates)

    def test_count_one_matches_eval(self, capsys):
        code, out, _ = run_cli(["curve", "--q", "0.3,0.1", "--axis", "D",
                                "--start", "0.2", "--stop", "0.2", "--count", "1",
                                "-P", "0.05"], capsys)
        sweep_rec = json_lines(out)[0]
        code2, out2, _ = run_cli(["eval", "--q", "0.3,0.1", "-D", "0.2", "-P", "0.05"], capsys)
        assert sweep_rec == json.loads(out2)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_records_equal_per_point_eval(self, capsys, fmt):
        # five points in region C, then two in region A whose d and rates are
        # equal: columns that change and then repeat along the curve
        q = "0.3,0,0.5,0.12,0.8"
        code, out, _ = run_cli(["curve", "--q", q, "--axis", "P", "--start", "0", "--stop",
                                "0.3", "--count", "7", "-D", "0.4", "--format", fmt], capsys)
        assert code == 0
        evals = []
        for P in np.linspace(0.0, 0.3, 7).tolist():
            code, text, _ = run_cli(["eval", "--q", q, "-D", "0.4", "-P", repr(P),
                                     "--format", fmt], capsys)
            assert code == 0
            evals.append(text if fmt == "json" or not evals else text.split("\n", 1)[1])
        assert out == "".join(evals)

    def test_start_above_stop_exits_2(self, capsys):
        exits_2(["curve", "--q", "0.3,0.1", "--axis", "D", "--start", "1", "--stop", "0",
                 "--count", "3"], capsys, "--start must be <= --stop")

    def test_self_check_fails_on_a_rising_rate(self, capsys, monkeypatch):
        solve = cli.rdp
        monkeypatch.setattr(cli, "rdp", lambda src, budget, **kw: dataclasses.replace(
            solve(src, budget, **kw), rate=budget.D))
        code, out, err = run_cli(["curve", "--q", "0.3,0.1", "--axis", "D", "--start", "0",
                                  "--stop", "1", "--count", "3", "-P", "0", "--self-check"],
                                 capsys)
        assert code == 4
        assert len(json_lines(out)) == 3  # the curve is written before the check
        error = json.loads(err)["error"]
        assert error["type"] == "VerificationFailure"
        assert "rate increased along the D axis" in error["message"]

    def test_byte_identical_runs(self, capsys):
        argv = ["curve", "--q", "0.3,0.1", "--axis", "D",
                "--start", "0", "--stop", "0.6", "--count", "25", "-P", "0.05"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2


class TestRegion:
    def test_map_and_boundaries(self, capsys):
        code, out, _ = run_cli(["region", "--q", "0.3,0.1", "--d-max", "0.7",
                                "--d-count", "8", "--p-max", "0.5", "--p-count", "6",
                                "--self-check"], capsys)
        assert code == 0
        recs = json_lines(out)
        cells = [r for r in recs if r["kind"] == "cell"]
        bounds = [r for r in recs if r["kind"] == "boundary"]
        assert len(cells) == 48 and len(bounds) == 8
        assert {c["region"] for c in cells} == {"A", "B", "C"}
        for b in bounds:
            assert (b["T"] is None) != (b["S"] is None)

    def test_self_check_fails_on_a_misclassified_boundary(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "classify", lambda src, budget: "C")
        code, out, err = run_cli(["region", "--q", "0.3,0.1", "--d-max", "0.7", "--d-count", "3",
                                  "--p-max", "0.5", "--p-count", "2", "--self-check"], capsys)
        assert (code, out) == (4, "")
        error = json.loads(err)["error"]
        assert error["type"] == "VerificationFailure"
        assert "classify(D, T(D)) = C != A at D=0" in error["message"]

    def test_all_b_beyond_caps(self, capsys):
        code, out, _ = run_cli(["region", "--q", "0.3,0.1", "--d-min", "0.61",
                                "--d-max", "0.9", "--d-count", "4",
                                "--p-max", "0.5", "--p-count", "4"], capsys)
        cells = [r for r in json_lines(out) if r["kind"] == "cell"]
        assert all(c["region"] == "B" for c in cells)


def _captured(argv):
    """``main(argv)`` with stdout and stderr captured, outside pytest's
    per-test capture (hypothesis runs many examples in one test)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _cell_regions(out, fmt):
    if fmt == "json":
        return [r["region"] for r in json_lines(out) if r["kind"] == "cell"]
    return [row[3] for row in csv.reader(io.StringIO(out)) if row[0] == "cell"]


@st.composite
def _region_case(draw):
    """A source with ties, q = 0 and q = 1/2 likely, and a grid whose D
    passes through sum q or sum 2q(1-q) or starts above sum q, and whose
    P starts at T(D) or S(D) of one of its D."""
    base = draw(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 0.3, 0.1]),
                                   st.floats(0.0, 1.0)), min_size=1, max_size=3))
    raw = base + draw(st.lists(st.sampled_from(base), max_size=2))
    src = normalize(raw)
    sum_q = float((src.counts * src.run_q).sum())  # as the region test sums it
    caps = float((2.0 * src.q * (1.0 - src.q)).sum())
    kind = draw(st.sampled_from(["sum q", "caps", "above sum q", "any"]))
    if kind == "sum q":  # the middle of three points is sum q exactly
        d_grid = (0.0, 2.0 * sum_q, 3)
    elif kind == "caps":
        d_grid = (0.0, 2.0 * caps, draw(st.sampled_from([3, 5])))
    elif kind == "above sum q":
        d_min = sum_q + draw(st.floats(0.0, 1.0)) * (caps - sum_q)
        d_grid = (d_min, d_min + draw(st.floats(0.0, 1.0)), draw(st.integers(1, 4)))
    else:
        d_min = draw(st.floats(0.0, 2.0))
        d_grid = (d_min, d_min + draw(st.floats(0.0, 2.0)), draw(st.integers(1, 4)))
    D = float(draw(st.sampled_from(np.linspace(*d_grid).tolist())))
    p_min = draw(st.one_of(
        st.just(t_of_d(src, D) if D < sum_q else s_of_d(src, D).value),
        st.floats(0.0, 1.0)))
    p_grid = (p_min, p_min + draw(st.sampled_from([0.0, 0.1, 1.0])), draw(st.integers(1, 4)))
    return raw, d_grid, p_grid, draw(st.sampled_from(["json", "csv"]))


@settings(max_examples=150, deadline=None)
@given(_region_case())
def test_region_cells_equal_classify(case):
    raw, (d_min, d_max, d_count), (p_min, p_max, p_count), fmt = case
    argv = ["region", "--q", ",".join(map(repr, raw)), f"--d-min={d_min!r}",
            f"--d-max={d_max!r}", "--d-count", str(d_count), f"--p-min={p_min!r}",
            f"--p-max={p_max!r}", "--p-count", str(p_count), "--self-check", "--format", fmt]
    code, out, err = _captured(argv)
    assert code == 0, err
    src = normalize(raw)
    want = [classify(src, (D, P)) for D in np.linspace(d_min, d_max, d_count).tolist()
            for P in np.linspace(p_min, p_max, p_count).tolist()]
    assert _cell_regions(out, fmt) == want


@pytest.mark.parametrize("bounds, needle", [
    (["--d-min", "-0.5"], "D must be finite and >= 0, got -0.5"),
    (["--p-min", "-0.25"], "P must be >= 0, got -0.25"),
    (["--d-min", "-0.5", "--p-min", "-0.25"], "D must be finite and >= 0, got -0.5"),
    (["--d-min", "0.5", "--d-max", "-0.1", "--d-count", "3"], "D must be finite and >= 0, got -0.1"),
])
def test_region_negative_grid_exits_2(capsys, bounds, needle):
    argv = ["region", "--q", "0.3,0.1", "--d-max", "0.7", "--p-max", "0.5", *bounds]
    exits_2(argv, capsys, needle)


_CURVE = ["curve", "--q", "0.3,0.1", "--count", "3"]
_REGION = ["region", "--q", "0.3,0.1"]


@pytest.mark.parametrize("argv, needle", [
    (_CURVE + ["--axis", "P", "--start", "0", "--stop", "inf", "-D", "0.2"],
     "--stop must be finite; got inf"),
    (_CURVE + ["--axis", "D", "--start", "nan", "--stop", "1", "-P", "0.2"],
     "--start must be finite; got nan"),
    (_CURVE + ["--axis", "D", "--start=-1e308", "--stop", "1e308", "-P", "0.2"],
     "--stop - --start overflows"),
    (_REGION + ["--d-max", "0.5", "--p-max", "inf"], "--p-max must be finite; got inf"),
    (_REGION + ["--d-max", "inf", "--p-max", "0.3"], "--d-max must be finite; got inf"),
    (_REGION + ["--d-min", "nan", "--d-max", "0.5", "--p-max", "0.3"],
     "--d-min must be finite; got nan"),
    (_REGION + ["--d-max", "0.5", "--p-min=-inf", "--p-max", "0.3"],
     "--p-min must be finite; got -inf"),
    (_REGION + ["--d-min=-1e308", "--d-max", "1e308", "--p-max", "0.3"],
     "--d-max - --d-min overflows"),
    (_REGION + ["--d-max", "0.5", "--p-min=-1e308", "--p-max", "1e308"],
     "--p-max - --p-min overflows"),
])
def test_bad_grid_bound_exits_2_before_linspace(capsys, argv, needle):
    # linspace would turn each into nan points, with a RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exits_2(argv, capsys, needle)


class TestParser:
    ARGV = ["eval", "--q", "0.3,0.1", "-D", "0.2", "-P", "0.05"]
    #: the commands that read a budget tolerance
    SOLVING = {"eval": ARGV, "bounds": ["bounds", *ARGV[1:]],
               "curve": ["curve", "--q", "0.3,0.1", "--axis", "P", "--start", "0.05",
                         "--stop", "0.1", "--count", "2", "-D", "0.1"]}

    def test_tolerance_read_per_call(self, capsys, monkeypatch):
        monkeypatch.delenv("BERNRDP_TOL", raising=False)
        assert main(self.ARGV) == 0  # the parser exists from here on
        seen = []
        solve = cli.rdp
        monkeypatch.setattr(cli, "rdp", lambda *args, budget_rtol: (
            seen.append(budget_rtol), solve(*args, budget_rtol=budget_rtol))[1])
        for tol in ("1e-6", "1e-7"):
            monkeypatch.setenv("BERNRDP_TOL", tol)
            assert main(self.ARGV) == 0
        assert main([*self.ARGV, "--tol", "1e-5"]) == 0
        monkeypatch.delenv("BERNRDP_TOL")
        assert main(self.ARGV) == 0
        assert seen == [1e-6, 1e-7, 1e-5, BUDGET_RTOL]

    @pytest.mark.parametrize("argv", [
        ["curve", "--q", "0.3,0.1", "--axis", "P", "--start", "0.05", "--stop", "0.05",
         "--count", "1", "-D", "0.1"],
        ["bounds", "--q", "0.3,0.1", "-D", "0.2", "-P", "0.05"]], ids=["curve", "bounds"])
    def test_tolerance_reaches_rdp(self, capsys, monkeypatch, argv):
        seen = []
        solve = cli.rdp
        monkeypatch.setattr(cli, "rdp", lambda *args, budget_rtol: (
            seen.append(budget_rtol), solve(*args, budget_rtol=budget_rtol))[1])
        monkeypatch.setenv("BERNRDP_TOL", "1e-6")
        assert main(argv) == 0
        assert main([*argv, "--tol", "1e-5"]) == 0
        monkeypatch.delenv("BERNRDP_TOL")
        assert main(argv) == 0
        assert seen == [1e-6, 1e-5, BUDGET_RTOL]

    def test_each_command_takes_only_the_options_it_reads(self):
        commands = cli._parser()._subparsers._group_actions[0].choices
        options = {name: [action.option_strings[0] for action in parser._actions
                          if action.dest != "help"] for name, parser in commands.items()}
        assert options["graph"] == ["--format", "-D", "-P", "--matrix"]
        assert [name for name, opts in options.items() if "--q" in opts] == [
            "eval", "curve", "region", "bounds", "verify"]
        assert [name for name, opts in options.items() if "--tol" in opts] == [
            "eval", "curve", "bounds"]
        assert sum(map(len, options.values())) == 41

    @pytest.mark.parametrize("argv", [
        ["graph", "--matrix", "m.json", "-D", "0.2", "-P", "0.1", "--q", "0.3"],
        ["graph", "--matrix", "m.json", "-D", "0.2", "-P", "0.1", "--tol", "1e-6"],
        ["region", "--q", "0.3", "--d-max", "0.5", "--p-max", "0.5", "--tol", "1e-6"],
        ["verify", "--q", "0.3", "--scalar-only", "--tol", "1e-6"]],
        ids=["graph-q", "graph-tol", "region-tol", "verify-tol"])
    def test_option_a_command_does_not_read_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", list(SOLVING))
    def test_invalid_tolerance_exits_2(self, capsys, monkeypatch, command, tol):
        # at --tol 0 eval divided by zero, -1 and nan exited 3, and inf gave
        # R(D, 0) for a budget in region C
        argv = self.SOLVING[command]
        monkeypatch.delenv("BERNRDP_TOL", raising=False)
        exits_2([*argv, f"--tol={tol}"], capsys, "budget tolerance must be finite and > 0")
        monkeypatch.setenv("BERNRDP_TOL", tol)
        exits_2(argv, capsys, "budget tolerance must be finite and > 0")

    @pytest.mark.parametrize("command", list(SOLVING))
    def test_non_numeric_env_tolerance_exits_2(self, capsys, monkeypatch, command):
        argv = self.SOLVING[command]
        monkeypatch.setenv("BERNRDP_TOL", "abc")
        exits_2(argv, capsys, "BERNRDP_TOL must be a number; got 'abc'")

    def test_commands_without_tol_ignore_the_env_tolerance(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"n_vertices": 2, "probs": [[0.0, 0.3], [0.3, 0.0]]}))
        monkeypatch.setenv("BERNRDP_TOL", "abc")
        for argv in (["graph", "--matrix", str(path), "-D", "0.1", "-P", "0.05"],
                     ["region", "--q", "0.3,0.1", "--d-max", "0.5", "--p-max", "0.5"],
                     ["verify", "--q", "0.3", "--scalar-only", "--budget-count", "1",
                      "--grid-resolution", "50", "--refine-rounds", "0"]):
            assert run_cli(argv, capsys)[0] == 0

    def test_command_looked_up_per_call(self, capsys, monkeypatch):
        assert run_cli(self.ARGV, capsys)[0] == 0
        monkeypatch.setattr(cli, "cmd_eval", lambda args, out: out.write("replaced\n") and 7)
        assert run_cli(self.ARGV, capsys)[:2] == (7, "replaced\n")


class TestCounts:
    @pytest.mark.parametrize("argv, flag", [
        (["region", "--d-max", "0.5", "--p-max", "0.5", "--d-count", "-1"], "--d-count"),
        (["region", "--d-max", "0.5", "--p-max", "0.5", "--p-count", "-1"], "--p-count"),
        (["region", "--d-max", "0.5", "--p-max", "0.5", "--d-count", "0"], "--d-count"),
        (["verify", "--scalar-only", "--budget-count", "-1"], "--budget-count"),
        (["verify", "--scalar-only", "--budget-count", "0"], "--budget-count"),
        (["curve", "--axis", "D", "--start", "0", "--stop", "1", "--count", "-1"], "--count"),
    ])
    def test_count_below_one_exits_2(self, capsys, argv, flag):
        exits_2(argv + ["--q", "0.3,0.1"], capsys, f"{flag} must be >= 1")


class TestGraphCmd:
    def _write_matrix(self, tmp_path, probs, n):
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps({"n_vertices": n, "probs": probs}))
        return str(path)

    def test_homogeneous_matches_eval(self, tmp_path, capsys):
        probs = [[0.0, 0.25, 0.25], [0.25, 0.0, 0.25], [0.25, 0.25, 0.0]]
        path = self._write_matrix(tmp_path, probs, 3)
        code, out, _ = run_cli(["graph", "--matrix", path, "-D", "0.3", "-P", "0.15"], capsys)
        assert code == 0
        rec = json.loads(out)
        code2, out2, _ = run_cli(["eval", "--q", "0.25,0.25,0.25",
                                  "-D", "0.3", "-P", "0.15"], capsys)
        assert rec["rate_nats"] == json.loads(out2)["rate_nats"]
        assert len(rec["edges"]) == 3

    def test_graph_reads_the_arrays_not_the_rows(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        probs = np.triu(rng.uniform(0.0, 1.0, (5, 5)), 1)
        path = self._write_matrix(tmp_path, (probs + probs.T).tolist(), 5)
        for fmt in ("json", "csv"):
            argv = ["graph", "--matrix", path, "-D", "1.2", "-P", "0.3", "--format", fmt]
            want = run_cli(argv, capsys)
            rows = mock.PropertyMock(side_effect=AssertionError("edge rows were read"))
            with mock.patch.object(GraphRdpResult, "edges", new_callable=lambda: rows):
                assert run_cli(argv, capsys) == want
            assert want[0] == 0 and rows.call_count == 0

    def test_missing_matrix_flag_exits_2(self, capsys):
        # argparse requires --matrix, so the command never runs without it
        with pytest.raises(SystemExit) as exc:
            main(["graph", "-D", "1", "-P", "1"])
        assert exc.value.code == 2
        assert "--matrix" in capsys.readouterr().err

    def test_asymmetric_matrix_exit_2(self, tmp_path, capsys):
        path = self._write_matrix(tmp_path, [[0.0, 0.3], [0.4, 0.0]], 2)
        code, _, err = run_cli(["graph", "--matrix", path, "-D", "0.1", "-P", "0.1"], capsys)
        assert code == 2
        assert "probs" in json.loads(err)["error"]["message"]

    def test_nan_matrix_exit_2(self, tmp_path, capsys):
        probs = [[0.0, 0.3, math.nan], [0.3, 0.0, 0.2], [math.nan, 0.2, 0.0]]
        path = self._write_matrix(tmp_path, probs, 3)
        exits_2(["graph", "--matrix", path, "-D", "0.1", "-P", "0.1"], capsys,
                      "probs must lie in [0, 1]; entry (0, 2) is nan")

    def test_numeric_string_probability_exit_2(self, tmp_path, capsys):
        path = self._write_matrix(tmp_path, [[0.0, "0.3"], ["0.3", 0.0]], 2)
        exits_2(["graph", "--matrix", path, "-D", "0.1", "-P", "0.1"], capsys,
                "probs must be a real number or an array of them")

    def test_undecodable_matrix_exit_2(self, tmp_path, capsys):
        path = tmp_path / "matrix.json"
        path.write_bytes(b'{"n_vertices": 2, "probs": [[0.0, 0.3], [0.3, 0.0]]}\xff')
        exits_2(["graph", "--matrix", str(path), "-D", "0.1", "-P", "0.1"], capsys,
                "not valid JSON")

    def test_missing_matrix_file_exit_2(self, tmp_path, capsys):
        path = str(tmp_path / "missing.json")
        exits_2(["graph", "--matrix", path, "-D", "0.1", "-P", "0.1"], capsys,
                      "missing.json")

    def test_ragged_matrix_exit_2(self, tmp_path, capsys):
        path = self._write_matrix(tmp_path, [[0.0, 0.3], [0.3]], 2)
        exits_2(["graph", "--matrix", path, "-D", "0.1", "-P", "0.1"], capsys,
                      "probs must be a real number or an array of them")

    def test_non_integer_vertex_count_exit_2(self, tmp_path, capsys):
        path = self._write_matrix(tmp_path, [[0.0, 0.3], [0.3, 0.0]], "two")
        exits_2(["graph", "--matrix", path, "-D", "0.1", "-P", "0.1"], capsys,
                      "n_vertices must be an integer")

    def test_zero_distortion_entropy(self, tmp_path, capsys):
        probs = [[0.0, 0.2, 0.9], [0.2, 0.0, 0.5], [0.9, 0.5, 0.0]]
        path = self._write_matrix(tmp_path, probs, 3)
        code, out, _ = run_cli(["graph", "--matrix", path, "-D", "0", "-P", "0.5"], capsys)
        rec = json.loads(out)
        want = sum(-u * math.log(u) - (1 - u) * math.log(1 - u) for u in (0.2, 0.1, 0.5))
        assert rec["rate_nats"] == pytest.approx(want, rel=1e-9)


class TestBounds:
    def test_region_b_bounds(self, capsys):
        code, out, _ = run_cli(["bounds", "--q", "0.3,0.1", "-D", "0.9", "-P", "0.3"], capsys)
        rec = json.loads(out)
        assert (rec["lower_bits"], rec["upper_bits"]) == (0.0, 5.0)

    def test_bounds_identity(self, capsys):
        code, out, _ = run_cli(["bounds", "--q", "0.3,0.1", "-D", "0.1", "-P", "0.02"], capsys)
        rec = json.loads(out)
        lo, hi = rec["lower_bits"], rec["upper_bits"]
        assert lo <= hi
        assert hi - lo == pytest.approx(math.log2(lo + 1) + 5, rel=1e-9)


@pytest.mark.parametrize("argv, key", [(["eval", "--q", "0.3,0.1", "-D", "-0", "-P", "0.1"], "D"),
                                       (["bounds", "--q", "0.3,0.1", "-D", "0.1", "-P", "-0"], "P")])
def test_negative_zero_budget_prints_zero(capsys, argv, key):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and "-0.0" not in out
    assert math.copysign(1.0, json.loads(out)[key]) == 1.0


class TestVerify:
    def test_scalar_only_pass(self, capsys):
        code, out, _ = run_cli(["verify", "--q", "0.3", "--scalar-only",
                                "--grid-resolution", "200", "--refine-rounds", "2",
                                "--budget-count", "3"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["pass"] is True
        assert rec["stages"]["scalar_channel"]["pass"] is True

    def test_vector_stages(self, capsys):
        code, out, _ = run_cli(["verify", "--q", "0.3,0.1",
                                "--grid-resolution", "120", "--refine-rounds", "2",
                                "--budget-count", "3", "--scalar-tol", "5e-3",
                                "--vector-tol", "5e-3"], capsys)
        assert code == 0
        rec = json.loads(out)
        assert set(rec["stages"]) == {"scalar_channel", "vector_allocation", "s_curve"}
        assert rec["pass"] is True

    def test_s_curve_at_sum_q_does_not_exit_3(self, capsys):
        code, out, _ = run_cli(["verify", "--q", "0.05,0.25,0.45", "--budget-count", "2"],
                               capsys)
        assert code != 3
        assert "s_curve" in json.loads(out)["stages"]

    def test_n4_vector_exits_5(self, capsys):
        code, _, err = run_cli(["verify", "--q", "0.3,0.2,0.15,0.1",
                                "--budget-count", "2"], capsys)
        assert code == 5
        assert json.loads(err)["error"]["exit_code"] == 5

    def test_n4_vector_exits_5_before_any_oracle(self, capsys):
        with mock.patch.object(cli, "scalar_channel_oracle", side_effect=AssertionError):
            code, _, err = run_cli(["verify", "--q", "0.1,0.2,0.3,0.4"], capsys)
        assert code == 5
        assert json.loads(err)["error"]["exit_code"] == 5

    def test_n4_scalar_only_allowed(self, capsys):
        code, out, _ = run_cli(["verify", "--q", "0.3,0.2,0.15,0.1", "--scalar-only",
                                "--grid-resolution", "100", "--refine-rounds", "1",
                                "--budget-count", "2", "--scalar-tol", "2e-2"], capsys)
        assert code == 0

    @pytest.mark.parametrize("flag, value", [("--scalar-tol", "nan"), ("--scalar-tol", "-1"),
                                             ("--vector-tol", "nan"), ("--vector-tol", "-0.001")])
    def test_bad_tolerance_exits_2_before_any_oracle(self, capsys, flag, value):
        with mock.patch.object(cli, "scalar_channel_oracle", side_effect=AssertionError):
            exits_2(["verify", "--q", "0.3,0.1", "--budget-count", "2", flag, value],
                    capsys, flag)

    def test_impossible_tolerance_exits_4(self, capsys):
        code, out, err = run_cli(["verify", "--q", "0.3", "--scalar-only",
                                  "--grid-resolution", "50", "--refine-rounds", "0",
                                  "--budget-count", "2", "--scalar-tol", "1e-12"], capsys)
        assert code == 4
        assert json.loads(out)["pass"] is False

    def test_defaults_are_the_oracle_acceptance_settings(self, capsys):
        # each oracle returns the closed form, so every stage passes
        oracles = {"scalar_channel_oracle": lambda q, D, P, grid: (scalar_rdp(D, P, q), None),
                   "allocation_grid_oracle": lambda src, b, grid: (rdp(src, b).rate, None),
                   "s_of_d_oracle": lambda src, D: s_of_d(src, D).value}
        with contextlib.ExitStack() as stack:
            mocks = {name: stack.enter_context(mock.patch.object(cli, name, side_effect=fn))
                     for name, fn in oracles.items()}
            code, out, _ = run_cli(["verify", "--q", "0.3,0.1", "--budget-count", "2"], capsys)
        assert code == 0
        grids = {name: {call.args[-1] for call in m.call_args_list} for name, m in mocks.items()
                 if name != "s_of_d_oracle"}
        assert grids == {"scalar_channel_oracle": {oracle.SCALAR_GRID},
                         "allocation_grid_oracle": {oracle.VECTOR_GRID}}
        # the S(D) program is exact and takes no grid
        assert {(len(call.args), len(call.kwargs))
                for call in mocks["s_of_d_oracle"].call_args_list} == {(2, 0)}
        tols = {name: stage["tolerance"] for name, stage in json.loads(out)["stages"].items()}
        assert tols == {"scalar_channel": oracle.SCALAR_TOL, "vector_allocation": oracle.VECTOR_TOL,
                        "s_curve": oracle.VECTOR_TOL}

    @pytest.mark.parametrize("resolution", ["0", "1", "-3"])
    def test_resolution_below_two_exits_2_before_any_oracle(self, capsys, resolution):
        # 0 is a resolution like any other, not a request for the default
        with mock.patch.object(cli, "scalar_channel_oracle", side_effect=AssertionError):
            exits_2(["verify", "--q", "0.3", "--scalar-only", "--budget-count", "1",
                     "--grid-resolution", resolution], capsys, "resolution must be")

    def test_scalar_stage_asks_the_oracle_once_per_min_of_p_and_d(self, capsys):
        # at P >= D the oracle's answer is the P = D one, so a 4 x 4 grid of
        # budgets needs 1 + 2 + 3 + 4 oracle calls, none with P > D
        with mock.patch.object(cli, "scalar_channel_oracle",
                               wraps=oracle.scalar_channel_oracle) as spy:
            code, _, _ = run_cli(["verify", "--scalar-only", "--q", "0.3",
                                  "--budget-count", "4"], capsys)
        assert code == 0
        budgets = [call.args[1:3] for call in spy.call_args_list]
        assert len(budgets) == len(set(budgets)) == 10
        assert all(P <= D for D, P in budgets)

    @pytest.mark.parametrize("count", [2, 3, 5])
    @pytest.mark.parametrize("q", ["0.3", "0.35,0.2,0.05", "0.5,0.1,0"])
    def test_scalar_deviation_is_that_of_every_budget(self, capsys, q, count):
        grid = oracle.GridSpec(60, 1)
        want = 0.0
        pts = np.linspace(0.0, 0.6, count)
        for qi in sorted(set(normalize([float(v) for v in q.split(",")]).q.tolist())):
            for D in pts:
                for P in pts:
                    rate, _ = oracle.scalar_channel_oracle(qi, float(D), float(P), grid)
                    want = max(want, abs(rate - scalar_rdp(float(D), float(P), qi)))
        argv = ["verify", "--scalar-only", "--q", q, "--budget-count", str(count),
                "--grid-resolution", "60", "--refine-rounds", "1"]
        _, out, _ = run_cli(argv, capsys)
        # the report rounds to 12 significant digits
        assert json.loads(out)["stages"]["scalar_channel"]["max_deviation"] == float("%.12g" % want)
        _, out, _ = run_cli([*argv, "--format", "csv"], capsys)
        assert next(csv.DictReader(io.StringIO(out)))["max_deviation"] == "%.12g" % want
