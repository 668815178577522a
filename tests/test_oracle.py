"""Brute-force oracles: direct channel search, allocation grid search, and
the zero-rate perception minimum."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bernrdp import (BudgetPair, DomainError, GridSpec, SizeError,
                     allocation_grid_oracle, normalize, oracle, rdp, s_of_d,
                     s_of_d_oracle, scalar_channel_oracle, scalar_rdp)

H2_03 = 0.610864302054893463


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            GridSpec(resolution=1, refinement_rounds=2)
        with pytest.raises(DomainError):
            GridSpec(resolution=200, refinement_rounds=-1)

    @pytest.mark.parametrize("kwargs", [
        {"resolution": 400.7}, {"resolution": math.nan}, {"resolution": math.inf},
        {"resolution": True}, {"resolution": "400"}, {"resolution": None},
        {"refinement_rounds": -0.5}, {"refinement_rounds": 2.5}, {"refinement_rounds": False},
        {"refinement_rounds": -math.inf}])
    def test_non_integral_values_raise_domain_error(self, kwargs):
        # the other field is valid, so the check reached is the one on kwargs
        with pytest.raises(DomainError):
            GridSpec(**{"resolution": 200, "refinement_rounds": 2, **kwargs})

    def test_fields_have_no_defaults(self):
        with pytest.raises(TypeError):
            GridSpec(400)

    def test_integral_values_are_kept(self):
        grid = GridSpec(np.int64(400), 3.0)
        assert grid == GridSpec(400, 3)
        assert type(grid.resolution) is int and type(grid.refinement_rounds) is int


class TestScalarChannelOracle:
    def test_zero_budgets_force_identity(self):
        rate, channel = scalar_channel_oracle(0.3, 0.0, 0.0, GridSpec(200, 1))
        assert rate == pytest.approx(H2_03, abs=1e-12)
        assert channel.a == 0.0 and channel.b == 0.0

    def test_saturated_distortion_zero_rate(self):
        rate, _ = scalar_channel_oracle(0.3, 0.45, 1.0, GridSpec(200, 1))
        assert rate == pytest.approx(0.0, abs=1e-9)

    def test_channel_feasible(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            q = rng.uniform(0.05, 0.5)
            D = rng.uniform(0.0, 0.6)
            P = rng.uniform(0.0, 0.6)
            _, ch = scalar_channel_oracle(q, D, P, GridSpec(100, 2))
            dist = (1 - q) * ch.a + q * ch.b
            gap = abs((1 - q) * ch.a - q * ch.b)
            assert dist <= D + 1e-12
            assert gap <= P + 1e-12

    def test_refinement_never_hurts(self):
        rng = np.random.default_rng(42)
        for _ in range(15):
            q = rng.uniform(0.05, 0.5)
            D = rng.uniform(0.0, 0.5)
            P = rng.uniform(0.0, 0.5)
            coarse, _ = scalar_channel_oracle(q, D, P, GridSpec(150, 0))
            fine, _ = scalar_channel_oracle(q, D, P, GridSpec(150, 3))
            assert fine <= coarse + 1e-15

    def test_matches_closed_form(self):
        rng = np.random.default_rng(43)
        for _ in range(25):
            q = rng.uniform(0.02, 0.5)
            D = rng.uniform(0.0, 0.6)
            P = rng.uniform(0.0, 0.6)
            oracle, _ = scalar_channel_oracle(q, D, P, GridSpec(400, 3))
            assert abs(oracle - scalar_rdp(D, P, q)) <= 2e-3

    def test_memory_bounded_by_block(self):
        # the full grid grows 16x from 400 to 1600 points per axis
        def peak(grid):
            tracemalloc.start()
            try:
                scalar_channel_oracle(0.3, 0.2, 0.1, grid)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(GridSpec(1600, 1)) < 4 * peak(GridSpec(400, 1))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            scalar_channel_oracle(0.7, 0.1, 0.1)
        with pytest.raises(DomainError):
            scalar_channel_oracle(0.3, -0.1, 0.1)
        with pytest.raises(DomainError, match="finite P"):
            scalar_channel_oracle(0.3, 0.1, math.inf)


class TestSearchShortcuts:
    @pytest.fixture
    def rounds(self):
        """The cells of each chunk the objective hands the driver, one list
        a round."""
        rounds = []
        refine = oracle._refine

        def counted(objective, *args, **kwargs):
            def round_objective(blocks, *axes):
                rounds.append([])
                for chunk in objective(blocks, *axes):
                    rounds[-1].append(chunk[2].size)
                    yield chunk
            return refine(round_objective, *args, **kwargs)

        with mock.patch.object(oracle, "_refine", counted):
            yield rounds

    def test_zero_rate_budget_stops_inside_round_0(self, rounds):
        rate, ch = scalar_channel_oracle(0.3, 0.6, 0.2, GridSpec(400, 3))
        assert rate == 0.0
        assert len(rounds) == 1 and sum(rounds[0]) < 400 * 400
        # the first feasible cell with a computed I <= 0 is an independent
        # channel, a + b = 1, near the start of that line's feasible part:
        # |(1-q)a - qb| = |a - q| <= 0.2 from a = 0.1 on
        assert ch.a + ch.b == pytest.approx(1.0, abs=1e-15)
        assert 0.1 <= ch.a <= 0.1 + 2 / 399

    def test_zero_rate_budget_in_the_first_rows_stops_in_the_first_block(self, rounds):
        # the independent channel a = 0, b = 1 meets both budgets, so row 0
        # holds a cell at 0; a round's first block is _BLOCK_CELLS // 16
        # cells, whole rows, and the search ends there
        rate, ch = scalar_channel_oracle(0.05, 0.6, 0.4, GridSpec(400, 3))
        assert rate == 0.0 and (ch.a, ch.b) == (0.0, 1.0)
        first_block = max(1, oracle._BLOCK_CELLS // 16 // 400) * 400
        assert len(rounds) == 1 and 0 < sum(rounds[0]) <= first_block

    def test_zero_distortion_evaluates_one_cell_a_round(self, rounds):
        rate, ch = scalar_channel_oracle(0.3, 0.0, 0.2, GridSpec(400, 3))
        assert rate == pytest.approx(H2_03, abs=1e-12)
        assert (ch.a, ch.b) == (0.0, 0.0)
        assert rounds == [[1]] * 4

    @pytest.mark.parametrize("qs, budget, cells", [([0.3, 0.1], (0.6, 0.2), 200 ** 2),
                                                   ([0.3, 0.25, 0.05], (0.9, 0.6), 24 ** 4)])
    def test_vector_zero_rate_budget_stops_inside_round_0(self, rounds, qs, budget, cells):
        assert allocation_grid_oracle(qs, budget, GridSpec(200, 2))[0] == 0.0
        assert len(rounds) == 1 and sum(rounds[0]) < cells

    def test_positive_rate_runs_every_round(self, rounds):
        scalar_channel_oracle(0.3, 0.2, 0.1, GridSpec(400, 3))
        assert len(rounds) == 4

    def test_refined_rounds_take_whole_blocks_from_their_first_row(self):
        # only round 0 starts small, where zero-rate searches stop: a refined
        # round's 400 rows take 40-row blocks, 10 of them, not 2 + 10 + 40...
        drawn = []
        blocks = oracle._blocks

        def counted(*args):
            drawn.append(0)
            for rows in blocks(*args):
                drawn[-1] += 1
                yield rows

        with mock.patch.object(oracle, "_blocks", counted):
            scalar_channel_oracle(0.3, 0.2, 0.1, oracle.SCALAR_GRID)
        assert len(drawn) == 4 and max(drawn[1:]) <= 10

    def test_p_zero_hands_the_driver_one_answer_a_round(self, rounds):
        # the first minimum of a round's tied cells, not blocks of them
        rate, _ = scalar_channel_oracle(0.35, 0.2, 0.0, oracle.SCALAR_GRID)
        assert rate > 0.0
        assert rounds == [[1]] * 4

    @pytest.mark.parametrize("q, D", [(0.35, 0.2), (0.3, 0.4), (0.5, 0.3)])
    def test_p_zero_evaluates_only_tied_cells(self, rounds, q, D):
        # at P = 0 the feasible cells are the ties u == v, a few per row: the
        # entropies see the 400-point axes and those cells, not a 2-D box
        seen = []
        xlogx = oracle._xlogx

        def counted(m):
            seen.append(np.size(m))
            return xlogx(m)

        with mock.patch.object(oracle, "_xlogx", counted):
            scalar_channel_oracle(q, D, 0.0, GridSpec(400, 3))
        assert 1 <= len(rounds) <= 4
        assert sum(seen) <= 6 * 400 * len(rounds)

    @pytest.mark.parametrize("qs", [[0.3, 0.1], [0.3, 0.25, 0.05]])
    def test_one_point_box_runs_one_round(self, rounds, qs):
        # at D = P = 0 every axis has zero width: a second round is the same cell
        rate, (d, p) = allocation_grid_oracle(qs, (0.0, 0.0), GridSpec(200, 2))
        assert rate == pytest.approx(sum(scalar_rdp(0.0, 0.0, v) for v in qs), abs=1e-12)
        assert not d.any() and not p.any()
        assert rounds == [[1]]


class TestAllocationGridOracle:
    def test_n1_collapses_to_scalar(self):
        rate, (d, p) = allocation_grid_oracle([0.3], (0.2, 0.05))
        assert rate == pytest.approx(scalar_rdp(0.2, 0.05, 0.3), abs=0.0)
        assert d[0] == 0.2 and p[0] == 0.05

    def test_equal_pair_prefers_symmetric_split(self):
        rate, (d, p) = allocation_grid_oracle([0.25, 0.25], (0.2, 0.1), GridSpec(200, 2))
        assert abs(d[0] - 0.1) <= 2e-3
        assert abs(p[0] - 0.05) <= 2e-3
        assert rate == pytest.approx(2 * scalar_rdp(0.1, 0.05, 0.25), abs=1e-5)

    def test_matches_solver_n2(self):
        src = normalize([0.3, 0.1])
        res = rdp(src, (0.1, 0.02))
        oracle, _ = allocation_grid_oracle(src, (0.1, 0.02), GridSpec(200, 2))
        assert abs(res.rate - oracle) <= 5e-3

    def test_matches_solver_n3(self):
        src = normalize([0.4, 0.25, 0.1])
        for budget in [(0.3, 0.1), (0.1, 0.02), (0.6, 0.3)]:
            res = rdp(src, budget)
            oracle, _ = allocation_grid_oracle(src, budget, GridSpec(200, 2))
            assert abs(res.rate - oracle) <= 5e-3

    def test_budget_split_sums(self):
        _, (d, p) = allocation_grid_oracle([0.3, 0.2, 0.1], (0.25, 0.08), GridSpec(64, 1))
        assert abs(float(d.sum()) - 0.25) <= 1e-12
        assert abs(float(p.sum()) - 0.08) <= 1e-12

    def test_size_error(self):
        with pytest.raises(SizeError):
            allocation_grid_oracle([0.1, 0.2, 0.3, 0.4], (0.2, 0.1))

    def test_infinite_perception_budget_rejected(self):
        with pytest.raises(DomainError, match="finite P"):
            allocation_grid_oracle([0.3, 0.1], (0.2, math.inf))


def _slack(S: float) -> float:
    return 1e-12 * max(1.0, S)


@st.composite
def s_of_d_cases(draw):
    """A raw source of n = 1-40 with ties, q at 0, 1e-300 and 1/2 and above
    1/2, and D at sum q, within ``DOMAIN_TOL`` below it, between it and
    sum 2q(1-q), at that sum, beyond it and above n.

    Free q keep 1 - 2q >= 2e-3.  Near 1/2, S's slope 1/(1 - 2q) turns a
    rounding of D into that many times more perception, so the LP and
    ``s_of_d`` round apart by more than the slack there;
    ``test_near_half_within_the_conditioning`` bounds them by that slope."""
    free = st.floats(0.0, 1.0).filter(lambda x: abs(x - 0.5) >= 1e-3)
    n = draw(st.integers(1, 40))
    raw = draw(st.lists(st.one_of(st.sampled_from([0.0, 1e-300, 0.5, 1.0]), free),
                        min_size=n, max_size=n))
    ties = draw(st.integers(0, n - 1))
    raw[1:1 + ties] = [raw[0]] * ties
    src = normalize(raw)
    sum_q, caps = float(src.q.sum()), float((2.0 * src.q * (1.0 - src.q)).sum())
    f = draw(st.floats(0.0, 1.0))
    D = draw(st.sampled_from([sum_q, sum_q - 0.5 * f * oracle.DOMAIN_TOL,
                              sum_q + (caps - sum_q) * f, caps, caps * (1.0 + f),
                              n * (1.0 + f)]))
    return raw, D


class TestSOfDOracle:
    def test_plateau_is_zero(self):
        caps = 2 * 0.3 * 0.7 + 2 * 0.1 * 0.9
        assert s_of_d_oracle([0.3, 0.1], caps) == 0.0

    def test_left_endpoint(self):
        assert s_of_d_oracle([0.3, 0.1], 0.4) == pytest.approx(0.4, abs=1e-15)

    def test_worked_value(self):
        assert s_of_d_oracle([0.3, 0.1], 0.5) == pytest.approx(0.15, abs=1e-15)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(44)
        for n in (1, 2, 3):
            for _ in range(8):
                src = normalize(rng.uniform(0.05, 0.48, n))
                sum_q = float(src.q.sum())
                caps = float((2 * src.q * (1 - src.q)).sum())
                D = float(rng.uniform(sum_q, caps))
                S = s_of_d(src, D).value
                assert abs(s_of_d_oracle(src, D) - S) <= _slack(S)

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(s_of_d_cases())
    def test_linear_program_is_the_closed_form(self, case):
        raw, D = case
        S = s_of_d(raw, D).value
        assert abs(s_of_d_oracle(raw, D) - S) <= _slack(S), (raw, D)

    @pytest.mark.parametrize("q", [0.4999, 0.49999999, 0.4999999999, 0.49999999999999994])
    def test_near_half_within_the_conditioning(self, q):
        # a rounding of D, eps times its size, moves S by 1/(1 - 2q) times it
        raw = [q, 0.3, 1.0 - q, 0.1, 0.0]
        src = normalize(raw)
        sum_q, caps = float(src.q.sum()), float((2.0 * src.q * (1.0 - src.q)).sum())
        for D in np.linspace(sum_q, caps, 7):
            S = s_of_d(raw, float(D)).value
            bound = _slack(S) + 8.0 * np.finfo(float).eps * caps / (1.0 - 2.0 * q)
            assert abs(s_of_d_oracle(raw, float(D)) - S) <= bound, D

    def test_grid_is_ignored(self):
        # the benchmark's checks pass the vector grid positionally
        for raw in ([0.3, 0.1], [0.05, 0.25, 0.45], [0.7, 0.25, 0.05]):
            src = normalize(raw)
            sum_q, caps = float(src.q.sum()), float((2.0 * src.q * (1.0 - src.q)).sum())
            for D in np.linspace(sum_q, caps, 5).tolist():
                assert s_of_d_oracle(raw, D, GridSpec(200, 2)) == s_of_d_oracle(raw, D)

    def test_box_collapsed_to_a_point(self):
        # at D = sum q the grid's distortion box was the single split d = q,
        # where D - d1 - d2 rounded a hair below q3
        src = normalize([0.05, 0.25, 0.45])
        assert abs(s_of_d_oracle(src, 0.75) - s_of_d(src, 0.75).value) <= _slack(0.75)

    def test_errors(self):
        # any n: four components are the closed form, not a SizeError
        S = s_of_d([0.1] * 4, 0.5).value
        assert abs(s_of_d_oracle([0.1] * 4, 0.5) - S) <= _slack(S)
        with pytest.raises(DomainError):
            s_of_d_oracle([0.3, 0.1], 0.1)
