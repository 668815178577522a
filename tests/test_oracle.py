"""Brute-force oracles: direct channel search, allocation grid search, and
the zero-rate perception minimum."""

import math
import tracemalloc

import numpy as np
import pytest

from bernrdp import (BudgetPair, DomainError, GridSpec, SizeError,
                     allocation_grid_oracle, normalize, rdp, s_of_d,
                     s_of_d_oracle, scalar_channel_oracle, scalar_rdp)

H2_03 = 0.610864302054893463


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            GridSpec(resolution=1)
        with pytest.raises(DomainError):
            GridSpec(refinement_rounds=-1)

    @pytest.mark.parametrize("kwargs", [
        {"resolution": 400.7}, {"resolution": math.nan}, {"resolution": math.inf},
        {"resolution": True}, {"resolution": "400"}, {"resolution": None},
        {"refinement_rounds": -0.5}, {"refinement_rounds": 2.5}, {"refinement_rounds": False},
        {"refinement_rounds": -math.inf}])
    def test_non_integral_values_raise_domain_error(self, kwargs):
        with pytest.raises(DomainError):
            GridSpec(**kwargs)

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


class TestSOfDOracle:
    def test_plateau_is_zero(self):
        caps = 2 * 0.3 * 0.7 + 2 * 0.1 * 0.9
        assert s_of_d_oracle([0.3, 0.1], caps) == 0.0

    def test_left_endpoint(self):
        assert s_of_d_oracle([0.3, 0.1], 0.4, GridSpec(200, 3)) == pytest.approx(0.4, abs=2e-3)

    def test_worked_value(self):
        assert s_of_d_oracle([0.3, 0.1], 0.5, GridSpec(200, 3)) == pytest.approx(0.15, abs=2e-3)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(44)
        for n in (1, 2, 3):
            for _ in range(8):
                src = normalize(rng.uniform(0.05, 0.48, n))
                sum_q = float(src.q.sum())
                caps = float((2 * src.q * (1 - src.q)).sum())
                D = float(rng.uniform(sum_q, caps))
                oracle = s_of_d_oracle(src, D, GridSpec(200, 3))
                assert abs(oracle - s_of_d(src, D).value) <= 2e-3

    def test_box_collapsed_to_a_point(self):
        # at D = sum q the distortion box is the single split d = q, where
        # D - d1 - d2 rounds a hair below q3
        src = normalize([0.05, 0.25, 0.45])
        assert s_of_d_oracle(src, 0.75) >= s_of_d(src, 0.75).value - 1e-9

    def test_errors(self):
        with pytest.raises(SizeError):
            s_of_d_oracle([0.1] * 4, 1.0)
        with pytest.raises(DomainError):
            s_of_d_oracle([0.3, 0.1], 0.1)
