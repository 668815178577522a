"""Vector solver: normalization, boundary curves, the three region solvers,
dispatch, certificates, and length bounds.

Frozen reference values come from 30-digit mpmath evaluations of the
closed-form expressions; cross-checks against the brute-force oracles live
in test_oracle.py and the acceptance suite.
"""

import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bernrdp as br
from bernrdp import (BernRdpError, BudgetPair, ConvergenceError, DomainError, ScalarRegion,
                     classify, length_bounds, normalize, rdp, s_of_d, scalar_rdp,
                     solve_region_a, solve_region_b, solve_region_c, t_of_d,
                     water_fill)
from bernrdp.core import h2_arr, rd_boundary_arr
from bernrdp.solver import (_MULTIPLIER_MIN, _alpha_slope, _beta_gap, _bracketed_newton,
                            _component_dp, _perception_piece, _plane_boundary, _s_curve,
                            _s_shaped, _x_of_alpha)

H2_03 = 0.610864302054893463
SUM_H2_03_01 = 0.935947275446341703           # h2(0.3) + h2(0.1)
RATE_A_04_01 = 0.601064153708959563           # h2(0.4) + h2(0.1) - 2 h2(0.05)
RD_03_01 = 0.285781328663445224               # h2(0.3) - h2(0.1)
TERN_02_005_03 = 0.120227319891441581         # scalar ternary branch value
TERN_01_005_025 = 0.238077788518041652
D_PP_A05_Q025 = 0.298466032603525787          # p=0 distortion at alpha=0.5, q=0.25


def _ones(q):
    """Run lengths for the private kernels: every value is one component."""
    return np.ones(np.size(q), dtype=int)


def _regions(res) -> list[ScalarRegion]:
    """The certificate's component labels as ScalarRegion members."""
    return [tuple(ScalarRegion)[code] for code in res.certificate.component_regions]


def in_region_closure(d: float, p: float, q: float, region: ScalarRegion) -> bool:
    """The reference for the component labels: membership of (d, p) in the
    closure of a scalar region for parameter q, within 1e-9."""
    tol = 1e-9
    if region is ScalarRegion.EXTERIOR:
        return d <= tol
    if region is ScalarRegion.S:
        return -tol <= d <= q + tol and p >= rd_boundary_arr(min(d, q), q) - tol
    if region is ScalarRegion.T:
        return d >= q - tol and d >= 2.0 * q * (1.0 - q) - (1.0 - 2.0 * q) * p - tol
    if region is ScalarRegion.V:
        return abs(d - q) <= tol and p >= q - tol
    upper = 2.0 * q * (1.0 - q) - (1.0 - 2.0 * q) * min(p, q)
    lower = p / (1.0 - 2.0 * (q - p)) if p > 0.0 else 0.0
    return -tol <= p <= q + tol and lower - tol <= d <= upper + tol


def _rand_source(rng, n_lo=1, n_hi=5):
    n = int(rng.integers(n_lo, n_hi + 1))
    return normalize(rng.uniform(0.02, 0.5, n))


def _rand_budget(rng, src, d_span=1.2, p_span=1.2):
    caps = float((2 * src.q * (1 - src.q)).sum())
    D = float(rng.uniform(0.0, d_span * caps))
    P = float(rng.uniform(0.0, p_span * float(src.q.sum())))
    return BudgetPair(D, P)


class TestNormalize:
    def test_flip_and_sort(self):
        src = normalize([0.8, 0.1, 0.3])
        assert np.allclose(src.q, [0.3, 0.2, 0.1])
        assert src.flip_mask.tolist() == [True, False, False]
        assert np.allclose(src.raw(), [0.8, 0.1, 0.3])

    def test_half_not_flipped(self):
        src = normalize([0.5, 0.5])
        assert np.allclose(src.q, [0.5, 0.5])
        assert not src.flip_mask.any()

    def test_singleton(self):
        src = normalize([0.25])
        assert src.q.tolist() == [0.25]
        assert src.permutation.tolist() == [0]

    def test_round_trip_random(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            raw = rng.uniform(0.0, 1.0, int(rng.integers(1, 9)))
            assert np.allclose(normalize(raw).raw(), raw, atol=1e-15)

    def test_stable_permutation_for_ties(self):
        src = normalize([0.2, 0.8, 0.3])  # folds to [0.2, 0.2, 0.3]
        assert src.permutation.tolist() == [2, 0, 1]

    def test_domain_error(self):
        with pytest.raises(DomainError):
            normalize([1.2, 0.3])
        with pytest.raises(DomainError):
            normalize([])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError, match=r"entry 1 is (nan|inf|-inf)"):
            normalize([0.3, bad, 0.2])

    def test_nan_source_entry_rejected(self):
        with pytest.raises(DomainError, match=r"^q must lie in \[0, 0.5\]; entry 1 is nan$"):
            br.BernoulliVectorSource(q=np.array([0.3, math.nan]),
                                     flip_mask=np.zeros(2, dtype=bool),
                                     permutation=np.array([0, 1]))

    @pytest.mark.parametrize("q, match", [([], "at least one component"),
                                          ([0.1, 0.3], "sorted non-increasing")],
                             ids=["empty", "unsorted"])
    def test_source_needs_sorted_components(self, q, match):
        with pytest.raises(DomainError, match=match):
            br.BernoulliVectorSource(q=np.array(q), flip_mask=np.zeros(len(q), dtype=bool),
                                     permutation=np.arange(len(q)))

    @pytest.mark.parametrize("perm", [[0, 0, 2], [0, 1], [0, 1, 2, 3], [1, 2, 3]])
    def test_permutation_must_be_a_bijection(self, perm):
        with pytest.raises(DomainError, match="bijection"):
            br.BernoulliVectorSource(q=np.array([0.4, 0.3, 0.1]),
                                     flip_mask=np.zeros(3, dtype=bool),
                                     permutation=np.array(perm))

    def test_permutation_accepted(self):
        src = br.BernoulliVectorSource(q=np.array([0.4, 0.3, 0.1]),
                                       flip_mask=np.zeros(3, dtype=bool),
                                       permutation=np.array([2, 0, 1]))
        assert src.permutation.tolist() == [2, 0, 1]


#: Raw values for tie-heavy sources: 0, 1/2 and 1, exact complement pairs
#: (0.25 and 0.75 fold to equal values), 0.3 and 0.7 (which fold to
#: adjacent doubles, 0.3 and 0.30000000000000004), a signed zero and
#: values within the 1e-12 clip window.
TIE_POOL = [0.0, -0.0, 0.5, 1.0, 0.25, 0.75, 0.375, 0.625, 0.3, 0.7, 0.1, -1e-13, 1.0 + 1e-13]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(TIE_POOL), st.floats(0.0, 1.0)), min_size=1,
                max_size=60))
def test_normalize_matches_a_stable_sort_on_ties(raw):
    raw = np.array(raw)
    clipped = np.clip(raw, 0.0, 1.0)
    folded = np.where(clipped > 0.5, 1.0 - clipped, clipped)
    stable = np.argsort(-folded, kind="stable")
    src = normalize(raw)
    assert src.permutation.tobytes() == stable.tobytes()
    assert src.q.tobytes() == folded[stable].tobytes()
    assert src.raw().tobytes() == clipped.tobytes()
    # counts: the runs of equal q (0.0 and -0.0 are equal)
    assert np.array_equal(np.repeat(src.q[np.cumsum(src.counts) - src.counts], src.counts), src.q)
    assert np.all(src.q[np.cumsum(src.counts)[:-1]] < src.q[np.cumsum(src.counts)[:-1] - 1])


def _sort_check_rejects(perm, n):
    """The bijection test BernoulliVectorSource made before the O(n) check."""
    return not np.array_equal(np.sort(np.asarray(perm)), np.arange(n))


@pytest.mark.parametrize("perm", [
    [2, 0, 1], [2, 0, 0], [0, 1, 3], [0, -1, 2], [0, 1], [0, 1, 2, 3], [[0, 1, 2]],
    [2.0, 0.0, 1.0], [2.0, 0.5, 1.0], [0.0, math.nan, 2.0], [True, False, True],
    [-3, 0, 1], [1, 2, 3]])
def test_bijection_check_rejects_what_the_sort_check_rejected(perm):
    build = lambda: br.BernoulliVectorSource(q=np.array([0.4, 0.3, 0.1]),
                                             flip_mask=np.zeros(3, dtype=bool),
                                             permutation=np.array(perm))
    if _sort_check_rejects(perm, 3):
        with pytest.raises(DomainError, match="bijection"):
            build()
    else:
        assert build().permutation.tolist() == np.asarray(perm).astype(int).tolist()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(-2, n + 1), min_size=max(n - 1, 0), max_size=n + 1))))
def test_bijection_check_matches_the_sort_check(case):
    # repeated, out of range, negative and wrong-length index lists
    n, perm = case
    q = np.linspace(0.4, 0.1, n)
    try:
        br.BernoulliVectorSource(q=q, flip_mask=np.zeros(n, dtype=bool),
                                 permutation=np.array(perm, dtype=int))
        rejected = False
    except DomainError:
        rejected = True
    assert rejected == _sort_check_rejects(perm, n)


def _water_fill_scan(q: np.ndarray, D: float) -> np.ndarray:
    """Reference: water_fill as a Python scan over the saturation counts,
    kept to pin the vectorised version bit for bit.  The trailing q = 0
    components take no share of D, so the scan starts at the last q > 0."""
    q = np.asarray(q, dtype=float)
    total = float(q.sum())
    if D >= total:
        return q.copy()
    suffix = np.concatenate((np.cumsum(q[::-1])[::-1], [0.0]))  # suffix[m] = sum q[m:]
    for m in range(int(np.count_nonzero(q > 0.0)), 0, -1):
        level = (D - suffix[m]) / m
        low = q[m] if m < q.size else 0.0
        if low - 1e-15 <= level <= q[m - 1] + 1e-15:
            return np.minimum(max(level, 0.0), q)
    raise AssertionError("water level scan failed")


class TestWaterFill:
    def test_bitwise_equal_to_scan(self):
        rng = np.random.default_rng(36)
        sources = []
        for _ in range(150):
            n = int(rng.integers(1, 40))
            sources.append(np.sort(rng.uniform(0.0, 0.5, n))[::-1])          # random
            sources.append(np.sort(rng.choice([0.05, 0.2, 0.35, 0.5, 0.0],   # tied
                                              n))[::-1])
            sources.append(np.full(n, float(rng.uniform(0.01, 0.5))))         # all equal
        for q in sources:
            total = float(q.sum())
            budgets = [0.0, total] + rng.uniform(0.0, total, 4).tolist()
            budgets += [total * (1.0 - 1e-15), total * 1e-15]
            for D in budgets:
                got, want = water_fill(q, D), _water_fill_scan(q, D)
                assert got.tobytes() == want.tobytes(), (q, D)

    def test_exact_sum_and_caps(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            src = _rand_source(rng, 1, 6)
            D = float(rng.uniform(0.0, float(src.q.sum())))
            d = water_fill(src.q, D)
            assert abs(float(d.sum()) - D) <= 1e-12
            assert np.all(d <= src.q + 1e-15)
            # unsaturated components share one level
            level = d.max()
            unsat = d < src.q - 1e-12
            if unsat.any():
                assert np.allclose(d[unsat], level)

    def test_rejects_distortion_above_sum_q(self):
        with pytest.raises(DomainError, match="water filling needs"):
            water_fill(np.array([0.3, 0.1]), 0.5)

    def test_tiny_budget_skips_the_zero_components(self):
        # a level of D / 2 passed the fit test of the trailing q = 0
        # component, which then took half the budget
        res = rdp([0.3, 0.0], (1e-16, 5e-17))
        assert res.allocation.d.tolist() == [1e-16, 0.0]
        assert res.allocation.d.sum() == 1e-16


class TestTCurve:
    def test_at_zero(self):
        assert t_of_d([0.4, 0.1], 0.0) == 0.0

    def test_worked_value(self):
        # level 0.05 on q = (0.4, 0.1):
        # 0.05*0.2/0.9 + 0.05*0.8/0.9 = 1/18
        assert t_of_d([0.4, 0.1], 0.1) == pytest.approx(1.0 / 18.0, abs=1e-14)

    def test_single_component_limit(self):
        # d -> q makes the summand d(1-2q)/(1-2d) -> q
        val = t_of_d([0.3], 0.3 - 1e-10)
        assert val == pytest.approx(0.3, abs=1e-8)

    def test_strictly_increasing_and_below_diagonal(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            src = _rand_source(rng, 1, 5)
            total = float(src.q.sum())
            grid = np.linspace(1e-6, total * (1 - 1e-9), 40)
            vals = [t_of_d(src, float(D)) for D in grid]
            assert all(b > a for a, b in zip(vals, vals[1:]))
            assert all(v <= D + 1e-12 for v, D in zip(vals, grid))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            t_of_d([0.3, 0.1], 0.4)


def _s_segment_scan(q: np.ndarray, D: float):
    """Reference: the active S(D) segment found by a Python scan, kept to
    pin the vectorised search bit for bit (for sum q <= D < sum caps)."""
    caps = 2.0 * q * (1.0 - q)
    prefix_caps = np.concatenate(([0.0], np.cumsum(caps)))
    suffix_q = np.concatenate((np.cumsum(q[::-1])[::-1], [0.0]))
    for k in range(1, q.size + 1):
        if D <= prefix_caps[k] + suffix_q[k] + 1e-15:
            d_k = D - prefix_caps[k - 1] - suffix_q[k]
            d_k = min(max(d_k, q[k - 1]), caps[k - 1])
            p_k = (caps[k - 1] - d_k) / (1.0 - 2.0 * q[k - 1])
            d = np.concatenate((caps[: k - 1], [d_k], q[k:]))
            p = np.concatenate((np.zeros(k - 1), [p_k], q[k:]))
            return float(p.sum()), k, float(d_k), d, p
    raise AssertionError("S(D) segment scan failed")


class TestSCurve:
    def test_bitwise_equal_to_scan(self):
        rng = np.random.default_rng(37)
        for _ in range(150):
            n = int(rng.integers(1, 40))
            for q in (np.sort(rng.uniform(0.0, 0.5 - 1e-9, n))[::-1],
                      np.sort(rng.choice([0.05, 0.2, 0.35, 0.0], n))[::-1],
                      np.full(n, float(rng.uniform(0.01, 0.49)))):
                sum_q, caps = float(q.sum()), float((2.0 * q * (1.0 - q)).sum())
                budgets = [sum_q] + rng.uniform(sum_q, caps, 4).tolist()
                budgets.append(caps * (1.0 - 1e-15))
                for D in budgets:
                    if D >= caps:
                        continue
                    got = _s_curve(q, _ones(q), D)
                    value, k, d_k, d, p = _s_segment_scan(q, D)
                    assert (got.value, got.k, got.d_k) == (value, k, d_k), (q, D)
                    assert got.d.tobytes() == d.tobytes() and got.p.tobytes() == p.tobytes()

    def test_left_endpoint(self):
        point = s_of_d([0.3, 0.1], 0.4)
        assert point.value == pytest.approx(0.4, abs=1e-12)
        assert point.k == 1
        assert point.d_k == pytest.approx(0.3, abs=1e-12)

    def test_right_endpoint_zero(self):
        caps = 2 * 0.3 * 0.7 + 2 * 0.1 * 0.9
        point = s_of_d([0.3, 0.1], caps)
        assert point.value == 0.0

    def test_worked_value(self):
        point = s_of_d([0.3, 0.1], 0.5)
        assert point.value == pytest.approx(0.15, abs=1e-12)
        assert point.k == 1
        assert point.d_k == pytest.approx(0.4, abs=1e-12)
        assert np.allclose(point.d, [0.4, 0.1])
        assert np.allclose(point.p, [0.05, 0.1])

    def test_optimizer_feasibility(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            src = _rand_source(rng, 1, 5)
            sum_q = float(src.q.sum())
            caps = float((2 * src.q * (1 - src.q)).sum())
            D = float(rng.uniform(sum_q, 1.3 * caps))
            pt = s_of_d(src, D)
            assert abs(float(pt.d.sum()) - min(D, src.n)) <= 1e-10
            assert np.all(pt.p >= -1e-15)
            assert np.all(pt.d >= src.q - 1e-12)
            slack = pt.d - (2 * src.q * (1 - src.q) - (1 - 2 * src.q) * pt.p)
            assert np.all(slack >= -1e-10)

    def test_convex_non_increasing(self):
        # segment slopes -1/(1-2q_k) are non-decreasing since q is sorted
        src = normalize([0.45, 0.3, 0.1])
        sum_q = float(src.q.sum())
        caps = float((2 * src.q * (1 - src.q)).sum())
        grid = np.linspace(sum_q, caps, 60)
        vals = np.array([s_of_d(src, float(D)).value for D in grid])
        diffs = np.diff(vals)
        assert np.all(diffs <= 1e-12)
        slopes = diffs / np.diff(grid)
        assert np.all(np.diff(slopes) >= -1e-8)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            s_of_d([0.3, 0.1], 0.2)

    def test_budget_past_the_rounded_last_segment(self):
        # D = sum 2q(1-q) summed per component lies below the per-run sum, so
        # the plateau test fails, and above the rounded cumulative sum, so no
        # segment's right end reached it: the scan raised ConvergenceError
        raw = [0.5] * 5 + [0.48117123381932925, 0.4317018195093947, 0.3899087051913199,
                           0.38377607792169144, 0.3808720256841527, 0.37078160880075794,
                           0.3583391583417178, 0.35060178581261425, 0.3226389678921343,
                           0.307380518840092, 0.30160516744540644, 0.27228329230993786,
                           0.2518445425072767, 0.21258423938379323, 0.19040966294681205,
                           0.17240551005900795, 0.16433615294568937, 0.160011938813862,
                           0.1451617038620121, 0.12892727132880166, 0.12067344529963453,
                           0.10387069911468272, 0.08197388646628312, 0.06357824059515871,
                           0.04357609028482201, 0.04250218266390948, 0.019000721292208755,
                           0.018640747174116346] + [1e-300] * 5 + [0.0]
        src = normalize(raw)
        D = float((2.0 * src.q * (1.0 - src.q)).sum())
        assert s_of_d(src, D).value == 0.0
        assert classify(src, (D, 0.0)) == "B"
        assert rdp(src, (D, 0.0)).rate == 0.0


class TestClassify:
    def test_large_distortion_is_b(self):
        src = normalize([0.3, 0.1])
        caps = 2 * 0.3 * 0.7 + 2 * 0.1 * 0.9
        for P in (0.0, 0.2, 5.0):
            assert classify(src, (caps + 0.01, P)) == "B"

    def test_origin_is_a(self):
        assert classify([0.3, 0.1], (0.0, 0.0)) == "A"

    def test_worked_c_point(self):
        assert classify([0.3, 0.1], (0.5, 0.1)) == "C"

    def test_boundaries_are_closed(self):
        src = normalize([0.35, 0.15])
        D = 0.2
        assert classify(src, (D, t_of_d(src, D))) == "A"
        D2 = 0.55
        assert classify(src, (D2, s_of_d(src, D2).value)) == "B"

    def test_all_zero_source_is_b(self):
        assert classify([0.0, 0.0], (0.0, 0.0)) == "B"


def _accepts_exactly(solve, region: str) -> None:
    """``solve`` takes its region from the test ``classify`` makes: on the
    boundary curves and one float either side of them, it solves the
    budgets classify puts in ``region`` and raises DomainError for all
    others."""
    rng = np.random.default_rng(41)
    seen = {True: 0, False: 0}
    for _ in range(30):
        raw = list(rng.uniform(0.02, 0.98, int(rng.integers(1, 8))))
        raw += list(rng.choice([0.0, 0.5, 1.0], int(rng.integers(0, 3))))
        src = normalize(raw)
        s = float(src.q.sum())
        for D in (float(rng.uniform(0.05, 0.95)) * s, s, np.nextafter(s, 0.0),
                  s + float(rng.uniform(0.05, 0.95)) * float(np.sum(src.q * (1 - 2 * src.q)))):
            edge = (t_of_d(src, D) if classify(src, (D, math.inf)) == "A"
                    else s_of_d(src, D).value)
            for P in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, math.inf)):
                inside = classify(src, (D, P)) == region
                seen[inside] += 1
                if inside:
                    assert solve(src, (D, P)).region == region
                else:
                    with pytest.raises(DomainError, match=f"not in region {region}"):
                        solve(src, (D, P))
    assert min(seen.values()) > 0


class TestRegionA:
    def test_zero_distortion_rate(self):
        res = solve_region_a([0.3, 0.1], (0.0, 0.7))
        assert res.rate == pytest.approx(SUM_H2_03_01, abs=1e-12)
        assert math.isinf(res.certificate.nu)
        assert abs(res.allocation.p.sum() - 0.7) < 1e-12

    def test_negative_zero_distortion_is_zero(self):
        # BudgetPair stores D = -0.0 as +0.0, and the result equals D = 0's
        budget = BudgetPair(-0.0, -0.0)
        assert math.copysign(1.0, budget.D) == math.copysign(1.0, budget.P) == 1.0
        at_zero = solve_region_a([0.3, 0.1], (0.0, 0.7))
        res = solve_region_a([0.3, 0.1], (-0.0, 0.7))
        assert res.allocation.d.tobytes() == at_zero.allocation.d.tobytes()
        assert res.rate == at_zero.rate and math.isinf(res.certificate.nu)

    def test_worked_two_component_rate(self):
        res = solve_region_a([0.4, 0.1], (0.1, 0.2))
        assert res.rate == pytest.approx(RATE_A_04_01, abs=1e-12)
        assert np.allclose(res.allocation.d, [0.05, 0.05])

    def test_single_source_matches_rd(self):
        res = solve_region_a([0.3], (0.1, 0.6))
        assert res.rate == pytest.approx(RD_03_01, abs=1e-12)

    def test_labels_and_budgets(self):
        rng = np.random.default_rng(25)
        for _ in range(60):
            src = _rand_source(rng, 1, 6)
            sum_q = float(src.q.sum())
            D = float(rng.uniform(0.0, sum_q * 0.999))
            T = t_of_d(src, D)
            P = float(T + rng.uniform(0.0, 1.0))
            res = solve_region_a(src, (D, P))
            assert abs(res.allocation.d.sum() - D) <= 1e-10
            assert abs(res.allocation.p.sum() - P) <= 1e-10
            assert set(_regions(res)) <= {
                ScalarRegion.S, ScalarRegion.V, ScalarRegion.EXTERIOR}
            assert res.certificate.mu == 0.0
            assert np.all(res.certificate.lam == 0.0)

    def test_boundary_budget_works(self):
        src = normalize([0.35, 0.15])
        D = 0.2
        res = solve_region_a(src, (D, t_of_d(src, D)))
        assert abs(res.allocation.p.sum() - t_of_d(src, D)) <= 1e-12

    def test_rejects_c_point(self):
        with pytest.raises(DomainError):
            solve_region_a([0.3, 0.1], (0.1, 0.0))

    def test_rejects_a_b_point(self):
        # D = sum q is region B; the water fill there is q itself, whose
        # T-type bound sum q once let P = sum q through as region A
        with pytest.raises(DomainError, match="not in region A"):
            solve_region_a([0.3, 0.1], (0.4, 0.4))

    def test_accepts_exactly_the_budgets_classify_puts_in_a(self):
        _accepts_exactly(solve_region_a, "A")


class TestRegionB:
    def test_zero_rate_and_feasibility(self):
        res = solve_region_b([0.3, 0.1], (0.5, 0.15))
        assert res.rate == 0.0
        assert np.allclose(res.allocation.d, [0.4, 0.1])
        assert np.allclose(res.allocation.p, [0.05, 0.1])

    def test_cap_allocation_at_p_zero(self):
        caps = np.array([2 * 0.3 * 0.7, 2 * 0.1 * 0.9])
        res = solve_region_b([0.3, 0.1], (float(caps.sum()), 0.0))
        assert res.rate == 0.0
        assert np.allclose(res.allocation.d, caps)
        assert np.allclose(res.allocation.p, 0.0)

    def test_very_large_distortion(self):
        res = solve_region_b([0.3, 0.1], (1.4, 0.3))
        assert res.rate == 0.0
        assert np.all(res.allocation.d <= 1.0 + 1e-12)

    def test_labels(self):
        rng = np.random.default_rng(26)
        for _ in range(60):
            src = _rand_source(rng, 1, 6)
            sum_q = float(src.q.sum())
            caps = float((2 * src.q * (1 - src.q)).sum())
            D = float(rng.uniform(sum_q, 1.5 * caps))
            P = s_of_d(src, D).value + float(rng.uniform(0.0, 0.7))
            res = solve_region_b(src, (D, P))
            assert res.rate == 0.0
            assert set(_regions(res)) <= {
                ScalarRegion.T, ScalarRegion.V, ScalarRegion.EXTERIOR}
            assert abs(res.allocation.p.sum() - P) <= 1e-10

    def test_rejects_an_a_point(self):
        # D below sum q = 0.4 once returned rate 0 with d = q, a distortion
        # residual of 0.3
        with pytest.raises(DomainError, match="not in region B"):
            solve_region_b([0.3, 0.1], (0.1, 1.0))

    def test_accepts_exactly_the_budgets_classify_puts_in_b(self):
        _accepts_exactly(solve_region_b, "B")

    def test_distortion_above_n_saturates(self):
        res = rdp([0.3, 0.1], (2.5, 0.1))
        assert res.region == "B" and res.rate == 0.0
        assert res.notes == ("D=2.5 exceeds n=2; distortion saturates at n",)
        assert res.allocation.d == pytest.approx([1.0, 1.0], abs=1e-15)
        assert res.residuals[0] == pytest.approx(0.5, abs=1e-15)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.sampled_from((0.0, 0.1, 0.3, 0.5)), st.floats(0.0, 1.0)),
                min_size=1, max_size=8),
       st.floats(0.0, 0.999), st.floats(0.0, 1.2), st.floats(0.0, 0.5))
def test_a_and_b_label_v_exactly_on_the_corner(raw, share_a, share_b, over):
    # regions A and B share one label rule, V where d == q (0 < q < 1/2):
    # it relies on the water fill keeping d <= q and the S(D) optimizers
    # keeping d >= q, so that d == q is A's d >= q and B's d <= q
    src = normalize(raw)
    q, s, caps = src.q, float(src.q.sum()), float(np.sum(2 * src.q * (1 - src.q)))
    for D in (share_a * s, s + share_b * (caps - s)):
        if classify(src, (D, math.inf)) == "A":
            res = solve_region_a(src, (D, t_of_d(src, D) + over))
            side = np.less_equal
        else:
            res = solve_region_b(src, (D, s_of_d(src, D).value + over))
            side = np.greater_equal
        d = res.allocation.d
        assert np.all(side(d, q)), (raw, D)
        corner = (q > 0.0) & (q < 0.5) & (d == q)
        assert [r == ScalarRegion.V for r in _regions(res)] == corner.tolist()


def _kernel_at(alpha, beta, q, m):
    """The Lagrangian minimizer (d, p) at multipliers alpha > 0, beta >= 0:
    the kernel at A = 1/expm1(alpha - beta), B = 1/expm1(alpha + beta)
    where alpha > beta.  At beta >= alpha every component is on its p = 0
    edge: its beta gap there is below alpha."""
    if beta >= alpha:
        return _x_of_alpha(alpha, 0.0, q), np.zeros_like(q)
    A, B = 1.0 / math.expm1(alpha - beta), 1.0 / math.expm1(alpha + beta)
    return _component_dp(A, B, q, m, 0.0)[:2]


def _one_component(alpha, beta, q):
    """The kernel's (d, p) for a single component."""
    d, p = _kernel_at(alpha, beta, np.array([q]), _ones(q))
    return float(d[0]), float(p[0])


class TestComponentSystem:
    def test_p_zero_closed_form(self):
        d, p = _one_component(0.5, 5.0, 0.25)
        assert p == 0.0
        assert d == pytest.approx(D_PP_A05_Q025, abs=1e-12)

    def test_p_zero_reproduces_alpha(self):
        # the p = 0 equation is the alpha equation specialized to p = 0
        for alpha in (0.05, 0.3, 1.0, 4.0):
            d, p = _one_component(alpha, 10.0, 0.3)
            assert p == 0.0
            lhs = -0.5 * math.log(
                (d * d) / ((2 * 0.7 - d) * (2 * 0.3 - d)))
            assert lhs == pytest.approx(alpha, abs=1e-9)

    def test_interior_solution_residuals(self):
        q = 0.25
        alpha, beta = 1.5, 0.2
        d, p = _one_component(alpha, beta, q)
        assert 0.0 < p < q
        a_res = -0.5 * math.log(((d - p) * (d + p)) /
                                ((2 * (1 - q) - (d - p)) * (2 * q - (d + p))))
        b_res = -0.5 * math.log(((q - p) ** 2 * (d + p) * (2 * (1 - q) - (d - p))) /
                                ((1 - q + p) ** 2 * (d - p) * (2 * q - (d + p))))
        assert a_res == pytest.approx(alpha, abs=1e-9)
        assert b_res == pytest.approx(beta, abs=1e-9)
        # strictly inside U
        assert p / (1 - 2 * (q - p)) < d < 2 * q * (1 - q) - (1 - 2 * q) * p

    def test_large_beta_goes_to_p_zero(self):
        # beta above the gap at p = 0 forces the boundary branch
        d, p = _one_component(0.3, 0.3, 0.25)
        assert p == 0.0
        assert 0.0 < d < 2 * 0.25 * 0.75


def _bisection_component_dp(alpha, beta, q):
    """Reference kernel: the p = 0 edge test, then 64 bisection steps on p
    in [0, q(1 - 1e-15)] along the fixed-alpha contour."""
    d = _x_of_alpha(alpha, 0.0, q)
    p = np.zeros_like(q)
    active = _beta_gap(d, p, q) > beta
    if np.any(active):
        qa = q[active]
        lo = np.zeros_like(qa)
        hi = qa * (1.0 - 1e-15)
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            above = _beta_gap(mid + _x_of_alpha(alpha, mid, qa), mid, qa) > beta
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        pa = 0.5 * (lo + hi)
        p[active] = pa
        d[active] = pa + _x_of_alpha(alpha, pa, qa)
    return d, p


def _corner_beta(alpha, q):
    """Limit of the beta gap at the (q, q) corner along the fixed-alpha
    contour, where p = q - e and d = q + k e with
    (1 + k) / (1 - k) = e^{-2 alpha} (1 - q) / q.  A slightly larger beta
    puts the root just below q; a smaller one puts the component on the
    corner."""
    r = math.exp(-2.0 * alpha) * (1.0 - q) / q
    k = (r - 1.0) / (r + 1.0)
    return -0.5 * math.log(4.0 * q * (1.0 - q) / (1.0 - k * k))


def _lagrangian(alpha, beta, d, p, q):
    return scalar_rdp(d, p, q) + alpha * d + beta * p


class TestComponentKernel:
    Q = np.array([0.01, 0.05, 0.2, 0.35, 0.5 - 1e-9])  # last one next to 1/2

    def test_matches_bisection_on_grid(self):
        kinds = set()
        for alpha in (0.01, 0.1, 0.5, 1.5, 4.0):
            for beta in (1e-4, 1e-2, 0.1, 0.5, 2.0, 10.0):
                d, p = _kernel_at(alpha, beta, self.Q, _ones(self.Q))
                d_ref, p_ref = _bisection_component_dp(alpha, beta, self.Q)
                assert np.abs(d - d_ref).max() <= 1e-12, (alpha, beta)
                assert np.abs(p - p_ref).max() <= 1e-12, (alpha, beta)
                kinds |= {"edge" if pr == 0.0 else "corner" if qi - pr <= 1e-12 else "interior"
                          for pr, qi in zip(p_ref, self.Q)}
        assert kinds == {"edge", "interior", "corner"}

    def test_matches_bisection_next_to_the_corner(self):
        closest = 1.0
        for alpha in (0.1, 0.5, 1.5):
            for q in (0.05, 0.2, 0.35):
                for delta in (1e-2, 1e-3, 1e-4, -1e-3, -1e-1):
                    beta = _corner_beta(alpha, q) + delta
                    if beta <= 0.0:
                        continue
                    qv = np.array([q])
                    d, p = _kernel_at(alpha, beta, qv, _ones(qv))
                    d_ref, p_ref = _bisection_component_dp(alpha, beta, qv)
                    assert abs(d[0] - d_ref[0]) <= 1e-12, (alpha, q, delta)
                    assert abs(p[0] - p_ref[0]) <= 1e-12, (alpha, q, delta)
                    if delta > 0.0:
                        closest = min(closest, (q - p_ref[0]) / q)
        assert closest < 1e-3  # some roots sat within 0.1% of the corner

    def test_roots_inside_the_corner_band(self):
        # within 1e-8 q of q, d - p and 2q - d - p keep too few digits for
        # the bisection to place the root from the alpha equation; the
        # closed form in (A, B) takes d from x and y, which vanish and tend
        # to 2q there, and lands between the corner and the bisection root
        alpha, q = 1.5, np.array([0.05])
        band = 1e-8 * q[0]
        for delta in (1e-9, 1e-11, 1e-13):
            beta = _corner_beta(alpha, 0.05) + delta
            d, p = _kernel_at(alpha, beta, q, _ones(q))
            d_ref, p_ref = _bisection_component_dp(alpha, beta, q)
            assert 0.0 < q[0] - p_ref[0] < band
            assert 0.0 < q[0] - p[0] <= q[0] - p_ref[0]
            assert abs(d[0] - d_ref[0]) <= band

    def test_runs_match_their_expanded_components(self):
        counts = np.array([3, 1, 2, 4, 1])
        for A, B in ((0.5, 0.1), (1.5, 0.5), (4.0, 0.01), (0.01, 10.0), (50.0, 40.0)):
            d, p, grad = _component_dp(A, B, self.Q, counts, 0.0)
            q_all = np.repeat(self.Q, counts)
            d_all, p_all, grad_all = _component_dp(A, B, q_all, _ones(q_all), 0.0)
            assert np.repeat(d, counts).tobytes() == d_all.tobytes()
            assert np.repeat(p, counts).tobytes() == p_all.tobytes()
            np.testing.assert_allclose(grad, grad_all, rtol=1e-13, atol=0.0)

    def test_sensitivities_match_finite_differences(self):
        # grad is the derivative of sum d in (A, B), edge runs included
        q = np.array([0.05, 0.2, 0.35, 0.45])
        m = _ones(q)
        for A, B in ((1.0, 0.3), (0.5, 0.35), (0.2, 0.31), (4.0, 2.5), (4.0, 0.25), (40.0, 33.0)):
            _, p, grad = _component_dp(A, B, q, m, 0.0)
            assert np.any((p > 0.0) & (p < q))
            for j, step in enumerate(((1e-6 * A, 0.0), (0.0, 1e-6 * B))):
                fd = (_component_dp(A + step[0], B + step[1], q, m, 0.0)[0].sum()
                      - _component_dp(A - step[0], B - step[1], q, m, 0.0)[0].sum()) \
                    / (2.0 * sum(step))
                assert fd == pytest.approx(grad[j], rel=1e-5, abs=1e-9), (A, B, j)

    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(st.floats(-12.0, math.log10(8.0)), st.floats(-12.0, math.log10(8.0)),
           st.floats(0.0, 0.5 - 1e-9, exclude_min=True),
           st.sampled_from(["drawn", "alpha", "above alpha", "below alpha", "barely active"]),
           st.floats(-16.0, -3.0))
    def test_lagrangian_no_worse_than_a_dense_contour_search(self, log_alpha, log_beta, q,
                                                             beta_from, log_eps):
        # beta = alpha puts the closed-form root at p = -inf, an adjacent
        # float next to it, and a barely active component's root at p -> 0+
        alpha, qv = 10.0 ** log_alpha, np.array([q])
        gap = float(_beta_gap(_x_of_alpha(alpha, 0.0, qv), 0.0, qv)[0])  # the beta gap at p = 0
        beta = {"drawn": 10.0 ** log_beta, "alpha": alpha,
                "above alpha": math.nextafter(alpha, math.inf),
                "below alpha": math.nextafter(alpha, -math.inf),
                "barely active": gap * (1.0 - 10.0 ** log_eps)}[beta_from]
        # a multiplier is >= 0; at a q near the smallest normal the gap at
        # p = 0 rounds to a negative value
        beta = max(beta, 0.0)
        d, p = _kernel_at(alpha, beta, qv, _ones(qv))
        found = _lagrangian(alpha, beta, d, p, qv)[0]
        # u = q - p from the corner to p = 0, both ends included
        grid_p = np.append(q - q * np.logspace(-16.0, 0.0, 4001), [0.0, q * (1.0 - 1e-15)])
        grid_q = np.full(grid_p.size, q)
        grid_d = grid_p + _x_of_alpha(alpha, grid_p, grid_q)
        assert found <= np.min(_lagrangian(alpha, beta, grid_d, grid_p, grid_q)) + 1e-14

    @pytest.mark.parametrize("alpha", [0.01, 0.5, 3.0, 8.0])
    @pytest.mark.parametrize("q", [1e-3, 0.05, 0.2, 0.45])
    def test_barely_active_component_stays_next_to_p_zero(self, alpha, q):
        # the root sits at p -> 0+, where rounding can put the closed form
        # at or below 0; that must not send the component to its corner
        qv = np.array([q])
        beta = _beta_gap(_x_of_alpha(alpha, 0.0, qv), 0.0, qv)[0] * (1.0 - 1e-12)
        _, p = _kernel_at(alpha, beta, qv, _ones(qv))
        assert 0.0 <= p[0] <= 1e-8

    def test_tiny_multipliers_take_the_corner(self):
        # the beta gaps at both ends are lost to rounding here; the corner,
        # stored as exactly (q, q) at rate 0, has the lower Lagrangian of the two
        alpha, beta, q = 7.79e-8, 1.34e-10, np.array([0.489978])
        d, p = _kernel_at(alpha, beta, q, _ones(q))
        assert (d[0], p[0]) == (q[0], q[0])
        assert scalar_rdp(d, p, q)[0] == 0.0
        zero = np.zeros(1)
        assert (_lagrangian(alpha, beta, d, p, q)
                < _lagrangian(alpha, beta, _x_of_alpha(alpha, zero, q), zero, q))

    def test_beta_gap_does_not_depend_on_the_input_shape(self):
        # numpy squares an np.float64 by pow() and an array by x * x, and at
        # this x the two round to neighbouring floats
        x = float.fromhex("0x1.9ceaad7ca4541p-1")
        q = 1.0 - x
        array = _beta_gap(np.array([0.5 * q]), np.zeros(1), np.array([q]))[0]
        assert _bits(_beta_gap(0.5 * q, 0.0, q)) == _bits(array)
        assert _bits(_beta_gap(np.float64(0.5 * q), np.float64(0.0), np.float64(q))) == _bits(array)


class TestRegionC:
    def test_single_source_matches_scalar(self):
        res = solve_region_c([0.3], (0.2, 0.05))
        assert res.rate == pytest.approx(TERN_02_005_03, abs=1e-10)
        assert res.allocation.d[0] == pytest.approx(0.2, abs=1e-10)
        assert res.allocation.p[0] == pytest.approx(0.05, abs=1e-10)

    def test_equal_pair_matches_scalar(self):
        res = solve_region_c([0.25, 0.25], (0.2, 0.1))
        assert res.rate == pytest.approx(2 * TERN_01_005_025, abs=1e-9)

    def test_rejects_a_point(self):
        with pytest.raises(DomainError):
            solve_region_c([0.3, 0.1], (0.1, 0.5))

    def test_accepts_exactly_the_budgets_classify_puts_in_c(self):
        _accepts_exactly(solve_region_c, "C")

    def test_certificate_structure(self):
        rng = np.random.default_rng(27)
        seen = 0
        while seen < 40:
            src = _rand_source(rng, 1, 5)
            budget = _rand_budget(rng, src)
            if classify(src, budget) != "C":
                continue
            seen += 1
            res = solve_region_c(src, budget)
            labels = set(_regions(res)) - {ScalarRegion.EXTERIOR}
            assert labels == {ScalarRegion.U}
            assert res.certificate.nu >= 0.0
            assert res.certificate.mu >= 0.0
            # lam > 0 only where p = 0
            active = res.certificate.lam > 1e-12
            assert np.all(res.allocation.p[active] == 0.0)
            assert abs(res.allocation.d.sum() - budget.D) <= 1e-8 * max(1.0, budget.D)
            assert abs(res.allocation.p.sum() - budget.P) <= 1e-8 * max(1.0, budget.P)

    def test_gradient_residuals_tiny_off_boundary(self):
        # the certificate's multipliers bound the rate from below to
        # rounding, which a stationarity residual alone does not imply
        raw, D, P = [0.35, 0.2, 0.1], 0.25, 0.05
        res = solve_region_c(raw, (D, P))
        assert "snapped" not in " ".join(res.notes)
        assert res.rate - _dual_bound(raw, D, P, res) <= 1e-12

    @pytest.mark.parametrize("raw, D, P", [([0.3, 0.1], 0.1, 1e-16),
                                           ([0.3, 0.1], 0.1, 2.8e-17),
                                           ([0.3, 0.0, 0.5, 0.12, 0.8], 0.3, 1e-12)])
    def test_perception_within_tolerance_of_zero(self, raw, D, P):
        # once "no multipliers meet both budgets": P this small is served
        # by the P = 0 allocation
        res = rdp(raw, (D, P))
        assert res.region == "C"
        assert res.rate == rdp(raw, (D, 0.0)).rate
        assert np.all(res.allocation.p == 0.0)

    def test_s_side_serves_budgets_within_tolerance_of_s(self):
        raw, D = [0.3, 0.1], 0.5
        S = s_of_d(raw, D).value
        # 1e-7 below S(D) is ten budget tolerances away: searched
        res = solve_region_c(raw, (D, S - 1e-7))
        assert not res.notes
        assert res.rate - _dual_bound(raw, D, S - 1e-7, res) <= 1e-12
        # within the perception tolerance of S(D) it is searched too, from
        # the start ``_s_shaped`` gives; the allocation shaped like the S(D)
        # optimizers, returned unsearched, took 3 calls of its alpha search
        res = solve_region_c(raw, (D, S - 5e-9))
        assert not res.notes
        assert res.residuals[0] <= 1e-12
        assert res.residuals[1] <= 1e-12
        assert res.rate <= 1e-6  # continuous with the zero-rate region
        assert res.rate - _dual_bound(raw, D, S - 5e-9, res) <= 1e-12
        assert res.multiplier_iterations == 1


def _dual_bound(raw, D, P, res):
    """Lower bound on the optimal rate from the certificate's multipliers:
    the kernel's Lagrangian minimizer x at (nu, mu) gives
    R(D, P) >= R(x) + nu (sum d(x) - D) + mu (sum p(x) - P)."""
    q = normalize(raw).q
    q = q[q > 0.0]
    nu, mu = res.certificate.nu, res.certificate.mu
    d, p = _kernel_at(nu, mu, q, _ones(q))
    return float(np.sum(scalar_rdp(d, p, q))) + nu * (d.sum() - D) + mu * (p.sum() - P)


def _inside_sweep():
    """CHANGES.md:851's sweep: 755 budgets inside C below sum q, seed 1."""
    rng = np.random.default_rng(1)
    kept = 0
    while kept < 755:
        n = int(rng.integers(1, 13)) if rng.random() < 0.8 else int(rng.integers(13, 400))
        raw = rng.uniform(0.02, 0.98, n)
        if rng.random() < 0.25:
            raw[:n // 3] = raw[0]
        src = normalize(raw)
        D = rng.uniform(0.02, 0.98) * float(src.q.sum())
        P = rng.uniform(0.05, 0.95) * t_of_d(src, D)
        if classify(src, (D, P)) == "C":
            kept += 1
            yield raw, D, P


def _near_s_sweep():
    """The S-side sweep of CHANGES.md:803 (seed 11), taken through ``rdp``:
    1,500 budgets in C a relative 10^-12 to 10^-0.05 below S(D)."""
    rng = np.random.default_rng(11)
    kept = 0
    while kept < 1500:
        n = int(rng.integers(1, 13))
        raw = rng.uniform(0.02, 0.98, n)
        src = normalize(raw)
        D = rng.uniform(float(src.q.sum()), float(np.sum(2 * src.q * (1 - src.q))))
        P = s_of_d(src, D).value * (1 - 10 ** rng.uniform(-12, -0.05))
        if classify(src, (D, P)) == "C":
            kept += 1
            yield raw, D, P


def _window_sweep():
    """500 budgets in C within the perception tolerance of S(D), seed 21:
    half the D a relative 10^-16 to 10^-6 above sum q and the rest anywhere
    in the S(D) span, P a relative 10^-16 to 10^-8.3 below S(D).  The
    S(D)-shaped allocation served these unsearched, and at 38 of them its
    multipliers' bound lay up to 3.6e-3 nats below the rate."""
    rng = np.random.default_rng(21)
    kept = 0
    while kept < 500:
        n = int(rng.integers(1, 13))
        raw = rng.uniform(0.02, 0.98, n)
        src = normalize(raw)
        s = float(src.q.sum())
        if rng.random() < 0.5:
            D = s * (1 + 10 ** rng.uniform(-16, -6))
        else:
            D = rng.uniform(s, float(np.sum(2 * src.q * (1 - src.q))))
        P = s_of_d(src, D).value * (1 - 10 ** rng.uniform(-16, -8.3))
        if classify(src, (D, P)) == "C":
            kept += 1
            yield raw, D, P


def _half_sweep():
    """CHANGES.md:508's sweep: 300 budgets on sources with one to three
    q = 1/2, D within 1e-9 above sum q and P below S(D), seed 1603."""
    rng = np.random.default_rng(1603)
    for _ in range(300):
        nh = int(rng.integers(1, 4))
        nr = int(rng.integers(1, 8))
        raw = np.concatenate((np.full(nh, 0.5), rng.uniform(0.02, 0.98, nr)))
        src = normalize(raw)
        D = float(src.q.sum()) + rng.uniform(0, 1e-9)
        P = s_of_d(src, D).value * (1 - 10 ** rng.uniform(-6, -0.05))
        yield raw, D, P


def _p_zero_sweep():
    """600 budgets in C at P = 0 or within the perception tolerance of it,
    seed 36: D below and above sum q, sources with ties, q = 1/2 and
    q = 1e-300 among their components."""
    rng = np.random.default_rng(36)
    kept = 0
    while kept < 600:
        n = int(rng.integers(1, 9))
        raw = rng.uniform(0.02, 0.98, n)
        raw[rng.random(n) < 0.15] = 0.5
        raw[rng.random(n) < 0.15] = 1e-300
        if rng.random() < 0.25:
            raw[:n // 3 + 1] = raw[0]
        src = normalize(raw)
        s, caps = float(src.q.sum()), float(np.sum(2 * src.q * (1 - src.q)))
        D = rng.uniform(0.0, s) if rng.random() < 0.5 else rng.uniform(s, caps)
        P = 0.0 if rng.random() < 0.5 else 10 ** rng.uniform(-17, -8.1)
        if classify(src, (D, P)) == "C":
            kept += 1
            yield raw, D, P


class TestRegionCSweeps:
    """The region-C acceptance sweeps, rebuilt from CHANGES.md and solved
    through ``rdp``, each budget with no ConvergenceError.  ``max_calls`` is
    the kernel-call count of each sweep's costliest budget under the one
    search in log A; the two-level search it replaced took 41, 275 and 300
    on the first three, and raised at one budget of the q = 1/2 sweep.  On
    the P = 0 sweep it counts the calls of the alpha search at P = 0, which
    took 42 to 46 on its sources whose every q is 1e-300."""

    @pytest.mark.parametrize("sweep, max_calls", [
        (_inside_sweep, 6), (_near_s_sweep, 4), (_half_sweep, 3), (_window_sweep, 1),
        (_p_zero_sweep, 7)])
    def test_solved_within_the_dual_bound(self, sweep, max_calls):
        calls = []
        for raw, D, P in sweep():
            res = rdp(raw, (D, P))
            cert = res.certificate
            slack = 1e-10 + cert.nu * res.residuals[0] + cert.mu * res.residuals[1]
            assert res.rate - _dual_bound(raw, D, P, res) <= slack
            calls.append(res.multiplier_iterations)
        assert max(calls) <= max_calls

    @pytest.mark.parametrize("sweep", [_near_s_sweep, _window_sweep, _half_sweep])
    def test_s_of_d_oracle_is_the_closed_form(self, sweep):
        # the zero-rate linear program at each budget's D, n up to 12
        for raw, D, _ in sweep():
            S = s_of_d(raw, D).value
            assert abs(br.s_of_d_oracle(raw, D) - S) <= 1e-12 * max(1.0, S), (raw, D)


class TestRegionCNearS:
    """Budgets just below a small S(D), where both multipliers are tiny and
    components sit next to the zero-rate corner of their Lagrangian."""

    TEN = [0.303, 0.2784, 0.2549, 0.4451, 0.5045, 0.5535, 0.9955, 0.7927, 0.6222, 0.989]
    TEN_DP = (3.518211, 0.00319866)

    def test_four_components(self):
        q = [0.4, 0.25, 0.1, 0.05]
        D, P = 1.12887, 0.00062778
        res = rdp(q, (D, P))
        assert res.region == "C"
        assert rdp(q, (D, math.inf)).rate - 1e-12 <= res.rate <= rdp(q, (D, 0.0)).rate + 1e-12
        assert res.multiplier_iterations < 4081

    def test_ten_components_checked_or_refused(self):
        raw = self.TEN
        D, P = self.TEN_DP
        try:
            res = rdp(raw, (D, P))
        except BernRdpError:
            return
        assert res.region == "C"
        assert abs(res.allocation.d.sum() - D) <= 1e-8 * D
        assert abs(res.allocation.p.sum() - P) <= 1e-8
        total = float(np.sum(scalar_rdp(res.allocation.d, res.allocation.p, normalize(raw).q)))
        assert res.rate == pytest.approx(total, abs=1e-12)
        assert res.rate <= rdp(raw, (D, 0.0)).rate + 1e-12

    @pytest.mark.parametrize("raw, D, P, parent_rate", [
        (TEN, *TEN_DP, None),
        ([0.5278125088659839, 0.31813656847053806, 0.23157951621406048, 0.9511782787436883,
          0.13269777263389793, 0.5025277899584487, 0.22366796490947405, 0.8118586684336861],
         2.39799418653028, 0.5633119408752424, 8.108869742340374e-09),
        ([0.36416229807777845, 0.28730653608731493, 0.10839476338543341, 0.8762896426779009,
          0.6078379019517387, 0.9833838722013164],
         1.4769439217528386, 0.5333501380051179, None),
    ])
    def test_budgets_outside_the_snap_window_are_solved(self, raw, D, P, parent_rate):
        # beta / alpha lands next to 1 - 2q of one component, where its
        # Lagrangian is nearly flat along its zero-rate edge: its p moves by
        # whole per cents of q between adjacent floats of alpha, so in
        # (alpha, beta) sum d = D has no float root.  These searches fell
        # back to a snap, then to a blend of the evaluations on either side;
        # in log A, with P met at every evaluation, sum d is continuous.  The
        # nested brentq search failed the budget check on the first and last
        # and solved the second.
        res = rdp(raw, (D, P))
        assert not res.notes
        assert res.rate - _dual_bound(raw, D, P, res) <= 1e-12
        if parent_rate is not None:
            assert res.rate <= parent_rate + 1e-12

    def test_unresolved_search_raises(self, monkeypatch):
        def unresolved(*args):
            raise ConvergenceError("no multipliers meet both budgets")

        monkeypatch.setattr(br.solver, "_c_search", unresolved)
        # a search that finds no multipliers has no fallback on either side
        # of sum q: a snap to S(D) gave 4.65e-4 nats here, above
        # R(D, 0) = 4.0e-6
        with pytest.raises(ConvergenceError):
            rdp(self.TEN, self.TEN_DP)
        with pytest.raises(ConvergenceError):
            rdp([0.3, 0.1], (0.3, 0.01))
        # above sum q and outside the perception tolerance of S(D), where a
        # snap gave 4.93e-5 nats
        with pytest.raises(ConvergenceError):
            rdp([0.3, 0.1], (0.5, 0.14))
        # and within it, where the S(D)-shaped allocation was returned
        # unsearched
        with pytest.raises(ConvergenceError):
            rdp([0.3, 0.1], (0.5, s_of_d([0.3, 0.1], 0.5).value - 5e-9))

    def test_unresolved_alpha_search_next_to_s_raises(self, monkeypatch):
        # the alpha search for the start above sum q has no fallback: one
        # that gave up was taken as alpha = 0 with 200 kernel calls, and
        # within the perception tolerance of S(D), where the S(D)-shaped
        # allocation was returned unsearched, no check caught it
        D = 0.5
        P = s_of_d([0.3, 0.1], D).value - 5e-9

        def unresolved(*args, **kwargs):
            raise ConvergenceError("bracketed Newton search did not converge")

        monkeypatch.setattr(br.solver, "_bracketed_newton", unresolved)
        with pytest.raises(ConvergenceError, match="did not converge"):
            rdp([0.3, 0.1], (D, P))

    def test_s_side_alpha_search_stops_at_its_rounding_floor(self):
        # the alpha search on run k's alpha gap stalled here near 1e-16,
        # its rounding floor, where Newton steps no longer crossed its sign;
        # when it gave up, the multiplier search started blind and took 393
        # kernel calls.  The search for the root of the distortion budget
        # has no floor to stall at and takes 4 calls here
        raw = [0.07533756104271752, 0.837442412362563, 0.45769036997340473,
               0.5794989321961663, 0.9638585959232597, 0.1966024346074155,
               0.18218607547392604, 0.5141028785420876, 0.1141200573406126]
        D, P = 2.6653906064061346, 0.13456449768922127
        res = rdp(raw, (D, P))
        assert not res.notes
        assert res.multiplier_iterations <= 10
        assert res.rate - _dual_bound(raw, D, P, res) <= 1e-12

    def test_window_next_to_s_is_within_the_dual_bound(self):
        # within the perception tolerance of S(D) the S(D)-shaped allocation
        # was returned with its own multipliers, whose bound lay 3.9e-9 nats
        # below the rate of 0; searched, it is met in 8 calls
        raw, D, P = [0.5, 1e-6], 0.5000015961342001, 4.0386458447620713e-07
        res = rdp(raw, (D, P))
        assert res.region == "C" and not res.notes
        assert res.rate - _dual_bound(raw, D, P, res) <= 1e-12
        assert res.multiplier_iterations <= 8

    def test_p_above_d_within_rounding_of_sum_q(self):
        # D rounds to sum q, on its B side by the run sum, and P is 2 ulps
        # above D: the S(D)-shaped distortion falls to P as alpha grows, so
        # its alpha search had no root and raised
        raw = [0.797663446842071, 0.797663446842071, 0.349270541656845, 0.4343023943372837,
               0.006148374173627791, 0.9134559754773555, 0.03250757731342391, 1e-300]
        D, P = 1.3134460183196826, 1.3134460183196828
        res = rdp(raw, (D, P))
        assert res.region == "C" and not res.notes
        assert res.rate - _dual_bound(raw, D, P, res) <= 1e-12
        assert res.multiplier_iterations == 1

    @pytest.mark.parametrize("share, rel", [(0.8, 1e-4), (0.8, 9e-5), (0.5, 5e-5)])
    def test_many_distinct_q_next_to_s(self, share, rel):
        # q about 2e-6 apart jump between their corner and p = 0 edge, and
        # the search started with no component in U cycled: at share 0.8 it
        # ran into the call cap and snapped to 0.192 and 0.169 nats, and at
        # share 0.5 it took 434 kernel calls
        q = np.random.default_rng([1505, 2]).uniform(0.05, 0.45, 179_700)
        src = normalize(q)
        s = float(q.sum())
        D = s + share * (float(np.sum(2 * q * (1 - q))) - s)
        P = (1 - rel) * s_of_d(src, D).value
        res = rdp(src, (D, P))
        assert res.notes == ()
        assert res.multiplier_iterations <= 50
        cert = res.certificate
        slack = 1e-12 + cert.nu * res.residuals[0] + cert.mu * res.residuals[1]
        assert res.rate - _dual_bound(q, D, P, res) <= slack

    def test_p_zero_below_a_small_s_is_searched(self):
        # S(D) = 6.25e-5 here, and a snap window of 1e-4 gave 3.86e-8 nats
        res = rdp([0.3, 0.1], (0.59995, 0.0))
        assert res.region == "C" and not res.notes
        assert res.rate == pytest.approx(5.986366e-9, rel=1e-6)

    def test_rate_below_a_small_s_stays_below_the_p_zero_rate(self):
        # a snap window of 1e-4 gave 3.86e-8 nats here, above R(D, 0) = 2.39e-8
        raw, D, P = [0.3, 0.1], 0.5999, 6.25e-5
        res = rdp(raw, (D, P))
        assert not res.notes
        assert res.rate <= rdp(raw, (D, 0.0)).rate
        assert res.rate - _dual_bound(raw, D, P, res) <= 1e-12


_RAW_Q = st.lists(st.one_of(st.sampled_from((0.5, 0.3, 0.1)), st.floats(0.02, 0.5)),
                  min_size=1, max_size=12)


@st.composite
def _region_c_case(draw):
    """A source of up to 12 components (ties and q = 1/2 included) and a
    region-C budget a relative 1e-6 to 0.9 below T(D) or S(D)."""
    raw = draw(_RAW_Q)
    src = normalize(raw)
    q = src.q
    s, caps = float(q.sum()), float(np.sum(2 * q * (1 - q)))
    share = draw(st.floats(0.05, 0.95))
    if draw(st.booleans()):
        D = share * s
        bound = t_of_d(src, D)
    else:
        D = s + share * (caps - s)
        bound = s_of_d(src, D).value
    assume(bound > 0.0)
    P = (1.0 - 10.0 ** draw(st.floats(-6.0, math.log10(0.9)))) * bound
    assume(classify(src, (D, P)) == "C")
    return raw, D, P


class TestRegionCProperties:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(_region_c_case())
    def test_solved_within_budgets_and_rate_bounds(self, case):
        raw, D, P = case
        res = rdp(raw, (D, P))
        assert res.region == "C"
        assert res.residuals[0] <= 1e-8 * max(1.0, D)
        assert res.residuals[1] <= 1e-8 * max(1.0, P)
        # meeting D only within tolerance moves the rate by nu |sum d - D|
        slack = 1e-12 + res.certificate.nu * res.residuals[0]
        assert rdp(raw, (D, math.inf)).rate - slack <= res.rate
        assert res.rate <= rdp(raw, (D, 0.0)).rate + slack
        assert res.rate - _dual_bound(raw, D, P, res) <= 1e-10


@st.composite
def _near_t_case(draw):
    """A source of up to 12 components (ties and q = 1/2 included) and a
    budget a relative 10^U(-15, -9) below T(D)."""
    raw = draw(_RAW_Q)
    src = normalize(raw)
    D = draw(st.floats(0.05, 0.95)) * float(src.q.sum())
    bound = t_of_d(src, D)
    assume(bound > 0.0)
    P = (1.0 - 10.0 ** draw(st.floats(-15.0, -9.0))) * bound
    assume(classify(src, (D, P)) == "C")
    return raw, D, P


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_near_t_case())
def test_multiplier_search_serves_budgets_next_to_t(case):
    # only beta is small this close to T(D); the search meets the dual
    # bound to rounding, where the water-filled allocation at T(D), scaled
    # down to P, misses it by up to 3.9e-10 nats
    raw, D, P = case
    res = rdp(raw, (D, P))
    assert res.region == "C"
    assert not any("snapped" in note for note in res.notes)
    cert = res.certificate
    slack = 1e-12 + cert.nu * res.residuals[0] + cert.mu * res.residuals[1]
    assert res.rate - _dual_bound(raw, D, P, res) <= slack


@st.composite
def _near_s_case(draw):
    """A source of up to 12 components (ties and q = 1/2 included) and a
    budget a relative 10^U(-7, -1) below S(D)."""
    raw = draw(_RAW_Q)
    src = normalize(raw)
    q = src.q
    s, caps = float(q.sum()), float(np.sum(2 * q * (1 - q)))
    D = s + draw(st.floats(0.05, 0.95)) * (caps - s)
    bound = s_of_d(src, D).value
    assume(bound > 0.0)
    P = (1.0 - 10.0 ** draw(st.floats(-7.0, -1.0))) * bound
    assume(classify(src, (D, P)) == "C")
    return raw, D, P


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_near_s_case())
def test_multiplier_search_serves_budgets_next_to_s(case):
    # both multipliers are small this close to S(D); the search serves
    # every budget more than the perception tolerance below it, and the
    # allocation shaped like the S(D) optimizers the rest, never above the
    # rate at P = 0
    raw, D, P = case
    res = rdp(raw, (D, P))
    assert res.region == "C" and not res.notes
    cert = res.certificate
    slack = 1e-12 + cert.nu * res.residuals[0] + cert.mu * res.residuals[1]
    assert res.rate <= rdp(raw, (D, 0.0)).rate + slack
    if not _within_tol_of_s(raw, D, P):
        assert res.rate - _dual_bound(raw, D, P, res) <= slack


def _within_tol_of_s(raw, D, P):
    """Whether D lies above sum q and P at most the perception tolerance
    below S(D): no multiplier search runs there."""
    return (classify(raw, (D, math.inf)) == "B"
            and s_of_d(raw, D).value - P <= 1e-8 * max(1.0, P))


def test_q_half_just_below_sum_q_is_region_a():
    # q = 1/2 is solved as it is: 5e-10 below sum q = 0.8 the water level is
    # 1/2 - 5e-10, the q = 1/2 component needs no perception, and T(D) is
    # the 0.3 of the other component
    res = rdp([0.5, 0.3], (0.8 - 5e-10, 0.5))
    assert res.region == "A" and not res.notes
    assert res.rate == 0.0
    assert t_of_d([0.5, 0.3], 0.7999999995) == 0.3
    # one float below sum q the level rounds to 1/2, every other component
    # saturates, and at T(D) each sits at its zero-rate corner
    raw = [0.5, 0.5, 0.9252486399089482, 0.22558861071384154]
    D, P = 1.3003399708048933, 0.3003399708048933
    res = rdp(raw, (D, P))
    assert res.region == "A" and res.certificate.nu == 0.0
    assert res.rate == 0.0


@st.composite
def _half_case(draw):
    """A source with one or two components at exactly 1/2 among one to eight
    others, and a budget in region A, B or C: D a share of sum q, one float
    below it or a share of the way to sum 2q(1-q), and P on the boundary
    curve, one float below it, or a relative 10^U(-12, -0.05) below or above
    it."""
    raw = [0.5] * draw(st.integers(1, 2)) + draw(st.lists(st.floats(0.02, 0.98), min_size=1,
                                                           max_size=8))
    src = normalize(raw)
    s, caps = float(src.q.sum()), float(np.sum(2 * src.q * (1 - src.q)))
    D = draw(st.one_of(st.just(float(np.nextafter(s, 0.0))),
                       st.floats(0.05, 0.95).map(lambda share: share * s),
                       st.floats(0.0, 1.05).map(lambda share: s + share * (caps - s))))
    edge = (t_of_d(src, D) if classify(src, (D, math.inf)) == "A"
            else s_of_d(src, D).value)
    rel = 10.0 ** draw(st.floats(-12.0, -0.05))
    P = draw(st.sampled_from([edge, float(np.nextafter(edge, 0.0)), edge * (1.0 - rel),
                              edge * (1.0 + rel)]))
    return raw, D, P


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_half_case())
def test_q_half_budgets_solved_in_every_region(case):
    raw, D, P = case
    res = rdp(raw, (D, P))
    assert res.region == classify(raw, (D, P))
    for d, p, q, label in zip(res.allocation.d, res.allocation.p, normalize(raw).q, _regions(res)):
        assert in_region_closure(float(d), float(p), float(q), label), (q, label)
    cert = res.certificate
    if cert.nu == cert.mu == 0.0:  # zero rate, the Lagrangian's minimum
        assert res.rate == 0.0
        return
    slack = 1e-12 + cert.nu * res.residuals[0] + cert.mu * res.residuals[1]
    bound = _dual_bound(raw, D, P, res)
    assert res.rate >= bound - slack
    if not _within_tol_of_s(raw, D, P):  # no search runs there
        assert res.rate - bound <= slack


@pytest.mark.parametrize("eps", [1e-9, 1e-11])
@pytest.mark.parametrize("below_sum_q", [1e-15, 1e-13, 1e-12])
@pytest.mark.parametrize("below_t", [1e-15, 1e-12, 1e-9])
def test_q_next_to_half_next_to_sum_q_fails_typed(eps, below_sum_q, below_t):
    # a q this close to 1/2 puts the water level next to 1/2, and the
    # search in (alpha, beta) raised ConvergenceError at every one of these
    # budgets; the search in log A solves each at its first kernel call,
    # with no floating-point warning
    raw = [0.5 - eps, 0.176, 0.1188]
    D = sum(raw) - below_sum_q
    P = t_of_d(raw, D) * (1.0 - below_t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = rdp(raw, (D, P))
    assert res.region == "C" and res.multiplier_iterations == 1
    cert = res.certificate
    slack = 1e-12 + cert.nu * res.residuals[0] + cert.mu * res.residuals[1]
    assert res.rate - _dual_bound(raw, D, P, res) <= slack


def test_q_next_to_half_just_above_sum_q_is_solved():
    # 3.6e-10 above sum q and 2.6e-6 (relative) below S(D), with two q at
    # 1/2 and one next to it: beta lies below 1e-12, where the search in
    # (alpha, beta) stopped, and it raised ConvergenceError
    q = [0.5, 0.5, 0.4998446415269858, 0.39328140013857643, 0.303575947914513,
         0.22547457356318845, 0.20891149033338982, 0.09771198504655099]
    D, P = 2.7288000388834983, 1.7287944704214857
    res = rdp(q, (D, P))
    assert res.region == "C"
    cert = res.certificate
    slack = 1e-12 + cert.nu * res.residuals[0] + cert.mu * res.residuals[1]
    assert res.rate - _dual_bound(q, D, P, res) <= slack


@pytest.mark.parametrize("raw, D, P", [
    pytest.param([0.4616618115010593], 0.44992027523706346, 0.34443164270314525,
                 id="newton-step-out-of-the-domain"),
    pytest.param([0.5, 0.5, 0.8056703649140609], 1.1943296360757067, 0.19432938892259768,
                 id="call-guard"),
    pytest.param([0.001, 0.25597570408763803, 0.5414663637286097, 0.33223197459618015,
                  0.9556393271333874, 0.7038717763594212], 1.546636340986051, 0.5756299785618599,
                 id="jump-across-d"),
    pytest.param([0.5721630686552444, 0.8386218530855583, 0.8764190946628216],
                 0.9660250183924649, 0.014409120099688767, id="candidate-certified"),
    pytest.param([0.1498169717565819, 0.6291599968535792, 0.048499734835858885,
                  0.7871264150597708, 0.3064487780342413, 0.7341175823888125,
                  0.8942773090200938, 0.682694305113326, 0.4275716336411905],
                 2.7471459886091703, 0.4726989512602569, id="candidate-within-rounding"),
])
def test_budgets_that_pinned_the_two_level_search_are_solved(raw, D, P):
    # budgets that pinned the search in (alpha, beta), which this one in
    # log A replaced: a Newton step that took beta below 1e-12 (one
    # component, so the exact rate is scalar_rdp(D, P, q)), the q = 1/2
    # sweep's costliest budget (300 kernel calls and the call guard), a sum
    # d that jumped across D at the alpha level's root, and two budgets next
    # to S(D) that the S(D)-shaped candidate served
    res = rdp(raw, (D, P))
    assert res.region == "C" and not res.notes
    assert res.multiplier_iterations <= 2
    cert = res.certificate
    slack = 1e-14 + cert.nu * res.residuals[0] + cert.mu * res.residuals[1]
    assert res.rate - _dual_bound(raw, D, P, res) <= slack
    if len(raw) == 1:
        assert abs(res.rate - scalar_rdp(D, P, raw[0])) <= slack


def test_budget_inside_c_away_from_the_boundaries_is_solved():
    # D below sum q = 0.594 and P at 15% of T(D) = 0.353: a search that went
    # back to Newton after its bracket steps cycled at one beta between a
    # Newton step and an alpha-bracket step, and raised at its call cap
    raw, D, P = [0.8478493219103388, 0.4421563817060524], 0.5403732238981972, 0.054333183408430574
    res = rdp(raw, (D, P))
    assert res.region == "C"
    assert res.multiplier_iterations <= 60
    cert = res.certificate
    slack = 1e-12 + cert.nu * res.residuals[0] + cert.mu * res.residuals[1]
    assert res.rate - _dual_bound(raw, D, P, res) <= slack


@pytest.mark.parametrize("rel", [7e-5, 7.5e-5])
def test_many_distinct_q_between_the_pinned_budgets_next_to_s(rel):
    # between test_many_distinct_q_next_to_s's budgets at share 0.8: the
    # search that went back to Newton raised ConvergenceError at its
    # 1,000-call cap at 7e-5 and took 467 kernel calls at 7.5e-5
    q = np.random.default_rng([1505, 2]).uniform(0.05, 0.45, 179_700)
    src = normalize(q)
    s = float(q.sum())
    D = s + 0.8 * (float(np.sum(2 * q * (1 - q))) - s)
    P = (1 - rel) * s_of_d(src, D).value
    res = rdp(src, (D, P))
    assert res.region == "C" and res.notes == ()
    assert res.multiplier_iterations <= 200
    assert res.rate <= rdp(src, (D, 0.0)).rate
    # the kernel's corners, stored as exactly (q, q), add no rate: at
    # q (1 - 1e-15) they added up to about 3.5e-11 nats at this n
    cert = res.certificate
    slack = 1e-12 + cert.nu * res.residuals[0] + cert.mu * res.residuals[1]
    assert res.rate - _dual_bound(q, D, P, res) <= slack


def _bench_profile(n):
    """The solve-c benchmark's source at size n and its three region-C
    budgets: inside C, 1e-3 below T(D) and 5e-2 below S(D)."""
    q = np.round(np.random.default_rng([2501, n]).uniform(0.05, 0.45, n) * 2.0**40) / 2.0**40
    s, caps = float(q.sum()), float(np.sum(2 * q * (1 - q)))
    d_s = s + 0.3 * (caps - s)
    return q, {"inside": (0.5 * s, 0.5 * t_of_d(q, 0.5 * s)),
               "near-T": (0.35 * s, (1 - 1e-3) * t_of_d(q, 0.35 * s)),
               "near-S": (d_s, (1 - 5e-2) * s_of_d(q, d_s).value)}


@pytest.mark.parametrize("n", [3, 30])
def test_brackets_alone_solve_near_s(n, monkeypatch):
    # without the start at the multipliers of the allocation shaped like
    # the S(D) optimizers, the search starts at A = 1 / expm1(1e-12), about
    # 1e12, where no run is between its edge and its corner, and the
    # bracket's caps must find the root
    q, budgets = _bench_profile(n)
    D, P = budgets["near-S"]
    started = rdp(q, (D, P))
    # an alpha root below _MULTIPLIER_MIN gives no start
    monkeypatch.setattr(br.solver, "_s_shaped", lambda *args: (0.0, 0.0, 0))
    res = rdp(q, (D, P))
    assert res.multiplier_iterations > started.multiplier_iterations
    assert res.rate - _dual_bound(q, D, P, res) <= 1e-12
    assert res.rate == pytest.approx(started.rate, rel=1e-8)


@st.composite
def _s_side_case(draw):
    """A source of up to 12 components (ties and q = 1/2 included) and a
    budget a relative 10^-12 to 10^-0.05 below S(D), D inside the S(D) span."""
    src = normalize(draw(_RAW_Q))
    s, caps = float(src.q.sum()), float(np.sum(2 * src.q * (1 - src.q)))
    D = s + draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)) * (caps - s)
    P = (1.0 - 10.0 ** draw(st.floats(-12.0, -0.05))) * s_of_d(src, D).value
    assume(0.0 < P and classify(src, (D, P)) == "C")
    return src, D, P


def _alpha_gap(d, p, q):
    """The reference for ``_s_shaped``'s alpha: minus the distortion-direction
    gradient of the ternary-branch rate,
    -(1/2) log[(d-p)(d+p) / ((2(1-q)-(d-p))(2q-(d+p)))]."""
    num = np.maximum((d - p) * (d + p), 1e-300)
    den = np.maximum((2.0 * (1.0 - q) - (d - p)) * (2.0 * q - (d + p)), 1e-300)
    return -0.5 * np.log(num / den)


class TestSSideSearch:
    """``_s_shaped``'s alpha search: the root of the distortion budget with
    run k on its alpha equation, and run k's beta gap there."""

    @pytest.mark.parametrize("n", [3, 30, 300, 3000])
    def test_bench_profiles_take_few_calls(self, n):
        # the search on run k's alpha gap in log alpha took 13, 18, 17 and 24
        q, budgets = _bench_profile(n)
        src = normalize(q)
        alpha, beta, calls = _s_shaped(src.run_q, src.counts, *budgets["near-S"])
        assert alpha - beta > _MULTIPLIER_MIN
        assert calls <= 8

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(_s_side_case())
    def test_alpha_is_run_ks_alpha_gap(self, case):
        src, D, P = case
        q, m = src.run_q, src.counts
        alpha, beta, _ = _s_shaped(q, m, D, P)
        # the allocation shaped like the S(D) optimizers at alpha: runs
        # before k on their p = 0 edge, those after k at their corner, run k
        # with the rest of both budgets
        tail = np.append(np.cumsum((m * q)[::-1])[::-1][1:], 0.0)
        k = int(np.flatnonzero(tail <= P)[0])
        pk = (P - tail[k]) / m[k]
        dk = (D - tail[k] - float(np.sum(m[:k] * _x_of_alpha(alpha, 0.0, q[:k])))) / m[k]
        # the search stops within 1e-15 of D - P, which d_k carries
        a_d = _alpha_slope(dk - pk, pk, q[k])
        floor = 4.0 * (math.ulp(1.0) + abs(a_d) * (math.ulp(D) + 1e-15 * (D - P)) / m[k])
        assert abs(float(_alpha_gap(dk, pk, q[k])) - alpha) <= floor
        gap = float(_beta_gap(dk, pk, q[k])) if pk < dk < 2.0 * q[k] - pk else 0.0
        assert beta == max(gap, 0.0)

    def test_root_below_multiplier_min_is_found_from_zero(self):
        # P lies 4.6e-14 below S(D), and alpha's root lies below
        # _MULTIPLIER_MIN, where the search once started and stopped in 1
        # call; from the bracket's lower end 0 it is found, and the search in
        # log A starts at _MULTIPLIER_MIN, as it did from alpha = 0
        src = normalize([0.8573076493033616, 0.03777652896340232])
        D, P = 0.27731974030176054, 0.04494021013591801
        q, m = src.run_q, src.counts
        alpha, beta, calls = _s_shaped(q, m, D, P)
        assert 0.0 < alpha < _MULTIPLIER_MIN and calls <= 2
        # run k is the first, with all of D and P but the second's corner
        assert abs(float(_alpha_gap(D - q[1], P - q[1], q[0])) - alpha) <= 4.0 * math.ulp(1.0)
        assert alpha - beta <= _MULTIPLIER_MIN
        res = rdp(src, (D, P))
        assert res.rate == 0.0
        assert res.rate - _dual_bound(src.q, D, P, res) <= 1e-12


@settings(derandomize=True, max_examples=500, deadline=None)
@given(log_q=st.floats(-300.0, math.log10(0.5)), share=st.floats(0.0, 1.0),
       log_alpha=st.floats(-12.0, math.log10(354.0)))
def test_x_of_alpha_within_the_bracket_bound(log_q, share, log_alpha):
    # _s_shaped's bracket end alpha_hi rests on d - p <= 2 sqrt(q(1-q) /
    # expm1(2 alpha)) at every p in [0, q]; the bound is taken in two square
    # roots so that it does not underflow
    q, alpha = 10.0 ** log_q, 10.0 ** log_alpha
    p = share * q
    x = float(_x_of_alpha(alpha, p, q))
    bound = 2.0 * math.sqrt(q * (1.0 - q)) / math.sqrt(math.expm1(2.0 * alpha))
    assert 0.0 <= x <= bound * (1.0 + 4.0 * math.ulp(1.0))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _gathering_component_dp(A, b, q, m, q0):
    """``_component_dp`` with boolean gathers and scatters for each kind of
    run: the p = 0 edge's d is taken on the edge runs alone, and the
    corners are written (q, q) by a scatter."""
    B = A * q0 / (1.0 - q0) + b
    alpha = 0.5 * (math.log1p(1.0 / A) + math.log1p(1.0 / B))
    p = (1.0 - q) * b + A * (q0 - q) / (1.0 - q0)
    edge, corner = p <= 0.0, p >= q
    inner = ~edge & ~corner
    d = np.empty_like(q)
    d[edge], p[edge] = _x_of_alpha(alpha, 0.0, q[edge]), 0.0
    d[corner] = p[corner] = q[corner]
    de, qe = d[edge], q[edge]
    d_alpha = 0.0
    if de.any():
        scaled = de * math.exp(alpha)
        d_alpha = -float((m[edge] * (scaled * scaled * (de / (4.0 * qe * (1.0 - qe) - de)))).sum())
    grad = np.array([-d_alpha / (2.0 * A * (A + 1.0)), -d_alpha / (2.0 * B * (B + 1.0))])
    if np.any(inner):
        qi, mi, u = q[inner], m[inner], q[inner] - p[inner]
        ga, gb = A + 1.0 - u, B + u
        d[inner] = 0.5 * (2.0 * (1.0 - qi) * u * A / ga + 2.0 * qi * B * (1.0 - u) / gb)
        xy_u = 2.0 * (1.0 - qi) * A * (A + 1.0) / (ga * ga) - 2.0 * qi * B * (B + 1.0) / (gb * gb)
        grad += 0.5 * np.array([
            float((mi * (2.0 * (1.0 - qi) * u * (1.0 - u) / (ga * ga) + xy_u * qi)).sum()),
            float((mi * (2.0 * qi * u * (1.0 - u) / (gb * gb) - xy_u * (1.0 - qi))).sum())])
    return d, p, grad


@settings(derandomize=True, max_examples=300, deadline=None)
@given(q=st.lists(st.one_of(st.just(0.3), st.floats(1e-6, 0.5)),
                  min_size=1, max_size=8).map(lambda v: np.array(sorted(v, reverse=True))),
       counts=st.lists(st.integers(1, 5), min_size=8, max_size=8),
       log_a=st.floats(-3.0, 12.0), share=st.floats(1e-3, 1.2),
       anchor=st.integers(-1, 7))
def test_component_dp_same_bits_as_the_gathering_kernel(q, counts, log_a, share, anchor):
    # B = share A spans runs all on their edge, mixed and all at their
    # corner; the anchor q0 is 0 or one of the q
    A = 10.0 ** log_a
    m = np.array(counts[:q.size])
    q0 = 0.0 if anchor < 0 else float(q[anchor % q.size])
    b = share * A - A * q0 / (1.0 - q0)
    got, want = _component_dp(A, b, q, m, q0), _gathering_component_dp(A, b, q, m, q0)
    for x, y in zip(got, want):
        assert x.tobytes() == y.tobytes()


@settings(derandomize=True, max_examples=400, deadline=None)
@given(raw=st.lists(st.one_of(st.sampled_from((0.5, 0.3, math.nextafter(0.3, 1.0), 0.3 + 1e-9,
                                               5e-324, 1e-310)),
                              st.floats(1e-6, 0.5)), min_size=1, max_size=10),
       log_a=st.floats(-3.0, 15.0), share=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_perception_budget_met_at_every_evaluation(raw, log_a, share):
    # at any A the search's kernel point meets P to rounding: ties, q at
    # 1/2, q one float apart and subnormal q included
    src = normalize(raw)
    live = src.run_q > 0.0
    q, m = src.run_q[live], src.counts[live]
    P = share * float((m * q).sum())
    assume(P > 0.0)
    A = 10.0 ** log_a
    e, _, b = _perception_piece(q, m, P)(A)
    _, p, _ = _component_dp(A, b, q, m, q[e])
    assert abs(float((m * p).sum()) - P) <= 2 * int(m.sum()) * math.ulp(P)


def _least_root_p(q, m, A, P):
    """Reference for ``_perception_piece``: each run's p at the least B with
    sum m clip((1-q) B - q A, 0, q) = P, in exact rational arithmetic on the
    given floats."""
    A, P, qs = Fraction(A), Fraction(P), [Fraction(v) for v in q]

    def sum_p(B):
        return sum(mi * min(max((1 - qi) * B - qi * A, 0), qi) for qi, mi in zip(qs, m))

    lo = Fraction(0)
    for hi in sorted({A * qi / (1 - qi) for qi in qs} | {(A + 1) * qi / (1 - qi) for qi in qs}):
        if sum_p(hi) >= P:
            break
        lo = hi
    B = lo + (P - sum_p(lo)) * (hi - lo) / (sum_p(hi) - sum_p(lo))  # sum p is linear here
    return [float(min(max((1 - qi) * B - qi * A, 0), qi)) for qi in qs]


@pytest.mark.parametrize("A", [1e4, 1e6, 1e8, 1e10])
def test_perception_piece_keeps_its_digits_at_large_a(A):
    # three q 1e-9 apart share the piece between edge and corner at large A,
    # where p = (1 - q) B - q A is a difference of numbers near 0.43 A: taken
    # directly it is off by 5.5e-9 of q at A = 1e8, and the near-S sweep then
    # raised ConvergenceError 18 times.  Each p is written relative to the
    # first such run's
    q, m = np.array([0.3 + 2e-9, 0.3 + 1e-9, 0.3, 0.2]), np.array([1, 2, 1, 1])
    P = 0.2 + 0.3 + 0.6 * 0.5
    e, _, b = _perception_piece(q, m, P)(A)
    _, p, _ = _component_dp(A, b, q, m, q[e])
    np.testing.assert_allclose(p, _least_root_p(q, m, A, P), rtol=0.0, atol=4.0 * math.ulp(0.3))


@pytest.mark.parametrize("raw, D, P, parent_rate", [
    ([0.25, 0.125, 1e-5], 0.125, 1e-5, 0.5083098977786396),
    ([0.1875] + [0.05333838389862612] * 3, 0.34972822832635303, 0.16001515169587838, None),
])
def test_flat_piece_takes_its_left_end(raw, D, P, parent_rate):
    # P is the sum of q of the runs at their corner, so sum p is flat in B
    # between the last of them reaching its corner and the next leaving its
    # edge; the least root is the left end at every A, and a search that
    # took one end at some A and the other at the next raised
    # ConvergenceError here
    res = rdp(raw, (D, P))
    assert res.region == "C" and not res.notes
    assert res.allocation.p[-1] == normalize(raw).q[-1]
    cert = res.certificate
    slack = 1e-12 + cert.nu * res.residuals[0] + cert.mu * res.residuals[1]
    assert res.rate - _dual_bound(raw, D, P, res) <= slack
    if parent_rate is not None:
        assert abs(res.rate - parent_rate) <= slack


def test_start_takes_the_candidates_multipliers():
    # one component, so the S(D)-shaped candidate (d, p) = (D, P) is the
    # optimum; its beta, 1.354, is the start, which a ceiling on beta once
    # clipped, and the search then took 29 kernel calls.  The start's A is
    # the root, met at the first call
    q = 0.9775042855673485
    D, P = 0.02412565296287344, 0.008819826662086961
    res = rdp([q], (D, P))
    assert res.region == "C" and not res.notes
    assert res.multiplier_iterations == 1
    assert res.rate == pytest.approx(scalar_rdp(D, P, 1.0 - q), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("tiny", [5e-324, 1e-310])
@pytest.mark.parametrize("share", [None, 0.5, 1.0 - 1e-10])
def test_subnormal_component_leaves_the_rate(tiny, share):
    # (1 - q) / q overflows at such a q; None is a budget below sum q, a
    # share one below S(D), and the last share is served by the S(D)-shaped
    # allocation
    base = [0.3, 0.1]
    D, P = (0.15, 0.15 / 3.5) if share is None else (0.45, share * s_of_d(base, 0.45).value)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = rdp([*base, tiny], (D, P))
    assert res.region == "C"
    assert res.rate == rdp(base, (D, P)).rate


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.5, 1e-6]), min_size=1, max_size=8),
       st.floats(-25.0, 4.0), st.floats(-25.0, 4.0))
def test_kernel_minimizer_is_optimal_at_its_budgets(raw, log_alpha, log_beta):
    # Lagrangian sufficiency: the kernel's minimizer of R + alpha d + beta p
    # is optimal at the budgets it spends, so rdp must return its rate
    # there, up to what rdp's own budget residuals are worth
    src = normalize(raw)
    live = src.run_q > 0.0
    q, m = src.run_q[live], src.counts[live]
    d, p = _kernel_at(math.exp(log_alpha), math.exp(log_beta), q, m)
    want = float((m * scalar_rdp(d, p, q)).sum())
    res = rdp(src, (float((m * d).sum()), float((m * p).sum())))
    (res_d, res_p), cert = res.residuals, res.certificate
    assert abs(res.rate - want) <= cert.nu * res_d + cert.mu * res_p + 1e-12


@pytest.mark.parametrize("log_alpha, log_beta", [(-4.0, -22.0), (-4.0, -6.0), (-1.0, -22.0),
                                                 (-1.0, -6.0), (2.0, -22.0), (2.0, -6.0)])
def test_kernel_minimizer_is_optimal_at_many_distinct_q(log_alpha, log_beta):
    # Lagrangian sufficiency at n = 179,700: rates reach 9e4 nats, and the
    # sums carry rounding of that size, so the slack is relative
    src = normalize(np.random.default_rng([1505, 2]).uniform(0.05, 0.45, 179_700))
    q, m = src.run_q, src.counts
    d, p = _kernel_at(math.exp(log_alpha), math.exp(log_beta), q, m)
    want = float((m * scalar_rdp(d, p, q)).sum())
    res = rdp(src, (float((m * d).sum()), float((m * p).sum())))
    (res_d, res_p), cert = res.residuals, res.certificate
    assert res.multiplier_iterations <= 20
    assert abs(res.rate - want) <= cert.nu * res_d + cert.mu * res_p + 1e-13 * max(1.0, res.rate)


def _residual_worth(res) -> float:
    """What the budget residuals may move the rate by: nu res_d + mu res_p,
    with nu res_d = 0 where nu is inf (region A at D = 0, where res_d = 0)."""
    (res_d, res_p), cert = res.residuals, res.certificate
    return (0.0 if math.isinf(cert.nu) else cert.nu * res_d) + cert.mu * res_p


@st.composite
def _convexity_case(draw):
    """A source and two budgets: one a relative 1e-9..1e-2 below T(D) or
    S(D) and one as far above the boundary at a nearby D, or two anywhere
    in [0, 1.1 max(sum q, sum 2q(1-q))]^2."""
    raw = draw(st.lists(st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.5]),
                        min_size=1, max_size=8))
    src = normalize(raw)
    top = 1.1 * max(float(src.q.sum()), float((2.0 * src.q * (1.0 - src.q)).sum()))
    if draw(st.booleans()):
        D = draw(st.floats(0.0, top))
        D2 = max(0.0, D + draw(st.floats(-0.1, 0.1)) * top)
        rel = 10.0 ** draw(st.floats(-9.0, -2.0))
        x = (D, _plane_boundary(src, D)[1] * (1.0 - rel))
        y = (D2, _plane_boundary(src, D2)[1] * (1.0 + rel))
    else:
        x, y = ((draw(st.floats(0.0, top)), draw(st.floats(0.0, top))) for _ in range(2))
    return raw, x, y


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(_convexity_case())
def test_rate_is_midpoint_convex(case):
    # R is convex in (D, P), also across the T(D) and S(D) boundaries; each
    # rate may sit off the optimum by what its budget residuals are worth
    raw, x, y = case
    mid = (0.5 * (x[0] + y[0]), 0.5 * (x[1] + y[1]))
    rx, ry, rm = (rdp(raw, budget) for budget in (x, y, mid))
    slack = (_residual_worth(rm) + 0.5 * (_residual_worth(rx) + _residual_worth(ry))
             + 1e-12 * max(1.0, rx.rate, ry.rate))
    assert rm.rate <= 0.5 * (rx.rate + ry.rate) + slack


#: Sources for the supporting-plane check, n = 1 to 7, with q = 0, q = 1/2,
#: ties and entries above 1/2 (folded to 1 - q).
PLANE_SOURCES = [[0.3], [0.5], [0.0, 0.2], [0.3, 0.1], [0.5, 0.3, 0.05], [0.25, 0.25, 0.1],
                 [0.4, 0.3, 0.15, 0.05], [0.8, 0.6, 0.001, 0.35], [0.5, 0.5, 0.2, 0.0, 0.1],
                 [0.45, 0.35, 0.2, 0.12, 0.08, 0.02], [0.3] * 7,
                 [0.49, 0.41, 0.33, 0.27, 0.18, 0.09, 0.01]]


def _plane_budgets(src):
    """Budgets across regions A, B and C and on their edges: at each D, P = 0,
    the boundary T(D) or S(D), 1e-7 below it, half of it and above it, and
    D = sum q (1 +- 1e-9) among the D.  Each half-way budget has neighbours
    1e-5 away on both axes, whose planes bound its finite differences, so a
    multiplier off by 1e-3 of itself breaks one."""
    h = 1e-5
    sum_q, caps = float(src.q.sum()), float((2.0 * src.q * (1.0 - src.q)).sum())
    budgets = set()
    for D in (0.0, 0.3 * sum_q, 0.7 * sum_q, sum_q * (1.0 - 1e-9), sum_q * (1.0 + 1e-9),
              0.5 * (sum_q + caps), caps, 1.2 * caps):
        edge = _plane_boundary(src, D)[1]
        budgets |= {(D, P) for P in (0.0, edge - 1e-7, edge, edge + 0.1, sum_q) if P >= 0.0}
        steps = ((0.0, 0.0), (-h, 0.0), (h, 0.0), (0.0, -h), (0.0, h))
        budgets |= {(D + dD, 0.5 * edge + dP) for dD, dP in steps
                    if D + dD >= 0.0 and 0.5 * edge + dP >= 0.0}
    return sorted(budgets)


@pytest.mark.parametrize("raw", PLANE_SOURCES)
def test_every_certificate_is_a_supporting_plane(raw):
    # R is jointly convex and (-nu, -mu) is a subgradient at (D, P), so every
    # other budget's rate lies on or above that budget's plane:
    # R(D', P') >= R(D, P) - nu (D' - D) - mu (P' - P).  A rate too high or
    # too low anywhere, or a wrong multiplier, breaks some plane.  The slack
    # 1e-9 stands until the budget residuals get a bound of their own; the
    # worst seen over these sources' 47,948 pairs is 1.4e-11.
    src = normalize(raw)
    budgets = _plane_budgets(src)
    D, P = (np.array(axis) for axis in zip(*budgets))
    results = [rdp(src, budget) for budget in budgets]
    rate = np.array([res.rate for res in results])
    nu = np.array([res.certificate.nu for res in results])
    mu = np.array([res.certificate.mu for res in results])
    live = np.isfinite(nu)  # region A at D = 0 has nu = inf
    plane = (rate[live, None] - nu[live, None] * (D[None, :] - D[live, None])
             - mu[live, None] * (P[None, :] - P[live, None]))
    gap = plane - rate[None, :]
    assert gap.max() <= 1e-9, (budgets[int(np.flatnonzero(live)[gap.max(axis=1).argmax()])],
                               gap.max())


@pytest.mark.parametrize("raw", [[0.25, 0.5], [0.5, 0.5, 0.75], [0.3, 0.1, 0.0, 0.5],
                                 [1e-6, 0.2]])
@pytest.mark.parametrize("D", [1e-310, 2.2e-308])
def test_subnormal_distortion_spreads_the_perception(raw, D):
    # the perception lower bounds sum to about D, and P over that sum
    # overflowed: p came out inf and nan, and at q = 1/2 the rate lost
    # that component's entropy (0.562 nats for 1.255 at [0.25, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = rdp(raw, (D, 1.0))
    assert res.region == "A"
    assert np.isfinite(res.allocation.p).all() and res.residuals[1] <= 1e-15
    assert res.rate == pytest.approx(rdp(raw, (0.0, 1.0)).rate, rel=1e-12)


@pytest.mark.parametrize("rtol", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("solve", [rdp, solve_region_c])
def test_budget_tolerance_must_be_finite_and_positive(solve, rtol):
    # at inf the region-C search returned R(D, 0) = 0.5686 nats, with sum p
    # = 0 against P = 0.05; 0 divided by zero, and -1 and nan did not converge
    with pytest.raises(DomainError, match="budget tolerance must be finite and > 0"):
        solve([0.3, 0.1], (0.1, 0.05), budget_rtol=rtol)


class TestRegionCKernelCalls:
    # kernel calls of the search in log A on the bench profiles, the near-S
    # budgets started from the S(D)-shaped allocation's multipliers; the
    # search in (alpha, beta) took up to 12 inside and near T(D), and 23,
    # 21 and 18 near S(D)
    NEAR_S = {3: 1, 30: 1, 300: 3}

    @pytest.mark.parametrize("n", [3, 30, 300])
    def test_bench_profiles(self, n):
        q, budgets = _bench_profile(n)
        calls = {label: rdp(q, budget).multiplier_iterations
                 for label, budget in budgets.items()}
        assert calls["inside"] <= 4
        assert calls["near-T"] <= 3
        assert calls["near-S"] <= self.NEAR_S[n]


class TestTiedComponents:
    def test_tied_near_s_takes_few_kernel_calls(self):
        # three equal q just below S(D) took 113 kernel calls when each
        # component was solved on its own; the run is one component now
        q, D, P = 0.41057234265195425, 1.4129178751567557, 0.21117971030978275
        res = rdp([q] * 3, (D, P))
        assert res.region == "C"
        assert res.multiplier_iterations <= 10
        want = 3 * scalar_rdp(D / 3, P / 3, q)
        assert abs(res.rate - want) <= 1e-12 * max(1.0, res.rate)

    def test_ties_match_jittered_ties(self):
        # the weighted solve on runs against the same source with its ties
        # broken by 1e-13: the rates agree to the rate's sensitivity
        rng = np.random.default_rng(61)
        for _ in range(60):
            values = rng.uniform(0.02, 0.48, int(rng.integers(1, 4)))
            raw = rng.choice(values, int(rng.integers(2, 9)))
            jittered = raw + 1e-13 * np.arange(raw.size)
            src = normalize(raw)
            assert src.counts.size == np.unique(raw).size
            budget = _rand_budget(rng, src)
            res = rdp(src, budget)
            assert res.rate == pytest.approx(rdp(jittered, budget).rate, rel=1e-9, abs=1e-9)
            for run in np.split(np.stack([res.allocation.d, res.allocation.p]),
                                np.cumsum(src.counts)[:-1], axis=1):
                assert np.ptp(run, axis=1).tolist() == [0.0, 0.0]  # equal shares

    def test_s_of_d_spreads_a_run_equally(self):
        point = s_of_d([0.3, 0.3, 0.1], 0.8)
        assert point.k == 1  # the first component of the active run
        assert point.d[0] == point.d[1] == point.d_k
        assert point.value == pytest.approx(s_of_d([0.3, 0.3 + 1e-12, 0.1], 0.8).value, abs=1e-9)

    def test_water_fill_counts(self):
        q = np.array([0.4, 0.2, 0.05])
        counts = np.array([2, 3, 1])
        np.testing.assert_allclose(np.repeat(water_fill(q, 0.9, counts), counts),
                                   water_fill(np.repeat(q, counts), 0.9), rtol=0, atol=1e-15)


class _ArrayBracket:
    """Reference: the elementwise numpy form of ``_bracketed_newton``'s
    bracket steps, kept to pin the scalar one bit for bit."""

    def __init__(self, lo, hi):
        self.lo, self.hi = (np.array(v, dtype=float) for v in np.broadcast_arrays(lo, hi))
        self.lo_seen, self.hi_seen = np.zeros((2,) + self.lo.shape, dtype=bool)
        self.reach = np.ones(self.lo.shape)

    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def step(self, x, fx, slope):
        up = np.asarray(fx) > 0.0
        self.lo = np.where(up, x, self.lo)
        self.hi = np.where(up, self.hi, x)
        self.lo_seen |= up
        self.hi_seen |= ~up
        unseen = np.where(up, ~self.hi_seen, ~self.lo_seen)
        cap = np.clip(x + np.where(up, self.reach, -self.reach), self.lo, self.hi)
        low = np.where(unseen & ~up, cap, self.lo)
        high = np.where(unseen & up, cap, self.hi)
        newton = x - fx / slope
        usable = ((newton > low) & (newton < high)) | (newton == x)
        self.reach = np.where(unseen & ~usable, 2.0 * self.reach, self.reach)
        return np.where(usable, newton, np.where(unseen, cap, 0.5 * (self.lo + self.hi)))


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


_SPECIAL = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])


class TestBracket:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.sampled_from([(-math.inf, math.inf), (math.log(1e-12), math.inf),
                            (math.log(1e-12), 4.0), (0.0, 30.0)]),
           st.floats(0.0, 1.0),
           st.lists(st.tuples(st.one_of(st.floats(-1e3, 1e3), _SPECIAL),
                              st.one_of(st.floats(-1e3, 1e3), _SPECIAL)),
                    min_size=1, max_size=40))
    def test_scalar_steps_match_the_array_form(self, ends, share, steps):
        # the scripted (value, slope) pairs, then a zero value, where the
        # search stops; it also stops where a step does not move
        lo, hi = ends
        x = max(lo, -30.0) + share * (min(hi, 30.0) - max(lo, -30.0))
        steps = steps + [(0.0, math.nan)]
        script, points = iter(steps), []

        def f(x):
            points.append(x)
            return next(script)

        root, calls = _bracketed_newton(f, x, lo, hi)
        array, want = _ArrayBracket(lo, hi), []
        for fx, slope in steps:
            want.append(x)
            if fx == 0.0:
                break
            x, last = float(array.step(*(np.array([v]) for v in (x, fx, slope)))[0]), x
            if abs(x - last) <= 0.0:
                break
        assert calls == len(points)
        assert [_bits(v) for v in points] == [_bits(v) for v in want]
        assert _bits(root) == _bits(x)

    def test_a_bracket_that_never_closes_raises(self):
        # a value that stays positive towards hi = inf: the cap doubles at
        # every call, and the search gives up after MAX_ROOT_ITER of them
        points = []

        def f(x):
            points.append(x)
            return 1.0, math.nan

        with pytest.raises(ConvergenceError, match="did not converge"):
            _bracketed_newton(f, 0.0, 0.0, math.inf)
        assert len(points) == br.solver.MAX_ROOT_ITER
        assert points[:4] == [0.0, 1.0, 3.0, 7.0]


class TestRdpDispatch:
    def test_regions_route(self):
        src = normalize([0.3, 0.1])
        assert rdp(src, (0.1, 0.5)).region == "A"
        assert rdp(src, (0.7, 0.5)).region == "B"
        assert rdp(src, (0.1, 0.02)).region == "C"

    def test_region_labels_print_as_their_letters(self):
        # the CLI writes labels through str(), format() and %s
        region = rdp([0.3, 0.1], (0.1, 0.02)).region
        assert isinstance(region, br.PlaneRegion) and region == "C"
        assert (str(region), f"{region}", "%s" % region) == ("C", "C", "C")

    def test_equal_q_identity_all_regions(self):
        rng = np.random.default_rng(28)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            qv = float(rng.uniform(0.02, 0.5))
            caps = 2 * qv * (1 - qv) * n
            D = float(rng.uniform(0.0, 1.1 * caps))
            P = float(rng.uniform(0.0, 1.1 * qv * n))
            res = rdp([qv] * n, (D, P))
            want = n * scalar_rdp(min(D / n, 1.0), P / n, qv)
            assert res.rate == pytest.approx(want, abs=1e-8)

    def test_canonicalization_invariance(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            raw = rng.uniform(0.0, 1.0, n)
            src = normalize(raw)
            budget = _rand_budget(rng, src)
            base = rdp(src, budget).rate
            perm = rng.permutation(n)
            flip = rng.random(n) < 0.5
            other = rdp(normalize(np.where(flip, 1 - raw, raw)[perm]), budget).rate
            assert other == pytest.approx(base, abs=1e-10)

    def test_decomposition_consistency(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            src = _rand_source(rng, 1, 5)
            budget = _rand_budget(rng, src)
            res = rdp(src, budget)
            total = float(np.atleast_1d(
                scalar_rdp(res.allocation.d, res.allocation.p, src.q)).sum())
            assert res.rate == pytest.approx(total, abs=1e-12)
            assert res.rate == pytest.approx(
                float(res.allocation.per_component_rate.sum()), abs=0.0)

    def test_plane_monotonicity(self):
        src = normalize([0.35, 0.15])
        d_grid = np.linspace(0.0, 0.8, 15)
        p_grid = np.linspace(0.0, 0.6, 13)
        rates = np.array([[rdp(src, (float(D), float(P))).rate for P in p_grid]
                          for D in d_grid])
        assert np.all(np.diff(rates, axis=0) <= 1e-9)
        assert np.all(np.diff(rates, axis=1) <= 1e-9)

    def test_boundary_continuity(self):
        src = normalize([0.4, 0.2])
        D = 0.25
        T = t_of_d(src, D)
        gap = abs(rdp(src, (D, T - 1e-6)).rate - rdp(src, (D, T + 1e-6)).rate)
        assert gap <= 1e-4
        D2 = 0.7
        S = s_of_d(src, D2).value
        gap = abs(rdp(src, (D2, S - 1e-6)).rate - rdp(src, (D2, S + 1e-6)).rate)
        assert gap <= 1e-4

    def test_region_a_equals_unconstrained(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            src = _rand_source(rng, 1, 5)
            D = float(rng.uniform(0.0, float(src.q.sum()) * 0.99))
            P = t_of_d(src, D) + float(rng.uniform(0.0, 0.5))
            res = rdp(src, (D, P))
            free = rdp(src, (D, math.inf))
            assert res.rate == pytest.approx(free.rate, abs=1e-10)

    def test_q_half_component_takes_no_perception(self):
        # at q = 1/2 the rate-distortion test channel already meets any
        # perception budget, so in region C the q = 1/2 component keeps
        # p = 0 and the classic rate ln 2 - h2(d)
        res = rdp([0.5, 0.2], (0.1, 0.01))
        assert res.region == "C" and not res.notes
        d, p = res.allocation.d[0], res.allocation.p[0]
        assert p == 0.0
        assert res.allocation.per_component_rate[0] == pytest.approx(
            math.log(2.0) - h2_arr(d), abs=1e-15)

    def test_zero_q_components_stripped(self):
        res = rdp([0.3, 0.0, 0.1], (0.1, 0.02))
        assert res.region == "C"
        zero_slot = list(normalize([0.3, 0.0, 0.1]).q).index(0.0)
        assert res.allocation.d[zero_slot] == 0.0
        assert res.allocation.p[zero_slot] == 0.0
        assert res.rate == pytest.approx(rdp([0.3, 0.1], (0.1, 0.02)).rate, abs=1e-10)

    def test_all_zero_source(self):
        res = rdp([0.0, 0.0], (0.3, 0.1))
        assert res.region == "B"
        assert res.rate == 0.0
        assert abs(res.allocation.d.sum() - 0.3) <= 1e-12


class TestRdpLocatesOnce:
    """rdp makes the region test once and hands it to the solver; with one
    component per run its result keeps the solver's arrays unrepeated."""

    CASES = {"A": (0.1, 0.5), "B": (1.5, 0.3), "C": (0.1, 0.02), "P=0": (0.1, 0.0)}

    @pytest.mark.parametrize("raw", [[0.3, 0.1, 0.2], [0.3, 0.1, 0.3, 0.2], [0.3, 0.0, 0.1]])
    @pytest.mark.parametrize("label", list(CASES))
    def test_one_plane_boundary_per_solve(self, monkeypatch, label, raw):
        src = normalize(raw)
        boundary = mock.Mock(wraps=br.solver._plane_boundary)
        monkeypatch.setattr(br.solver, "_plane_boundary", boundary)
        res = rdp(src, self.CASES[label])
        assert boundary.call_count == 1
        assert res.region == ("C" if label == "P=0" else label)
        arrays = [res.allocation.d, res.allocation.p, res.allocation.per_component_rate,
                  res.certificate.lam, res.certificate.component_regions]
        assert all(a.shape == (src.n,) for a in arrays)
        for i, a in enumerate(arrays):
            assert not np.shares_memory(a, src.q)
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)


class TestRdpPZero:
    """rdp at P = 0, in regions A, B and C."""

    @pytest.mark.parametrize("D", [1e-200, 5e-324])
    def test_tiny_distortion(self, D):
        # the P = 0 multiplier's bracket end is found in log form, and where
        # e^{2 alpha} overflows every distortion is 0
        res = rdp([0.3, 0.2], (D, 0.0))
        assert res.rate == pytest.approx(h2_arr(np.array([0.3, 0.2])).sum(), abs=1e-15)
        # every d and beta gap is 0 here; the multiplier is +0.0, not -0.0
        assert math.copysign(1.0, res.certificate.mu) == 1.0

    @pytest.mark.parametrize("raw, D, P, rate, max_calls", [
        ([1e-300], 8.884087467824297e-301, 4.198777387539376e-301, 7.67139117238873e-298, 2),
        ([1e-300], 1e-301, 0.0, 1.3121739297792509e-297, 2),
        ([1e-300, 1e-300, 2e-300], 8.884087467824297e-301, 4.198777387539376e-301,
         4.908057869325723e-297, 3)])
    def test_subnormal_scale_source_takes_few_calls(self, raw, D, P, rate, max_calls):
        # the slope of the edge distortions was taken from d^3, which
        # underflows once d is below about 1e-103: with a zero slope the
        # search bisected, in 45, 47 and 43 calls
        res = rdp(raw, (D, P))
        assert res.region == "C"
        assert res.rate == pytest.approx(rate, rel=1e-12)
        assert res.multiplier_iterations <= max_calls

    def test_plateau(self):
        caps = 2 * 0.3 * 0.7 + 2 * 0.1 * 0.9
        assert rdp([0.3, 0.1], (caps + 0.05, 0.0)).rate == 0.0

    def test_at_zero_distortion(self):
        assert rdp([0.3, 0.1], (0.0, 0.0)).rate == pytest.approx(SUM_H2_03_01, abs=1e-12)

    def test_matches_rdp(self):
        # regions A (D = 0), B and C at P = 0 all pass the post-solve checks,
        # which leave the rate of the region's solver as it is
        rng = np.random.default_rng(32)
        solvers = {"A": solve_region_a, "B": solve_region_b, "C": solve_region_c}
        for _ in range(25):
            src = _rand_source(rng, 1, 5)
            caps = float((2 * src.q * (1 - src.q)).sum())
            D = float(rng.uniform(0.0, 1.1 * caps))
            assert rdp(src, (D, 0.0)).rate == pytest.approx(
                solvers[classify(src, (D, 0.0))](src, (D, 0.0)).rate, abs=1e-8)


class TestLengthBounds:
    def test_trivial_points(self):
        assert length_bounds(0.0) == (0.0, 5.0)
        lo, hi = length_bounds(math.log(2.0))
        assert lo == pytest.approx(1.0, abs=1e-15)
        assert hi == pytest.approx(7.0, abs=1e-15)  # 1 + log2(2) + 5
        lo, hi = length_bounds(3 * math.log(2.0))
        assert lo == pytest.approx(3.0, abs=1e-14)
        assert hi == pytest.approx(10.0, abs=1e-14)  # 3 + log2(4) + 5

    def test_ordering_and_identity(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            rate = float(rng.uniform(0.0, 10.0))
            lo, hi = length_bounds(rate)
            assert lo <= hi
            assert hi - lo == pytest.approx(math.log2(lo + 1.0) + 5.0, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            length_bounds(-0.1)
        with pytest.raises(DomainError):
            length_bounds(math.inf)


class TestCertificateChecks:
    def test_check_passes_on_solver_output(self):
        res = rdp([0.3, 0.1], (0.2, 0.05))
        br.check_certificate(res)  # should not raise

    def test_mixed_families_rejected(self):
        res = rdp([0.3, 0.1], (0.2, 0.05))
        bad = br.KktCertificate(
            nu=res.certificate.nu, mu=res.certificate.mu,
            lam=res.certificate.lam,
            component_regions=np.array([tuple(ScalarRegion).index(r) for r in (
                ScalarRegion.S, ScalarRegion.T)], dtype=np.int8))
        broken = br.RdpResult(rate=res.rate, region=res.region,
                              allocation=res.allocation, certificate=bad,
                              multiplier_iterations=0, residuals=res.residuals)
        with pytest.raises(ConvergenceError):
            br.check_certificate(broken)

    @staticmethod
    def _doctored(res, lam=None, residuals=None):
        """``res`` with its multipliers lam or its residuals replaced."""
        cert = res.certificate
        bad = br.KktCertificate(nu=cert.nu, mu=cert.mu,
                                lam=cert.lam if lam is None else np.asarray(lam, dtype=float),
                                component_regions=cert.component_regions)
        return br.RdpResult(rate=res.rate, region=res.region, allocation=res.allocation,
                            certificate=bad, multiplier_iterations=0,
                            residuals=res.residuals if residuals is None else residuals)

    def test_negative_multiplier_rejected(self):
        res = rdp([0.3, 0.1], (0.2, 0.05))
        with pytest.raises(ConvergenceError, match="negative"):
            br.check_certificate(self._doctored(res, lam=[-1e-9, 0.0]))

    def test_slackness_violation_rejected(self):
        res = rdp([0.3, 0.1], (0.2, 0.05))
        assert res.allocation.p.max() > 1e-3
        with pytest.raises(ConvergenceError, match="complementary slackness"):
            br.check_certificate(self._doctored(res, lam=[1e-2, 1e-2]))

    @pytest.mark.parametrize("residuals, kind", [((1e-6, 0.0), "distortion"),
                                                 ((0.0, 1e-6), "perception")])
    def test_budget_residual_above_tolerance_rejected(self, residuals, kind):
        budget = BudgetPair(0.2, 0.05)
        res = rdp([0.3, 0.1], budget)
        with pytest.raises(ConvergenceError, match=f"{kind} budget residual"):
            br.solver._check_result(budget, self._doctored(res, residuals=residuals),
                                    br.solver.BUDGET_RTOL)

    @pytest.mark.parametrize("codes", [[0, 5], [-1, 2]])
    def test_unknown_label_code_rejected(self, codes):
        res = rdp([0.3, 0.1], (0.2, 0.05))
        bad = br.KktCertificate(
            nu=res.certificate.nu, mu=res.certificate.mu,
            lam=res.certificate.lam,
            component_regions=np.array(codes, dtype=np.int8))
        broken = br.RdpResult(rate=res.rate, region=res.region,
                              allocation=res.allocation, certificate=bad,
                              multiplier_iterations=0, residuals=res.residuals)
        with pytest.raises(ConvergenceError, match="unknown"):
            br.check_certificate(broken)

    def test_exterior_closure_is_d_at_most_its_tolerance(self):
        # a q = 0 component takes no distortion and is labelled EXTERIOR
        res = rdp([0.3, 0.0], (0.2, 0.05))
        assert _regions(res)[1] == ScalarRegion.EXTERIOR
        assert in_region_closure(float(res.allocation.d[1]), float(res.allocation.p[1]), 0.0,
                                 ScalarRegion.EXTERIOR)
        assert in_region_closure(1e-9, 0.1, 0.3, ScalarRegion.EXTERIOR)
        assert not in_region_closure(2e-9, 0.1, 0.3, ScalarRegion.EXTERIOR)

    def test_closure_membership_random(self):
        rng = np.random.default_rng(34)
        for _ in range(40):
            src = _rand_source(rng, 1, 5)
            budget = _rand_budget(rng, src)
            res = rdp(src, budget)
            for i, lab in enumerate(_regions(res)):
                assert in_region_closure(
                    float(res.allocation.d[i]), float(res.allocation.p[i]),
                    float(src.q[i]), lab), (src.q, budget, lab, i)


class TestDomainTol:
    """Every check on outside input lets it stray DOMAIN_TOL outside its
    domain, and no further."""

    CHECKS = {
        "normalize below 0": lambda e: normalize([-e, 0.3]),
        "normalize above 1": lambda e: normalize([1.0 + e, 0.3]),
        "source below 0": lambda e: br.BernoulliVectorSource([0.3, -e], [False] * 2, [0, 1]),
        "source above 1/2": lambda e: br.BernoulliVectorSource([0.5 + e, 0.3], [False] * 2, [0, 1]),
        "budget D": lambda e: BudgetPair(-e, 0.1),
        "budget P": lambda e: BudgetPair(0.1, -e),
        "water_fill": lambda e: water_fill(np.array([0.25, 0.125]), 0.375 + e),
        "water_fill q above 1/2": lambda e: water_fill(np.array([0.5 + e, 0.125]), 0.375),
        "water_fill q below 0": lambda e: water_fill(np.array([0.25, -e]), 0.125),
        "s_of_d": lambda e: s_of_d([0.25, 0.125], 0.375 - e),
        "s_of_d_oracle": lambda e: br.s_of_d_oracle([0.25, 0.125], 0.375 - e, br.GridSpec(20, 0)),
        "scalar oracle q": lambda e: br.scalar_channel_oracle(0.5 + e, 0.25, 0.125,
                                                              br.GridSpec(20, 0)),
        "scalar oracle D": lambda e: br.scalar_channel_oracle(0.25, -e, 0.125, br.GridSpec(20, 0)),
        "matrix symmetry": lambda e: br.EdgeProbabilityMatrix(2, [[0.0, 0.3], [0.3 + e, 0.0]]),
        "matrix diagonal": lambda e: br.EdgeProbabilityMatrix(2, [[e, 0.3], [0.3, 0.0]]),
        "matrix below 0": lambda e: br.EdgeProbabilityMatrix(2, [[0.0, -e], [-e, 0.0]]),
        "matrix above 1": lambda e: br.EdgeProbabilityMatrix(2, [[0.0, 1.0 + e], [1.0 + e, 0.0]]),
    }

    @pytest.mark.parametrize("name", list(CHECKS))
    def test_half_tolerance_accepted_twice_rejected(self, name):
        self.CHECKS[name](0.5 * br.core.DOMAIN_TOL)
        with pytest.raises(DomainError):
            self.CHECKS[name](2.0 * br.core.DOMAIN_TOL)


class TestMalformedArguments:
    """Arguments of the wrong shape or type raise DomainError naming the
    argument; numbers of any real type are still accepted."""

    CALLS = {
        "rdp one budget": (lambda: rdp([0.3, 0.1], (0.1,)), "budget"),
        "rdp string budgets": (lambda: rdp([0.3, 0.1], ("a", "b")), "D"),
        "rdp numeric strings": (lambda: rdp([0.3, 0.1], ("0.1", "0.1")), "D"),
        "classify three budgets": (lambda: classify([0.3], (1, 2, 3)), "budget"),
        "rdp None budget": (lambda: rdp([0.3, 0.1], (None, 0.1)), "D"),
        "rdp scalar budget": (lambda: rdp([0.3, 0.1], 0.1), "budget"),
        "BudgetPair string": (lambda: BudgetPair("a", 1.0), "D"),
        "BudgetPair None": (lambda: BudgetPair(None, 1.0), "D"),
        "BudgetPair complex": (lambda: BudgetPair(1j, 1.0), "D"),
        "BudgetPair array P": (lambda: BudgetPair(0.1, np.array([1.0])), "P"),
        "normalize dict": (lambda: normalize({"a": 1}), "raw_q"),
        "rdp string q": (lambda: rdp(["x"], (0.1, 0.1)), "raw_q"),
        "rdp numeric strings q": (lambda: rdp(["0.3", "0.1"], (0.1, 0.05)), "raw_q"),
        "normalize Fractions": (lambda: normalize([Fraction(3, 10), Fraction(1, 10)]), "raw_q"),
        "t_of_d string": (lambda: t_of_d([0.3], "x"), "D"),
        "s_of_d None": (lambda: s_of_d([0.3], None), "D"),
        "graph_rdp array": (lambda: br.graph_rdp(np.zeros((3, 3)), (0.1, 0.1)), "matrix"),
    }

    @pytest.mark.parametrize("name", list(CALLS))
    def test_raises_domain_error_naming_the_argument(self, name):
        call, arg = self.CALLS[name]
        with pytest.raises(DomainError, match=f"^{arg} must be"):
            call()

    #: the kernels, the oracles and the helpers outside the solve path
    OTHER_CALLS = {
        "oracle string D": (lambda: br.scalar_channel_oracle(0.3, "x", 0.1), "D"),
        "oracle string q": (lambda: br.scalar_channel_oracle("x", 0.1, 0.1), "q"),
        "oracle None P": (lambda: br.scalar_channel_oracle(0.3, 0.1, None), "P"),
        "oracle tuple grid": (lambda: br.scalar_channel_oracle(0.3, 0.1, 0.1, (400, 3)), "grid"),
        "s_of_d_oracle None": (lambda: br.s_of_d_oracle([0.3, 0.1], None, br.GridSpec(20, 1)),
                               "D"),
        "water_fill string": (lambda: water_fill(np.array([0.3, 0.1]), "x"), "D"),
        "rdp string rtol": (lambda: rdp([0.3, 0.1], (0.1, 0.1), budget_rtol="x"),
                            "budget tolerance"),
        "length_bounds string": (lambda: length_bounds("x"), "rate"),
        "scalar_rdp string": (lambda: scalar_rdp("x", 0.1, 0.3), "d"),
        "scalar_rdp numeric string": (lambda: scalar_rdp("0.1", 0.1, 0.3), "d"),
        "scalar_rdp numeric strings array": (
            lambda: scalar_rdp(np.array(["0.1", "0.2"]), 0.1, 0.3), "d"),
        "water_fill string q": (lambda: water_fill(np.array(["0.3"]), 0.1), "q"),
        "source string flip_mask": (
            lambda: br.BernoulliVectorSource([0.3, 0.1], ["a", "b"], [0, 1]), "flip_mask"),
        "source string q": (
            lambda: br.BernoulliVectorSource(["0.3", "0.1"], [0, 0], [0, 1]), "q"),
    }

    @pytest.mark.parametrize("name", list(OTHER_CALLS))
    def test_other_entry_points_raise_domain_error(self, name):
        call, arg = self.OTHER_CALLS[name]
        with pytest.raises(DomainError, match=f"^{arg} must be"):
            call()

    #: well-typed arguments outside the domain, NaN among them
    OUT_OF_DOMAIN = {
        "water_fill NaN D": (lambda: water_fill(np.array([0.3, 0.1]), math.nan),
                             "water filling needs"),
        "s_of_d NaN D": (lambda: s_of_d([0.3, 0.1], math.nan), r"S\(D\) needs"),
        "s_of_d_oracle NaN D": (lambda: br.s_of_d_oracle([0.3, 0.1], math.nan),
                                "s_of_d_oracle needs"),
        "water_fill unsorted q": (lambda: water_fill(np.array([0.1, 0.3]), 0.3),
                                  "q must be a 1-d array sorted"),
        "water_fill 2-d q": (lambda: water_fill(np.array([[0.3, 0.1]]), 0.3),
                             "q must be a 1-d array sorted"),
        "water_fill q above 1/2": (lambda: water_fill(np.array([0.3, 0.7]), 0.3), "q must lie"),
        "water_fill short counts": (
            lambda: water_fill(np.array([0.3, 0.1]), 0.3, counts=np.array([1])),
            "counts must have"),
        "check_certificate string": (lambda: br.check_certificate("x"), "result must be"),
        "source short flip_mask": (
            lambda: br.BernoulliVectorSource([0.3, 0.1], [0], [0, 1]), "flip_mask must have"),
    }

    @pytest.mark.parametrize("name", list(OUT_OF_DOMAIN))
    def test_out_of_domain_raises_domain_error(self, name):
        call, message = self.OUT_OF_DOMAIN[name]
        with pytest.raises(DomainError, match=f"^{message}"):
            call()

    def test_real_numbers_of_any_type_accepted(self):
        want = rdp([0.3, 0.1], (0.1, 0.05)).rate
        for budget in [(np.float64(0.1), np.float32(0.05)), np.array([0.1, 0.05]),
                       (np.array(0.1), 0.05)]:
            assert rdp([0.3, 0.1], budget).rate == pytest.approx(want, rel=1e-6)
        assert BudgetPair(np.int64(1), True) == BudgetPair(1.0, 1.0)
        assert t_of_d([0.3], np.int8(0)) == 0.0
