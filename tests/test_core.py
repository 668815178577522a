"""Scalar primitives: entropies, the Bernoulli RDP function, region labels.

High-precision reference values were computed independently with mpmath
(30 digits) and frozen here.
"""

import math

import numpy as np
import pytest

from bernrdp import DomainError, ScalarRegion, h2, h3, rd_boundary, scalar_rdp, scalar_region

H2_03 = 0.610864302054893463          # -0.3 ln 0.3 - 0.7 ln 0.7
H3_01_025 = 0.85684099503947249       # ternary entropy of (0.1, 0.25, 0.65)
RD_03_01 = 0.285781328663445224       # h2(0.3) - h2(0.1)
TERN_02_005_03 = 0.120227319891441581  # ternary branch at d=0.2, p=0.05, q=0.3


class TestH2:
    def test_endpoints_exact(self):
        assert h2(0.0) == 0.0
        assert h2(1.0) == 0.0

    def test_maximum(self):
        assert h2(0.5) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_reference_value(self):
        assert h2(0.3) == pytest.approx(H2_03, abs=1e-12)

    def test_symmetry(self):
        for u in np.linspace(0.0, 1.0, 37):
            assert h2(u) == pytest.approx(h2(1.0 - u), abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            h2(-1e-6)
        with pytest.raises(DomainError):
            h2(1.0 + 1e-6)

    def test_tolerated_excursion(self):
        assert h2(-1e-13) == 0.0
        assert h2(1.0 + 1e-13) == 0.0

    def test_array_input(self):
        u = np.array([0.0, 0.3, 0.5])
        out = h2(u)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(H2_03, abs=1e-12)


class TestH3:
    def test_uniform_maximum(self):
        assert h3(1.0 / 3.0, 1.0 / 3.0) == pytest.approx(math.log(3.0), abs=1e-15)

    def test_collapses_to_h2(self):
        for v in np.linspace(0.0, 1.0, 23):
            assert h3(0.0, v) == h2(v)

    def test_reference_value(self):
        assert h3(0.1, 0.25) == pytest.approx(H3_01_025, abs=1e-12)

    def test_mass_permutation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = rng.dirichlet([1.0, 1.0, 1.0])
            base = h3(m[0], m[1])
            for a, b in [(m[1], m[0]), (m[0], m[2]), (m[2], m[1])]:
                assert h3(a, b) == pytest.approx(base, abs=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            h3(0.7, 0.5)
        with pytest.raises(DomainError):
            h3(-0.1, 0.2)


class TestScalarRdp:
    def test_zero_at_v_corner_point(self):
        # d = q with p >= q: zero rate via the large-perception branch
        assert scalar_rdp(0.25, 0.3, 0.25) == 0.0

    def test_zero_distortion_zero_perception(self):
        # ternary branch collapses: h3(0, q) = h2(q)
        assert scalar_rdp(0.0, 0.0, 0.3) == pytest.approx(H2_03, abs=1e-12)

    def test_zero_rate_threshold(self):
        # 0.45 >= 2 * 0.3 * 0.7 = 0.42
        assert scalar_rdp(0.45, 0.0, 0.3) == 0.0

    def test_ternary_branch_value(self):
        assert scalar_rdp(0.2, 0.05, 0.3) == pytest.approx(TERN_02_005_03, abs=1e-12)

    def test_rate_distortion_branch(self):
        assert scalar_rdp(0.1, 0.4, 0.3) == pytest.approx(RD_03_01, abs=1e-12)

    def test_degenerate_source(self):
        for d in (0.0, 0.2, 0.9):
            for p in (0.0, 0.3):
                assert scalar_rdp(d, p, 0.0) == 0.0

    def test_monotone_in_d_and_p(self):
        rng = np.random.default_rng(11)
        for _ in range(400):
            q = rng.uniform(0.0, 0.5)
            d = rng.uniform(0.0, 1.0)
            p = rng.uniform(0.0, 0.7)
            eps = rng.uniform(1e-6, 0.05)
            base = scalar_rdp(d, p, q)
            assert scalar_rdp(min(d + eps, 1.0), p, q) <= base + 1e-12
            assert scalar_rdp(d, p + eps, q) <= base + 1e-12

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(12)
        for _ in range(400):
            q = rng.uniform(0.01, 0.5)
            d1, d2 = rng.uniform(0.0, 1.0, 2)
            p1, p2 = rng.uniform(0.0, 0.7, 2)
            mid = scalar_rdp(0.5 * (d1 + d2), 0.5 * (p1 + p2), q)
            avg = 0.5 * (scalar_rdp(d1, p1, q) + scalar_rdp(d2, p2, q))
            assert mid <= avg + 1e-10

    def test_branch_continuity(self):
        # both boundaries of the small-perception branch, and d = q for
        # the large-perception branch
        rng = np.random.default_rng(13)
        off = 1e-8
        for _ in range(1000):
            q = rng.uniform(0.02, 0.5)
            p = rng.uniform(0.0, q * 0.999)
            t1 = p / (1.0 - 2.0 * (q - p))
            t2 = 2.0 * q * (1.0 - q) - (1.0 - 2.0 * q) * p
            if t1 > off:
                gap = abs(scalar_rdp(t1 - off, p, q) - scalar_rdp(t1 + off, p, q))
                assert gap <= 1e-6
            gap = abs(scalar_rdp(t2 - off, p, q) - scalar_rdp(t2 + off, p, q))
            assert gap <= 1e-6
            p_big = q + rng.uniform(0.0, 0.4)
            gap = abs(scalar_rdp(q - off, p_big, q) - scalar_rdp(q + off, p_big, q))
            assert gap <= 1e-6

    def test_q_half_is_classic_rate_distortion(self):
        # for q = 1/2 the optimal channel already matches the marginal,
        # so any perception budget gives h2(1/2) - h2(d)
        for p in (0.0, 0.1, 0.5):
            for d in (0.0, 0.2, 0.4):
                want = math.log(2.0) - h2(d)
                assert scalar_rdp(d, p, 0.5) == pytest.approx(want, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(14)
        d = rng.uniform(0.0, 1.0, 300)
        p = rng.uniform(0.0, 0.8, 300)
        q = rng.uniform(0.0, 0.5, 300)
        vec = scalar_rdp(d, p, q)
        for i in range(300):
            assert vec[i] == pytest.approx(scalar_rdp(d[i], p[i], q[i]), abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            scalar_rdp(1.5, 0.0, 0.3)
        with pytest.raises(DomainError):
            scalar_rdp(0.1, -0.2, 0.3)
        with pytest.raises(DomainError):
            scalar_rdp(0.1, 0.0, 0.7)


class TestScalarRegion:
    def test_spec_points(self):
        assert scalar_region(0.05, 0.4, 0.25) is ScalarRegion.S
        assert scalar_region(0.25, 0.3, 0.25) is ScalarRegion.V
        assert scalar_region(0.2, 0.01, 0.25) is ScalarRegion.U

    def test_zero_distortion_is_exterior(self):
        assert scalar_region(0.0, 0.3, 0.25) is ScalarRegion.EXTERIOR

    def test_t_region(self):
        assert scalar_region(0.45, 0.0, 0.3) is ScalarRegion.T
        assert scalar_region(0.9, 0.2, 0.3) is ScalarRegion.T

    def test_q_zero_everything_is_t(self):
        assert scalar_region(0.2, 0.0, 0.0) is ScalarRegion.T

    def test_boundary_conventions(self):
        q = 0.3
        d = 0.2
        bdry = rd_boundary(d, q)
        # S keeps its closed edge, U is open below it
        assert scalar_region(d, bdry, q) is ScalarRegion.S
        assert scalar_region(d, bdry * (1 - 1e-9), q) is ScalarRegion.U
        # T keeps its closed edge toward U
        p = 0.05
        upper = 2 * q * (1 - q) - (1 - 2 * q) * p
        assert scalar_region(upper, p, q) is ScalarRegion.T
        assert scalar_region(upper * (1 - 1e-12), p, q) is ScalarRegion.U
        # the saturation column: p >= q goes to V, below it U
        assert scalar_region(q, q, q) is ScalarRegion.V
        assert scalar_region(q, q * (1 - 1e-9), q) is ScalarRegion.U

    def test_rd_boundary_is_q_at_the_corner(self):
        # d (1-2q) / (1-2d) can round an ulp below q at d = q, which left a
        # saturated component a few 1e-16 nats off its zero-rate corner
        q = np.random.default_rng(16).uniform(0.0, 0.5, 1000)
        q = np.append(q, 1.0 - 0.9252486399089482)
        assert np.all(rd_boundary(q, q) == q)
        assert scalar_rdp(q[-1], rd_boundary(q[-1], q[-1]), q[-1]) == 0.0
        assert rd_boundary(0.5, 0.5) == 0.0

    def test_every_point_classified(self):
        rng = np.random.default_rng(15)
        for _ in range(500):
            q = rng.uniform(0.01, 0.5)
            d = rng.uniform(1e-9, 1.0)
            p = rng.uniform(0.0, 1.0)
            assert scalar_region(d, p, q) in (
                ScalarRegion.S, ScalarRegion.T, ScalarRegion.U, ScalarRegion.V)


NAN = math.nan


@pytest.mark.parametrize("fn, args", [
    (h2, (NAN,)),
    (h2, (np.array([0.2, NAN, 0.4]),)),
    (h3, (NAN, 0.2)),
    (h3, (0.2, NAN)),
    (scalar_rdp, (NAN, 0.1, 0.3)),
    (scalar_rdp, (0.1, NAN, 0.3)),
    (scalar_rdp, (0.1, 0.0, NAN)),
    (scalar_rdp, (np.array([0.1, 0.2]), 0.0, np.array([0.3, NAN]))),
    (scalar_region, (NAN, 0.1, 0.3)),
    (scalar_region, (0.1, NAN, 0.3)),
    (scalar_region, (0.1, 0.1, NAN)),
])
def test_nan_input_raises_domain_error(fn, args):
    # every range comparison with NaN is False, so the check must be
    # written to fail on it; scalar_rdp(0.1, 0.0, nan) once returned 0.0
    with pytest.raises(DomainError, match="got nan"):
        fn(*args)


def test_infinite_perception_is_accepted():
    assert scalar_rdp(0.1, math.inf, 0.3) == pytest.approx(RD_03_01, abs=1e-12)
    assert scalar_region(0.05, math.inf, 0.25) is ScalarRegion.S
