"""Scalar primitives: the entropy kernels, the Bernoulli RDP function, the
scalar regions it reads, and the probability check ``_as_unit``.

High-precision reference values were computed independently with mpmath
(30 digits) and frozen here.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from bernrdp import (BernoulliVectorSource, DomainError, EdgeProbabilityMatrix, normalize,
                     scalar_channel_oracle, scalar_rdp, water_fill)
from bernrdp.core import _as_unit, h2_arr, h3_arr, rd_boundary_arr


def _h2(u):
    """The kernel on a float or an array."""
    return h2_arr(np.asarray(u, dtype=float))


def _h3(u, v):
    return h3_arr(np.asarray(u, dtype=float), np.asarray(v, dtype=float))

H2_03 = 0.610864302054893463          # -0.3 ln 0.3 - 0.7 ln 0.7
H3_01_025 = 0.85684099503947249       # ternary entropy of (0.1, 0.25, 0.65)
RD_03_01 = 0.285781328663445224       # h2(0.3) - h2(0.1)
TERN_02_005_03 = 0.120227319891441581  # ternary branch at d=0.2, p=0.05, q=0.3


class TestH2:
    def test_endpoints_exact(self):
        assert _h2(0.0) == 0.0
        assert _h2(1.0) == 0.0

    def test_maximum(self):
        assert _h2(0.5) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_reference_value(self):
        assert _h2(0.3) == pytest.approx(H2_03, abs=1e-12)

    def test_symmetry(self):
        for u in np.linspace(0.0, 1.0, 37):
            assert _h2(u) == pytest.approx(_h2(1.0 - u), abs=1e-15)

    def test_domain_error(self):
        # the kernel reads what _as_unit passes, and it refuses these
        with pytest.raises(DomainError, match="u must lie in"):
            _as_unit(-1e-6, "u")
        with pytest.raises(DomainError, match="u must lie in"):
            _as_unit(1.0 + 1e-6, "u")

    def test_tolerated_excursion(self):
        assert h2_arr(_as_unit(-1e-13, "u")) == 0.0
        assert h2_arr(_as_unit(1.0 + 1e-13, "u")) == 0.0

    def test_array_input(self):
        u = np.array([0.0, 0.3, 0.5])
        out = _h2(u)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(H2_03, abs=1e-12)


class TestH3:
    def test_uniform_maximum(self):
        assert _h3(1.0 / 3.0, 1.0 / 3.0) == pytest.approx(math.log(3.0), abs=1e-15)

    def test_collapses_to_h2(self):
        for v in np.linspace(0.0, 1.0, 23):
            assert _h3(0.0, v) == _h2(v)

    def test_reference_value(self):
        assert _h3(0.1, 0.25) == pytest.approx(H3_01_025, abs=1e-12)

    def test_mass_permutation_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = rng.dirichlet([1.0, 1.0, 1.0])
            base = _h3(m[0], m[1])
            for a, b in [(m[1], m[0]), (m[0], m[2]), (m[2], m[1])]:
                assert _h3(a, b) == pytest.approx(base, abs=1e-12)


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
                want = math.log(2.0) - _h2(d)
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
    """The scalar regions as the rate reads them: in S the perception
    budget is slack, in T and on the corner V the rate is 0, in U both
    budgets bind, and at d = 0 (EXTERIOR) the rate is H(X) for every p."""

    def test_spec_points(self):
        assert scalar_rdp(0.05, 0.4, 0.25) == scalar_rdp(0.05, math.inf, 0.25) > 0.0  # S
        assert scalar_rdp(0.25, 0.3, 0.25) == 0.0  # V
        assert scalar_rdp(0.2, 0.01, 0.25) > scalar_rdp(0.2, math.inf, 0.25) > 0.0  # U

    def test_zero_distortion_is_exterior(self):
        for p in (0.0, 0.1, 0.3, math.inf):
            assert scalar_rdp(0.0, p, 0.25) == pytest.approx(_h2(0.25), abs=1e-15)

    def test_t_region(self):
        assert scalar_rdp(0.45, 0.0, 0.3) == 0.0
        assert scalar_rdp(0.9, 0.2, 0.3) == 0.0

    def test_q_zero_everything_is_t(self):
        assert scalar_rdp(0.2, 0.0, 0.0) == 0.0

    def test_rd_boundary_is_q_at_the_corner(self):
        # d (1-2q) / (1-2d) can round an ulp below q at d = q, which left a
        # saturated component a few 1e-16 nats off its zero-rate corner
        q = np.random.default_rng(16).uniform(0.0, 0.5, 1000)
        q = np.append(q, 1.0 - 0.9252486399089482)
        assert np.all(rd_boundary_arr(q, q) == q)
        assert scalar_rdp(q[-1], rd_boundary_arr(q[-1], q[-1]), q[-1]) == 0.0
        assert rd_boundary_arr(np.float64(0.5), np.float64(0.5)) == 0.0


NAN = math.nan


def _matrix(x):
    return EdgeProbabilityMatrix(2, [[0.0, x], [x, 0.0]])


def _source(q):
    return BernoulliVectorSource(q, [False] * len(q), list(range(len(q))))


@pytest.mark.parametrize("fn, args", [
    (normalize, ([0.3, NAN],)),
    (water_fill, (np.array([NAN, 0.1]), 0.1)),
    (_source, ([0.3, NAN],)),
    (_matrix, (NAN,)),
    (scalar_rdp, (NAN, 0.1, 0.3)),
    (scalar_rdp, (0.1, NAN, 0.3)),
    (scalar_rdp, (0.1, 0.0, NAN)),
    (scalar_rdp, (np.array([0.1, 0.2]), 0.0, np.array([0.3, NAN]))),
    (scalar_channel_oracle, (NAN, 0.1, 0.05)),
])
def test_nan_input_raises_domain_error(fn, args):
    # every range comparison with NaN is False, so the check must be
    # written to fail on it; scalar_rdp(0.1, 0.0, nan) once returned 0.0
    with pytest.raises(DomainError, match=r"; (got|entry .+ is) nan$"):
        fn(*args)


def test_infinite_perception_is_accepted():
    assert scalar_rdp(0.1, math.inf, 0.3) == pytest.approx(RD_03_01, abs=1e-12)


class TestAsUnit:
    """The one check for arrays of probabilities."""

    @pytest.mark.parametrize("x", ["0.3", b"0.3", ["0.3", "0.1"], [0.3, "0.1"],
                                   np.array(["0.3"]), [Fraction(3, 10)], None, 1j,
                                   [[0.1], [0.2, 0.3]]])
    def test_only_real_kinds(self, x):
        with pytest.raises(DomainError, match="^q must be a real number or an array of them"):
            _as_unit(x, "q")

    def test_real_scalar_of_any_type(self):
        for x in (Fraction(1, 10), np.float32(0.25), np.int8(1), True):
            assert _as_unit(x, "q") == float(x)
        assert scalar_rdp(Fraction(1, 10), 0.0, 0.3) == scalar_rdp(0.1, 0.0, 0.3)

    @pytest.mark.parametrize("x, where", [
        (1.5, "got 1.5"), ([0.2, -0.5, 2.0], "entry 1 is -0.5"),
        ([[0.0, 0.3], [0.3, np.inf]], r"entry \(1, 1\) is inf"),
        (np.full((2, 2, 2), -np.inf), r"entry \(0, 0, 0\) is -inf")])
    def test_names_the_argument_and_the_first_bad_entry(self, x, where):
        with pytest.raises(DomainError, match=rf"^q must lie in \[0, 1\]; {where}$"):
            _as_unit(x, "q")

    def test_bounds_and_infinite_upper_end(self):
        with pytest.raises(DomainError, match=r"^q must lie in \[0, 0.5\]; got 0.6$"):
            _as_unit(0.6, "q", hi=0.5)
        assert _as_unit([0.0, math.inf], "p", hi=math.inf).tolist() == [0.0, math.inf]

    def test_copies_only_to_clip(self):
        x = np.array([0.0, -0.0, 0.5, 1.0])
        assert _as_unit(x, "q") is x
        y = np.array([-1e-13, 0.5, 1.0 + 1e-13])
        out = _as_unit(y, "q")
        assert out is not y and out.tolist() == [0.0, 0.5, 1.0] and y[0] == -1e-13
        assert np.signbit(_as_unit(np.array([-0.0, -1e-13]), "q")[0])
        assert _as_unit([], "q").size == 0
