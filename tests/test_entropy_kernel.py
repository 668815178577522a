"""The masked-ufunc entropy kernel against the versions it replaced.

``old_xlogx`` (a boolean gather), ``old_h2_arr``, ``old_h3_arr`` (which
broadcast and copied its masses), ``old_scalar_rdp`` (which broadcast d,
p and q before any work) and ``all_branches_scalar_rdp`` (which evaluated
every branch on every element) are copies of the earlier implementations
and serve as the reference: every output must agree bit for bit.  The new
code runs with warnings turned into errors; the reference is run with
numpy's floating-point warnings silenced, because it warned at p = inf.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernrdp.core import _as_unit, _maybe_float, _xlogx, h2_arr, h3_arr, scalar_rdp


def old_xlogx(m):
    out = np.zeros_like(m)
    pos = m > 0.0
    out[pos] = m[pos] * np.log(m[pos])
    return out


def old_h2_arr(u):
    return -old_xlogx(u) - old_xlogx(1.0 - u)


def old_h3_arr(u, v):
    u, v = np.broadcast_arrays(u, v)
    rest = np.maximum(1.0 - u - v, 0.0)
    return -old_xlogx(u.copy()) - old_xlogx(v.copy()) - old_xlogx(rest)


def old_scalar_rdp(d, p, q):
    dd = _as_unit(d, "d")
    pp = _as_unit(p, "p", hi=np.inf)
    qq = _as_unit(q, "q", hi=0.5)
    dd, pp, qq = np.broadcast_arrays(dd, pp, qq)

    rd_branch = old_h2_arr(qq) - old_h2_arr(dd)
    zero_thresh = 2.0 * qq * (1.0 - qq) - (1.0 - 2.0 * qq) * pp
    den = 1.0 - 2.0 * (qq - pp)
    rd_thresh = np.where(pp > 0.0, pp / np.where(den != 0.0, den, 1.0), 0.0)

    u1 = np.maximum(dd - pp, 0.0) / 2.0
    u2 = np.minimum((dd + pp) / 2.0, qq)
    ternary = (2.0 * old_h2_arr(qq) + old_h2_arr(np.maximum(qq - pp, 0.0))
               - old_h3_arr(u1, qq) - old_h3_arr(u2, 1.0 - qq))

    low_p = np.where(dd >= zero_thresh, 0.0,
                     np.where(dd < rd_thresh, rd_branch, ternary))
    high_p = np.where(dd < qq, rd_branch, 0.0)
    val = np.where(qq <= 0.0, 0.0, np.where(pp >= qq, high_p, low_p))
    val = np.maximum(val, 0.0)
    return _maybe_float(val, d, p, q)


def all_branches_scalar_rdp(d, p, q):
    dd = _as_unit(d, "d")
    pp = _as_unit(p, "p", hi=np.inf)
    qq = _as_unit(q, "q", hi=0.5)

    hq = h2_arr(qq)
    rd_branch = hq - h2_arr(dd)
    ternary = (2.0 * hq + h2_arr(np.maximum(qq - pp, 0.0))
               - h3_arr(np.maximum(dd - pp, 0.0) / 2.0, qq)
               - h3_arr(np.minimum((dd + pp) / 2.0, qq), 1.0 - qq))

    pl = np.minimum(pp, qq)
    zero_thresh = 2.0 * qq * (1.0 - qq) - (1.0 - 2.0 * qq) * pl
    den = 1.0 - 2.0 * (qq - pl)
    rd_thresh = np.where(pl > 0.0, pl / np.where(den != 0.0, den, 1.0), 0.0)

    low_p = np.where(dd >= zero_thresh, 0.0,
                     np.where(dd < rd_thresh, rd_branch, ternary))
    high_p = np.where(dd < qq, rd_branch, 0.0)
    val = np.where(qq <= 0.0, 0.0, np.where(pp >= qq, high_p, low_p))
    val = np.maximum(val, 0.0)
    return _maybe_float(val, d, p, q)


def reference(fn, *args):
    with np.errstate(all="ignore"):
        return fn(*args)


def strict(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
           math.nan, math.inf, -math.inf, 1.0, 0.5]
VALUES = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) \
    | st.sampled_from(SPECIAL)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.lists(VALUES, min_size=1, max_size=60))
@example([1.725448771981795, 0.0, 0.0, 0.0])
def test_xlogx_matches_gather(values):
    x = np.array(values, dtype=float)
    views = [x, x[::2], x[::-3], np.broadcast_to(x, (3, x.size)),
             np.broadcast_to(x[:, None], (x.size, 4)), x[0, ...]]
    # x ln x overflows to inf above about 1e305, in both versions alike
    with np.errstate(over="ignore"):
        for m in views:
            got, want = strict(_xlogx, m), old_xlogx(m)
            # within one ulp, not bit for bit: np.log may round a value
            # differently in its vector body and in its scalar tail, which
            # the gather and the masked ufunc on a strided view reach for
            # the same entry (x[::-3] of the example, numpy 2.4.6); NaN, inf
            # and the sign of zero must still agree
            np.testing.assert_array_max_ulp(got, want, maxulp=1)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_xlogx_scalars():
    for v in SPECIAL:
        m = np.float64(v)
        assert same_bits(strict(_xlogx, m), old_xlogx(np.asarray(m)))


def _grid(rng, special, k, scale):
    return np.concatenate([special, rng.random(k) * scale])


@pytest.mark.parametrize("seed", range(6))
def test_scalar_rdp_matches_broadcast_first_on_grids(seed):
    rng = np.random.default_rng(seed)
    d = _grid(rng, [0.0, 5e-324, 0.1, 0.25, 0.5, 1.0], 20, 1.0)
    p = _grid(rng, [0.0, 5e-324, 1e-16, 0.1, 0.5, 2.0, math.inf], 20,
              [0.02, 0.3, 1.5][seed % 3])
    q = _grid(rng, [0.0, 1e-300, 0.05, 0.25, 0.5, 0.5 - 1e-9], 15, 0.5)
    for args in [(d[:, None, None], p[None, :, None], q[None, None, :]),
                 (d[None, None, :], p[:, None, None], q[None, :, None]),
                 (d[:, None], p[None, :], float(q[-1]))]:
        assert same_bits(strict(scalar_rdp, *args), reference(old_scalar_rdp, *args))


def test_scalar_rdp_matches_broadcast_first_on_scalars():
    for d in (0.0, 0.05, 0.2, 0.3, 0.42, 0.5, 1.0):
        for p in (0.0, 1e-16, 0.05, 0.3, 0.5, 1.0, math.inf):
            for q in (0.0, 0.1, 0.3, 0.5):
                new = strict(scalar_rdp, d, p, q)
                assert type(new) is float
                assert same_bits(new, reference(old_scalar_rdp, d, p, q))


def test_scalar_rdp_mixed_scalar_and_array():
    d = np.linspace(0.0, 1.0, 41)
    for p, q in [(math.inf, 0.5), (0.05, np.array([0.1, 0.3, 0.5])[:, None]), (0.0, 0.0)]:
        assert same_bits(strict(scalar_rdp, d, p, q), reference(old_scalar_rdp, d, p, q))


def test_infinite_perception_budget_warns_nothing():
    # p = inf once made inf / inf in the rate-distortion threshold and
    # 0 * inf in the zero-rate threshold at q = 1/2
    assert strict(scalar_rdp, 0.2, math.inf, 0.3) == reference(old_scalar_rdp, 0.2, math.inf, 0.3)
    assert strict(scalar_rdp, 0.1, math.inf, 0.5) == reference(old_scalar_rdp, 0.1, math.inf, 0.5)


@st.composite
def rdp_points(draw):
    """(d, p, q) with q in {0, 1/2} or [0, 1/2], p in {0, q, inf} or
    [0, 1], and d in {0, q, 2q(1-q)}, on either branch threshold (as the
    kernel computes them), just below the zero threshold or in [0, 1]."""
    q = draw(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 0.5))
    p = draw(st.sampled_from([0.0, q, math.inf]) | st.floats(0.0, 1.0))
    pl = min(p, q)
    den = 1.0 - 2.0 * (q - pl)
    rd_thresh = pl / (den if den != 0.0 else 1.0) if pl > 0.0 else 0.0
    zero_thresh = 2.0 * q * (1.0 - q) - (1.0 - 2.0 * q) * pl
    # just below the zero threshold the ternary branch rounds to about -1e-16
    below = max(math.nextafter(zero_thresh, 0.0), 0.0)
    d = draw(st.sampled_from([0.0, q, 2.0 * q * (1.0 - q), rd_thresh, zero_thresh, below])
             | st.floats(0.0, 1.0))
    return d, p, q


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(rdp_points(), min_size=1, max_size=30))
def test_branch_only_scalar_rdp_matches_all_branches(points):
    d, p, q = (np.array(v) for v in zip(*points))
    cases = [points[0], tuple(np.asarray(v) for v in points[0]), (d, p, q),
             (d[:, None], p, float(q[0])),  # the oracle's (rows, 1) x (cols,) blocks
             (d[:, None], p[None, :], q), (d, p[:, None], q[:, None]), (d[0], p, q[:, None])]
    for args in cases:
        got, want = strict(scalar_rdp, *args), reference(all_branches_scalar_rdp, *args)
        assert type(got) is type(want)
        assert same_bits(got, want)
