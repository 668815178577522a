"""The blocked oracle searches against full-grid references, bit for bit.

``_reference_*`` below evaluate every round's whole grid at once and take
one ``np.argmin`` over it, as the oracles did before ``_refine`` evaluated
grids in blocks.  The blocked searches must return the same rate and the
same channel or allocation to the last bit: same grids, same per-cell
arithmetic, same row-major tie rule.  Block boundaries are exercised by
patching ``_BLOCK_CELLS`` down to a few cells.  The driver alone is checked
the same way, on a fixed array of values against one ``np.argmin``.

``_box_scalar_channel`` is a copy of the scalar oracle's objective before
it took the tied cells u = v directly at P = 0: a budget box a round, then
both budget tests on each block's rows in it.  Run through ``_refine``, it
must give the oracle's P = 0 answers bit for bit.

``_reference_s_of_d`` is the grid search that ``s_of_d_oracle`` ran before
it became the exact zero-rate linear program.  Its cells are feasible
points of that program, so it checks the LP from above by brute force.

The scalar reference clamps I at 0 and stops after a round whose best is
0, the rule under which the oracle stops at the first cell at 0.  The
vector references have no such rule: their values are exactly >= 0, so
later rounds can never move an incumbent at 0, and stopping early gives
the same answer.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bernrdp import oracle
from bernrdp.core import _xlogx, h2_arr, scalar_rdp
from bernrdp.errors import BernRdpError, ConvergenceError
from bernrdp.oracle import (GridSpec, _rounds_for, allocation_grid_oracle, s_of_d_oracle,
                            scalar_channel_oracle)
from bernrdp.solver import _as_budget, _as_source

_HALO = 3
_N3_AXIS_CAP = 24


# ---------------------------------------------------------------------------
# full-grid references


def _shrink(lo, hi, center, spacing):
    return max(lo, center - _HALO * spacing), min(hi, center + _HALO * spacing)


def _reference_scalar(q, D, P, grid):
    res = grid.resolution
    lo_a = lo_b = 0.0
    hi_a = hi_b = 1.0
    hx = float(h2_arr(np.float64(q)))
    best = math.inf
    best_ab = (0.0, 0.0)
    for _ in range(1 + grid.refinement_rounds):
        a = np.linspace(lo_a, hi_a, res)
        b = np.linspace(lo_b, hi_b, res)
        A = a[:, None]
        B = b[None, :]
        joint = (_xlogx((1.0 - q) * (1.0 - A)) + _xlogx((1.0 - q) * A)
                 + _xlogx(q * B) + _xlogx(q * (1.0 - B)))
        qhat = (1.0 - q) * A + q * (1.0 - B)
        # I >= 0: values rounded below 0 are clamped, so all such cells tie
        info = np.maximum(hx + joint - _xlogx(qhat) - _xlogx(1.0 - qhat), 0.0)
        feasible = ((1.0 - q) * A + q * B <= D) & (np.abs((1.0 - q) * A - q * B) <= P)
        if not feasible.any():
            if math.isfinite(best):
                break
            raise ConvergenceError("no feasible channel on the grid")
        info = np.where(feasible, info, np.inf)
        i, j = np.unravel_index(int(np.argmin(info)), info.shape)
        if info[i, j] < best:
            best = float(info[i, j])
            best_ab = (float(a[i]), float(b[j]))
        if best == 0.0:  # nothing is lower
            break
        ha = (hi_a - lo_a) / (res - 1)
        hb = (hi_b - lo_b) / (res - 1)
        lo_a, hi_a = _shrink(0.0, 1.0, best_ab[0], ha)
        lo_b, hi_b = _shrink(0.0, 1.0, best_ab[1], hb)
    return best, best_ab


def _reference_allocation(src, budget, grid):
    src = _as_source(src)
    budget = _as_budget(budget)
    q = src.q
    D = min(budget.D, float(src.n))
    P = budget.P
    if src.n == 2:
        glo_d, ghi_d = max(0.0, D - 1.0), min(1.0, D)
        glo_p, ghi_p = 0.0, P
        lo_d, hi_d, lo_p, hi_p = glo_d, ghi_d, glo_p, ghi_p
        best = math.inf
        best_dp = (lo_d, lo_p)
        res = grid.resolution
        for _ in range(1 + grid.refinement_rounds):
            d1 = np.linspace(lo_d, hi_d, res)[:, None]
            p1 = np.linspace(lo_p, hi_p, res)[None, :]
            total = scalar_rdp(d1, p1, q[0]) + scalar_rdp(D - d1, P - p1, q[1])
            i, j = np.unravel_index(int(np.argmin(total)), total.shape)
            if total[i, j] < best:
                best = float(total[i, j])
                best_dp = (float(d1[i, 0]), float(p1[0, j]))
            hd = (hi_d - lo_d) / (res - 1) if hi_d > lo_d else 0.0
            hp = (hi_p - lo_p) / (res - 1) if hi_p > lo_p else 0.0
            lo_d, hi_d = _shrink(glo_d, ghi_d, best_dp[0], hd)
            lo_p, hi_p = _shrink(glo_p, ghi_p, best_dp[1], hp)
        d1, p1 = best_dp
        return best, (np.array([d1, D - d1]), np.array([p1, P - p1]))

    res = min(grid.resolution, _N3_AXIS_CAP)
    rounds = _rounds_for(grid.resolution, res, grid.refinement_rounds)
    dmax = min(1.0, D)
    glo = np.array([0.0, 0.0, 0.0, 0.0])
    ghi = np.array([dmax, dmax, P, P])
    lo, hi = glo.copy(), ghi.copy()
    best = math.inf
    best_z = glo.copy()
    for _ in range(1 + rounds):
        axes = [np.linspace(lo[k], hi[k], res) for k in range(4)]
        d1 = axes[0][:, None, None, None]
        d2 = axes[1][None, :, None, None]
        p1 = axes[2][None, None, :, None]
        p2 = axes[3][None, None, None, :]
        d3 = D - d1 - d2
        p3 = P - p1 - p2
        feasible = (d3 >= 0.0) & (d3 <= 1.0) & (p3 >= 0.0)
        total = (scalar_rdp(d1, p1, q[0]) + scalar_rdp(d2, p2, q[1])
                 + scalar_rdp(np.clip(d3, 0.0, 1.0), np.maximum(p3, 0.0), q[2]))
        total = np.where(feasible, total, np.inf)
        if not np.isfinite(total).any():
            if math.isfinite(best):
                break
            raise ConvergenceError("no feasible split on the grid")
        idx = np.unravel_index(int(np.argmin(total)), total.shape)
        if total[idx] < best:
            best = float(total[idx])
            best_z = np.array([axes[k][idx[k]] for k in range(4)])
        h = np.where(hi > lo, (hi - lo) / (res - 1), 0.0)
        for k in range(4):
            lo[k], hi[k] = _shrink(glo[k], ghi[k], best_z[k], h[k])
    d = np.array([best_z[0], best_z[1], D - best_z[0] - best_z[1]])
    p = np.array([best_z[2], best_z[3], P - best_z[2] - best_z[3]])
    return best, (d, p)


def _reference_s_of_d(src, D, grid):
    src = _as_source(src)
    q = src.q
    D = float(D)
    caps = 2.0 * q * (1.0 - q)
    if D >= float(caps.sum()):
        return 0.0

    def p_needed(d, qi):
        cap = 2.0 * qi * (1.0 - qi)
        if qi >= 0.5:
            return np.where(d >= cap - 1e-12, 0.0, np.inf)
        return np.maximum((cap - d) / (1.0 - 2.0 * qi), 0.0)

    if src.n == 1:
        return float(p_needed(np.array([D]), q[0])[0])

    res = grid.resolution
    if src.n == 2:
        glo, ghi = max(q[0], D - 1.0), min(1.0, D - q[1])
        lo, hi = glo, ghi
        best = math.inf
        best_d = lo
        for _ in range(1 + grid.refinement_rounds):
            d1 = np.linspace(lo, hi, res)
            total = p_needed(d1, q[0]) + p_needed(D - d1, q[1])
            i = int(np.argmin(total))
            if total[i] < best:
                best = float(total[i])
                best_d = float(d1[i])
            h = (hi - lo) / (res - 1) if hi > lo else 0.0
            lo, hi = _shrink(glo, ghi, best_d, h)
        return best

    glo = np.array([q[0], q[1]])
    ghi = np.array([min(1.0, D - q[1] - q[2]), min(1.0, D - q[0] - q[2])])
    lo, hi = glo.copy(), ghi.copy()
    best = math.inf
    best_z = glo.copy()
    slack = 1e-12 * max(1.0, D)
    for _ in range(1 + grid.refinement_rounds):
        d1 = np.linspace(lo[0], hi[0], res)[:, None]
        d2 = np.linspace(lo[1], hi[1], res)[None, :]
        d3 = D - d1 - d2
        d3 = np.where(np.abs(d3 - q[2]) <= slack, q[2], d3)
        total = p_needed(d1, q[0]) + p_needed(d2, q[1]) \
            + np.where((d3 >= q[2]) & (d3 <= 1.0), p_needed(np.clip(d3, q[2], 1.0), q[2]), np.inf)
        if not np.isfinite(total).any():
            if math.isfinite(best):
                break
            raise ConvergenceError("no feasible split on the grid")
        idx = np.unravel_index(int(np.argmin(total)), total.shape)
        if total[idx] < best:
            best = float(total[idx])
            best_z = np.array([d1[idx[0], 0], d2[0, idx[1]]])
        h = np.where(hi > lo, (hi - lo) / (res - 1), 0.0)
        for k in range(2):
            lo[k], hi[k] = _shrink(glo[k], ghi[k], best_z[k], h[k])
    return best


def _box_budget_box(u, v, D, P):
    i = np.flatnonzero((u + v[0] <= D) & (u - v[-1] <= P) & (u - v[0] >= -P))
    j = np.flatnonzero((u[0] + v <= D) & (u[0] - v <= P) & (u[-1] - v >= -P))
    if i.size == 0 or j.size == 0:
        return None
    return slice(i[0], i[-1] + 1), slice(j[0], j[-1] + 1)


def _box_scalar_channel(q, D, P, grid):
    hx = float(h2_arr(np.float64(q)))

    def information(blocks, a, b):
        ua, vb, qb = (1.0 - q) * a, q * b, q * (1.0 - b)
        xa = _xlogx((1.0 - q) * (1.0 - a)) + _xlogx(ua)
        xb1, xb2 = _xlogx(vb), _xlogx(qb)
        box = _box_budget_box(ua, vb, D, P)
        if box is None:
            return
        bi, bj = box
        for rows in blocks:
            lo, hi = max(rows.start, bi.start), min(rows.stop, bi.stop)
            if lo >= hi:
                continue
            u = ua[lo:hi, None]
            ok = (u + vb[bj] <= D) & (np.abs(u - vb[bj]) <= P)
            i, j = np.flatnonzero(ok.any(axis=1)), np.flatnonzero(ok.any(axis=0))
            if i.size == 0:
                continue
            ok = ok[i[0]:i[-1] + 1, j[0]:j[-1] + 1]
            i = slice(lo + i[0], lo + i[-1] + 1)
            j = slice(bj.start + j[0], bj.start + j[-1] + 1)
            joint = xa[i, None] + xb1[j] + xb2[j]
            qhat = ua[i, None] + qb[j]
            info = hx + joint - _xlogx(qhat) - _xlogx(1.0 - qhat)
            yield i.start, (0, j.start), np.where(ok, np.maximum(info, 0.0), np.inf)

    best, (a, b) = oracle._refine(information, [0.0, 0.0], [1.0, 1.0], grid.resolution,
                                  grid.refinement_rounds)
    return best, oracle.ScalarChannel(float(a), float(b))


# ---------------------------------------------------------------------------
# comparison


def _bits(result):
    """The bytes of every float in an oracle result."""
    if isinstance(result, tuple):
        rate, rest = result
        rest = (rest.a, rest.b) if isinstance(rest, oracle.ScalarChannel) else rest
        return [np.asarray(v, dtype=float).tobytes() for v in (rate, *rest)]
    return [np.asarray(result, dtype=float).tobytes()]


def _assert_same(fn, reference, *args):
    """Equal to the last bit, or the same package error."""
    outcomes = []
    for f in (fn, reference):
        try:
            outcomes.append(_bits(f(*args)))
        except BernRdpError as exc:
            outcomes.append(type(exc))
    assert outcomes[0] == outcomes[1], args


def _assert_grid_above_lp(qs, D, grid, above=math.inf):
    """The S(D) grid search lies no lower than the linear program, and at
    most ``above`` higher.  Its cells are feasible points of the program at
    D plus its snaps: a third distortion within 1e-12 max(1, D) of q3 counts
    as q3, and one within 1e-12 of cap at q = 1/2 as cap, so it lies no
    lower than the program at D + 4e-12 max(1, D).  At n = 1 it has no grid,
    only the program's one segment (cap - D) / (1 - 2q), with the same
    arithmetic: the program is that, capped at q, to the last bit."""
    S = s_of_d_oracle(qs, D)
    try:
        ref = _reference_s_of_d(qs, D, grid)
    except ConvergenceError:  # the grid holds no feasible split
        return
    slack = 1e-12 * max(1.0, S)
    assert s_of_d_oracle(qs, D + 4e-12 * max(1.0, D)) - slack <= ref <= S + max(above, slack), \
        (qs, D, grid)
    if len(qs) == 1:
        assert _bits(S) == _bits(min(ref, qs[0])), (qs, D)


# ---------------------------------------------------------------------------
# generated inputs: q at 0, 1/2 and in between; budgets at 0, tiny, on the
# zero-rate plateaus (where only the tie rule picks the cell) and large

Q = st.one_of(st.sampled_from([0.0, 0.5, 0.3, 0.05]), st.floats(0.0, 0.5))
TINY = st.floats(5e-324, 1e-12)
BLOCK_CELLS = st.one_of(st.integers(1, 300), st.just(oracle._BLOCK_CELLS))
FRACTION = st.floats(0.0, 1.0)


def _budget(draw, plateau: float, span: float) -> float:
    kind = draw(st.sampled_from(["zero", "tiny", "plateau", "inside", "large"]))
    if kind == "zero":
        return 0.0
    if kind == "tiny":
        return draw(TINY)
    if kind == "plateau":
        return plateau * (1.0 + draw(st.sampled_from([0.0, 1e-9, 0.5])))
    if kind == "inside":
        return span * draw(FRACTION)
    return draw(st.floats(span, 10.0 * max(span, 1.0)))


@st.composite
def scalar_cases(draw):
    q = draw(Q)
    D = _budget(draw, 2.0 * q * (1.0 - q), 0.7)
    P = _budget(draw, q, 0.7)
    grid = GridSpec(draw(st.integers(2, 45)), draw(st.integers(0, 3)))
    return q, D, P, grid, draw(BLOCK_CELLS)


@st.composite
def vector_cases(draw, sizes, resolutions):
    n = draw(sizes)
    qs = draw(st.lists(Q, min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        qs[1] = qs[0]
    caps = sum(2.0 * v * (1.0 - v) for v in qs)
    D = _budget(draw, caps, 1.1 * caps)
    P = _budget(draw, sum(qs), 1.1 * sum(qs))
    sum_q = sum(qs)
    D_s = draw(st.one_of(st.sampled_from([sum_q, caps, sum_q + 1e-13]),
                         FRACTION.map(lambda f: sum_q + (caps - sum_q) * f)))
    grid = GridSpec(draw(resolutions), draw(st.integers(0, 2)))
    return qs, D, P, D_s, grid, draw(BLOCK_CELLS)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scalar_cases())
# the second round has no feasible cell; the search must stop there, where
# the third round would find a lower one
@example((0.3, 0.5973168987347762, 0.0, GridSpec(14, 2), 16384))
@example((0.3, 0.5973168987347762, 0.0, GridSpec(14, 2), 20))
# the verify grid: a zero-rate budget, where round 0 holds cells with a
# computed I below 0 and the first of them ends the search, in the growing
# blocks of 2, 10 and 40 rows (its first zero lies in row 41, in the third)
# and in blocks of one row; D = 0, where only the cell (0, 0) is feasible;
# and P = 0, whose tied cells lie in the first four blocks
@example((0.3, 0.6, 0.2, GridSpec(400, 3), 16384))
@example((0.3, 0.6, 0.2, GridSpec(400, 3), 20))
@example((0.1, 0.0, 0.2, GridSpec(400, 3), 16384))
@example((0.35, 0.4, 0.0, GridSpec(400, 3), 16384))
# zero-rate budgets whose first zero lies in the second block (rows 2-11)
# and in the third (rows 12-51)
@example((0.3, 0.6, 0.28, GridSpec(400, 3), 16384))
@example((0.25, 0.4, 0.2, GridSpec(400, 3), 16384))
# a P = 0 budget inside the rate's support, in the default blocks and in
# blocks of 1, 1, then 3 rows, whose edges split the round's tied cells
@example((0.35, 0.2, 0.0, GridSpec(400, 3), 16384))
@example((0.35, 0.2, 0.0, GridSpec(400, 3), 1200))
# 0 < P < D, where each block tests both budgets against every column, in
# the default blocks and in blocks of one row
@example((0.3, 0.4, 0.2, GridSpec(400, 3), 16384))
@example((0.3, 0.4, 0.2, GridSpec(400, 3), 400))
@example((0.1, 0.6, 0.4, GridSpec(400, 3), 16384))
@example((0.1, 0.6, 0.4, GridSpec(400, 3), 400))
# P = D, the known failure's positive-rate budgets, where each block tests
# the distortion budget only, in the default blocks and in blocks of one row
@example((0.35, 0.2, 0.2, GridSpec(400, 3), 16384))
@example((0.35, 0.2, 0.2, GridSpec(400, 3), 400))
@example((0.2, 0.2, 0.2, GridSpec(400, 3), 16384))
@example((0.2, 0.2, 0.2, GridSpec(400, 3), 400))
def test_scalar_channel_matches_full_grid(case):
    q, D, P, grid, cells = case
    with mock.patch.object(oracle, "_BLOCK_CELLS", cells):
        _assert_same(scalar_channel_oracle, _reference_scalar, q, D, P, grid)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(0.0, 0.5),
       st.tuples(st.floats(0.0, 0.6), FRACTION).map(lambda b: (b[0], b[0] + b[1])),
       st.builds(GridSpec, st.integers(2, 30), st.integers(0, 3)))
# verify's default grid: the budgets with P > D that its scalar stage no
# longer hands to the oracle, and D = 0
@example(0.35, (0.2, 0.4), oracle.SCALAR_GRID)
@example(0.35, (0.2, 0.6), oracle.SCALAR_GRID)
@example(0.2, (0.0, 0.6), oracle.SCALAR_GRID)
def test_scalar_channel_at_p_above_d_is_the_p_equal_d_answer(q, budget, grid):
    # u = (1-q)a and v = qb are >= 0, so |u - v| <= u + v <= D <= P
    # wherever the distortion test holds: the perception test never binds
    D, P = budget
    assert _bits(scalar_channel_oracle(q, D, P, grid)) == _bits(scalar_channel_oracle(q, D, D, grid))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5)),
       st.one_of(st.just(0.0), st.floats(0.0, 0.6)),
       st.builds(GridSpec, st.integers(2, 40), st.integers(0, 3)), BLOCK_CELLS)
# verify's default grid: q = 0, where every column ties with the row a = 0;
# q = 1/2, where the diagonal ties; D = 0, where only (0, 0) is feasible
@example(0.35, 0.2, oracle.SCALAR_GRID, oracle._BLOCK_CELLS)
@example(0.3, 0.4, oracle.SCALAR_GRID, oracle._BLOCK_CELLS)
@example(0.05, 0.6, oracle.SCALAR_GRID, oracle._BLOCK_CELLS)
@example(0.0, 0.3, oracle.SCALAR_GRID, oracle._BLOCK_CELLS)
@example(0.5, 0.3, oracle.SCALAR_GRID, oracle._BLOCK_CELLS)
@example(0.3, 0.0, oracle.SCALAR_GRID, oracle._BLOCK_CELLS)
def test_scalar_channel_at_p_zero_matches_the_box_objective(q, D, grid, cells):
    with mock.patch.object(oracle, "_BLOCK_CELLS", cells):
        _assert_same(scalar_channel_oracle, _box_scalar_channel, q, D, 0.0, grid)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(vector_cases(st.just(2), st.integers(2, 45)))
# D = P = 0: the box is one point on every axis, and one round is searched
@example(([0.3, 0.1], 0.0, 0.0, 0.4, GridSpec(200, 2), 16384))
@example(([0.3, 0.1], 0.0, 0.0, 0.4, GridSpec(200, 2), 5))
# the vector grid's growing blocks of 5, 20 and 81 rows: zero-rate budgets
# whose first zero lies in the second block and in the third
@example(([0.3, 0.1], 1.25, 0.3, 0.5, GridSpec(200, 2), 16384))
@example(([0.3, 0.1], 0.9, 0.01, 0.5, GridSpec(200, 2), 16384))
def test_n2_searches_match_full_grid(case):
    qs, D, P, D_s, grid, cells = case
    with mock.patch.object(oracle, "_BLOCK_CELLS", cells):
        _assert_same(allocation_grid_oracle, _reference_allocation, qs, (D, P), grid)
    _assert_grid_above_lp(qs, D_s, grid)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(vector_cases(st.just(3), st.one_of(st.integers(2, 9), st.just(30))))
@example(([0.3, 0.25, 0.05], 0.0, 0.0, 0.6, GridSpec(200, 2), 16384))
@example(([0.3, 0.25, 0.05], 0.0, 0.0, 0.6, GridSpec(200, 2), 5))
def test_n3_searches_match_full_grid(case):
    qs, D, P, D_s, grid, cells = case
    with mock.patch.object(oracle, "_BLOCK_CELLS", cells):
        _assert_same(allocation_grid_oracle, _reference_allocation, qs, (D, P), grid)
    _assert_grid_above_lp(qs, D_s, grid)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(vector_cases(st.just(1), st.integers(2, 45)))
def test_n1_s_of_d_matches(case):
    qs, _, _, D_s, grid, _ = case
    _assert_grid_above_lp(qs, D_s, grid)


# ---------------------------------------------------------------------------
# the driver alone, on a fixed array of values


@st.composite
def value_grids(draw):
    """A res^ndim array of values >= 0 with ties, exact zeros and inf cells
    (none, some or all of them inf)."""
    res, ndim = draw(st.integers(2, 12)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.choice([0.25, 0.5, 1.0], res ** ndim) + rng.choice([0.0, 1.0], res ** ndim) \
        * rng.random(res ** ndim)
    for share, value in ((draw(st.sampled_from([0.0, 0.01, 0.1])), 0.0),
                         (draw(st.sampled_from([0.0, 0.3, 0.9])), np.inf)):
        values[rng.random(values.size) < share] = value
    return values.reshape((res,) * ndim)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(value_grids(), BLOCK_CELLS)
def test_driver_returns_the_first_minimum_in_row_major_order(values, cells):
    res, ndim = values.shape[0], values.ndim
    drawn = []

    def objective(blocks, *axes):
        for rows in blocks:
            drawn.append(rows)
            yield rows.start, 0, values[rows]

    with mock.patch.object(oracle, "_BLOCK_CELLS", cells):
        # the axes are 0, 1, ..., res - 1: a point is its index
        try:
            best, point = oracle._refine(objective, [0.0] * ndim, [res - 1.0] * ndim, res, 0)
        except ConvergenceError:
            assert np.isinf(values).all()
            return
    k = int(np.argmin(values))
    assert best == values.flat[k]
    assert tuple(point) == np.unravel_index(k, values.shape)
    if (values == 0.0).any():
        # the first 0, and the search stops in the block that holds it
        first = np.unravel_index(int(np.argmax(values == 0.0)), values.shape)
        assert tuple(point) == first
        assert drawn[-1].start <= first[0] < drawn[-1].stop


# ---------------------------------------------------------------------------
# the budgets of the benchmark's verify commands, at the default grids

VERIFY_COMMANDS = [((0.35, 0.2, 0.05), 4, True), ((0.3, 0.1), 2, False),
                   ((0.25, 0.05), 2, False), ((0.3, 0.25, 0.05), 2, False),
                   ((0.3, 0.1, 0.05), 3, True), ((0.25, 0.1), 2, False)]


@pytest.mark.parametrize("qs, budget_count, scalar_only", VERIFY_COMMANDS)
def test_verify_budgets_at_default_grids(qs, budget_count, scalar_only):
    scalar_grid, vector_grid = GridSpec(400, 3), GridSpec(200, 2)
    pts = np.linspace(0.0, 0.6, budget_count)
    for q in sorted(set(qs)):
        for D in pts:
            for P in pts:
                _assert_same(scalar_channel_oracle, _reference_scalar,
                             q, float(D), float(P), scalar_grid)
    if scalar_only:
        return
    q = np.sort(np.array(qs))
    caps, sum_q = float((2.0 * q * (1.0 - q)).sum()), float(q.sum())
    for D in np.linspace(0.0, 1.1 * caps, budget_count):
        for P in np.linspace(0.0, 1.1 * sum_q, budget_count):
            _assert_same(allocation_grid_oracle, _reference_allocation,
                         list(qs), (float(D), float(P)), vector_grid)
    for D in np.linspace(sum_q, caps, budget_count):
        _assert_grid_above_lp(list(qs), float(D), vector_grid, oracle.VECTOR_TOL)
