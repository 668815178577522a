"""Brute-force verifiers for the closed-form solver.

Three independent checks, all plain grid searches with local refinement
(the objectives are convex, so shrinking the box around the incumbent is
sound and each round only improves the answer):

* ``scalar_channel_oracle`` minimizes mutual information directly over
  binary test channels, checking the scalar RDP formula.
* ``allocation_grid_oracle`` minimizes the sum of scalar rates over
  budget splits, checking the vector solver (n <= 3).
* ``s_of_d_oracle`` minimizes total perception over the zero-rate
  polytope, checking the closed-form S(D) curve (n <= 3).

None of them touch the solver's region logic or multiplier equations;
they share only the entropy primitives and (for the allocation oracle,
whose objective is by definition a sum of scalar rates) the scalar RDP
function itself.

Accuracy scales with the final grid spacing: after the requested rounds
the boxed spacing is (range / resolution) / shrink^rounds with shrink
about 4 per round, and the observed deviation is bounded by that spacing
times the local slope of the objective.  The acceptance settings
(resolution 400 / 3 rounds scalar, 200 / 2 rounds vector) land safely
inside 2e-3 and 5e-3 nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _xlogx, h2, scalar_rdp
from .errors import ConvergenceError, DomainError, SizeError
from .solver import BernoulliVectorSource, BudgetPair, _as_budget, _as_source

#: Cells kept around the incumbent (per side) when a box is refined.
_HALO = 3

#: Per-axis cap for the 4-d grid of the n = 3 allocation oracle; extra
#: refinement rounds are added automatically until the effective spacing
#: matches the requested resolution.
_N3_AXIS_CAP = 24

_MAX_ROUNDS = 14


@dataclass(frozen=True)
class GridSpec:
    """Grid-search controls: points per axis and local refinement passes."""

    resolution: int = 200
    refinement_rounds: int = 2

    def __post_init__(self):
        if int(self.resolution) < 2:
            raise DomainError("resolution must be at least 2")
        if int(self.refinement_rounds) < 0:
            raise DomainError("refinement_rounds must be >= 0")
        object.__setattr__(self, "resolution", int(self.resolution))
        object.__setattr__(self, "refinement_rounds", int(self.refinement_rounds))


@dataclass(frozen=True)
class ScalarChannel:
    """Binary test channel: a = P(xhat=1 | x=0), b = P(xhat=0 | x=1)."""

    a: float
    b: float


def _shrink(lo: float, hi: float, center: float, spacing: float) -> tuple[float, float]:
    return max(lo, center - _HALO * spacing), min(hi, center + _HALO * spacing)


def scalar_channel_oracle(q: float, D: float, P: float,
                          grid: GridSpec = GridSpec(400, 3)) -> tuple[float, ScalarChannel]:
    """Minimize I(X; Xhat) over binary channels subject to the distortion
    and perception budgets, by grid search over (a, b) in [0, 1]^2.

    The mutual information is assembled from the four joint cells with the
    same 0 log 0 masking as the entropy primitives.  The identity channel
    a = b = 0 is always feasible, so a minimizer always exists.  Grid ties
    go to the lexicographically smallest (a, b) index.  H(X) is ``h2(q)``;
    it equals ``-q ln q - (1-q) ln(1-q)`` in float arithmetic for q in
    {0, 0.05, ..., 0.5}, and for about 0.2% of other q differs by 1-2 ulps.
    """
    if not 0.0 <= q <= 0.5:
        raise DomainError("q must lie in [0, 1/2]")
    if D < 0.0 or P < 0.0 or not (math.isfinite(D) and math.isfinite(P)):
        raise DomainError("D and P must be finite and >= 0")
    res = grid.resolution
    lo_a = lo_b = 0.0
    hi_a = hi_b = 1.0
    hx = h2(q)
    best = math.inf
    best_ab = (0.0, 0.0)
    for _ in range(1 + grid.refinement_rounds):
        a = np.linspace(lo_a, hi_a, res)
        b = np.linspace(lo_b, hi_b, res)
        A = a[:, None]
        B = b[None, :]
        # I = H(X) + H(Xhat) - H(X, Xhat), every term from the joint cells
        joint = (_xlogx((1.0 - q) * (1.0 - A)) + _xlogx((1.0 - q) * A)
                 + _xlogx(q * B) + _xlogx(q * (1.0 - B)))
        qhat = (1.0 - q) * A + q * (1.0 - B)
        info = hx + joint - _xlogx(qhat) - _xlogx(1.0 - qhat)
        feasible = ((1.0 - q) * A + q * B <= D) & (np.abs((1.0 - q) * A - q * B) <= P)
        if not feasible.any():
            # a refined box can lose all exactly-feasible points when a
            # constraint is tight (e.g. P = 0); keep the incumbent
            if math.isfinite(best):
                break
            raise ConvergenceError("no feasible channel on the grid")  # pragma: no cover
        info = np.where(feasible, info, np.inf)
        i, j = np.unravel_index(int(np.argmin(info)), info.shape)
        if info[i, j] < best:
            best = float(info[i, j])
            best_ab = (float(a[i]), float(b[j]))
        ha = (hi_a - lo_a) / (res - 1)
        hb = (hi_b - lo_b) / (res - 1)
        lo_a, hi_a = _shrink(0.0, 1.0, best_ab[0], ha)
        lo_b, hi_b = _shrink(0.0, 1.0, best_ab[1], hb)
    return max(best, 0.0), ScalarChannel(*best_ab)


def _rounds_for(res: int, base: int, rounds: int) -> int:
    """Enough rounds that the final spacing matches a single grid at
    ``res`` points, plus the requested refinement rounds."""
    need = 0
    spacing_ratio = 1.0  # (current spacing) / (range / base)
    while base / spacing_ratio < res and need < _MAX_ROUNDS:
        spacing_ratio *= (2.0 * _HALO) / (base - 1)
        need += 1
    return min(need + rounds, _MAX_ROUNDS)


def allocation_grid_oracle(src, budget, grid: GridSpec = GridSpec(200, 2)):
    """Minimize sum_i R(d_i, p_i, q_i) over grids of budget splits with
    sum d_i = D and sum p_i = P (equality via elimination of the last
    component).  Supports n <= 3; the free-variable grid is 0-, 2- or
    4-dimensional.

    Returns ``(rate, (d, p))`` with the minimizing allocation in sorted
    component order.
    """
    src = _as_source(src)
    budget = _as_budget(budget)
    if src.n > 3:
        raise SizeError("allocation_grid_oracle supports n <= 3")
    if math.isinf(budget.P):
        raise DomainError("the grid oracle needs a finite P")
    q = src.q
    D = min(budget.D, float(src.n))
    P = budget.P

    if src.n == 1:
        rate = float(scalar_rdp(min(D, 1.0), P, q[0]))
        return rate, (np.array([min(D, 1.0)]), np.array([P]))

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

    # n == 3: grid over (d1, d2, p1, p2) with the last component eliminated
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
            raise ConvergenceError("no feasible split on the grid")  # pragma: no cover
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


def s_of_d_oracle(src, D: float, grid: GridSpec = GridSpec(200, 3)) -> float:
    """Minimize sum p_i over the zero-rate polytope
    {q_i <= d_i, sum d_i = D, 2q_i(1-q_i) - (1-2q_i) p_i <= d_i, p_i >= 0}
    by gridding the distortion split; for each split the optimal p_i is
    the explicit lower bound, so this is a direct linear-program check of
    the closed-form curve.
    """
    src = _as_source(src)
    if src.n > 3:
        raise SizeError("s_of_d_oracle supports n <= 3")
    q = src.q
    D = float(D)
    if D < float(q.sum()) - 1e-12:
        raise DomainError(f"s_of_d_oracle needs D >= sum q = {float(q.sum())}")
    caps = 2.0 * q * (1.0 - q)
    if D >= float(caps.sum()):
        return 0.0

    def p_needed(d: np.ndarray, qi: float) -> np.ndarray:
        cap = 2.0 * qi * (1.0 - qi)
        if qi >= 0.5:  # the perception bound degenerates; need d >= cap
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
    # D - d1 - d2 can round a hair below q3 (at D = sum q the box is a point)
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
            raise ConvergenceError("no feasible split on the grid")  # pragma: no cover
        idx = np.unravel_index(int(np.argmin(total)), total.shape)
        if total[idx] < best:
            best = float(total[idx])
            best_z = np.array([d1[idx[0], 0], d2[0, idx[1]]])
        h = np.where(hi > lo, (hi - lo) / (res - 1), 0.0)
        for k in range(2):
            lo[k], hi[k] = _shrink(glo[k], ghi[k], best_z[k], h[k])
    return best
