"""Brute-force verifiers for the closed-form solver.

Three independent checks: two grid searches with local refinement (the
objectives are convex, so shrinking the box around the incumbent is sound
and each round only improves the answer) and one exact program:

* ``scalar_channel_oracle`` minimizes mutual information directly over
  binary test channels, checking the scalar RDP formula.
* ``allocation_grid_oracle`` minimizes the sum of scalar rates over
  budget splits, checking the vector solver (n <= 3).
* ``s_of_d_oracle`` solves the zero-rate linear program over the
  reconstruction's marginals, a fractional knapsack, checking the
  closed-form S(D) curve at any n.

None of them touch the solver's region logic or multiplier equations.
They share only the entropy primitives and, for the allocation oracle,
whose objective is by definition a sum of scalar rates, the scalar RDP
function itself.  The S(D) program assumes neither that function nor the
separation of the optimum into scalar problems.

Every search runs through one driver, ``_refine``.  Each round an
objective yields the values of its grid in chunks, in row-major order.
The grid objectives take them in blocks of whole slices along the first
axis (``_blocks``): in round 0 the first block holds about
``_BLOCK_CELLS // 16`` cells and each next one 4 times more, and the
refined rounds take blocks of about ``_BLOCK_CELLS`` from their first row.
A chunk's first minimum in row-major order wins only when strictly lower
than the earlier chunks', so the winner and its tie rule are those of
``np.argmin`` over the whole grid, and memory is bounded by the block, not
by resolution^2.  Each objective is bounded below by 0 (a mutual
information, a sum of rates), so the first chunk that reaches 0 ends the
search: nothing later can be strictly lower, and a zero found in the
first rows costs only the small first blocks.  The scalar objective
clamps its computed I at 0, so that cells rounded just below it tie and
the first feasible one in row-major order wins.

The scalar objective works on the 1-D products u = (1-q)a and v = qb, both
sorted.  Each block tests the budgets on its rows against every column
and takes the entropies over the bounding box of its feasible cells only:
at D = 0 one cell a round.  At P >= D it tests the distortion budget only,
which implies the perception one.  At P = 0 a cell is feasible only where
u == v as floats, since a computed u - v is 0 only between equal floats;
each row's tied columns are one run of the sorted v, found by
``searchsorted`` (``_tied_cells``), and the entropies are taken on those
cells only, with the same per-cell arithmetic.  Their first minimum, by
one ``np.argmin`` over the list, is the round's one chunk.

Accuracy scales with the final grid spacing: after the requested rounds
the boxed spacing is (range / resolution) / shrink^rounds with shrink
about 4 per round, and the observed deviation is bounded by that spacing
times the local slope of the objective.  ``verify`` runs the scalar
oracle on ``SCALAR_GRID`` and the allocation oracle on ``VECTOR_GRID``,
the oracles' default grids, and their deviations land safely inside its
tolerances ``SCALAR_TOL`` and ``VECTOR_TOL`` nats.  The S(D) program's
deviations are at rounding level.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import DOMAIN_TOL, _as_unit, _real, _xlogx, h2_arr, scalar_rdp, scalar_rdp_arr
from .errors import ConvergenceError, DomainError, SizeError
from .solver import BudgetPair, _as_budget, _as_source

#: Cells kept around the incumbent (per side) when a box is refined.
_HALO = 3

#: Per-axis cap for the 4-d grid of the n = 3 allocation oracle; extra
#: refinement rounds are added automatically until the effective spacing
#: matches the requested resolution.
_N3_AXIS_CAP = 24

_MAX_ROUNDS = 14

#: Most grid cells evaluated at once: whole slices along the first axis, at
#: least one.  Round 0's first block holds a 16th of it and each next block
#: 4 times more, so the scalar grid at resolution 400 takes 2 rows, then 10,
#: then 40 a block; a refined round takes 40 rows a block from its first.
_BLOCK_CELLS = 16384


@dataclass(frozen=True)
class GridSpec:
    """Grid-search controls: points per axis and local refinement passes."""

    resolution: int
    refinement_rounds: int

    def __post_init__(self):
        for name, least in (("resolution", 2), ("refinement_rounds", 0)):
            value = getattr(self, name)
            whole = isinstance(value, numbers.Integral) or (
                isinstance(value, numbers.Real) and float(value).is_integer())  # nan, inf: False
            if isinstance(value, (bool, np.bool_)) or not whole or value < least:
                raise DomainError(f"{name} must be an integer >= {least}; got {value!r}")
            object.__setattr__(self, name, int(value))


#: ``verify``'s acceptance settings: each oracle's grid and the largest
#: deviation from the closed form it may show, in nats.
SCALAR_GRID, SCALAR_TOL = GridSpec(400, 3), 2e-3
VECTOR_GRID, VECTOR_TOL = GridSpec(200, 2), 5e-3


def _as_grid(grid) -> GridSpec:
    if not isinstance(grid, GridSpec):
        raise DomainError(f"grid must be a GridSpec, got {grid!r:.80}")
    return grid


@dataclass(frozen=True)
class ScalarChannel:
    """Binary test channel: a = P(xhat=1 | x=0), b = P(xhat=0 | x=1)."""

    a: float
    b: float


def _blocks(rows: int, row_cells: int, cells: int):
    """Slices of whole rows, each at least one: the first holds about
    ``cells`` cells, and each next one 4 times more, up to ``_BLOCK_CELLS``."""
    stop = 0
    while stop < rows:
        start, stop = stop, min(rows, stop + max(1, cells // row_cells))
        cells = min(4 * cells, _BLOCK_CELLS)
        yield slice(start, stop)


def _refine(objective, glo, ghi, res: int, rounds: int):
    """Minimize over the box [glo, ghi] by ``1 + rounds`` rounds of a
    ``res``-point grid per axis, each box ``_HALO`` spacings around the
    incumbent, which moves only to a strictly lower value.

    ``objective(blocks, *axes)`` yields the round's values in chunks
    ``(i0, corner, values)``, in row-major order: ``values`` on a box of
    the grid whose first cell lies at index ``corner`` (an int stands for
    every axis) moved ``i0`` along axis 0, inf where infeasible.  Cells in
    no chunk count as infeasible, so an objective may leave out the rows
    and columns that cannot be feasible, as the scalar one does.
    ``blocks`` are the slices of rows a grid objective takes a chunk on
    (``_blocks``): round 0's start small, where zero-rate searches stop,
    and a refined round's take ``_BLOCK_CELLS`` cells from its first row.

    Every objective is bounded below by 0.  The first chunk whose minimum
    reaches 0 holds the answer, so the search ends there and skips the
    rest of the round and the later rounds; a zero in the first rows costs
    a few rows, not a whole block of the largest size.  The winner is the
    whole grid's first cell at 0, as long as no value lies below it; an
    objective that can round below 0 clamps its values there, as the
    scalar one does.

    A round with no finite value ends the search, raising if nothing was
    found.  So does a round whose box has zero width on every axis: its
    grid is one point, and the next round's box would be that point again.
    Returns ``(best, point)``.
    """
    glo, ghi = np.asarray(glo, dtype=float), np.asarray(ghi, dtype=float)
    lo, hi, best, best_z = glo, ghi, math.inf, glo
    for r in range(1 + rounds):
        # all cells along an axis of zero width are equal, and the first wins
        axes = [np.linspace(lo[k], hi[k], res if hi[k] > lo[k] else 1) for k in range(glo.size)]
        blocks = _blocks(axes[0].size, math.prod(ax.size for ax in axes[1:]),
                         _BLOCK_CELLS if r else _BLOCK_CELLS // 16)
        top, at = math.inf, None
        for i0, corner, vals in objective(blocks, *axes):
            k = int(np.argmin(vals))
            if vals.flat[k] < top:
                top = float(vals.flat[k])
                at = np.add(corner, np.unravel_index(k, vals.shape))
                at[0] += i0
                if top <= 0.0:
                    break
        if at is None:
            # a refined box can lose all exactly-feasible points when a
            # constraint is tight (e.g. P = 0); keep the incumbent
            if math.isfinite(best):
                break
            raise ConvergenceError("no feasible point on the grid")  # pragma: no cover
        if top < best:
            best = top
            best_z = np.array([axes[k][at[k]] for k in range(glo.size)])
        if best <= 0.0 or not (hi > lo).any():
            break
        h = np.where(hi > lo, (hi - lo) / (res - 1), 0.0)
        lo, hi = np.maximum(glo, best_z - _HALO * h), np.minimum(ghi, best_z + _HALO * h)
    return best, best_z


def _tied_cells(u, v, D: float, values):
    """The scalar objective's one chunk a round at P = 0, where
    ``values(i, j)`` gives the objective on the cells listed by row and
    column index.

    At P = 0 a cell passes the perception test only when ``u == v`` as
    floats: a computed difference is 0 only between equal floats, and
    ``abs`` adds no rounding.  Its distortion test is then ``u + u <= D``,
    as ``u + v`` is ``2u``, exact.  ``v`` is non-decreasing, so row i's
    tied columns are one run, from ``searchsorted`` left to right of
    ``u[i]``.  The cells are listed once a round in row-major order and
    the objective is taken on them only.  Its values are clamped at 0, so
    never NaN, and one ``np.argmin`` over the list finds the first minimum
    in row-major order, the cell that ``_refine`` would pick from the
    whole grid; it is yielded as a one-cell chunk.
    """
    lo, hi = np.searchsorted(v, u, "left"), np.searchsorted(v, u, "right")
    count = np.where(u + u <= D, hi - lo, 0)
    ci = np.repeat(np.arange(u.size), count)
    if ci.size:
        # row i's cells start at the list index cumsum(count)[i] - count[i]
        cj = np.arange(ci.size) + np.repeat(lo - np.cumsum(count) + count, count)
        vals = values(ci, cj)
        k = int(np.argmin(vals))
        yield ci[k], (0, cj[k]), vals[k:k + 1, None]


def scalar_channel_oracle(q: float, D: float, P: float,
                          grid: GridSpec = SCALAR_GRID) -> tuple[float, ScalarChannel]:
    """Minimize I(X; Xhat) over binary channels subject to the distortion
    and perception budgets, by grid search over (a, b) in [0, 1]^2.

    The mutual information is assembled from the four joint cells with the
    same 0 log 0 masking as the entropy primitives.  The identity channel
    a = b = 0 is always feasible, so a minimizer always exists.  Grid ties
    go to the lexicographically smallest (a, b) index; a computed I below 0
    counts as 0, so at a zero-rate budget the first feasible cell with
    I <= 0 is returned.  A budget with P >= D returns the rate and channel
    of P = D, bit for bit: u = (1-q)a and v = qb are >= 0, so the computed
    |u - v| is at most the computed u + v, every perception test is implied
    by the distortion test, and only that one runs.  At P = 0 the feasible
    cells are the ties u == v with 2u <= D; the search lists them a round
    by ``searchsorted``, takes the entropies on them only and hands the
    driver their first minimum: the answer of a 2-D test of both budgets,
    bit for bit.  H(X) is ``h2_arr(q)``; it equals ``-q ln q - (1-q)
    ln(1-q)`` in float arithmetic for q in {0, 0.05, ..., 0.5}, and for
    about 0.2% of other q differs by 1-2 ulps.
    """
    q, budget, grid = _as_unit(_real(q, "q"), "q", hi=0.5), BudgetPair(D, P), _as_grid(grid)
    q, D, P, hx = float(q), budget.D, budget.P, float(h2_arr(q))
    if math.isinf(P):
        raise DomainError("the grid oracle needs a finite P")

    def information(blocks, a, b):
        ua, vb, qb = (1.0 - q) * a, q * b, q * (1.0 - b)
        xa = _xlogx((1.0 - q) * (1.0 - a)) + _xlogx(ua)
        xb1, xb2 = _xlogx(vb), _xlogx(qb)

        def info_at(i, j):
            # I = H(X) + H(Xhat) - H(X, Xhat), every term from the joint cells;
            # I >= 0, so rounding below 0 is clamped and all such cells tie
            qhat = ua[i] + qb[j]
            return np.maximum(hx + (xa[i] + xb1[j] + xb2[j]) - _xlogx(qhat) - _xlogx(1.0 - qhat),
                              0.0)

        if P == 0.0:
            yield from _tied_cells(ua, vb, D, info_at)
            return
        for rows in blocks:
            u = ua[rows, None]
            ok = u + vb <= D
            if P < D:  # at P >= D the distortion test implies the perception one
                ok &= np.abs(u - vb) <= P
            i, j = np.flatnonzero(ok.any(axis=1)), np.flatnonzero(ok.any(axis=0))
            if i.size:
                ok, corner = ok[i[0]:i[-1] + 1, j[0]:j[-1] + 1], (i[0], j[0])
                i, j = slice(rows.start + i[0], rows.start + i[-1] + 1), slice(j[0], j[-1] + 1)
                yield rows.start, corner, np.where(ok, info_at((i, None), j), np.inf)

    best, (a, b) = _refine(information, [0.0, 0.0], [1.0, 1.0], grid.resolution,
                           grid.refinement_rounds)
    return best, ScalarChannel(float(a), float(b))


def _rounds_for(res: int, base: int, rounds: int) -> int:
    """Enough rounds that the final spacing matches a single grid at
    ``res`` points, plus the requested refinement rounds."""
    need = 0
    spacing_ratio = 1.0  # (current spacing) / (range / base)
    while base / spacing_ratio < res and need < _MAX_ROUNDS:
        spacing_ratio *= (2.0 * _HALO) / (base - 1)
        need += 1
    return min(need + rounds, _MAX_ROUNDS)


def allocation_grid_oracle(src, budget, grid: GridSpec = VECTOR_GRID):
    """Minimize sum_i R(d_i, p_i, q_i) over grids of budget splits with
    sum d_i = D and sum p_i = P (equality via elimination of the last
    component).  Supports n <= 3; the free-variable grid is 0-, 2- or
    4-dimensional.

    Returns ``(rate, (d, p))`` with the minimizing allocation in sorted
    component order.
    """
    src, budget, grid = _as_source(src), _as_budget(budget), _as_grid(grid)
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
        def pair_rate(blocks, d1, p1):
            for rows in blocks:
                yield rows.start, 0, (scalar_rdp(d1[rows, None], p1, q[0])
                                      + scalar_rdp(D - d1[rows, None], P - p1, q[1]))
        best, (d1, p1) = _refine(pair_rate, [max(0.0, D - 1.0), 0.0], [min(1.0, D), P],
                                 grid.resolution, grid.refinement_rounds)
        return best, (np.array([d1, D - d1]), np.array([p1, P - p1]))

    # n == 3: grid over (d1, d2, p1, p2) with the last component eliminated
    def triple_rate(blocks, d1, d2, p1, p2):
        d1, d2 = d1[:, None, None, None], d2[None, :, None, None]
        p1, p2 = p1[None, None, :, None], p2[None, None, None, :]
        head, middle = scalar_rdp(d1, p1, q[0]), scalar_rdp(d2, p2, q[1])
        p3 = P - p1 - p2

        for rows in blocks:
            d3 = D - d1[rows] - d2
            feasible = (d3 >= 0.0) & (d3 <= 1.0) & (p3 >= 0.0)
            total = (head[rows] + middle
                     + scalar_rdp_arr(np.clip(d3, 0.0, 1.0), np.maximum(p3, 0.0), q[2]))
            yield rows.start, 0, np.where(feasible, total, np.inf)

    res = min(grid.resolution, _N3_AXIS_CAP)
    dmax = min(1.0, D)
    best, z = _refine(triple_rate, [0.0] * 4, [dmax, dmax, P, P], res,
                      _rounds_for(grid.resolution, res, grid.refinement_rounds))
    return best, (np.array([z[0], z[1], D - z[0] - z[1]]), np.array([z[2], z[3], P - z[2] - z[3]]))


def s_of_d_oracle(src, D: float, grid: GridSpec | None = None) -> float:
    """S(D) as the linear program it is at zero rate, solved exactly.

    Zero rate means Xhat is independent of X, so only its marginals qhat
    matter: the distortion is sum_i q_i + qhat_i (1 - 2q_i) and the
    perception sum_i |q_i - qhat_i|.  With q sorted non-increasing and
    <= 1/2, qhat = q costs no perception and leaves the distortion
    sum 2q_i(1 - q_i), and raising a qhat_i above q_i never helps.
    Lowering qhat_i sheds 1 - 2q_i of distortion per unit of perception,
    down to qhat_i = 0.  So the least perception within D is a fractional
    knapsack: shed in decreasing 1 - 2q_i (reversed q order) until the
    distortion is within D.  It needs no grid, no separation into scalar
    problems and no rate formula, and takes any n.  S(D) is 0.0 at
    D >= sum 2q(1 - q), and a D below sum q by at most ``DOMAIN_TOL``
    sheds every component with q_i < 1/2, S(sum q).

    ``grid`` is accepted and ignored: the benchmark's checks pass one.
    """
    src, D = _as_source(src), _real(D, "D")
    q = src.q
    if not D >= float(q.sum()) - DOMAIN_TOL:  # NaN fails too
        raise DomainError(f"s_of_d_oracle needs D >= sum q = {float(q.sum())}")
    spent, excess = 0.0, float((2.0 * q * (1.0 - q)).sum()) - D
    for qi in reversed(q.tolist()):
        if excess <= 0.0 or qi >= 0.5:  # q = 1/2 sheds nothing, nor does any after it
            break
        step = min(qi, excess / (1.0 - 2.0 * qi))
        spent, excess = spent + step, excess - step * (1.0 - 2.0 * qi)
    return spent
