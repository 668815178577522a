"""Closed-form RDP solver for Bernoulli vector sources.

Given component success probabilities q_1 >= ... >= q_n (each in [0, 1/2]
after normalization) and budgets (D, P) for total Hamming distortion and
total marginal-probability gap, the optimal rate decomposes into scalar
rates sum_i R(d_i, p_i, q_i) under sum d_i = D, sum p_i = P.  The (D, P)
plane splits into three regions:

  A: perception slack.  Reverse water-filling sets d_i = min(level, q_i)
     and the rate is the classic rate-distortion value.
  B: zero rate.  A reconstruction independent of the source is feasible.
  C: both budgets bind.  Each component minimizes R + alpha d + beta p
     at shared multipliers, on its U branch, its p = 0 edge or its (q, q)
     corner.  In the variables A = 1/expm1(alpha - beta) and
     B = 1/expm1(alpha + beta) the U branch's root is the line
     p = (1-q) B - q A, clipped to [0, q] (``_component_dp``).  So at fixed
     A the total p is piecewise linear and non-decreasing in B, and the B
     that meets P has a closed form on its piece (``_perception_piece``).
     Along that curve the total d rises in A, and one bracketed Newton
     search in log A meets D (``_c_search``).  It starts at the
     multipliers of T(D) below sum q, and above sum q at those of the
     allocation shaped like the S(D) optimizers (``_s_shaped``), whose one
     multiplier alpha is the root of the distortion budget, which falls in
     alpha.  At P = 0 that allocation is the P = 0 allocation, and a budget
     within the perception tolerance of P = 0 takes it at that alpha,
     unsearched in log A.

Region boundaries are T(D) = sum_i d_i (1-2q_i)/(1-2d_i) at the
water-filled allocation (for D < sum q_i) and the piecewise-linear S(D)
(for D >= sum q_i).  Boundaries belong to A and B; C is the open
remainder.  One test decides: ``_plane_boundary`` gives the boundary at D
and the allocation on it, and ``_locate`` compares P with it for
``classify`` and each region solver.  So a solver accepts exactly the
budgets ``classify`` puts in its region, and raises DomainError for others.
``rdp`` locates (D, P) once and hands the result to the solver of its
region with the budget (``_LocatedBudget``), which does not test again.

Every solve works on the k distinct values of q, each weighted by the
number m_k of components that share it: R is jointly convex in (d, p), so
averaging the allocations of equal components keeps both budgets and does
not raise the rate, and the problem becomes
min sum_k m_k R(d_k, p_k, q_k) subject to sum_k m_k d_k = D and
sum_k m_k p_k = P.  Every sum over components above is such a weighted sum
over runs; the results are expanded back to one entry per component, so
tied components get equal shares.  With all m_k = 1 the arithmetic is the
per-component one.
"""

from __future__ import annotations

import bisect
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (DOMAIN_TOL, ScalarRegion, _as_unit, _real, _real_array, rd_boundary_arr,
                   scalar_rdp_arr)
from .errors import ConvergenceError, DomainError

#: Default relative tolerance on |sum d - D| and |sum p - P|.
BUDGET_RTOL = 1e-8

#: Iteration cap for any single root search.
MAX_ROOT_ITER = 200

_TINY = 1e-300


# ---------------------------------------------------------------------------
# data types


@dataclass(frozen=True)
class BernoulliVectorSource:
    """Normalized source: q sorted non-increasing, all entries in [0, 1/2].

    ``flip_mask`` records, per ORIGINAL component, whether the raw
    probability exceeded 1/2 and was complemented.  ``permutation[i]`` is
    the original index of sorted component i; together they round-trip the
    raw input.

    ``run_q`` and ``counts`` are derived from q: one value per run of
    equal values and the run lengths, in order.  The solvers work on one
    value per run, weighted by its count, so tied components always get
    equal shares of the budgets.
    """

    q: np.ndarray
    flip_mask: np.ndarray
    permutation: np.ndarray
    run_q: np.ndarray = field(init=False, repr=False, compare=False)
    counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        q = np.array(_as_unit(self.q, "q", hi=0.5))  # its own copy
        if q.ndim != 1 or q.size == 0:
            raise DomainError("source needs at least one component")
        if np.any(np.diff(q) > 1e-15):
            raise DomainError("normalized q must be sorted non-increasing")
        perm = _bijection(self.permutation, q.size)
        if perm is None:
            raise DomainError("permutation must be a bijection on [n]")
        flip = _real_array(self.flip_mask, "flip_mask").astype(bool, copy=False)
        if flip.shape != q.shape:
            raise DomainError(f"flip_mask must have shape {q.shape}, got {flip.shape}")
        starts = np.flatnonzero(np.concatenate(([True], q[1:] != q[:-1])))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "flip_mask", flip)
        object.__setattr__(self, "permutation", perm)
        object.__setattr__(self, "run_q", q[starts])
        object.__setattr__(self, "counts", np.diff(np.append(starts, q.size)))

    @property
    def n(self) -> int:
        return int(self.q.size)

    def raw(self) -> np.ndarray:
        """Reconstruct the raw probabilities that produced this source."""
        out = np.empty(self.n)
        out[self.permutation] = self.q
        return np.where(self.flip_mask, 1.0 - out, out)


def _bijection(perm, n: int) -> np.ndarray | None:
    """``perm`` as an int array if it holds each of 0..n-1 exactly once
    (integral floats and bools count as their integer values), else None.
    Range-checked first, so the scatter below stays in bounds."""
    perm = np.asarray(perm)
    if perm.dtype.kind not in "biuf" or perm.shape != (n,):
        return None
    if not np.all((perm >= 0) & (perm < n)):  # NaN fails too
        return None
    idx = perm.astype(int, copy=False)
    if perm.dtype.kind == "f" and not np.array_equal(idx, perm):
        return None
    seen = np.zeros(n, dtype=bool)
    seen[idx] = True
    return idx if bool(seen.all()) else None


@dataclass(frozen=True)
class BudgetPair:
    """Total distortion budget D and total perception budget P.

    P = inf is accepted and means the perception constraint is dropped.
    """

    D: float
    P: float

    def __post_init__(self):
        D, P = _real(self.D, "D"), _real(self.P, "P")
        if not math.isfinite(D) or D < -DOMAIN_TOL:
            raise DomainError(f"D must be finite and >= 0, got {D!r}")
        if math.isnan(P) or P < -DOMAIN_TOL:
            raise DomainError(f"P must be >= 0, got {P!r}")
        # 0.0 first: max keeps its first argument on a tie, so -0.0 gives +0.0
        object.__setattr__(self, "D", max(0.0, D))
        object.__setattr__(self, "P", max(0.0, P))


@dataclass(frozen=True)
class _LocatedBudget(BudgetPair):
    """A budget with ``_locate``'s tuple for it, which ``rdp`` hands to the
    region solver so that the solver does not repeat the region test."""

    located: tuple = field(compare=False, repr=False)


class PlaneRegion(str, enum.Enum):
    """Labels for the (D, P) plane partition.  Each member is a str equal
    to its letter, and str() and format() give the letter."""

    A = "A"
    B = "B"
    C = "C"

    __str__ = str.__str__
    __format__ = str.__format__


@dataclass(frozen=True)
class Allocation:
    """Optimal per-component budgets and the rates they induce (nats)."""

    d: np.ndarray
    p: np.ndarray
    per_component_rate: np.ndarray
    total_rate: float


#: ScalarRegion members in declaration order; a component label is the
#: int8 index of its region here.
_REGIONS = tuple(ScalarRegion)
_S, _T, _U, _V, _EXT = (np.int8(_REGIONS.index(r)) for r in (
    ScalarRegion.S, ScalarRegion.T, ScalarRegion.U, ScalarRegion.V,
    ScalarRegion.EXTERIOR))


@dataclass(frozen=True)
class KktCertificate:
    """Multipliers and per-component region labels witnessing optimality.

    nu and mu multiply the distortion and perception budget constraints;
    lam[i] >= 0 multiplies p_i >= 0 (complementary slack with p_i).  No
    multiplier is needed for d_i >= 0: optimal d_i > 0 whenever D > 0.

    ``component_regions`` is an int8 array of label codes, one per
    component: code k stands for ``tuple(ScalarRegion)[k]``, that is
    0 = S, 1 = T, 2 = U, 3 = V and 4 = EXTERIOR.
    """

    nu: float
    mu: float
    lam: np.ndarray
    component_regions: np.ndarray


@dataclass(frozen=True)
class RdpResult:
    rate: float
    region: str
    allocation: Allocation
    certificate: KktCertificate
    multiplier_iterations: int
    residuals: tuple[float, float]
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class SCurvePoint:
    """S(D) value with the segment index, its distortion, and optimizers.

    ``k`` is the 1-based active segment (None on the zero plateau, where
    ``d_k`` is NaN).  Equal components share one segment, split equally:
    then ``k`` is the first of them and ``d_k`` the distortion of each.
    """

    value: float
    k: int | None
    d_k: float
    d: np.ndarray
    p: np.ndarray


# ---------------------------------------------------------------------------
# normalization and the plane partition


def normalize(raw_q) -> BernoulliVectorSource:
    """Canonicalize raw probabilities: complement entries above 1/2, then
    sort non-increasing, recording flips and the permutation.  raw_q is a
    1-d array of real numbers in [0, 1], checked by ``_as_unit``, so text
    such as ``"0.3"`` is rejected, not parsed."""
    raw = _as_unit(raw_q, "raw_q")
    if raw.ndim != 1 or raw.size == 0:
        raise DomainError("raw_q must be a non-empty 1-d sequence")
    flip = raw > 0.5
    folded = np.where(flip, 1.0 - raw, raw)
    # numpy's default sort is several times faster than the stable one but
    # leaves equal values in any order; a second sort of (run, index) keys
    # puts each run of equal values back in index order, as a stable sort
    # of -folded would
    perm = np.argsort(-folded)
    q = folded[perm]
    tied = q[1:] == q[:-1]
    if np.any(tied & (perm[1:] < perm[:-1])):
        base = np.concatenate(([0], np.cumsum(~tied))) * raw.size
        perm = np.sort(base + perm) - base
        q = folded[perm]  # 0.0 and -0.0 tie, but differ in sign
    return BernoulliVectorSource(q=q, flip_mask=flip, permutation=perm)


def _as_source(src) -> BernoulliVectorSource:
    if isinstance(src, BernoulliVectorSource):
        return src
    return normalize(src)


def _as_budget(budget) -> BudgetPair:
    if isinstance(budget, BudgetPair):
        return budget
    try:
        D, P = budget
    except (TypeError, ValueError):
        raise DomainError(f"budget must be a pair (D, P), got {budget!r:.80}") from None
    return BudgetPair(D, P)


def _total(m: np.ndarray, x) -> float:
    """Sum over components of a per-run quantity x: sum_k m_k x_k."""
    return float((m * x).sum())


def water_fill(q: np.ndarray, D: float, counts: np.ndarray | None = None) -> np.ndarray:
    """Distortions d_i = min(level, q_i) with the level chosen so that
    sum d_i = D.  Exact: q is sorted non-increasing, so components
    saturate from the tail.  With the first m components at the level,
    level = (D - sum q[m:]) / m must lie in [q[m], q[m-1]] (within 1e-15);
    the largest such m with q[m-1] > 0 is taken, since the trailing q = 0
    components take no share of D.  ``counts[k]``, 1 by default, is the
    number of components that share q[k]; the sums then weight q[k] by it.
    q is checked by ``_as_unit`` on [0, 1/2] and must be sorted, and counts
    must have its shape."""
    q, D = _as_unit(q, "q", hi=0.5), _real(D, "D")
    m = np.ones(q.size) if counts is None else counts
    if q.ndim != 1 or np.any(np.diff(q) > 1e-15):
        raise DomainError("q must be a 1-d array sorted non-increasing")
    if np.shape(m) != q.shape:
        raise DomainError(f"counts must have q's shape {q.shape}, got {np.shape(m)}")
    mq = m * q
    total = float(mq.sum())
    if not 0.0 <= D <= total + DOMAIN_TOL:  # NaN fails too
        raise DomainError(f"water filling needs 0 <= D <= sum q = {total}")
    if D >= total:
        return q.copy()
    suffix = np.cumsum(mq[::-1])[::-1]  # suffix[k] = sum of q over runs k, k+1, ...
    levels = (D - np.append(suffix[1:], 0.0)) / np.cumsum(m)
    low = np.append(q[1:], 0.0)
    fits = np.flatnonzero((low - 1e-15 <= levels) & (levels <= q + 1e-15) & (q > 0.0))
    if fits.size == 0:
        raise ConvergenceError("water level scan failed")  # pragma: no cover
    return np.minimum(max(0.0, levels[fits[-1]]), q)  # +0.0, not -0.0, at D = -0.0


def t_of_d(src, D: float) -> float:
    """Boundary of the perception-slack region: the smallest total
    perception compatible with the water-filled distortions,
    T(D) = sum_i d_i (1-2q_i)/(1-2d_i) with d_i = min(level, q_i).

    Defined for 0 <= D < sum q_i; T(0) = 0, T is strictly increasing when
    the q_i are below 1/2, and T(D) <= D always.
    """
    src, D = _as_source(src), _real(D, "D")
    total = _total(src.counts, src.run_q)
    if not 0.0 <= D < total:
        raise DomainError(f"T(D) needs 0 <= D < sum q = {total}")
    return _plane_boundary(src, D)[1]


def _s_curve(q: np.ndarray, m: np.ndarray, D: float) -> SCurvePoint:
    """S(D) over runs: q[k] stands for m[k] equal components, and k, d and
    p in the result index runs."""
    sum_q = _total(m, q)
    caps = 2.0 * q * (1.0 - q)
    D = max(float(D), sum_q)
    if D >= _total(m, caps):
        # zero plateau: p = 0 and the distortion spread proportionally to
        # the headroom 1 - cap_i, so every d_i >= cap_i and d_i <= 1.
        d_total = min(D, float(m.sum()))
        head = 1.0 - caps
        w = head / _total(m, head)  # each headroom is >= 1/2
        d = caps + (d_total - _total(m, caps)) * w
        return SCurvePoint(0.0, None, math.nan, d, np.zeros_like(d))
    prefix_caps = np.concatenate(([0.0], np.cumsum(m * caps)))
    suffix_q = np.concatenate((np.cumsum((m * q)[::-1])[::-1], [0.0]))  # sum of q over runs i, ...
    # the active segment k is the first whose right end reaches D; a run
    # of m equal components is one segment m times as long
    fits = np.flatnonzero(D <= prefix_caps[1:] + suffix_q[1:] + 1e-15)
    # none fits only where rounding puts the last right end below D < sum caps
    k = int(fits[0]) + 1 if fits.size else q.size
    d_k = (D - prefix_caps[k - 1] - suffix_q[k]) / m[k - 1]
    d_k = min(max(d_k, q[k - 1]), caps[k - 1])
    # a run at q = 1/2 is a segment of length 0, with p_k = 0
    p_k = (caps[k - 1] - d_k) / (1.0 - 2.0 * q[k - 1]) if d_k < caps[k - 1] else 0.0
    d = np.concatenate((caps[: k - 1], [d_k], q[k:]))
    p = np.concatenate((np.zeros(k - 1), [p_k], q[k:]))
    return SCurvePoint(_total(m, p), k, float(d_k), d, p)


def s_of_d(src, D: float) -> SCurvePoint:
    """Minimum total perception compatible with zero rate at distortion
    budget D >= sum q_i, with the explicit optimizers.

    On [sum q_i, sum 2q_i(1-q_i)] the curve is piecewise linear with one
    segment per component (slope -1/(1-2q_k), so convex and decreasing
    because q is sorted); beyond the last breakpoint S(D) = 0.
    """
    src, D = _as_source(src), _real(D, "D")
    q, m = src.run_q, src.counts
    sum_q = _total(m, q)
    if not D >= sum_q - DOMAIN_TOL:  # NaN fails too
        raise DomainError(f"S(D) needs D >= sum q = {sum_q}")
    point = _s_curve(q, m, D)
    k = None if point.k is None else int(src.counts[:point.k - 1].sum()) + 1
    return SCurvePoint(point.value, k, point.d_k, np.repeat(point.d, src.counts),
                       np.repeat(point.p, src.counts))


def _plane_boundary(src: BernoulliVectorSource, D: float):
    """The region boundary at a distortion budget D >= 0 with the allocation
    on it, per run: (A, T(D), d, p) when D < sum q, with the water fill d
    and p = rd_boundary(d, q), else (B, S(D), d, p) with the S(D)
    optimizers.  (D, P) is in that region if P >= the boundary, else in C."""
    q, m = src.run_q, src.counts
    if D < _total(m, q):
        d = water_fill(q, D, m)
        p = rd_boundary_arr(d, q)
        return PlaneRegion.A, _total(m, p), d, p
    point = _s_curve(q, m, D)
    return PlaneRegion.B, point.value, point.d, point.p


def _locate(src: BernoulliVectorSource, budget: BudgetPair, want: PlaneRegion | None = None):
    """The region of (D, P), with the side of sum q it lies on and that
    side's boundary and allocation: (region, side, bound, d, p).  Raises
    DomainError if ``want`` is given and the region is another.  A
    ``_LocatedBudget`` brings the tuple along, and the test is not repeated."""
    if isinstance(budget, _LocatedBudget):
        region, side, bound, d, p = budget.located
    else:
        side, bound, d, p = _plane_boundary(src, budget.D)
        region = side if budget.P >= bound else PlaneRegion.C
    if want is not None and region != want:
        raise DomainError(f"(D, P) is not in region {want.value}")
    return region, side, bound, d, p


def classify(src, budget) -> str:
    """Assign (D, P) to region A, B or C by ``_locate``'s test.  Boundary
    points belong to A or B (their inequalities are closed); C is the rest."""
    return _locate(_as_source(src), _as_budget(budget))[0]


# ---------------------------------------------------------------------------
# per-component stationarity system (region C)


def _x_of_alpha(alpha: float, p, q):
    """x = d - p on the alpha equation at p in [0, q]: the equation is a
    quadratic in x, whose positive root, in (0, 2(q - p)), is
        x = 4(1-q)(q-p) / (L + sqrt(L^2 + 4(1-q)(q-p) t)),  L = 1 + p t,
    with t = e^{2 alpha} - 1.  At p = 0 it is the p = 0 edge's distortion.
    No square of a distortion is formed, so x keeps its digits at
    subnormal-scale q and where it is a small part of d; it is stable as
    alpha -> 0 and goes to 0 as alpha -> inf, reached where e^{2 alpha}
    overflows.
    """
    w = 4.0 * (1.0 - q) * (q - p)
    try:
        t = math.expm1(2.0 * alpha)
    except OverflowError:
        t = math.inf
    if t == math.inf:
        return 0.0 * w
    lin = 1.0 + p * t
    return w / (lin + np.sqrt(lin * lin + w * t))


def _beta_gap(d, p, q):
    """Minus the perception-direction gradient of the ternary-branch rate.

    Positive strictly inside U, zero on the S/U frontier, and decreasing
    in p along any fixed-alpha contour.
    """
    # squares as products: numpy squares an array by x * x but a scalar by
    # pow(), which can round to the other neighbouring float
    num = np.maximum((q - p) * (q - p) * (d + p) * (2.0 * (1.0 - q) - (d - p)), _TINY)
    den = np.maximum((1.0 - q + p) * (1.0 - q + p) * (d - p) * (2.0 * q - (d + p)), _TINY)
    return -0.5 * np.log(num / den)


def _alpha_slope(x, p, q):
    """Partial derivative in d of the alpha gap at x = d - p, minus the
    distortion-direction gradient of the ternary-branch rate; negative
    inside U."""
    y = x + 2.0 * p
    return -0.5 * (1.0 / x + 1.0 / (2.0 * (1.0 - q) - x) + 1.0 / y + 1.0 / (2.0 * q - y))


def _bracketed_newton(f, x: float, lo: float, hi: float, xtol: float = 0.0) -> tuple[float, int]:
    """Root of a decreasing function by Newton steps inside a bracket
    [lo, hi] (ends possibly infinite), from ``x`` in it, with ``f(x)`` its
    value and slope at ``x``.  A positive value moves lo up to x, any other
    moves hi down.  The next iterate is the Newton point if strictly inside,
    else the midpoint; while the end the root lies towards is unevaluated,
    it is replaced by a cap 1, 2, 4, ... beyond the point, and the fallback
    is the cap (clipped to the end).  A zero or nan slope gives no Newton
    point.  Stops at a zero value or a step <= xtol.  Returns the root and
    the number of calls of ``f``."""
    lo_seen = hi_seen = False
    reach = 1.0
    for calls in range(1, MAX_ROOT_ITER + 1):
        fx, slope = f(x)
        if fx == 0.0:
            return x, calls
        up = fx > 0.0
        if up:
            lo, lo_seen = x, True
        else:
            hi, hi_seen = x, True
        unseen = not (hi_seen if up else lo_seen)
        cap = min(hi, max(lo, x + reach if up else x - reach))
        low, high = ((lo, cap) if up else (cap, hi)) if unseen else (lo, hi)
        newton = x - fx / slope if slope else math.nan
        if low < newton < high or newton == x:  # or lost to rounding
            nxt = newton
        elif unseen:
            nxt, reach = cap, 2.0 * reach
        else:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) <= xtol:
            return nxt, calls
        x = nxt
    raise ConvergenceError("bracketed Newton search did not converge")


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _component_dp(A: float, b: float, q: np.ndarray, m: np.ndarray, q0: float):
    """Per-component minimizer of R(d, p, q) + alpha d + beta p over
    d, p >= 0 at alpha > |beta|, vectorized over runs of m equal
    components, in the variables A = 1 / expm1(alpha - beta) and
    B = 1 / expm1(alpha + beta), with the derivatives of sum d.

    With x = d - p, y = d + p and u = q - p, dividing the beta equation of
    the U branch by its alpha equation gives u (2(1-q) - x) = (1 + 1/A)
    (1 - u) x, and multiplying them gives u y = B (1 - u) (2q - y) / (1 + B),
    so
        x = 2 (1-q) u A / (A + 1 - u),   y = 2 q B (1 - u) / (B + u),
    and the condition y - x = 2 p leaves one root in (0, 1), the line
        p = (1 - q) B - q A.
    A component's beta gap falls as p grows along its fixed-alpha contour,
    so a root at or below 0 puts it on its p = 0 edge, with d from
    ``_x_of_alpha`` at alpha and p = 0, and one at or above q at its (q, q)
    corner, stored as exactly (q, q).  alpha - beta = log1p(1/A) and
    alpha + beta = log1p(1/B).

    B enters as its excess b over A q0 / (1 - q0), the p = 0 threshold of
    a component at q0 (b = B at q0 = 0): p = (1 - q) b + A (q0 - q) / (1 - q0)
    then keeps its digits where A and B are large and a component's p is a
    small difference of them.

    Returns (d, p, grad), where grad is the derivative of sum d, the sum
    taken over components, with respect to (A, B).
    """
    B = A * q0 / (1.0 - q0) + b
    alpha = 0.5 * (math.log1p(1.0 / A) + math.log1p(1.0 / B))
    p = (1.0 - q) * b + A * (q0 - q) / (1.0 - q0)
    edge, inner = p <= 0.0, (p > 0.0) & (p < q)
    p = np.where(edge, 0.0, np.minimum(p, q))
    d = p.copy()
    # d alpha = -dA / (2 A (A + 1)) - dB / (2 B (B + 1))
    d[edge], d_alpha = _edge_d(alpha, q[edge], m[edge])
    grad = np.array([-d_alpha / (2.0 * A * (A + 1.0)), -d_alpha / (2.0 * B * (B + 1.0))])
    if np.any(inner):
        qi, mi, u = q[inner], m[inner], q[inner] - p[inner]
        ga, gb = A + 1.0 - u, B + u
        x = 2.0 * (1.0 - qi) * u * A / ga
        y = 2.0 * qi * B * (1.0 - u) / gb
        d[inner] = 0.5 * (x + y)
        # u moves by q dA - (1 - q) dB
        xy_u = 2.0 * (1.0 - qi) * A * (A + 1.0) / (ga * ga) - 2.0 * qi * B * (B + 1.0) / (gb * gb)
        grad += 0.5 * np.array([
            _total(mi, 2.0 * (1.0 - qi) * u * (1.0 - u) / (ga * ga) + xy_u * qi),
            _total(mi, 2.0 * qi * u * (1.0 - u) / (gb * gb) - xy_u * (1.0 - qi))])
    return d, p, grad


#: The least start of region C's search in log A: alpha - beta no smaller,
#: that is A no larger than 1 / expm1(_MULTIPLIER_MIN), about 1e12.
_MULTIPLIER_MIN = 1e-12
#: Steps of log A below this are lost to rounding.
_LOG_XTOL = 1e-14


def _log_resid(total: float, target: float) -> float:
    """log(total / target), -inf when the total vanishes; a residual of
    size r here means a budget residual of about r * target."""
    return math.log(total / target) if total > 0.0 else -math.inf


def _edge_d(alpha: float, q: np.ndarray, m: np.ndarray):
    """The p = 0 edge's distortion, ``_x_of_alpha`` at p = 0, per run of m
    equal components, and the derivative in alpha of its sum over
    components."""
    d = _x_of_alpha(alpha, 0.0, q)
    if not d.any():  # every d is 0 before e^alpha overflows
        return d, 0.0
    # d = 4w / (1 + r) with r = sqrt(1 + 4w expm1(2 alpha)), so
    # dd/dalpha = -e^{2 alpha} d^2 / r = -(d e^alpha)^2 d / (4w - d); d e^alpha
    # keeps its digits where d^3 underflows
    de = d * math.exp(alpha)
    return d, -_total(m, de * de * (d / (4.0 * q * (1.0 - q) - d)))


def _s_shaped(q: np.ndarray, m: np.ndarray, D: float, P: float) -> tuple[float, float, int]:
    """The multipliers of the allocation shaped like the S(D) optimizers:
    with k the first run whose sum of q after it is at most P, runs before
    k on their p = 0 edge at alpha, those after k at their (q, q) corner,
    and the m_k components of run k in U with equal shares of the rest of
    both budgets.  At P = 0 this is the P = 0 allocation: k is the last
    run and p_k = 0.

    alpha is the root of the distortion budget, with run k on its alpha
    equation at p_k: the edge distortions and run k's x = d_k - p_k
    (``_x_of_alpha``, slope 1 / A_d) sum to D - P, and their sum falls
    strictly in alpha.  Each term is at most 2 sqrt(q(1-q) / expm1(2 alpha)),
    so the sum is at most D - P at alpha_hi below (in log form, finite down
    to the smallest D - P), which closes the bracket [0, alpha_hi].  The
    search starts where n equal components on their edge, with the same
    sum of sqrt(q(1-q)) as the runs up to k, take all of D, which is the
    root itself at P = 0 for a homogeneous source, and stops where the log
    residual is within 1e-15.  There is no root with run k at its corner or
    where P >= D, which above sum q happens only within rounding of the
    corner D = S(D) = sum q: no search runs there, and every result is 0.
    beta is run k's beta gap with d_k taken from the budget, or 0 where not
    positive or run k is outside U.  Returns (alpha, beta, calls of the
    search); a search that does not converge raises ConvergenceError."""
    tail = np.append(np.cumsum((m * q)[::-1])[::-1][1:], 0.0)  # sum of q after each run
    k = int(np.flatnonzero(tail <= P)[0])
    edge, m_edge, qk, mk = q[:k], m[:k], float(q[k]), m[k]
    pk = (P - tail[k]) / mk
    if not (pk < qk and P < D):
        return 0.0, 0.0, 0
    free, n = D - P, int(m[:k + 1].sum())
    root_w = _total(m[:k + 1], np.sqrt(q[:k + 1] * (1.0 - q[:k + 1])))
    alpha_hi = (math.log(2.0 * root_w) - math.log(free)
                + 0.5 * math.log1p((free / (2.0 * root_w)) ** 2))
    w_eq = (root_w / n) ** 2
    s = max(4.0 * w_eq * n / D, 2.0)  # 1 + sqrt(1 + 4 w expm1(2 alpha))
    alpha0 = min(0.5 * math.log1p(s * (s - 2.0) / (4.0 * w_eq)), alpha_hi)

    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def f(alpha):
        d, slope = _edge_d(alpha, edge, m_edge)
        xk = _x_of_alpha(alpha, pk, qk)
        total = _total(m_edge, d) + mk * xk
        # to float64 resolution: at P = 0 this defines R(D, 0), the upper end
        # of every region-C rate at this D
        resid = _log_resid(total, free)
        return (0.0 if abs(resid) <= 1e-15 else resid,
                (slope + mk / _alpha_slope(xk, pk, qk)) / total)

    alpha, calls = _bracketed_newton(f, alpha0, 0.0, alpha_hi)
    dk = (D - tail[k] - _total(m_edge, _x_of_alpha(alpha, 0.0, edge))) / mk
    beta = max(0.0, float(_beta_gap(dk, pk, qk))) if pk < dk < 2.0 * qk - pk else 0.0
    return float(alpha), beta, calls


def _perception_piece(q: np.ndarray, m: np.ndarray, P: float):
    """The perception budget met exactly at each A, for runs of m equal
    components: returns piece(A) -> (e, c, b), where B = A r_e + b is the
    least B with sum p = P in ``_component_dp``'s variables, r = q / (1-q).

    At fixed A a run's p = (1-q) B - q A clipped to [0, q] rises in B, from
    its p = 0 edge at B = A r to its corner at B = (A + 1) r, so sum p is
    piecewise linear and non-decreasing in B, with the runs at their edge
    first and those at their corner last, in q order.  On the piece just
    left of the least root, runs [e, c) are between edge and corner, and b
    has a closed form, each p written relative to run e's (``_component_dp``'s
    q0) so that it keeps its digits at large A.  Both ends are counted by
    bisection on prefix sums, which are exact to rounding only at moderate
    A, and the piece is then walked, one edge or corner crossing at a time,
    until the runs' own p put B on it; a crossing that rounding reverses
    ends the walk.  On a flat piece, where P is the sum q of the runs at
    their corner, the least root is its left end.  P must be > 0: at P = 0
    the walk does not return, and ``rdp`` takes no search in log A there.
    """
    k = q.size
    r = q / (1.0 - q)
    neg_r = -r  # ascending
    wsum = np.concatenate(([0.0], np.cumsum(m * (1.0 - q))))
    qsum = np.concatenate(([0.0], np.cumsum(m * q)))
    tail = np.append(np.cumsum((m * q)[::-1])[::-1], 0.0)  # sum over runs j, j + 1, ...
    P = min(P, float(tail[0]))  # a P within rounding of sum q can exceed this sum of it

    def sum_p(A: float, B: float) -> float:  # from the prefix sums
        e, c = bisect.bisect_right(neg_r, -B / A), bisect.bisect_left(neg_r, -B / (A + 1.0))
        return B * (wsum[c] - wsum[e]) - A * (qsum[c] - qsum[e]) + qsum[k] - qsum[c]

    def count(A: float, scale: float) -> int:  # runs t with sum_p at scale r_t >= P
        lo, hi = 0, k
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if sum_p(A, scale * r[mid]) >= P else (lo, mid)
        return lo

    def piece(A: float):
        c, went, last = count(A, A + 1.0), 0, None
        e = min(count(A, A), c)
        while True:
            if c > e:
                qe, at = q[e], lambda t: A * (qe - q[t]) / (1.0 - qe) + (1.0 - q[t]) * b
                base = A * (qe - q[e:c]) / (1.0 - qe)  # p at b = 0
                b = (P - tail[c] - _total(m[e:c], base)) / _total(m[e:c], 1.0 - q[e:c])
                # run c - 1's excess over its corner, from the budget as on a flat piece
                over = P - tail[c - 1] - _total(m[e:c - 1], base[:-1] + (1.0 - q[e:c - 1]) * b)
                left = b <= 0.0 or (c < k and at(c) <= q[c])
                move = -1 if left else 1 if (e > 0 and at(e - 1) > 0.0) or over > 0.0 else 0
                if move == 0 or move == -went:
                    return e, c, b
                last = e, c, b
            else:  # a flat piece, at tail[c]
                move = -1 if tail[c] >= P else 1
                if move == -went:
                    return last
            went = move
            if move < 0:  # across the larger of run e's edge and run c's corner
                if c < k and (c == e or A * (q[e] - q[c]) / (1.0 - q[e]) < q[c]):
                    c += 1
                else:
                    e += 1
            elif e > 0 and (c == e or A * (q[e - 1] - q[c - 1]) / (1.0 - q[e - 1]) < q[c - 1]):
                e -= 1
            else:
                c -= 1

    return piece


def _c_search(q: np.ndarray, m: np.ndarray, D: float, P: float, tol_d: float, x0: float):
    """Region C's multipliers for runs of m equal components, by one
    monotone search in x = log A from x0, in ``_component_dp``'s variables,
    each evaluation meeting P exactly (``_perception_piece``).  Along that
    B(A), sum d rises in A, from P (A -> 0, where alpha -> inf) to the caps
    of the runs on their edge, and ``_bracketed_newton`` finds D, with the
    slope of sum d from the kernel's derivatives and dB/dA = sum m q /
    sum m (1-q) over the runs between edge and corner.  Ends within 1/100 of
    tol_d or at a step of x below _LOG_XTOL.  Returns (alpha, beta, d, p,
    evaluations); raises ConvergenceError if the last point misses D by more
    than tol_d.
    """
    piece, point = _perception_piece(q, m, P), None

    def f(x: float):
        nonlocal point
        A = math.exp(x)
        e, c, b = piece(A)
        d, p, grad = _component_dp(A, b, q, m, q[e])
        point = (A, A * q[e] / (1.0 - q[e]) + b, d, p)
        total = _total(m, d)
        if abs(total - D) <= 0.01 * tol_d:
            return 0.0, math.nan
        slope = grad[0] + grad[1] * _total(m[e:c], q[e:c]) / _total(m[e:c], 1.0 - q[e:c])
        return -_log_resid(total, D), -A * slope / total

    calls = _bracketed_newton(f, x0, -math.inf, math.inf, xtol=_LOG_XTOL)[1]
    A, B, d, p = point
    if abs(_total(m, d) - D) > tol_d:
        raise ConvergenceError("no multipliers meet both budgets")
    u, v = math.log1p(1.0 / A), math.log1p(1.0 / B)
    return 0.5 * (u + v), max(0.0, 0.5 * (v - u)), d, p, calls


# ---------------------------------------------------------------------------
# assembling results


def _result(region, d, p, q, counts, nu, mu, lam, labels, iters, budget, notes=()) -> RdpResult:
    """Assemble a result from per-run values (run k holds counts[k]
    components with q[k]).  Every per-component array repeats its run's
    entry, and the rate and residuals are sums over those components.  The
    per-run arrays must be the caller's own: with one component per run
    they are kept as they are."""
    rates = scalar_rdp_arr(d, p, q)
    lam, labels = np.asarray(lam, dtype=float), np.asarray(labels, dtype=np.int8)
    if counts.size != counts.sum():
        d, p, rates, lam, labels = (np.repeat(v, counts) for v in (d, p, rates, lam, labels))
    res_d = abs(float(d.sum()) - budget.D)
    res_p = 0.0 if math.isinf(budget.P) else abs(float(p.sum()) - budget.P)
    alloc = Allocation(d=d, p=p, per_component_rate=rates, total_rate=float(rates.sum()))
    cert = KktCertificate(nu=float(nu), mu=float(mu), lam=lam, component_regions=labels)
    return RdpResult(rate=alloc.total_rate, region=region, allocation=alloc,
                     certificate=cert, multiplier_iterations=int(iters),
                     residuals=(res_d, res_p), notes=tuple(notes))


def _spread_perception(lower: np.ndarray, m: np.ndarray, P: float) -> np.ndarray:
    """Deterministic slack rule: meet sum p = P with p >= lower by scaling
    proportionally to the lower bounds (uniformly when they vanish, or when
    they are so small, at a subnormal D, that P / total overflows)."""
    total = _total(m, lower)
    if math.isinf(P):
        return lower.copy()
    if total <= 0.0 or P / total == math.inf:
        return np.full(lower.size, P / int(m.sum()))
    return lower * (P / total)


# ---------------------------------------------------------------------------
# region solvers


def _ab_labels(d: np.ndarray, q: np.ndarray, off_corner: np.int8) -> np.ndarray:
    """Labels in regions A and B: V on the corner d = q, p >= q (not at
    q = 1/2, which has p = 0 there), else ``off_corner`` (S in A, T in B)
    where d > 0.  The water fill of A has d <= q and the S(D) optimizers of
    B have d >= q, so d == q is A's d >= q and B's d <= q."""
    return np.where((q > 0.0) & (q < 0.5) & (d == q), _V, np.where(d > 0.0, off_corner, _EXT))


def solve_region_a(src, budget) -> RdpResult:
    """Perception-slack region: water-fill the distortion, pick any
    perception split above the per-component frontier; the rate is the
    classic rate-distortion value sum_i [h2(q_i) - h2(d_i)].  Raises
    DomainError unless ``classify`` puts (D, P) in A."""
    src, budget = _as_source(src), _as_budget(budget)
    q, m = src.run_q, src.counts
    _, _, _, d, lower = _locate(src, budget, PlaneRegion.A)
    notes = ("P=inf: perception left at its lower bounds",) if math.isinf(budget.P) else ()
    p = _spread_perception(lower, m, budget.P)
    level = float(d.max())
    nu = math.log((1.0 - level) / level) if level > 0.0 else math.inf  # D = 0 or underflows
    return _result(PlaneRegion.A, d, p, q, src.counts, nu, 0.0, np.zeros_like(q),
                   _ab_labels(d, q, _S), 0, budget, notes)


def solve_region_b(src, budget) -> RdpResult:
    """Zero-rate region: start from the minimum-perception optimizers of
    the S(D) curve and spread the perception slack uniformly.  Raises
    DomainError unless ``classify`` puts (D, P) in B."""
    src, budget = _as_source(src), _as_budget(budget)
    q = src.run_q
    _, _, bound, d, p = _locate(src, budget, PlaneRegion.B)
    notes = ()
    if budget.D > src.n:
        notes = notes + (f"D={budget.D:g} exceeds n={src.n}; distortion saturates at n",)
    if math.isinf(budget.P):
        notes = notes + ("P=inf: perception left at the S(D) optimizers",)
    else:
        p = p + (budget.P - bound) / src.n
    return _result(PlaneRegion.B, d, p, q, src.counts, 0.0, 0.0, np.zeros_like(q),
                   _ab_labels(d, q, _T), 0, budget, notes)


def _c_labels(d: np.ndarray, q: np.ndarray) -> np.ndarray:
    return np.where((q > 0.0) & (d > 0.0), _U, _EXT)


def _check_rtol(budget_rtol: float) -> None:
    if not 0.0 < _real(budget_rtol, "budget tolerance") < math.inf:  # nan fails too
        raise DomainError(f"budget tolerance must be finite and > 0; got {budget_rtol!r}")


def solve_region_c(src, budget, budget_rtol: float = BUDGET_RTOL) -> RdpResult:
    """Both budgets bind: tune the shared multipliers (alpha, beta) so the
    per-component stationarity solutions meet the budgets with equality.
    ``multiplier_iterations`` counts the evaluations of the search in log A
    (one kernel call each), or within tol_p of P = 0 those of
    ``_s_shaped``'s alpha search at P = 0; the calls of the same search for
    the start above sum q are not counted.  Raises DomainError unless
    ``classify`` puts (D, P) in C."""
    _check_rtol(budget_rtol)
    src, budget = _as_source(src), _as_budget(budget)
    q_all, m_all = src.run_q, src.counts
    D, P = budget.D, budget.P
    _, side, _, fill, _ = _locate(src, budget, PlaneRegion.C)

    # q = 0 components take no budget; sorted last, they form the last run,
    # which is solved without and appended as a (d, p) = (0, 0) row
    k = q_all.size - int(q_all[-1] == 0.0)
    q, m = q_all[:k], m_all[:k]

    tol_d = budget_rtol * max(1.0, D)
    tol_p = budget_rtol * max(1.0, P)

    # the P = 0 allocation meets a P within tol_p of 0, where the search in
    # log A would stop within tol_d / 100 of R(D, 0); every other budget is
    # searched
    if P <= tol_p:
        alpha, _, iters = _s_shaped(q, m, D, 0.0)
        d = _x_of_alpha(alpha, 0.0, q)
        p = np.zeros_like(d)
        gaps = _beta_gap(d, p, q)
        beta = max(0.0, float(np.max(gaps)))  # +0.0, not the gaps' -0.0 where every d is 0
    else:
        if side == PlaneRegion.A:
            # at T(D) A = B = level / (1 - 2 level), where alpha is the water
            # level's multiplier and beta = 0 (the level rounds to 1/2 next to
            # sum q when a q is 1/2)
            start = math.log((1.0 - fill.max()) / fill.max())
        else:
            alpha, beta, _ = _s_shaped(q, m, D, P)
            start = alpha - beta
        x0 = -math.log(math.expm1(max(start, _MULTIPLIER_MIN)))
        alpha, beta, d, p, iters = _c_search(q, m, D, P, tol_d, x0)
        gaps = _beta_gap(d, p, q)
    lam = np.where(p > 0.0, 0.0, np.maximum(beta - gaps, 0.0))

    if k < q_all.size:
        d, p, lam = (np.append(v, 0.0) for v in (d, p, lam))
    return _result(PlaneRegion.C, d, p, q_all, src.counts, alpha, beta, lam,
                   _c_labels(d, q_all), iters, budget)


# ---------------------------------------------------------------------------
# top-level entry points


def rdp(src, budget, budget_rtol: float = BUDGET_RTOL) -> RdpResult:
    """RDP function of a Bernoulli vector source at budgets (D, P).

    Dispatches on the plane region and returns the rate in nats together
    with the optimal allocation and its KKT certificate.  The post-solve
    consistency checks (budget equality, certificate structure) always
    run, and raise ConvergenceError if they fail.  ``budget_rtol`` must be
    finite and > 0."""
    _check_rtol(budget_rtol)
    src, budget = _as_source(src), _as_budget(budget)
    located = _locate(src, budget)
    solving = _LocatedBudget(budget.D, budget.P, located)
    if located[0] == PlaneRegion.A:
        result = solve_region_a(src, solving)
    elif located[0] == PlaneRegion.B:
        result = solve_region_b(src, solving)
    else:
        result = solve_region_c(src, solving, budget_rtol)
    _check_result(budget, result, budget_rtol)
    return result


_LN2 = math.log(2.0)


def length_bounds(rate_nats: float) -> tuple[float, float]:
    """One-shot prefix-code length sandwich for a rate given in nats:
    lower bound R_b = rate/ln 2 bits, upper bound R_b + log2(R_b + 1) + 5."""
    rate_nats = _real(rate_nats, "rate")
    if not math.isfinite(rate_nats) or rate_nats < 0.0:
        raise DomainError("rate must be finite and >= 0")
    rb = rate_nats / _LN2
    return rb, rb + math.log2(rb + 1.0) + 5.0


# ---------------------------------------------------------------------------
# post-solve consistency checks


_FAMILIES = (
    {ScalarRegion.S, ScalarRegion.V},
    {ScalarRegion.T, ScalarRegion.V},
    {ScalarRegion.U},
)


def check_certificate(result: RdpResult) -> None:
    """Structural KKT certificate checks on an ``RdpResult``.

    Raises ConvergenceError unless lam >= 0, complementary
    slackness lam_i p_i = 0 holds within 1e-5, every label code names a
    ScalarRegion, and the component labels form one consistent family (all
    S/V, all T/V, or all U), ignoring degenerate EXTERIOR components.
    """
    if not isinstance(result, RdpResult):
        raise DomainError(f"result must be an RdpResult, got {result!r:.80}")
    cert = result.certificate
    if np.any(cert.lam < -1e-12):
        raise ConvergenceError("negative perception multiplier in certificate")
    slack = np.abs(cert.lam * result.allocation.p)
    if np.any(slack > 1e-5):
        raise ConvergenceError(f"complementary slackness violated: {slack.max():g}")
    codes = cert.component_regions
    if codes.size and (codes.min() < 0 or codes.max() >= len(_REGIONS)):
        raise ConvergenceError(f"unknown component region codes in {np.unique(codes).tolist()}")
    # the labels repeat one code per run; count them rather than sort them
    labels = {_REGIONS[c] for c in np.flatnonzero(np.bincount(codes))} - {ScalarRegion.EXTERIOR}
    if labels and not any(labels <= fam for fam in _FAMILIES):
        raise ConvergenceError(f"component regions {labels} mix incompatible families")


def _check_result(budget: BudgetPair, result: RdpResult, rtol: float) -> None:
    res_d, res_p = result.residuals
    n = result.allocation.d.size
    allowed_d = max(0.0, budget.D - n)  # distortion saturates at n
    if res_d > allowed_d + rtol * max(1.0, min(budget.D, n)) + 1e-15:
        raise ConvergenceError(f"distortion budget residual {res_d:g} above tolerance")
    if res_p > rtol * max(1.0, budget.P) + 1e-15:
        raise ConvergenceError(f"perception budget residual {res_p:g} above tolerance")
    check_certificate(result)
