"""Closed-form RDP solver for Bernoulli vector sources.

Given component success probabilities q_1 >= ... >= q_n (each in [0, 1/2]
after normalization) and budgets (D, P) for total Hamming distortion and
total marginal-probability gap, the optimal rate decomposes into scalar
rates sum_i R(d_i, p_i, q_i) under sum d_i = D, sum p_i = P.  The (D, P)
plane splits into three regions:

  A: perception slack.  Reverse water-filling sets d_i = min(level, q_i)
     and the rate is the classic rate-distortion value.
  B: zero rate.  A reconstruction independent of the source is feasible.
  C: both budgets bind.  Each component solves a two-multiplier
     stationarity system inside its U region.  At given multipliers its
     root is closed-form: the root of a cubic in q - p whose other two
     roots are known (``_component_dp``).  Where that root falls outside
     (0, q), the component takes its p = 0 edge if it fell at or below 0
     and its (q, q) corner otherwise.  The shared multipliers
     (alpha, beta) meet the budgets by 2-D Newton steps on the sensitivity
     of (sum d, sum p), summed from the inverse Hessians of R, and after
     the first singular or failed step by two nested monotone searches.
     These rest on monotonicity of the gradient map of a convex function:
     a component's beta gap falls as p grows along its fixed-alpha contour,
     sum d falls as alpha grows at fixed beta, and sum p falls as beta
     grows along sum d = D.  Where a component's minimizer jumps, the
     distortion budget is met by a convex blend of the allocations on both
     sides of the jump.
     Above sum q the allocation shaped like the S(D) optimizers
     (``_s_side``) serves budgets within the perception tolerance of S(D),
     and elsewhere gives the search its start and, if certified, its answer.
     Its one multiplier alpha is the root of the distortion budget, which
     falls in alpha, found by the same 1-D Newton search as the P = 0
     multiplier (``_p_zero_alpha``).

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

#: Within this distance (relative to q) of the (q, q) corner, d - p and
#: 2q - d - p keep too few digits to resolve the stationarity system or its
#: slopes; a component whose perception root lies there takes the corner.
_CORNER_RTOL = 1e-8


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
    if fits.size == 0:
        raise ConvergenceError("S(D) segment scan failed")  # pragma: no cover
    k = int(fits[0]) + 1
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


def _d_p_zero(alpha: float, q: np.ndarray) -> np.ndarray:
    """Distortion solving the stationarity condition at p = 0:
    d = (sqrt(1 + 4q(1-q)(e^{2a}-1)) - 1) / (e^{2a}-1), written so it is
    stable as alpha -> 0 (value -> 2q(1-q)) and alpha -> inf (value -> 0,
    reached where e^{2a} overflows).
    """
    try:
        t = math.expm1(2.0 * alpha)
    except OverflowError:
        t = math.inf
    return 4.0 * q * (1.0 - q) / (1.0 + np.sqrt(1.0 + 4.0 * q * (1.0 - q) * t))


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


def _d_of_alpha(alpha: float, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Eliminate d through the alpha equation at given p: the equation is
    a quadratic in d whose positive root always lies in (p, 2q - p)."""
    s = math.exp(-2.0 * alpha)
    c = p * p + s * (2.0 - 2.0 * q + p) * (2.0 * q - p)
    return c / (s + np.sqrt(s * s + (1.0 - s) * c))


def _gap_slopes(d, p, q):
    """Partial derivatives (A_d, A_p, B_p) of the alpha gap A and the beta
    gap B in (d, p); B_d = A_p because both gaps are minus the gradient of
    the same rate.  [[A_d, A_p], [A_p, B_p]] is minus the Hessian of R, so
    it is negative definite inside U."""
    x, y = d - p, d + p
    xu = 1.0 / x + 1.0 / (2.0 * (1.0 - q) - x)
    yv = 1.0 / y + 1.0 / (2.0 * q - y)
    a_d = -0.5 * (xu + yv)
    return a_d, 0.5 * (xu - yv), a_d + 1.0 / (q - p) + 1.0 / (1.0 - q + p)


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
def _component_dp(alpha: float, beta: float, q: np.ndarray, m: np.ndarray):
    """Per-component minimizer of R(d, p, q) + alpha d + beta p over
    d, p >= 0, vectorized over runs of m equal components, with the
    sensitivity of the totals.

    Returns (d, p, jac), where jac[i, j] is the derivative of
    (sum d, sum p)[i] with respect to (alpha, beta)[j], the sums taken
    over components.

    At p = 0 the stationarity condition has the closed form
    ``_d_p_zero``; a component stays on that edge when its beta gap there
    is already at or below beta.  Otherwise its beta gap falls as p grows
    along the fixed-alpha contour, so the stationarity system has at most
    one root p in (0, q), and that root has a closed form.  With
    x = d - p, y = d + p, u = q - p, a = e^(alpha - beta) and
    b = e^(-alpha - beta), dividing the beta equation by the alpha
    equation gives u (2(1-q) - x) = a (1 - u) x, and multiplying them
    gives u y = b (1 - u) (2q - y), so
        x = 2(1-q) u / (u + a (1-u)),   y = 2q b (1-u) / (u + b (1-u)).
    With e1 = expm1(alpha - beta), e2 = expm1(-alpha - beta) and
    c0 = e1 (1-q) + q e2 + e1 e2, the condition y - x = 2(q - u) has the
    factors u (the (q, q) corner), u - 1 (beyond q <= 1/2) and
    e1 e2 u - c0, so the root is u = c0 / (e1 e2), that is
        p = -((1-q) b e1 + q e2) / (e1 e2),
    written so that it keeps its relative accuracy as p -> 0.  d then
    solves the alpha equation at that p (``_d_of_alpha``).

    A root p in (0, q (1 - _CORNER_RTOL)) is taken.  An active
    component's beta gap exceeds beta at p = 0 and falls along the
    contour, so its root lies in (0, q]: a computed root at or below 0
    (-inf where alpha = beta) is rounding of a root at p -> 0+ and becomes
    p = 0, and one at or above q (1 - _CORNER_RTOL) puts the component at
    its corner.  The corner (q, q) is the subdifferential solution, stored
    as p = q (1 - 1e-15) with d from the alpha equation.

    The sensitivities are the inverse of [[A_d, A_p], [B_d, B_p]] for
    interior components and for active ones put at p = 0, d/dalpha of
    ``_d_p_zero`` (and nothing in beta) on the p = 0 edge, and zero at the
    corner.
    """
    d = _d_p_zero(alpha, q)
    p = np.zeros_like(q)
    jac = np.zeros((2, 2))
    active = _beta_gap(d, p, q) > beta
    every = bool(active.all())  # then no edge run, and views in place of gathers
    if not every:
        edge_a_d = _gap_slopes(d[~active], 0.0, q[~active])[0]
        jac[0, 0] = float(np.sum(m[~active] / edge_a_d))
    if every or np.any(active):
        sel = slice(None) if every else active
        qa, ma = q[sel], m[sel]
        e1, e2 = math.expm1(alpha - beta), math.expm1(-alpha - beta)
        pa = -((1.0 - qa) * math.exp(-alpha - beta) * e1 + qa * e2) / (e1 * e2)
        edge = qa * (1.0 - _CORNER_RTOL)
        pa = np.where(pa >= edge, qa * (1.0 - 1e-15), np.where(pa <= 0.0, 0.0, pa))
        inner = pa < edge
        da = _d_of_alpha(alpha, pa, qa)
        p[sel] = pa
        d[sel] = da
        a_d, a_p, b_p = _gap_slopes(da, pa, qa)
        det = a_d * b_p - a_p * a_p
        # rounding near the corner can leave the computed Hessian indefinite
        inner &= (a_d < 0.0) & (det > 0.0)
        sens = (np.array([b_p, -a_p, a_d])[:, inner] / det[inner] * ma[inner]).sum(axis=1)
        jac += np.array([[sens[0], sens[1]], [sens[1], sens[2]]])
    return d, p, jac


#: Lower bracket end of both multiplier searches: smaller multipliers are
#: not resolvable in float64.  The budgets that would need them are met
#: within tolerance by larger ones, except within the perception tolerance
#: of S(D), which ``_s_side`` serves.  Its search for the root of the
#: distortion budget starts here, and takes alpha = 0 where the budget's
#: residual here is not positive.
_MULTIPLIER_MIN = 1e-12
_LOG_MIN = math.log(_MULTIPLIER_MIN)
#: Steps of log alpha and log beta below this are lost to rounding.
_LOG_XTOL = 1e-14


def _log_resid(total: float, target: float) -> float:
    """log(total / target), -inf when the total vanishes; a residual of
    size r here means a budget residual of about r * target."""
    return math.log(total / target) if total > 0.0 else -math.inf


def _edge_sums(alpha: float, q: np.ndarray, m: np.ndarray):
    """Sum over components of the p = 0 edge's distortion ``_d_p_zero`` at
    alpha, and its derivative in alpha."""
    d = _d_p_zero(alpha, q)
    # d = 4w / (1 + r) with r = sqrt(1 + 4w expm1(2 alpha)), so
    # dd/dalpha = -e^{2 alpha} d^2 / r = -e^{2 alpha} d^3 / (4w - d); the
    # cubes vanish before e^{2 alpha} overflows
    cubes = _total(m, d ** 3 / (4.0 * q * (1.0 - q) - d))
    return _total(m, d), -math.exp(2.0 * alpha) * cubes if cubes else 0.0


def _p_zero_alpha(q: np.ndarray, m: np.ndarray, D: float) -> tuple[float, int]:
    """The single multiplier of the P = 0 problem: sum _d_p_zero(alpha) = D,
    strictly decreasing from sum 2q(1-q) > D at alpha = 0.  Since
    _d_p_zero <= 2 sqrt(q(1-q) / expm1(2 alpha)), the sum is at most D at
    alpha_hi below (in log form, finite down to the smallest D), which
    closes the bracket; where e^{2 alpha} overflows, every d is 0.  The
    search starts at the exact root for n equal components with the same
    sum of sqrt(q(1-q)), which is the root itself for a homogeneous source."""
    w = q * (1.0 - q)
    n = int(m.sum())
    root_w = _total(m, np.sqrt(w))
    alpha_hi = (math.log(2.0 * root_w) - math.log(D)
                + 0.5 * math.log1p((D / (2.0 * root_w)) ** 2))
    w_eq = (root_w / n) ** 2
    s = max(4.0 * w_eq * n / D, 2.0)  # 1 + sqrt(1 + 4 w expm1(2 alpha))
    alpha0 = min(0.5 * math.log1p(s * (s - 2.0) / (4.0 * w_eq)), alpha_hi)

    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def f(alpha):
        total, slope = _edge_sums(alpha, q, m)
        if total == 0.0:
            return -math.inf, math.nan
        # to float64 resolution: this path defines R(D, 0), the upper end of
        # every region-C rate at this D
        resid = _log_resid(total, D)
        return 0.0 if abs(resid) <= 1e-15 else resid, slope / total

    return _bracketed_newton(f, alpha0, 0.0, alpha_hi)


def _blend(above, below, m: np.ndarray, D: float, gap_tol: float):
    """Convex combination of two kernel points (alpha, beta, d, p) whose sum
    of d lies above and below D, weighted to meet it, or None if it may be
    too far from optimal.

    Each point i minimizes the Lagrangian at its own multipliers m_i and
    meets the budget totals s_i = (sum d, sum p).  So at the totals s the
    blend meets, the optimal rate is at least R_i + m_i.(s_i - s) for both,
    and, R being convex, the blend's rate exceeds that bound by at most
    w (1 - w) |(m_1 - m_2).(s_1 - s_2)| for weight w.  The blend is kept
    when this gap is at most gap_tol, and carries the multipliers of the
    heavier point, whose bound is within twice the gap.  On the two sides
    of a jump of the minimizer the multipliers are adjacent floats.  The
    points' d and p are per run of m equal components."""
    s_hi, s_lo = ((_total(m, pt[2]), _total(m, pt[3])) for pt in (above, below))
    w = (s_hi[0] - D) / (s_hi[0] - s_lo[0])
    gap = w * (1.0 - w) * abs(sum((above[j] - below[j]) * (s_hi[j] - s_lo[j])
                                  for j in (0, 1)))
    if gap > gap_tol:
        return None
    heavy = below if w > 0.5 else above
    return (heavy[0], heavy[1], (1.0 - w) * above[2] + w * below[2],
            (1.0 - w) * above[3] + w * below[3])


def _s_side(q: np.ndarray, m: np.ndarray, D: float, P: float):
    """The allocation below S(D) shaped like the S(D) optimizers: runs
    before some k on their p = 0 edge at alpha, those after k at their
    (q, q) corner, the m_k components of run k in U with equal shares of
    the rest of both budgets (P fixes k), which are so met by construction.
    alpha is the root of the distortion budget with run k on its alpha
    equation at p_k (``_d_of_alpha``, slope 1 / A_d): the sum falls
    strictly in alpha, and ``_p_zero_alpha``'s search finds it, from
    _MULTIPLIER_MIN up to a step of 1e-16.  Where the residual at that
    first call is not positive, alpha is 0 (edge runs at their caps
    2q(1-q), as at S(D)).  d_k is then taken from the budget.  beta is run
    k's beta gap, or 0 where not positive or run k is outside U.  Returns
    (alpha, beta, d, p, calls of the alpha search); an alpha search that
    does not converge raises ConvergenceError."""
    tail = np.append(np.cumsum((m * q)[::-1])[::-1][1:], 0.0)  # sum of q after each run
    k = int(np.flatnonzero(tail < P)[0])
    edge, m_edge, qk, mk = q[:k], m[:k], float(q[k]), m[k]
    pk = (P - tail[k]) / mk

    @np.errstate(divide="ignore", invalid="ignore", over="ignore")
    def f(alpha):
        total, slope = _edge_sums(alpha, edge, m_edge)
        dk = _d_of_alpha(alpha, pk, qk)
        total += mk * dk
        return _log_resid(total, D - tail[k]), (slope + mk / _gap_slopes(dk, pk, qk)[0]) / total

    alpha, calls = 0.0, 0
    if pk < qk:
        alpha, calls = _bracketed_newton(f, _MULTIPLIER_MIN, _MULTIPLIER_MIN, math.inf,
                                         xtol=1e-16)
        alpha = float(alpha) if alpha > _MULTIPLIER_MIN else 0.0  # no root above _MULTIPLIER_MIN
    de = _d_p_zero(alpha, edge)
    dk = (D - tail[k] - _total(m_edge, de)) / mk
    beta = max(0.0, float(_beta_gap(dk, pk, qk))) if pk < dk < 2.0 * qk - pk else 0.0
    return (alpha, beta, np.concatenate((de, [dk], q[k + 1:])),
            np.concatenate((np.zeros(k), [pk], q[k + 1:])), calls)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")  # inf and nan steps are tested for
def _solve_c_multipliers(q: np.ndarray, m: np.ndarray, D: float, P: float, tol_d: float,
                         tol_p: float, start: tuple):
    """Find alpha, beta > 0 with sum d = D and sum p = P from the start
    multipliers, for runs of m equal components.  ``start`` is (alpha, beta)
    or an ``_s_side`` tuple, whose allocation is the candidate below.

    While the 2x2 sensitivity jac is invertible (J00 < 0 and Schur
    complement J11 - J01^2 / J00 < 0) the step is Newton's on the budget
    residuals, one per iteration, each multiplier moving at most e^2-fold.
    From the first step that is singular (near S(D) no component may be in
    U, and one at its (q, q) corner or p = 0 edge does not move with beta),
    takes a multiplier to _MULTIPLIER_MIN or below, or does not lower the
    larger scaled residual, two nested ``_bracketed_newton`` levels go on
    from the last point the steps kept, which is not evaluated again: the
    outer on log(sum p / P) in log beta in [log _MULTIPLIER_MIN, inf) along
    sum d = D, where sum p falls in beta, with the Schur complement as
    slope, and at each beta the inner on log(sum d / D), which falls in
    alpha, in log alpha in [log _MULTIPLIER_MIN, inf) with slope J00, from
    the previous alpha.  The outer level ends within 1/100 of tol_p; the
    inner within 1/100 of tol_d, or once its latest points on the two sides
    of D ``_blend`` within 1e-6 of the rate change the tolerances allow: a
    minimizer jumps between adjacent floats where its Lagrangian is flat
    along its zero-rate edge (beta / alpha near 1 - 2q).  Each kernel point
    is also blended with the latest one across D within the same 1e-6.
    Guard: 5 MAX_ROOT_ITER kernel calls.

    Where the first kernel point K has no component in U, the candidate is
    returned with K's multipliers if it is within 1/100 of the rate change
    the tolerances allow, plus a few ulps, of K's Lagrangian bound R(K) +
    alpha (sum d_K - D) + beta (sum p_K - P), K's corners taken at (q, q).
    Otherwise returns the point or blend closest to both budgets as
    (alpha, beta, d, p, kernel calls) if it meets them, and raises
    ConvergenceError if none does.
    """
    evals = 0
    best = (math.inf, None)  # (larger budget residual in tolerances, point)
    sides = [None, None]  # the latest kernel points with sum d > D and <= D

    def consider(point) -> float:
        nonlocal best
        if point is None:
            return math.inf
        miss = max(abs(_total(m, point[2]) - D) / tol_d, abs(_total(m, point[3]) - P) / tol_p)
        if miss < best[0]:
            best = (miss, point)
        return miss

    def blend(above, below):  # within 1e-6 of the rate change the tolerances allow
        return _blend(above, below, m, D, 1e-6 * (above[0] * tol_d + above[1] * tol_p))

    def evaluate(a: float, b: float):
        nonlocal evals
        if evals >= 5 * MAX_ROOT_ITER:
            raise ConvergenceError("multiplier search reached its call guard")
        evals += 1
        d, p, jac = _component_dp(math.exp(a), math.exp(b), q, m)
        point = (math.exp(a), math.exp(b), d, p)
        above = _total(m, d) > D
        if sides[above] is not None:
            consider(blend(point, sides[1]) if above else blend(sides[0], point))
        sides[not above] = point
        return a, b, point, consider(point), jac

    def p_resid(b: float):  # the outer level, at the point on sum d = D at log beta b
        nonlocal a
        ends, point = [None, None], None

        def d_resid(x: float):  # the inner level, at log alpha x
            nonlocal cur, point
            if (x, b) != cur[:2]:  # the hand-over starts at cur, already evaluated
                cur = evaluate(x, b)
            s_d = _total(m, cur[2][2])
            ends[s_d <= D] = cur[2]
            mix = None if None in ends else blend(*ends)
            if abs(s_d - D) <= 0.01 * tol_d:
                point = cur[2]
            elif consider(mix) < math.inf:
                point = mix
            value = _log_resid(s_d, D) if point is None else 0.0
            return value, cur[4][0][0] * cur[2][0] / s_d  # J00 alpha / sum d

        a = _bracketed_newton(d_resid, a, _LOG_MIN, math.inf, xtol=_LOG_XTOL)[0]
        if point is None:  # the bracket collapsed, or the root is below _MULTIPLIER_MIN
            raise ConvergenceError("no point meets sum d = D")
        (j00, j01), (_, j11) = cur[4]  # at the last kernel point
        schur = j11 - j01 * j01 / j00
        s_p = _total(m, point[3])
        slope = schur * point[1] / s_p if j00 < 0.0 and schur < 0.0 else math.nan
        return (0.0 if abs(s_p - P) <= 0.01 * tol_p else _log_resid(s_p, P)), slope

    cur = evaluate(math.log(start[0]), max(math.log(start[1]), _LOG_MIN))
    if len(start) > 2 and cur[4][1][1] == 0.0:  # no component in U
        alpha, beta, d, p = cur[2]
        # the kernel's corner p = q (1 - 1e-15) rounds to a few 1e-15 nats, (q, q) to 0
        d, p = np.where(p >= q * (1.0 - _CORNER_RTOL), [q, q], [d, p])
        lower = (_total(m, scalar_rdp_arr(d, p, q)) + alpha * (_total(m, d) - D)
                 + beta * (_total(m, p) - P))
        # a few ulps for the rates' rounding, above the 1/100 share at tiny multipliers
        slack = 0.01 * (alpha * tol_d + beta * tol_p) + 4.0 * math.ulp(1.0)
        if _total(m, scalar_rdp_arr(start[2], start[3], q)) - lower <= slack:
            return alpha, beta, start[2], start[3], evals
    try:
        while best[0] > 0.01:
            a, b, point, miss, ((j00, j01), (_, j11)) = cur
            alpha, beta, s_d, s_p = *point[:2], _total(m, point[2]), _total(m, point[3])
            schur = j11 - j01 * j01 / j00
            step_b = -(s_p - P - j01 * (s_d - D) / j00) / schur
            step_a = -(s_d - D + j01 * step_b) / j00
            if not (j00 < 0.0 and schur < 0.0 and np.isfinite([step_a, step_b]).all()):
                break
            t = min([1.0] + [m * (math.expm1(2.0) if s > 0.0 else -math.expm1(-2.0)) / abs(s)
                             for m, s in ((alpha, step_a), (beta, step_b)) if s != 0.0])
            na, nb = math.log(alpha + t * step_a), math.log(beta + t * step_b)
            if not (na > _LOG_MIN and nb > _LOG_MIN):
                break
            nxt = evaluate(na, nb)
            if not nxt[3] < miss:
                break
            cur = nxt
        if best[0] > 0.01:
            _bracketed_newton(p_resid, b, _LOG_MIN, math.inf, xtol=_LOG_XTOL)
    except ConvergenceError:  # the call guard, or a root float64 resolves no further
        pass
    if best[0] > 1.0:
        raise ConvergenceError("no multipliers meet both budgets")
    return (*best[1], evals)


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
    Raises DomainError unless ``classify`` puts (D, P) in C."""
    _check_rtol(budget_rtol)
    src, budget = _as_source(src), _as_budget(budget)
    q_all, m_all = src.run_q, src.counts
    D, P = budget.D, budget.P
    _, side, bound, fill, _ = _locate(src, budget, PlaneRegion.C)

    # q = 0 components take no budget; sorted last, they form the last run,
    # which is solved without and appended as a (d, p) = (0, 0) row
    k = q_all.size - int(q_all[-1] == 0.0)
    q, m = q_all[:k], m_all[:k]

    tol_d = budget_rtol * max(1.0, D)
    tol_p = budget_rtol * max(1.0, P)

    # the P = 0 allocation meets a P within tol_p of 0, and the S(D)-shaped
    # one a P within tol_p of S(D): budgets the search cannot resolve (it
    # exits with no multipliers meeting both)
    if P <= tol_p:
        alpha, iters = _p_zero_alpha(q, m, D)
        d = _d_p_zero(alpha, q)
        p = np.zeros_like(d)
        gaps = _beta_gap(d, p, q)
        beta = max(0.0, float(np.max(gaps)))  # +0.0, not the gaps' -0.0 where every d is 0
    else:
        if side == PlaneRegion.A:
            # alpha tends to the water level's multiplier as beta -> 0
            # (the level rounds to 1/2 next to sum q when a q is 1/2)
            start = (max(math.log((1.0 - fill.max()) / fill.max()), _MULTIPLIER_MIN), 1e-2)
            found = _solve_c_multipliers(q, m, D, P, tol_d, tol_p, start)
        else:
            found = _s_side(q, m, D, P)
            if bound - P > tol_p:
                start = found if min(found[:2]) > 0.0 else (1e-3, 1e-2)
                found = _solve_c_multipliers(q, m, D, P, tol_d, tol_p, start)
        alpha, beta, d, p, iters = found
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
