"""Independent reference computations for checking bernrdp's outputs.

Written from the paper's formulas, not from the package: nothing here
imports ``bernrdp``.  All rates are in nats.  Every function works on
numpy arrays of component probabilities; q above 1/2 is folded to 1 - q,
which leaves every rate and budget unchanged.

* ``scalar_rate``: the Bernoulli RDP function R(d, p, q) with its three
  branches (rate-distortion, ternary, zero).
* ``water_fill``: reverse water filling by bisection on the water level.
* ``t_of_d`` / ``s_of_d``: the two plane boundaries.  T(D) is the total
  perception at the water-filled distortions; S(D) is the least total
  perception on the zero-rate set, filled greedily in the order of the
  paper's slopes 1/(1 - 2q).
* ``rate_p_zero``: R(D, 0) by bisection on the single distortion
  multiplier of the p = 0 problem.
* ``channel_info``: the mutual information of a binary test channel.
* ``scipy_rate``: a constrained minimisation of the summed scalar rates
  from several starts (for n <= 3).
"""

from __future__ import annotations

import math

import numpy as np

#: Bisection steps; 200 halvings exhaust float64 on every bracket used here.
_BISECT = 200


def fold(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return np.minimum(q, 1.0 - q)


def xlogx(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    safe = np.where(x > 0.0, x, 1.0)
    return np.where(x > 0.0, x * np.log(safe), 0.0)


def h2(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return -xlogx(u) - xlogx(1.0 - u)


def h3(u, v) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return -xlogx(u) - xlogx(v) - xlogx(np.maximum(1.0 - u - v, 0.0))


def scalar_rate(d, p, q) -> np.ndarray:
    """R(d, p, q) for a Bernoulli(q) source, Hamming distortion d and
    marginal-gap perception budget p (q folded to [0, 1/2]).

    p >= q leaves the classic rate h2(q) - h2(d) for d < q and 0 beyond.
    Below that, the rate is 0 once d >= 2q(1-q) - (1-2q)p, the classic
    rate while d <= p / (1 - 2(q - p)), and otherwise the ternary branch
    2 h2(q) + h2(q - p) - h3((d-p)/2, q) - h3((d+p)/2, 1-q).
    """
    d, p, q = np.broadcast_arrays(np.asarray(d, dtype=float),
                                  np.asarray(p, dtype=float), fold(q))
    classic = np.maximum(h2(q) - h2(np.minimum(d, q)), 0.0)
    zero_at = 2.0 * q * (1.0 - q) - (1.0 - 2.0 * q) * p
    den = 1.0 - 2.0 * (q - p)
    classic_until = np.where(p > 0.0, p / np.where(den > 0.0, den, 1.0), 0.0)
    lo = np.clip((d - p) / 2.0, 0.0, 1.0)
    hi = np.clip((d + p) / 2.0, 0.0, q)
    ternary = (2.0 * h2(q) + h2(np.maximum(q - p, 0.0))
               - h3(lo, q) - h3(hi, 1.0 - q))
    low_p = np.where(d >= zero_at, 0.0,
                     np.where(d <= classic_until, classic, ternary))
    high_p = np.where(d < q, classic, 0.0)
    out = np.where(q <= 0.0, 0.0, np.where(p >= q, high_p, low_p))
    return np.maximum(out, 0.0)


def channel_info(q, a, b) -> np.ndarray:
    """I(X; Xhat) of the binary test channel a = P(xhat=1 | x=0),
    b = P(xhat=0 | x=1) on a Bernoulli(q) source, from the joint cells."""
    q, a, b = (np.asarray(v, dtype=float) for v in (q, a, b))
    joint = (xlogx((1.0 - q) * (1.0 - a)) + xlogx((1.0 - q) * a)
             + xlogx(q * b) + xlogx(q * (1.0 - b)))
    qhat = (1.0 - q) * a + q * (1.0 - b)
    return h2(q) + joint - xlogx(qhat) - xlogx(1.0 - qhat)


def water_fill(q, D: float) -> np.ndarray:
    """d_i = min(level, q_i) with sum d_i = D, the level found by bisection."""
    q = fold(q)
    if D >= q.sum():
        return q.copy()
    lo, hi = 0.0, float(q.max())
    for _ in range(_BISECT):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if np.minimum(mid, q).sum() < D:
            lo = mid
        else:
            hi = mid
    return np.minimum(0.5 * (lo + hi), q)


def classic_rate(q, D: float) -> float:
    """R(D, inf): the water-filled sum of h2(q_i) - h2(d_i)."""
    q = fold(q)
    d = water_fill(q, D)
    return float(np.sum(np.maximum(h2(q) - h2(d), 0.0)))


def t_of_d(q, D: float) -> float:
    q = fold(q)
    d = water_fill(q, D)
    return float(np.sum(d * (1.0 - 2.0 * q) / (1.0 - 2.0 * d)))


def s_of_d(q, D: float) -> float:
    """Least sum p_i with every component at zero rate and sum d_i = D.

    Each component starts at d_i = q_i with p_i = q_i; an extra unit of
    distortion buys back 1/(1-2q_i) units of perception until p_i = 0 at
    d_i = 2q_i(1-q_i).  The steepest components are bought first.
    """
    q = fold(q)
    spare = float(D) - float(q.sum())
    need = q.copy()
    for i in np.argsort(-q, kind="stable"):
        if spare <= 0.0:
            break
        room = q[i] * (1.0 - 2.0 * q[i])  # distortion that clears p_i
        take = min(spare, room)
        need[i] = q[i] - take / (1.0 - 2.0 * q[i]) if room > 0.0 else 0.0
        spare -= take
    return float(np.maximum(need, 0.0).sum())


def p_zero_distortions(q, alpha: float) -> np.ndarray:
    """Per-component d minimizing R(d, 0, q) + alpha d.

    The stationarity condition (1/2) ln[(q - d/2)(1 - q - d/2) / (d/2)^2]
    = alpha is a quadratic in d/2; this is its positive root.
    """
    q = fold(q)
    t = math.expm1(2.0 * alpha)
    c = q * (1.0 - q)
    return 4.0 * c / (1.0 + np.sqrt(1.0 + 4.0 * t * c))


def rate_p_zero(q, D: float) -> float:
    """R(D, 0) by bisection on the distortion multiplier alpha."""
    q = fold(q)
    if D >= float(np.sum(2.0 * q * (1.0 - q))):
        return 0.0
    if D <= 0.0:
        return float(h2(q).sum())
    lo, hi = 0.0, 1.0
    while p_zero_distortions(q, hi).sum() > D:
        hi *= 2.0
    for _ in range(_BISECT):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if p_zero_distortions(q, mid).sum() > D:
            lo = mid
        else:
            hi = mid
    d = p_zero_distortions(q, 0.5 * (lo + hi))
    return float(scalar_rate(d, 0.0, q).sum())


def classify(q, D: float, P: float) -> tuple[str, float]:
    """Plane region of (D, P) and the relative distance to its boundary."""
    q = fold(q)
    if D < q.sum():
        edge = t_of_d(q, D)
        region = "A" if P >= edge else "C"
    else:
        edge = s_of_d(q, D)
        region = "B" if P >= edge else "C"
    return region, abs(P - edge) / max(1.0, abs(edge))


def scipy_rate(q, D: float, P: float, starts: int = 4) -> float:
    """min sum_i R(d_i, p_i, q_i) subject to sum d = D, sum p = P, by
    SLSQP from the proportional split, the even split and random splits;
    the least value found."""
    from scipy.optimize import minimize

    q = fold(q)
    n = q.size
    rng = np.random.default_rng(12345)
    guesses = [np.concatenate((D * q / q.sum(), P * q / q.sum())),
               np.concatenate((np.full(n, D / n), np.full(n, P / n)))]
    for _ in range(max(0, starts - 2)):
        w = rng.dirichlet(np.ones(n), size=2)
        guesses.append(np.concatenate((D * w[0], P * w[1])))
    cons = [{"type": "eq", "fun": lambda z: z[:n].sum() - D},
            {"type": "eq", "fun": lambda z: z[n:].sum() - P}]
    bounds = [(0.0, 1.0)] * n + [(0.0, 0.5)] * n

    def total(z):
        return float(scalar_rate(z[:n], z[n:], q).sum())

    best = math.inf
    for z0 in guesses:
        res = minimize(total, z0, method="SLSQP", bounds=bounds, constraints=cons,
                       options={"ftol": 1e-14, "maxiter": 500})
        z = res.x
        if abs(z[:n].sum() - D) <= 1e-9 and abs(z[n:].sum() - P) <= 1e-9:
            best = min(best, total(z))
    return best
