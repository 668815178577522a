"""Scalar building blocks: entropies, the Bernoulli rate-distortion-perception
function R(d, p, q), and the input checks for probabilities.

All rates are in nats (natural log).  The one public function,
``scalar_rdp``, accepts floats or numpy arrays and broadcasts; scalar inputs
give a plain ``float`` back.  The ``_arr`` kernels take arrays that the
caller has already checked, and every probability array from outside is
checked by ``_as_unit``.  The ``0 * log 0 = 0`` convention is implemented by
explicit masking (masked ufuncs in ``_xlogx``), never by limit evaluation, so
boundary values are exact.
"""

from __future__ import annotations

import enum
import math
import numbers

import numpy as np

from .errors import DomainError

#: Inputs may stray this far outside their domain before we raise.
DOMAIN_TOL = 1e-12


class ScalarRegion(enum.Enum):
    """Distortion/perception region of a single component (d, p) pair.

    S: low distortion, slack perception (only the distortion multiplier acts).
    T: zero rate with room to spare.
    U: both constraints shape the optimum.
    V: the saturation corner d = q with p >= q.
    EXTERIOR: d = 0, where the partition is not defined.
    """

    S = "S"
    T = "T"
    U = "U"
    V = "V"
    EXTERIOR = "boundary-exterior"


def _real(x, name: str) -> float:
    """x as a float; DomainError naming ``name`` unless x is a real number
    (a Python or numpy bool, int or float, or a 0-d array of one)."""
    if isinstance(x, (np.ndarray, np.generic)):
        real = x.ndim == 0 and x.dtype.kind in "biuf"
    else:
        real = isinstance(x, numbers.Real)
    if not real:
        raise DomainError(f"{name} must be a real number, got {x!r:.80}")
    return float(x)


def _real_array(x, name: str) -> np.ndarray:
    """x as an array of booleans, integers or floats, not converted;
    DomainError naming ``name`` for any other kind.  Text is not parsed, so
    ``"0.1"`` raises as ``"x"`` does; a real number that numpy holds as an
    object, such as a Fraction, becomes a float."""
    try:
        arr = np.asarray(x)
    except (TypeError, ValueError):  # ragged nesting, say
        arr = None
    if arr is not None and arr.dtype.kind == "O" and isinstance(x, numbers.Real):
        arr = np.asarray(float(x))
    if arr is None or arr.dtype.kind not in "biuf":
        raise DomainError(f"{name} must be a real number or an array of them, "
                          f"got {x!r:.80}")
    return arr


def _as_unit(x, name: str, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """x (as ``_real_array`` takes it) as a float array in [lo, hi].

    DomainError naming ``name`` and the first entry that lies more than
    DOMAIN_TOL outside [lo, hi]; NaN fails, and so does inf unless hi is
    inf.  Entries within DOMAIN_TOL outside are clipped onto [lo, hi] in a
    copy; otherwise the float array of x is returned as it is, -0.0 kept."""
    arr = _real_array(x, name).astype(float, copy=False)
    if arr.size == 0:
        return arr
    least, most = arr.min(), arr.max()
    if not (least >= lo - DOMAIN_TOL and most <= hi + DOMAIN_TOL):  # NaN fails too
        k = int(np.argmin((arr >= lo - DOMAIN_TOL) & (arr <= hi + DOMAIN_TOL)))
        at = tuple(map(int, np.unravel_index(k, arr.shape)))
        where = f"entry {at[0] if arr.ndim == 1 else at} is" if arr.ndim else "got"
        raise DomainError(f"{name} must lie in [{lo:g}, {hi:g}]; {where} {float(arr.flat[k])!r}")
    return np.clip(arr, lo, hi) if least < lo or most > hi else arr


def _xlogx(m: np.ndarray) -> np.ndarray:
    pos = m > 0.0
    if pos.all():
        return m * np.log(m)
    # masked ufuncs, not a boolean gather: m <= 0 and nan cells stay 0
    out = np.log(m, out=np.zeros_like(m), where=pos)
    return np.multiply(out, m, out=out, where=pos)


def _maybe_float(x: np.ndarray, *inputs):
    if all(np.isscalar(i) or getattr(i, "ndim", 1) == 0 for i in inputs):
        return float(x)
    return x


def scalar_rdp(d, p, q):
    """RDP function of a Bernoulli(q) source, q <= 1/2, in nats.

    ``d`` is the tolerated flip probability (Hamming distortion per use),
    ``p`` the tolerated gap between source and reconstruction marginals.
    Nonincreasing and jointly convex in (d, p), continuous across all branch
    boundaries.  Branch ties: the zero branch is closed, the rate-distortion
    branch is open on its right edge.  The branch of each element is chosen
    first, from thresholds that take no logarithm, and each branch is then
    evaluated only on its own elements (``scalar_rdp_arr``).
    """
    dd = _as_unit(d, "d")
    pp = _as_unit(p, "p", hi=np.inf)
    qq = _as_unit(q, "q", hi=0.5)
    return _maybe_float(scalar_rdp_arr(dd, pp, qq), d, p, q)


def scalar_rdp_arr(d: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """scalar_rdp on pre-validated arrays (no domain checks, no clipping),
    at the broadcast shape of all three."""
    # the low-p branches are selected only where p < q, so capping p at q
    # changes nothing there and spares p = inf the inf/inf and 0 * inf
    pl = np.minimum(p, q)
    zero_thresh = 2.0 * q * (1.0 - q) - (1.0 - 2.0 * q) * pl
    high_p = p >= q
    live = (q > 0.0) & np.where(high_p, d < q, d < zero_thresh)  # off the zero branch
    if not live.any():  # as in plane region B: no threshold or branch left to evaluate
        return np.zeros(live.shape)
    den = 1.0 - 2.0 * (q - pl)
    # p == 0 makes the first-branch threshold 0 for every q (incl. q = 1/2,
    # where the raw expression is 0/0); the ternary branch then takes over
    # and coincides with h2(q) - h2(d) exactly.
    rd_thresh = np.where(pl > 0.0, pl / np.where(den != 0.0, den, 1.0), 0.0)
    rd = live & (high_p | (d < rd_thresh))
    out = _branch(np.zeros(live.shape), rd, _rd_rate, d, q)
    out = _branch(out, live & ~rd, _ternary_rate, d, p, q)
    return np.maximum(out, 0.0)


def _rd_rate(d, q):
    return h2_arr(q) - h2_arr(d)


def _ternary_rate(d, p, q):
    # the caps are no-ops on this branch up to rounding, and keep the
    # masses legal there
    return (2.0 * h2_arr(q) + h2_arr(np.maximum(q - p, 0.0))
            - h3_arr(np.maximum(d - p, 0.0) / 2.0, q)
            - h3_arr(np.minimum((d + p) / 2.0, q), 1.0 - q))


def _branch(out: np.ndarray, mask: np.ndarray, rate, *args) -> np.ndarray:
    """``out`` with the elementwise ``rate(*args)`` written where ``mask``
    holds.  ``rate`` runs on the args as they are (and, where the mask holds
    everywhere, its value is returned with no copy) when their broadcast
    shape has no more elements than the mask selects, else on the entries
    the mask selects."""
    count = np.count_nonzero(mask)
    if count == 0:
        return out
    if count >= math.prod(np.broadcast_shapes(*(np.shape(a) for a in args))):
        value = rate(*args)
        if count == out.size and np.shape(value) == out.shape:
            return value
        np.copyto(out, value, where=mask)
        return out
    out[mask] = rate(*(np.broadcast_to(a, out.shape)[mask] for a in args))
    return out


def h2_arr(u: np.ndarray) -> np.ndarray:
    """Binary entropy -u ln u - (1-u) ln(1-u) in nats on pre-validated arrays
    (no domain checks, no clipping); exactly 0 at u = 0 and u = 1."""
    return -_xlogx(u) - _xlogx(1.0 - u)


def h3_arr(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Ternary entropy of (u, v, 1-u-v) in nats on pre-validated arrays, the
    third mass clipped at 0; h3_arr(0, v) == h2_arr(v) exactly."""
    rest = np.maximum(1.0 - u - v, 0.0)
    return -_xlogx(u) - _xlogx(v) - _xlogx(rest)


def rd_boundary_arr(d: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The perception level below which the constraint starts to bind,
    p = d(1-2q)/(1-2d), for 0 <= d <= q <= 1/2, on pre-validated arrays (no
    domain checks, no clipping).

    This is the S/U frontier; summed over water-filled components it is the
    boundary curve of the perception-inactive plane region.  At q = 1/2 it
    is 0 for every d, d = 1/2 included.
    """
    den = 1.0 - 2.0 * d
    out = np.where(den > 0.0, d * (1.0 - 2.0 * q) / np.where(den > 0.0, den, 1.0), 0.0)
    return np.where((d == q) & (den > 0.0), d, out)  # the product can round off q at d = q
