"""Evaluation of Bessel functions J_n with certified error channels.

Two evaluators live here:

``bessel_j``
    The kernel: fast float evaluation for orders 0..40 and arguments
    0 <= r < 5.27e7 (``_MAX_R``; larger r is refused), accurate to 1e-13
    absolute, in numpy alone.  Below the fixed switch radius r = 50 it runs
    Miller's backward recurrence from order 140, normalized by
    J_0 + 2 sum J_{2k} = 1 (Olver, Math. Comp. 18 (1964));
    below r = 2^-30 the leading series term (r/2)^k / k! is already exact to
    float precision.  From r = 50 on, J0 and J1 come from the 12-term Hankel
    asymptotic series, whose signed coefficients are fixed float tables, with
    our own extended-precision phase reduction, where the truncation
    remainder (``asymptotic_remainder``) is below 2^-56 (below 2^-100 from
    r = 500), and every higher order from the forward recurrence
    J_{k+1} = (2k/r) J_k - J_{k-1}, which is stable for k <= 40 < r
    (Gautschi, SIAM Rev. 9 (1967)).  Against 40-digit reference values the
    measured error is below 4e-16 on both sides of the switch.  Scalars,
    arrays and multi-order grids share one kernel, ``_bessel_rows``, so a
    scalar call returns exactly the element an array or multi-order call
    would.  Each route computes in place, in a few work arrays as long as
    the node vector, so the quadrature's 4096-node granules allocate no
    large temporaries.

``bessel_series_oracle``
    A slow, independent validation oracle: the alternating power series
    summed in exact fixed-point integer arithmetic with a rigorous bound on
    every floor division and on the discarded tail.  Returns an enclosure.

The phase ``omega_n = r - n pi/2 - pi/4`` is reduced with a three-word
representation of 2 pi so that the reduction error stays a few 1e-16 even at
r = 63000, where a naive reduction would lose ~1e-11.
"""

from __future__ import annotations

import math
import numbers
import struct
from fractions import Fraction

import numpy as np

from .exactnum import CertifiedValue, a_coeff, as_integer, as_order, require

__all__ = [
    "CertifiedValue",
    "bessel_j",
    "bessel_series_oracle",
    "asymptotic_remainder",
    "phase",
]

MAX_ORDER = 40


# Routes of the kernel by argument: the leading series term below _TINY_R,
# Miller's backward recurrence from order _MILLER_START below _SWITCH_R, the
# Hankel sums plus forward recurrence (stable for k <= MAX_ORDER < r) above.
_TINY_R = 2.0**-30
_SWITCH_R = 50.0
_MILLER_START = 140
_FACTORIALS = np.array([float(math.factorial(k)) for k in range(MAX_ORDER + 1)])
require(MAX_ORDER < _SWITCH_R, "forward recurrence needs every order below the switch radius")
# |J_N(r)| <= (r/2)^N / N!: the discarded start of Miller's recurrence is
# negligible for every r below the switch radius.
require(
    _MILLER_START % 2 == 0
    and (Fraction(_SWITCH_R) / 2) ** _MILLER_START / math.factorial(_MILLER_START) < Fraction(1, 2**100),
    f"Miller start order {_MILLER_START} is not even with (r/2)^N/N! below 2^-100 at r = {_SWITCH_R:g}",
)

# ---------------------------------------------------------------------------
# High-precision constants and the phase reduction
# ---------------------------------------------------------------------------

# pi to 110 digits; every derived constant below is cut from this one value.
_PI_F = Fraction(
    "3.14159265358979323846264338327950288419716939937510"
    "582097494459230781640628620899862803482534211706798214808651"
)
_TWO_PI_F = 2 * _PI_F


def _trunc_sig_bits(x: float, bits: int) -> float:
    """Keep the leading ``bits`` significand bits of x (truncate the rest)."""
    u = struct.unpack("<Q", struct.pack("<d", x))[0]
    u &= ~((1 << (53 - bits)) - 1)
    return struct.unpack("<d", struct.pack("<Q", u))[0]


# Three-word 2*pi: hi words carry _TP_BITS significand bits each, so products
# with any integer k of at most 53 - _TP_BITS bits are exact in double precision.
_TP_BITS = 30
_TP_HI1 = _trunc_sig_bits(float(_TWO_PI_F), _TP_BITS)
_TP_HI2 = _trunc_sig_bits(float(_TWO_PI_F - Fraction(_TP_HI1)), _TP_BITS)
_TP_LO = float(_TWO_PI_F - Fraction(_TP_HI1) - Fraction(_TP_HI2))
require(
    abs(_TWO_PI_F - Fraction(_TP_HI1) - Fraction(_TP_HI2) - Fraction(_TP_LO)) < Fraction(1, 2**100),
    "three-word 2*pi split is not accurate to 2^-100",
)
# Below _MAX_R the reduction's multiple k = rint(r / 2pi) stays at or below
# _K_MAX, whose products with the hi words are exact; every r >= _MAX_R is
# refused.
_K_MAX = 2 ** (53 - _TP_BITS) - 1
_MAX_R = float(_K_MAX * _TWO_PI_F)
require(
    all(_K_MAX * Fraction(w) == Fraction(_K_MAX * w) for w in (_TP_HI1, _TP_HI2)),
    f"k * 2pi is not exact for every k <= {_K_MAX}",
)

_INV_TWO_PI = float(1 / _TWO_PI_F)
_TWO_PI = float(_TWO_PI_F)
_PI = float(_PI_F)

# Two-word table of i*pi/4 for |i| <= 24: the final phase subtraction is a
# single double-double step, keeping its rounding within one ulp of pi.
_QTAB_OFFSET = 24
_QTAB_HI = np.empty(49)
_QTAB_LO = np.empty(49)
for _i in range(-24, 25):
    _v = _i * _PI_F / 4
    _vhi = float(_v)
    _QTAB_HI[_i + _QTAB_OFFSET] = _vhi
    _QTAB_LO[_i + _QTAB_OFFSET] = float(_v - Fraction(_vhi))


def _check_r(r) -> np.ndarray:
    """``r`` as a float array, if it holds real numbers (no strings, bools
    or objects) and every element lies in [0, _MAX_R)."""
    if np.asarray(r).dtype.kind not in "iuf":
        raise ValueError(f"r must be a real number or an array of real numbers, got {r!r}")
    r = np.asarray(r, dtype=np.float64)
    ok = (r >= 0) & (r < _MAX_R)
    if not np.all(ok):
        raise ValueError(f"r must lie in [0, {_MAX_R:.6g}), got {float(r[~ok].flat[0]):g}")
    return r


def phase(n: int, r: float) -> float:
    """The asymptotic phase omega_n = r - n pi/2 - pi/4, reduced to (-pi, pi].

    Argument reduction happens against a three-word 2*pi, so the absolute
    error stays below ~4e-16 * (1 + log2(1 + r)) for all 0 <= r < _MAX_R.
    """
    n, r = as_order(n), _check_r(r)
    if r.size != 1:
        raise ValueError(f"r must be a single real number, got an array of shape {r.shape}")
    return float(_phase_array(n, r.reshape(1))[0])


def _phase_array(n: int, r: np.ndarray) -> np.ndarray:
    """Vectorized ``phase`` for floats in [0, _MAX_R); rounds half to even.
    Computed in place, in two work arrays and one index array."""
    k = np.multiply(r, _INV_TWO_PI)
    np.rint(k, out=k)
    omega = np.multiply(k, _TP_HI1)
    np.subtract(r, omega, out=omega)
    work = np.multiply(k, _TP_HI2)
    omega -= work
    np.multiply(k, _TP_LO, out=work)
    omega -= work
    # omega is now the remainder e = r - 2 pi k, and k becomes the index
    # q + 8 w of e's multiple of pi/4, w = rint((e - q pi/4) / 2pi)
    q = (2 * n + 1) % 16
    np.subtract(omega, q * (_PI / 4.0), out=k)
    k *= _INV_TWO_PI
    np.rint(k, out=k)
    k *= 8.0
    k += q + _QTAB_OFFSET
    idx = k.astype(np.intp)
    np.take(_QTAB_HI, idx, out=work)
    omega -= work
    np.take(_QTAB_LO, idx, out=work)
    omega -= work
    np.subtract(omega, _TWO_PI, out=omega, where=omega > _PI)
    np.add(omega, _TWO_PI, out=omega, where=omega <= -_PI)
    return omega


# ---------------------------------------------------------------------------
# Hankel asymptotic evaluation
# ---------------------------------------------------------------------------


def asymptotic_remainder(n: int, r: float, ell: int) -> float:
    """The certified truncation remainder of the ell-term expansion.

    Equals sqrt(2/(pi r)) * Gamma(n+ell+1/2) / (|Gamma(n-ell+1/2)| ell!)
    * (2r)^(-ell), which simplifies to sqrt(2/(pi r)) * |a_ell(n)| * r^(-ell).
    Requires ell >= max(n - 1/2, 1) and a real, finite r > 0.
    """
    n, ell = as_order(n), as_integer(ell, "term counts")
    if ell < 1 or ell < n:  # integer ell >= n - 1/2  <=>  ell >= n
        raise ValueError(f"remainder bound needs ell >= max(n - 1/2, 1); got ell={ell}, n={n}")
    if isinstance(r, bool) or not isinstance(r, numbers.Real) or not (math.isfinite(r) and r > 0):
        raise ValueError(f"asymptotic remainder requires a real, finite r > 0, got {r!r}")
    a_ell = abs(float(a_coeff(ell, n).coeff))
    return math.sqrt(2.0 / (math.pi * r)) * a_ell * r ** float(-ell)


# Truncation order of the J0 and J1 sums behind bessel_j; its remainder falls
# with r and already sits below 2^-56, a sixteenth of an ulp of 1, at the
# switch radius (1.5e-18 at r = 50, below 2^-100 from r = 500).
_ASYM_TERMS = 12
require(
    asymptotic_remainder(1, _SWITCH_R, _ASYM_TERMS) < 2.0**-56,
    f"{_ASYM_TERMS} Hankel terms leave a remainder above 2^-56 at r = {_SWITCH_R:g}",
)


def _signed_coeffs(n: int, first: int) -> tuple[float, ...]:
    """(-1)^i a_{2i+first}(n) as floats, for 2i + first < ``_ASYM_TERMS``."""
    terms = range(first, _ASYM_TERMS, 2)
    return tuple(float((-1) ** i * a_coeff(j, n).coeff) for i, j in enumerate(terms))


# The cosine and sine sums (P, Q) of the J0 and J1 expansions: P collects the
# terms a_0, a_2, ... and Q the terms a_1, a_3, ..., with alternating signs.
_HANKEL_PQ = {n: (_signed_coeffs(n, 0), _signed_coeffs(n, 1)) for n in (0, 1)}


def _asym_sums(n: int, r: np.ndarray) -> np.ndarray:
    """The truncated sums P and Q/r of J_n's expansion for n in {0, 1} over
    the node vector r, as the two rows of one new array, each by Horner's
    rule in place."""
    u = np.multiply(r, r)
    np.divide(1.0, u, out=u)
    sums = np.empty((2, r.shape[0]))
    for total, coeffs in zip(sums, _HANKEL_PQ[n]):
        total.fill(coeffs[-1])
        for c in coeffs[-2::-1]:
            total *= u
            total += c
    sums[1] /= r
    return sums


def _asym_j0_j1(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints of the ``_ASYM_TERMS``-term asymptotic J0 and J1, from one
    phase reduction: omega_1 = omega_0 - pi/2, so cos omega_1 = sin omega_0
    and sin omega_1 = -cos omega_0.  Formed in place in the sums' rows."""
    p0, q0 = _asym_sums(0, r)
    p1, q1 = _asym_sums(1, r)
    s = _phase_array(0, r)
    c = np.cos(s)
    np.sin(s, out=s)
    amp = np.multiply(r, np.pi)
    np.divide(2.0, amp, out=amp)
    np.sqrt(amp, out=amp)
    # J0 = amp (c P0 - s Q0/r) and J1 = amp (s P1 + c Q1/r)
    p0 *= c
    q0 *= s
    p0 -= q0
    p0 *= amp
    p1 *= s
    q1 *= c
    p1 += q1
    p1 *= amp
    return p0, p1


# ---------------------------------------------------------------------------
# bessel_j: the production evaluator
# ---------------------------------------------------------------------------


def bessel_j(n: int, r: float) -> float:
    """J_n(r) for 0 <= n <= 40 and 0 <= r < _MAX_R (about 5.27e7), to 1e-13
    absolute."""
    r = _check_r(r)
    if r.size != 1:
        raise ValueError(f"r must be a single real number, got an array of shape {r.shape}")
    return float(_bessel_rows((n,), r.reshape(1))[0, 0])


def _bessel_rows(orders, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """J_k(r) for each k in ``orders`` over the 1-d node vector r, one row
    each, written into ``out`` (shape (len(orders), len(r))) if given and
    returned.

    Each node takes one of three routes by its argument alone: the leading
    series term below ``_TINY_R`` (r = 0 included), Miller's backward
    recurrence below ``_SWITCH_R``, and the Hankel sums plus forward
    recurrence above.  Every route evaluates the same fixed sequence of
    orders whatever is requested, so a value depends only on its order and
    node, never on the other orders or nodes requested.  When one route
    serves every node, it writes its rows straight into ``out``, with no
    gather or scatter.
    """
    orders = [as_order(k) for k in orders]
    for k in orders:
        if k > MAX_ORDER:
            raise ValueError(f"order must lie in 0..{MAX_ORDER}, got {k}")
    tiny, large = r < _TINY_R, r >= _SWITCH_R
    routes = [
        (route, where)
        for route, where in ((_series_rows, tiny), (_miller_rows, ~tiny & ~large), (_hankel_rows, large))
        if np.any(where)
    ]
    if len(routes) == 1:
        return routes[0][0](orders, r, out)
    out = np.empty((len(orders), r.shape[0])) if out is None else out
    for route, where in routes:
        out[:, where] = route(orders, r[where])
    return out


def _series_rows(orders, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The leading series term (r/2)^k / k!; exact to 2^-62 relative below
    ``_TINY_R``, where the next term is (r/2)^2/(k+1) times smaller.  Each
    route writes into ``out`` if given, as ``_bessel_rows`` does."""
    k = np.array(orders, dtype=np.intp)[:, None]
    out = np.power(np.multiply(0.5, r), k, out=out)
    return np.divide(out, _FACTORIALS[k], out=out)


def _slots(orders) -> dict[int, list[int]]:
    """The rows of ``out`` that each order in ``orders`` fills."""
    slots: dict[int, list[int]] = {}
    for i, k in enumerate(orders):
        slots.setdefault(k, []).append(i)
    return slots


def _miller_rows(orders, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Miller's algorithm: b_{k-1} = (2k/r) b_k - b_{k+1} from b_N = 1,
    b_{N+1} = 0, normalized by J_0 + 2 sum J_{2k} = 1.

    A node whose |b| passes 2^600 is scaled, with everything it has stored,
    by the exact 2^-600.  One step multiplies |b| by at most 2N/r < 2^39
    above ``_TINY_R``, so nothing overflows.
    """
    slots = _slots(orders)
    out = np.empty((len(orders), r.shape[0])) if out is None else out
    out.fill(0.0)  # rows not yet reached are scaled with the rest
    b_next, b, even_sum, work = np.zeros_like(r), np.ones_like(r), np.zeros_like(r), np.empty_like(r)
    for k in range(_MILLER_START, 0, -1):
        if k % 2 == 0:
            even_sum += b
        for i in slots.get(k, ()):
            out[i] = b
        np.divide(2.0 * k, r, out=work)
        work *= b
        work -= b_next
        b_next, b, work = b, work, b_next
        if np.abs(b, out=work).max() > 2.0**600:
            scale = np.where(work > 2.0**600, 2.0**-600, 1.0)
            b *= scale
            b_next *= scale
            even_sum *= scale
            out *= scale
    for i in slots.get(0, ()):
        out[i] = b
    even_sum *= 2.0
    even_sum += b
    out /= even_sum
    return out


def _hankel_rows(orders, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """J0 and J1 from the Hankel sums, each higher order by forward recurrence
    J_{k+1} = (2k/r) J_k - J_{k-1}, always started from J0 and J1."""
    slots = _slots(orders)
    out = np.empty((len(orders), r.shape[0])) if out is None else out
    jk, jnext = _asym_j0_j1(r)  # J_k and J_{k+1} from k = 0
    work = np.empty_like(r)
    top = max(orders)
    for k in range(top + 1):
        for i in slots.get(k, ()):
            out[i] = jk
        if k < top:
            np.divide(2.0 * (k + 1), r, out=work)
            work *= jnext
            work -= jk
            jk, jnext, work = jnext, work, jk
    return out


# ---------------------------------------------------------------------------
# The exact fixed-point series oracle
# ---------------------------------------------------------------------------

_ORACLE_MAX_R = 200.0


def bessel_series_oracle(n: int, r: float, precision_bits: int) -> CertifiedValue:
    """Rigorous enclosure of J_n(r) from the alternating power series.

    The partial sums are computed in fixed-point integer arithmetic with
    enough guard bits to absorb the ~e^r growth of the largest term; every
    floor division contributes an explicitly tracked error unit, and the
    discarded tail is bounded by the first omitted term once the term ratio
    drops below one.  The returned midpoint and radius are exact rationals;
    the radius is far below 2^(4 - precision_bits) * max(1, |J_n(r)|).
    """
    n = as_order(n)
    r = float(_check_r(r))
    if r > _ORACLE_MAX_R:
        raise ValueError(
            f"series oracle supports r <= {_ORACLE_MAX_R:g} (got {r:g}); "
            "the alternating series loses all significance beyond that"
        )
    precision_bits = as_integer(precision_bits, "precision bits")
    if precision_bits < 8:
        raise ValueError("precision_bits must be at least 8")
    if r == 0.0:
        return CertifiedValue(Fraction(1 if n == 0 else 0), Fraction(0))

    # guard bits: the largest series term is ~e^r, i.e. ~1.443*r bits tall
    bits = precision_bits + int(1.443 * r) + 64
    q = Fraction(r) / 2
    x = q * q  # exact dyadic rational
    px, sx = x.numerator, x.denominator.bit_length() - 1
    require(x.denominator == 1 << sx, "series oracle argument is not dyadic")

    qn = q**n
    num, den_pow = qn.numerator, qn.denominator.bit_length() - 1
    t = (num << (bits + 0)) // (math.factorial(n) << den_pow)  # fixed-point a_0
    err = Fraction(1)  # bound on |t - true*2^bits|
    total = t
    err_total = err
    sign = -1
    k = 0
    while True:
        k += 1
        d = k * (n + k)
        t = (t * px >> sx) // d
        err = (err * x + 1) / d + 1
        total += sign * t
        err_total += err
        sign = -sign
        ratio_next = x / ((k + 1) * (n + k + 1))
        if t == 0 and ratio_next < Fraction(1, 2):
            # remaining true tail is dominated by a geometric series starting
            # from the (bounded) next term
            tail_units = (t + err) * ratio_next / (1 - ratio_next)
            err_total += tail_units
            break
        if k > 100000:  # pragma: no cover - cannot trigger for r <= 200
            raise RuntimeError("series oracle failed to terminate")

    scale = Fraction(1, 1 << bits)
    return CertifiedValue(total * scale, err_total * scale)
