"""Exact closed forms and bounds for integrals of two Bessel functions.

The building blocks: the Weber-Schafheitlin Gamma-quotient for
int J_n J_m r^(-k) (its k = 1 case is Kapteyn's value of int J_n J_m / r,
(2/pi) sin((m-n)pi/2) / (m^2 - n^2), or 1/(2n) at n = m), the exact-zero
test for frequency-2 trigonometric weights, and the descent-method bound
dominating the frequency-4 integrals; ``core_integrals`` checks the last two
on the path of every n >= 20 bound.  Everything is exact rational (or
rational times a power of sqrt(pi)) arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import ExactScalar, Rational, as_order, gamma_ratio, require

__all__ = [
    "weber_schafheitlin",
    "vanishes_freq2",
    "descent_bound",
]


def weber_schafheitlin(n: int, m: int, k: int) -> ExactScalar:
    """int_0^inf J_n J_m r^(-k) dr as an exact Gamma quotient,

        2^(-k) G(k) G((m+n+1-k)/2) /
            [G((m+n+1+k)/2) G((n-m+k+1)/2) G((m-n+k+1)/2)]

    for 1 <= k <= n + m.  Parity makes the result either rational or
    rational/pi; a 1/Gamma zero in the denominator yields exact 0.
    """
    n, m, k = as_order(n), as_order(m), as_order(k)
    if not (1 <= k <= n + m):
        raise ValueError(f"k must satisfy 1 <= k <= n + m, got k={k}, n+m={n + m}")
    head = ExactScalar(Fraction(math.factorial(k - 1), 2**k))
    # the numerator Gamma((m+n+1-k)/2) can never hit a pole since k <= n+m
    value = (
        head
        * gamma_ratio(m + n + 1 - k, m + n + 1 + k)
        * gamma_ratio(2, n - m + k + 1)
        * gamma_ratio(2, m - n + k + 1)
    )
    require(value.sqrtpi_power in (0, -2), "weber_schafheitlin left a stray sqrt(pi) power")
    return value


def vanishes_freq2(n: int, m: int, k: int, trig: str) -> bool:
    """Exact-zero test for int J_n J_m trig(2r) r^(-k) dr, k >= 1 and trig
    "cos" or "sin".

    True precisely under the hypotheses that force the value to vanish:
    n, m of equal parity, k <= n+m, and the trig factor matching the
    parity of k (cos with even k, sin with odd k).  False makes no claim
    about the value.
    """
    n, m, k = as_order(n), as_order(m), as_order(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    if trig not in ("cos", "sin"):
        raise ValueError(f'trig must be "cos" or "sin", got {trig!r}')
    return (n - m) % 2 == 0 and k <= n + m and trig == ("cos" if k % 2 == 0 else "sin")


def descent_bound(n: int, m: int, k: int) -> Rational:
    """Bound 2^(k-1) 4^(-(n+m)) (n+m-k)! / (n! m!) dominating the modulus
    of the frequency-4 integral int J_n J_m r^(-k) e^(4ir) dr."""
    n, m, k = as_order(n), as_order(m), as_order(k)
    if not (1 <= k < n + m):
        raise ValueError(f"k must satisfy 1 <= k < n + m, got k={k}, n+m={n + m}")
    return Fraction(
        2 ** (k - 1) * math.factorial(n + m - k),
        4 ** (n + m) * math.factorial(n) * math.factorial(m),
    )
