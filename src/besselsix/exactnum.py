"""Exact rational arithmetic, half-integer Gamma values, and Gamma inequalities.

The module also states the package's input rules once (orders, the cells
each route accepts, variants and table rows) and holds ``CertifiedValue``,
the midpoint-and-radius pair both routes return, and ``Budget``, the
itemized radius behind it; none of it needs numpy.
Everything else here is either exact (arbitrary-precision rationals,
optionally carrying a power of sqrt(pi)) or a closed-form upper bound (the
Gaussian binomial bound and the coefficient-size lemma).  These are the
scalars that all closed-form integral values and asymptotic-series
coefficients are built from; keeping them exact is what lets the higher
layers compare recomputed constants against their stored counterparts with
``==`` instead of a tolerance.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "N0",
    "N_MAX",
    "M_MAX",
    "WS_ORDER_MAX",
    "Cells",
    "DOMAIN",
    "CertificationError",
    "require",
    "as_integer",
    "as_order",
    "as_even_order",
    "check_cell",
    "check_variant",
    "Rational",
    "ExactScalar",
    "CertifiedValue",
    "Budget",
    "gamma_half",
    "gamma_ratio",
    "a_coeff",
    "gaussian_binomial_bound",
    "a_m4_bound",
]

#: Exact rational numbers (arbitrary precision, always in lowest terms).
Rational = Fraction

#: The anchor order: all printed constants are calibrated at n = 20.
N0 = 20

#: The largest n the n >= N0 route accepts.  Its fastest-falling bound is
#: ``estimate_B`` at m = 4, c/N0 n^-8 with c >= 2.823, which is a normal
#: float up to here and subnormal from about n = 2.2e38 on.
N_MAX = 10**38


class CertificationError(Exception):
    """A recomputed proof quantity broke its printed constant, or a stored
    table no longer re-derives.  Not a ValueError: the input was fine."""


def require(condition: bool, message: str) -> None:
    """The package's one check: unlike ``assert`` it also runs under ``python -O``."""
    if not condition:
        raise CertificationError(message)


def as_integer(x, what: str) -> int:
    """``x`` as an int: 7.0 and numpy ints pass; 7.5, inf, nan and
    non-numbers raise ValueError saying that ``what`` must be integers."""
    if type(x) is int:  # the common case, without the round trip
        return x
    try:
        k = int(x)
    except (OverflowError, TypeError, ValueError):
        k = None
    if k is None or x != k:
        raise ValueError(f"{what} must be integers, got {x!r}")
    return k


def as_order(x) -> int:
    """``x`` as an int order, by ``as_integer``, if it is nonnegative: the
    package's one statement of what an order is."""
    k = as_integer(x, "orders")
    if k < 0:
        raise ValueError(f"orders must be nonnegative, got {k}")
    return k


def as_even_order(m) -> int:
    """``m`` as an int order, if it is even and nonnegative: the paper's m."""
    m = as_integer(m, "orders")
    if m < 0 or m % 2:
        raise ValueError(f"m must be even and nonnegative, got {m}")
    return m


#: The largest m the n >= N0 route accepts.  Its first use at each m costs
#: time roughly in m^2 (e1's series weights): about 0.5 s at the cap.
M_MAX = 3000

#: The largest order ``weber_schafheitlin`` accepts, 0.2 s at n = 10^4 (its cost
#: grows with the orders); above 2 M_MAX + 9, the largest order the n >= N0 series passes.
WS_ORDER_MAX = 10**4

#: The cells (m, n) a route accepts: m even if ``even_m`` and at most ``m_max``,
#: n_min <= n <= n_max, n + m <= order_max, and m <= n if ``m_le_n``; an
#: infinite bound is no bound, and ``what`` names the route in refusals.
Cells = namedtuple("Cells", "what even_m n_min n_max order_max m_max m_le_n")

#: The package's domain: each route's cells, the one statement every
#: cell-taking function reads through ``check_cell``.
DOMAIN = {
    "analytic": Cells("the certified regime", True, N0, N_MAX, math.inf, M_MAX, True),
    # the closed forms in n of the main terms hold at m > n too
    "main": Cells("the main term", True, 2, math.inf, math.inf, math.inf, False),
    # the tail constants cover n + m <= 37
    "quadrature": Cells("the tail budget", True, 0, math.inf, 37, math.inf, True),
    "theorem": Cells("the theorem", True, 2, N_MAX, math.inf, M_MAX, True),
    "closed_form": Cells("the closed form", False, 0, WS_ORDER_MAX, math.inf, WS_ORDER_MAX, False),
}


def check_cell(route: str, m, n) -> tuple[int, int]:
    """(m, n) as ints, if ``DOMAIN[route]`` accepts the cell; else ValueError."""
    what, even_m, n_min, n_max, order_max, m_max, m_le_n = DOMAIN[route]
    m = as_even_order(m) if even_m else as_order(m)
    n = as_order(n)
    if n < n_min:
        raise ValueError(f"{what} needs n >= {n_min}")
    if n > n_max:
        raise ValueError(f"{what} needs n <= {n_max:g}")
    if m > m_max:
        raise ValueError(f"{what} needs m <= {m_max:g}")
    if n + m > order_max:
        raise ValueError(f"{what} needs n + m <= {order_max}, got {n + m}")
    if m_le_n and m > n:
        raise ValueError(f"m must not exceed n, got m={m}, n={n}")
    return m, n


#: The fixed orders (a, b, c) of each family's integrand J_{n+m} J_n J_m J_a J_b J_c r.
_FIXED_ORDERS = {"I0": (0, 0, 0), "I1": (1, 1, 0)}


def check_variant(variant: str) -> str:
    """``variant`` itself, if it names one of the two integral families."""
    if variant not in _FIXED_ORDERS:
        raise ValueError(f"variant must be 'I0' or 'I1', got {variant!r}")
    return variant


#: The verification table's rows n: 2 <= n < N0, where only quadrature applies.
_TABLE_ROWS = range(2, N0)


def _table_rows(n_range) -> tuple[int, ...]:
    """``n_range`` as int table rows, if each is one of ``_TABLE_ROWS``."""
    rows = tuple(as_order(n) for n in n_range)
    for n in rows:
        if n not in _TABLE_ROWS:
            raise ValueError(f"table rows cover {_TABLE_ROWS[0]} <= n <= {_TABLE_ROWS[-1]}, got {n}")
    return rows


# sqrt(pi) truncated to 69 significant digits; used only to convert
# ExactScalar to a float, so the approximation error (below 1e-68) is far
# below half an ulp of the result.
_SQRTPI = Fraction(
    "1.77245385090551602729816748334114518279754945612238712821380778985291"
)


@lru_cache(maxsize=None)
def _sqrtpi_power(k: int) -> Fraction:
    """``_SQRTPI ** k``, computed once per exponent."""
    return _SQRTPI**k


@dataclass(frozen=True)
class ExactScalar:
    """A rational number times an integer power of sqrt(pi).

    ``coeff * pi**(sqrtpi_power/2)`` is the represented value.  Multiplication
    adds exponents; addition is only defined between equal exponents (adding
    incommensurable pi-powers would silently lose exactness, so it raises).
    The zero value is normalized to ``sqrtpi_power == 0``.
    """

    coeff: Fraction
    sqrtpi_power: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.coeff, Fraction):
            object.__setattr__(self, "coeff", Fraction(self.coeff))
        if self.coeff == 0 and self.sqrtpi_power != 0:
            object.__setattr__(self, "sqrtpi_power", 0)

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            return NotImplemented
        if self.coeff == 0:
            return other
        if other.coeff == 0:
            return self
        if self.sqrtpi_power != other.sqrtpi_power:
            raise ValueError(
                "cannot add ExactScalars with different sqrt(pi) powers "
                f"({self.sqrtpi_power} vs {other.sqrtpi_power})"
            )
        return ExactScalar(self.coeff + other.coeff, self.sqrtpi_power)

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        return self + (-other)

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(-self.coeff, self.sqrtpi_power)

    def __mul__(self, other):
        if isinstance(other, ExactScalar):
            return ExactScalar(
                self.coeff * other.coeff, self.sqrtpi_power + other.sqrtpi_power
            )
        if isinstance(other, (int, Fraction)):
            return ExactScalar(self.coeff * other, self.sqrtpi_power)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ExactScalar):
            if other.coeff == 0:
                raise ZeroDivisionError("division by zero ExactScalar")
            return ExactScalar(
                self.coeff / other.coeff, self.sqrtpi_power - other.sqrtpi_power
            )
        if isinstance(other, (int, Fraction)):
            return ExactScalar(self.coeff / other, self.sqrtpi_power)
        return NotImplemented

    def is_zero(self) -> bool:
        return self.coeff == 0

    # -- conversion ------------------------------------------------------

    def to_real(self) -> float:
        """The value as a float, correct to within 2 ulp."""
        # One exact product with a 69-digit sqrt(pi), left unreduced, then
        # one int true division, which CPython rounds correctly, as
        # float(Fraction) does: the same float without a gcd.
        s = _sqrtpi_power(self.sqrtpi_power)
        return self.coeff.numerator * s.numerator / (self.coeff.denominator * s.denominator)

    # -- serialization ---------------------------------------------------

    def serialize(self) -> str:
        """Lossless text form: ``p/q`` or ``p/q*sqrtpi^k`` for k != 0."""
        base = f"{self.coeff.numerator}/{self.coeff.denominator}"
        if self.sqrtpi_power == 0:
            return base
        return f"{base}*sqrtpi^{self.sqrtpi_power}"

    _PARSE_RE = re.compile(
        r"^(?P<num>-?\d+)/(?P<den>\d+)(?:\*sqrtpi\^(?P<pow>-?\d+))?$"
    )

    @classmethod
    def parse(cls, text: str) -> "ExactScalar":
        m = cls._PARSE_RE.match(text.strip())
        if m is None or int(m.group("den")) == 0:
            raise ValueError(f"not a serialized ExactScalar: {text!r}")
        coeff = Fraction(int(m.group("num")), int(m.group("den")))
        power = int(m.group("pow") or 0)
        return cls(coeff, power)

    def __str__(self) -> str:
        return self.serialize()


@dataclass(frozen=True)
class CertifiedValue:
    """A midpoint with a rigorous absolute-error radius.

    Enclosure semantics: the true value lies in [mid - rad, mid + rad].
    Midpoint and radius may be floats or exact ``Fraction``s (the series
    oracle returns exact ones, so its enclosures can be tighter than one
    float ulp).
    """

    mid: float | Fraction
    rad: float | Fraction

    def __post_init__(self) -> None:
        # a Fraction or an int is finite, and may be too large for a float
        for name, value in (("midpoint", self.mid), ("radius", self.rad)):
            if not (isinstance(value, (int, Fraction)) or math.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value}")
        if not (self.rad >= 0):
            raise ValueError(f"radius must be nonnegative, got {self.rad}")


class Budget(tuple):
    """An itemized absolute-error bound: (name, value) pairs, each value
    nonnegative.  A tuple, so ``dict(budget)`` and ``for name, value in
    budget`` read it."""

    __slots__ = ()

    def __new__(cls, items):
        self = super().__new__(cls, items)
        for name, value in self:
            if not (value >= 0):
                raise ValueError(f"budget item {name} must be nonnegative, got {value}")
        return self

    @property
    def total(self) -> float:
        """The radius the items certify: their plain float sum, left to right."""
        return sum(value for _, value in self)


def _is_pole(two_x: int) -> bool:
    """Is two_x/2 a pole of Gamma, i.e. a nonpositive integer?"""
    return two_x % 2 == 0 and two_x <= 0


def _gamma_factor(two_x: int) -> tuple[Fraction, int]:
    """Decompose Gamma(two_x/2) = poch * Gamma(base), base in {1/2, 1}.

    Returns ``(poch, base_two)`` with ``base_two`` in {1, 2}; two_x/2 must
    not be a pole.  Uses only the functional equation Gamma(x+1) = x*Gamma(x),
    so the factor is exact and carries the correct sign for negative
    half-integer arguments.
    """
    x = Fraction(two_x, 2)
    poch = Fraction(1)
    while x > 1:
        x -= 1
        poch *= x
    while x <= 0:
        poch /= x
        x += 1
    # x is now 1/2 or 1
    return poch, x.numerator * 2 // x.denominator


def gamma_half(two_x: int) -> ExactScalar:
    """Gamma(two_x/2), exact, for integer and half-integer arguments.

    Half-integer arguments (odd ``two_x``, of either sign) give a rational
    multiple of sqrt(pi); positive even ``two_x`` gives the exact factorial.
    Nonpositive integer arguments are poles and raise ValueError.
    """
    two_x = as_integer(two_x, "doubled Gamma arguments")
    if _is_pole(two_x):
        raise ValueError(f"Gamma pole at argument {two_x}/2")
    poch, base_two = _gamma_factor(two_x)
    return ExactScalar(poch, 1 if base_two == 1 else 0)


def gamma_ratio(two_a: int, two_b: int) -> ExactScalar:
    """Gamma(two_a/2) / Gamma(two_b/2), exact.

    When a - b is an integer the ratio is the short product
    b(b+1)...(a-1), or the reciprocal of a(a+1)...(b-1), of |a - b|
    factors however large a and b are; otherwise both arguments are reduced
    to the base interval (0, 1] with the functional equation.  A pole in
    the denominator yields exact zero (1/Gamma vanishes there); a pole in
    the numerator -- alone or together with one in the denominator --
    raises, since the ratio is then not determined.
    """
    what = "doubled Gamma arguments"
    two_a, two_b = as_integer(two_a, what), as_integer(two_b, what)
    if _is_pole(two_a):
        raise ValueError(
            f"Gamma pole in numerator at argument {two_a}/2; ratio undefined here"
        )
    if _is_pole(two_b):
        return ExactScalar(Fraction(0))
    if (two_a - two_b) % 2 == 0:
        # each factor is two_x/2 for an even step of two_x between the two;
        # none is zero, as neither argument is a pole
        if two_a >= two_b:
            return ExactScalar(Fraction(math.prod(range(two_b, two_a, 2)), 2 ** ((two_a - two_b) // 2)))
        return ExactScalar(Fraction(2 ** ((two_b - two_a) // 2), math.prod(range(two_a, two_b, 2))))
    poch_a, base_a = _gamma_factor(two_a)
    poch_b, base_b = _gamma_factor(two_b)
    power = (1 if base_a == 1 else 0) - (1 if base_b == 1 else 0)
    return ExactScalar(poch_a / poch_b, power)


@lru_cache(maxsize=None)
def a_coeff(j: int, n: int) -> ExactScalar:
    """Coefficient a_j(n) of the large-argument asymptotic series of J_n.

    a_j(n) = Gamma(n+j+1/2) / (Gamma(n-j+1/2) j! 2^j), always a pure rational
    (both Gamma arguments are half-integers, so the sqrt(pi) factors cancel).
    For j > n the denominator Gamma is evaluated at a negative half-integer,
    which contributes the alternating sign of the reflected value.  Cached:
    the exact error terms ask for the same few a_j(n) many times, and the
    frozen result is safe to share.
    """
    j, n = as_order(j), as_order(n)
    ratio = gamma_ratio(2 * (n + j) + 1, 2 * (n - j) + 1)
    require(ratio.sqrtpi_power == 0, "a_coeff left a sqrt(pi) factor")
    return ExactScalar(ratio.coeff / (math.factorial(j) * 2**j))


def gaussian_binomial_bound(x: float, d: float) -> float:
    """Upper bound (e^(1/24)/(2 sqrt(pi))) x^(1/2) 2^(2x) e^(-d^2/x).

    Dominates the central-binomial-type quotient
    Gamma(2x)/(Gamma(x+d)Gamma(x-d)) for x >= 1, 0 <= d < x; the Gaussian
    factor e^(-d^2/x) captures the decay away from the central term.
    """
    if not (x >= 1.0) or not (0.0 <= d < x):
        raise ValueError(f"gaussian_binomial_bound requires x >= 1, 0 <= d < x; got {x=}, {d=}")
    return (
        math.exp(1.0 / 24.0)
        / (2.0 * math.sqrt(math.pi))
        * math.sqrt(x)
        * 2.0 ** (2.0 * x)
        * math.exp(-d * d / x)
    )


def a_m4_bound(m: int) -> float:
    """Closed-form dominating bound for |a_{m+4}(m)|, any integer m >= 1.

    Returns (105/16) sqrt(2/pi) (2m-1)^(-1/2) 2^m m^m e^(-m).  The growth of
    the asymptotic-series coefficient four past the diagonal is captured by
    the factor (2m/e)^m; the test suite verifies dominance for 1 <= m <= 40
    against the exact a_coeff values.
    """
    if m < 1:
        raise ValueError("a_m4_bound requires m >= 1")
    # exp/log form so the bound stays evaluable well past m = 40
    log_core = m * (math.log(2.0) + math.log(float(m)) - 1.0)
    return (
        105.0 / 16.0
        * math.sqrt(2.0 / math.pi)
        / math.sqrt(2.0 * m - 1.0)
        * math.exp(log_core)
    )
