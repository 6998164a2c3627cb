"""Certified large-order predictions and the theorem constant map.

For n >= 20 the two integral families are pinned down by an exact main
expression plus a fully itemized error budget: remainder of the sixfold
expansion, remainder of the pair expansion, the constant-frequency tail
terms and the oscillatory-frequency terms.  The budget items are the
printed constants behind estimate_A, estimate_B, e1_bound and e2_bound,
relaxed to the anchor n0 = 20.  Each constant is read only through the
first-use check that guards it, in the module that owns its table, so a
constant that fails its recomputation fails the bounds and every
prediction alike; the items' roll-ups are stored and revalidated against
their sums.  The items form an ``exactnum.Budget``, whose total is the
radius.  Everything is finally scaled by the kernel normalization
4/pi^2.

Below n = 20 nothing here applies -- that regime is handled by rigorous
quadrature instead.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import core_integrals, expansions
from .core_integrals import main_term
from .exactnum import (
    N0,
    Budget,
    CertifiedValue,
    ExactScalar,
    as_even_order,
    as_order,
    check_cell,
    check_variant,
    require,
)

__all__ = [
    "NORMALIZATION",
    "Prediction",
    "TheoremCheck",
    "THEOREM_MAP",
    "predict",
    "theorem_constants",
    "check_theorem",
]

#: The kernel normalization 4/pi^2, kept exact.
NORMALIZATION = ExactScalar(Fraction(4), -4)
_NORMALIZATION_FLOAT = NORMALIZATION.to_real()

@dataclass(frozen=True)
class Prediction:
    """An enclosure of one integral for n >= 20: exact center, certified
    radius ``budget.total``."""

    variant: str
    m: int
    n: int
    main: ExactScalar
    budget: Budget

    @property
    def radius(self) -> float:
        return self.budget.total


# ---------------------------------------------------------------------------
# the itemized budget
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _budget_constants(m: int, variant: str) -> tuple[tuple[str, float], ...]:
    """The anchored per-item constants of the bracketed budget sum, as
    (name, constant) pairs, read through the checks of the four bounds'
    printed constants.  Cached: those checks depend on (m, variant) alone.

    Multiplied by n^-tau (tau = 6 for m = 4, else 4) these give the
    unnormalized radius.  A factor n^-k beyond n^-tau is relaxed to the
    anchor 20^-k, which needs k >= 0; e1 and e2 add their cosine and sine
    routes, which needs one e1 exponent pair for both.
    """
    tau, theta = core_integrals._decay(m)
    c_b, tau_b = core_integrals._b_dominates(m, variant)
    c_cos, p0, pn = core_integrals._e1_dominates(m, variant, "cos")
    c_sin, p0_sin, pn_sin = core_integrals._e1_dominates(m, variant, "sin")
    require(pn >= tau, f"e1 n-exponent {pn} of {m, variant} is below tau = {tau}")
    require((p0_sin, pn_sin) == (p0, pn), f"e1 routes of {m, variant} have different exponents")
    require(tau_b >= tau, f"B exponent {tau_b} of {m, variant} is below tau = {tau}")
    return (
        ("estimate_A", float(expansions._a_dominates(variant)) * float(N0) ** (tau - 6.5)),
        ("estimate_B", float(c_b) / float(N0) ** (1 + tau_b - tau)),
        ("e1", (float(c_cos) + float(c_sin)) / float(N0) ** (p0 + pn - tau)),
        ("e2", 2 * float(core_integrals._e2_dominates(m, variant)) * theta**N0),
    )


# stored roll-ups of the budget constants, truncated outward at four decimals
_ROLLED = {
    (0, "I0"): 0.0030,
    (0, "I1"): 0.0028,
    (2, "I0"): 0.0028,
    (2, "I1"): 0.0015,
    (4, "I0"): 0.197,
    (4, "I1"): 0.264,
    (6, "I0"): 0.0022,
    (6, "I1"): 0.0020,
}


@lru_cache(maxsize=None)
def _rolled_ok(m_case: int, variant: str) -> None:
    total = sum(c for _, c in _budget_constants(m_case, variant))
    require(total <= _ROLLED[(m_case, variant)], f"roll-up of {m_case, variant} fails")


def predict(m: int, n: int, variant: str) -> Prediction:
    """Exact main expression and certified radius for one integral.

    The radius is the itemized budget times the 4/pi^2 normalization; the
    main field is the normalized exact main term (zero for m >= 6).  The
    budget reads each printed constant through the check that guards it, so
    a constant that fails its recomputation, or a roll-up below its sum,
    fails the prediction too.
    """
    check_variant(variant)
    m, n = check_cell("analytic", m, n)
    constants = _budget_constants(m, variant)
    _rolled_ok(min(m, 6), variant)
    tau, _ = core_integrals._decay(m)
    scale = _NORMALIZATION_FLOAT * float(n) ** -tau
    return Prediction(
        variant=variant,
        m=m,
        n=n,
        main=NORMALIZATION * main_term(m, n, variant),
        budget=Budget((name, c * scale) for name, c in constants),
    )


# ---------------------------------------------------------------------------
# theorem constants
# ---------------------------------------------------------------------------

#: Applicability map: (variant, m_lo, m_hi, n_lo, n_hi, constant), first
#: match wins.  A None bound is unbounded; n_lo None means n >= m.
THEOREM_MAP: tuple[tuple[str, int, int | None, int | None, int | None, float], ...] = (
    ("I0", 0, 0, 2, 6, 0.01),
    ("I1", 0, 0, 2, 3, 0.01),
    ("I0", 0, 0, 7, None, 0.002),
    ("I1", 0, 0, 4, None, 0.002),
    ("I0", 2, 2, 2, None, 0.002),
    ("I1", 2, 2, 2, None, 0.002),
    ("I0", 4, 4, 4, None, 0.0015),
    ("I1", 4, 4, 4, None, 0.0015),
    ("I0", 6, None, None, None, 0.0015),
    ("I1", 6, None, None, None, 0.0015),
)


def theorem_constants(m: int, n: int, variant: str) -> float | None:
    """The deviation constant c with |I - main| < c n^-4, or None.

    None means no certified constant covers that cell (in particular any
    cell with m > n).
    """
    check_variant(variant)
    m, n = as_even_order(m), as_order(n)
    return None if m > n else _map_constant(m, n, variant)


def _map_constant(m: int, n: int, variant: str) -> float | None:
    """The first ``THEOREM_MAP`` constant whose row covers the cell, or None."""
    for row_variant, m_lo, m_hi, n_lo, n_hi, constant in THEOREM_MAP:
        if row_variant != variant:
            continue
        if m < m_lo or (m_hi is not None and m > m_hi):
            continue
        lo = m if n_lo is None else n_lo
        if n < lo or (n_hi is not None and n > n_hi):
            continue
        return constant
    return None


@dataclass(frozen=True)
class TheoremCheck:
    """Outcome of testing a measured enclosure against the theorem bound.

    ``deviation`` and ``allowance`` are plain floats.  ``exact_deviation``
    and ``exact_allowance`` are the two exact rationals the verdict
    compares: a bound on |measured - main| plus the radius, and c n^-4."""

    passed: bool
    deviation: float
    allowance: float
    # (numerator, denominator) of the exact deviation bound and allowance,
    # made ``Fraction``s only when read
    _deviation_ratio: tuple[int, int] = field(repr=False)
    _allowance_ratio: tuple[int, int] = field(repr=False)

    @property
    def slack(self) -> float:
        return self.allowance - self.deviation

    @property
    def exact_deviation(self) -> Fraction:
        return Fraction(*self._deviation_ratio)

    @property
    def exact_allowance(self) -> Fraction:
        return Fraction(*self._allowance_ratio)


def _ratio(x) -> tuple[int, int]:
    """x as an exact (numerator, denominator) of Python ints.  A numpy
    integer, which has no ``as_integer_ratio``, is read as its index."""
    return x.as_integer_ratio() if hasattr(x, "as_integer_ratio") else (operator.index(x), 1)


@lru_cache(maxsize=None)
def _decimal(constant: float) -> tuple[int, int]:
    """A theorem constant as the exact ratio of its decimal, parsed once."""
    return Fraction(str(constant)).as_integer_ratio()


def check_theorem(m: int, n: int, variant: str, measured: CertifiedValue) -> TheoremCheck:
    """Is |measured - main| certifiably below the theorem's c n^-4?

    The measured enclosure's full width counts against the allowance, so a
    pass is rigorous whenever the enclosure itself is.  The verdict is
    exact and in integers, one path for float, int and ``Fraction``
    enclosures, numpy numbers included: the midpoint, the rounded main
    term, the radius and the 2 ulp charged for that rounding are taken as
    integer ratios, summed over their product denominator without
    normalizing, and cross-multiplied with the constant read as its
    decimal.  The reported deviation and allowance are the plain float
    values, and the compared ones are exact rationals besides; an exact
    enclosure past the float range reports an infinite float deviation.  A
    map row covers each cell of ``DOMAIN["theorem"]``, the cells it takes.
    """
    check_variant(variant)
    m, n = check_cell("theorem", m, n)
    constant = _map_constant(m, n, variant)
    main = (NORMALIZATION * main_term(m, n, variant)).to_real()
    try:
        deviation = abs(float(measured.mid) - main) + float(measured.rad)
    except OverflowError:
        deviation = math.inf
    allowance = constant * float(n) ** -4
    p, q = _ratio(measured.mid)
    a, b = main.as_integer_ratio()
    r, s = _ratio(measured.rad)
    u, v = (2 * math.ulp(main)).as_integer_ratio()
    c, d = _decimal(constant)
    # |p/q - a/b| + r/s + u/v over the denominator q b s v
    num = (abs(p * b - a * q) * s + r * q * b) * v + u * q * b * s
    den = q * b * s * v
    passed = num * d * n**4 <= c * den
    return TheoremCheck(passed, deviation, allowance, (num, den), (c, d * n**4))
