"""Helpers that only the test suite calls, built on the package.

Each one checks a lemma or a rule from outside the package's own paths: the
Stirling enclosure of Gamma, the generic Hankel expansion of J_n with its
certified remainder, float evaluation of a remaindered expansion,
the paper's composite Newton-Cotes rule on a plain callable, exact interval
queries on a ``CertifiedValue``, the readers of the CLI's schema-1 JSON, and
the ``Fraction`` rule that ``check_theorem``'s integer verdict replaced.
Unlike ``hiprec``, which shares no code with the package, these reuse its
pieces.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from besselsix.bessel import asymptotic_remainder, phase
from besselsix.certify import NORMALIZATION, theorem_constants
from besselsix.core_integrals import CoreBoundBreakdown, main_term
from besselsix.exactnum import Budget, CertifiedValue, ExactScalar, a_coeff, as_integer
from besselsix.expansions import RemainderedExpansion, TrigPoly
from besselsix.quadrature import _NC7Region


def contains(v: CertifiedValue, x) -> bool:
    """Is x in [mid - rad, mid + rad]?  Compared exactly."""
    m, r, x = Fraction(v.mid), Fraction(v.rad), Fraction(x)
    return m - r <= x <= m + r


def encloses(outer: CertifiedValue, inner: CertifiedValue) -> bool:
    """Is ``inner``'s interval inside ``outer``'s?  Compared exactly."""
    m, r = Fraction(outer.mid), Fraction(outer.rad)
    om, orad = Fraction(inner.mid), Fraction(inner.rad)
    return m - r <= om - orad and om + orad <= m + r


def theorem_verdict(m: int, n: int, variant: str, measured: CertifiedValue) -> bool:
    """``check_theorem``'s verdict by the ``Fraction`` rule: |mid - main| +
    rad, plus 2 ulp of the rounded main term, at most the constant's decimal
    times n^-4."""
    main = (NORMALIZATION * main_term(m, n, variant)).to_real()
    deviation = abs(Fraction(measured.mid) - Fraction(main)) + Fraction(measured.rad)
    return deviation + Fraction(2 * math.ulp(main)) <= Fraction(str(theorem_constants(m, n, variant))) / n**4


def expansion_from_payload(payload: dict) -> RemainderedExpansion:
    """The expansion an ``expansion --json`` payload describes."""
    terms = tuple(
        TrigPoly(tuple(((i, j, k), Fraction(v)) for i, j, k, v in term))
        for term in payload["terms"]
    )
    remainders = tuple(Fraction(v) for v in payload["remainders"])
    return RemainderedExpansion(terms, remainders)


def integrate_from_payload(payload: dict) -> tuple[CertifiedValue, Budget]:
    """The enclosure and budget an ``integrate --json`` payload describes;
    its stored total must be the items' sum."""
    items = dict(payload["budget"])
    total = items.pop("total")
    budget = Budget(items.items())
    if total != budget.total:
        raise ValueError("budget total must equal the sum of its items")
    return CertifiedValue(payload["mid"], payload["rad"]), budget


def breakdown_from_payload(payload: dict) -> CoreBoundBreakdown:
    """The breakdown a ``core-bounds --breakdown`` payload describes."""
    return CoreBoundBreakdown(
        main_cos=ExactScalar(Fraction(payload["main_cos"])),
        main_sin=ExactScalar(Fraction(payload["main_sin"])),
        e1_cos=payload["e1_cos"],
        e1_sin=payload["e1_sin"],
        e2_cos=payload["e2_cos"],
        e2_sin=payload["e2_sin"],
    )


def stirling_gamma_bounds(x: float) -> tuple[float, float]:
    """A rigorous two-sided enclosure of Gamma(x) for x > 0.

    Stirling's formula with the classical correction-term bounds
    ``1/(12x+1) < mu(x) < 1/(12x)`` gives

        sqrt(2 pi) x^(x-1/2) e^(-x) e^(1/(12x+1))  <  Gamma(x)
                                     <  sqrt(2 pi) x^(x-1/2) e^(-x) e^(1/(12x)).

    The endpoints are evaluated in floating point and widened by 4 ulp each to
    absorb the evaluation rounding.
    """
    if not (x > 0) or not math.isfinite(x):
        raise ValueError(f"stirling_gamma_bounds requires x > 0, got {x}")
    common = math.sqrt(2.0 * math.pi) * x ** (x - 0.5) * math.exp(-x)
    lo = common * math.exp(1.0 / (12.0 * x + 1.0))
    hi = common * math.exp(1.0 / (12.0 * x))
    for _ in range(4):
        lo = math.nextafter(lo, -math.inf)
        hi = math.nextafter(hi, math.inf)
    return lo, hi


def _horner(coeffs, u):
    """coeffs[0] + coeffs[1] u + coeffs[2] u^2 + ...; elementwise on arrays."""
    total = 0.0
    for c in reversed(coeffs):
        total = total * u + c
    return total


def _hankel_coeffs(n: int, ell: int) -> list[list[float]]:
    """The signed coefficients (-1)^i a_2i(n) and (-1)^i a_2i+1(n) of the
    cosine and sine sums P and Q, for indices below ell."""
    return [[(-1) ** (j // 2) * float(a_coeff(j, n).coeff) for j in range(first, ell, 2)] for first in (0, 1)]


def hankel_sums(n: int, r, ell: int):
    """The sums P and Q/r of J_n's ell-term expansion; elementwise on arrays."""
    p, q = _hankel_coeffs(n, ell)
    u = 1.0 / (r * r)
    return _horner(p, u), _horner(q, u) / r


def asymptotic_eval(n: int, r: float, ell: int) -> CertifiedValue:
    """Enclosure of J_n(r) from the ell-term asymptotic expansion: the
    certified truncation remainder plus an estimated float allowance, which
    is why it serves the tests only."""
    ell = as_integer(ell, "term counts")  # the sums below need an int
    remainder = asymptotic_remainder(n, r, ell)  # checks the domain
    p, q = hankel_sums(n, r, ell)
    cp, cq = _hankel_coeffs(n, ell)
    u = 1.0 / (r * r)
    abs_scale = _horner([abs(c) for c in cp], u) + _horner([abs(c) for c in cq], u) / r
    omega = phase(n, r)
    amp = math.sqrt(2.0 / (math.pi * r))
    mid = amp * (math.cos(omega) * p - math.sin(omega) * q)
    # float slack: Horner roundings (~2 ulp per term) on sums bounded by
    # abs_scale (the same sums over |a_k|), the phase error
    # 4e-16*(1+log2(1+r)) acting through the derivative of cos/sin, and the
    # final multiplications.
    phase_err = 4e-16 * (1.0 + math.log2(1.0 + r))
    slack = amp * (abs_scale * (2.0 * ell + 6.0) * 2.0 ** -52 + phase_err * (abs(p) + abs(q)))
    return CertifiedValue(mid, remainder * (1.0 + 1e-12) + slack)


def evaluate(p: TrigPoly, c: float, s: float, t: float) -> float:
    """p at c = cos(r - pi/4), s = sin(r - pi/4) and t = 1/(16r), in floats."""
    total = 0.0
    for (i, j, k), v in p.coeffs:
        total += float(v) * c**i * s**j * t**k
    return total


def eval_expansion(e: RemainderedExpansion, r: float, K: int) -> CertifiedValue:
    """Evaluate the first K terms at r; radius = remainders[K] * (16r)^(-K).

    The trig arguments come from the certified phase reduction, so the
    midpoint is accurate to a few 1e-16 relative; the radius is the
    expansion's own truncation bound (it does not include that float dust).
    """
    if not (r > 0):
        raise ValueError("r must be positive")
    K = as_integer(K, "term counts")
    if not (0 <= K <= 6):
        raise ValueError("K must lie in 0..6")
    w = phase(0, r)
    c, s = math.cos(w), math.sin(w)
    t = 1.0 / (16.0 * r)
    mid = 0.0
    for k in range(K - 1, -1, -1):  # smallest contributions accumulated first
        mid += evaluate(e.terms[k], c, s, t)
    rad = float(e.remainders[K]) * (16.0 * r) ** float(-K)
    return CertifiedValue(mid, rad)


def nc7_composite(f, a: float, b: float, w: float) -> float:
    """Composite 7-point Newton-Cotes approximation of integral_a^b f.

    ``f`` must be vectorized: it is called with a float ndarray of nodes and
    returns an array of the same shape (a constant broadcasts).  [a, b] must
    be an integer number of width-6w panels.  Exact for polynomials through
    degree 7; for C^8 integrands the error is bounded by
    ``(b - a) * w^8 * (6^3/5) * sup|f^(8)| / 8!``.
    """
    region = _NC7Region(a, b, w)
    nodes, weights = region.chunk(0, region.size())
    return float(np.sum(weights * np.broadcast_to(f(nodes), nodes.shape)))
