"""Truncated asymptotic expansions with tracked remainder coefficients.

The rescaled Bessel function sqrt(pi r/2) J_n(r) admits a six-term
expansion in t = 1/(16r) whose coefficients are trigonometric monomials in
c = cos(r - pi/4) and s = sin(r - pi/4).  This module implements that
calculus: the polynomials, the carrier and Fourier rules, the two base
expansions, the product rule that propagates remainder bounds through
multiplication (building the triple products needed downstream), and the
Cauchy-Schwarz tail estimate for the sixth-order remainder integrated
against r^(-6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

from .exactnum import _FIXED_ORDERS, N0, Rational, a_coeff, check_cell, check_variant, gamma_ratio, require

__all__ = [
    "TrigPoly",
    "RemainderedExpansion",
    "base_expansion",
    "multiply",
    "product_expansion",
    "estimate_A",
    "estimate_A_recomputed",
]


@dataclass(frozen=True)
class TrigPoly:
    """Finitely supported polynomial sum of q * c^i s^j t^k monomials.

    Keys are (i, j, k) exponent triples for c = cos(r - pi/4),
    s = sin(r - pi/4), t = 1/(16r); values are exact rationals.
    """

    coeffs: tuple[tuple[tuple[int, int, int], Rational], ...]

    @staticmethod
    def from_dict(d: dict) -> "TrigPoly":
        items = tuple(sorted((k, Fraction(v)) for k, v in d.items() if v != 0))
        return TrigPoly(items)

    def as_dict(self) -> dict:
        return dict(self.coeffs)

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        d = self.as_dict()
        for key, v in other.coeffs:
            d[key] = d.get(key, Fraction(0)) + v
        return TrigPoly.from_dict(d)

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        d: dict = {}
        for (i1, j1, k1), v1 in self.coeffs:
            for (i2, j2, k2), v2 in other.coeffs:
                key = (i1 + i2, j1 + j2, k1 + k2)
                d[key] = d.get(key, Fraction(0)) + v1 * v2
        return TrigPoly.from_dict(d)

    def scale(self, q) -> "TrigPoly":
        q = Fraction(q)
        return TrigPoly(tuple((key, v * q) for key, v in self.coeffs))

    def norm(self) -> Rational:
        """Sum of absolute coefficient values (bounding |c^i s^j| by 1)."""
        return sum((abs(v) for _, v in self.coeffs), Fraction(0))

    def degree_t(self) -> int:
        return max((k for (_, _, k), _ in self.coeffs), default=0)

    def is_zero(self) -> bool:
        return not self.coeffs


def _mono(q, i: int, j: int, k: int) -> TrigPoly:
    return TrigPoly.from_dict({(i, j, k): Fraction(q)})


def _carrier(nu: int) -> TrigPoly:
    """cos w_nu as a (c, s) monomial: w_nu = w_0 - nu pi/2, so nu mod 4
    picks c, s, -c or -s.  sin w_nu is cos w_(nu+1)."""
    return _mono((-1) ** (nu % 4 // 2), 1 - nu % 2, nu % 2, 0)


def _fourier(p: TrigPoly) -> dict[tuple[str, int], dict[int, Rational]]:
    """p over the harmonics of w_0 = r - pi/4, exactly and with the t-grading
    kept: {(kind, h): {k: q}} for the terms q t^k cos(h w_0) (kind "cos",
    h >= 0) and q t^k sin(h w_0) (kind "sin", h >= 1), zero terms omitted.

    c^i s^j = 2^-i (2i)^-j (z + 1/z)^i (z - 1/z)^j with z = e^(i w_0).  For
    h > 0 its z^h and z^-h terms pair into 2 cos(h w_0), or for odd j into
    2i sin(h w_0); either way the powers of i leave the sign (-1)^(j//2).
    """
    out: dict[tuple[str, int], dict[int, Fraction]] = {}
    for (i, j, k), q in p.coeffs:
        kind = "sin" if j % 2 else "cos"
        for a in range(i + 1):
            for b in range(j + 1):
                h = 2 * (a + b) - i - j
                if h >= 0:
                    w = math.comb(i, a) * math.comb(j, b) * (-1) ** (j - b + j // 2) * (2 if h else 1)
                    d = out.setdefault((kind, h), {})
                    d[k] = d.get(k, 0) + q * Fraction(w, 2 ** (i + j))
    nonzero = ((h, {k: v for k, v in sorted(d.items()) if v}) for h, d in sorted(out.items()))
    return {h: d for h, d in nonzero if d}


@dataclass(frozen=True)
class RemainderedExpansion:
    """Six expansion terms (term k homogeneous of degree k in t) plus seven
    remainder coefficients: truncating after K terms deviates from the
    target function by at most remainders[K] * (16r)^(-K)."""

    terms: tuple[TrigPoly, ...]
    remainders: tuple[Rational, ...]

    def __post_init__(self) -> None:
        if len(self.terms) != 6 or len(self.remainders) != 7:
            raise ValueError("expected 6 terms and 7 remainder coefficients")
        if any(r < 0 for r in self.remainders):
            raise ValueError("remainder coefficients must be nonnegative")
        for k, term in enumerate(self.terms):
            if any(kt != k for (_, _, kt), _ in term.coeffs):
                raise ValueError(f"term {k} must be homogeneous of t-degree {k}")


# the uniform zeroth-order amplitude bounds: |J_0| <= (9/8) sqrt(2/(pi r)),
# |J_1| <= (11/8) sqrt(2/(pi r))
_R0 = {"J0": Fraction(9, 8), "J1": Fraction(11, 8)}


@lru_cache(maxsize=None)
def base_expansion(which: str) -> RemainderedExpansion:
    """The six-term expansion of sqrt(pi r/2) J_n(r) for n = 0 ("J0") or
    n = 1 ("J1").

    Term k is the Hankel term a_k(n) r^-k cos(w_n + k pi/2), with
    r^-k = (16t)^k and w_n + k pi/2 = w_(n-k); remainder k equals
    16^k |a_k(n)| for k >= 1 and the uniform amplitude bound for k = 0.
    """
    if which not in ("J0", "J1"):
        raise ValueError('which must be "J0" or "J1"')
    n = 0 if which == "J0" else 1
    terms = [(_carrier(n - k) * _mono(1, 0, 0, k)).scale(a_coeff(k, n).coeff * 16**k) for k in range(6)]
    remainders = [_R0[which]] + [abs(a_coeff(k, n).coeff) * 16**k for k in range(1, 7)]
    return RemainderedExpansion(tuple(terms), tuple(remainders))


def multiply(a: RemainderedExpansion, b: RemainderedExpansion) -> RemainderedExpansion:
    """Product expansion with propagated remainders.

    terms_k = sum_{i<=k} a_i b_{k-i};
    remainder_k = r_0 s_k + sum_{i=1..k} r_i ||b_{k-i}||,
    where r/s are the remainder arrays of a/b and ||.|| is the coefficient
    norm of a term (trig monomials bounded by one).  This is exactly the
    convention that reproduces the printed remainder tables.
    """
    for e in (a, b):
        if any(t.degree_t() > 5 for t in e.terms):
            raise ValueError("operand terms exceed the tracked degree")
    terms = []
    for k in range(6):
        acc = TrigPoly(())
        for i in range(k + 1):
            acc = acc + a.terms[i] * b.terms[k - i]
        terms.append(acc)
    r = a.remainders
    s = b.remainders
    bnorm = [t.norm() for t in b.terms]
    remainders = []
    for k in range(7):
        total = r[0] * s[k]
        for i in range(1, k + 1):
            total += r[i] * bnorm[k - i]
        remainders.append(total)
    return RemainderedExpansion(tuple(terms), tuple(remainders))


#: The triple product behind each integral family: "J" and its fixed orders.
_PRODUCT_TAG = {variant: "J" + "".join(map(str, orders)) for variant, orders in _FIXED_ORDERS.items()}


@lru_cache(maxsize=None)
def product_expansion(tag: str) -> RemainderedExpansion:
    """The triple product of a family's fixed orders, tagged "J" and the
    orders ("J110" = J1*J1*J0), built by left-associated multiplication (the
    canonical order for the remainder bookkeeping)."""
    if tag not in _PRODUCT_TAG.values():
        raise ValueError("tag must be " + " or ".join(f'"{t}"' for t in _PRODUCT_TAG.values()))
    return reduce(multiply, (base_expansion(f"J{k}") for k in tag[1:]))


# ---------------------------------------------------------------------------
# Estimate A: the Cauchy-Schwarz bound on the integrated sixth remainder
# ---------------------------------------------------------------------------

_A_PRINTED = {"I0": Fraction("0.74"), "I1": Fraction("1.12")}


def _sqrt_upper(x: Fraction, bits: int = 80) -> Fraction:
    return Fraction(math.isqrt((x.numerator << (2 * bits)) // x.denominator) + 2, 1 << bits)


@lru_cache(maxsize=None)
def estimate_A_recomputed(variant: str) -> Fraction:
    """The proof's sharp pre-constant: (remainder_6 / 16^6) * sqrt(a0) *
    sqrt(64/693), with a0 = Gamma(n0 - 11/2)/Gamma(n0 + 13/2) * n0^12 <= 1.21
    at n0 = 20, evaluated as a rigorous rational upper bound."""
    r6 = product_expansion(_PRODUCT_TAG[variant]).remainders[6]
    a0 = gamma_ratio(2 * N0 - 11, 2 * N0 + 13).coeff * N0**12
    require(a0 <= Fraction("1.21"), f"a0 = Gamma({2 * N0 - 11}/2)/Gamma({2 * N0 + 13}/2) * {N0}^12 exceeds 1.21")
    return (r6 / 16**6) * _sqrt_upper(a0) * _sqrt_upper(Fraction(64, 693))


@lru_cache(maxsize=None)
def _a_dominates(variant: str) -> Fraction:
    """The printed A constant, the only read of ``_A_PRINTED``: returned once
    the recomputed proof constant is below it."""
    c = _A_PRINTED[variant]
    require(estimate_A_recomputed(variant) <= c, f"A constant of {variant} fails")
    return c


def estimate_A(m: int, n: int, variant: str) -> float:
    """The tail bound c * n0^(-1/2) * (n+m)^(-6) with c = 0.74 (I0) or
    1.12 (I1), for n >= 20; the recomputed proof constant is checked
    against the printed one on first use."""
    check_variant(variant)
    m, n = check_cell("analytic", m, n)
    return float(_a_dominates(variant)) / math.sqrt(float(N0)) * (n + m) ** -6.0
