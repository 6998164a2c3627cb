"""Main terms and rigorous error bounds for the core integrals.

The two families of integrals ∫ J_n J_{n+m} E(r) r^{-1} dr, with E one of
the triple products of rescaled Bessel functions, are decomposed by
frequency: rewriting quartic monomials in (cos(r - pi/4), sin(r - pi/4))
over the basis {1, cos 2r, sin 2r, cos 4r, sin 4r} splits each integral
into exactly computable constant terms (the main terms plus a first-kind
error), frequency-2 terms that vanish by parity, and frequency-4 terms
bounded by a superexponentially small second-kind error.  Estimate B
bounds the expansion-remainder contribution.

The constant terms are one series of Weber-Schafheitlin integrals,

    (-1)^(m/2)/8 * sum_{j,i} s_j a_j(m) alpha_i 16^-i WS(n, n+m, 1+j+i),

over j <= m+3 and i <= 5, both even on the cosine route and both odd on
the sine route (s_j the Hankel sign, alpha_i the coefficient tables).  The
main term is the part with j + i <= max(m, 2) when m <= 4 and nothing when
m >= 6; the first-kind error is the rest.  Each part of each route is
stored once per (m, variant, kind, part) as one rational function of
y = 2n + m with integer coefficients (``_series_form``), and so is the
whole main term, once per (m, variant), from both routes' weights merged
by k; the per-route parts serve the breakdown.  A main term or first-kind
error at any n costs a few integer products and one ``Fraction``, and
nothing is cached per n.  Everything here is either an exact rational in
n or a closed-form bound; printed constants are checked against their
recomputed counterparts on first use, and so are the lemmas that drop or
bound terms: ``vanishes_freq2`` for every frequency-2 term the
series drops, and the 4r chain (``descent_bound``, ``gaussian_binomial_bound``)
under every second-kind error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .closed_form import descent_bound, vanishes_freq2, weber_schafheitlin
from .exactnum import (
    DOMAIN,
    N0,
    ExactScalar,
    Rational,
    a_coeff,
    a_m4_bound,
    as_even_order,
    as_integer,
    check_cell,
    check_variant,
    gamma_half,
    gamma_ratio,
    gaussian_binomial_bound,
    require,
)
from .expansions import _PRODUCT_TAG, TrigPoly, _fourier, product_expansion

__all__ = [
    "N0",
    "CoefficientTables",
    "CoreBoundBreakdown",
    "trig_reduce",
    "coefficient_tables",
    "main_term",
    "main_term_parts",
    "e1_exact",
    "e1_bound",
    "e2_prefactor",
    "e2_bound",
    "prop_4r_chain",
    "pair_moment_constant",
    "pair_moment_constant_cs",
    "pair_moment_constant_tail",
    "estimate_B",
    "estimate_B_recomputed",
    "core_bound_breakdown",
]

# ---------------------------------------------------------------------------
# frequency reduction of quartic trig monomials
# ---------------------------------------------------------------------------

# Each harmonic of w_0 = r - pi/4 that quartics reach, as (name, sign) over
# the basis {1, cos 2r, sin 2r, cos 4r, sin 4r}
_R_BASIS = {
    ("cos", 0): ("const", 1),
    ("cos", 2): ("sin2", 1),
    ("sin", 2): ("cos2", -1),
    ("cos", 4): ("cos4", -1),
    ("sin", 4): ("sin4", -1),
}


def trig_reduce(p: TrigPoly) -> dict[str, dict[int, Rational]]:
    """Rewrite a quartic trig polynomial over the frequency basis.

    Every monomial of p must have total trig degree four.  The result maps
    each frequency name to {t-power: coefficient}; empty frequencies are
    omitted.
    """
    for (i, j, k), q in p.coeffs:
        if i + j != 4:
            raise ValueError(f"monomial c^{i} s^{j} is not quartic")
    named = ((_R_BASIS[harmonic], by_power) for harmonic, by_power in _fourier(p).items())
    return {name: {k: sign * q for k, q in by_power.items()} for (name, sign), by_power in named}


# ---------------------------------------------------------------------------
# the coefficient tables of the two frequency-split integrands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientTables:
    """Integer coefficients of the reduced integrands.

    The cosine route carries (alpha_0, alpha_2, alpha_4) on the constant
    part, (beta_0, beta_2, beta_4) on cos 4r and (gamma_1, gamma_3,
    gamma_5) on sin 4r; the sine route carries the complementary parities.
    """

    variant: str
    alphas_cos: tuple[int, int, int]
    betas_gammas_cos: tuple[int, int, int, int, int, int]
    alphas_sin: tuple[int, int, int]
    gammas_betas_sin: tuple[int, int, int, int, int, int]


_STORED_TABLES = {
    "I0": CoefficientTables(
        "I0",
        (3, -150, 65250),
        (-1, -6, 66, 1124, -26838, -840564),
        (6, -1092, 826164),
        (-1, 6, 66, -1124, -26838, 840564),
    ),
    "I1": CoefficientTables(
        "I1",
        (1, 174, -33354),
        (1, -10, 30, 444, -10602, -335340),
        (18, -1164, 1071900),
        (1, 10, 30, -444, -10602, 335340),
    ),
}

def _pick(reduced: dict[str, dict[int, Rational]], name: str, power: int) -> int:
    v = reduced.get(name, {}).get(power, Fraction(0))
    require(v.denominator == 1, f"non-integer reduced coefficient {v} at {name} t^{power}")
    return int(v)


@lru_cache(maxsize=None)
def _routes(variant: str) -> tuple[dict[str, dict[int, Rational]], dict[str, dict[int, Rational]]]:
    """The cosine and sine routes, 8c and 8s times the sum of the triple
    product's terms, reduced to the frequency basis.  Shared, not copied:
    callers only read them."""
    total = sum(product_expansion(_PRODUCT_TAG[variant]).terms, TrigPoly(()))
    return tuple(trig_reduce(TrigPoly.from_dict({carrier: 8}) * total) for carrier in ((1, 0, 0), (0, 1, 0)))


@lru_cache(maxsize=None)
def coefficient_tables(variant: str) -> CoefficientTables:
    """The stored tables, revalidated against the expansion module.

    The tables are kept inline for speed, but on first use they are
    re-derived from the two reduced routes; any mismatch fails loudly.
    """
    check_variant(variant)
    stored = _STORED_TABLES[variant]
    derived = [variant]
    # the cosine (sine) route, carrier c (s), has parity 0 (1): constants and
    # cos 4r sit only on t-powers of its parity, sin 4r only on the others
    for parity, route in enumerate(_routes(variant)):
        derived.append(tuple(_pick(route, "const", p) for p in range(parity, 6, 2)))
        derived.append(tuple(_pick(route, "cos4" if p % 2 == parity else "sin4", p) for p in range(6)))
        for name, on in (("const", parity), ("cos4", parity), ("sin4", 1 - parity)):
            for p in route.get(name, {}):
                require(p % 2 == on, f"{name} part has a wrong-parity power")
    require(CoefficientTables(*derived) == stored, f"coefficient tables for {variant} do not re-derive")
    return stored


def _aj(j: int, m: int) -> Fraction:
    return a_coeff(j, m).coeff


def _check_kind(kind: str) -> str:
    """``kind`` itself, if it names one of the two routes."""
    if kind not in ("cos", "sin"):
        raise ValueError('kind must be "cos" or "sin"')
    return kind


# ---------------------------------------------------------------------------
# main terms and first-kind errors: one Weber-Schafheitlin series
# ---------------------------------------------------------------------------


def _n_ratio(m: int, n: int, k: int) -> Fraction:
    """Gamma((2n+m+1-k)/2) / Gamma((2n+m+1+k)/2), the n-dependent factor
    of WS(n, n+m, k): a product of k factors for odd k."""
    return gamma_ratio(2 * n + m + 1 - k, 2 * n + m + 1 + k).coeff


@lru_cache(maxsize=None)
def _freq2_dropped_vanish(m: int, variant: str, kind: str) -> None:
    """Require that every frequency-2 term the kind's series drops vanishes.

    The series keeps only the route's constant part.  Each term (j, i) it
    drops from the route's cos 2r or sin 2r row is the integral of J_n
    J_{n+m} cos 2r or sin 2r against r^-k, k = 1 + j + i, required to
    vanish by ``vanishes_freq2``.  It is tested at n = N0: the test's only
    n-dependence is k <= 2n + m, and k <= m + 9 <= 2 N0 + m.  Cached per
    route, not per part: "main" and "e1" drop the same terms.
    """
    parity = 0 if kind == "cos" else 1
    route = _routes(variant)[parity]
    rows = [(name[:3], i) for name in ("cos2", "sin2") for i in route.get(name, ())]
    dropped = {(1 + j + i, trig) for trig, i in rows for j in range(parity, m + 4, 2)}
    for k, trig in dropped:
        require(vanishes_freq2(N0, N0 + m, k, trig), f"dropped {trig} 2r term with k={k} of {m, variant} does not vanish")


@lru_cache(maxsize=None)
def _series_weights(m: int, variant: str, kinds: tuple[str, ...], part: str) -> tuple[tuple[int, Fraction], ...]:
    """Pairs (k, w_k) with the part ("main" or "e1") of the series of the
    routes in ``kinds``, as in the module docstring, summed over those
    routes, equal to the sum of w_k * _n_ratio(m, n, k), once
    ``_freq2_dropped_vanish`` holds.  Every k is odd on both routes.

    Term (j, i) has k = 1 + j + i and s_j = (-1)^ceil(j/2), the Hankel sign
    of ``expansions.base_expansion``.  Its n-free factor, Weber-Schafheitlin's
    constant included, is read off WS at n = k, which is rational: with m
    even and k odd every Gamma argument is an integer.
    """
    t = coefficient_tables(variant)
    weights: dict[int, Fraction] = {}
    for kind in kinds:
        _freq2_dropped_vanish(m, variant, kind)
        parity = 0 if kind == "cos" else 1
        alphas = t.alphas_cos if kind == "cos" else t.alphas_sin
        for i, alpha in zip(range(parity, 6, 2), alphas):
            # below j = m - i, WS(n, n+m, 1+j+i) vanishes: 1/Gamma((j+i+2-m)/2)
            # has a pole there
            for j in range(max(parity, m - i), m + 4, 2):
                if (part == "main") != (m <= 4 and j + i <= max(m, 2)):
                    continue
                k = 1 + j + i
                ws = weber_schafheitlin(k, k + m, k)
                require(ws.sqrtpi_power == 0, f"WS({k}, {k + m}, {k}) of {m, variant} is not rational")
                ws = ws.coeff / _n_ratio(m, k, k)
                sign = (-1) ** (m // 2 + (j + 1) // 2)
                weights[k] = weights.get(k, 0) + sign * _aj(j, m) * alpha * ws / (8 * 16**i)
    return tuple(weights.items())


def _evaluate(form: tuple[tuple[int, ...], int, int], y: int) -> Fraction:
    """N(y^2) / (L P_K(y)) for the form (N, L, K) of ``_series_form``: Horner
    over the integers, then one ``Fraction``."""
    coeffs, lcm, K = form
    if not coeffs:
        return Fraction(0)
    x, num = y * y, 0
    for c in coeffs:
        num = num * x + c
    return Fraction(num, lcm * math.prod(range(y - K + 1, y + K, 2)))


@lru_cache(maxsize=None)
def _series_form(m: int, variant: str, kinds: tuple[str, ...], part: str) -> tuple[tuple[int, ...], int, int]:
    """(N, L, K): the part of the series of the routes in ``kinds``, summed,
    as one rational function of y = 2n + m, N(y^2) / (L P_K(y)), with N's
    integer coefficients highest first.  An empty series is ((), 1, 0).

    For odd k, _n_ratio(m, n, k) = 2^k / P_k(y), where P_k(y) is the
    product of y + s over s = -(k-1), -(k-3), ..., k-1.  These nest:
    P_K / P_k is the product of y^2 - s^2 over s = k+1, k+3, ..., K-1.  So
    with K the largest k of the weights, L the lcm of the denominators of
    w_k 2^k and N(y^2) = L sum_k w_k 2^k P_K(y) / P_k(y), the series is
    N(y^2) / (L P_K(y)).  Required at the least n of the part's domain: the
    smallest factor y - K + 1 of P_K is positive (so it is for every larger
    n), and the form equals the sum of w_k _n_ratio(m, n, k).
    """
    weights = _series_weights(m, variant, kinds, part)
    if not weights:
        return (), 1, 0
    K = max(k for k, _ in weights)
    scaled = [(k, w * 2**k) for k, w in weights]
    lcm = math.lcm(*(c.denominator for _, c in scaled))
    low_first = [0] * ((K - min(k for k, _ in weights)) // 2 + 1)
    for k, c in scaled:
        poly = [int(c * lcm)]
        for s in range(k + 1, K, 2):  # times (x - s^2), lowest power first
            poly = [a - s * s * b for a, b in zip([0, *poly], [*poly, 0])]
        for d, a in enumerate(poly):
            low_first[d] += a
    form = tuple(reversed(low_first)), lcm, K
    n = DOMAIN["main"].n_min if part == "main" else max(DOMAIN["analytic"].n_min, m)  # each part's least n
    y = 2 * n + m
    require(y - K + 1 > 0, f"P_{K} of {m, variant, kinds, part} has a nonpositive factor at n={n}")
    exact = sum(w * _n_ratio(m, n, k) for k, w in weights)
    require(_evaluate(form, y) == exact, f"stored series of {m, variant, kinds, part} fails at n={n}")
    return form


def _series(m: int, n: int, variant: str, kinds: tuple[str, ...], part: str) -> Fraction:
    """The part ("main" or "e1") of the routes' series at n, the sum of
    w_k _n_ratio(m, n, k), read from its stored rational function: a few
    integer products and one ``Fraction`` per call, for any n."""
    return _evaluate(_series_form(m, variant, kinds, part), 2 * n + m)


def main_term_parts(m: int, n: int, variant: str) -> tuple[ExactScalar, ExactScalar]:
    """(cosine-route, sine-route) main terms as exact rationals: the terms
    j + i <= max(m, 2) of the series for m <= 4; for m >= 6 orthogonality
    leaves none."""
    m, n = check_cell("main", m, n)
    check_variant(variant)
    return tuple(ExactScalar(_series(m, n, variant, (kind,), "main")) for kind in ("cos", "sin"))


def main_term(m: int, n: int, variant: str) -> ExactScalar:
    """The total (cosine plus sine route) main term, read from one stored
    form of both routes' merged weights: no addition of the two parts."""
    m, n = check_cell("main", m, n)
    check_variant(variant)
    return ExactScalar(_series(m, n, variant, ("cos", "sin"), "main"))


# ---------------------------------------------------------------------------
# first-kind errors: exact values and their printed bounds
# ---------------------------------------------------------------------------


def e1_exact(m: int, n: int, variant: str, kind: str) -> Rational:
    """The first-kind error term as an exact rational (signed): the terms
    of the kind's series outside the main term."""
    m, n = check_cell("analytic", m, n)
    _check_kind(kind)
    check_variant(variant)
    return _series(m, n, variant, (kind,), "e1")


# printed first-kind bounds: {(m-case, kind): (c_I0, c_I1, n0-exponent, n-exponent)}
_E1_PRINTED = {
    (0, "cos"): (Fraction("0.026"), Fraction("0.015"), 1, 4),
    (0, "sin"): (Fraction("0.0016"), Fraction("0.0030"), 1, 4),
    (2, "cos"): (Fraction("0.039"), Fraction("0.012"), 1, 4),
    (2, "sin"): (Fraction("0.0062"), Fraction("0.0031"), 1, 4),
    (4, "cos"): (Fraction("0.42"), Fraction("0.11"), 1, 6),
    (4, "sin"): (Fraction("0.086"), Fraction("0.063"), 1, 6),
    (6, "cos"): (Fraction("6.34"), Fraction("0.09"), 3, 4),
    (6, "sin"): (Fraction("1.49"), Fraction("4.08"), 3, 4),
}


@lru_cache(maxsize=None)
def _e1_dominates(m: int, variant: str, kind: str) -> tuple[Fraction, int, int]:
    """(c, p0, pn) of the printed bound c n0^-p0 n^-pn of row (min(m, 6),
    kind), the only read of ``_E1_PRINTED``: returned once the exact error
    is below it at n = max(20, m) and n = max(10^6, m)."""
    c0, c1, p0, pn = _E1_PRINTED[(min(m, 6), kind)]
    c = c0 if variant == "I0" else c1
    for n in (max(N0, m), max(10**6, m)):  # e1_exact needs n >= m
        exact = abs(e1_exact(m, n, variant, kind))
        require(exact <= c / N0**p0 / n**pn, f"e1 constant of {m, variant, kind} fails at n={n}")
    return c, p0, pn


@lru_cache(maxsize=None)
def _e1_scale(m: int, variant: str, kind: str) -> tuple[float, int]:
    """(float(c) 20.0^-p0, pn) of ``_e1_dominates``: times float(n)^-pn,
    left to right, the first is ``e1_bound``."""
    c, p0, pn = _e1_dominates(m, variant, kind)
    return float(c) * float(N0) ** -p0, pn


def e1_bound(m: int, n: int, variant: str, kind: str) -> float:
    """Printed bound on the first-kind error, validated on first use
    against the exact formula at n = max(20, m) and n = max(10^6, m)."""
    check_cell("analytic", m, n)
    _check_kind(kind)
    scale, pn = _e1_scale(m, variant, kind)
    return scale * float(n) ** -pn


# ---------------------------------------------------------------------------
# second-kind errors (frequency 4r)
# ---------------------------------------------------------------------------


def prop_4r_chain(m: int, n: int) -> float:
    """Recomputed proof chain behind the frequency-4r bound: the Gaussian-sum
    estimate times the central-binomial bound times the 4^-(2n+m) kernel
    factor.  It underflows to 0.0 from about m = n = 580 on; the check
    reads ``_log_4r_chain``, which does not."""
    return math.exp(_log_4r_chain(m, n))


def _log_4r_chain(m: int, n: int) -> float:
    """The logarithm of ``prop_4r_chain``, summed from the logs of its
    factors with the powers of two folded together, so it stays finite for
    any n.  Where the unfolded factors are representable, the binomial
    factor is checked to dominate ``descent_bound(n, n + m, 1)``, the bound
    on the frequency-4 integral of J_n J_{n+m} / r that it stands for.
    """
    m, n = check_cell("analytic", m, n)
    A = 4.0 ** (math.log(2.0) / 9.0) * math.exp(-((math.log(2.0) / 3.0) ** 2))
    require(A <= 1.06, "Gaussian constant A exceeds 1.06")
    # sum over the coefficient indices, Gaussian-peak times term count,
    # with the confluent top index folded in via the 103/100 factor
    log_s1 = (
        math.log(1.03 * (2.0 * math.exp(1 / 24) / math.sqrt(math.pi)) * (m / 2 + 1))
        - 0.5 * math.log(m + 1)
        + (m + 1) * math.log(A)
    )
    x, d = n + m / 2.0, m / 2.0
    # central-binomial factor with its 2^(2x) growth stripped: the powers
    # of two from s1 (2^m), the coefficient count (2^(m/3)), the binomial
    # (2^(2n+m)) and the kernel (4^-(2n+m)) fold to 2^(m/3 - 2n)
    log_s2 = 1 / 24 - math.log(2.0 * math.sqrt(math.pi)) + 0.5 * math.log(x) - d * d / x - math.log(n * (n + m))
    log_chain = log_s1 + log_s2 + (m / 3.0 - 2.0 * n) * math.log(2.0)
    if 2 * (2 * n + m) < 1000:
        # representable without over/underflow: take the binomial factor
        # verbatim and confirm the folding
        binomial = gaussian_binomial_bound(x, d) / (n * (n + m)) * 4.0 ** -(2 * n + m)
        require(descent_bound(n, n + m, 1) <= Fraction(binomial), f"descent bound exceeds the 4r chain at {m, n}")
        direct = math.exp(log_s1) * 2.0 ** (m + m / 3.0) * binomial
        require(math.isclose(direct, math.exp(log_chain), rel_tol=1e-9), "folded and direct chains disagree")
    return log_chain


@lru_cache(maxsize=None)
def _chain_dominated(m: int, n: int) -> float:
    """The logarithm of the printed bound n^-1 0.35^n, once the recomputed
    chain is below it.  Logs, not values: both sides underflow for large n."""
    log_bound = n * math.log(0.35) - math.log(n)
    require(_log_4r_chain(m, n) <= log_bound, f"4r chain fails at {m, n}")
    return log_bound


_E2_PRINTED = {"I0": Fraction("0.39"), "I1": Fraction("0.30")}


def _decay(m: int) -> tuple[int, float]:
    """(tau, theta) of the second-kind error theta^20 n^-tau: the slower
    (6, 0.75) exactly when m = 4, where the expansion ran one order higher."""
    return (6, 0.75) if m == 4 else (4, 0.6)


def e2_prefactor(variant: str, kind: str) -> Rational:
    """Recomputed weighted absolute-coefficient sum of the oscillatory part."""
    t = coefficient_tables(variant)
    coeffs = t.betas_gammas_cos if _check_kind(kind) == "cos" else t.gammas_betas_sin
    total = sum(Fraction(abs(c), 16**j) for j, c in enumerate(coeffs))
    return total / 8


@lru_cache(maxsize=None)
def _e2_prefactor_ok(variant: str) -> Fraction:
    """The printed E2 prefactor, the only read of ``_E2_PRINTED``: returned
    once both routes' recomputed prefactors are below it."""
    for kind in ("cos", "sin"):  # coefficient_tables rejects an unknown variant
        require(e2_prefactor(variant, kind) <= _E2_PRINTED[variant], f"e2 prefactor of {variant} fails")
    return _E2_PRINTED[variant]


@lru_cache(maxsize=None)
def _e2_dominates(m: int, variant: str) -> Fraction:
    """The printed E2 prefactor c, returned once c n^-1 0.35^n, which bounds
    each route's frequency-4 terms, is below the e2 item c theta^20 n^-tau
    at n0 = max(20, m).  Compared in logs, where c cancels: the 4r bound
    underflows from about n0 = 700 on.

    One check covers every n >= n0: the ratio of the two sides,
    n^(tau-1) 0.35^n / theta^20, decreases for n >= 5, and
    prop_4r_chain(m, n) / (n^-1 0.35^n) decreases for n >= m.
    """
    c, n0 = _e2_prefactor_ok(variant), max(N0, m)
    tau, theta = _decay(m)
    log_e2_item = N0 * math.log(theta) - tau * math.log(n0)
    require(_chain_dominated(m, n0) <= log_e2_item, f"4r bound of {m, variant} exceeds e2")
    return c


@lru_cache(maxsize=None)
def _e2_scale(m: int, variant: str) -> tuple[float, int]:
    """(float(c) theta^20, tau) of ``_e2_dominates`` and ``_decay``: times
    float(n)^-tau, left to right, the first is ``e2_bound``."""
    tau, theta = _decay(m)
    return float(_e2_dominates(m, variant)) * theta**N0, tau


def e2_bound(m: int, n: int, variant: str, kind: str) -> float:
    """Second-kind error: prefactor times theta^20 n^-tau, (tau, theta)
    from ``_decay``."""
    check_cell("analytic", m, n)
    _check_kind(kind)
    scale, tau = _e2_scale(m, variant)
    return scale * float(n) ** -tau


# ---------------------------------------------------------------------------
# Estimate B: the expansion-remainder contribution
# ---------------------------------------------------------------------------

_ABS_POLY = {"I0": (1, 6, 66, 1124, 26838, 840564), "I1": (1, 14, 102, 804, 21978, 703620)}


@lru_cache(maxsize=None)
def _abs_poly(variant: str) -> tuple[int, ...]:
    stored = _ABS_POLY[variant]
    derived = tuple(int(t.norm()) for t in product_expansion(_PRODUCT_TAG[variant]).terms)
    require(derived == stored, "absolute-coefficient polynomial does not re-derive")
    return stored


def pair_moment_constant(ell: int) -> float:
    """Sharp constant c with ∫ J_n^2 r^-ell dr <= c n^-ell for n >= 20,
    frozen at the anchor order."""
    ell = as_integer(ell, "moment exponents")
    if ell < 2:
        raise ValueError("need ell >= 2")
    c = gamma_half(2 * ell) / (gamma_half(ell + 1) * gamma_half(ell + 1))
    c = c * gamma_ratio(2 * N0 + 1 - ell, 2 * N0 + 1 + ell)
    return c.to_real() * float(N0) ** ell / 2.0**ell


def pair_moment_constant_cs(m: int, ell: int) -> float:
    """Cauchy-Schwarz analogue for the mixed moment ∫ |J_n J_{n+m}| r^-(m+ell):
    bound c n^-(m+ell), anchored at n = 20."""
    m, ell = as_even_order(m), as_integer(ell, "moment exponents")
    if m < 2 or ell < 2:
        raise ValueError("need m >= 2 and ell >= 2")
    inner = Fraction(math.factorial(2 * m + 2 * ell - 2), 2 ** (2 * m + 2 * ell - 1))
    inner /= 2 * Fraction(math.factorial(m + ell - 1)) ** 2
    inner *= gamma_ratio(2 * (N0 + 1 - ell), 2 * (N0 + 2 * m + ell)).coeff * Fraction(N0) ** (2 * (m + ell) - 1)
    return math.sqrt(float(inner))


def pair_moment_constant_tail(m: int, ell: int) -> float:
    """Large-m analogue, coefficient included: the coefficient-size lemma
    ``a_m4_bound`` replaces |a_(m+4)(m)|, and n >= m relaxes n^-m to m^-m.

    a_m4_bound(m) m^-m = (105/16) sqrt(2/pi) (2m-1)^(-1/2) (2/e)^m decreases
    in m, so the value at m = 100 bounds it for larger m, where a_m4_bound
    overflows (from m = 151 on) and m^-m underflows.
    """
    m, ell = as_even_order(m), as_integer(ell, "moment exponents")
    if m < 12 or ell < 2:
        raise ValueError("need m >= 12 and ell >= 2")
    prod = 1.0
    for k in range(2 * ell - 1):
        prod *= N0 + 1 - ell + k
    m = min(m, 100)
    return a_m4_bound(m) * float(m) ** -m * 0.5 * math.sqrt(float(N0) ** (2 * ell - 1) / prod)


_B_PRINTED = {
    0: (Fraction("0.022"), Fraction("0.023"), 4),
    2: (Fraction("0.162"), Fraction("0.166"), 6),
    4: (Fraction("2.823"), Fraction("2.885"), 8),
    6: (Fraction("0.015"), Fraction("0.015"), 4),
}


def estimate_B_recomputed(m: int, variant: str) -> float:
    """The route-specific constituent sum at the anchor order n = 20.

    m = 0 integrates J_n^2 directly; 2 <= m <= 10 goes through
    Cauchy-Schwarz with the exact remainder coefficient; m >= 12 relies on
    the coefficient-size lemma, which ``pair_moment_constant_tail`` carries
    (the Cauchy-Schwarz route is sharper for m in {6, 8, 10}, where the
    lemma constant alone would overshoot).
    """
    if m == 0:
        lead, constant, shift = float(abs(_aj(4, 0))), pair_moment_constant, 0
    elif m <= 10:
        lead, constant, shift = float(abs(_aj(m + 4, m))), lambda ell: pair_moment_constant_cs(m, ell), m
    else:
        lead, constant, shift = 1.0, lambda ell: pair_moment_constant_tail(m, ell), 0
    n = float(N0)
    return lead * sum(
        p / 16.0**j * constant(5 + j) * n ** -(shift + 5 + j) for j, p in enumerate(_abs_poly(variant))
    )


@lru_cache(maxsize=None)
def _b_dominates(m: int, variant: str) -> tuple[Fraction, int]:
    """(c, tau_B) of the printed bound c n0^-1 n^-tau_B of row min(m, 6),
    the only read of ``_B_PRINTED``: returned once the recomputed sum at the
    anchor is below it."""
    c0, c1, tau = _B_PRINTED[min(m, 6)]
    c = c0 if variant == "I0" else c1
    bound = float(c) / N0 * float(N0) ** -tau
    require(estimate_B_recomputed(m, variant) <= bound, f"B constant of {m, variant} fails")
    return c, tau


def estimate_B(m: int, n: int, variant: str) -> float:
    """Printed remainder-contribution bound, revalidated on first use."""
    check_cell("analytic", m, n)
    check_variant(variant)
    c, tau = _b_dominates(m, variant)
    return float(c) / N0 * float(n) ** -tau


# ---------------------------------------------------------------------------
# assembled per-integral breakdown
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoreBoundBreakdown:
    """Main terms and error bounds of one core integral, by route."""

    main_cos: ExactScalar
    main_sin: ExactScalar
    e1_cos: float
    e1_sin: float
    e2_cos: float
    e2_sin: float

    def __post_init__(self) -> None:
        for name in ("e1_cos", "e1_sin", "e2_cos", "e2_sin"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("main_cos", "main_sin"):
            if getattr(self, name).sqrtpi_power != 0:
                raise ValueError(f"{name} must be a plain rational")


def core_bound_breakdown(m: int, n: int, variant: str) -> CoreBoundBreakdown:
    """Assemble the full decomposition of one core integral: the values of
    ``main_term_parts``, ``e1_bound`` and ``e2_bound``, with the arguments
    checked once."""
    m, n = check_cell("analytic", m, n)
    check_variant(variant)
    cos, sin = (ExactScalar(_series(m, n, variant, (kind,), "main")) for kind in ("cos", "sin"))
    (e1_cos, pn_cos), (e1_sin, pn_sin) = (_e1_scale(m, variant, kind) for kind in ("cos", "sin"))
    e2, tau = _e2_scale(m, variant)
    x = float(n)
    return CoreBoundBreakdown(
        main_cos=cos,
        main_sin=sin,
        e1_cos=e1_cos * x**-pn_cos,
        e1_sin=e1_sin * x**-pn_sin,
        e2_cos=e2 * x**-tau,
        e2_sin=e2 * x**-tau,
    )
