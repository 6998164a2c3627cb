"""The acceptance gate: nine end-to-end checks, one test each.

Each test asserts one pipeline-level guarantee at its stated tolerance, so
``pytest -v tests/test_acceptance.py`` prints a single pass/fail line per
check.  The quadrature-heavy checks share the default scheme's row memo; the
full eighteen-row table takes a few seconds on the default Gauss panels.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.special import jv

import hiprec
from besselsix import certify, cli, quadrature
from besselsix.closed_form import (
    vanishes_freq2,
    weber_schafheitlin,
)
from besselsix import core_integrals
from besselsix.core_integrals import (
    coefficient_tables,
    e1_exact,
    e2_prefactor,
    estimate_B_recomputed,
    main_term,
    prop_4r_chain,
)
from besselsix.certify import check_theorem, predict, theorem_constants
from besselsix.exactnum import (
    a_coeff,
    a_m4_bound,
    gamma_half,
    gamma_ratio,
)
from besselsix.expansions import (
    base_expansion,
    estimate_A_recomputed,
    multiply,
    product_expansion,
)
from besselsix.quadrature import (
    PAPER_SCHEME,
    build_table,
    integral,
    tail_error_budget,
    tail_main,
)
from test_expansions import DISPLAYS, _assert_matches
from testkit import nc7_composite, stirling_gamma_bounds

# ---------------------------------------------------------------------------
# published verification-table entries, in integer cents (top row, bottom
# row per n; columns m = 0, 2, 4, ...); entries are two-decimal upper
# bounds, so recomputed cells are compared after ceiling to cents
# ---------------------------------------------------------------------------

PUBLISHED_TABLE = {
    2: ((85, 14), (64, 3)),
    3: ((44, 16), (21, 5)),
    4: ((33, 16, 3), (16, 4, 1)),
    5: ((26, 15, 2), (12, 4, 1)),
    6: ((22, 15, 2, 11), (10, 4, 1, 6)),
    7: ((19, 14, 2, 9), (9, 4, 1, 5)),
    8: ((17, 13, 2, 8, 2), (8, 4, 1, 5, 2)),
    9: ((15, 13, 2, 7, 2), (7, 4, 1, 5, 2)),
    10: ((14, 13, 2, 7, 2, 2), (7, 4, 2, 4, 2, 2)),
    11: ((13, 13, 2, 7, 3, 2), (7, 4, 2, 4, 2, 2)),
    12: ((13, 13, 3, 7, 3, 3, 3), (7, 5, 3, 5, 3, 3, 3)),
    13: ((13, 13, 4, 7, 4, 3, 3), (8, 5, 3, 5, 4, 3, 3)),
    14: ((13, 13, 5, 7, 5, 4, 4, 4), (8, 6, 4, 6, 5, 4, 4, 4)),
    15: ((14, 14, 6, 8, 6, 6, 6, 6), (9, 7, 6, 7, 6, 6, 6, 6)),
    16: ((15, 15, 7, 9, 7, 7, 7, 7, 7), (10, 9, 7, 8, 7, 7, 7, 7, 7)),
    17: ((16, 17, 9, 11, 9, 9, 9, 9, 9), (12, 10, 9, 10, 9, 9, 9, 9, 9)),
    18: ((18, 19, 11, 13, 11, 11, 11, 11, 11, 11), (14, 13, 11, 12, 11, 11, 11, 11, 11, 11)),
    19: ((20, 20, 14, 15, 14, 14, 14, 14, 14, 14), (16, 15, 14, 14, 14, 14, 14, 14, 14, 14)),
}

#: +/-0.02 on two-decimal entries, compared in integer cents (float
#: subtraction like 0.14 - 0.12 overshoots 0.02 by an ulp)
CENTS_TOLERANCE = 2


def _cents(x: float) -> int:
    return math.ceil(x * 100.0 - 1e-9)


def _assert_cell_close(entry, printed_top: int, printed_bottom: int) -> None:
    label = (entry.n, entry.m)
    assert abs(_cents(entry.top) - printed_top) <= CENTS_TOLERANCE, (label, entry.top)
    assert abs(_cents(entry.bottom) - printed_bottom) <= CENTS_TOLERANCE, (label, entry.bottom)


# ---------------------------------------------------------------------------
# 1. exact algebra
# ---------------------------------------------------------------------------


def test_criterion_1_exact_algebra():
    # the six displayed expansions, term by term, remainders included
    j0, j1 = base_expansion("J0"), base_expansion("J1")
    _assert_matches(j0, "J0")
    _assert_matches(j1, "J1")
    _assert_matches(multiply(j0, j0), "J0J0")
    _assert_matches(multiply(j1, j1), "J1J1")
    _assert_matches(product_expansion("J000"), "J000")
    _assert_matches(product_expansion("J110"), "J110")
    assert multiply(multiply(j0, j0), j0) == product_expansion("J000")
    assert multiply(multiply(j1, j1), j0) == product_expansion("J110")
    assert set(DISPLAYS) == {"J0", "J1", "J0J0", "J1J1", "J000", "J110"}

    # integer coefficient tables, re-derived from the expansions on call
    t0 = coefficient_tables("I0")
    assert t0.alphas_cos == (3, -150, 65250)
    assert t0.betas_gammas_cos == (-1, -6, 66, 1124, -26838, -840564)
    assert t0.alphas_sin == (6, -1092, 826164)
    assert t0.gammas_betas_sin == (-1, 6, 66, -1124, -26838, 840564)
    t1 = coefficient_tables("I1")
    assert t1.alphas_cos == (1, 174, -33354)
    assert t1.betas_gammas_cos == (1, -10, 30, 444, -10602, -335340)
    assert t1.alphas_sin == (18, -1164, 1071900)
    assert t1.gammas_betas_sin == (1, 10, 30, -444, -10602, 335340)

    # main-term closed forms, exact at several orders
    for n in (2, 20, 137):
        pole0 = (n - 1) * n * (n + 1)
        pole3 = n * (n + 1) * (n + 2)
        pole5 = pole3 * (n + 3) * (n + 4)
        assert main_term(0, n, "I0").coeff == F(3, 16 * n) - F(3, 128) / pole0
        assert main_term(0, n, "I1").coeff == F(1, 16 * n) + F(3, 128) / pole0
        assert main_term(2, n, "I0").coeff == F(15, 256) / pole3
        assert main_term(2, n, "I1").coeff == F(9, 256) / pole3
        assert main_term(4, n, "I0").coeff == F(1557, 4096) / pole5
        assert main_term(4, n, "I1").coeff == F(855, 4096) / pole5


# ---------------------------------------------------------------------------
# 2. the Gamma toolbox
# ---------------------------------------------------------------------------


def test_criterion_2_gamma_suite():
    g = gamma_half(-7)
    assert (g.coeff, g.sqrtpi_power) == (F(16, 105), 1)

    # Stirling enclosures contain the exact values at fifty points
    for k in range(1, 51):
        lo, hi = stirling_gamma_bounds(k / 2.0)
        assert lo <= gamma_half(k).to_real() <= hi, k

    # log-convexity bracket sqrt(x - 1/2) <= Gamma(x+1/2)/Gamma(x) <= sqrt(x)
    x = 0.5
    while x <= 25.0:
        num_lo, num_hi = stirling_gamma_bounds(x + 0.5)
        den_lo, den_hi = stirling_gamma_bounds(x)
        assert math.sqrt(x - 0.5) <= num_lo / den_hi
        assert num_hi / den_lo <= math.sqrt(x)
        x += 0.5

    # ratio-monotonicity under a common argument shift, exact
    for y2 in (1, 3, 9, 21):
        for dx in (0, 2, 7):
            for w in (1, 4, 11):
                r1 = gamma_ratio(y2 + 2 * dx, y2)
                r2 = gamma_ratio(y2 + 2 * dx + 2 * w, y2 + 2 * w)
                assert r1.coeff <= r2.coeff

    # closed-form dominance four past the diagonal
    for m in range(1, 41):
        assert abs(a_coeff(m + 4, m).to_real()) <= a_m4_bound(m), m


# ---------------------------------------------------------------------------
# 3. closed forms against an independent quadrature
# ---------------------------------------------------------------------------

CROSS_R = 1998.0
CROSS_W = 0.05

WS_KEYS = [
    (1, 1, 2),  # = 4/(3 pi), the pi^-1-valued case
    (2, 2, 2),
    (2, 2, 3),
    (3, 3, 2),
    (3, 1, 2),
    (4, 2, 3),
    (5, 3, 4),
    (6, 2, 4),
    (4, 4, 5),
    (0, 5, 3),
]


def _pair_integrand(n, m, k, trig=None):
    # origin limit of J_n J_m r^-k: zero whenever n + m > k, else the
    # leading Taylor coefficient 1/(2^(n+m) n! m!)
    limit = 0.0
    if n + m == k:
        limit = 1.0 / (2.0 ** (n + m) * math.factorial(n) * math.factorial(m))

    def f(r):
        r = np.asarray(r, dtype=float)
        safe = np.where(r > 0.0, r, 1.0)
        v = jv(n, safe) * jv(m, safe) * safe ** -float(k)
        if trig is not None:
            v = v * trig(2.0 * safe)
        return np.where(r > 0.0, v, limit)

    return f


def test_criterion_3_closed_form_vs_quadrature():
    # Kapteyn: int J_n^2 / r = 1/(2n); the oscillatory tail beyond CROSS_R
    # averages to 1/(pi r^2), hence the 1/(pi CROSS_R) completion
    for n in (1, 3, 10):
        body = nc7_composite(_pair_integrand(n, n, 1), 0.0, CROSS_R, CROSS_W)
        assert weber_schafheitlin(n, n, 1).to_real() == pytest.approx(1.0 / (2 * n), abs=0)
        assert abs(body + 1.0 / (math.pi * CROSS_R) - 1.0 / (2 * n)) <= 1e-6, n

    # Weber-Schafheitlin on ten keys; same tail completion with the
    # parity factor cos((n - m) pi / 2) and the r^-(k+1) decay
    for n, m, k in WS_KEYS:
        body = nc7_composite(_pair_integrand(n, m, k), 0.0, CROSS_R, CROSS_W)
        tail = math.cos((n - m) * math.pi / 2.0) / (math.pi * k * CROSS_R**k)
        target = weber_schafheitlin(n, m, k).to_real()
        assert abs(body + tail - target) <= 1e-6, (n, m, k)

    # frequency-2 integrals certified to vanish do vanish numerically
    cases = [
        (3, 5, 2, "cos", np.cos),
        (3, 5, 3, "sin", np.sin),
        (2, 6, 4, "cos", np.cos),
    ]
    for n, m, k, name, trig in cases:
        assert vanishes_freq2(n, m, k, name)
        body = nc7_composite(_pair_integrand(n, m, k, trig), 0.0, CROSS_R, CROSS_W)
        assert abs(body) <= 1e-5, (n, m, k, name)


# ---------------------------------------------------------------------------
# 4. printed constants dominate their recomputations
# ---------------------------------------------------------------------------


def test_criterion_4_constant_dominance():
    # sixth-remainder estimate: rational pre-constants vs printed 0.74 / 1.12
    assert estimate_A_recomputed("I0") <= F("0.74")
    assert estimate_A_recomputed("I1") <= F("1.12")
    assert gamma_ratio(29, 53).coeff * 20**12 <= F("1.21")

    # first-kind errors at the anchor and far beyond it, exact arithmetic
    printed_e1 = core_integrals._E1_PRINTED
    for (m_case, kind), (c0, c1, p0, pn) in printed_e1.items():
        for c in (c0, c1):
            variant = "I0" if c is c0 else "I1"
            for n in (20, 10**6):
                exact = abs(e1_exact(m_case, n, variant, kind))
                assert exact <= c * F(1, 20**p0) * F(1, n**pn), (m_case, kind, variant, n)
    flat_e1 = [c for row in printed_e1.values() for c in row[:2]]
    assert F("0.026") in flat_e1 and F("4.08") in flat_e1

    # oscillatory chain below the uniform n^-1 0.35^n bound (the chain
    # itself asserts its Gaussian constant A <= 1.06 on every call)
    for m, n in ((0, 20), (2, 20), (20, 20), (0, 24), (6, 50), (0, 200)):
        assert prop_4r_chain(m, n) <= math.exp(core_integrals._chain_dominated(m, n)), (m, n)

    # second-kind prefactors vs printed 0.39 / 0.30
    for kind in ("cos", "sin"):
        assert float(e2_prefactor("I0", kind)) <= 0.39
        assert float(e2_prefactor("I1", kind)) <= 0.30

    # remainder-contribution constants vs the printed 0.022 ... 2.885 spread
    printed_b = core_integrals._B_PRINTED
    for m_case, (b0, b1, _tau) in printed_b.items():
        assert estimate_B_recomputed(m_case, "I0") <= float(b0), m_case
        assert estimate_B_recomputed(m_case, "I1") <= float(b1), m_case
    flat_b = [c for row in printed_b.values() for c in row[:2]]
    assert F("0.022") in flat_b and F("2.885") in flat_b

    # rolled-up per-route budget constants dominate the recomputed sums
    printed_rollup = {
        (0, "I0"): 0.0030,
        (0, "I1"): 0.0028,
        (2, "I0"): 0.0028,
        (2, "I1"): 0.0015,
        (4, "I0"): 0.197,
        (4, "I1"): 0.264,
        (6, "I0"): 0.0022,
        (6, "I1"): 0.0020,
    }
    assert certify._ROLLED == printed_rollup
    for (m_case, variant), cap in printed_rollup.items():
        assert sum(c for _, c in certify._budget_constants(m_case, variant)) <= cap


# ---------------------------------------------------------------------------
# 5. the analytic tail of the quadrature pipeline
# ---------------------------------------------------------------------------


def test_criterion_5_tail_reproduction():
    published = {
        ("I0", "even"): 1.2798e-06,
        ("I0", "odd"): 0.2560e-06,
        ("I1", "even"): 0.2560e-06,
        ("I1", "odd"): 0.2560e-06,
    }
    for key, printed in published.items():
        enclosure = tail_main(*key)
        assert abs(enclosure.mid - printed) <= 1e-10, key
        assert enclosure.rad <= 1e-10
    assert tail_error_budget("I0", 18, 19) <= 5.5e-9
    assert tail_error_budget("I1", 0, 20) <= 5.5e-9
    low, high = PAPER_SCHEME.value
    assert low.error() <= 1.49e-9
    assert high.error() <= 1.42e-9


# ---------------------------------------------------------------------------
# 6. the published verification table
# ---------------------------------------------------------------------------

SAMPLED_CELLS = ((2, 0), (2, 2), (7, 6), (14, 4), (19, 18))


def test_criterion_6_table_sampled_cells():
    rows = sorted({n for n, _ in SAMPLED_CELLS})
    entries = {(e.n, e.m): e for e in build_table(rows)}
    for n, m in SAMPLED_CELLS:
        top, bottom = (row[m // 2] for row in PUBLISHED_TABLE[n])
        _assert_cell_close(entries[(n, m)], top, bottom)


def test_criterion_6_full_table():
    entries = {(e.n, e.m): e for e in build_table()}
    for n, (top_row, bottom_row) in PUBLISHED_TABLE.items():
        for i, (top, bottom) in enumerate(zip(top_row, bottom_row)):
            _assert_cell_close(entries[(n, 2 * i)], top, bottom)


# ---------------------------------------------------------------------------
# 7. both certification regimes meet at the crossover order
# ---------------------------------------------------------------------------

BRIDGE_CELLS = ((0, 20), (2, 20), (4, 20), (6, 20), (0, 24))


def test_criterion_7_theorem_bridge():
    for m, n in BRIDGE_CELLS:
        for variant in ("I0", "I1"):
            allowance = theorem_constants(m, n, variant) * float(n) ** -4
            outcome = check_theorem(m, n, variant, integral(variant, m, n))
            assert outcome.passed, (variant, m, n, outcome.deviation)
            assert outcome.allowance == allowance
            assert predict(m, n, variant).radius <= allowance, (variant, m, n)


# ---------------------------------------------------------------------------
# 8. expansion containment, rigorous interval arithmetic
# ---------------------------------------------------------------------------


def test_criterion_8_containment_property():
    rng = np.random.default_rng(20260822)
    radii = 1.0 + 9999.0 * rng.random(1000)
    e000 = product_expansion("J000")
    e110 = product_expansion("J110")
    assert e000.remainders[6] == F(588969477, 16)
    assert e110.remainders[6] == F(897834285, 16)
    coeffs = {
        tag: [pair for k in range(6) for pair in e.terms[k].coeffs]
        for tag, e in (("J000", e000), ("J110", e110))
    }
    for r in radii:
        rf = F(float(r))
        s0 = hiprec.scaled_bessel_encl(0, rf)
        s1 = hiprec.scaled_bessel_encl(1, rf)
        c_iv, s_iv = hiprec.expansion_trig_pair(rf)
        t = 1 / (16 * rf)
        targets = {
            "J000": hiprec.iv_mul(hiprec.iv_mul(s0, s0), s0),
            "J110": hiprec.iv_mul(hiprec.iv_mul(s1, s1), s0),
        }
        for tag, e in (("J000", e000), ("J110", e110)):
            partial = hiprec.trigpoly_encl(coeffs[tag], c_iv, s_iv, t)
            gap = hiprec.iv_abs_hi(hiprec.iv_sub(targets[tag], partial))
            assert gap <= e.remainders[6] * (16 * rf) ** -6, (tag, float(rf))


# ---------------------------------------------------------------------------
# 9. the quadrature rule itself
# ---------------------------------------------------------------------------


def test_criterion_9_quadrature_law(capsys, monkeypatch):
    # exact on polynomials through degree seven
    rng = np.random.default_rng(99)
    for _ in range(25):
        p = np.polynomial.Polynomial(rng.uniform(-4.0, 4.0, size=8))
        exact = p.integ()(1.8) - p.integ()(0.6)
        got = nc7_composite(p, 0.6, 1.8, 0.05)
        assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))

    # eighth-power error scales like w^8: halving w divides it by 256
    f = lambda r: r**8
    exact = 1.2**9 / 9.0
    err_w = abs(nc7_composite(f, 0.0, 1.2, 0.2) - exact)
    err_half = abs(nc7_composite(f, 0.0, 1.2, 0.1) - exact)
    assert err_w / err_half == pytest.approx(256.0, rel=0.01)

    # the granule size of the node vector never changes a byte of table
    # output (the default 4096-node granule splits both default Gauss
    # regions, and a 16384-node one the larger)
    assert quadrature._CHUNK == 4096
    assert all(r.size() > 4096 for r in quadrature._regions(quadrature.DEFAULT_SCHEME))
    argv = ["table", "--rows", "2..4"]
    quadrature._scheme_rows.cache_clear()
    assert cli.main(argv) == 0
    default = capsys.readouterr().out
    quadrature._scheme_rows.cache_clear()
    monkeypatch.setattr(quadrature, "_CHUNK", 16384)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == default
    assert default.startswith("n,m,top,bottom\n")
