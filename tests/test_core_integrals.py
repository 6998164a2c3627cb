"""Tests for the frequency decomposition, main terms and error bounds."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselsix.closed_form import descent_bound, vanishes_freq2, weber_schafheitlin
from besselsix.core_integrals import (
    CoefficientTables,
    CoreBoundBreakdown,
    _chain_dominated,
    coefficient_tables,
    core_bound_breakdown,
    e1_bound,
    e1_exact,
    e2_bound,
    e2_prefactor,
    estimate_B,
    estimate_B_recomputed,
    main_term,
    main_term_parts,
    pair_moment_constant,
    pair_moment_constant_cs,
    pair_moment_constant_tail,
    prop_4r_chain,
    trig_reduce,
)
from besselsix import core_integrals, exactnum
from besselsix.exactnum import N_MAX, ExactScalar, a_coeff, gaussian_binomial_bound
from besselsix.expansions import TrigPoly, product_expansion

F = Fraction


# ---------------------------------------------------------------------------
# trig reduction
# ---------------------------------------------------------------------------


def test_reduce_even_square_product():
    # 8 c^2 s^2  ->  cos 4r + 1
    r = trig_reduce(TrigPoly.from_dict({(2, 2, 0): 8}))
    assert r == {"const": {0: F(1)}, "cos4": {0: F(1)}}


def test_reduce_quartic_sine():
    # 8 s^4  ->  -cos 4r - 4 sin 2r + 3
    r = trig_reduce(TrigPoly.from_dict({(0, 4, 0): 8}))
    assert r == {"const": {0: F(3)}, "sin2": {0: F(-4)}, "cos4": {0: F(-1)}}


def test_reduce_mean_of_quartic_pair():
    # the constant part of c^4 + s^4 is 3/4
    r = trig_reduce(TrigPoly.from_dict({(4, 0, 0): 1, (0, 4, 0): 1}))
    assert r["const"] == {0: F(3, 4)}
    assert "sin2" not in r  # the odd parts cancel


def test_reduce_keeps_t_grading():
    r = trig_reduce(TrigPoly.from_dict({(3, 1, 2): 8, (1, 3, 5): -8}))
    assert r["cos2"] == {2: F(-2), 5: F(2)}
    assert r["sin4"] == {2: F(-1), 5: F(-1)}


# 8 c^i s^j over {1, cos 2r, sin 2r, cos 4r, sin 4r}, worked by hand
QUARTIC_ROWS = {
    (4, 0): {"const": 3, "sin2": 4, "cos4": -1},
    (3, 1): {"cos2": -2, "sin4": -1},
    (2, 2): {"const": 1, "cos4": 1},
    (1, 3): {"cos2": -2, "sin4": 1},
    (0, 4): {"const": 3, "sin2": -4, "cos4": -1},
}


@pytest.mark.parametrize("i, j", sorted(QUARTIC_ROWS))
def test_reduce_matches_the_quartic_rows(i, j):
    got = trig_reduce(TrigPoly.from_dict({(i, j, 3): 8}))
    assert got == {name: {3: F(w)} for name, w in QUARTIC_ROWS[i, j].items()}


def test_reduce_rejects_non_quartic():
    with pytest.raises(ValueError):
        trig_reduce(TrigPoly.from_dict({(2, 1, 0): 1}))
    with pytest.raises(ValueError):
        trig_reduce(TrigPoly.from_dict({(4, 1, 0): 1}))


@given(
    st.integers(0, 4),
    st.fractions(F(-100), F(100)),
    st.fractions(F(-100), F(100)),
    st.integers(0, 5),
)
def test_reduce_is_linear(i, qa, qb, k):
    mono = {(i, 4 - i, k): qa + qb}
    both = trig_reduce(TrigPoly.from_dict(mono)) if qa + qb else {}
    a = trig_reduce(TrigPoly.from_dict({(i, 4 - i, k): qa})) if qa else {}
    b = trig_reduce(TrigPoly.from_dict({(i, 4 - i, k): qb})) if qb else {}
    merged: dict = {}
    for part in (a, b):
        for name, d in part.items():
            for p, v in d.items():
                merged.setdefault(name, {}).setdefault(p, F(0))
                merged[name][p] += v
    merged = {
        name: {p: v for p, v in d.items() if v}
        for name, d in merged.items()
    }
    merged = {name: d for name, d in merged.items() if d}
    assert merged == both


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------


def test_tables_match_frozen_values():
    t0 = coefficient_tables("I0")
    assert t0 == CoefficientTables(
        "I0",
        (3, -150, 65250),
        (-1, -6, 66, 1124, -26838, -840564),
        (6, -1092, 826164),
        (-1, 6, 66, -1124, -26838, 840564),
    )
    t1 = coefficient_tables("I1")
    assert t1 == CoefficientTables(
        "I1",
        (1, 174, -33354),
        (1, -10, 30, 444, -10602, -335340),
        (18, -1164, 1071900),
        (1, 10, 30, -444, -10602, 335340),
    )


def test_tables_reject_unknown_variant():
    with pytest.raises(ValueError):
        coefficient_tables("I2")


def test_sin_route_alpha_magnitudes_match_cos_route():
    # the oscillatory tables of the two routes agree up to signs
    for v in ("I0", "I1"):
        t = coefficient_tables(v)
        got = tuple(abs(c) for c in t.gammas_betas_sin)
        want = tuple(abs(c) for c in t.betas_gammas_cos)
        assert got == want


def _route_reduction(variant: str, route: str):
    total = TrigPoly(())
    for term in product_expansion({"I0": "J000", "I1": "J110"}[variant]).terms:
        total = total + term
    carrier = (1, 0, 0) if route == "cos" else (0, 1, 0)
    return trig_reduce(TrigPoly.from_dict({carrier: F(8)}) * total)


def test_frequency_two_terms_all_certified_zero():
    # every frequency-2 integral produced by the decomposition is one of
    # the parity-vanishing closed forms, for each coefficient index k
    n = 20
    for variant in ("I0", "I1"):
        for m in (0, 2, 4, 6):
            for route, base in (("cos", 1), ("sin", 2)):
                red = _route_reduction(variant, route)
                assert red.get("cos2") and red.get("sin2")
                for trig, name in (("cos", "cos2"), ("sin", "sin2")):
                    for j in red[name]:
                        for k in range(m // 2 + 2):
                            assert vanishes_freq2(n, n + m, 2 * k + base + j, trig), (variant, m, route, trig, j, k)


# ---------------------------------------------------------------------------
# main terms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 20, 137])
def test_main_term_printed_m0(n):
    pole = (n - 1) * n * (n + 1)
    c, s = main_term_parts(0, n, "I0")
    assert c.coeff == F(3, 16 * n) - F(51, 2048) / pole
    assert s.coeff == F(3, 2048) / pole
    assert main_term(0, n, "I0").coeff == F(3, 16 * n) - F(3, 128) / pole
    c, s = main_term_parts(0, n, "I1")
    assert c.coeff == F(1, 16 * n) + F(39, 2048) / pole
    assert s.coeff == F(9, 2048) / pole
    assert main_term(0, n, "I1").coeff == F(1, 16 * n) + F(3, 128) / pole


@pytest.mark.parametrize("n", [2, 20, 137])
def test_main_term_printed_m2(n):
    pole = n * (n + 1) * (n + 2)
    assert main_term_parts(2, n, "I0")[0].coeff == F(195, 4096) / pole
    assert main_term_parts(2, n, "I0")[1].coeff == F(45, 4096) / pole
    assert main_term(2, n, "I0").coeff == F(15, 256) / pole
    assert main_term_parts(2, n, "I1")[0].coeff == F(9, 4096) / pole
    assert main_term_parts(2, n, "I1")[1].coeff == F(135, 4096) / pole
    assert main_term(2, n, "I1").coeff == F(9, 256) / pole


@pytest.mark.parametrize("n", [2, 20, 137])
def test_main_term_printed_m4(n):
    pole = n * (n + 1) * (n + 2) * (n + 3) * (n + 4)
    assert main_term_parts(4, n, "I0")[0].coeff == F(322425, 1048576) / pole
    assert main_term_parts(4, n, "I0")[1].coeff == F(76167, 1048576) / pole
    assert main_term(4, n, "I0").coeff == F(1557, 4096) / pole
    assert main_term_parts(4, n, "I1")[0].coeff == F(7011, 1048576) / pole
    assert main_term_parts(4, n, "I1")[1].coeff == F(211869, 1048576) / pole
    assert main_term(4, n, "I1").coeff == F(855, 4096) / pole


def test_main_term_vanishes_above_m4():
    for m in (6, 8, 10, 40):
        for v in ("I0", "I1"):
            assert main_term(m, 20, v).is_zero()


def test_main_term_aggregation_identities():
    # the two-route sums collapse to single small fractions
    assert F(-51, 2048) + F(3, 2048) == F(-3, 128)
    assert F(195, 4096) + F(45, 4096) == F(15, 256)
    assert F(9, 4096) + F(135, 4096) == F(9, 256)
    assert F(322425, 1048576) + F(76167, 1048576) == F(1557, 4096)
    assert F(7011, 1048576) + F(211869, 1048576) == F(855, 4096)


def test_main_term_domain():
    with pytest.raises(ValueError):
        main_term(1, 20, "I0")
    with pytest.raises(ValueError):
        main_term(0, 1, "I0")
    with pytest.raises(ValueError):
        main_term(0, 20, "I7")
    main_term(0, 2, "I0")  # small orders are allowed for the exact terms


def test_main_terms_are_plain_rationals():
    for m in (0, 2, 4):
        for v in ("I0", "I1"):
            c, s = main_term_parts(m, 20, v)
            assert c.sqrtpi_power == 0 and s.sqrtpi_power == 0


# ---------------------------------------------------------------------------
# first-kind errors
# ---------------------------------------------------------------------------


def _gr(p, q):
    return F(math.factorial(p - 1), math.factorial(q - 1))


@pytest.mark.parametrize("n", [20, 33])
def test_e1_exact_m0_cos_closed_form(n):
    got = e1_exact(0, n, "I0", "cos")
    want = F(101925, 4194304) * _gr(n - 2, n + 3) - F(1468125, 1073741824) * _gr(n - 3, n + 4)
    assert got == want
    got = e1_exact(0, n, "I1", "cos")
    want = -F(54729, 4194304) * _gr(n - 2, n + 3) + F(750465, 1073741824) * _gr(n - 3, n + 4)
    assert got == want


def test_e1_printed_bounds_at_anchor():
    n = 20
    n4, n6 = 20.0**-4, 20.0**-6
    assert e1_bound(0, n, "I0", "cos") == pytest.approx(0.026 / 20 * n4)
    assert e1_bound(0, n, "I1", "cos") == pytest.approx(0.015 / 20 * n4)
    assert e1_bound(0, n, "I0", "sin") == pytest.approx(0.0016 / 20 * n4)
    assert e1_bound(0, n, "I1", "sin") == pytest.approx(0.0030 / 20 * n4)
    assert e1_bound(2, n, "I0", "cos") == pytest.approx(0.039 / 20 * n4)
    assert e1_bound(2, n, "I1", "cos") == pytest.approx(0.012 / 20 * n4)
    assert e1_bound(2, n, "I0", "sin") == pytest.approx(0.0062 / 20 * n4)
    assert e1_bound(2, n, "I1", "sin") == pytest.approx(0.0031 / 20 * n4)
    assert e1_bound(4, n, "I0", "cos") == pytest.approx(0.42 / 20 * n6)
    assert e1_bound(4, n, "I1", "cos") == pytest.approx(0.11 / 20 * n6)
    assert e1_bound(4, n, "I0", "sin") == pytest.approx(0.086 / 20 * n6)
    assert e1_bound(4, n, "I1", "sin") == pytest.approx(0.063 / 20 * n6)
    assert e1_bound(6, n, "I0", "cos") == pytest.approx(6.34 / 20**3 * n4)
    assert e1_bound(6, n, "I1", "cos") == pytest.approx(0.09 / 20**3 * n4)
    assert e1_bound(6, n, "I0", "sin") == pytest.approx(1.49 / 20**3 * n4)
    assert e1_bound(6, n, "I1", "sin") == pytest.approx(4.08 / 20**3 * n4)


# printed first-kind constants, refrozen here: (I0, I1, anchor exp, n exp)
_E1_FROZEN = {
    (0, "cos"): ("0.026", "0.015", 1, 4),
    (0, "sin"): ("0.0016", "0.0030", 1, 4),
    (2, "cos"): ("0.039", "0.012", 1, 4),
    (2, "sin"): ("0.0062", "0.0031", 1, 4),
    (4, "cos"): ("0.42", "0.11", 1, 6),
    (4, "sin"): ("0.086", "0.063", 1, 6),
    (6, "cos"): ("6.34", "0.09", 3, 4),
    (6, "sin"): ("1.49", "4.08", 3, 4),
}


@pytest.mark.parametrize("variant", ["I0", "I1"])
@pytest.mark.parametrize("kind", ["cos", "sin"])
@pytest.mark.parametrize("n", [20, 10**6])
def test_e1_exact_below_printed(variant, kind, n):
    # dominance in exact rational arithmetic at both pinned orders
    for m in (0, 2, 4, 6, 10):
        c0, c1, p0, pn = _E1_FROZEN[(min(m, 6), kind)]
        c = F(c0) if variant == "I0" else F(c1)
        assert abs(e1_exact(m, n, variant, kind)) <= c / 20**p0 / F(n) ** pn


@pytest.mark.parametrize("variant", ["I0", "I1"])
@pytest.mark.parametrize("kind", ["cos", "sin"])
@pytest.mark.parametrize("n", [20, 30])
def test_e1_monotone_in_m_beyond_six(variant, kind, n):
    values = [abs(e1_exact(m, n, variant, kind)) for m in range(6, 22, 2)]
    assert all(values[0] >= v for v in values[1:])


@pytest.mark.parametrize("variant", ["I0", "I1"])
def test_e1_bound_accepts_m_beyond_twenty(variant):
    # the first-use check must evaluate the exact e1 only where n >= m
    for m, n in ((22, 30), (22, 22), (40, 41)):
        b = core_bound_breakdown(m, n, variant)
        for kind in ("cos", "sin"):
            assert 0 < abs(e1_exact(m, n, variant, kind)) <= getattr(b, f"e1_{kind}")


@pytest.mark.parametrize("kind", ["cos", "sin"])
def test_e1_first_use_check_computes_each_coefficient_once(monkeypatch, kind):
    # the check reads a few a_j(1000) at two orders n; each is one exact
    # Gamma ratio Gamma(1000+j+1/2)/Gamma(1000-j+1/2), a product of 2j
    # factors, so it must be computed once
    calls = []
    real = exactnum.gamma_ratio

    def counting(two_a, two_b):
        calls.append((two_a, two_b))
        return real(two_a, two_b)

    monkeypatch.setattr(exactnum, "gamma_ratio", counting)
    exactnum.a_coeff.cache_clear()
    core_integrals._series_weights.cache_clear()
    core_integrals._series_form.cache_clear()
    core_integrals._e1_dominates.__wrapped__(1000, "I0", kind)
    large = [call for call in calls if call[0] > 2000]
    assert large and len(large) == len(set(large))


def _series_by_terms(m, n, variant, kind, part):
    """The main term or e1 of one route, summed term by term: (-1)^(m/2)/8
    s_j a_j(m) alpha_i 16^-i WS(n, n+m, 1+j+i) over j <= m+3, i <= 5 of the
    route's parity, s_j the Hankel sign; the main term takes j+i <= max(m, 2)
    for m <= 4 and nothing beyond, e1 takes the rest."""
    t = coefficient_tables(variant)
    alpha = dict(zip((0, 2, 4), t.alphas_cos)) | dict(zip((1, 3, 5), t.alphas_sin))
    parity = 0 if kind == "cos" else 1
    total = F(0)
    for j in range(parity, m + 4, 2):
        hankel_sign = (-1) ** (j // 2) if j % 2 == 0 else (-1) ** ((j + 1) // 2)
        for i in range(parity, 6, 2):
            if (part == "main") != (m <= 4 and j + i <= max(m, 2)):
                continue
            ws = weber_schafheitlin(n, n + m, 1 + j + i)
            assert ws.sqrtpi_power == 0
            total += (-1) ** (m // 2) * hankel_sign * a_coeff(j, m).coeff * alpha[i] / 16**i * ws.coeff / 8
    return total


@pytest.mark.parametrize("variant", ["I0", "I1"])
def test_main_terms_and_e1_are_one_weber_schafheitlin_series(variant):
    # the stored rational functions against the term-by-term sum, from the
    # least n of each domain to the cap
    for m in range(0, 42, 2):
        n0 = max(20, m)
        for n in sorted({n0, n0 + 1, 137, 10**6, N_MAX}):
            for kind, main in zip(("cos", "sin"), main_term_parts(m, n, variant)):
                assert main.coeff == _series_by_terms(m, n, variant, kind, "main"), (m, n, kind)
                assert e1_exact(m, n, variant, kind) == _series_by_terms(m, n, variant, kind, "e1"), (m, n, kind)
    for n in range(2, 20):  # every table cell with a main term, and m = 4 below it
        for m in (0, 2, 4):
            for kind, main in zip(("cos", "sin"), main_term_parts(m, n, variant)):
                assert main.coeff == _series_by_terms(m, n, variant, kind, "main"), (m, n, kind)
    for m in (100, 200):
        for kind in ("cos", "sin"):
            assert e1_exact(m, m, variant, kind) == _series_by_terms(m, m, variant, kind, "e1"), (m, kind)


def test_each_series_form_is_built_once(monkeypatch):
    # one rational function per (m, variant, route, part), and one merged
    # main form of both routes per (m, variant), whatever n asks
    builds = []
    real = core_integrals._series_weights

    def counting(*key):
        builds.append(key)
        return real(*key)

    monkeypatch.setattr(core_integrals, "_series_weights", counting)
    core_integrals._series_form.cache_clear()
    cells = [(m, v) for m in (0, 2, 4, 6, 8) for v in ("I0", "I1")]
    keys = {(m, v, (kind,), part) for m, v in cells for kind in ("cos", "sin") for part in ("main", "e1")}
    keys |= {(m, v, ("cos", "sin"), "main") for m, v in cells}
    for m, v in cells:
        for n in (20, 21, 137, 10**6, N_MAX):
            main_term_parts(m, n, v)
            main_term(m, n, v)
            for kind in ("cos", "sin"):
                e1_exact(m, n, v, kind)
    assert sorted(builds) == sorted(keys)


def test_main_term_evaluates_one_form(monkeypatch):
    # the total is one stored form, not the sum of the two routes' forms
    main_term(2, 25, "I0")
    calls = []
    real = core_integrals._evaluate
    monkeypatch.setattr(core_integrals, "_evaluate", lambda *a: calls.append(a) or real(*a))
    main_term(2, 26, "I0")
    assert len(calls) == 1


@pytest.mark.parametrize("variant", ["I0", "I1"])
def test_main_term_is_the_sum_of_its_parts(variant):
    # the merged form against cos + sin of the per-route forms, exactly
    cells = [(m, n) for m in range(0, 42, 2) for n in sorted({max(20, m), max(20, m) + 1, 137, 10**6, N_MAX})]
    cells += [(m, n) for m in (0, 2, 4) for n in range(2, 20)]
    for m, n in cells:
        cos, sin = main_term_parts(m, n, variant)
        assert main_term(m, n, variant) == cos + sin, (m, n)


@pytest.mark.parametrize(
    "call",
    [
        lambda: e1_exact(0, 20, "I0", "tan"),
        lambda: e1_bound(0, 20, "I0", "tan"),
        lambda: e2_prefactor("I0", "tan"),
        lambda: e2_bound(0, 20, "I0", "tan"),
    ],
    ids=["e1_exact", "e1_bound", "e2_prefactor", "e2_bound"],
)
def test_every_route_check_says_the_same(call):
    # e2_prefactor used to read any kind but "cos" as the sine route
    with pytest.raises(ValueError, match=r'^kind must be "cos" or "sin"$'):
        call()


def test_e1_domain():
    with pytest.raises(ValueError):
        e1_bound(0, 19, "I0", "cos")
    with pytest.raises(ValueError):
        e1_bound(3, 20, "I0", "cos")
    with pytest.raises(ValueError):
        e1_bound(22, 20, "I0", "cos")  # m beyond n
    with pytest.raises(ValueError):
        e1_bound(0, 20, "I0", "tan")
    with pytest.raises(ValueError):
        e1_exact(0, 20, "Ix", "cos")


# ---------------------------------------------------------------------------
# second-kind errors and the 4r proof chain
# ---------------------------------------------------------------------------


def test_e2_recomputed_prefactors_below_printed():
    for kind in ("cos", "sin"):
        p0 = e2_prefactor("I0", kind)
        p1 = e2_prefactor("I1", kind)
        assert F("0.389") < p0 <= F("0.39")
        assert F("0.291") < p1 <= F("0.30")
    # the two routes weigh the same absolute coefficients
    for v in ("I0", "I1"):
        assert e2_prefactor(v, "cos") == e2_prefactor(v, "sin")


def test_e2_bound_values():
    assert e2_bound(0, 20, "I0", "cos") == pytest.approx(0.39 * 0.6**20 * 20.0**-4)
    assert e2_bound(2, 31, "I1", "sin") == pytest.approx(0.30 * 0.6**20 * 31.0**-4)
    # the m = 4 route expanded one order further: slower theta, faster n-decay
    assert e2_bound(4, 20, "I0", "cos") == pytest.approx(0.39 * 0.75**20 * 20.0**-6)
    assert e2_bound(6, 25, "I0", "cos") == pytest.approx(0.39 * 0.6**20 * 25.0**-4)


def test_e2_domain():
    with pytest.raises(ValueError):
        e2_bound(0, 19, "I0", "cos")
    with pytest.raises(ValueError):
        e2_bound(1, 20, "I0", "cos")
    with pytest.raises(ValueError):
        e2_bound(0, 20, "I0", "none")


def test_chain_below_uniform_bound():
    for m, n in ((0, 20), (2, 20), (20, 20), (0, 24), (6, 50)):
        assert prop_4r_chain(m, n) <= n**-1.0 * 0.35**n


def test_one_e2_check_covers_every_n():
    # the e2 check runs at n0 = max(20, m) only; both ratios it rests on
    # fall with n from there
    for m in (0, 2, 4, 6, 8, 12, 20, 40, 100):
        n0 = max(20, m)
        ratio = [prop_4r_chain(m, n) * n / 0.35**n for n in range(n0, n0 + 300)]
        assert all(a > b for a, b in zip(ratio, ratio[1:])), m
    for tau in (4, 6):
        decay = [n ** (tau - 1) * 0.35**n for n in range(5, 400)]
        assert all(a > b for a, b in zip(decay, decay[1:])), tau


def test_chain_binomial_factor_dominates_descent_bound():
    # the chain's Gaussian binomial factor is 1.04-1.27 times the descent
    # bound of the frequency-4 integral of J_n J_{n+m} / r
    for m in range(0, 42, 2):
        for n in (max(20, m), 25 + m, 60 + m):
            binomial = gaussian_binomial_bound(n + m / 2, m / 2) / (n * (n + m)) * 4.0 ** -(2 * n + m)
            assert 0.75 <= float(descent_bound(n, n + m, 1)) / binomial < 1.0, (m, n)


def test_chain_value_spot():
    # folded-power evaluation against a literal transcription
    m, n = 20, 20
    A = 4.0 ** (math.log(2.0) / 9.0) * math.exp(-((math.log(2.0) / 3.0) ** 2))
    s1 = 1.03 * (2.0 * math.exp(1 / 24) / math.sqrt(math.pi)) * 21.0**-0.5 * 11.0 * A**21
    s2 = (
        math.exp(1 / 24)
        / (2.0 * math.sqrt(math.pi))
        * math.sqrt(30.0)
        * math.exp(-100.0 / 30.0)
        / 800.0
    )
    assert prop_4r_chain(m, n) == pytest.approx(s1 * s2 * 2.0 ** (20 / 3 - 40), rel=1e-12)


def test_prop_4r_bound_cases_and_domain():
    # the proposition's uniform bound n^-1 0.35^n, held in logs by _chain_dominated
    assert math.exp(_chain_dominated(0, 20)) == pytest.approx(20.0**-1 * 0.35**20)
    with pytest.raises(ValueError):
        _chain_dominated(22, 20)
    with pytest.raises(ValueError):
        _chain_dominated(3, 20)
    with pytest.raises(ValueError):
        _chain_dominated(0, 19)


def test_prop_4r_bound_large_n_stays_finite():
    # the folded powers keep the recomputation representable
    # the bound underflows, but its logarithm does not
    assert _chain_dominated(100, 5000) == pytest.approx(5000 * math.log(0.35) - math.log(5000))
    assert prop_4r_chain(100, 5000) == 0.0


def test_chain_check_holds_where_both_sides_underflow(monkeypatch):
    # at m = n = 1000 the chain (1e-555) and its bound n^-1 0.35^n (1e-459)
    # are both 0.0 in floats; the check compares their logarithms, so a
    # chain set to 100 times the bound is still refused
    from besselsix.certify import predict

    assert prop_4r_chain(1000, 1000) == 0.0 and 1000**-1.0 * 0.35**1000 == 0.0
    real = core_integrals._log_4r_chain
    monkeypatch.setattr(
        core_integrals, "_log_4r_chain", lambda m, n: real(m, n) if m < 1000 else math.log(100 / n) + n * math.log(0.35)
    )
    _chain_dominated.cache_clear()
    core_integrals._e2_dominates.cache_clear()
    with pytest.raises(exactnum.CertificationError, match=r"4r chain fails at \(1000, 1000\)"):
        predict(1000, 1000, "I0")


def test_e2_check_holds_where_both_sides_underflow(monkeypatch):
    # at m = n = 1000 the 4r bound n^-1 0.35^n (1e-459) is 0.0 in floats, and
    # so is the e2 item once theta = 1e-23 forces it below the bound; the
    # check compares their logarithms, so it still refuses
    from besselsix.certify import predict

    real = core_integrals._decay
    monkeypatch.setattr(core_integrals, "_decay", lambda m: (4, 1e-23) if m == 1000 else real(m))
    core_integrals._e2_dominates.cache_clear()
    try:
        with pytest.raises(exactnum.CertificationError, match=r"4r bound of \(1000, 'I0'\) exceeds e2"):
            predict(1000, 1000, "I0")
    finally:
        core_integrals._e2_dominates.cache_clear()


# ---------------------------------------------------------------------------
# the expansion-remainder contribution
# ---------------------------------------------------------------------------


def test_pair_moment_constant_range():
    values = [pair_moment_constant(ell) for ell in range(5, 11)]
    assert all(0.14 <= c <= 0.19 for c in values)
    assert all(a > b for a, b in zip(values, values[1:]))  # decreasing in ell


def test_pair_moment_constant_cs_range():
    values = [pair_moment_constant_cs(2, ell) for ell in range(5, 11)]
    assert all(0.11 <= c <= 0.15 for c in values)


def test_pair_moment_constant_tail_decreasing_in_m():
    values = [pair_moment_constant_tail(m, 5) for m in range(12, 40, 2)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_pair_moment_domains():
    with pytest.raises(ValueError):
        pair_moment_constant(1)
    with pytest.raises(ValueError):
        pair_moment_constant_cs(0, 5)
    with pytest.raises(ValueError):
        pair_moment_constant_cs(3, 5)
    with pytest.raises(ValueError):
        pair_moment_constant_tail(10, 5)


@pytest.mark.parametrize("variant", ["I0", "I1"])
def test_B_recomputed_below_printed(variant):
    printed = {
        0: {"I0": 0.022, "I1": 0.023},
        2: {"I0": 0.162, "I1": 0.166},
        4: {"I0": 2.823, "I1": 2.885},
    }
    tau = {0: 4, 2: 6, 4: 8}
    for m in (0, 2, 4):
        anchor = printed[m][variant] / 20 * 20.0 ** -tau[m]
        assert estimate_B_recomputed(m, variant) <= anchor
    for m in (6, 8, 10, 12, 14, 20):
        assert estimate_B_recomputed(m, variant) <= 0.015 / 20 * 20.0**-4


def test_B_mid_range_uses_sharper_route():
    # m = 6 through the exact-coefficient route sits far beneath the
    # printed budget; the crude coefficient lemma would not
    assert estimate_B_recomputed(6, "I0") < 1e-3 * 0.015 / 20 * 20.0**-4
    lemma_style = pair_moment_constant_tail(12, 5) * 20.0**-5
    assert estimate_B_recomputed(12, "I0") == pytest.approx(lemma_style, rel=0.03)


def test_B_values_and_scaling():
    assert estimate_B(0, 20, "I0") == pytest.approx(0.022 / 20 * 20.0**-4)
    assert estimate_B(0, 40, "I0") == pytest.approx(0.022 / 20 * 40.0**-4)
    assert estimate_B(2, 20, "I1") == pytest.approx(0.166 / 20 * 20.0**-6)
    assert estimate_B(4, 25, "I0") == pytest.approx(2.823 / 20 * 25.0**-8)
    assert estimate_B(6, 20, "I0") == pytest.approx(0.015 / 20 * 20.0**-4)
    assert estimate_B(18, 30, "I1") == pytest.approx(0.015 / 20 * 30.0**-4)


def test_B_domain():
    with pytest.raises(ValueError):
        estimate_B(0, 19, "I0")
    with pytest.raises(ValueError):
        estimate_B(1, 20, "I0")
    with pytest.raises(ValueError):
        estimate_B(22, 20, "I0")
    with pytest.raises(ValueError):
        estimate_B(0, 20, "bad")


# ---------------------------------------------------------------------------
# assembled breakdown
# ---------------------------------------------------------------------------


def test_breakdown_collects_the_parts():
    # the breakdown checks its arguments once and reads the cached float
    # factors; every field must still equal the public functions' value
    for m in (0, 2, 4, 6, 8, 40):
        for n in sorted({max(20, m), max(24, m), 137, 10**6, N_MAX}):
            for v in ("I0", "I1"):
                bd = core_bound_breakdown(m, n, v)
                c, s = main_term_parts(m, n, v)
                assert bd.main_cos == c and bd.main_sin == s
                for kind in ("cos", "sin"):
                    assert getattr(bd, f"e1_{kind}").hex() == e1_bound(m, n, v, kind).hex(), (m, n, v)
                    assert getattr(bd, f"e2_{kind}").hex() == e2_bound(m, n, v, kind).hex(), (m, n, v)


@pytest.mark.parametrize(
    "args, message",
    [
        ((1, 21, "I0"), "m must be even and nonnegative, got 1"),
        ((0, 19, "I0"), "the certified regime needs n >= 20"),
        ((0, N_MAX + 1, "I0"), "the certified regime needs n <= 1e+38"),
        ((22, 20, "I0"), "m must not exceed n, got m=22, n=20"),
        ((0, 20, "I2"), "variant must be 'I0' or 'I1', got 'I2'"),
        # the domain is checked before the variant
        ((1, 21, "I2"), "m must be even and nonnegative, got 1"),
        ((0, 19, "I2"), "the certified regime needs n >= 20"),
    ],
    ids=["odd-m", "n-below-20", "n-above-cap", "m-above-n", "variant", "odd-m-and-variant", "n-and-variant"],
)
def test_breakdown_refusals(args, message):
    with pytest.raises(ValueError) as excinfo:
        core_bound_breakdown(*args)
    assert type(excinfo.value) is ValueError and str(excinfo.value) == message


def test_breakdown_validation():
    zero = ExactScalar(0)
    with pytest.raises(ValueError):
        CoreBoundBreakdown(zero, zero, -1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        CoreBoundBreakdown(ExactScalar(Fraction(1), 1), zero, 0.0, 0.0, 0.0, 0.0)


@given(st.integers(20, 400), st.sampled_from([0, 2, 4, 6, 8]))
@settings(max_examples=25, deadline=None)
def test_error_budget_decreasing_in_n(n, m):
    for v in ("I0", "I1"):
        for kind in ("cos", "sin"):
            assert e1_bound(m, n + 1, v, kind) < e1_bound(m, n, v, kind)
            assert e2_bound(m, n + 1, v, kind) < e2_bound(m, n, v, kind)
        assert estimate_B(m, n + 1, v) < estimate_B(m, n, v)
