"""Tests for the large-order prediction assembly and theorem constants."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselsix import CertificationError, certify, core_integrals
from besselsix.bessel import CertifiedValue
from besselsix.certify import (
    NORMALIZATION,
    Prediction,
    THEOREM_MAP,
    check_theorem,
    predict,
    theorem_constants,
)
from besselsix.core_integrals import e1_bound, e2_bound, estimate_B, main_term
from besselsix.exactnum import N_MAX, Budget, ExactScalar
from besselsix.expansions import estimate_A
from besselsix.quadrature import integral
from testkit import theorem_verdict

NORM = 4.0 / math.pi**2

# printed roll-ups of the budget constants
ROLLED = {
    (0, "I0"): (0.0030, 4),
    (0, "I1"): (0.0028, 4),
    (2, "I0"): (0.0028, 4),
    (2, "I1"): (0.0015, 4),
    (4, "I0"): (0.197, 6),
    (4, "I1"): (0.264, 6),
    (6, "I0"): (0.0022, 4),
    (6, "I1"): (0.0020, 4),
}


# ---------------------------------------------------------------------------
# prediction assembly
# ---------------------------------------------------------------------------


def test_radius_below_printed_rollup():
    for (m, variant), (c, tau) in ROLLED.items():
        for n in (20, 25, 40):
            p = predict(m, n, variant)
            assert p.radius <= c * NORM * float(n) ** -tau
            # and not absurdly below: the printed constants are sharp
            assert p.radius >= 0.9 * c * NORM * float(n) ** -tau


def test_budget_itemization_m0():
    p = predict(0, 20, "I0")
    names = [name for name, _ in p.budget]
    assert names == ["estimate_A", "estimate_B", "e1", "e2"]
    scale = NORM * 20.0**-4
    items = dict(p.budget)
    assert items["estimate_A"] == pytest.approx(0.74 * 20**-2.5 * scale)
    assert items["estimate_B"] == pytest.approx(0.022 / 20 * scale)
    assert items["e1"] == pytest.approx((0.026 + 0.0016) / 20 * scale)
    assert items["e2"] == pytest.approx(0.78 * 0.6**20 * scale)
    assert p.radius == sum(v for _, v in p.budget)


def test_budget_itemization_m4_uses_slower_pair():
    p = predict(4, 20, "I1")
    scale = NORM * 20.0**-6
    items = dict(p.budget)
    assert items["estimate_A"] == pytest.approx(1.12 * 20**-0.5 * scale)
    assert items["estimate_B"] == pytest.approx(2.885 / 20**3 * scale)
    assert items["e1"] == pytest.approx((0.11 + 0.063) / 20 * scale)
    assert items["e2"] == pytest.approx(0.60 * 0.75**20 * scale)


def test_radius_dominates_sharp_parts():
    # the anchored budget must sit above the per-part bounds it relaxes
    for variant in ("I0", "I1"):
        for m, n in ((0, 20), (0, 37), (2, 21), (4, 20), (6, 28), (12, 60)):
            p = predict(m, n, variant)
            sharp = estimate_B(m, n, variant)
            sharp += estimate_A(m, n, variant)
            for kind in ("cos", "sin"):
                sharp += e1_bound(m, n, variant, kind)
                sharp += e2_bound(m, n, variant, kind)
            assert p.radius >= NORM * sharp


def test_main_is_normalized_core_term():
    p = predict(2, 24, "I0")
    assert p.main == NORMALIZATION * main_term(2, 24, "I0")
    assert p.main.sqrtpi_power == -4
    assert predict(8, 30, "I1").main == ExactScalar(0)


def test_main_m0_limit():
    # main(n) * 4 pi^2 n -> 3, checked in exact arithmetic at n = 10^6
    p = predict(0, 10**6, "I0")
    value = 4 * 10**6 * p.main.coeff  # pi-powers cancel against 4 pi^2 n
    assert abs(value - 3) / 3 < Fraction(1, 10**9)


def test_prediction_validation():
    # a negative item is refused; the radius is the items' sum and cannot be
    # set to disagree with them
    with pytest.raises(ValueError):
        Prediction("I0", 0, 20, ExactScalar(0), Budget((("e1", -1.0), ("e2", 2.0))))
    p = Prediction("I0", 0, 20, ExactScalar(0), Budget((("e1", 0.5), ("e2", 0.25))))
    assert p.radius == 0.75
    with pytest.raises(AttributeError):
        p.radius = 1.0


def test_n_cap_keeps_every_float_of_the_route_normal():
    # estimate_B at m = 4, c/20 n^-8, falls fastest: normal at the cap,
    # subnormal a few times past it
    tiny = sys.float_info.min
    assert 2.885 / 20 * 3e38**-8 < tiny
    for variant in ("I0", "I1"):
        assert estimate_B(4, N_MAX, variant) >= tiny
        for m in (0, 2, 4, 6, 100):
            p = predict(m, N_MAX, variant)
            assert min(value for _, value in p.budget) >= tiny, (m, variant)
            outcome = check_theorem(m, N_MAX, variant, CertifiedValue(p.main.to_real(), p.radius))
            assert outcome.allowance >= tiny
        for call, what in (
            (lambda: predict(4, N_MAX + 1, variant), "the certified regime"),
            (lambda: estimate_B(4, N_MAX + 1, variant), "the certified regime"),
            (lambda: check_theorem(0, N_MAX + 1, variant, CertifiedValue(0.0, 0.0)), "the theorem"),
            (lambda: check_theorem(0, 10**400, variant, CertifiedValue(0.0, 0.0)), "the theorem"),
        ):
            with pytest.raises(ValueError, match=f"^{what} needs n <= 1e\\+38$"):
                call()


def test_predict_domain():
    with pytest.raises(ValueError):
        predict(0, 19, "I0")
    with pytest.raises(ValueError):
        predict(3, 20, "I0")
    with pytest.raises(ValueError):
        predict(22, 20, "I0")
    with pytest.raises(ValueError):
        predict(0, 20, "I9")


def test_predict_refuses_an_e1_exponent_below_tau(monkeypatch):
    # with n^-5 for n^-6 both m = 4 rows still dominate the exact error,
    # but relaxing them to the anchor's n^-tau needs pn >= tau = 6
    for kind in ("cos", "sin"):
        c0, c1, p0, _ = core_integrals._E1_PRINTED[(4, kind)]
        monkeypatch.setitem(core_integrals._E1_PRINTED, (4, kind), (c0, c1, p0, 5))
    core_integrals._e1_dominates.cache_clear()
    certify._budget_constants.cache_clear()
    try:
        with pytest.raises(CertificationError, match="n-exponent 5"):
            predict(4, 40, "I0")
    finally:
        core_integrals._e1_dominates.cache_clear()
        certify._budget_constants.cache_clear()


@given(st.integers(20, 10**5), st.sampled_from([0, 2, 4, 6]), st.sampled_from(["I0", "I1"]))
@settings(max_examples=40, deadline=None)
def test_radius_positive_and_decreasing(n, m, variant):
    p = predict(m, n, variant)
    q = predict(m, n + 1, variant)
    assert 0 < q.radius < p.radius


# ---------------------------------------------------------------------------
# theorem constants
# ---------------------------------------------------------------------------


def test_constant_map_spot_values():
    assert theorem_constants(0, 5, "I0") == 0.01
    assert theorem_constants(4, 4, "I1") == 0.0015
    assert theorem_constants(2, 2, "I0") == 0.002


def test_constant_map_m0_ranges():
    for n in (2, 3, 4, 5, 6):
        assert theorem_constants(0, n, "I0") == 0.01
    for n in (7, 8, 20, 1000):
        assert theorem_constants(0, n, "I0") == 0.002
    for n in (2, 3):
        assert theorem_constants(0, n, "I1") == 0.01
    for n in (4, 5, 19, 500):
        assert theorem_constants(0, n, "I1") == 0.002
    assert theorem_constants(0, 1, "I0") is None
    assert theorem_constants(0, 0, "I1") is None


def test_constant_map_higher_m():
    for v in ("I0", "I1"):
        for n in (2, 3, 10):
            assert theorem_constants(2, n, v) == 0.002
        for n in (4, 7, 100):
            assert theorem_constants(4, n, v) == 0.0015
        for m in (6, 8, 18):
            assert theorem_constants(m, m, v) == 0.0015
            assert theorem_constants(m, m + 7, v) == 0.0015


def test_constant_map_absent_above_diagonal():
    assert theorem_constants(6, 4, "I0") is None
    assert theorem_constants(10, 9, "I1") is None
    assert theorem_constants(2, 1, "I0") is None


def test_constant_map_domain():
    with pytest.raises(ValueError):
        theorem_constants(1, 5, "I0")
    with pytest.raises(ValueError):
        theorem_constants(0, -1, "I0")
    with pytest.raises(ValueError):
        theorem_constants(0, 5, "Ix")


def test_map_rows_are_well_formed():
    assert len(THEOREM_MAP) == 10
    for variant, m_lo, m_hi, n_lo, n_hi, c in THEOREM_MAP:
        assert variant in ("I0", "I1")
        assert c in (0.01, 0.002, 0.0015)
        assert m_hi is None or m_hi >= m_lo


def test_prediction_radius_within_theorem_allowance():
    # the assembled budget is what proves the theorem at large order
    for variant in ("I0", "I1"):
        for m in (0, 2, 4, 6, 8):
            for n in (20, 21, 50, 400):
                allowance = theorem_constants(m, n, variant) * n**-4.0
                assert predict(m, n, variant).radius <= allowance


# ---------------------------------------------------------------------------
# theorem checking
# ---------------------------------------------------------------------------


def test_check_passes_on_truthful_enclosure():
    main = (NORMALIZATION * main_term(2, 20, "I0")).to_real()
    report = check_theorem(2, 20, "I0", CertifiedValue(main, 1e-12))
    assert report.passed
    assert report.allowance == pytest.approx(0.002 * 20.0**-4)
    assert report.slack > 0


def test_check_fails_on_wide_enclosure():
    main = (NORMALIZATION * main_term(2, 20, "I0")).to_real()
    report = check_theorem(2, 20, "I0", CertifiedValue(main, 1.0))
    assert not report.passed
    assert report.slack < 0


def test_check_counts_deviation_and_width():
    report = check_theorem(6, 30, "I0", CertifiedValue(2e-9, 1e-9))
    assert report.deviation == pytest.approx(3e-9)  # main is zero here
    assert report.passed == (report.deviation <= report.allowance)


@pytest.mark.parametrize(
    "m, n, variant", [(0, 25, "I0"), (2, 30, "I1"), (0, 40, "I0"), (4, 21, "I1")]
)
def test_check_is_exact_at_the_boundary(m, n, variant):
    # A radius of exactly the float allowance passes a float comparison,
    # but float(c) lies above the decimal c and the float main term is
    # rounded, so the enclosure does not certifiably pass.
    main = (NORMALIZATION * main_term(m, n, variant)).to_real()
    c = theorem_constants(m, n, variant)
    report = check_theorem(m, n, variant, CertifiedValue(main, c * n**-4))
    assert report.deviation == report.allowance == c * float(n) ** -4
    assert not report.passed


def test_check_reports_an_enclosure_past_the_float_range():
    # an exact midpoint too large for a float is a valid enclosure; it fails
    # the theorem, with an infinite deviation, instead of raising
    for measured in (CertifiedValue(Fraction(10) ** 400, 0), CertifiedValue(0, Fraction(10) ** 400)):
        report = check_theorem(0, 25, "I0", measured)
        assert not report.passed
        assert report.deviation == math.inf


def _boundary_enclosures(m, n, variant):
    """Enclosures at the edge of the verdict: around the rounded main term
    with the float radius nearest the exact slack and one ulp either side,
    midpoints one ulp off, and exact ones on the edge and just past it."""
    main = (NORMALIZATION * main_term(m, n, variant)).to_real()
    slack = Fraction(str(theorem_constants(m, n, variant))) / n**4 - Fraction(2 * math.ulp(main))
    if slack <= 0:  # past where 2 ulp of the main term exceed the allowance
        return [CertifiedValue(main, 0.0), CertifiedValue(Fraction(main), 0)]
    r = float(slack)
    radii = (math.nextafter(r, 0), r, math.nextafter(r, math.inf))
    offset = Fraction(main) + slack / 3
    return [
        *(CertifiedValue(main, rad) for rad in radii),
        *(CertifiedValue(math.nextafter(main, to), radii[0]) for to in (-math.inf, math.inf)),
        CertifiedValue(offset, slack * 2 / 3),
        CertifiedValue(offset, slack * 2 / 3 + slack / 10**30),
    ]


def test_integer_verdict_matches_the_fraction_rule():
    cases = []
    for variant, m, n in OVERLAP:
        p = predict(m, n, variant)
        cases += [(m, n, variant, integral(variant, m, n)), (m, n, variant, CertifiedValue(p.main.to_real(), p.radius))]
    for variant in ("I0", "I1"):
        for m in (0, 2, 4, 6):
            for n in (20, 37, 10**6, N_MAX):
                edge = _boundary_enclosures(m, n, variant)
                verdicts = [theorem_verdict(m, n, variant, e) for e in edge]
                if len(edge) > 2:  # each side of the edge is met
                    assert verdicts[:3] == [True, True, False] or verdicts[:3] == [True, False, False]
                    assert verdicts[-2:] == [True, False]
                cases += [(m, n, variant, e) for e in edge]
            p = predict(m, N_MAX, variant)
            cases.append((m, N_MAX, variant, CertifiedValue(p.main.to_real(), p.radius)))
        cases += [(6, 30, variant, CertifiedValue(0, 0)), (0, 30, variant, CertifiedValue(1, 0))]
    seen = set()
    for m, n, variant, measured in cases:
        expected = theorem_verdict(m, n, variant, measured)
        assert check_theorem(m, n, variant, measured).passed == expected, (m, n, variant, measured)
        seen.add(expected)
    assert seen == {True, False}


def test_check_reads_numpy_numbers_as_their_values():
    # numpy integers have no as_integer_ratio; each enclosure gets the
    # report of its builtin twin
    main = (NORMALIZATION * main_term(2, 20, "I0")).to_real()
    pairs = [
        ((6, 30), CertifiedValue(np.int64(0), np.uint8(0)), CertifiedValue(0, 0)),
        ((0, 30), CertifiedValue(np.int64(1), np.int32(0)), CertifiedValue(1, 0)),
        ((2, 20), CertifiedValue(np.float64(main), np.float32(2.0**-40)), CertifiedValue(main, 2.0**-40)),
        ((2, 20), CertifiedValue(np.float32(main), np.int64(1)), CertifiedValue(float(np.float32(main)), 1)),
    ]
    seen = set()
    for (m, n), numpy_value, builtin in pairs:
        assert check_theorem(m, n, "I0", numpy_value) == check_theorem(m, n, "I0", builtin), (m, n, numpy_value)
        seen.add(theorem_verdict(m, n, "I0", builtin))
    assert seen == {True, False}


def test_warm_route_calls_no_gamma_ratio(monkeypatch):
    # after first use, every n is a few integer products: no Gamma ratio
    cells = [(m, v) for m in (0, 2, 4, 6, 8) for v in ("I0", "I1")]

    def sweep(ns):
        for m, v in cells:
            for n in ns:
                p = predict(m, n, v)
                check_theorem(m, n, v, CertifiedValue(p.main.to_real(), p.radius))
                core_integrals.core_bound_breakdown(m, n, v)

    sweep([20])
    calls = []
    real = core_integrals.gamma_ratio
    monkeypatch.setattr(core_integrals, "gamma_ratio", lambda *a: calls.append(a) or real(*a))
    sweep([21, 419, 10**6 + 1, N_MAX])
    assert calls == []


def test_check_requires_applicable_cell():
    with pytest.raises(ValueError):
        check_theorem(0, 1, "I0", CertifiedValue(0.0, 0.0))
    with pytest.raises(ValueError):
        check_theorem(8, 6, "I1", CertifiedValue(0.0, 0.0))


# ---------------------------------------------------------------------------
# the two routes over their whole overlap
# ---------------------------------------------------------------------------

# every cell both routes certify: n >= 20 for predict, n + m <= 37 for the
# quadrature's tail budget, even m
OVERLAP = [(v, m, n) for n in range(20, 38) for m in range(0, 38 - n, 2) for v in ("I0", "I1")]


def test_quadrature_and_prediction_agree_over_the_overlap():
    assert len(OVERLAP) == 180
    for variant, m, n in OVERLAP:
        quad, p = integral(variant, m, n), predict(m, n, variant)
        main = p.main.to_real()
        # two rigorous enclosures of one number must meet
        assert abs(quad.mid - main) <= quad.rad + p.radius, (variant, m, n)
        # the analytic enclosure sits inside the theorem allowance (the
        # quadrature's own, wider radius need not from n = 32 on)
        assert check_theorem(m, n, variant, CertifiedValue(main, p.radius)).passed, (variant, m, n)
