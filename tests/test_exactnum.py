"""Tests for the exact scalar / Gamma arithmetic layer."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselsix import certify, cli, closed_form, core_integrals, exactnum, expansions, quadrature
from besselsix.bessel import (
    _bessel_rows,
    asymptotic_remainder,
    bessel_j,
    bessel_series_oracle,
    phase,
)
from besselsix.exactnum import (
    Budget,
    ExactScalar,
    a_coeff,
    a_m4_bound,
    as_even_order,
    as_order,
    gamma_half,
    gamma_ratio,
    gaussian_binomial_bound,
)
from testkit import asymptotic_eval, eval_expansion, stirling_gamma_bounds

# ---------------------------------------------------------------------------
# ExactScalar algebra
# ---------------------------------------------------------------------------


def test_scalar_add_requires_matching_pi_power():
    a = ExactScalar(Fraction(1, 2), 1)
    b = ExactScalar(Fraction(1, 3), 1)
    assert (a + b).coeff == Fraction(5, 6)
    with pytest.raises(ValueError):
        a + ExactScalar(Fraction(1, 3), 0)


def test_scalar_zero_is_absorbing_for_add():
    z = ExactScalar(Fraction(0), 0)
    a = ExactScalar(Fraction(-3, 8), -2)
    assert (z + a) == a
    assert (a + z) == a
    assert (a - a).is_zero()


def test_scalar_mul_adds_powers():
    a = ExactScalar(Fraction(2, 3), 1)
    b = ExactScalar(Fraction(9, 4), -2)
    c = a * b
    assert c.coeff == Fraction(3, 2)
    assert c.sqrtpi_power == -1
    assert (a * 0).is_zero()


def test_scalar_to_real():
    assert ExactScalar(Fraction(1), 2).to_real() == pytest.approx(math.pi)
    assert ExactScalar(Fraction(1), -2).to_real() == pytest.approx(1 / math.pi)
    assert ExactScalar(Fraction(7, 2)).to_real() == 3.5


def test_to_real_is_one_rounding_of_the_exact_product():
    # the powers of sqrt(pi) are kept once per exponent and the product is
    # left unreduced; the float must stay the single rounding of
    # coeff * sqrt(pi)^k.  The normalized main terms at n = N_MAX carry
    # coefficients of hundreds of bits.
    coeffs = [Fraction(0), Fraction(1), Fraction(-1), Fraction(-7, 3), Fraction(22, 10**30), Fraction(10**40 + 1, 3**50)]
    mains = [certify.NORMALIZATION * core_integrals.main_term(m, n, v) for m in (0, 2, 4)
             for n in (10**6, exactnum.N_MAX) for v in ("I0", "I1")]
    assert max(x.coeff.denominator.bit_length() for x in mains) > 600
    coeffs += [x.coeff for x in mains] + [-x.coeff for x in mains]
    for coeff in coeffs:
        for k in range(-6, 7):
            expected = float(coeff * exactnum._SQRTPI**k)
            assert ExactScalar(coeff, k).to_real().hex() == expected.hex(), (coeff, k)


@given(
    num=st.integers(-10**6, 10**6),
    den=st.integers(1, 10**6),
    power=st.integers(-6, 6),
)
def test_serialize_parse_roundtrip(num, den, power):
    s = ExactScalar(Fraction(num, den), power)
    assert ExactScalar.parse(s.serialize()) == s


def test_serialize_format():
    assert ExactScalar(Fraction(-3, 8), -2).serialize() == "-3/8*sqrtpi^-2"
    assert ExactScalar(Fraction(5, 1), 0).serialize() == "5/1"


@pytest.mark.parametrize("text", ["1/0", "-3/00*sqrtpi^2", "3/8*sqrtpi", "3"])
def test_parse_refuses_malformed_text(text):
    # a zero denominator used to raise ZeroDivisionError
    with pytest.raises(ValueError, match="^not a serialized ExactScalar: "):
        ExactScalar.parse(text)


# ---------------------------------------------------------------------------
# gamma_half / gamma_ratio
# ---------------------------------------------------------------------------


def test_gamma_half_sqrt_pi():
    g = gamma_half(1)
    assert g.coeff == 1 and g.sqrtpi_power == 1


def test_gamma_half_negative_seven_halves():
    g = gamma_half(-7)
    assert g.coeff == Fraction(16, 105) and g.sqrtpi_power == 1


def test_gamma_half_five_halves():
    # (2n)!/(4^n n!) at n = 2 gives 24/(16*2) = 3/4
    g = gamma_half(5)
    assert g.coeff == Fraction(3, 4) and g.sqrtpi_power == 1


def test_gamma_half_integer_arguments_are_factorials():
    assert gamma_half(10).coeff == math.factorial(4)
    assert gamma_half(10).sqrtpi_power == 0
    with pytest.raises(ValueError):
        gamma_half(0)
    with pytest.raises(ValueError):
        gamma_half(-4)


@given(two_x=st.integers(-31, 41).filter(lambda t: t % 2 == 1))
def test_gamma_half_functional_equation(two_x):
    """gamma(x+1) = x * gamma(x), exactly, including negative half-integers."""
    lhs = gamma_half(two_x + 2)
    rhs = gamma_half(two_x) * Fraction(two_x, 2)
    assert lhs == rhs


def test_gamma_ratio_identity_and_pole_cases():
    assert gamma_ratio(6, 6).coeff == 1
    assert gamma_ratio(2, -2).is_zero()  # 1/Gamma(0) = 0
    assert gamma_ratio(7, 3).coeff == Fraction(15, 4)
    assert gamma_ratio(7, 3).sqrtpi_power == 0
    with pytest.raises(ValueError):
        gamma_ratio(-2, 5)  # pole in the numerator
    with pytest.raises(ValueError):
        gamma_ratio(-2, -4)  # two poles do not cancel here


def test_gamma_ratio_agrees_with_gamma_half_quotient():
    # integer steps (the short product) and half-integer steps (the
    # reduction), across negative half-integers; a pole in the denominator
    # gives zero, one in the numerator raises
    for two_a in range(-15, 24):
        for two_b in range(-15, 24):
            if two_a % 2 == 0 and two_a <= 0:
                with pytest.raises(ValueError, match="pole in numerator"):
                    gamma_ratio(two_a, two_b)
            elif two_b % 2 == 0 and two_b <= 0:
                assert gamma_ratio(two_a, two_b) == ExactScalar(Fraction(0))
            else:
                assert gamma_ratio(two_a, two_b) == gamma_half(two_a) / gamma_half(two_b), (two_a, two_b)


@given(
    y2=st.integers(1, 40).filter(lambda t: t % 2 == 1),
    dx=st.integers(0, 20),
    w=st.integers(0, 15),
)
def test_gamma_ratio_monotone_under_shift(y2, dx, w):
    """Gamma(x)/Gamma(y) <= Gamma(x+w)/Gamma(y+w) for x >= y, exactly."""
    x2 = y2 + 2 * dx
    r1 = gamma_ratio(x2, y2)
    r2 = gamma_ratio(x2 + 2 * w, y2 + 2 * w)
    assert r1.sqrtpi_power == 0 and r2.sqrtpi_power == 0
    assert r1.coeff <= r2.coeff


# ---------------------------------------------------------------------------
# Stirling enclosures
# ---------------------------------------------------------------------------


def test_stirling_contains_small_values():
    lo, hi = stirling_gamma_bounds(1.0)
    assert lo <= 1.0 <= hi
    lo, hi = stirling_gamma_bounds(0.5)
    assert lo <= math.sqrt(math.pi) <= hi


def test_stirling_contains_19_factorial():
    lo, hi = stirling_gamma_bounds(20.0)
    assert lo <= float(math.factorial(19)) <= hi


def test_stirling_contains_exact_half_integer_points():
    """Enclosure holds at Gamma(k/2) for k = 1..50."""
    for k in range(1, 51):
        lo, hi = stirling_gamma_bounds(k / 2)
        exact = gamma_half(k).to_real()
        assert lo <= exact <= hi, f"k/2 = {k / 2}"


def test_stirling_rejects_nonpositive():
    with pytest.raises(ValueError):
        stirling_gamma_bounds(0.0)
    with pytest.raises(ValueError):
        stirling_gamma_bounds(-3.0)


def test_log_convexity_bracket():
    """sqrt(x - 1/2) <= Gamma(x+1/2)/Gamma(x) <= sqrt(x), certified.

    The enclosure widths (~1/(144 x^2) relative) are far smaller than the
    inequality's own margin (~1/(8x)), so the certified version holds.
    """
    x = 0.5
    while x <= 25.0:
        num_lo, num_hi = stirling_gamma_bounds(x + 0.5)
        den_lo, den_hi = stirling_gamma_bounds(x)
        assert math.sqrt(x - 0.5) <= num_lo / den_hi
        assert num_hi / den_lo <= math.sqrt(x)
        x += 0.5


# ---------------------------------------------------------------------------
# a_j(n) and its uniform bound
# ---------------------------------------------------------------------------


def test_a_coeff_known_values():
    assert a_coeff(0, 7).coeff == 1
    assert a_coeff(1, 0).coeff == Fraction(-1, 8)
    assert a_coeff(3, 0).coeff == Fraction(-75, 1024)
    assert a_coeff(3, 1).coeff == Fraction(105, 1024)


@given(n=st.integers(0, 40), j=st.integers(0, 44))
def test_a_coeff_is_pure_rational(n, j):
    assert a_coeff(j, n).sqrtpi_power == 0


@given(n=st.integers(0, 40), j=st.integers(1, 44))
@settings(max_examples=60)
def test_a_coeff_matches_product_formula(n, j):
    """Independent re-derivation: prod_{i=1..j}(4n^2-(2i-1)^2) / (j! 8^j)."""
    num = 1
    for i in range(1, j + 1):
        num *= 4 * n * n - (2 * i - 1) ** 2
    assert a_coeff(j, n).coeff == Fraction(num, math.factorial(j) * 8**j)


def test_a_m4_bound_small_cases():
    b1 = a_m4_bound(1)
    assert b1 == pytest.approx(105 / 16 * math.sqrt(2 / math.pi) * 2 * math.exp(-1))
    assert abs(a_coeff(5, 1).to_real()) == pytest.approx(72765 / 262144)
    assert abs(a_coeff(5, 1).to_real()) <= b1
    assert abs(a_coeff(16, 12).to_real()) <= a_m4_bound(12)


def test_a_m4_bound_dominates_through_m_40():
    for m in range(1, 41):
        exact = abs(a_coeff(m + 4, m).coeff)
        # compare in exact arithmetic against a float lower bound of the bound
        assert exact <= Fraction(a_m4_bound(m)) * Fraction(100001, 100000), f"m = {m}"
        assert float(exact) <= a_m4_bound(m), f"m = {m}"
    with pytest.raises(ValueError):
        a_m4_bound(0)


# ---------------------------------------------------------------------------
# Gaussian binomial bound
# ---------------------------------------------------------------------------


def test_gaussian_binomial_bound_values():
    v = gaussian_binomial_bound(1.0, 0.0)
    assert v == pytest.approx(math.exp(1 / 24) * 4 / (2 * math.sqrt(math.pi)))
    assert v >= 1.0  # Gamma(2)/Gamma(1)^2 = 1
    # central binomial comparison at (10, 3): Gamma(20)/(Gamma(7)Gamma(13))
    exact = Fraction(math.factorial(19), math.factorial(6) * math.factorial(12))
    assert float(exact) <= gaussian_binomial_bound(10.0, 3.0)


@given(
    x=st.floats(1.0, 50.0),
    d1=st.floats(0.0, 1.0),
    d2=st.floats(0.0, 1.0),
)
def test_gaussian_binomial_bound_monotone_in_d(x, d1, d2):
    lo_d, hi_d = sorted((d1 * x * 0.99, d2 * x * 0.99))
    assert gaussian_binomial_bound(x, hi_d) <= gaussian_binomial_bound(x, lo_d)


def test_gaussian_binomial_bound_domain():
    with pytest.raises(ValueError):
        gaussian_binomial_bound(0.5, 0.0)
    with pytest.raises(ValueError):
        gaussian_binomial_bound(4.0, 4.0)


# ---------------------------------------------------------------------------
# the order and variant checks every entry point shares
# ---------------------------------------------------------------------------


def test_as_order_keeps_integral_values():
    for x in (7, 7.0, np.int64(7), np.float64(7.0), Fraction(14, 2)):
        assert as_order(x) == 7 and type(as_order(x)) is int
    for x in (7.5, 7.000001, float("nan"), float("inf"), "7", None):
        with pytest.raises(ValueError, match="orders must be integers"):
            as_order(x)


@pytest.mark.parametrize(
    "call",
    [
        lambda: bessel_j(2.5, 10.0),
        lambda: _bessel_rows([2, 2.5], np.array([1.0, 600.0])),
        lambda: quadrature.integrand("I0", 0, 7.5),
        lambda: quadrature.integral("I0", 0, 7.9),
        lambda: quadrature._integral_and_budget("I1", 2.5, 9),
        lambda: quadrature.build_table([7.5]),
        lambda: quadrature.tail_error_budget("I0", 0, 20.5),
        lambda: certify.predict(2, 25.5, "I0"),
        lambda: core_integrals.estimate_B(2, 25.5, "I0"),
        lambda: core_integrals.main_term(0, 7.5, "I0"),
        lambda: certify.theorem_constants(2, 25.5, "I0"),
        lambda: expansions.estimate_A(0, 25.5, "I0"),
        lambda: core_integrals._chain_dominated(0, 25.5),
        lambda: bessel_series_oracle(2.5, 1.0, 60),
        lambda: bessel_series_oracle(-0.5, 1.0, 60),
        lambda: phase(2.5, 100.0),
        lambda: asymptotic_eval(2.5, 100.0, 12),
        lambda: asymptotic_remainder(2.5, 100.0, 12),
        lambda: asymptotic_remainder(2.5, 100.0, 2),
        lambda: asymptotic_remainder(None, 100.0, 12),
        lambda: asymptotic_remainder("3", 100.0, 12),
        lambda: a_coeff(1, 2.3),
        lambda: closed_form.weber_schafheitlin(2.5, 3, 2),
        lambda: closed_form.descent_bound(2.5, 3, 1),
        lambda: closed_form.vanishes_freq2(2.5, 4.5, 2, "cos"),
        lambda: closed_form.vanishes_freq2(2, 4, 1.5, "sin"),
    ],
    ids=["bessel_j", "bessel_rows", "integrand", "integral", "integral_and_budget",
         "build_table", "tail_error_budget", "predict", "estimate_B", "main_term",
         "theorem_constants", "estimate_A", "prop_4r_bound", "series_oracle",
         "series_oracle_negative", "phase", "asymptotic_eval", "asymptotic_remainder",
         "asymptotic_remainder_small_ell", "asymptotic_remainder_none", "asymptotic_remainder_str",
         "a_coeff", "weber_schafheitlin", "descent_bound", "core_integral_key",
         "core_integral_key_power"],
)
def test_non_integral_orders_are_refused(call):
    # each entry point used to truncate 7.5 to 7 (the series oracle returned
    # J_2(1) for order 2.5), pass it on, give a wrong value (a_coeff(1, 2.3)
    # was 15/8, asymptotic_eval missed J_2.5(100)), or raise TypeError or
    # CertificationError; asymptotic_remainder(None or "3", ...) raised TypeError
    with pytest.raises(ValueError, match="orders must be integers"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: a_coeff(1, -1),
        lambda: bessel_series_oracle(-1, 1.0, 60),
        lambda: closed_form.vanishes_freq2(-1, 2, 1, "sin"),
        lambda: closed_form.weber_schafheitlin(-1, 3, 1),
        lambda: closed_form.descent_bound(-1, 3, 1),
        lambda: quadrature.integrand("I0", 0, -1),
        lambda: quadrature.tail_error_budget("I0", 0, -1),
        lambda: certify.theorem_constants(2, -1, "I0"),
        lambda: bessel_j(-1, 1.0),
        lambda: phase(-1, 1.0),
    ],
    ids=["a_coeff", "series_oracle", "core_integral_key", "weber_schafheitlin",
         "descent_bound", "integrand", "tail_error_budget", "theorem_constants", "bessel_j",
         "phase"],
)
def test_negative_orders_are_refused_with_one_message(call):
    # each entry point used to word the rule itself, and phase(-1, 10.0)
    # returned -1.78
    with pytest.raises(ValueError, match="^orders must be nonnegative, got -1$"):
        call()


@pytest.mark.parametrize(
    "call, what",
    [
        (lambda: asymptotic_eval(2, 100.0, 12.5), "term counts"),
        (lambda: eval_expansion(expansions.base_expansion("J0"), 100.0, 2.5), "term counts"),
        (lambda: bessel_series_oracle(2, 1.0, 60.5), "precision bits"),
        (lambda: gamma_half(3.5), "doubled Gamma arguments"),
        (lambda: gamma_ratio(3.5, 2), "doubled Gamma arguments"),
        (lambda: core_integrals.pair_moment_constant(2.5), "moment exponents"),
        (lambda: core_integrals.pair_moment_constant_cs(2, 2.5), "moment exponents"),
        (lambda: core_integrals.pair_moment_constant_tail(12, 2.5), "moment exponents"),
    ],
    ids=["asymptotic_eval", "eval_expansion", "series_oracle", "gamma_half", "gamma_ratio",
         "pair_moment_constant", "pair_moment_constant_cs", "pair_moment_constant_tail"],
)
def test_non_integral_counts_are_refused(call, what):
    # the first two raised TypeError from range(); the series oracle quietly
    # worked to 60 bits; the Gamma functions truncated 3.5 to 3, so that
    # pair_moment_constant(2.5) returned 0.309, and the other two moment
    # constants raised TypeError
    with pytest.raises(ValueError, match=f"^{what} must be integers, got "):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: expansions.estimate_A(22, 20, "I0"),
        lambda: core_integrals.estimate_B(22, 20, "I0"),
        lambda: core_integrals.e1_bound(22, 20, "I0", "cos"),
        lambda: core_integrals.e2_bound(22, 20, "I0", "cos"),
        lambda: core_integrals.core_bound_breakdown(22, 20, "I0"),
        lambda: certify.predict(22, 20, "I0"),
        lambda: quadrature.error_budget("I0", 12, 10),
        lambda: cli.parse_args(["integrate", "--variant", "0", "--m", "12", "--n", "10"]),
    ],
    ids=["estimate_A", "estimate_B", "e1_bound", "e2_bound", "core_bound_breakdown", "predict",
         "error_budget", "cli_parse_args"],
)
def test_m_beyond_n_is_refused_with_one_message(call):
    # estimate_A returned 3.01e-11 for (22, 20)
    with pytest.raises(ValueError, match=r"^m must not exceed n, got m=\d+, n=\d+$"):
        call()


def test_as_even_order():
    for x in (0, 4.0, np.int64(18)):
        assert as_even_order(x) == x and type(as_even_order(x)) is int
    for x in (3, -2):
        with pytest.raises(ValueError, match=f"^m must be even and nonnegative, got {x}$"):
            as_even_order(x)
    with pytest.raises(ValueError, match="orders must be integers"):
        as_even_order(2.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: core_integrals.estimate_B(3, 25, "I0"),
        lambda: core_integrals.main_term_parts(3, 7, "I0"),
        lambda: core_integrals.prop_4r_chain(3, 25),
        lambda: core_integrals.pair_moment_constant_cs(3, 5),
        lambda: core_integrals.pair_moment_constant_tail(13, 5),
        lambda: certify.theorem_constants(3, 25, "I0"),
        lambda: expansions.estimate_A(3, 25, "I0"),
        lambda: quadrature.tail_error_budget("I0", 3, 7),
        lambda: quadrature._integral_and_budget("I0", 3, 9),
    ],
    ids=["estimate_B", "main_term_parts", "prop_4r_chain", "pair_moment_constant_cs",
         "pair_moment_constant_tail", "theorem_constants", "estimate_A", "tail_error_budget",
         "integral_and_budget"],
)
def test_odd_m_is_refused_with_one_message(call):
    with pytest.raises(ValueError, match=r"^m must be even and nonnegative, got 1?3$"):
        call()


def test_integral_valued_floats_still_accepted():
    assert bessel_j(2.0, 10.0) == bessel_j(2, 10.0)
    assert quadrature.integral("I0", 0.0, np.int64(7)) == quadrature.integral("I0", 0, 7)
    assert certify.predict(2.0, 25.0, "I0") == certify.predict(2, 25, "I0")


@pytest.mark.parametrize(
    "call",
    [
        lambda: quadrature.integrand("I2", 0, 2),
        lambda: quadrature.integral("I2", 0, 2),
        lambda: quadrature.tail_main("I2", "even"),
        lambda: quadrature.tail_error_budget("I2", 0, 2),
        lambda: certify.predict(0, 25, "I2"),
        lambda: certify.theorem_constants(0, 25, "I2"),
        lambda: core_integrals.coefficient_tables("I2"),
        lambda: core_integrals.main_term_parts(0, 25, "I2"),
        lambda: core_integrals.e1_exact(0, 25, "I2", "cos"),
        lambda: core_integrals.estimate_B(0, 25, "I2"),
        lambda: expansions.estimate_A(0, 25, "I2"),
    ],
)
def test_every_variant_check_says_the_same(call):
    with pytest.raises(ValueError, match=r"^variant must be 'I0' or 'I1', got 'I2'$"):
        call()


# ---------------------------------------------------------------------------
# the itemized budget
# ---------------------------------------------------------------------------


def test_budget_reads_as_pairs_and_sums_left_to_right():
    items = (("a", 0.1), ("b", 0.2), ("c", 0.3))
    b = Budget(items)
    assert b == items and dict(b) == dict(items)
    assert [name for name, _ in b] == ["a", "b", "c"]
    assert b.total == (0.1 + 0.2) + 0.3
    assert b.total != 0.1 + (0.2 + 0.3)
    assert Budget(()).total == 0


def test_budget_refuses_negative_and_nan_items():
    # one check for both routes' budgets, a prediction's and a quadrature's
    for value in (-1e-300, -1.0, float("nan"), float("-inf")):
        with pytest.raises(ValueError, match="^budget item e1 must be nonnegative"):
            Budget((("e2", 2.0), ("e1", value)))
