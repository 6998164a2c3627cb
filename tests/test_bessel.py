"""Tests for Bessel evaluation: fast path, oracles, asymptotics, phase."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hiprec
from testkit import asymptotic_eval, contains, encloses, hankel_sums
from besselsix import bessel
from besselsix.certify import check_theorem
from besselsix.quadrature import integrand
from besselsix.bessel import (
    MAX_ORDER,
    CertifiedValue,
    asymptotic_remainder,
    bessel_j,
    bessel_series_oracle,
    phase,
    _bessel_rows,
)
from besselsix.exactnum import a_coeff

# ---------------------------------------------------------------------------
# CertifiedValue plumbing
# ---------------------------------------------------------------------------


def test_certified_value_rejects_negative_radius():
    with pytest.raises(ValueError):
        CertifiedValue(1.0, -1e-30)
    # nor a non-finite midpoint or radius; check_theorem used to meet them
    # as an OverflowError or an unrelated ValueError
    for mid, rad in ((math.nan, 0.0), (math.inf, 0.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match="must be finite"):
            CertifiedValue(mid, rad)
    with pytest.raises(ValueError, match="midpoint must be finite"):
        check_theorem(0, 20, "I0", CertifiedValue(math.inf, 0.0))
    # exact values are finite whatever their size
    assert CertifiedValue(Fraction(10**400), 10**400).rad == 10**400


def test_certified_value_exact_queries():
    cv = CertifiedValue(Fraction(1, 3), Fraction(1, 10**40))
    assert contains(cv, Fraction(1, 3) + Fraction(1, 10**41))
    assert not contains(cv, 0.3333333333333333)  # float 1/3 is 1.85e-17 off
    inner = CertifiedValue(Fraction(1, 3), Fraction(1, 10**50))
    assert encloses(cv, inner) and not encloses(inner, cv)


# ---------------------------------------------------------------------------
# bessel_j basics
# ---------------------------------------------------------------------------


def test_values_at_zero():
    assert bessel_j(0, 0.0) == 1.0
    for n in (1, 2, 17, 40):
        assert bessel_j(n, 0.0) == 0.0


def test_domain_errors():
    with pytest.raises(ValueError):
        bessel_j(41, 1.0)
    with pytest.raises(ValueError):
        bessel_j(-1, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0, -0.5)
    with pytest.raises(ValueError):
        bessel_j(0, math.inf)
    # past _MAX_R (about 5.27e7) k * 2pi is no longer exact in the phase
    # reduction; 1e9 used to pass at 3.1e-13 error, 1e20 to raise IndexError
    f = integrand("I0", 0, 7)
    for r in (1e9, 1e20, -1.0):
        for call in (lambda: bessel_j(2, r), lambda: phase(0, r), lambda: f(r), lambda: f(np.array([1.0, r]))):
            with pytest.raises(ValueError, match=r"r must lie in \[0, 5\.27072e\+07\)"):
                call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: bessel_j(0, "3"), "r must be a real number"),
        (lambda: phase(0, "3"), "r must be a real number"),
        (lambda: asymptotic_remainder(0, "3", 12), "requires a real, finite r > 0"),
        (lambda: asymptotic_remainder(0, math.inf, 12), "requires a real, finite r > 0"),
        (lambda: bessel_j(0, np.array([1.0, 2.0])), r"r must be a single real number, got an array of shape \(2,\)"),
        (lambda: phase(0, np.array([1.0, 2.0])), r"r must be a single real number, got an array of shape \(2,\)"),
    ],
    ids=["bessel_j_str", "phase_str", "asymptotic_remainder_str", "asymptotic_remainder_inf", "bessel_j_array",
         "phase_array"],
)
def test_non_numeric_or_infinite_r_is_refused(call, message):
    # bessel_j and phase used to parse "3" as 3.0 (J0(3), and a phase of
    # 2.2146); the remainder raised TypeError on "3" and returned 0.0 at inf;
    # both refused an array of two nodes with numpy's reshape or conversion
    # error
    with pytest.raises(ValueError, match=message):
        call()


def test_small_argument_bound():
    """|J_n(r)| <= r^n / (2^n n!) for small r."""
    for r in (0.1, 0.5, 1.0):
        for n in range(11):
            assert abs(bessel_j(n, r)) <= r**n / (2**n * math.factorial(n)) + 1e-13


def test_first_zero_of_j0():
    # re-derive the root by bisecting the exact-series oracle ...
    lo, hi = Fraction("2.40"), Fraction("2.41")
    for _ in range(60):
        mid = (lo + hi) / 2
        if bessel_series_oracle(0, float(mid), 80).mid > 0:
            lo = mid
        else:
            hi = mid
    root = (lo + hi) / 2
    # ... it matches the frozen value, and bessel_j vanishes there
    assert abs(float(root) - 2.404825557695773) < 1e-14
    assert abs(bessel_j(0, 2.404825557695773)) < 1e-12


def test_vectorized_matches_scalar_bitwise():
    rng = np.random.default_rng(42)
    rs = np.concatenate([
        rng.uniform(0.0, 600.0, 300),
        rng.uniform(600.0, 63000.0, 300),
        [0.0, 1e-300, 2.0**-30, 49.999, 50.0, 499.999, 500.0, 500.001],
    ])
    for n in (0, 1, 13, 40):
        vec = _bessel_rows((n,), rs)[0]
        sc = np.array([bessel_j(n, float(r)) for r in rs])
        assert np.array_equal(vec, sc)


# ---------------------------------------------------------------------------
# the multi-order kernel: series term, Miller below r = 50, J0/J1 sums and
# forward recurrence above
# ---------------------------------------------------------------------------


def test_recurrence_within_independent_hankel_enclosure():
    # every order above the switch radius against the 44-term expansion,
    # whose certified radius covers its own truncation and float error
    rng = np.random.default_rng(5)
    rs = np.concatenate([[500.0, 500.5, 62999.5], rng.uniform(500.0, 2000.0, 12), rng.uniform(2000.0, 63000.0, 12)])
    for n in range(MAX_ORDER + 1):
        for r in rs:
            ref = asymptotic_eval(n, float(r), 44)
            assert abs(bessel_j(n, float(r)) - ref.mid) <= ref.rad + 1e-15, (n, r)


def test_hankel_tables_are_the_signed_coefficients():
    # the kernel's J0/J1 tables: P[i] = (-1)^i a_2i(n), Q[i] = (-1)^i a_2i+1(n)
    for n in (0, 1):
        signed = [(-1) ** (j // 2) * float(a_coeff(j, n).coeff) for j in range(bessel._ASYM_TERMS)]
        assert bessel._HANKEL_PQ[n] == (tuple(signed[0::2]), tuple(signed[1::2])), n


def test_j0_j1_share_one_phase_reduction(monkeypatch):
    # reference: each order with its own reduced phase omega_n
    rng = np.random.default_rng(17)
    rs = np.concatenate([[500.0, 62999.5], rng.uniform(500.0, 63000.0, 2000)])
    amp = np.sqrt(2.0 / (np.pi * rs))
    ref = []
    for n in (0, 1):
        p, q = hankel_sums(n, rs, bessel._ASYM_TERMS)
        omega = bessel._phase_array(n, rs)
        ref.append(amp * (np.cos(omega) * p - np.sin(omega) * q))
    calls = []
    real = bessel._phase_array

    def counting(n, r):
        calls.append(n)
        return real(n, r)

    monkeypatch.setattr(bessel, "_phase_array", counting)
    j0, j1 = _bessel_rows((0, 1), rs)
    assert calls == [0]
    assert np.array_equal(j0, ref[0])
    assert np.max(np.abs(j1 - ref[1])) <= 1e-16


def test_rows_match_single_order_bitwise_for_any_order_set():
    rng = np.random.default_rng(11)
    rs = np.concatenate([[0.0, 1e-300, 49.999, 50.0, 499.999, 500.0], rng.uniform(0.0, 500.0, 200), rng.uniform(500.0, 63000.0, 200)])
    single = {k: _bessel_rows((k,), rs)[0] for k in range(MAX_ORDER + 1)}
    order_sets = [(40,), (40, 0), (7, 1, 7), tuple(range(MAX_ORDER + 1))[::-1]]
    order_sets += [tuple(rng.choice(MAX_ORDER + 1, size=5, replace=False)) for _ in range(6)]
    for orders in order_sets:
        rows = _bessel_rows(orders, rs)
        assert rows.shape == (len(orders), rs.shape[0])
        for k, row in zip(orders, rows):
            assert np.array_equal(row, single[k]), (orders, k)


def test_rows_do_not_depend_on_the_block_of_nodes():
    # the grids evaluate 4096-node granules into views of one reused block;
    # blocks of 1, 4095, 4096 and 16384 nodes, each mixing nodes on both
    # sides of _TINY_R and of r = 50, give every node the same rows
    rng = np.random.default_rng(34)
    tiny, switch = bessel._TINY_R, bessel._SWITCH_R
    edges = [0.0, tiny, math.nextafter(tiny, 0.0), switch, math.nextafter(switch, 0.0)]
    rs = rng.permutation(np.concatenate([
        edges, rng.uniform(0.0, 2.0 * tiny, 4096), rng.uniform(0.0, switch, 4096),
        rng.uniform(switch - 0.1, switch + 0.1, 4096), rng.uniform(switch, 63000.0, 4096 - len(edges)),
    ]))
    assert rs.shape == (16384,)
    orders = (0, 1, 2, 7, 9, 11, 37, MAX_ORDER)
    whole = _bessel_rows(orders, rs)
    for size in (4095, 4096):
        block = np.empty((len(orders), size + 3))
        for lo in range(0, rs.shape[0], size):
            part = rs[lo:lo + size]
            assert np.array_equal(_bessel_rows(orders, part, block[:, :part.shape[0]]), whole[:, lo:lo + size])
    for i in [*np.flatnonzero(np.isin(rs, edges)), *rng.choice(rs.shape[0], 200, replace=False)]:
        assert np.array_equal(_bessel_rows(orders, rs[i:i + 1])[:, 0], whole[:, i])


def test_single_route_vectors_match_mixed_vectors():
    # a vector on one route skips the gather and scatter of a mixed one, and
    # writes straight into a given ``out``; each node's values must not
    # depend on which of these it went through
    rng = np.random.default_rng(5)
    routes = {
        "tiny": np.concatenate([[0.0, 5e-324, 1e-300, 2.0**-31], rng.uniform(0.0, 2.0**-30, 20)]),
        "miller": np.concatenate([[2.0**-30, 1e-3, 49.999], rng.uniform(0.0, 50.0, 60)]),
        "large": np.concatenate([[50.0, 500.0, 63000.0, 5e7], rng.uniform(50.0, 63000.0, 60)]),
    }
    orders = (0, 1, 2, 7, 30, 40)
    mixed = np.concatenate(list(routes.values()))
    order = rng.permutation(mixed.shape[0])
    mixed_rows = np.empty((len(orders), mixed.shape[0]))
    mixed_rows[:, order] = _bessel_rows(orders, mixed[order])
    start = 0
    for name, rs in routes.items():
        expected = mixed_rows[:, start:start + rs.shape[0]]
        assert np.array_equal(_bessel_rows(orders, rs), expected), name
        # a column slice of a NaN-filled block, as the quadrature passes
        block = np.full((len(orders), rs.shape[0] + 3), np.nan)
        view = block[:, 1:1 + rs.shape[0]]
        assert _bessel_rows(orders, rs, view) is view
        assert np.array_equal(view, expected), name
        assert np.isnan(block[:, 0]).all() and np.isnan(block[:, -2:]).all(), name
        start += rs.shape[0]
    view = np.full((len(orders), mixed.shape[0] + 1), np.nan)[:, 1:]
    assert _bessel_rows(orders, mixed[order], view) is view
    assert np.array_equal(view, mixed_rows[:, order])


def test_values_below_500_within_independent_enclosure():
    # both sides of the r = 50 switch and the (200, 500) gap of the exact
    # series oracle, against the independent interval-arithmetic enclosure
    rng = np.random.default_rng(3)
    rs = np.concatenate([
        [0.003, 49.999, 50.0],
        rng.uniform(0.0, 50.0, 5),
        rng.uniform(50.0, 200.0, 3),
        rng.uniform(200.0, 500.0, 5),
    ])
    orders = (0, 1, 7, 20, 33, 40)
    rows = _bessel_rows(orders, rs)
    for k, row in zip(orders, rows):
        for r, value in zip(rs, row):
            lo, hi = hiprec.besselJ_encl(k, float(r))
            assert lo - Fraction(1, 10**15) <= Fraction(value) <= hi + Fraction(1, 10**15), (k, r)


@pytest.mark.parametrize("r", [5e-324, 1e-310, 1e-300, 1e-200, 1e-20, 1e-8])
def test_tiny_and_subnormal_arguments(r):
    # the series alternates with falling terms here, so J_k(r) lies within
    # (r/2)^2 / (k+1) of its leading term (r/2)^k / k!, relatively
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [bessel_j(k, r) for k in range(MAX_ORDER + 1)]
        assert np.array_equal(_bessel_rows(range(MAX_ORDER + 1), np.array([r]))[:, 0], values)
    x = (Fraction(r) / 2) ** 2
    for k, value in enumerate(values):
        assert math.isfinite(value)
        lead = (Fraction(r) / 2) ** k / math.factorial(k)
        assert abs(Fraction(value) - lead) + lead * x / (k + 1) <= Fraction(1, 10**13), k


# ---------------------------------------------------------------------------
# identities on grids (recurrence, normalization, uniform bounds)
# ---------------------------------------------------------------------------


def _grid_r():
    return np.concatenate([
        np.linspace(0.5, 20.0, 40),
        np.geomspace(20.0, 63000.0, 60),
    ])


def test_three_term_recurrence_residuals():
    """|J_{n-1} + J_{n+1} - (2n/r) J_n| small across the whole range."""
    for n in (1, 2, 7, 15, 26, 39):
        for r in _grid_r():
            res = bessel_j(n - 1, r) + bessel_j(n + 1, r) - (2 * n / r) * bessel_j(n, r)
            assert abs(res) <= 1e-11, (n, r)


def test_even_order_normalization():
    # J_0 + 2 sum_{k<=60} J_{2k} = 1 (needs orders up to 120).  The kernel
    # normalizes by this identity below r = 50, so it is checked on scipy.
    for r in np.linspace(0.1, 50.0, 25):
        total = scipy.special.jv(0, r) + 2 * sum(scipy.special.jv(2 * k, r) for k in range(1, 61))
        assert abs(total - 1.0) <= 1e-10, r


def test_uniform_amplitude_bounds():
    for r in _grid_r():
        amp = math.sqrt(2 / (math.pi * r))
        assert abs(bessel_j(0, r)) <= 9 / 8 * amp + 1e-13
        assert abs(bessel_j(1, r)) <= 11 / 8 * amp + 1e-13


def test_first_order_asymptotic_corollary():
    """|J_0(r) - sqrt(2/(pi r)) cos(omega_0)| <= (1/(8r)) sqrt(2/(pi r))."""
    for r in np.geomspace(1.0, 63000.0, 120):
        amp = math.sqrt(2 / (math.pi * r))
        diff = abs(bessel_j(0, r) - amp * math.cos(phase(0, r)))
        assert diff <= amp / (8 * r) + 1e-12, r


# ---------------------------------------------------------------------------
# the series oracle
# ---------------------------------------------------------------------------


def test_oracle_j0_at_1():
    cv = bessel_series_oracle(0, 1.0, 80)
    assert 2 * cv.rad < Fraction(1, 10**20)
    # the enclosure pins the leading digits 0.7651976865...
    assert Fraction("0.7651976865") < cv.mid - cv.rad
    assert cv.mid + cv.rad < Fraction("0.7651976866")


def test_oracle_at_zero_is_exact():
    cv = bessel_series_oracle(5, 0.0, 80)
    assert cv.mid == 0 and cv.rad == 0
    cv = bessel_series_oracle(0, 0.0, 80)
    assert cv.mid == 1 and cv.rad == 0


def test_oracle_radius_contract():
    for (n, r, pb) in [(0, 1.0, 80), (3, 0.25, 100), (12, 150.0, 200), (40, 199.5, 60)]:
        cv = bessel_series_oracle(n, r, pb)
        assert cv.rad <= Fraction(2) ** (4 - pb)


def test_oracle_rejects_large_r():
    with pytest.raises(ValueError):
        bessel_series_oracle(0, 201.0, 80)


def test_oracle_agrees_with_fast_path_on_grid():
    """Oracle midpoint vs bessel_j to 1e-13 on ~10^3 points of [0,20]x[0,50];
    the fast values come from one kernel call, bitwise equal to scalar
    calls (test_vectorized_matches_scalar_bitwise)."""
    rs = np.linspace(0.0, 50.0, 48)
    fast = _bessel_rows(range(21), rs)
    for n in range(21):
        for r, value in zip(rs, fast[n]):
            d = abs(float(bessel_series_oracle(n, float(r), 60).mid) - value)
            assert d <= 1e-13, (n, r)


def test_oracle_consistent_with_independent_interval_oracle():
    """Two independently built rigorous enclosures must intersect."""
    for (n, r) in [(0, 1.0), (2, 37.5), (7, 120.0), (1, 149.0), (0, 60.25)]:
        cv = bessel_series_oracle(n, r, 120)
        lo, hi = hiprec.besselJ_encl(n, r)
        assert cv.mid - cv.rad <= hi and lo <= cv.mid + cv.rad, (n, r)


# ---------------------------------------------------------------------------
# asymptotic expansion with certified remainder
# ---------------------------------------------------------------------------


def test_asymptotic_remainder_example():
    # n = 0, ell = 1, r = 100: sqrt(2/(100 pi)) * (1/4) * (2r)^-1; the
    # Gamma-quotient over ell! is |Gamma(3/2)/Gamma(-1/2)| = 1/4, and the
    # whole thing equals |a_1(0)| / r = (1/8)/100
    expect = math.sqrt(2 / (100 * math.pi)) * 0.25 / 200
    assert asymptotic_remainder(0, 100.0, 1) == pytest.approx(expect, rel=1e-12)
    assert asymptotic_remainder(0, 100.0, 1) == pytest.approx(
        math.sqrt(2 / (100 * math.pi)) * (1 / 8) / 100, rel=1e-12)


def test_asymptotic_eval_containment_sweep():
    for r in (10.0, 100.0, 1000.0):
        for ell in (2, 4, 6):
            cv = asymptotic_eval(0, r, ell)
            assert contains(cv, bessel_j(0, r)), (r, ell)


def test_asymptotic_eval_contains_oracle_enclosure():
    for (n, r, ell) in [(0, 120.0, 10), (5, 180.0, 20), (1, 60.0, 14), (20, 199.0, 30)]:
        a = asymptotic_eval(n, r, ell)
        o = bessel_series_oracle(n, r, 80)
        assert encloses(a, o), (n, r, ell)


def test_asymptotic_eval_validity_threshold():
    with pytest.raises(ValueError):
        asymptotic_eval(5, 100.0, 4)  # ell < n - 1/2
    with pytest.raises(ValueError):
        asymptotic_eval(0, 100.0, 0)


# ---------------------------------------------------------------------------
# phase reduction
# ---------------------------------------------------------------------------


def test_phase_simple_points():
    assert abs(phase(0, math.pi / 4)) < 1e-15
    for r in (0.3, 2.0, 17.5, 400.0, 59999.0):
        assert math.cos(phase(2, r)) == pytest.approx(-math.cos(phase(0, r)), abs=1e-13)


def test_phase_against_50_digit_reduction():
    y, err = hiprec.phase_reduce(0, 63000.0)
    assert float(err) < 1e-40
    assert abs(phase(0, 63000.0) - float(y)) < 1e-13


def test_phase_range():
    for n in range(0, 41, 5):
        for r in (0.0, 1.0, 3.2, 1000.0, 70000.0):
            w = phase(n, r)
            assert -math.pi - 1e-15 < w <= math.pi + 1e-15


@given(
    n=st.integers(0, 40),
    r=st.floats(0.0, 70000.0, allow_nan=False),
)
@settings(max_examples=300, deadline=None)
@example(n=0, r=1e6)
@example(n=40, r=3.3e7)
@example(n=7, r=math.nextafter(bessel._MAX_R, 0.0))  # the largest accepted r
def test_phase_error_contract(n, r):
    """Reduction error <= 4e-16 * (1 + log2(1 + r)) against the exact value."""
    y, err = hiprec.phase_reduce(n, r)
    d = abs(Fraction(phase(n, r)) - y)
    # allow the wrap ambiguity exactly at the +-pi boundary
    d = min(d, abs(d - 2 * hiprec.PI_F))
    assert float(d) <= 4e-16 * (1 + math.log2(1 + r)) + float(err)
