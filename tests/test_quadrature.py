"""Tests for the certified composite quadrature and tail evaluation."""

import math
from collections import OrderedDict
from fractions import Fraction

import numpy as np
import pytest

from besselsix import quadrature
from besselsix.bessel import CertifiedValue, _bessel_rows
from besselsix.certify import NORMALIZATION
from besselsix.core_integrals import main_term
from besselsix.quadrature import (
    DEFAULT_SCHEME,
    ErrorBudget,
    QuadratureScheme,
    TableEntry,
    _NC7_WEIGHTS,
    _eval_chunked,
    _order_rows,
    _panel_count,
    _tail_error_pieces,
    _weigh,
    build_table,
    deriv8_bound,
    error_budget,
    integral,
    integrand,
    nc7_composite,
    quad_error,
    tail_error_budget,
    tail_main,
)

# A coarse grid for tests that only exercise plumbing, not accuracy.
FAST = QuadratureScheme(S=360.0, R=3600.0, w_low=0.03, w_high=0.5)


# ---------------------------------------------------------------------------
# the composite rule
# ---------------------------------------------------------------------------


def test_degree7_exactness_randomized():
    rng = np.random.default_rng(20260822)
    for _ in range(25):
        coeffs = rng.uniform(-3.0, 3.0, size=8)
        a = rng.uniform(-5.0, 5.0)
        w = rng.uniform(0.05, 1.5)
        panels = int(rng.integers(1, 7))
        b = a + 6.0 * w * panels
        poly = np.polynomial.Polynomial(coeffs)
        exact = poly.integ()(b) - poly.integ()(a)
        approx = nc7_composite(poly, a, b, w)
        assert abs(approx - exact) <= 1e-12 * max(1.0, abs(exact))


def test_x7_monomial():
    v = nc7_composite(lambda x: x**7, 0.0, 6.0, 1.0)
    assert v == pytest.approx(6.0**8 / 8, rel=1e-12)
    assert 6.0**8 / 8 == 209952.0


def test_x8_single_panel_error_is_the_rule_constant():
    # the rule overshoots x^8 by exactly 6^4/5, the extremal degree-8 error
    v = nc7_composite(lambda x: x**8, 0.0, 6.0, 1.0)
    err = v - 6.0**9 / 9
    assert err == pytest.approx(6.0**4 / 5, abs=1e-6)
    assert err > 0


def test_constant_integrates_to_interval_length():
    # a constant return value broadcasts over the nodes
    assert nc7_composite(lambda x: 1.0, 0.0, 12.0, 0.5) == pytest.approx(12.0, rel=1e-13)
    assert nc7_composite(lambda x: 1.0, -3.0, 3.0, 0.2) == pytest.approx(6.0, rel=1e-13)


def test_w8_error_scaling():
    exact = 6.0**9 / 9
    e_w = nc7_composite(lambda x: x**8, 0.0, 6.0, 0.5) - exact
    e_half = nc7_composite(lambda x: x**8, 0.0, 6.0, 0.25) - exact
    assert e_w / e_half == pytest.approx(256.0, rel=0.01)


def test_callable_must_be_vectorized():
    assert nc7_composite(np.cos, 0.0, 6.0, 0.05) == pytest.approx(math.sin(6.0), abs=1e-13)
    with pytest.raises(TypeError):
        nc7_composite(lambda x: math.cos(x), 0.0, 6.0, 0.05)


def test_non_integer_panel_count_rejected():
    with pytest.raises(ValueError):
        nc7_composite(lambda x: x, 0.0, 5.0, 1.0)
    with pytest.raises(ValueError):
        nc7_composite(lambda x: x, 0.0, 6.0, -1.0)
    with pytest.raises(ValueError):
        nc7_composite(lambda x: x, 6.0, 0.0, 1.0)


def test_panel_count_values():
    assert _panel_count(0.0, 3600.0, 0.003) == 200000
    assert _panel_count(3600.0, 63000.0, 0.05) == 198000
    assert _panel_count(0.0, 6.0, 1.0) == 1


def test_weight_vector_layout():
    wv = _weigh(np.ones(6 * 2 + 1))
    expected = [41, 216, 27, 272, 27, 216, 82, 216, 27, 272, 27, 216, 41]
    assert wv.tolist() == expected
    assert _weigh(np.ones(7)).tolist() == [41, 216, 27, 272, 27, 216, 41]
    # per panel the weights sum to 6 * 140
    assert float(np.sum(_weigh(np.ones(6 * 5 + 1)))) == 5 * 840.0


# ---------------------------------------------------------------------------
# scheme and budget records
# ---------------------------------------------------------------------------


def test_default_scheme_values():
    assert DEFAULT_SCHEME.S == 3600.0
    assert DEFAULT_SCHEME.R == 63000.0
    assert DEFAULT_SCHEME.w_low == 0.003
    assert DEFAULT_SCHEME.w_high == 0.05
    assert sum(_NC7_WEIGHTS) == 6
    assert _NC7_WEIGHTS[0] == Fraction(41, 140)


def test_scheme_rejects_non_integer_panels():
    with pytest.raises(ValueError):
        QuadratureScheme(S=3600.0, R=63000.0, w_low=0.007, w_high=0.05)
    with pytest.raises(ValueError):
        QuadratureScheme(S=3600.0, R=3599.0, w_low=0.003, w_high=0.05)


def test_error_budget_total_must_match_items():
    with pytest.raises(ValueError):
        ErrorBudget(1e-9, 1e-9, 1e-10, 1e-9, 5e-10, 1e-8)
    with pytest.raises(ValueError):
        ErrorBudget(-1e-9, 1e-9, 1e-10, 1e-9, 5e-10, 1.6e-9)


def test_table_entry_nonnegative():
    with pytest.raises(ValueError):
        TableEntry(2, 0, -0.1, 0.2)


# ---------------------------------------------------------------------------
# derivative bounds and quadrature error
# ---------------------------------------------------------------------------


def test_deriv8_low_printed_form():
    assert deriv8_bound("low") == math.factorial(8) * math.e**6 * 3601.0


def test_deriv8_high_printed_form():
    expected = (
        3.0
        * math.factorial(8)
        * (2.0 / (math.pi * 3599.0)) ** 3
        * math.cosh(1.0) ** 6
        * 63001.0
    )
    assert deriv8_bound("high") == expected


def test_deriv8_region_validated():
    with pytest.raises(ValueError):
        deriv8_bound("mid")


def test_quad_error_below_printed_ceilings():
    low = quad_error("low")
    high = quad_error("high")
    assert 1.4e-9 < low <= 1.49e-9
    assert 1.4e-9 < high <= 1.42e-9


def test_quad_error_follows_the_composite_law():
    # length * w^8 * (6^3/5) * M8 / 8!, for any scheme
    for region, length, w in (("low", FAST.S, FAST.w_low), ("high", FAST.R - FAST.S, FAST.w_high)):
        expected = length * w**8 * (216.0 / 5.0) * deriv8_bound(region, FAST) / math.factorial(8)
        assert quad_error(region, FAST) == expected


# ---------------------------------------------------------------------------
# integrands
# ---------------------------------------------------------------------------


def test_integrand_zero_at_origin():
    f = integrand("I1", 6, 9)
    assert f(0.0) == 0.0


def test_integrand_scalar_vs_array():
    f = integrand("I1", 6, 9)
    r = np.array([0.0, 1.0, 7.3, 25.0, 600.0])
    vec = f(r)
    scal = np.array([f(float(x)) for x in r])
    assert np.array_equal(vec, scal)


def test_integrand_validation():
    with pytest.raises(ValueError):
        integrand("I2", 0, 2)
    with pytest.raises(ValueError):
        integrand("I0", -2, 2)
    with pytest.raises(ValueError):
        integrand("I0", 20, 21)  # n + m = 41 past the evaluator's order cap


def test_figure_curve_shape():
    # small before the orders come alive, erratic up to about (n+m)^2 ~ 81,
    # then asymptotically decaying
    f = integrand("I1", 6, 9)
    head = np.max(np.abs(f(np.linspace(0.01, 9.0, 600))))
    body = np.max(np.abs(f(np.linspace(9.0, 81.0, 4000))))
    tail = np.max(np.abs(f(np.linspace(81.0, 100.0, 1200))))
    assert body > 50.0 * head
    assert tail < body / 10.0


def test_integrand_uniform_envelope_sampled():
    # |f(r)| <= (8/pi^3) (9/8)^3 (11/8)^2 (9/8) r^-2 for r >= 1
    bound = (8.0 / math.pi**3) * (9.0 / 8.0) ** 3 * (11.0 / 8.0) ** 2 * (9.0 / 8.0)
    for variant, m, n in [("I0", 0, 2), ("I1", 0, 2), ("I0", 4, 14), ("I1", 18, 19), ("I0", 18, 19)]:
        f = integrand(variant, m, n)
        r = np.concatenate(
            [np.geomspace(1.0, 1e4, 1500), np.linspace(max(1.0, n + m - 4), n + m + 12, 800)]
        )
        assert np.max(np.abs(f(r)) * r**2) <= bound


# ---------------------------------------------------------------------------
# tail main terms
# ---------------------------------------------------------------------------


def test_tail_main_matches_printed_values():
    printed = {
        ("I0", "even"): 1.2798e-6,
        ("I0", "odd"): 0.2560e-6,
        ("I1", "even"): 0.2560e-6,
        ("I1", "odd"): 0.2560e-6,
    }
    for (variant, parity), value in printed.items():
        tm = tail_main(variant, parity)
        assert abs(tm.mid - value) <= 1e-10
        assert 0 <= tm.rad <= 1e-10


def test_tail_mean_term_alone_reproduces_leading_digits():
    mean_only = (8.0 / math.pi**3) * (5.0 / 16.0) / 63000.0
    assert abs(mean_only - 1.2798e-6) <= 1e-10


def test_tail_parity_collapse_for_i1():
    even = tail_main("I1", "even")
    odd = tail_main("I1", "odd")
    assert abs(even.mid - odd.mid) <= 1e-10


def test_tail_radius_target_near_lower_R():
    tm = tail_main("I0", "even", 1000.0)
    assert tm.rad <= 1e-10


def test_tail_small_R_rejected():
    with pytest.raises(ValueError):
        tail_main("I0", "even", 999.0)


def test_tail_argument_validation():
    with pytest.raises(ValueError):
        tail_main("I2", "even")
    with pytest.raises(ValueError):
        tail_main("I0", "mixed")


# ---------------------------------------------------------------------------
# tail error budget
# ---------------------------------------------------------------------------


def test_tail_error_pieces_below_printed_ceilings():
    pieces = _tail_error_pieces()
    ceilings = (2.1e-11, 1.64e-9, 3.32e-9, 4.5e-10)
    assert len(pieces) == 4
    for piece, ceiling in zip(pieces, ceilings):
        assert 0 < piece <= ceiling


def test_tail_error_second_kind_piece_formula():
    quartic = (8.0 / math.pi**3) / (3.0 * 63000.0**3)
    expected = 3.0 * math.pi * (37**2 + 19**2 + 18**2 + 3) * quartic
    assert _tail_error_pieces()[0] == expected


def test_tail_error_budget_value():
    total = tail_error_budget("I0", 0, 20)
    assert total == sum(_tail_error_pieces())
    assert total <= 5.5e-9
    # same constants for every order in range
    assert tail_error_budget("I1", 18, 19) == total


def test_tail_error_budget_domain():
    with pytest.raises(ValueError):
        tail_error_budget("I0", 3, 5)  # odd m
    with pytest.raises(ValueError):
        tail_error_budget("I0", 18, 20)  # n + m = 38
    with pytest.raises(ValueError):
        tail_error_budget("I0", 0, 20, R=3600.0)


# ---------------------------------------------------------------------------
# full error budget and integral
# ---------------------------------------------------------------------------


def test_budget_dominance_and_rollup():
    b = error_budget("I0", 0, 20)
    assert b.quad_low <= 1.49e-9
    assert b.quad_high <= 1.42e-9
    assert b.tail_main_eval <= 1e-10
    assert b.tail_error_terms <= 5.5e-9
    assert b.rounding <= 0.05e-8
    assert b.total == b.quad_low + b.quad_high + b.tail_main_eval + b.tail_error_terms + b.rounding
    assert b.total <= 0.9e-8


def test_integral_argument_validation():
    with pytest.raises(ValueError):
        integral("I0", 3, 5)  # odd m
    with pytest.raises(ValueError):
        integral("I0", 4, 2)  # m > n
    with pytest.raises(ValueError):
        integral("I0", -2, 2)
    with pytest.raises(ValueError):
        integral("Ix", 0, 2)


def test_integral_small_n_against_main_expression():
    # the n = 2 deviation implied by the verification table's first cell
    val = integral("I0", 0, 2)
    assert isinstance(val, CertifiedValue)
    assert val.rad <= 0.9e-8
    main = (NORMALIZATION * main_term(0, 2, "I0")).to_real()
    assert abs(val.mid - main) <= 0.0085 * 2.0**-4


def test_integral_meets_theorem_bound_at_n7():
    val = integral("I0", 0, 7)
    main = (NORMALIZATION * main_term(0, 7, "I0")).to_real()
    assert abs(val.mid - main) + val.rad <= 0.002 * 7.0**-4


def test_rounding_allowance_is_generous():
    # compare the plain pairwise reduction with compensated summation on a
    # real low-region composite; the difference must sit far inside the
    # 0.05e-8 allowance
    count = 6 * 200000 + 1
    nodes = 0.003 * np.arange(count)
    rows = _order_rows((0, 2), 0.0, 0.003, nodes, 1)
    row0, row2 = rows[0], rows[2]
    values = row2 * row2 * row0 * row0 * row0 * nodes
    wv = _weigh(np.ones(count))
    plain = (0.003 / 140.0) * float(np.sum(wv * values))
    compensated = (0.003 / 140.0) * math.fsum((wv * values).tolist())
    assert abs(plain - compensated) <= 0.05e-8 / 100.0


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_chunked_evaluation_worker_independent():
    nodes = 0.003 * np.arange(6 * 200000 + 1)
    orders = (0, 7, 30)
    f = lambda block: _bessel_rows(orders, block)
    one = [np.empty(nodes.shape[0]) for _ in orders]
    eight = [np.empty(nodes.shape[0]) for _ in orders]
    _eval_chunked(f, nodes, one, 1)
    _eval_chunked(f, nodes, eight, 8)
    for a, b in zip(one, eight):
        assert np.array_equal(a, b)


def test_order_rows_cached_and_frozen():
    nodes = FAST.w_low * np.arange(6 * 200 + 1)
    a = _order_rows((0,), 0.0, FAST.w_low, nodes, 1)[0]
    b = _order_rows((0,), 0.0, FAST.w_low, nodes, 1)[0]
    c = _order_rows((3, 0), 0.0, FAST.w_low, nodes, 1)[0]
    assert a is b is c
    assert not a.flags.writeable


def _count_kernel_rows(monkeypatch) -> list:
    """Record (order, first node, node count) for every row the kernel
    evaluates inside the quadrature module."""
    evaluated = []

    def counting(orders, r):
        evaluated.extend((k, float(r[0]), r.shape[0]) for k in orders)
        return _bessel_rows(orders, r)

    monkeypatch.setattr(quadrature, "_bessel_rows", counting)
    return evaluated


def test_table_band_evaluates_each_row_once(monkeypatch):
    # rows 7..9 read 16 distinct orders in each of the two regions; every
    # FAST region fits in one chunk, so each row is one kernel row
    monkeypatch.setattr(quadrature, "_ROW_CACHE", OrderedDict())
    evaluated = _count_kernel_rows(monkeypatch)
    build_table([7, 8, 9], scheme=FAST)
    assert len(set(evaluated)) == 32
    assert len(evaluated) == 32


def test_repeated_integral_evaluates_no_row(monkeypatch):
    scheme = QuadratureScheme(S=360.0, R=63000.0, w_low=0.03, w_high=0.5)
    monkeypatch.setattr(quadrature, "_ROW_CACHE", OrderedDict())
    evaluated = _count_kernel_rows(monkeypatch)
    first = integral("I1", 2, 9, scheme=scheme)
    assert evaluated
    evaluated.clear()
    assert integral("I1", 2, 9, scheme=scheme) == first
    assert evaluated == []


def test_row_lookup_evicts_before_allocating(monkeypatch):
    cache = OrderedDict()
    monkeypatch.setattr(quadrature, "_ROW_CACHE", cache)
    monkeypatch.setattr(quadrature, "_ROW_CACHE_MAX", 4)
    nodes = FAST.w_low * np.arange(6 * 200 + 1)
    first = _order_rows((0, 1, 2, 3), 0.0, FAST.w_low, nodes, 1)
    sizes = []
    real = quadrature._eval_chunked

    def eval_noting_cache(f, nodes, rows, workers):
        sizes.append(len(cache))
        real(f, nodes, rows, workers)

    monkeypatch.setattr(quadrature, "_eval_chunked", eval_noting_cache)
    # order 1 is touched by the request, so 0 and 2 are the two least recently used
    rows = _order_rows((1, 5, 6), 0.0, FAST.w_low, nodes, 1)
    assert sizes == [2]
    assert [key[0] for key in cache] == [3, 1, 5, 6]
    assert rows[1] is first[1]
    assert all(row.base is None for row in rows.values())


def test_build_table_worker_independent_fast_scheme():
    one = build_table([2, 3], scheme=FAST, workers=1)
    eight = build_table([2, 3], scheme=FAST, workers=8)
    assert one == eight


# ---------------------------------------------------------------------------
# table assembly
# ---------------------------------------------------------------------------


def test_build_table_shape_fast_scheme():
    entries = build_table([2, 3], scheme=FAST)
    assert [(e.n, e.m) for e in entries] == [(2, 0), (2, 2), (3, 0), (3, 2)]
    assert all(e.top >= 0 and e.bottom >= 0 for e in entries)


def test_build_table_row_validation():
    with pytest.raises(ValueError):
        build_table([1])
    with pytest.raises(ValueError):
        build_table([20])
