"""Tests for the certified composite quadrature and tail evaluation."""

import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from besselsix import quadrature
from besselsix.bessel import CertifiedValue, _bessel_rows
from besselsix.certify import NORMALIZATION
from besselsix.core_integrals import main_term
from besselsix.exactnum import _TABLE_ROWS, Budget, CertificationError
from besselsix.expansions import TrigPoly, _carrier, _fourier
from besselsix.quadrature import (
    DEFAULT_SCHEME,
    PAPER_SCHEME,
    QuadratureScheme,
    TableEntry,
    _NC7_WEIGHTS,
    _ROUNDING_ALLOWANCE,
    _GaussRegion,
    _NC7Region,
    _cached_pieces,
    _envelope_factor,
    _gauss_rule,
    _order_rows,
    _panel_count,
    _region_sums,
    _regions,
    _streamed_pieces,
    _tail_error_pieces,
    build_table,
    deriv8_bound,
    error_budget,
    integral,
    integrand,
    tail_error_budget,
    tail_main,
)
from testkit import nc7_composite

# 200 coarse NC7 panels at the origin: 1201 nodes, one chunk.
SMALL = _NC7Region(0.0, 36.0, 0.03)


def _whole(region) -> tuple[np.ndarray, np.ndarray]:
    """The nodes and weights of the whole region, as one chunk."""
    return region.chunk(0, region.size())


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
    # node spacing 140 makes every weight w c / 140 the integer c
    wv = _whole(_NC7Region(0.0, 12 * 140.0, 140.0))[1]
    expected = [41, 216, 27, 272, 27, 216, 82, 216, 27, 272, 27, 216, 41]
    assert wv.tolist() == expected
    assert _whole(_NC7Region(0.0, 6 * 140.0, 140.0))[1].tolist() == [41, 216, 27, 272, 27, 216, 41]
    # per panel the weights sum to 6 * 140
    assert float(np.sum(_whole(_NC7Region(0.0, 30 * 140.0, 140.0))[1])) == 5 * 840.0


# ---------------------------------------------------------------------------
# scheme and budget records
# ---------------------------------------------------------------------------


def test_default_scheme_values():
    # two rules on the paper's split: Gauss panels by default, or NC7
    assert list(QuadratureScheme) == [DEFAULT_SCHEME, PAPER_SCHEME]
    gauss, paper = _regions(DEFAULT_SCHEME), _regions(PAPER_SCHEME)
    split = [(0.0, 3600.0), (3600.0, 63000.0)]
    assert [(r.a, r.b) for r in gauss] == [(r.a, r.b) for r in paper] == split
    assert [r.w for r in paper] == [0.003, 0.05]
    assert [(r.points, r.rho) for r in gauss] == [(76, 3.0), (66, 2.0)]
    assert _regions(PAPER_SCHEME) is paper  # built once per scheme
    assert sum(_NC7_WEIGHTS) == 6
    assert _NC7_WEIGHTS[0] == Fraction(41, 140)


@pytest.mark.parametrize("scheme", [None, "paper", 0])
def test_unknown_scheme_is_refused(scheme):
    # None no longer stands for the default; only the two members are schemes
    with pytest.raises(ValueError, match="scheme must be DEFAULT_SCHEME or PAPER_SCHEME"):
        integral("I0", 0, 7, scheme)
    with pytest.raises(ValueError, match="scheme must be DEFAULT_SCHEME or PAPER_SCHEME"):
        build_table([2], scheme=scheme)


def test_scheme_rejects_non_integer_panels():
    # the regions a scheme is built from tile their interval exactly
    with pytest.raises(ValueError):
        _NC7Region(0.0, 3600.0, 0.007)
    with pytest.raises(ValueError):
        _NC7Region(3600.0, 3599.0, 0.05)


@pytest.mark.parametrize(
    "S, R",
    [(3610.0, 63000.0), (3600.0, 63010.0), (15.0, 63000.0)],
)
def test_gauss_scheme_needs_width_30_panels(S, R):
    with pytest.raises(ValueError, match="panels"):
        _GaussRegion(S, R, 66, 2.0)


def test_error_budget_total_must_match_items():
    names = ("quad_low", "quad_high", "tail_main_eval", "tail_error_terms", "rounding")
    with pytest.raises(ValueError):
        Budget(zip(names, (-1e-9, 1e-9, 1e-10, 1e-9, 5e-10)))
    b = Budget(zip(names, (1e-9, 1e-9, 1e-10, 1e-9, 5e-10)))
    assert b.total == 1e-9 + 1e-9 + 1e-10 + 1e-9 + 5e-10
    with pytest.raises(AttributeError):
        b.total = 1e-8


def test_table_entry_nonnegative():
    with pytest.raises(ValueError):
        TableEntry(2, 0, -0.1, 0.2)


# ---------------------------------------------------------------------------
# derivative bounds and quadrature error
# ---------------------------------------------------------------------------


def test_deriv8_low_printed_form():
    assert deriv8_bound(_regions(PAPER_SCHEME)[0]) == math.factorial(8) * math.e**6 * 3601.0


def test_deriv8_high_printed_form():
    expected = (
        3.0
        * math.factorial(8)
        * (2.0 / (math.pi * 3599.0)) ** 3
        * math.cosh(1.0) ** 6
        * 63001.0
    )
    assert deriv8_bound(_regions(PAPER_SCHEME)[1]) == expected


def _envelope_corrections(x, y, orders):
    """The six factors 1 + mu e^mu of the Hankel envelope, one cell."""
    out = 1.0
    for nu in orders:
        mu = abs(nu * nu - 0.25) * (x + y) / x**2
        out *= 1.0 + mu * math.exp(mu)
    return out


def test_envelope_factor_derives_the_printed_three():
    # the derived factor at the paper's S sits below the printed 3 and
    # dominates every cell integral certifies
    derived = float(_envelope_factor(3599.0, 1.0))
    assert 2.4 < derived <= 3.0
    cells = [
        (n + m, n, m, *low)
        for n in range(0, 38)
        for m in range(0, n + 1, 2)
        if n + m <= 37
        for low in ((0, 0, 0), (1, 1, 0))
    ]
    worst = max(_envelope_corrections(3599.0, 1.0, orders) for orders in cells)
    assert worst <= derived <= worst * (1 + 1e-11)
    # elementwise over panel positions, falling with x
    xs = np.array([3596.25, 10000.0, 60000.0])
    assert np.array_equal(_envelope_factor(xs, 11.25), [float(_envelope_factor(x, 11.25)) for x in xs])
    assert np.all(np.diff(_envelope_factor(xs, 11.25)) < 0)


def test_envelope_factor_above_three_is_refused(monkeypatch):
    # the printed factor 3 stands only while the derived one stays below it
    monkeypatch.setattr(quadrature, "_envelope_factor", lambda x, y: np.float64(3.01))
    high = _regions(PAPER_SCHEME)[1]
    with pytest.raises(CertificationError, match="above the printed 3"):
        deriv8_bound(high)
    with pytest.raises(CertificationError, match="above the printed 3"):
        high.error()


def test_quad_error_below_printed_ceilings():
    low, high = (region.error() for region in _regions(PAPER_SCHEME))
    assert 1.4e-9 < low <= 1.49e-9
    assert 1.4e-9 < high <= 1.42e-9


def test_quad_error_follows_the_composite_law():
    # length * w^8 * (6^3/5) * M8 / 8!, on each of the paper's two regions
    for region, length, w in zip(_regions(PAPER_SCHEME), (3600.0, 59400.0), (0.003, 0.05)):
        expected = length * w**8 * (216.0 / 5.0) * deriv8_bound(region) / math.factorial(8)
        assert region.error() == expected


# ---------------------------------------------------------------------------
# the certified Gauss-Legendre panels
# ---------------------------------------------------------------------------


def test_gauss_nodes_tile_the_regions():
    low, high = _regions(DEFAULT_SCHEME)
    assert (low.points, high.points) == (76, 66)
    for region in (low, high):
        nodes = _whole(region)[0]
        panels = round((region.b - region.a) / 30.0)
        assert region.panels() == panels
        assert nodes.shape == (region.size(),) == (panels * region.points,)
        assert region.a < nodes[0] and nodes[-1] < region.b
        assert np.all(np.diff(nodes) > 0)
        centers = region.centers(np.arange(panels))
        assert np.array_equal(centers, region.a + 15.0 * (2.0 * np.arange(panels) + 1.0))
    # 139,800 nodes per cell, against 2.39M for the paper's NC7 grids
    assert sum(r.size() for r in _regions(DEFAULT_SCHEME)) == 139800
    assert sum(r.size() for r in _regions(PAPER_SCHEME)) == 2388002


def test_gauss_weighted_sum_is_the_panel_rule():
    # exact for polynomials through degree 2n - 1 on every panel
    low = _regions(DEFAULT_SCHEME)[0]
    nodes, weights = _whole(low)
    t = (nodes - 1800.0) / 1800.0
    assert weights.shape == nodes.shape
    # 1800 * integral_{-1}^{1} (t^9 + 3 t^2) dt
    assert float(np.sum(weights * (t**9 + 3.0 * t**2))) == pytest.approx(3600.0, rel=1e-13)
    assert float(np.sum(weights * np.ones(nodes.shape[0]))) == pytest.approx(3600.0, rel=1e-14)


def _reference_arrays(region) -> tuple[np.ndarray, np.ndarray]:
    """The region's nodes and weights built whole, panel by panel."""
    if isinstance(region, _GaussRegion):
        rule = _gauss_rule(region.points)
        centers = region.a + 15.0 * (2.0 * np.arange(region.panels()) + 1.0)
        nodes = (centers[:, None] + 15.0 * rule.nodes).ravel()
        return nodes, np.tile(15.0 * rule.weights, centers.shape[0])
    count = 6 * _panel_count(region.a, region.b, region.w) + 1
    w = Fraction(region.w)
    weights = np.empty(count)
    for j in range(1, 6):
        weights[j::6] = float(w * _NC7_WEIGHTS[j])
    weights[::6] = float(w * (_NC7_WEIGHTS[0] + _NC7_WEIGHTS[6]))
    weights[0], weights[-1] = float(w * _NC7_WEIGHTS[0]), float(w * _NC7_WEIGHTS[6])
    return region.a + region.w * np.arange(count), weights


@pytest.mark.parametrize("chunk", [4096, 16384, 65536, 1001, 5017])
def test_chunks_concatenate_to_the_whole_region(chunk):
    # any chunk size, a multiple of neither panel size (76 or 66 Gauss
    # points, 6 NC7 spacings) nor the other chunk sizes, and both NC7 end
    # weights in the first and the last chunk
    for region in (*_regions(DEFAULT_SCHEME), *_regions(PAPER_SCHEME)):
        pieces = [region.chunk(lo, lo + chunk) for lo in range(0, region.size(), chunk)]
        assert all(nodes.shape == weights.shape == (min(chunk, region.size() - k * chunk),)
                   for k, (nodes, weights) in enumerate(pieces))
        nodes, weights = (np.concatenate(part) for part in zip(*pieces))
        reference = _reference_arrays(region)
        assert np.array_equal(nodes, reference[0]) and np.array_equal(weights, reference[1])
        if isinstance(region, _NC7Region):
            assert weights[0] == weights[-1] == float(Fraction(region.w) * _NC7_WEIGHTS[0])
            assert weights[6] == float(2 * Fraction(region.w) * _NC7_WEIGHTS[0])


def _unblocked_error(region) -> float:
    """``_GaussRegion.error()`` computed over every panel at once."""
    rule = _gauss_rule(region.points)
    n, rho, h = region.points, region.rho, 15.0
    c = region.a + h * (2.0 * np.arange(region.panels()) + 1.0)
    semi, height = h * (rho + 1.0 / rho) / 2.0, h * (rho - 1.0 / rho) / 2.0
    zmax = c + semi + height
    if region.a > 0:
        xmin = c - semi
        bound = zmax * (2.0 / (math.pi * xmin)) ** 3 * math.cosh(height) ** 6 * _envelope_factor(xmin, height)
    else:
        bound = zmax * math.exp(6.0 * height)
    k = np.arange(2 * n)
    coeffs = np.minimum(2.0 * quadrature._real_sup(c - h, c + h)[:, None], 2.0 * bound[:, None] * rho ** -k)
    tail = 2.0 * bound * (rule.abs_weights + 2.0 / (4 * n * n - 1)) * rho ** (-2 * n) / (1.0 - 1.0 / rho)
    x1 = np.maximum(c - h - 1.0, math.sqrt(quadrature._LANDAU6))
    slope = (1.0 + 6.0 * x1) * np.minimum(1.0, quadrature._LANDAU6 / x1**2)
    nodes = rule.abs_weights * 2.0**-52 * (c + 2.0 * h) * slope
    return quadrature._PAD * h * float(np.sum(coeffs @ rule.moment_errors + tail + nodes))


@pytest.mark.parametrize("block", [quadrature._ERROR_BLOCK, 7, 1000])
def test_blocked_gauss_error_is_the_unblocked_one(monkeypatch, block):
    # each panel's float depends on its center alone, so any blocking of
    # [0, S]'s 120 panels and [S, R]'s 1980 gives the same bits
    monkeypatch.setattr(quadrature, "_ERROR_BLOCK", block)
    for region in _regions(DEFAULT_SCHEME):
        assert _GaussRegion.error.__wrapped__(region) == _unblocked_error(region) == region.error()


def test_gauss_rule_certificate():
    for points in (76, 66):
        rule = _gauss_rule(points)
        assert rule.moment_errors.shape == (2 * points,)
        assert np.all(rule.moment_errors[1::2] == 0.0)
        assert 0 < float(np.sum(rule.moment_errors)) <= 1e-12
        assert rule.abs_weights == pytest.approx(2.0, abs=1e-14)
        assert not rule.nodes.flags.writeable and not rule.weights.flags.writeable


@pytest.mark.parametrize(
    "source, points",
    [
        pytest.param(np.polynomial.legendre.leggauss, 7, id="7"),
        pytest.param(np.polynomial.legendre.leggauss, 20, id="20"),
        pytest.param(quadrature._legendre_rule, 7, id="newton-7"),
        pytest.param(quadrature._legendre_rule, 20, id="newton-20"),
    ],
)
def test_rule_certificate_bounds_the_exact_moment_errors(source, points):
    # plain Fraction arithmetic on the stored floats, small rules only
    x, w = source(points)
    rule = quadrature._certify_rule(x, w)
    xs, ws = [Fraction(float(v)) for v in x], [Fraction(float(v)) for v in w]
    t_prev, t = [Fraction(1)] * points, list(xs)
    for k in range(2 * points):
        if k >= 2:
            t_prev, t = t, [2 * a * b - c for a, b, c in zip(xs, t, t_prev)]
        values = [Fraction(1)] * points if k == 0 else t
        exact_integral = Fraction(2, 1 - k * k) if k % 2 == 0 else Fraction(0)
        exact = abs(exact_integral - sum(a * b for a, b in zip(ws, values)))
        assert exact <= Fraction(float(rule.moment_errors[k])) <= exact * (1 + Fraction(1, 10**15)) + Fraction(1, 10**24), k


def _perturbed(index: int, delta: float, symmetric: bool):
    """A Gauss-Legendre source whose node (index 0) or weight (index 1) at
    the outermost position is moved by delta, on both sides when symmetric."""
    real = quadrature._legendre_rule

    def source(points):
        arrays = [np.array(a) for a in real(points)]
        arrays[index][-1] += delta
        if symmetric:
            arrays[index][0] += -delta if index == 0 else delta
        return tuple(arrays)

    return source


@pytest.mark.parametrize(
    "index, delta, symmetric, message",
    [
        (1, 1e-6, True, "misses T_0"),
        (0, 1e-9, True, "misses T_0"),
        (1, 1e-6, False, "symmetric"),
        (0, 1e-9, False, "symmetric"),
    ],
)
def test_perturbed_stored_rule_is_refused(monkeypatch, index, delta, symmetric, message):
    monkeypatch.setattr(quadrature, "_legendre_rule", _perturbed(index, delta, symmetric))
    _gauss_rule.cache_clear()
    try:
        with pytest.raises(CertificationError, match=message):
            _gauss_rule(76)
    finally:
        _gauss_rule.cache_clear()


_COUNT_CERTIFICATES = """
import besselsix
from besselsix import quadrature
made = []
_source = quadrature._legendre_rule
quadrature._legendre_rule = lambda n: made.append(n) or _source(n)
certified = []
_certify = quadrature._certify_rule
quadrature._certify_rule = lambda x, w: certified.append(len(x)) or _certify(x, w)
print(made, quadrature._gauss_rule.cache_info().currsize)
besselsix.integral("I0", 0, 7)
besselsix.integral("I1", 2, 9)
besselsix.build_table([2, 3])
print(sorted(made), sorted(certified))
"""


def test_fresh_process_certifies_each_rule_once():
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run(
        [sys.executable, "-c", _COUNT_CERTIFICATES],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    # import builds no rule; two integrals and a table certify each rule once
    assert result.stdout.splitlines() == ["[] 0", "[66, 76] [66, 76]"]


def test_default_budget_meets_the_radius_target():
    for variant, m, n in (("I0", 0, 2), ("I1", 0, 7), ("I0", 4, 11), ("I1", 18, 19)):
        b = error_budget(variant, m, n)
        items = dict(b)
        assert items["quad_low"] + items["quad_high"] <= 1e-10
        assert b.total <= 0.9e-8
    # the paper's NC7 budget is unchanged
    paper = dict(error_budget("I0", 0, 7, PAPER_SCHEME))
    assert (paper["quad_low"], paper["quad_high"]) == tuple(region.error() for region in _regions(PAPER_SCHEME))


@pytest.mark.parametrize("cell", [("I0", 0, 7), ("I1", 4, 11), ("I0", 18, 19)])
def test_gauss_and_nc7_region_sums_agree(cell):
    for gauss, nc7 in zip(_regions(DEFAULT_SCHEME), _regions(PAPER_SCHEME)):
        g = _region_sums([cell], _streamed_pieces([cell], gauss))[0]
        p = _region_sums([cell], _streamed_pieces([cell], nc7))[0]
        assert abs(g - p) <= 1e-15, (cell, gauss.a, g - p)


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


# The tail's leading-term profiles cos^6, s^2 c^4 and s^4 c^2 of omega_0, as
# (mean, coefficients of cos 2k omega_0 for k = 1, 2, 3), worked by hand
_COS6 = (Fraction(5, 16), (Fraction(15, 32), Fraction(3, 16), Fraction(1, 32)))
_S2C4 = (Fraction(1, 16), (Fraction(1, 32), Fraction(-1, 16), Fraction(-1, 32)))
_S4C2 = (Fraction(1, 16), (Fraction(-1, 32), Fraction(-1, 16), Fraction(1, 32)))
TAIL_PROFILES = {("I0", "even"): _COS6, ("I0", "odd"): _S2C4, ("I1", "even"): _S2C4, ("I1", "odd"): _S4C2}


@pytest.mark.parametrize("variant, fixed", [("I0", (0, 0, 0)), ("I1", (1, 1, 0))])
def test_tail_profile_is_every_cells_carrier_product(variant, fixed):
    for n in range(38):
        for m in range(0, 38 - n, 2):
            mean, coeffs = TAIL_PROFILES[variant, "odd" if n % 2 else "even"]
            carriers = reduce(TrigPoly.__mul__, map(_carrier, (n + m, n, m, *fixed)))
            expected = {("cos", 0): {0: mean}} | {("cos", 2 * k): {0: c} for k, c in enumerate(coeffs, 1)}
            assert _fourier(carriers) == expected, (m, n)
    for parity in ("even", "odd"):
        mean, coeffs = TAIL_PROFILES[variant, parity]
        assert quadrature._tail_profile(variant, parity) == (mean, tuple(enumerate(coeffs, 1)))


def test_tail_mean_term_alone_reproduces_leading_digits():
    mean_only = (8.0 / math.pi**3) * (5.0 / 16.0) / 63000.0
    assert abs(mean_only - 1.2798e-6) <= 1e-10


def test_tail_parity_collapse_for_i1():
    even = tail_main("I1", "even")
    odd = tail_main("I1", "odd")
    assert abs(even.mid - odd.mid) <= 1e-10


def test_tail_argument_validation():
    with pytest.raises(ValueError):
        tail_main("I2", "even")
    with pytest.raises(ValueError):
        tail_main("I0", "mixed")


# ---------------------------------------------------------------------------
# tail error budget
# ---------------------------------------------------------------------------


def test_tail_error_pieces_below_printed_ceilings():
    pieces = _tail_error_pieces(19)
    ceilings = (2.1e-11, 1.64e-9, 3.32e-9, 4.5e-10)
    assert len(pieces) == 4
    for piece, ceiling in zip(pieces, ceilings):
        assert 0 < piece <= ceiling


def test_tail_error_second_kind_piece_formula():
    quartic = (8.0 / math.pi**3) / (3.0 * 63000.0**3)
    expected = 3.0 * math.pi * (37**2 + 19**2 + 18**2 + 3) * quartic
    assert _tail_error_pieces(19)[0] == expected


def test_tail_error_budget_value():
    total = tail_error_budget("I0", 0, 20)
    assert total == sum(_tail_error_pieces(20))
    assert total == pytest.approx(6.12e-10, rel=1e-3)
    assert total <= 5.5e-9
    # every table cell (n <= 19) shares the constants of the order cap 19
    table = sum(_tail_error_pieces(19))
    assert tail_error_budget("I1", 18, 19) == tail_error_budget("I0", 0, 2) == table < total


def test_tail_error_budget_grows_past_nineteen():
    # the pieces are taken at the cell's own orders once n exceeds 19
    budgets = [tail_error_budget("I0", 0, n) for n in range(19, 38)]
    assert all(a < b for a, b in zip(budgets, budgets[1:]))
    assert budgets[-1] == pytest.approx(1.40e-9, rel=1e-2)
    # n, the larger order, sets the cap; like every cell of integral, m <= n
    with pytest.raises(ValueError, match="^m must not exceed n, got m=36, n=1$"):
        tail_error_budget("I0", 36, 1)
    # every piece stays under its printed ceiling up to the largest cell
    assert all(p <= c for p, c in zip(_tail_error_pieces(37), (2.1e-11, 1.64e-9, 3.32e-9, 4.5e-10)))
    assert integral("I0", 0, 37).rad <= 0.9e-8


def test_tail_error_budget_domain():
    with pytest.raises(ValueError):
        tail_error_budget("I0", 3, 5)  # odd m
    with pytest.raises(ValueError):
        tail_error_budget("I0", 18, 20)  # n + m = 38


# ---------------------------------------------------------------------------
# full error budget and integral
# ---------------------------------------------------------------------------


def test_budget_dominance_and_rollup():
    b = error_budget("I0", 0, 20)
    items = dict(b)
    assert list(items) == ["quad_low", "quad_high", "tail_main_eval", "tail_error_terms", "rounding"]
    assert items["quad_low"] <= 1.49e-9
    assert items["quad_high"] <= 1.42e-9
    assert items["tail_main_eval"] <= 1e-10
    assert items["tail_error_terms"] <= 5.5e-9
    assert items["rounding"] <= 0.05e-8
    assert b.total == (
        items["quad_low"] + items["quad_high"] + items["tail_main_eval"] + items["tail_error_terms"] + items["rounding"]
    )
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


def test_error_budget_refuses_m_above_n():
    # it used to itemize a 1.1e-9 budget for a cell that integral refuses
    with pytest.raises(ValueError, match="^m must not exceed n, got m=4, n=2$"):
        error_budget("I0", 4, 2)


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
    region = _NC7Region(0.0, 3600.0, 0.003)
    nodes, wv = _whole(region)
    assert np.array_equal(nodes, 0.003 * np.arange(count))
    rows = _order_rows((0, 2), region, {})
    row0, row2 = rows[0], rows[2]
    values = row2 * row2 * row0 * row0 * row0 * nodes
    plain = float(np.sum(wv * values))
    compensated = math.fsum((wv * values).tolist())
    assert abs(plain - compensated) <= 0.05e-8 / 100.0


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_order_rows_chunk_independent(monkeypatch):
    # the fixed chunks are the only partition of the node vector; rows must
    # not depend on it, across the small-r/Hankel switch and many chunks
    orders = (0, 1, 7, 30, 37)
    regions = _regions(DEFAULT_SCHEME)
    assert all(region.size() > 4096 for region in regions)
    blocks = []
    for chunk in (4096, 16384, 65536):
        monkeypatch.setattr(quadrature, "_CHUNK", chunk)
        blocks.append([np.stack(list(_order_rows(orders, region, {}).values())) for region in regions])
    for other in blocks[1:]:
        for a, b in zip(blocks[0], other):
            assert np.array_equal(a, b)


def test_order_rows_cached_and_frozen(monkeypatch):
    memo = {}
    a = _order_rows((0,), SMALL, memo)[0]
    b = _order_rows((0,), SMALL, memo)[0]
    c = _order_rows((3, 0), _NC7Region(0.0, 36.0, 0.03), memo)[0]
    assert a is b is c
    assert not a.flags.writeable
    # nodes are generated only when an order is missing
    with monkeypatch.context() as patch:
        patch.setattr(_NC7Region, "chunk", None)  # not callable
        assert _order_rows((0, 3), SMALL, memo)[0] is a
    # the orders missing from one request share one frozen block
    rows = _order_rows((1, 5, 6), SMALL, memo)
    assert rows[1].base is rows[5].base is rows[6].base is not a.base
    assert not rows[5].base.flags.writeable


def _count_kernel_calls(monkeypatch) -> list:
    """Record (orders, first node, node count) for every call of the kernel
    inside the quadrature module."""
    calls = []

    def counting(orders, r, out=None):
        calls.append((tuple(orders), float(r[0]), r.shape[0]))
        return _bessel_rows(orders, r, out)

    monkeypatch.setattr(quadrature, "_bessel_rows", counting)
    return calls


def _rows_of(calls) -> list:
    """(order, first node, node count) for every row the ``calls`` evaluated."""
    return [(k, first, count) for orders, first, count in calls for k in orders]


def test_table_band_evaluates_each_row_once(monkeypatch):
    # rows 7..9 read 16 distinct orders in each of the two regions: every
    # (order, node) is evaluated exactly once, one chunk at a time (the
    # [S, R] grid spans eight chunks, so count nodes rather than calls)
    quadrature._scheme_rows.cache_clear()
    calls = _count_kernel_calls(monkeypatch)
    build_table([7, 8, 9])
    evaluated = _rows_of(calls)
    assert len(set(evaluated)) == len(evaluated)
    low, high = (r.size() for r in _regions(DEFAULT_SCHEME))
    assert sum(count for _, _, count in evaluated) == 16 * (low + high)
    # each kernel call covers the band's union of orders, so the Hankel sums
    # and the forward recurrence run once per chunk, not once per row
    band = {k for n in (7, 8, 9) for m in range(0, n + 1, 2) for k in (n + m, n, m, 0, 1)}
    assert len(band) == 16
    assert all(orders == tuple(sorted(band)) for orders, _, _ in calls)
    assert sum(count for _, _, count in calls) == low + high
    # and the table keeps none of them
    assert len(quadrature._scheme_rows(DEFAULT_SCHEME)) == 0


def test_full_default_table_evaluates_each_row_once(monkeypatch):
    # rows 2..19 read 38 distinct orders in each region: 76 rows, each
    # evaluated once, chunk by chunk, in calls that each cover all 38 orders.
    # The [S, R] grid spans eight chunks, so count nodes rather than calls.
    quadrature._scheme_rows.cache_clear()
    calls = _count_kernel_calls(monkeypatch)
    build_table()
    evaluated = _rows_of(calls)
    assert len(set(evaluated)) == len(evaluated)
    low, high = (r.size() for r in _regions(DEFAULT_SCHEME))
    assert all(orders == tuple(range(38)) for orders, _, _ in calls)
    assert sum(count for _, _, count in evaluated) == 38 * (low + high)
    assert len(quadrature._scheme_rows(DEFAULT_SCHEME)) == 0


def test_repeated_integral_evaluates_no_row(monkeypatch):
    quadrature._scheme_rows.cache_clear()
    evaluated = _count_kernel_calls(monkeypatch)
    built = []
    for cls in (_GaussRegion, _NC7Region):
        def counting(region, lo, hi, _real=cls.chunk):
            nodes, weights = _real(region, lo, hi)
            built.append((region, nodes.shape[0]))
            return nodes, weights

        monkeypatch.setattr(cls, "chunk", counting)
    first = integral("I1", 2, 9)
    assert evaluated
    # nodes are generated one chunk at a time, each region's twice: once for
    # its rows and once for its weighted row
    assert all(count <= quadrature._CHUNK for _, count in built)
    for region in _regions(DEFAULT_SCHEME):
        assert sum(count for owner, count in built if owner == region) == 2 * region.size()
    evaluated.clear()
    built.clear()
    assert integral("I1", 2, 9) == first
    assert evaluated == []
    assert built == []


def _fill_cache_through_integral(scheme=DEFAULT_SCHEME) -> None:
    """Cache the rows and both families' weighted rows of the n = 2, m = 0
    cells under ``scheme``, starting from an empty cache."""
    quadrature._scheme_rows.cache_clear()
    for variant in ("I0", "I1"):
        integral(variant, 0, 2, scheme=scheme)


def test_weighted_rows_are_weights_times_nodes_times_fixed_rows():
    _fill_cache_through_integral()
    store = quadrature._scheme_rows(DEFAULT_SCHEME)
    assert {(variant, region) for variant, region in store.weighted} == {
        (variant, region) for variant in ("I0", "I1") for region in _regions(DEFAULT_SCHEME)
    }
    for (variant, region), row in store.weighted.items():
        nodes, weights = _whole(region)
        expected = weights * nodes
        for k in {"I0": (0, 0, 0), "I1": (1, 1, 0)}[variant]:
            expected = expected * store[k, region]
        assert np.array_equal(row, expected)
        assert not row.flags.writeable
    # a cell's rule value is the fsum, over the region's _CHUNK-node
    # granules, of each granule's pairwise sum of its three pair rows times
    # that row
    low = _regions(DEFAULT_SCHEME)[0]
    terms = store[2, low] * store[2, low] * store[0, low] * store.weighted["I1", low]
    cell = [("I1", 0, 2)]
    granule = quadrature._CHUNK
    assert granule < low.size() <= quadrature._SPAN * granule  # one piece of several granules
    expected = math.fsum(float(np.sum(terms[lo:lo + granule])) for lo in range(0, low.size(), granule))
    assert _region_sums(cell, _cached_pieces(cell, low, store))[0] == expected


def test_second_scheme_frees_the_first_schemes_rows():
    _fill_cache_through_integral()
    store = quadrature._scheme_rows(DEFAULT_SCHEME)
    blocks = {id(row.base): weakref.ref(row.base) for row in store.values()}
    assert len(blocks) == 4  # one block per integral call and region
    weighted = [weakref.ref(row) for row in store.weighted.values()]
    assert len(weighted) == 4  # one per family and region
    del store
    integral("I0", 0, 2, scheme=PAPER_SCHEME)
    assert all(ref() is None for ref in blocks.values())
    assert all(ref() is None for ref in weighted)
    assert {region for _, region in quadrature._scheme_rows(PAPER_SCHEME)} == set(_regions(PAPER_SCHEME))
    quadrature._scheme_rows.cache_clear()  # the paper's rows and weighted rows take 57 MB


def _traced_peak(fn) -> int:
    """The peak of traced memory, in bytes, while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_table_band_keeps_no_rows_and_stays_small():
    build_table([7, 8, 9])  # first-use certificates and main-term forms
    quadrature._scheme_rows.cache_clear()
    # kept rows would take 22.2 MB; the band streams 4096-node granules of
    # its 16 orders through the kernel, 1.5 MB at the peak
    assert _traced_peak(lambda: build_table([7, 8, 9])) < 2.5e6
    store = quadrature._scheme_rows(DEFAULT_SCHEME)
    assert len(store) == 0 and store.weighted == {}


def test_streamed_paper_cell_stays_small():
    # a one-shot paper cell streams its 2.4 million nodes: the cached path
    # keeps five rows and a weighted row over them, 115 MB
    cell = [("I1", 2, 9)]
    quadrature._streamed_sums(cell, PAPER_SCHEME)  # first-use certificates
    quadrature._scheme_rows.cache_clear()
    assert _traced_peak(lambda: quadrature._streamed_sums(cell, PAPER_SCHEME)) < 1.5e6
    store = quadrature._scheme_rows(PAPER_SCHEME)
    assert len(store) == 0 and store.weighted == {}


def test_streamed_default_cell_stays_small():
    # kept, the cell's two rows and its weighted row would take 3.4 MB;
    # streamed in 4096-node granules, 0.6 MB at the peak
    cell = [("I0", 0, 7)]
    quadrature._streamed_sums(cell, DEFAULT_SCHEME)  # first-use certificates
    quadrature._scheme_rows.cache_clear()
    assert _traced_peak(lambda: quadrature._streamed_sums(cell, DEFAULT_SCHEME)) < 1e6
    assert len(quadrature._scheme_rows(DEFAULT_SCHEME)) == 0


def test_paper_table_row_stays_small():
    quadrature._table_radius_ok(PAPER_SCHEME)
    quadrature._scheme_rows.cache_clear()
    # kept, the row's nine orders over 2.4 million nodes would take 229 MB
    assert _traced_peak(lambda: build_table([7], PAPER_SCHEME)) < 2e6


def test_streamed_sums_match_whole_region_sums():
    # the table and the one-shot commands stream each region granule by
    # granule; integral reads the rows it keeps, in spans of granules.  Per
    # node the terms agree, and both sum the same granules by the one rule,
    # so every cell integral accepts agrees to the bit, and so do two paper
    # cells
    cells = [(v, m, n) for n in range(38) for m in range(0, min(n, 37 - n) + 1, 2) for v in ("I0", "I1")]
    for cells, scheme in ((cells, DEFAULT_SCHEME), ([("I0", 0, 7)], PAPER_SCHEME), ([("I1", 2, 9)], PAPER_SCHEME)):
        for region in _regions(scheme):
            streamed = _region_sums(cells, _streamed_pieces(cells, region))
            whole = _region_sums(cells, _cached_pieces(cells, region, quadrature._SchemeRows()))
            assert streamed == whole


def test_streamed_paper_sum_is_close_to_the_exact_sum():
    # as test_rounding_allowance_is_generous does for the plain sum: the
    # streamed sum of a paper [0, S] cell sits far inside the allowance
    cell = [("I0", 0, 7)]
    region = _regions(PAPER_SCHEME)[0]
    streamed = _region_sums(cell, _streamed_pieces(cell, region))[0]
    rows = _order_rows((0, 7), region, {})
    nodes, weights = _whole(region)
    terms = quadrature._grid_composite(0, 7, rows, [quadrature._fixed_row("I0", rows, weights, nodes)])[0]
    assert abs(streamed - math.fsum(terms.tolist())) <= _ROUNDING_ALLOWANCE / 100.0


# ---------------------------------------------------------------------------
# table assembly
# ---------------------------------------------------------------------------


def test_build_table_shape():
    entries = build_table([2, 3])
    assert [(e.n, e.m) for e in entries] == [(2, 0), (2, 2), (3, 0), (3, 2)]
    assert all(e.top >= 0 and e.bottom >= 0 for e in entries)


def test_build_table_row_validation():
    with pytest.raises(ValueError):
        build_table([1])
    with pytest.raises(ValueError):
        build_table([20])
