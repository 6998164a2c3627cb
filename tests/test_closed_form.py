"""Tests for the exact two-Bessel closed forms."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from besselsix.closed_form import (
    descent_bound,
    vanishes_freq2,
    weber_schafheitlin,
)
from besselsix.exactnum import ExactScalar


# ---------------------------------------------------------------------------
# key validation
# ---------------------------------------------------------------------------


def test_key_invariants():
    # the key (n, m, k, trig) of a frequency-2 integral: k >= 1, trig cos or sin
    vanishes_freq2(2, 2, 3, "sin")  # fine
    vanishes_freq2(3, 5, 2, "cos")
    with pytest.raises(ValueError):
        vanishes_freq2(2, 2, 0, "cos")
    with pytest.raises(ValueError):
        vanishes_freq2(2, 2, 1, "none")


# ---------------------------------------------------------------------------
# Kapteyn's integral of J_n J_m / r, the k = 1 case of weber_schafheitlin
# ---------------------------------------------------------------------------


def test_kapteyn_confluent():
    v = weber_schafheitlin(3, 3, 1)
    assert v.coeff == Fraction(1, 6) and v.sqrtpi_power == 0


def test_kapteyn_even_difference_vanishes():
    assert weber_schafheitlin(1, 3, 1).is_zero()
    assert weber_schafheitlin(6, 2, 1).is_zero()


def test_kapteyn_odd_difference():
    v = weber_schafheitlin(0, 1, 1)
    assert v.coeff == 2 and v.sqrtpi_power == -2
    v = weber_schafheitlin(2, 5, 1)
    # sin(3 pi/2) = -1, m^2 - n^2 = 21
    assert v.coeff == Fraction(-2, 21) and v.sqrtpi_power == -2


def test_kapteyn_divergent_case():
    with pytest.raises(ValueError):
        weber_schafheitlin(0, 0, 1)


@given(n=st.integers(0, 30), m=st.integers(0, 30))
def test_kapteyn_symmetric(n, m):
    if n == 0 and m == 0:
        return
    assert weber_schafheitlin(n, m, 1) == weber_schafheitlin(m, n, 1)


# ---------------------------------------------------------------------------
# weber_schafheitlin
# ---------------------------------------------------------------------------


def test_ws_simple_values():
    v = weber_schafheitlin(1, 1, 1)
    assert v.coeff == Fraction(1, 2) and v.sqrtpi_power == 0
    v = weber_schafheitlin(1, 1, 2)
    assert v.coeff == Fraction(4, 3) and v.sqrtpi_power == -2  # 4/(3 pi)


def test_ws_parity_zero():
    # k odd, k < |n - m|, difference even: a 1/Gamma zero kills the value
    assert weber_schafheitlin(0, 4, 3).is_zero()
    assert weber_schafheitlin(1, 5, 3).is_zero()
    assert weber_schafheitlin(2, 8, 5).is_zero()


def test_ws_odd_difference_small_k_is_nonzero():
    """For odd |n - m| the 1/Gamma arguments are half-integers, never zeros,
    so e.g. (0, 5, 3) evaluates to -16/(11025 pi) rather than vanishing
    (cross-checked against direct quadrature elsewhere in the suite)."""
    v = weber_schafheitlin(0, 5, 3)
    assert v.coeff == Fraction(-16, 11025) and v.sqrtpi_power == -2


def test_ws_k_range():
    with pytest.raises(ValueError):
        weber_schafheitlin(1, 1, 3)
    with pytest.raises(ValueError):
        weber_schafheitlin(2, 3, 0)


def test_ws_at_k1_matches_kapteyn():
    # Kapteyn's (2/pi) sin((m-n)pi/2) / (m^2 - n^2), read as 1/(2n) at n = m,
    # on every order pair up to 40; n = m = 0 diverges and is refused
    with pytest.raises(ValueError):
        weber_schafheitlin(0, 0, 1)
    for n, m in itertools.product(range(41), repeat=2):
        sine = round(math.sin((m - n) * math.pi / 2))  # exactly -1, 0 or 1
        if n != m:
            assert weber_schafheitlin(n, m, 1) == ExactScalar(Fraction(2 * sine, m * m - n * n), -2), (n, m)
        elif n:
            assert weber_schafheitlin(n, n, 1) == ExactScalar(Fraction(1, 2 * n)), n


@given(data=st.data())
def test_ws_recursion_step(data):
    """I_{n,m,k+1} = (I_{n-1,m,k} + I_{n+1,m,k}) / (2n), exactly."""
    n = data.draw(st.integers(1, 20), label="n")
    m = data.draw(st.integers(0, 20), label="m")
    if n + m < 2:
        return
    k = data.draw(st.integers(1, n + m - 1), label="k")
    lhs = weber_schafheitlin(n, m, k + 1)
    rhs = (weber_schafheitlin(n - 1, m, k) + weber_schafheitlin(n + 1, m, k)) * Fraction(1, 2 * n)
    assert lhs == rhs


def test_ws_known_diagonal_forms():
    # int J_n^2 r^-3 = 1/(4(n-1)n(n+1)); int J_n J_{n+2} r^-3 = 1/(8n(n+1)(n+2))
    for n in (2, 5, 11, 24):
        v = weber_schafheitlin(n, n, 3)
        assert v.coeff == Fraction(1, 4 * (n - 1) * n * (n + 1)) and v.sqrtpi_power == 0
        v = weber_schafheitlin(n, n + 2, 3)
        assert v.coeff == Fraction(1, 8 * n * (n + 1) * (n + 2)) and v.sqrtpi_power == 0


# ---------------------------------------------------------------------------
# vanishes_freq2
# ---------------------------------------------------------------------------


def test_vanishing_examples():
    assert vanishes_freq2(3, 5, 2, "cos")
    assert vanishes_freq2(3, 5, 3, "sin")
    assert not vanishes_freq2(3, 4, 2, "cos")
    assert not vanishes_freq2(3, 5, 2, "sin")
    assert not vanishes_freq2(3, 5, 9, "sin")  # k > n+m


# ---------------------------------------------------------------------------
# descent_bound
# ---------------------------------------------------------------------------


def test_descent_bound_values():
    assert descent_bound(1, 1, 1) == Fraction(1, 16)
    assert descent_bound(20, 2, 1) == Fraction(21, 2 * 4**22)


def test_descent_bound_domain():
    with pytest.raises(ValueError):
        descent_bound(1, 1, 2)  # k must stay < n + m


@given(n=st.integers(1, 25), m=st.integers(1, 25))
def test_descent_bound_decreasing_in_k(n, m):
    vals = [descent_bound(n, m, k) for k in range(1, n + m)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
