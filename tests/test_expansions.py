"""Tests for the remaindered trigonometric expansions.

The six displayed expansions (J0, J1, their squares, and the two triple
products) are frozen here coefficient-by-coefficient, remainders included;
the implementation must reproduce them exactly.  Containment is checked
twice: a fast float sweep against the Bessel evaluator, and a rigorous
interval spot check where the truncation bound is compared exactly.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hiprec
from besselsix.bessel import bessel_j
from besselsix.expansions import (
    RemainderedExpansion,
    TrigPoly,
    _carrier,
    _fourier,
    base_expansion,
    estimate_A,
    estimate_A_recomputed,
    multiply,
    product_expansion,
)
from testkit import eval_expansion, evaluate

# ---------------------------------------------------------------------------
# frozen displays: {(c-power, s-power, t-power): coefficient} per term,
# then the seven remainder coefficients
# ---------------------------------------------------------------------------

DISPLAYS = {
    "J0": (
        [
            {(1, 0, 0): 1},
            {(0, 1, 1): 2},
            {(1, 0, 2): -18},
            {(0, 1, 3): -300},
            {(1, 0, 4): 7350},
            {(0, 1, 5): 238140},
        ],
        [F(9, 8), 2, 18, 300, 7350, 238140, 9604980],
    ),
    "J1": (
        [
            {(0, 1, 0): 1},
            {(1, 0, 1): 6},
            {(0, 1, 2): 30},
            {(1, 0, 3): -420},
            {(0, 1, 4): -9450},
            {(1, 0, 5): 291060},
        ],
        [F(11, 8), 6, 30, 420, 9450, 291060, 11351340],
    ),
    "J0J0": (
        [
            {(2, 0, 0): 1},
            {(1, 1, 1): 4},
            {(2, 0, 2): -36, (0, 2, 2): 4},
            {(1, 1, 3): -672},
            {(2, 0, 4): 15024, (0, 2, 4): -1200},
            {(1, 1, 5): 516480},
        ],
        [F(81, 64), F(17, 4), F(169, 4), F(1419, 2), F(68571, 4), F(1092495, 2), F(43435485, 2)],
    ),
    "J1J1": (
        [
            {(0, 2, 0): 1},
            {(1, 1, 1): 12},
            {(2, 0, 2): 36, (0, 2, 2): 60},
            {(1, 1, 3): -480},
            {(2, 0, 4): -5040, (0, 2, 4): -18000},
            {(1, 1, 5): 443520},
        ],
        [F(121, 64), F(57, 4), F(429, 4), F(2715, 2), F(113535, 4), F(1659735, 2), F(62391105, 2)],
    ),
    "J000": (
        [
            {(3, 0, 0): 1},
            {(2, 1, 1): 6},
            {(3, 0, 2): -54, (1, 2, 2): 12},
            {(2, 1, 3): -1116, (0, 3, 3): 8},
            {(3, 0, 4): 23022, (1, 2, 4): -3816},
            {(2, 1, 5): 836964, (0, 3, 5): -3600},
        ],
        [F(729, 512), F(217, 32), F(2353, 32), F(20003, 16), F(956787, 32), F(15017799, 16), F(588969477, 16)],
    ),
    "J110": (
        [
            {(1, 2, 0): 1},
            {(2, 1, 1): 12, (0, 3, 1): 2},
            {(3, 0, 2): 36, (1, 2, 2): 66},
            {(2, 1, 3): -624, (0, 3, 3): -180},
            {(3, 0, 4): -5688, (1, 2, 4): -16290},
            {(2, 1, 5): 519480, (0, 3, 5): 184140},
        ],
        [F(1089, 512), F(577, 32), F(5433, 32), F(38331, 16), F(1638411, 32), F(23971455, 16), F(897834285, 16)],
    ),
}


def _assert_matches(e: RemainderedExpansion, name: str) -> None:
    terms, rems = DISPLAYS[name]
    for k in range(6):
        assert e.terms[k].as_dict() == {key: F(v) for key, v in terms[k].items()}, (name, k)
    assert list(e.remainders) == [F(r) for r in rems], name


# ---------------------------------------------------------------------------
# TrigPoly algebra
# ---------------------------------------------------------------------------


def test_trigpoly_add_mul():
    a = TrigPoly.from_dict({(1, 0, 0): F(2), (0, 1, 1): F(-3)})
    b = TrigPoly.from_dict({(1, 0, 0): F(-2), (0, 0, 1): F(1, 2)})
    assert (a + b).as_dict() == {(0, 1, 1): F(-3), (0, 0, 1): F(1, 2)}
    prod = a * b
    assert prod.as_dict() == {
        (2, 0, 0): F(-4),
        (1, 0, 1): F(1),
        (1, 1, 1): F(6),
        (0, 1, 2): F(-3, 2),
    }
    assert a.norm() == 5
    assert a.degree_t() == 1


def test_trigpoly_zero_coefficients_dropped():
    a = TrigPoly.from_dict({(1, 0, 0): F(1), (0, 1, 0): F(0)})
    assert a.as_dict() == {(1, 0, 0): F(1)}
    assert (a + a.scale(-1)).is_zero()


@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
            st.fractions(min_value=-5, max_value=5),
        ),
        max_size=6,
    ),
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
            st.fractions(min_value=-5, max_value=5),
        ),
        max_size=6,
    ),
)
def test_trigpoly_norm_inequalities(pairs_a, pairs_b):
    a = TrigPoly.from_dict(dict(pairs_a))
    b = TrigPoly.from_dict(dict(pairs_b))
    assert (a + b).norm() <= a.norm() + b.norm()
    assert (a * b).norm() <= a.norm() * b.norm()


# ---------------------------------------------------------------------------
# the six displays
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("which", ["J0", "J1"])
def test_base_expansion_printed(which):
    _assert_matches(base_expansion(which), which)


@pytest.mark.parametrize("which", ["J0", "J1"])
def test_base_expansion_magnitudes_independent(which):
    # term-k coefficient magnitude must equal 16^k a_k(n) with a_k from the
    # oracle's own product formula
    n = 0 if which == "J0" else 1
    e = base_expansion(which)
    for k in range(6):
        ((_, coeff),) = e.terms[k].coeffs
        assert abs(coeff) == 16**k * abs(hiprec.a_frac(k, n))
    for k in range(1, 7):
        assert e.remainders[k] == 16**k * abs(hiprec.a_frac(k, n))


def test_square_expansions_printed():
    j0 = base_expansion("J0")
    j1 = base_expansion("J1")
    _assert_matches(multiply(j0, j0), "J0J0")
    _assert_matches(multiply(j1, j1), "J1J1")


@pytest.mark.parametrize("tag,name", [("J000", "J000"), ("J110", "J110")])
def test_product_expansion_printed(tag, name):
    _assert_matches(product_expansion(tag), name)


def test_term_norms_are_downstream_coefficient_sums():
    # the absolute coefficient sums feed the oscillatory-tail estimates
    assert [t.norm() for t in product_expansion("J000").terms] == [1, 6, 66, 1124, 26838, 840564]
    assert [t.norm() for t in product_expansion("J110").terms] == [1, 14, 102, 804, 21978, 703620]


def test_bad_names_rejected():
    with pytest.raises(ValueError):
        base_expansion("J2")
    with pytest.raises(ValueError):
        product_expansion("J001")


@given(st.integers(0, 40), st.floats(-10.0, 10.0))
def test_carrier_is_the_shifted_cosine(nu, w):
    c, s = math.cos(w), math.sin(w)
    assert abs(evaluate(_carrier(nu), c, s, 0.0) - math.cos(w - nu * math.pi / 2)) <= 1e-12


@settings(max_examples=200)
@given(
    st.integers(0, 8).flatmap(lambda i: st.tuples(st.just(i), st.integers(0, 8 - i))),
    st.integers(0, 5),
    st.floats(-10.0, 10.0),
)
def test_fourier_rule_matches_float_evaluation(ij, k, w):
    i, j = ij
    harmonics = _fourier(TrigPoly.from_dict({(i, j, k): 1}))
    assert all(list(by_power) == [k] for by_power in harmonics.values())  # t-grading kept
    trig = {"cos": math.cos, "sin": math.sin}
    total = sum(float(q[k]) * trig[kind](h * w) for (kind, h), q in harmonics.items())
    assert abs(total - math.cos(w) ** i * math.sin(w) ** j) <= 1e-12


def test_expansion_shape_validation():
    good = base_expansion("J0")
    with pytest.raises(ValueError):
        RemainderedExpansion(good.terms[:5], good.remainders)
    with pytest.raises(ValueError):
        RemainderedExpansion(good.terms, good.remainders[:6])
    with pytest.raises(ValueError):
        RemainderedExpansion(good.terms, good.remainders[:6] + (F(-1),))
    shuffled = (good.terms[1],) + good.terms[1:]
    with pytest.raises(ValueError):
        RemainderedExpansion(shuffled, good.remainders)


# ---------------------------------------------------------------------------
# product rule
# ---------------------------------------------------------------------------


def test_identity_law():
    # the multiplicative unit: terms (1, 0, ..., 0), remainders (1, 0, ..., 0)
    terms = (TrigPoly.from_dict({(0, 0, 0): 1}),) + (TrigPoly(()),) * 5
    one = RemainderedExpansion(terms, (F(1),) + (F(0),) * 6)
    for name in ("J0", "J1"):
        e = base_expansion(name)
        assert multiply(e, one) == e
        assert multiply(one, e) == e


def test_terms_associate():
    # term arrays associate; the remainder bookkeeping is fixed by the
    # left-nested order used in product_expansion
    j0, j1 = base_expansion("J0"), base_expansion("J1")
    left = multiply(multiply(j1, j1), j0)
    right = multiply(j1, multiply(j1, j0))
    assert left.terms == right.terms


def test_product_remainder_recurrence_spot():
    # remainder_2 of J0*J0: r0*s2 + r1*||b1|| + r2*||b0||
    assert F(9, 8) * 18 + 2 * 2 + 18 * 1 == F(169, 4)
    # remainder_0 multiplies the uniform bounds
    assert multiply(base_expansion("J0"), base_expansion("J0")).remainders[0] == F(81, 64)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_K0_is_pure_bound():
    v = eval_expansion(base_expansion("J0"), 3.0, 0)
    assert v.mid == 0.0 and v.rad == float(F(9, 8))
    v3 = eval_expansion(product_expansion("J000"), 7.5, 0)
    assert v3.rad == float(F(729, 512))


def test_eval_domain_errors():
    e = base_expansion("J0")
    for r, K in [(0.0, 3), (-2.0, 3), (5.0, 7), (5.0, -1)]:
        with pytest.raises(ValueError):
            eval_expansion(e, r, K)


def test_eval_tracks_bessel_products():
    """Float sweep: |product of J's - partial sum| <= truncation radius plus
    a float-noise allowance for the evaluator's ~1e-14 per-factor error
    (scaled up by sqrt(pi r / 2) per factor)."""
    targets = {
        "J000": lambda r: (math.pi * r / 2) ** 1.5 * bessel_j(0, r) ** 3,
        "J110": lambda r: (math.pi * r / 2) ** 1.5 * bessel_j(1, r) ** 2 * bessel_j(0, r),
    }
    rs = [1.0 * 1.27**i for i in range(39)] + [2.4048, 500.0, 9999.0]
    for tag, target in targets.items():
        e = product_expansion(tag)
        for r in rs:
            truth = target(r)
            for K in range(7):
                v = eval_expansion(e, r, K)
                slack = 1e-12 * math.sqrt(1.0 + r)
                assert abs(v.mid - truth) <= v.rad + slack, (tag, r, K)


@pytest.mark.parametrize("tag", ["J000", "J110"])
def test_containment_rigorous_spot(tag):
    """Exact interval verification of the truncation bound at spot radii
    covering both oracle routes: the partial-sum enclosure and the triple
    product are compared as rationals, no float tolerance anywhere."""
    e = product_expansion(tag)
    radii = [F(1), F(3, 2), F(20), F(149), F(1000), F(29997, 3)]
    for rf in radii:
        s0 = hiprec.scaled_bessel_encl(0, rf)
        if tag == "J000":
            target = hiprec.iv_mul(hiprec.iv_mul(s0, s0), s0)
        else:
            s1 = hiprec.scaled_bessel_encl(1, rf)
            target = hiprec.iv_mul(hiprec.iv_mul(s1, s1), s0)
        c_iv, s_iv = hiprec.expansion_trig_pair(rf)
        t = 1 / (16 * rf)
        for K in range(7):
            coeffs = [pair for k in range(K) for pair in e.terms[k].coeffs]
            partial = hiprec.trigpoly_encl(coeffs, c_iv, s_iv, t)
            gap = hiprec.iv_abs_hi(hiprec.iv_sub(target, partial))
            assert gap <= e.remainders[K] * (16 * rf) ** -K, (tag, rf, K)


# ---------------------------------------------------------------------------
# the integrated sixth-remainder estimate
# ---------------------------------------------------------------------------


def test_estimate_A_constants():
    rec0 = estimate_A_recomputed("I0")
    rec1 = estimate_A_recomputed("I1")
    assert F(7, 10) < rec0 <= F(74, 100)
    assert F(105, 100) < rec1 <= F(112, 100)


def test_estimate_A_values():
    assert estimate_A(0, 20, "I0") == 0.74 / math.sqrt(20.0) * 20.0**-6.0
    assert estimate_A(4, 25, "I1") == 1.12 / math.sqrt(20.0) * 29.0**-6.0


def test_estimate_A_domain():
    with pytest.raises(ValueError):
        estimate_A(0, 19, "I0")
    with pytest.raises(ValueError):
        estimate_A(-2, 30, "I0")
    with pytest.raises(ValueError, match="even"):
        estimate_A(3, 25, "I0")
    with pytest.raises(ValueError):
        estimate_A(0, 30, "I2")


@settings(max_examples=30)
@given(st.integers(0, 20).map(lambda k: 2 * k), st.integers(20, 200), st.sampled_from(["I0", "I1"]))
def test_estimate_A_monotone(m, n, variant):
    assume(m + 2 <= n)  # estimate_A refuses m > n
    assert estimate_A(m, n + 1, variant) < estimate_A(m, n, variant)
    assert estimate_A(m + 2, n, variant) < estimate_A(m, n, variant)
