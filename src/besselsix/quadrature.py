"""Rigorously bounded quadrature of the two Bessel-product integrals.

The integrals

    I0(m, n) = integral_0^inf J_{n+m} J_n J_m J_0^3 r dr
    I1(m, n) = integral_0^inf J_{n+m} J_n J_m J_1^2 J_0 r dr

are evaluated for small orders by splitting at the paper's two radii
S = 3600 and R = 63000, with one of two rules on the grid regions.  Each
region is built once, as a member of ``QuadratureScheme``, and carries its
rule's node count (``size()``), the nodes and weights of any index range
(``chunk(lo, hi)``, generated from the integer indices) and its certified
error (``error()``):

* ``[0, S]`` and ``[S, R]``, by default: width-30 Gauss-Legendre panels, 76
  points each below S and 66 above it, with nodes ``a + h(2p+1) + h x_i``
  (h = 15, p the integer panel index).  The nodes and weights come from
  Newton's iteration on the Legendre three-term recurrence, with no linear
  algebra; whatever their accuracy, the floats are certified at first use,
  in exact integer arithmetic, by the error they make on every Chebyshev
  polynomial T_k with k < 2n.  The region error is then at most
  ``h * sum_k |a_k| |I(T_k) - Q(T_k)|`` per panel (Trefethen,
  *Approximation Theory and Approximation Practice*, ch. 19), with the
  Chebyshev coefficients a_k bounded on the real panel and on a Bernstein
  ellipse: there |J_k(z)| <= e^|Im z| below S and a Hankel envelope (DLMF
  10.17.14) above it.  The rounding of the node positions is charged
  through a derivative bound.  The per-panel bounds are formed in fixed
  blocks of panels and summed once.

* ``[0, S]`` and ``[S, R]``, under ``PAPER_SCHEME``: the paper's composite
  7-point closed Newton-Cotes rule (weights (41, 216, 27, 272, 27, 216,
  41)/140, exact through degree 7) with node spacings w = 0.003 and 0.05.
  The composite error over an interval of length L is bounded by
  ``L * w^8 * (6^3/5) * M8 / 8!`` where ``M8`` is a certified sup-bound on
  the eighth derivative of the integrand over the region, obtained from
  Cauchy's integral formula on unit circles; ``M8`` grows only linearly in
  the region's right endpoint, uniformly over both integrand families.

* ``[R, inf)``: after replacing every Bessel factor by its leading asymptotic
  term, the product of the six carriers cos(omega - nu pi/2) is a profile in
  ``omega = r - pi/4``, derived exactly at first use for the family and the
  parity of n.  The profile's mean integrates in closed form; each
  oscillatory harmonic is integrated by parts twice, leaving boundary terms
  we evaluate and a remainder we enclose.
  The discarded cross terms (main terms times asymptotic errors) are charged
  to an explicit four-piece budget valid throughout the tabulated order range.

Every ``integral`` budget must meet the paper's radius 0.9e-8, which the
table adds to every cell; ``build_table`` first checks, once per scheme,
that each cell's quadrature plus printed tail value meets it too.

The grid sums read per-order value rows over each region, evaluated by the
multi-order kernel ``_bessel_rows``, and one weighted row per family: the
rule weight times r times the family's three fixed factors (J_0^3, or
J_1^2 J_0) at every node, so a cell's rule terms are J_{n+m} J_n J_m times
that row.  Every grid is cut into fixed ``_CHUNK``-node granules (4096
nodes, 32 KiB a row), and ``_region_sums`` forms the terms and sums them
pairwise one granule at a time, for every source of rows alike: each cell
adds its granules' sums to partials that ``math.fsum`` combines, so a cell
has the same bits in ``integral``, ``build_table`` and the command line.
The cells of one (m, n) share the product (J_{n+m} J_n) J_m.  ``integral``
reads rows and weighted rows memoized for the scheme in use (asking for
another scheme frees the last one's), in spans of ``_SPAN`` granules, so a
warm cell generates no nodes, weights or fixed products.  ``build_table``
and the one-shot ``integrate`` and ``check-theorem`` commands keep no row
(``_streamed_sums``): each region streams through the kernel one granule
at a time, the band's union of orders in one call per granule (J0, J1 and
the forward recurrence once) into one reused block, and the kernel works
in place in a few granule-length arrays.  The paper's full table thus runs
in a few MB where its rows alone would take 0.73 GB, and no array grows
with a region's node count.  ``integrand`` forms its values by the same
product, with weight 1.  All grid evaluation is deterministic: nodes are
generated from integer indices, and per-node values depend only on the
node and the order (never on the granule or on the other orders evaluated
with it); a granule that one kernel route serves is written straight into
its rows' block.  Nodes are evaluated on one thread.  The module's only
BLAS calls are small matrix-vector products in each Gauss region's
certificate, one per block of ``_ERROR_BLOCK`` panels; they leave the BLAS
thread count to the host process (the ``besselsix`` command asks for one
thread before numpy loads, a library user's setting is never touched).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache, lru_cache, reduce

import numpy as np

from .bessel import MAX_ORDER, _bessel_rows, _check_r, phase
from .certify import NORMALIZATION
from .core_integrals import main_term
from .exactnum import (
    _FIXED_ORDERS,
    _TABLE_ROWS,
    Budget,
    CertifiedValue,
    _table_rows,
    as_even_order,
    as_order,
    check_m_le_n,
    check_variant,
    require,
)
from .expansions import TrigPoly, _carrier, _fourier

__all__ = [
    "QuadratureScheme",
    "DEFAULT_SCHEME",
    "PAPER_SCHEME",
    "TableEntry",
    "deriv8_bound",
    "integrand",
    "tail_main",
    "tail_error_budget",
    "error_budget",
    "integral",
    "build_table",
]

# The granule of every grid: nodes are evaluated, and each cell's terms
# summed pairwise, one _CHUNK-node granule at a time.  At 32 KiB a row the
# kernel's work arrays stay below glibc's 128 KiB mmap threshold, so they
# are reused heap blocks, not fresh pages.  ``integral`` reads its kept rows
# in spans of _SPAN granules, 256 KiB a row, which keeps a warm cell's
# calls few and its products in cache.
_CHUNK = 4096
_SPAN = 8

# The paper's split radii: the grid regions [0, S] and [S, R], the tail past R.
_S = 3600.0
_R = 63000.0

# The seven exact Newton-Cotes weights; their sum is 6, one panel width.
_NC7_WEIGHTS = tuple(Fraction(c, 140) for c in (41, 216, 27, 272, 27, 216, 41))

# The half-width h of every Gauss-Legendre panel.
_GAUSS_HALF = 15.0

# Panels per block of a Gauss region's certificate: its coefficient matrix
# is one block by 2n moments.
_ERROR_BLOCK = 128

# The largest n + m any certified cell reaches: the order range of the tail
# constants, which every ``integral`` budget charges.
_MAX_CELL_ORDER = 37

# The paper's radius, which the table adds to every cell and every budget
# must meet.
_RADIUS_TARGET = 0.9e-8

# The printed bound on the Hankel envelope's six order corrections at S.
_ENVELOPE_PRINTED = 3.0


def _panel_count(a: float, b: float, w: float) -> int:
    """Number of width-``6w`` panels tiling [a, b]; errors unless exact."""
    if not (math.isfinite(w) and w > 0):
        raise ValueError(f"node spacing must be positive and finite, got {w}")
    if not (math.isfinite(a) and math.isfinite(b) and b > a):
        raise ValueError(f"need a finite interval with b > a, got [{a}, {b}]")
    steps = (b - a) / (6.0 * w)
    panels = round(steps)
    if panels < 1 or abs(steps - panels) > 1e-9 * max(1.0, steps):
        raise ValueError(
            f"[{a}, {b}] is not an integer number of width-{6 * w:g} panels"
        )
    return panels


@dataclass(frozen=True)
class _NC7Region:
    """[a, b] tiled by chained 7-point Newton-Cotes panels of node spacing w."""

    a: float
    b: float
    w: float

    def __post_init__(self) -> None:
        _panel_count(self.a, self.b, self.w)

    def size(self) -> int:
        """The number of nodes: six per panel and one more."""
        return 6 * _panel_count(self.a, self.b, self.w) + 1

    def chunk(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """The nodes a + w i and the rule's weights for the indices i in
        [lo, min(hi, size)): w times 41, 216, 27, 272, 27, 216, 41 over 140
        per panel, with 82 where two panels share a node, so node i weighs
        the (i mod 6)-th of w (82, 216, 27, 272, 27, 216)/140 but for the
        two ends; each weight the float nearest its exact value."""
        size = self.size()
        hi = min(hi, size)
        w = Fraction(self.w)
        ends = w * _NC7_WEIGHTS[0]
        pattern = np.array([float(2 * ends), *(float(w * c) for c in _NC7_WEIGHTS[1:6])])
        weights = np.tile(pattern, (hi - lo) // 6 + 2)[lo % 6:lo % 6 + hi - lo]
        if lo == 0:
            weights[0] = float(ends)
        if lo < hi == size:
            weights[-1] = float(ends)
        return self.a + self.w * np.arange(lo, hi), weights

    def error(self) -> float:
        """Certified bound on |integral - rule| over the region, for every
        cell: the composite law ``L * w^8 * (6^3/5) * M8 / 8!`` with L the
        region's length and M8 its ``deriv8_bound``."""
        return (self.b - self.a) * self.w**8 * (216.0 / 5.0) * deriv8_bound(self) / math.factorial(8)


@dataclass(frozen=True)
class _GaussRegion:
    """[a, b] tiled by width-30 panels of ``points`` Gauss-Legendre nodes;
    ``rho`` is the Bernstein-ellipse parameter of the region's error bound."""

    a: float
    b: float
    points: int
    rho: float

    def __post_init__(self) -> None:
        self.panels()

    def panels(self) -> int:
        # a width-30 panel is six node spacings of 5
        return _panel_count(self.a, self.b, 2.0 * _GAUSS_HALF / 6.0)

    def centers(self, p: np.ndarray) -> np.ndarray:
        """The exact centers a + h(2p + 1) of the panels of integer index p,
        integer a."""
        return self.a + _GAUSS_HALF * (2.0 * p + 1.0)

    def size(self) -> int:
        """The number of nodes: ``points`` per panel."""
        return self.panels() * self.points

    def chunk(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """The nodes c + h x_j and the weights h w_j of the indices i in
        [lo, min(hi, size)), with (p, j) = divmod(i, points), c the center
        of panel p and (x_j, w_j) the stored rule."""
        rule = _gauss_rule(self.points)
        i = np.arange(lo, min(hi, self.size()))
        p = i // self.points
        j = i - p * self.points
        return self.centers(p) + (_GAUSS_HALF * rule.nodes)[j], (_GAUSS_HALF * rule.weights)[j]

    @cache
    def error(self) -> float:
        """Certified bound on |integral - rule| over the region, for every
        cell; computed once per region, ``_ERROR_BLOCK`` panels at a time.

        Per panel of center c, the Chebyshev coefficients of f(c + h t) obey
        |a_k| <= min(2 s, 2 M rho^-k), with s a bound on |f| over the real
        panel and M one over the Bernstein ellipse E_rho: |f(z)| <= |z|
        e^(6 |Im z|) for the region at the origin, and the Hankel envelope of
        ``_envelope_factor`` for a region past it.  The panel error is then
        h sum_k |a_k| |I(T_k) - Q(T_k)|: certified moment errors for k < 2n,
        and sum |w| + |I(T_k)| for the rest, a geometric tail.  Each stored
        node c + h x_i is off its exact position by at most 2^-53 (h +
        |node|), which |f'(x)| <= (1 + 6x) min(1, _LANDAU6/x^2) (from
        |J_k'| <= max |J_{k+-1}|) charges.  Each panel's float depends on
        its center alone, so the blocks change no bit of the sum.
        """
        rule = _gauss_rule(self.points)
        n, rho, h = self.points, self.rho, _GAUSS_HALF
        semi, height = h * (rho + 1.0 / rho) / 2.0, h * (rho - 1.0 / rho) / 2.0
        decay = rho ** -np.arange(2 * n)
        panels = np.empty(self.panels())
        for lo in range(0, panels.shape[0], _ERROR_BLOCK):
            c = self.centers(np.arange(lo, min(lo + _ERROR_BLOCK, panels.shape[0])))
            zmax = c + semi + height
            if self.a > 0:
                xmin = c - semi
                require(xmin[0] > 0, "the Hankel envelope needs every ellipse inside Re z > 0")
                bound = zmax * (2.0 / (math.pi * xmin)) ** 3 * math.cosh(height) ** 6 * _envelope_factor(xmin, height)
            else:
                bound = zmax * math.exp(6.0 * height)
            coeffs = np.minimum(2.0 * _real_sup(c - h, c + h)[:, None], 2.0 * bound[:, None] * decay)
            tail = 2.0 * bound * (rule.abs_weights + 2.0 / (4 * n * n - 1)) * rho ** (-2 * n) / (1.0 - 1.0 / rho)
            x1 = np.maximum(c - h - 1.0, math.sqrt(_LANDAU6))
            slope = (1.0 + 6.0 * x1) * np.minimum(1.0, _LANDAU6 / x1**2)
            nodes = rule.abs_weights * 2.0**-52 * (c + 2.0 * h) * slope
            panels[lo:lo + c.shape[0]] = coeffs @ rule.moment_errors + tail + nodes
        return _PAD * h * float(np.sum(panels))


class QuadratureScheme(Enum):
    """The rule on the grid regions [0, S] and [S, R], each member's value
    its two regions: ``GAUSS``, certified Gauss-Legendre panels of 76 and 66
    points (the default), or ``PAPER``, the paper's composite Newton-Cotes
    rule with node spacings 0.003 and 0.05."""

    GAUSS = (_GaussRegion(0.0, _S, 76, 3.0), _GaussRegion(_S, _R, 66, 2.0))
    PAPER = (_NC7Region(0.0, _S, 0.003), _NC7Region(_S, _R, 0.05))


DEFAULT_SCHEME = QuadratureScheme.GAUSS
PAPER_SCHEME = QuadratureScheme.PAPER


def _regions(scheme: QuadratureScheme) -> tuple:
    """The grid regions [0, S] and [S, R] of a scheme."""
    if not isinstance(scheme, QuadratureScheme):
        raise ValueError(f"scheme must be DEFAULT_SCHEME or PAPER_SCHEME, got {scheme!r}")
    return scheme.value


@dataclass(frozen=True)
class TableEntry:
    """One (n, m) cell of the verification table.

    ``top`` and ``bottom`` are the two normalized deviation bounds
    ``(|main - tail - quadrature| + 0.9e-8) * 100 n^4`` for the first and
    second integral family respectively.
    """

    n: int
    m: int
    top: float
    bottom: float

    def __post_init__(self) -> None:
        if self.top < 0 or self.bottom < 0:
            raise ValueError("table entries are nonnegative by construction")


def _parity(n: int) -> str:
    return "even" if n % 2 == 0 else "odd"


# ---------------------------------------------------------------------------
# The Gauss-Legendre panels and their certificate
# ---------------------------------------------------------------------------

# Fraction bits of the certificate's fixed-point arithmetic.
_FIXED_BITS = 96

# A stored n-point rule must integrate T_0 .. T_{2n-1} to within this much in
# total; the float Gauss-Legendre rules in use miss by about 5e-14.
_RULE_MOMENT_CEILING = Fraction(1, 10**12)

# |J_nu(x)| <= 0.7858 x^(-1/3) for real x > 0 and nu >= 0 (L. J. Landau,
# J. London Math. Soc. 61 (2000): c = 0.78574...), and |J_k(x)| <= 1, so on
# the real axis the integrand is at most min(x, _LANDAU6 / x).
_LANDAU6 = 0.7858**6

# Relative pad on bounds summed in floating point: a few hundred rounded
# operations on positive terms err by far less.
_PAD = 1.0 + 1e-12


@dataclass(frozen=True)
class _Rule:
    """A stored rule on [-1, 1] and its certificate: ``moment_errors[k]``
    bounds |I(T_k) - Q(T_k)| for k < 2n and ``abs_weights`` bounds sum |w_i|."""

    nodes: np.ndarray
    weights: np.ndarray
    moment_errors: np.ndarray
    abs_weights: float


@lru_cache(maxsize=None)
def _gauss_rule(points: int) -> _Rule:
    """The float ``points``-point Gauss-Legendre rule of ``_legendre_rule``,
    certified once per process, at first use."""
    return _certify_rule(*_legendre_rule(points))


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x), by the three-term recurrence, and
    P_n'(x) = n (x P_n - P_{n-1})/(x^2 - 1), elementwise for |x| < 1."""
    before, p = np.ones_like(x), x
    for k in range(1, n):
        before, p = p, ((2 * k + 1) * x * p - k * before) / (k + 1)
    return p, n * (x * p - before) / (x * x - 1.0)


def _legendre_rule(points: int) -> tuple[np.ndarray, np.ndarray]:
    """The float ``points``-point Gauss-Legendre nodes, ascending, and weights.

    Newton's iteration on P_n runs over the nonnegative nodes only, from
    Tricomi's guesses (1 - (n - 1)/(8 n^3)) cos(pi (4k - 1)/(4n + 2)); from
    there it converges in four steps for every n in use, and it stops once
    a step falls below 1e-15, after which the next would be rounding noise.
    The weights are 2/((1 - x^2) P_n'^2).  The negative half is the exact
    mirror image, and for odd n the centre node is exactly 0, where the
    recurrence gives P_n = 0 exactly.  No linear algebra: the floats are
    certified by ``_certify_rule`` whatever their accuracy.
    """
    n = points
    k = np.arange((n + 1) // 2, 0, -1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    if n % 2:
        x[0] = 0.0
    for _ in range(8):
        p, slope = _legendre(n, x)
        step = p / slope
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    slope = _legendre(n, x)[1]
    w = 2.0 / ((1.0 - x * x) * slope * slope)
    # the positive nodes, mirrored, then the nonnegative ones
    return np.concatenate([-x[n % 2:][::-1], x]), np.concatenate([w[n % 2:][::-1], w])


def _up(q: Fraction) -> float:
    """The least float >= q."""
    v = float(q)
    return v if Fraction(v) >= q else math.nextafter(v, math.inf)


def _fixed(v: float) -> int:
    """v * 2^_FIXED_BITS as an exact integer."""
    num, den = float(v).as_integer_ratio()
    require((1 << _FIXED_BITS) % den == 0, f"stored value {v!r} has more than {_FIXED_BITS} fraction bits")
    return num * ((1 << _FIXED_BITS) // den)


def _certify_rule(x, w) -> _Rule:
    """Certify a stored rule by its exact error on T_0 .. T_{2n-1}.

    The stored floats are dyadic, so the rule's error on each T_k is a
    property of the floats themselves, whatever they approximate.  The rule
    must be exactly symmetric, so it integrates every odd T_k exactly.  For
    even k, T_k at the nodes runs by T_{k+1} = 2x T_k - T_{k-1} in integers
    scaled by 2^96, each product floored; the floors propagate through the
    Chebyshev polynomials of the second kind, |U_j| <= j + 1 on [-1, 1], so
    T_k is off by less than k(k - 1)/2 units.
    """
    x = np.array(x, dtype=np.float64)
    w = np.array(w, dtype=np.float64)
    n = x.shape[0]
    require(n >= 2 and w.shape == (n,), "a stored rule needs n >= 2 nodes and one weight per node")
    require(
        -1.0 < x[0] and x[-1] < 1.0 and bool(np.all(np.diff(x) > 0)),
        "stored nodes must increase strictly inside (-1, 1)",
    )
    require(np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1]), "stored rule is not exactly symmetric")
    one = 1 << _FIXED_BITS
    # the nodes x >= 0, each weighted for itself and its mirror image
    X = np.array([_fixed(v) for v in x[n // 2:]], dtype=object)
    W = np.array([_fixed(b) * (1 if a == 0 else 2) for a, b in zip(x[n // 2:], w[n // 2:])], dtype=object)
    abs_w = sum(abs(v) for v in W)
    errors = [abs(2 - Fraction(int(W.sum()), one)), Fraction(0)]
    before, t = np.full(X.shape, one, dtype=object), X
    for k in range(2, 2 * n):
        before, t = t, ((2 * X * t) >> _FIXED_BITS) - before
        if k % 2:
            errors.append(Fraction(0))
            continue
        quad = Fraction(int(np.dot(W, t)), one * one)
        errors.append(abs(Fraction(2, 1 - k * k) - quad) + Fraction(abs_w * (k * (k - 1) // 2), one * one))
    total = sum(errors)
    require(
        total <= _RULE_MOMENT_CEILING,
        f"stored {n}-point rule misses T_0..T_{2 * n - 1} by {float(total):.3g} in total, "
        f"above {float(_RULE_MOMENT_CEILING):g}",
    )
    x.setflags(write=False)
    w.setflags(write=False)
    return _Rule(x, w, np.array([_up(e) for e in errors]), _up(Fraction(abs_w, one)))


def _envelope_factor(x, y):
    """Bound on the product of the six order corrections of the Hankel
    envelope, over every cell ``integral`` certifies.

    For real nu, Re z >= x > 0 and |Im z| <= y,

        |J_nu(z)| <= sqrt(2/(pi |z|)) cosh(y) (1 + mu e^mu),
        mu = |nu^2 - 1/4| (x + y) / x^2.

    By conjugation take Im z >= 0.  With one term, DLMF 10.17.14 bounds the
    remainders of H^(1) and H^(2) by mu e^mu, where mu / |nu^2 - 1/4| is the
    variation of t^-1 along a path from z to +i inf (resp. -i inf) on which
    Im t is monotone.  The ray through z, closed at infinity, gives 1/|z|
    for H^(1); the path straight down to Re z, out along the real axis and
    closed at infinity gives at most y/x^2 + 1/x for H^(2).  Both factors
    grow with nu, so over the cells (orders n + m, n, m and the family's
    fixed orders; even m <= n; n + m <= _MAX_CELL_ORDER) the product peaks
    at n + m = _MAX_CELL_ORDER.  Elementwise in x; rounded outward.
    """
    x = np.asarray(x, dtype=np.float64)
    nu = np.arange(_MAX_CELL_ORDER + 1.0)
    mu = np.multiply.outer(np.abs(nu**2 - 0.25), (x + y) / x**2)
    g = 1.0 + mu * np.exp(mu)
    top = _MAX_CELL_ORDER
    pair = np.max([g[top - m] * g[m] for m in range(0, top // 2 + 1, 2)], axis=0)
    fixed = np.max([math.prod(g[k] for k in orders) for orders in _FIXED_ORDERS.values()], axis=0)
    return _PAD * g[top] * pair * fixed


def _real_sup(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Bound on |f| over each real interval [lo, hi] from min(x, _LANDAU6/x)."""
    peak = math.sqrt(_LANDAU6)
    return np.where(hi <= peak, hi, np.where(lo >= peak, _LANDAU6 / np.maximum(lo, peak), peak))


# ---------------------------------------------------------------------------
# The derivative bound of the NC7 rule
# ---------------------------------------------------------------------------


def deriv8_bound(region: _NC7Region) -> float:
    """Certified sup-bound for the eighth derivative of either integrand
    over a region [a, b] with a = 0 or a > 1.

    Both families are entire, so Cauchy's formula on the unit circle about r
    bounds f^(8)(r) by 8! times the sup of |f| on the circle.  At the origin
    the trivial bound |J_nu(z)| <= e^|Im z| gives ``8! e^6 (b+1)``; past it
    the circle lies in Re z >= a - 1, |Im z| <= 1, where the Hankel envelope
    sqrt(2/(pi|z|)) cosh(1) of each of the six factors applies with the
    order corrections of ``_envelope_factor``.  Their product is 2.42 at
    a = S = 3600, checked below the printed budget's factor 3, which gives
    ``3 * 8! * (2/(pi(a-1)))^3 cosh(1)^6 (b+1)``.
    """
    if region.a == 0:
        return math.factorial(8) * math.e**6 * (region.b + 1.0)
    x = region.a - 1.0
    derived = float(_envelope_factor(x, 1.0))
    require(
        derived <= _ENVELOPE_PRINTED,
        f"the envelope's order corrections reach {derived:g}, above the printed {_ENVELOPE_PRINTED:g}",
    )
    return _ENVELOPE_PRINTED * math.factorial(8) * (2.0 / (math.pi * x)) ** 3 * math.cosh(1.0) ** 6 * (region.b + 1.0)


# ---------------------------------------------------------------------------
# The integrands
# ---------------------------------------------------------------------------


def integrand(variant: str, m: int, n: int):
    """The function r -> J_{n+m} J_n J_m J_0^3 r (or J_1^2 J_0 for I1).

    The returned callable accepts a float or a float ndarray and evaluates
    both through the multi-order kernel behind ``bessel_j``, so a scalar
    call returns exactly the element an array call would.
    """
    check_variant(variant)
    m, n = as_order(m), as_order(n)
    if n + m > MAX_ORDER:
        raise ValueError(f"order n + m must not exceed {MAX_ORDER}, got {n + m}")

    orders = sorted(set(_cell_orders(variant, m, n)))

    def f(r):
        r = _check_r(r)
        nodes = r.ravel()
        rows = dict(zip(orders, _bessel_rows(orders, nodes)))
        return _grid_composite(m, n, rows, [_fixed_row(variant, rows, 1.0, nodes)])[0].reshape(r.shape)[()]

    return f


def _cell_orders(variant: str, m: int, n: int) -> tuple[int, ...]:
    """The six Bessel orders of the cell's integrand, in product order."""
    return (n + m, n, m, *_FIXED_ORDERS[variant])


class _SchemeRows(dict):
    """Value rows keyed by (order, region), and in ``weighted`` the weighted
    rows keyed by (family, region)."""

    def __init__(self) -> None:
        super().__init__()
        self.weighted: dict = {}


@lru_cache(maxsize=1)
def _scheme_rows(scheme: QuadratureScheme) -> _SchemeRows:
    """The value rows and weighted rows ``integral`` has evaluated so far
    under ``scheme``; ``build_table`` and the one-shot commands add none.
    One scheme at a time: asking for another frees both.  A cell reads at
    most five rows per region: 1.1 MB per row over both default Gauss
    regions and 19 MB over the paper's NC7 grids, with one weighted row of
    each size per family."""
    return _SchemeRows()


def _order_rows(orders, region, memo: dict) -> dict[int, np.ndarray]:
    """The rows of ``orders`` over the nodes of ``region``, read from and
    added to ``memo``.  Missing orders are evaluated together in one pass,
    into one frozen block whose rows are views, one ``_CHUNK``-node granule
    at a time; no node is generated if none is missing."""
    missing = sorted({k for k in orders if (k, region) not in memo})
    if missing:
        block = np.empty((len(missing), region.size()))
        for lo in range(0, block.shape[1], _CHUNK):
            _bessel_rows(missing, region.chunk(lo, lo + _CHUNK)[0], block[:, lo:lo + _CHUNK])
        block.setflags(write=False)
        memo.update(((k, region), row) for k, row in zip(missing, block))
    return {k: memo[k, region] for k in orders}


def _fixed_row(variant: str, rows: dict, weights, nodes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """w_i r_i J_0^3 (or w_i r_i J_1^2 J_0 for I1) at every node r_i, in
    ``out`` or one new buffer: the weights times the nodes, then times each
    fixed row in order.  The grid sums pass the rule weights, ``integrand``
    the weight 1."""
    row = np.multiply(weights, nodes, out=out)
    for k in _FIXED_ORDERS[variant]:
        row *= rows[k]
    return row


def _weighted_row(variant: str, region, rows: dict, weighted: dict) -> np.ndarray:
    """The ``_fixed_row`` of ``region``'s rule weights and nodes, built one
    ``_CHUNK``-node granule at a time, frozen and kept in ``weighted``."""
    key = (variant, region)
    if key not in weighted:
        row = np.empty(region.size())
        for lo in range(0, row.shape[0], _CHUNK):
            nodes, weights = region.chunk(lo, lo + _CHUNK)
            fixed = {k: rows[k][lo:lo + _CHUNK] for k in _FIXED_ORDERS[variant]}
            _fixed_row(variant, fixed, weights, nodes, row[lo:lo + _CHUNK])
        row.setflags(write=False)
        weighted[key] = row
    return weighted[key]


def _grid_composite(m: int, n: int, rows: dict, fixed, out: np.ndarray | None = None) -> np.ndarray:
    """J_{n+m} J_n J_m times each of the ``fixed`` rows (``_fixed_row``s over
    the same nodes), one row of ``out`` (or of a new array) each: a cell's
    rule terms over a piece of a region, one row per family, or its
    integrand values.  The product (J_{n+m} J_n) J_m is formed once, in the
    last row, and multiplied left to right into each, so both families
    share it with one multiply order.  A rule term carries eight rounded
    multiplications (five into the weighted row, three here), which the
    budget's ``rounding`` allowance covers."""
    out = np.empty((len(fixed), rows[n].shape[0])) if out is None else out
    pair = out[-1]
    np.multiply(rows[n + m], rows[n], out=pair)
    pair *= rows[m]
    for values, row in zip(out[:-1], fixed):
        np.multiply(pair, row, out=values)
    pair *= fixed[-1]
    return out


def _granule_sums(terms: np.ndarray) -> np.ndarray:
    """The pairwise sum of each row of ``terms`` over each ``_CHUNK``-node
    granule, the last one possibly shorter, as one row of granule sums per
    row.  A granule's sum is the 1-d ``np.sum`` of its terms, however many
    granules the piece spans: numpy sums the contiguous last axis pairwise,
    row by row."""
    size = terms.shape[1]
    if size <= _CHUNK:
        return np.add.reduce(terms, axis=1, keepdims=True)
    full = size - size % _CHUNK
    sums = np.add.reduce(terms[:, :full].reshape(terms.shape[0], -1, _CHUNK), axis=2)
    if full == size:
        return sums
    return np.concatenate([sums, np.add.reduce(terms[:, full:], axis=1, keepdims=True)], axis=1)


def _region_sums(cells, pieces) -> list[float]:
    """The rule values of the (variant, m, n) ``cells`` over one region, from
    ``pieces`` that cover its nodes in order, each starting on a ``_CHUNK``
    granule: (value rows, weighted row per family) pairs over the same
    nodes.  A cell's value is the ``fsum`` of its terms' pairwise sums per
    granule (``_granule_sums``), the one summation rule of every grid sum,
    so it depends only on the terms, never on whether the rows were kept or
    streamed.  The cells of one (m, n) share their ``_grid_composite``."""
    pairs: dict[tuple[int, int], list[int]] = {}
    for i, (_, m, n) in enumerate(cells):
        pairs.setdefault((m, n), []).append(i)
    partials = [[] for _ in cells]
    buffer = np.empty((0, 0))
    for rows, weighted in pieces:
        size = next(iter(weighted.values())).shape[0]
        if buffer.shape[1] < size:
            buffer = np.empty((max(map(len, pairs.values())), size))
        for (m, n), members in pairs.items():
            fixed = [weighted[cells[i][0]] for i in members]
            terms = _grid_composite(m, n, rows, fixed, buffer[:len(members), :size])
            for i, sums in zip(members, _granule_sums(terms).tolist()):
                partials[i] += sums
    return [math.fsum(part) for part in partials]


def _band_orders(cells) -> list[int]:
    """The union of the cells' orders, fixed orders included, ascending."""
    return sorted(set().union(*(_cell_orders(*cell) for cell in cells)))


def _cached_pieces(cells, region, memo: _SchemeRows):
    """The cells' rows and weighted rows, read from and added to ``memo`` in
    one row lookup, then yielded as views of one span of ``_SPAN`` granules
    at a time."""
    rows = _order_rows(_band_orders(cells), region, memo)
    weighted = {variant: _weighted_row(variant, region, rows, memo.weighted) for variant, _, _ in cells}
    for lo in range(0, region.size(), _SPAN * _CHUNK):
        piece = slice(lo, lo + _SPAN * _CHUNK)
        yield {k: row[piece] for k, row in rows.items()}, {v: row[piece] for v, row in weighted.items()}


def _streamed_pieces(cells, region):
    """The cells' rows and weighted rows one ``_CHUNK``-node granule of the
    region at a time, kept nowhere: each granule's nodes and weights are
    generated from their indices, and the band's union of orders is
    evaluated in one kernel call per granule, into one reused block, as are
    the weighted rows, so the next granule overwrites the rows of the last."""
    orders = _band_orders(cells)
    variants = {variant for variant, _, _ in cells}
    size = region.size()
    block = np.empty((len(orders), min(_CHUNK, size)))
    fixed = np.empty((len(variants), block.shape[1]))
    for lo in range(0, size, _CHUNK):
        nodes, weights = region.chunk(lo, lo + _CHUNK)
        count = nodes.shape[0]
        rows = dict(zip(orders, _bessel_rows(orders, nodes, block[:, :count])))
        yield rows, {v: _fixed_row(v, rows, weights, nodes, row[:count]) for v, row in zip(variants, fixed)}


def _cached_sums(cells, scheme: QuadratureScheme) -> list[float]:
    """The cells' rules over [0, S] plus [S, R], from the rows ``integral``
    keeps for ``scheme``."""
    memo = _scheme_rows(scheme)
    low, high = (_region_sums(cells, _cached_pieces(cells, region, memo)) for region in _regions(scheme))
    return [lo + hi for lo, hi in zip(low, high)]


def _streamed_sums(cells, scheme: QuadratureScheme) -> list[float]:
    """The cells' rules over [0, S] plus [S, R], streamed and kept nowhere:
    the table's path, and a one-shot command's."""
    low, high = (_region_sums(cells, _streamed_pieces(cells, region)) for region in _regions(scheme))
    return [lo + hi for lo, hi in zip(low, high)]


# ---------------------------------------------------------------------------
# The tail [R, inf)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _tail_profile(variant: str, n_parity: str) -> tuple[Fraction, tuple[tuple[int, Fraction], ...]]:
    """The product of a cell's six leading carriers cos(omega_0 - nu pi/2) as
    (mean, ((k, coefficient of cos 2k omega_0), ...)), k ascending.  With m
    even the carriers' signs cancel, so the cell (0, n) with n = 0 or 1
    stands for every cell of its parity."""
    n = 0 if n_parity == "even" else 1
    harmonics = _fourier(reduce(TrigPoly.__mul__, map(_carrier, _cell_orders(variant, 0, n))))
    require(all(kind == "cos" for kind, _ in harmonics), f"the tail profile of {variant}, {n_parity} n has a sine part")
    mean = harmonics.pop(("cos", 0))[0]
    return mean, tuple((h // 2, by_power[0]) for (_, h), by_power in harmonics.items())


# Printed tail main integrals at R, for the verification table's fixed
# formula; checked against ``tail_main`` to 1e-10 before a table uses them.
_TAIL_MAIN_PRINTED = {
    ("I0", "even"): 1.2798e-6,
    ("I0", "odd"): 0.2560e-6,
    ("I1", "even"): 0.2560e-6,
    ("I1", "odd"): 0.2560e-6,
}

_TAIL_RADIUS_TARGET = 1e-10


@lru_cache(maxsize=None)
def tail_main(variant: str, n_parity: str) -> CertifiedValue:
    """Enclosure of integral_R^inf (2/(pi r))^3 T(omega_0) r dr.

    T is the parity-collapsed product of the six leading trigonometric
    factors.  Its mean integrates exactly to (8/pi^3) mean(T) / R; each
    harmonic cos(2k omega_0) r^-2 is integrated by parts twice, giving two
    boundary terms at R plus a remainder below 1/(2 k^2 R^3) in magnitude,
    which goes into the radius.  Computed and checked once per family and
    parity.
    """
    check_variant(variant)
    if n_parity not in ("even", "odd"):
        raise ValueError(f"n_parity must be 'even' or 'odd', got {n_parity!r}")
    R = _R
    amp = 8.0 / math.pi**3
    mean, harmonics = _tail_profile(variant, n_parity)
    mid = amp * float(mean) / R
    abs_terms = amp * float(mean) / R
    remainder = 0.0
    omega = phase(0, R)
    for k, coeff in harmonics:
        c = float(coeff)
        boundary = -math.sin(2 * k * omega) / (2 * k * R**2) + math.cos(2 * k * omega) / (
            2 * k**2 * R**3
        )
        mid += amp * c * boundary
        abs_terms += amp * abs(c) * (1.0 / (2 * k * R**2) + 1.0 / (2 * k**2 * R**3))
        remainder += amp * abs(c) / (2 * k**2 * R**3)
    rad = remainder + 2.0**-50 * abs_terms
    require(rad <= _TAIL_RADIUS_TARGET, f"tail radius {rad:g} misses the {_TAIL_RADIUS_TARGET:g} target")
    return CertifiedValue(mid, rad)


# The four-piece budget for everything the tail's main profile discards: the
# 2^6 - 1 products mixing at least one asymptotic error factor.  The pieces
# at order cap N hold for every cell with n + m <= T = _MAX_CELL_ORDER and
# max(n, m) <= N, via (n+m)^2 <= T^2, max(n, m)^2 <= N^2, min(n, m)^2 <=
# (T // 2)^2.  Every table cell (n <= 19) shares the N = 19 pieces; each
# recomputed value is checked against its printed ceiling once per cap.
_TAIL_ERROR_CEILINGS = (2.1e-11, 1.64e-9, 3.32e-9, 4.5e-10)


@lru_cache(maxsize=None)
def _tail_error_pieces(N: int) -> tuple[float, ...]:
    R = _R
    top, low = _MAX_CELL_ORDER, _MAX_CELL_ORDER // 2
    quartic = (8.0 / math.pi**3) / (3.0 * R**3)  # integral_R^inf (2/pi)^3 r^-4 dr
    quintic = (8.0 / math.pi**3) / (4.0 * R**4)  # integral_R^inf (2/pi)^3 r^-5 dr
    # six second-order boundary pieces: the product of six trig factors is odd
    # about pi/4, so only the deviation of r^-3 from its per-period mean
    # (below 6 pi r^-4) survives
    mean_zero = 3.0 * math.pi * (top**2 + N**2 + low**2 + 3) * quartic
    # six remainders beyond the two-term refinement of each error factor
    refine = 0.25 * (top**4 + N**4 + low**4 + 3) * quartic
    # fifteen products with exactly two error factors: one extra r^-1 each
    pairs = float(top**2 * N**2 + top**2 * low**2 + N**2 * low**2 + 12 * 36**2) * quartic
    # the remaining forty-two products decay at least like r^-5
    rest = 42.0 * float(top**2 * N**2 * low**2) * quintic
    pieces = (mean_zero, refine, pairs, rest)
    for value, ceiling in zip(pieces, _TAIL_ERROR_CEILINGS):
        require(value <= ceiling, f"tail error piece {value:g} exceeds its ceiling {ceiling:g}")
    require(sum(pieces) <= 5.5e-9, "tail error pieces no longer sum below 5.5e-9")
    return pieces


def _covered_cell(m: int, n: int) -> tuple[int, int]:
    """(m, n) as ints, if the tail constants cover the cell: even m and
    n + m <= _MAX_CELL_ORDER."""
    m, n = as_even_order(m), as_order(n)
    if n + m > _MAX_CELL_ORDER:
        raise ValueError(
            f"n + m = {n + m} exceeds the order range (<= {_MAX_CELL_ORDER}) the tail constants cover"
        )
    return m, n


def tail_error_budget(variant: str, m: int, n: int) -> float:
    """Certified bound for |I_high - tail_main| on the cell (m, n).

    Valid for n + m <= _MAX_CELL_ORDER.  The pieces are taken at the order
    cap max(19, n, m), 19 the last table row: the product is symmetric in n
    and m, and the smaller of the two is at most _MAX_CELL_ORDER // 2.
    """
    check_variant(variant)
    m, n = _covered_cell(m, n)
    a, b, c, d = _tail_error_pieces(max(_TABLE_ROWS[-1], n, m))
    return a + b + c + d


# ---------------------------------------------------------------------------
# Full evaluation
# ---------------------------------------------------------------------------

_ROUNDING_ALLOWANCE = 0.05e-8


def _itemized_budget(variant: str, m: int, n: int, scheme: QuadratureScheme) -> tuple[int, int, CertifiedValue, Budget]:
    """(m, n) as ints, the tail and the itemized budget of a cell ``integral``
    certifies (even m <= n, n + m <= _MAX_CELL_ORDER), each computed once;
    the total must meet the 0.9e-8 radius."""
    check_variant(variant)
    m, n = _covered_cell(m, n)
    check_m_le_n(m, n)
    tail = tail_main(variant, _parity(n))
    low, high = _regions(scheme)
    budget = Budget((
        ("quad_low", low.error()),
        ("quad_high", high.error()),
        ("tail_main_eval", tail.rad),
        ("tail_error_terms", tail_error_budget(variant, m, n)),
        ("rounding", _ROUNDING_ALLOWANCE),
    ))
    require(budget.total <= _RADIUS_TARGET, f"radius {budget.total:g} of {variant}({m}, {n}) exceeds {_RADIUS_TARGET:g}")
    return m, n, tail, budget


def error_budget(variant: str, m: int, n: int, scheme: QuadratureScheme = DEFAULT_SCHEME) -> Budget:
    """The itemized absolute-error bound claimed by ``integral``."""
    return _itemized_budget(variant, m, n, scheme)[3]


def integral(variant: str, m: int, n: int, scheme: QuadratureScheme = DEFAULT_SCHEME) -> CertifiedValue:
    """Certified evaluation of I0(m, n) or I1(m, n).

    The midpoint is the two composite rules plus the tail's main profile;
    the radius is the full error budget.  Under the default scheme the
    radius stays below 0.9e-8.  The rows are kept for the next call under
    the same scheme.
    """
    return _integral_and_budget(variant, m, n, scheme)[0]


def _integral_and_budget(
    variant: str, m: int, n: int, scheme: QuadratureScheme = DEFAULT_SCHEME, sums=_cached_sums
) -> tuple[CertifiedValue, Budget]:
    """``integral`` together with the budget behind its radius, its rules
    summed by ``sums``: ``_cached_sums``, or ``_streamed_sums`` for a
    one-shot evaluation, with the same bits."""
    m, n, tail, budget = _itemized_budget(variant, m, n, scheme)
    mid = sums([(variant, m, n)], scheme)[0] + tail.mid
    return CertifiedValue(mid, budget.total), budget


@lru_cache(maxsize=None)
def _table_radius_ok(scheme: QuadratureScheme) -> None:
    """Require |printed tail - tail_main| <= 1e-10 and, with that miss, the
    table's 0.9e-8 on every cell.  Table cells share the budget of their
    family and parity (the tail pieces are taken at the last row's cap), so
    the first two rows' m = 0 cells stand for all."""
    for n in _TABLE_ROWS[:2]:
        for variant in ("I0", "I1"):
            _, _, tail, budget = _itemized_budget(variant, 0, n, scheme)
            printed = _TAIL_MAIN_PRINTED[variant, _parity(n)]
            miss = abs(printed - tail.mid)
            require(miss <= 1e-10, f"printed tail {printed:g} of {variant}, {_parity(n)} n misses {tail.mid:.6g}")
            require(budget.total + miss <= _RADIUS_TARGET, f"table radius {budget.total + miss:g} exceeds {_RADIUS_TARGET:g}")


def build_table(n_range=None, scheme: QuadratureScheme = DEFAULT_SCHEME) -> list[TableEntry]:
    """The verification table for rows n in ``n_range`` (default 2..19).

    Each cell holds, for both integral families, the quantity
    ``(|main - tail_const - quadrature| + 0.9e-8) * 100 n^4`` with ``main``
    the closed-form expression for that (m, n) (zero for m >= 6) and
    ``tail_const`` the printed parity-matched tail value; ``_table_radius_ok``
    first checks, once per scheme, that the 0.9e-8 holds on every cell.
    """
    rows = _table_rows(_TABLE_ROWS if n_range is None else n_range)
    _table_radius_ok(scheme)
    # region-major: each granule of a region evaluates the union of the band's
    # orders in one kernel call (J0, J1 and the forward recurrence once) and
    # serves every cell, then is dropped, so no row is evaluated twice or kept
    cells = [(variant, m, n) for n in rows for m in range(0, n + 1, 2) for variant in ("I0", "I1")]
    bounds = []
    for (variant, m, n), quad in zip(cells, _streamed_sums(cells, scheme)):
        main = (NORMALIZATION * main_term(m, n, variant)).to_real()
        tail_const = _TAIL_MAIN_PRINTED[variant, _parity(n)]
        bounds.append((abs(main - tail_const - quad) + _RADIUS_TARGET) * (100.0 * float(n) ** 4))
    return [TableEntry(n, m, top, bottom) for (_, m, n), top, bottom in zip(cells[::2], bounds[::2], bounds[1::2])]
