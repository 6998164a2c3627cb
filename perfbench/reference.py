"""References the benchmark checks besselsix's outputs against.

Nothing here calls into the package.  The printed verification table, the
theorem's deviation constants and the frequency-split coefficients are the
benchmark's own copies of the paper's printed numbers; the Hankel
coefficients a_j(m) come from ``tests/hiprec.py``, which shares no code with
the package either.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent / "tests"

#: The paper's verification table in integer cents: per row n, the top
#: (first family) and bottom (second family) cells for m = 0, 2, 4, ...
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

#: Recomputed cells may differ from the printed ones by two cents.
CENTS_TOLERANCE = 2

#: The quadrature radius every certified ``integral`` must meet.
RADIUS_TARGET = 0.9e-8

#: ``bessel_j``'s documented absolute accuracy.
BESSEL_ABS_ERROR = Fraction(1e-13)

# Frequency-split coefficients alpha_0..alpha_5 of the two integrands
# (even indices from the cosine route, odd from the sine route).
_ALPHA = {
    "I0": (3, 6, -150, -1092, 65250, 826164),
    "I1": (1, 18, 174, -1164, -33354, 1071900),
}


def table_cells_ok(csv_text: str, rows) -> bool:
    """Every printed cell of ``besselsix table`` output, and only those,
    within ``CENTS_TOLERANCE`` of the paper's table."""
    lines = csv_text.strip().splitlines()
    if not lines or lines[0] != "n,m,top,bottom":
        return False
    seen = []
    for line in lines[1:]:
        n_text, m_text, top, bottom = line.split(",")
        n, m = int(n_text), int(m_text)
        if n not in PUBLISHED_TABLE or m % 2 or not 0 <= m <= n:
            return False
        printed_top, printed_bottom = (row[m // 2] for row in PUBLISHED_TABLE[n])
        for cell, printed in ((top, printed_top), (bottom, printed_bottom)):
            if abs(round(float(cell) * 100) - printed) > CENTS_TOLERANCE:
                return False
        seen.append((n, m))
    return seen == [(n, m) for n in rows for m in range(0, n + 1, 2)]


def theorem_constant(variant: str, m: int, n: int) -> float:
    """The theorem's c in |I - main| < c n^-4 for an even 0 <= m <= n."""
    if m == 0:
        exceptional = 6 if variant == "I0" else 3
        return 0.01 if n <= exceptional else 0.002
    if m == 2:
        return 0.002
    return 0.0015


def allowance(variant: str, m: int, n: int) -> float:
    return theorem_constant(variant, m, n) * float(n) ** -4


def _a(j: int, m: int) -> Fraction:
    if str(TESTS) not in sys.path:
        sys.path.append(str(TESTS))
    import hiprec

    return hiprec.a_frac(j, m)


def _poch_inv(n: int, lo: int, hi: int) -> Fraction:
    prod = 1
    for d in range(lo, hi + 1):
        prod *= n + d
    return Fraction(1, prod)


@lru_cache(maxsize=None)
def main_term(variant: str, m: int, n: int) -> float:
    """The normalized main term (4/pi^2) (cos route + sin route), m in {0, 2}."""
    al = [Fraction(x) for x in _ALPHA[variant]]
    e = Fraction(1, 8)
    if m == 0:
        p = _poch_inv(n, -1, 1)
        total = e * al[0] / (2 * n)
        total += e * (_a(0, 0) * al[2] / 16**2 - _a(2, 0) * al[0]) * p / 4
        total -= e * _a(1, 0) * (al[1] / 16) * p / 4
    elif m == 2:
        p = _poch_inv(n, 0, 2)
        total = e * (-_a(0, 2) * al[2] / 16**2 + _a(2, 2) * al[0]) * p / 8
        total += e * (_a(1, 2) * al[1] / 16) * p / 8
    else:
        raise ValueError(f"reference main terms cover m in {{0, 2}}, got {m}")
    return float(total) * 4.0 / math.pi**2


def quadrature_ok(variant: str, m: int, n: int, mid: float, rad: float) -> bool:
    """A quadrature enclosure meets the radius target and the theorem bound."""
    deviation = abs(mid - main_term(variant, m, n)) + rad
    return 0 <= rad <= RADIUS_TARGET and deviation <= allowance(variant, m, n)


def bessel_oracle_ok(points, evaluate) -> bool:
    """``evaluate(n, r)``, widened by its documented accuracy, meets the
    hiprec enclosure of J_n(r) at every (n, r) in ``points``."""
    if str(TESTS) not in sys.path:
        sys.path.append(str(TESTS))
    import hiprec

    for n, r in points:
        lo, hi = hiprec.besselJ_encl(n, r)
        value = Fraction(evaluate(n, r))
        if not lo - BESSEL_ABS_ERROR <= value <= hi + BESSEL_ABS_ERROR:
            return False
    return True
