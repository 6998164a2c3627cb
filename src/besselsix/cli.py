"""Command-line front end.

Subcommands cover the full pipeline: direct Bessel evaluation with an
optional series-oracle enclosure, the closed-form two-factor integrals, the
asymptotic expansions, the core-integral bound breakdown, the large-order
predictions and theorem constants, the certified quadrature, the
verification table, and the sample curve of the sixfold integrand.

Exit codes: 0 success, 1 usage error, 2 failed check, 3 domain error
(arguments outside a certified range), 4 certification or internal error.

numpy and the modules built on it (``bessel``, ``quadrature``) are imported
inside the commands that evaluate Bessel functions, so the analytic commands
and a refused command line start without them.  Before that, ``main`` asks
OpenBLAS for one thread (``_one_blas_thread``): the package's only BLAS
calls are small matrix-vector products in the Gauss certificates, and the
worker thread that ``import numpy`` would otherwise start only burns CPU.
``integrate`` and ``check-theorem`` stream their cell and keep no rows.

Text output is rounded outward from the exact decimal of each value: an
upper bound up, a lower bound down, and an enclosure's radius up after it
absorbs the printed midpoint's distance from the exact center, so every
printed enclosure contains the certified one.  JSON prints the floats.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .certify import THEOREM_MAP, check_theorem, predict
from .closed_form import weber_schafheitlin
from .core_integrals import CoreBoundBreakdown, core_bound_breakdown
from .exactnum import (
    _SQRTPI,
    Budget,
    CertificationError,
    CertifiedValue,
    ExactScalar,
    _table_rows,
    as_even_order,
    check_m_le_n,
)
from .expansions import (
    _PRODUCT_TAG,
    RemainderedExpansion,
    TrigPoly,
    base_expansion,
    product_expansion,
)

if TYPE_CHECKING:
    from .quadrature import QuadratureScheme

SCHEMA_VERSION = 1

_ORACLE_BITS = 120
_VARIANT_BY_FLAG = {"0": "I0", "1": "I1"}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 4

# The variables OpenBLAS reads its thread count from, in its order.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class UsageError(Exception):
    """Raised for malformed command lines; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _add_variant(p) -> None:
    p.add_argument("--variant", required=True, choices=("0", "1"), help="0 for the J0^3 family, 1 for the J1^2 J0 family")


def _add_orders(p) -> None:
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--n", required=True, type=int)


def _add_paper_flag(p) -> None:
    p.add_argument("--paper", action="store_true", help="the paper's NC7 rule instead of the Gauss panels")


def _build_parser() -> _Parser:
    parser = _Parser(prog="besselsix", description="Certified sixfold Bessel-product integrals")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-bessel", help="evaluate J_n(r)")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--r", required=True, type=float)
    p.add_argument("--oracle", action="store_true", help="also print the exact series enclosure")
    p.set_defaults(run=_cmd_eval_bessel)

    p = sub.add_parser("closed-form", help="two-factor integral of J_n J_m r^-k in closed form")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--k", required=True, type=int)
    p.set_defaults(run=_cmd_closed_form)

    p = sub.add_parser("expansion", help="print a six-term remaindered expansion")
    p.add_argument("--which", required=True, choices=("j0", "j1", *(t.lower() for t in _PRODUCT_TAG.values())))
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_expansion)

    p = sub.add_parser("core-bounds", help="main terms and error bounds of one core integral")
    _add_variant(p)
    _add_orders(p)
    p.add_argument("--breakdown", action="store_true", help="emit the full decomposition as JSON")
    p.set_defaults(run=_cmd_core_bounds)

    p = sub.add_parser("predict", help="certified enclosure from the closed forms (n >= 20)")
    _add_variant(p)
    _add_orders(p)
    p.add_argument("--budget", action="store_true", help="itemize the radius")
    p.set_defaults(run=_cmd_predict)

    p = sub.add_parser("theorem-map", help="applicability table of the deviation constants")
    p.set_defaults(run=_cmd_theorem_map)

    p = sub.add_parser("integrate", help="certified quadrature evaluation")
    _add_variant(p)
    _add_orders(p)
    _add_paper_flag(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=_cmd_integrate)

    p = sub.add_parser("table", help="the verification table for 2 <= n <= 19")
    p.add_argument("--csv", nargs="?", const="-", default="-", metavar="PATH", help="write CSV to PATH (default: stdout)")
    p.add_argument("--rows", default="2..19", help="row selection, e.g. 7 or 2..19")
    _add_paper_flag(p)
    p.set_defaults(run=_cmd_table)

    p = sub.add_parser("check-theorem", help="test a quadrature enclosure against the theorem bound")
    _add_variant(p)
    _add_orders(p)
    p.set_defaults(run=_cmd_check_theorem)

    p = sub.add_parser("figure1", help="sample the J15 J9 J6 J1^2 J0 r curve on [0, 100]")
    p.add_argument("--csv", nargs="?", const="-", default="-", metavar="PATH", help="write CSV to PATH (default: stdout)")
    p.set_defaults(run=_cmd_figure1)

    return parser


def _parse_rows(text: str) -> tuple[int, ...]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..")
            rows = range(int(lo_text), int(hi_text) + 1)
        else:
            rows = (int(text),)
    except ValueError:
        raise UsageError(f"cannot parse row selection {text!r} (expected N or A..B)")
    if not rows:
        raise UsageError(f"empty row selection {text!r}")
    return _table_rows(rows)


def _check_cell(m: int, n: int) -> None:
    """Refuse a cell the integral commands do not define."""
    as_even_order(m)
    if n < 2:
        raise UsageError(f"n must be at least 2, got {n}")
    check_m_le_n(m, n)


def parse_args(argv) -> argparse.Namespace:
    """The parsed command line; ``run(ns)`` executes it and returns the
    exit status."""
    ns = _build_parser().parse_args(argv)
    try:
        if "variant" in ns:
            ns.variant = _VARIANT_BY_FLAG[ns.variant]
            _check_cell(ns.m, ns.n)
        if "rows" in ns:
            ns.rows = _parse_rows(ns.rows)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return ns


# ---------------------------------------------------------------------------
# JSON with explicit 17-significant-digit reals
# ---------------------------------------------------------------------------


def _json_dumps(payload) -> str:
    def render(obj) -> str:
        if isinstance(obj, bool) or obj is None:
            return json.dumps(obj)
        if isinstance(obj, float):
            return format(obj, ".17g")
        if isinstance(obj, (int, str)):
            return json.dumps(obj)
        if isinstance(obj, (list, tuple)):
            return "[" + ", ".join(render(x) for x in obj) + "]"
        if isinstance(obj, dict):
            return "{" + ", ".join(f"{json.dumps(str(k))}: {render(v)}" for k, v in obj.items()) + "}"
        raise TypeError(f"cannot serialize {type(obj).__name__}")

    return render(payload)


def expansion_payload(which: str, e: RemainderedExpansion) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": "expansion",
        "which": which,
        "terms": [[[i, j, k, str(v)] for (i, j, k), v in term.coeffs] for term in e.terms],
        "remainders": [str(v) for v in e.remainders],
    }


def integrate_payload(ns: argparse.Namespace, value: CertifiedValue, budget: Budget) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": "integrate",
        "variant": ns.variant,
        "m": ns.m,
        "n": ns.n,
        "mid": float(value.mid),
        "rad": float(value.rad),
        "budget": {**dict(budget), "total": budget.total},
    }


def breakdown_payload(ns: argparse.Namespace, b: CoreBoundBreakdown) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": "core-bounds",
        "variant": ns.variant,
        "m": ns.m,
        "n": ns.n,
        "main_cos": str(b.main_cos.coeff),
        "main_sin": str(b.main_sin.coeff),
        "e1_cos": b.e1_cos,
        "e1_sin": b.e1_sin,
        "e2_cos": b.e2_cos,
        "e2_sin": b.e2_sin,
    }


# ---------------------------------------------------------------------------
# rendering helpers
# ---------------------------------------------------------------------------


def _render_poly(p: TrigPoly) -> str:
    if not p.coeffs:
        return "0"
    parts = []
    for (i, j, k), v in p.coeffs:
        factors = [f"({v})"]
        if i:
            factors.append("c" + (f"^{i}" if i > 1 else ""))
        if j:
            factors.append("s" + (f"^{j}" if j > 1 else ""))
        if k:
            factors.append("t" + (f"^{k}" if k > 1 else ""))
        parts.append(" ".join(factors))
    return " + ".join(parts)


def _rounded(q: Fraction, exponent: int, up: bool) -> Fraction:
    """q rounded up (or down) to a whole multiple of 10^exponent, exactly."""
    unit = Fraction(10) ** exponent
    return (math.ceil(q / unit) if up else math.floor(q / unit)) * unit


def _ceil2(x: float) -> float:
    """The exact decimal of x rounded up to two decimals, the table's
    upper-bound convention."""
    return float(_rounded(Fraction(x), -2, True))


def _bound_text(x, digits: int, up: bool = True) -> str:
    """A float or ``Fraction`` as ``g`` text at ``digits`` significant
    digits, its exact decimal rounded up, so the printed number is an upper
    bound, or down for a lower bound."""
    q = Fraction(x)
    if q == 0:
        return format(0.0, f".{digits}g")
    # 10^exponent <= |q| < 10^(exponent + 1), from the digit counts
    exponent = len(str(abs(q.numerator))) - len(str(q.denominator))
    if Fraction(10) ** exponent > abs(q):
        exponent -= 1
    # the rounded value has at most ``digits`` significant digits, which
    # ``g`` reads back exactly from the nearest float
    return format(float(_rounded(q, exponent - digits + 1, up)), f".{digits}g")


def _enclosure_text(center, rad, digits: int) -> str:
    """``center +/- rad`` as text whose interval contains [c - rad, c + rad]
    for the exact center c: c's float at 17 digits, and ``rad`` plus the
    printed midpoint's distance from c, rounded up at ``digits``.  The
    center is a float or a ``Fraction``, or an ``ExactScalar``, whose
    sqrt(pi) lies between ``_SQRTPI`` (a 69-digit truncation) and
    ``_SQRTPI + 10^-68``, so its value lies between the two ends."""
    if isinstance(center, ExactScalar):
        mid = center.to_real()
        ends = [center.coeff * s**center.sqrtpi_power for s in (_SQRTPI, _SQRTPI + Fraction(1, 10**68))]
    else:
        mid, ends = float(center), [Fraction(center)]
    shown = format(mid, ".17g")
    miss = max(abs(Fraction(shown) - c) for c in ends)
    return f"{shown} +/- {_bound_text(Fraction(rad) + miss, digits)}"


def _print_budget(budget: Budget) -> None:
    width = max(len(name) for name, _ in budget) + 2
    for name, value in budget:
        print(f"  {name:<{width}} {_bound_text(value, 6)}")


def _emit(lines: list[str], path: str) -> None:
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _scheme_from(ns: argparse.Namespace) -> QuadratureScheme:
    from .quadrature import DEFAULT_SCHEME, PAPER_SCHEME

    return PAPER_SCHEME if ns.paper else DEFAULT_SCHEME


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_eval_bessel(ns: argparse.Namespace) -> int:
    from .bessel import bessel_j, bessel_series_oracle

    value = bessel_j(ns.n, ns.r)
    # the enclosure first, so a refused oracle prints nothing
    enclosure = bessel_series_oracle(ns.n, ns.r, _ORACLE_BITS) if ns.oracle else None
    print(f"J_{ns.n}({ns.r:g}) = {value:.17g}")
    if enclosure is not None:
        print(f"series enclosure: {_enclosure_text(enclosure.mid, enclosure.rad, 3)}")
    return EXIT_OK


def _cmd_closed_form(ns: argparse.Namespace) -> int:
    value = weber_schafheitlin(ns.n, ns.m, ns.k)
    print(f"integral of J_{ns.n} J_{ns.m} r^-{ns.k}: {value} = {value.to_real():.17g}")
    return EXIT_OK


def _cmd_expansion(ns: argparse.Namespace) -> int:
    which = ns.which.upper()
    e = base_expansion(which) if which in ("J0", "J1") else product_expansion(which)
    if ns.json:
        print(_json_dumps(expansion_payload(which, e)))
        return EXIT_OK
    print(f"{which}: six terms in t = 1/(16r), c = cos(r - pi/4), s = sin(r - pi/4)")
    for k, term in enumerate(e.terms):
        print(f"  term[{k}] = {_render_poly(term)}")
    print("  truncation remainders (deviation <= remainder[K] * (16r)^-K):")
    print("  " + ", ".join(str(v) for v in e.remainders))
    return EXIT_OK


def _cmd_core_bounds(ns: argparse.Namespace) -> int:
    b = core_bound_breakdown(ns.m, ns.n, ns.variant)
    if ns.breakdown:
        print(_json_dumps(breakdown_payload(ns, b)))
        return EXIT_OK
    print(f"core bound {ns.variant}(m={ns.m}, n={ns.n}):")
    print(f"  main cos part  = {b.main_cos.coeff}")
    print(f"  main sin part  = {b.main_sin.coeff}")
    print(f"  first-kind errors:  cos <= {_bound_text(b.e1_cos, 6)}, sin <= {_bound_text(b.e1_sin, 6)}")
    print(f"  second-kind errors: cos <= {_bound_text(b.e2_cos, 6)}, sin <= {_bound_text(b.e2_sin, 6)}")
    return EXIT_OK


def _cmd_predict(ns: argparse.Namespace) -> int:
    p = predict(ns.m, ns.n, ns.variant)
    print(f"{p.variant}(m={p.m}, n={p.n}) = {_enclosure_text(p.main, p.radius, 6)}")
    if ns.budget:
        _print_budget(p.budget)
    return EXIT_OK


def _cmd_theorem_map(ns: argparse.Namespace) -> int:
    print("deviation constants: |I - main| < c * n^-4 when (m, n) is covered")
    for variant, m_lo, m_hi, n_lo, n_hi, constant in THEOREM_MAP:
        m_part = f"m = {m_lo}" if m_hi == m_lo else f"m >= {m_lo}"
        if n_hi is not None:
            n_part = f"n in [{n_lo}, {n_hi}]"
        elif n_lo is None:
            n_part = "n >= m"
        else:
            n_part = f"n >= {n_lo}"
        print(f"  {variant}  {m_part:<8} {n_part:<14} c = {constant}")
    bounded = [row for row in THEOREM_MAP if row[4] is not None]
    print(f"exceptional small-n cells carrying c = {' or '.join(sorted({str(row[5]) for row in bounded}))}:")
    for variant, m, _, n_lo, n_hi, _ in bounded:
        print(f"  {variant}: {', '.join(f'({m}, {n})' for n in range(n_lo, n_hi + 1))}")
    return EXIT_OK


def _one_shot(ns: argparse.Namespace, scheme: QuadratureScheme) -> tuple[CertifiedValue, Budget]:
    """The command's cell and its budget under ``scheme``, its rules
    streamed: a one-shot process keeps no rows."""
    from .quadrature import _integral_and_budget, _streamed_sums

    return _integral_and_budget(ns.variant, ns.m, ns.n, scheme, _streamed_sums)


def _cmd_integrate(ns: argparse.Namespace) -> int:
    value, budget = _one_shot(ns, _scheme_from(ns))
    if ns.json:
        print(_json_dumps(integrate_payload(ns, value, budget)))
        return EXIT_OK
    print(f"{ns.variant}(m={ns.m}, n={ns.n}) = {_enclosure_text(value.mid, value.rad, 3)}")
    _print_budget(budget)
    return EXIT_OK


def _cmd_table(ns: argparse.Namespace) -> int:
    from .quadrature import build_table

    scheme = _scheme_from(ns)
    entries = build_table(ns.rows, scheme=scheme)
    lines = ["n,m,top,bottom"]
    for e in entries:
        lines.append(f"{e.n},{e.m},{_ceil2(e.top):.2f},{_ceil2(e.bottom):.2f}")
    _emit(lines, ns.csv)
    return EXIT_OK


def _cmd_check_theorem(ns: argparse.Namespace) -> int:
    from .quadrature import DEFAULT_SCHEME

    value = _one_shot(ns, DEFAULT_SCHEME)[0]
    outcome = check_theorem(ns.m, ns.n, ns.variant, value)
    status = "PASS" if outcome.passed else "FAIL"
    print(
        f"{ns.variant}(m={ns.m}, n={ns.n}): deviation {_bound_text(outcome.exact_deviation, 6)} "
        f"vs allowance {_bound_text(outcome.exact_allowance, 6, up=False)} -> {status}"
    )
    return EXIT_OK if outcome.passed else EXIT_CHECK_FAILED


def _cmd_figure1(ns: argparse.Namespace) -> int:
    import numpy as np

    from .quadrature import integrand

    f = integrand("I1", 6, 9)
    r = np.linspace(0.0, 100.0, 2001)
    values = f(r)
    lines = ["r,value"]
    lines.extend(f"{x:.17g},{v:.17g}" for x, v in zip(r, values))
    _emit(lines, ns.csv)
    return EXIT_OK


def _one_blas_thread() -> None:
    """Run OpenBLAS on one thread in this process, unless numpy is already
    loaded (then OpenBLAS has read its count) or the user set a count in one
    of ``_BLAS_THREAD_VARS`` (then theirs wins).  Only the command-line
    program does this: a library leaves its host's environment alone."""
    if "numpy" not in sys.modules and not any(os.environ.get(name) for name in _BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


def main(argv=None) -> int:
    _one_blas_thread()
    try:
        ns = parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return ns.run(ns)
    except BrokenPipeError:
        # Downstream consumer (e.g. head) closed the pipe; not our error.
        sys.stderr.close()
        return EXIT_OK
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except CertificationError as exc:
        print(f"certification error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
