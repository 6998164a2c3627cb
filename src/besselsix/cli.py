"""Command-line front end.

Subcommands cover the full pipeline: direct Bessel evaluation with an
optional series-oracle enclosure, the closed-form two-factor integrals, the
asymptotic expansions, the core-integral bound breakdown, the large-order
predictions and theorem constants, the certified quadrature, the
verification table, and the sample curve of the sixfold integrand.

Exit codes: 0 success, 1 usage error, 2 failed check, 3 domain error
(arguments outside a certified range), 4 certification or internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from fractions import Fraction

import numpy as np

from .bessel import CertifiedValue, bessel_j, bessel_series_oracle
from .certify import THEOREM_MAP, check_theorem, predict
from .closed_form import kapteyn, weber_schafheitlin
from .core_integrals import CoreBoundBreakdown, core_bound_breakdown
from .exactnum import CertificationError, ExactScalar
from .expansions import (
    RemainderedExpansion,
    TrigPoly,
    base_expansion,
    product_expansion,
)
from .quadrature import (
    DEFAULT_SCHEME,
    PAPER_SCHEME,
    ErrorBudget,
    QuadratureScheme,
    _integral_and_budget,
    build_table,
    integral,
    integrand,
)

SCHEMA_VERSION = 1

_ORACLE_BITS = 120
_VARIANT_BY_FLAG = {"0": "I0", "1": "I1"}
_EXPANSION_BY_FLAG = {"j0": "J0", "j1": "J1", "j000": "J000", "j110": "J110"}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    """Raised for malformed command lines; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """A fully validated invocation, ready to dispatch."""

    command: str
    variant: str | None = None
    m: int | None = None
    n: int | None = None
    k: int | None = None
    r: float | None = None
    which: str | None = None
    oracle: bool = False
    budget: bool = False
    breakdown: bool = False
    rows: tuple[int, ...] = ()
    paper: bool = False
    output: str = "human"
    csv_path: str | None = None

    def __post_init__(self) -> None:
        if self.output not in ("human", "json", "csv"):
            raise ValueError(f"unknown output format {self.output!r}")


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

    p = sub.add_parser("closed-form", help="two-factor integral of J_n J_m r^-k in closed form")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--k", required=True, type=int)

    p = sub.add_parser("expansion", help="print a six-term remaindered expansion")
    p.add_argument("--which", required=True, choices=tuple(_EXPANSION_BY_FLAG))
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("core-bounds", help="main terms and error bounds of one core integral")
    _add_variant(p)
    _add_orders(p)
    p.add_argument("--breakdown", action="store_true", help="emit the full decomposition as JSON")

    p = sub.add_parser("predict", help="certified enclosure from the closed forms (n >= 20)")
    _add_variant(p)
    _add_orders(p)
    p.add_argument("--budget", action="store_true", help="itemize the radius")

    sub.add_parser("theorem-map", help="applicability table of the deviation constants")

    p = sub.add_parser("integrate", help="certified quadrature evaluation")
    _add_variant(p)
    _add_orders(p)
    _add_paper_flag(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("table", help="the verification table for 2 <= n <= 19")
    p.add_argument("--csv", nargs="?", const="-", default="-", metavar="PATH", help="write CSV to PATH (default: stdout)")
    p.add_argument("--rows", default="2..19", help="row selection, e.g. 7 or 2..19")
    _add_paper_flag(p)

    p = sub.add_parser("check-theorem", help="test a quadrature enclosure against the theorem bound")
    _add_variant(p)
    _add_orders(p)

    p = sub.add_parser("figure1", help="sample the J15 J9 J6 J1^2 J0 r curve on [0, 100]")
    p.add_argument("--csv", nargs="?", const="-", default="-", metavar="PATH", help="write CSV to PATH (default: stdout)")

    return parser


def _parse_rows(text: str) -> tuple[int, ...]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..")
            lo, hi = int(lo_text), int(hi_text)
            rows = tuple(range(lo, hi + 1))
        else:
            rows = (int(text),)
    except ValueError:
        raise UsageError(f"cannot parse row selection {text!r} (expected N or A..B)")
    if not rows:
        raise UsageError(f"empty row selection {text!r}")
    for n in rows:
        if not 2 <= n <= 19:
            raise UsageError(f"table rows cover 2 <= n <= 19, got {n}")
    return rows


def _check_orders(m: int, n: int) -> None:
    if m % 2:
        raise UsageError(f"m must be even, got {m}")
    if m < 0:
        raise UsageError(f"m must be nonnegative, got {m}")
    if n < 2:
        raise UsageError(f"n must be at least 2, got {n}")
    if m > n:
        raise UsageError(f"m must not exceed n, got m={m}, n={n}")


def parse_args(argv) -> RunConfig:
    ns = _build_parser().parse_args(argv)
    command = ns.command
    kwargs: dict = {"command": command}

    if command == "eval-bessel":
        kwargs.update(n=ns.n, r=ns.r, oracle=ns.oracle)
    elif command == "closed-form":
        kwargs.update(n=ns.n, m=ns.m, k=ns.k)
    elif command == "expansion":
        kwargs.update(which=_EXPANSION_BY_FLAG[ns.which], output="json" if ns.json else "human")
    elif command in ("core-bounds", "predict", "integrate", "check-theorem"):
        _check_orders(ns.m, ns.n)
        kwargs.update(variant=_VARIANT_BY_FLAG[ns.variant], m=ns.m, n=ns.n)
        if command == "core-bounds":
            kwargs.update(breakdown=ns.breakdown, output="json" if ns.breakdown else "human")
        elif command == "predict":
            kwargs.update(budget=ns.budget)
        elif command == "integrate":
            kwargs.update(paper=ns.paper, output="json" if ns.json else "human")
    elif command == "table":
        kwargs.update(rows=_parse_rows(ns.rows), csv_path=ns.csv, output="csv", paper=ns.paper)
    elif command == "figure1":
        kwargs.update(csv_path=ns.csv, output="csv")
    return RunConfig(**kwargs)


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


def expansion_from_payload(payload: dict) -> RemainderedExpansion:
    terms = tuple(
        TrigPoly(tuple(((i, j, k), Fraction(v)) for i, j, k, v in term))
        for term in payload["terms"]
    )
    remainders = tuple(Fraction(v) for v in payload["remainders"])
    return RemainderedExpansion(terms, remainders)


def integrate_payload(config: RunConfig, value: CertifiedValue, budget: ErrorBudget) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": "integrate",
        "variant": config.variant,
        "m": config.m,
        "n": config.n,
        "mid": float(value.mid),
        "rad": float(value.rad),
        "budget": asdict(budget),
    }


def integrate_from_payload(payload: dict) -> tuple[CertifiedValue, ErrorBudget]:
    return CertifiedValue(payload["mid"], payload["rad"]), ErrorBudget(**payload["budget"])


def breakdown_payload(config: RunConfig, b: CoreBoundBreakdown) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": "core-bounds",
        "variant": config.variant,
        "m": config.m,
        "n": config.n,
        "main_cos": str(b.main_cos.coeff),
        "main_sin": str(b.main_sin.coeff),
        "e1_cos": b.e1_cos,
        "e1_sin": b.e1_sin,
        "e2_cos": b.e2_cos,
        "e2_sin": b.e2_sin,
    }


def breakdown_from_payload(payload: dict) -> CoreBoundBreakdown:
    return CoreBoundBreakdown(
        main_cos=ExactScalar(Fraction(payload["main_cos"])),
        main_sin=ExactScalar(Fraction(payload["main_sin"])),
        e1_cos=payload["e1_cos"],
        e1_sin=payload["e1_sin"],
        e2_cos=payload["e2_cos"],
        e2_sin=payload["e2_sin"],
    )


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


def _ceil2(x: float) -> float:
    """Round up to two decimals, the table's upper-bound convention."""
    return math.ceil(x * 100.0 - 1e-9) / 100.0


def _emit(lines: list[str], path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _scheme_from(config: RunConfig) -> QuadratureScheme:
    return PAPER_SCHEME if config.paper else DEFAULT_SCHEME


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_eval_bessel(config: RunConfig) -> int:
    value = bessel_j(config.n, config.r)
    print(f"J_{config.n}({config.r:g}) = {value:.17g}")
    if config.oracle:
        enclosure = bessel_series_oracle(config.n, config.r, _ORACLE_BITS)
        print(f"series enclosure: {float(enclosure.mid):.17g} +/- {float(enclosure.rad):.3g}")
    return EXIT_OK


def _cmd_closed_form(config: RunConfig) -> int:
    if config.k == 1:
        value = kapteyn(config.n, config.m)
    else:
        value = weber_schafheitlin(config.n, config.m, config.k)
    print(f"integral of J_{config.n} J_{config.m} r^-{config.k}: {value} = {value.to_real():.17g}")
    return EXIT_OK


def _cmd_expansion(config: RunConfig) -> int:
    which = config.which
    e = base_expansion(which) if which in ("J0", "J1") else product_expansion(which)
    if config.output == "json":
        print(_json_dumps(expansion_payload(which, e)))
        return EXIT_OK
    print(f"{which}: six terms in t = 1/(16r), c = cos(r - pi/4), s = sin(r - pi/4)")
    for k, term in enumerate(e.terms):
        print(f"  term[{k}] = {_render_poly(term)}")
    print("  truncation remainders (deviation <= remainder[K] * (16r)^-K):")
    print("  " + ", ".join(str(v) for v in e.remainders))
    return EXIT_OK


def _cmd_core_bounds(config: RunConfig) -> int:
    b = core_bound_breakdown(config.m, config.n, config.variant)
    if config.output == "json":
        print(_json_dumps(breakdown_payload(config, b)))
        return EXIT_OK
    print(f"core bound {config.variant}(m={config.m}, n={config.n}):")
    print(f"  main cos part  = {b.main_cos.coeff}")
    print(f"  main sin part  = {b.main_sin.coeff}")
    print(f"  first-kind errors:  cos <= {b.e1_cos:.6g}, sin <= {b.e1_sin:.6g}")
    print(f"  second-kind errors: cos <= {b.e2_cos:.6g}, sin <= {b.e2_sin:.6g}")
    return EXIT_OK


def _cmd_predict(config: RunConfig) -> int:
    p = predict(config.m, config.n, config.variant)
    print(
        f"{p.variant}(m={p.m}, n={p.n}) = {p.main.to_real():.17g} +/- {p.radius:.6g}"
    )
    if config.budget:
        for name, value in p.budget:
            print(f"  {name:<12} {value:.6g}")
    return EXIT_OK


def _cmd_theorem_map(config: RunConfig) -> int:
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
    print("exceptional small-n cells carrying c = 0.01:")
    for variant, n_hi in (("I0", 6), ("I1", 3)):
        cells = ", ".join(f"(0, {n})" for n in range(2, n_hi + 1))
        print(f"  {variant}: {cells}")
    return EXIT_OK


def _cmd_integrate(config: RunConfig) -> int:
    scheme = _scheme_from(config)
    value, budget = _integral_and_budget(config.variant, config.m, config.n, scheme)
    if config.output == "json":
        print(_json_dumps(integrate_payload(config, value, budget)))
        return EXIT_OK
    print(f"{config.variant}(m={config.m}, n={config.n}) = {float(value.mid):.17g} +/- {float(value.rad):.3g}")
    for name in (f.name for f in fields(ErrorBudget) if f.name != "total"):
        print(f"  {name:<18} {getattr(budget, name):.6g}")
    return EXIT_OK


def _cmd_table(config: RunConfig) -> int:
    scheme = _scheme_from(config)
    entries = build_table(config.rows, scheme=scheme)
    lines = ["n,m,top,bottom"]
    for e in entries:
        lines.append(f"{e.n},{e.m},{_ceil2(e.top):.2f},{_ceil2(e.bottom):.2f}")
    _emit(lines, config.csv_path)
    return EXIT_OK


def _cmd_check_theorem(config: RunConfig) -> int:
    value = integral(config.variant, config.m, config.n)
    outcome = check_theorem(config.m, config.n, config.variant, value)
    status = "PASS" if outcome.passed else "FAIL"
    print(
        f"{config.variant}(m={config.m}, n={config.n}): deviation {outcome.deviation:.6g} "
        f"vs allowance {outcome.allowance:.6g} -> {status}"
    )
    return EXIT_OK if outcome.passed else EXIT_CHECK_FAILED


def _cmd_figure1(config: RunConfig) -> int:
    f = integrand("I1", 6, 9)
    r = np.linspace(0.0, 100.0, 2001)
    values = f(r)
    lines = ["r,value"]
    lines.extend(f"{x:.17g},{v:.17g}" for x, v in zip(r, values))
    _emit(lines, config.csv_path)
    return EXIT_OK


_DISPATCH = {
    "eval-bessel": _cmd_eval_bessel,
    "closed-form": _cmd_closed_form,
    "expansion": _cmd_expansion,
    "core-bounds": _cmd_core_bounds,
    "predict": _cmd_predict,
    "theorem-map": _cmd_theorem_map,
    "integrate": _cmd_integrate,
    "table": _cmd_table,
    "check-theorem": _cmd_check_theorem,
    "figure1": _cmd_figure1,
}


def run(config: RunConfig) -> int:
    """Dispatch a validated config; returns the process exit status."""
    return _DISPATCH[config.command](config)


def main(argv=None) -> int:
    try:
        config = parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return run(config)
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
