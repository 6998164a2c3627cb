"""Certified evaluation of integrals of sixfold products of Bessel functions.

The package computes the two families of integrals

    I0(m, n) = integral_0^inf J_{n+m} J_n J_m J_0^3 r dr
    I1(m, n) = integral_0^inf J_{n+m} J_n J_m J_1^2 J_0 r dr

two independent ways: analytically for n >= 20 (closed-form main terms plus a
fully itemized, rigorous error radius) and numerically for small n
(Gauss-Legendre panels, or the paper's composite Newton-Cotes rule, with
certified error bounds and tail control).  All underlying constants are
recomputed from exact arithmetic rather than trusted.

The analytic route needs no numpy, so importing the package does not load
it: the numeric names below load ``bessel`` or ``quadrature`` (and numpy)
on first use.
"""

from importlib import import_module

from .certify import Prediction, check_theorem, predict
from .exactnum import CertificationError, CertifiedValue, ExactScalar, Rational

__version__ = "0.1.0"

# name -> the submodule that defines it, imported on first access
_NUMERIC = {
    "bessel_j": "bessel",
    "integral": "quadrature",
    "build_table": "quadrature",
    "QuadratureScheme": "quadrature",
    "DEFAULT_SCHEME": "quadrature",
    "PAPER_SCHEME": "quadrature",
}


def __getattr__(name: str):
    """Serve a numeric name (PEP 562), binding it so later lookups skip this."""
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_NUMERIC[name]}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "CertificationError",
    "CertifiedValue",
    "DEFAULT_SCHEME",
    "ExactScalar",
    "PAPER_SCHEME",
    "Prediction",
    "QuadratureScheme",
    "Rational",
    "bessel_j",
    "build_table",
    "check_theorem",
    "integral",
    "predict",
    "__version__",
]
