"""Certified evaluation of integrals of sixfold products of Bessel functions.

The package computes the two families of integrals

    I0(m, n) = integral_0^inf J_{n+m} J_n J_m J_0^3 r dr
    I1(m, n) = integral_0^inf J_{n+m} J_n J_m J_1^2 J_0 r dr

two independent ways: analytically for n >= 20 (closed-form main terms plus a
fully itemized, rigorous error radius) and numerically for small n
(Gauss-Legendre panels, or the paper's composite Newton-Cotes rule, with
certified error bounds and tail control).  All underlying constants are
recomputed from exact arithmetic rather than trusted.
"""

from .bessel import CertifiedValue, bessel_j
from .certify import Prediction, check_theorem, predict
from .exactnum import CertificationError, ExactScalar, Rational
from .quadrature import DEFAULT_SCHEME, PAPER_SCHEME, QuadratureScheme, build_table, integral

__version__ = "0.1.0"

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
