"""Exact analysis of monogenic orders Z[alpha] in cubic fields, alpha^3 =
a*alpha - b: associated-order basis and module index in the unique
Hopf-Galois structure, freeness verdict with a verified generator, and a
maximality test for Z[alpha] against the full ring of integers."""

__version__ = "0.1.0"

from .cubicfield import HopfElement, OrderElement, TrinomialCubic, validate
from .assocorder import AssociatedOrder, build, classify
from .freeness import FreenessReport, decide_freeness, is_generator
from .integrality import MaximalityReport, combined_verdict, is_maximal

__all__ = [
    "__version__",
    "AssociatedOrder",
    "FreenessReport",
    "HopfElement",
    "MaximalityReport",
    "OrderElement",
    "TrinomialCubic",
    "build",
    "classify",
    "combined_verdict",
    "decide_freeness",
    "is_generator",
    "is_maximal",
    "validate",
]
