"""Exact Kazhdan-Lusztig and twisted Kazhdan-Lusztig polynomials for
universal Coxeter systems, with positivity and parity verifiers."""

from .words import (
    CoxeterSpec,
    Word,
    bruhat_leq,
    bruhat_leq_twisted,
    ell_star,
    enumerate_twisted_involutions,
    enumerate_words,
    rho,
    twist,
    twist_expression,
    twist_word,
)
from .laurent import LaurentPoly, parse_poly
from .hecke import KLTable, kl_product, triple_product
from .twisted import TwistedKLTable, twisted_product
from .positivity import Bounds, SweepReport, kl_halves, product_halves, verify

__version__ = "0.1.0"

__all__ = [
    "Bounds",
    "CoxeterSpec",
    "KLTable",
    "LaurentPoly",
    "SweepReport",
    "TwistedKLTable",
    "Word",
    "bruhat_leq",
    "bruhat_leq_twisted",
    "ell_star",
    "enumerate_twisted_involutions",
    "enumerate_words",
    "kl_halves",
    "kl_product",
    "parse_poly",
    "product_halves",
    "rho",
    "triple_product",
    "twist",
    "twist_expression",
    "twist_word",
    "twisted_product",
    "verify",
    "__version__",
]
