"""Exact computations around a rank-2 pair of Calabi-Yau 3-folds.

The package derives, entirely in integer arithmetic, the zero-divisor
relation L*([X] - [Y]) = 0 between the classes of two Calabi-Yau
3-folds cut from the two 5-dimensional quotients of the full flag
variety of G2, and computes the polarization degrees 42 and 14 that
keep [X] and [Y] distinct.

Layers, bottom up: root systems from Cartan matrices (rootsys), Weyl
groups with canonical reduced words (weyl), cell-count polynomials in
the Lefschetz class (motive), rewrite engine with derivation
certificates (grothring) plus an independent replay checker (replay),
Schubert calculus for the degree computations (schubert), and the
command line (cli).
"""

from .errors import (
    CapExceededError,
    CircularRuleError,
    ConventionError,
    DomainError,
    NotFiniteTypeError,
    PicardError,
    PoincareMismatchError,
    ReplayError,
    UnknownTypeError,
)
from .rootsys import CartanMatrix, RootSystem, parse_cartan, root_system
from .weyl import WeylElement, WeylGroup, word_name
from .motive import L, LPolynomial, poincare_polynomial, projective_bundle_poly
from .grothring import (
    Derivation,
    IdentityCertificate,
    MotivicClass,
    RewriteRule,
    Step,
    blowup_rule,
    normal_form,
    verify_g2_identity,
)
from .replay import check_certificate, check_derivation, check_document, check_step
from .schubert import (
    CohomologyElement,
    DivisorClass,
    SchubertRing,
    chern_of_pushforward_bundle,
    degree_of_zero_locus,
    pushforward,
)
from .cli import run

__version__ = "1.0.0"

__all__ = [
    "CapExceededError",
    "CartanMatrix",
    "CircularRuleError",
    "CohomologyElement",
    "ConventionError",
    "Derivation",
    "DivisorClass",
    "DomainError",
    "IdentityCertificate",
    "L",
    "LPolynomial",
    "MotivicClass",
    "NotFiniteTypeError",
    "PicardError",
    "PoincareMismatchError",
    "ReplayError",
    "RewriteRule",
    "RootSystem",
    "SchubertRing",
    "Step",
    "UnknownTypeError",
    "WeylElement",
    "WeylGroup",
    "blowup_rule",
    "check_certificate",
    "check_derivation",
    "check_document",
    "check_step",
    "chern_of_pushforward_bundle",
    "degree_of_zero_locus",
    "normal_form",
    "parse_cartan",
    "poincare_polynomial",
    "projective_bundle_poly",
    "pushforward",
    "root_system",
    "run",
    "verify_g2_identity",
    "word_name",
    "__version__",
]
