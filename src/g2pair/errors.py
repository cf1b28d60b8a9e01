"""Exception types shared across the package.

``DomainError`` covers well-formed requests whose answer does not exist
(unknown type name, enumeration cap exceeded, mismatched inputs, ...).
The command line maps DomainError to exit code 1 and reserves exit code 2
for malformed invocations.
"""


class DomainError(Exception):
    pass


class UnknownTypeError(DomainError):
    """Cartan type string that names no known family or valid literal."""


class CapExceededError(DomainError):
    """An enumeration grew past the configured cap."""


class NotFiniteTypeError(CapExceededError):
    """A Cartan matrix of infinite type: its enumerations never end, so no
    cap is large enough."""


class CircularRuleError(DomainError):
    """Rewrite rules whose symbols form a cycle; substitution would not halt."""


class PicardError(DomainError):
    """Divisor weight with support on a Levi node of the quotient."""


class ConventionError(DomainError):
    """A built-in convention self-test failed (fiber degree, bundle relation)."""


class ReplayError(DomainError):
    """A derivation step did not survive independent re-execution."""


class PoincareMismatchError(DomainError):
    """Identity inputs with different cell-count polynomials.

    Carries the blocking residual so callers can report exactly what
    remained: ``residual`` is the formal class difference of the two
    ambient symbols, ``difference`` the polynomial by which they differ.
    """

    def __init__(self, message: str, residual=None, difference=None):
        super().__init__(message)
        self.residual = residual
        self.difference = difference
