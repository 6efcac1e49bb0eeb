"""Exception types shared across the package."""


class QstabError(Exception):
    """Base class for all package errors."""


class StructureError(QstabError):
    """Matrix blocks or series coefficients violate a structural requirement."""


class NotHurwitzError(QstabError):
    """An operation that requires a Hurwitz drift matrix was given an unstable one."""


class ConsistencyError(QstabError):
    """Two redundant internal computations disagree beyond tolerance.

    This signals an implementation bug rather than bad user input.
    """


class QmiInfeasibleError(QstabError):
    """No strict solution of the matrix inequality: the Riccati equation has no
    stabilizing solution, or a P fails the strictness check min eig P, c > 0."""


class TruncationError(QstabError):
    """The Fock-space truncation is too small for the requested check."""


class SimulationError(QstabError):
    """The master-equation integration left its validity envelope."""
