"""Exception types shared across the package."""


class BranchlabError(Exception):
    """Base class for package errors."""


class DomainError(BranchlabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NonConvergence(BranchlabError, RuntimeError):
    """An iterative solver failed to reach its residual target."""


class NoPeriodDetected(BranchlabError, RuntimeError):
    """No stationary cycle was found within the solved horizon."""


class ConstraintViolation(BranchlabError, ValueError):
    """Cycle multipliers violate their admissibility constraints."""


class TooManyRestarts(BranchlabError, RuntimeError):
    """Survival conditioning gave up after too many extinct attempts."""


class HorizonOverflow(BranchlabError, ArithmeticError):
    """A value overflowed float64 before the requested horizon."""


class InsufficientOverlap(BranchlabError, ValueError):
    """Two snapshots share too little common support to be compared."""


class UsageError(BranchlabError, ValueError):
    """Bad command line or configuration input (exit code 2)."""
