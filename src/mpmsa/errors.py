"""Exception types shared across the package."""

from __future__ import annotations


class ConfigurationError(ValueError):
    """A spec string, size parameter or config file is malformed or out of range."""


class ContractViolation(ValueError):
    """A documented precondition of an operation was violated by the caller."""


class BudgetExceeded(RuntimeError):
    """A vertex or volume budget would be exceeded; computation refused."""


class DataError(ValueError):
    """Numeric input is unusable (non-finite entries, wrong shape)."""


class ResonanceError(ArithmeticError):
    """The requested energy is too close to the spectrum for a meaningful resolvent.

    Carries the offending distance so callers can report or widen guards.
    """

    def __init__(self, dist_to_spectrum: float, guard: float):
        self.dist_to_spectrum = float(dist_to_spectrum)
        super().__init__(
            f"energy within {dist_to_spectrum:.3e} of the spectrum (guard {guard:.1e})"
        )
