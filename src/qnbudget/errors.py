"""Exception and warning types used throughout the package."""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid configuration document or parameter set."""


class DegeneracyError(ArithmeticError):
    """A numerical degeneracy prevents evaluation at this point.

    index is the position of the offending point in the frequency batch
    that was evaluated (0 for a scalar frequency), or None.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class LasingThresholdError(DegeneracyError):
    """Round-trip gain of the recycling loop reached unity."""


class BlindQuadratureError(DegeneracyError):
    """Requested readout quadrature carries no signal."""


class RegimeWarning(UserWarning):
    """A closed-form result is being used outside its validity regime."""
