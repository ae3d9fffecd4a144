"""Exception and warning types, and the rules by which a point is rejected."""

from __future__ import annotations

import sys
import warnings

import numpy as np

from .quadrature import all_true, any_true


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


# Python's once-per-location record of the RegimeWarnings, one record per
# function whose caller a warning is attributed to; curves._evaluate and
# run_validation empty it at each request, so each request prints what a
# fresh process prints
_SHOWN: dict = {}


def _regime_warning(message: str, stacklevel: int) -> None:
    """warnings.warn(message, RegimeWarning, stacklevel), recorded in _SHOWN
    rather than in the globals of the module it is attributed to, so a
    wrapper around the warning function moves where it points, not how
    often it prints or which record clears it."""
    caller = sys._getframe(stacklevel)
    registry = _SHOWN.setdefault(sys._getframe(stacklevel - 1).f_code, {})
    warnings.warn_explicit(message, RegimeWarning, caller.f_code.co_filename,
                           caller.f_lineno,
                           caller.f_globals.get("__name__", "<string>"),
                           registry)


def _raise_first(*checks) -> None:
    """Raise for the lowest-index point of the batch that fails a check.

    Each check is (mask over the batch, error type, message(index)), listed
    in the order one point runs them, so a batch reports the failure that a
    loop over its points meets first, with its index (0 for a scalar).  A
    scalar mask, a check that does not depend on frequency, fails at index 0.
    """
    if not any(any_true(mask) for mask, _, _ in checks):
        return
    masks = np.broadcast_arrays(*(np.reshape(m, -1) for m, _, _ in checks))
    i = int(np.argmax(np.any(masks, axis=0)))
    _, error, message = checks[int(np.argmax([m[i] for m in masks]))]
    raise error(message(i), index=i)


def _as_degeneracy(exc: ArithmeticError) -> DegeneracyError:
    """exc as a DegeneracyError.

    Python raises OverflowError or ZeroDivisionError only for arithmetic
    on a config's scalar constants (numpy arrays give inf or nan instead),
    which fails at every frequency alike, so it is reported at index 0.
    The message quotes the failing line, which names the config fields.
    """
    if isinstance(exc, DegeneracyError):
        return exc
    import traceback   # about 1 ms, paid on this error path only
    line = traceback.extract_tb(exc.__traceback__)[-1].line
    return DegeneracyError(f"arithmetic on the config's constants failed in "
                           f"`{line}` ({type(exc).__name__}: {exc})",
                           index=0)


def _check_sideband(omega) -> None:
    """Raise ValueError for the first sideband frequency not finite and >= 0."""
    valid = (omega >= 0.0) & (omega < np.inf)
    if not all_true(valid):
        bad = np.reshape(omega, -1)[np.argmin(np.reshape(valid, -1))]
        raise ValueError(
            f"sideband frequency must be finite and >= 0, got {float(bad)!r} rad/s")
