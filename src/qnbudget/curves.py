"""Named sensitivity curves evaluated over a frequency grid.

Curve names form a stable interface:

  sql                      free-mass standard quantum limit
  qcrb                     lossless optimal-readout bound (exact pipeline)
  loss_limit_a1            closed-form loss floor, alpha = 1 branch
  loss_limit_a4            closed-form loss floor, alpha = 1/4 branch
  full_optimal             exact pipeline, optimal readout angle
  full_fixed_zeta(<rad>)   exact pipeline, fixed readout angle
  fdt_floor                arm-loss floor via fluctuation-dissipation
  taylor_qcrb_internal     expansion of the lossless bound (with squeezing)
  taylor_qcrb_no_internal  expansion of the lossless bound (r = 0)
  taylor_loss_internal     expansion of the loss floor, alpha = 1
  taylor_loss_no_internal  expansion of the loss floor, alpha = 1/4
"""

from __future__ import annotations

import math
import re

import numpy as np

from . import errors, fdt, ifo, limits
from .config import IfoConfig
from .constants import TWO_PI
from .errors import ConfigError, DegeneracyError, _as_degeneracy, _raise_first

_FIXED_ZETA_RE = re.compile(r"^full_fixed_zeta\(([-+0-9.eE]+)\)$")


# frequencies evaluated per array call; bounds the stacked intermediates
CHUNK_POINTS = 8192


def parse_curve_name(name: str) -> tuple[str, float | None]:
    """Split a curve name into (kind, parameter); raises on unknown names."""
    if name in BASE_CURVES:
        return name, None
    m = _FIXED_ZETA_RE.match(name)
    if m:
        try:
            zeta = float(m.group(1))
        except ValueError:
            raise ConfigError(
                f"curve {name!r}: readout angle {m.group(1)!r} is not a number"
            ) from None
        if not math.isfinite(zeta):
            raise ConfigError(f"curve {name!r}: readout angle must be finite")
        return "full_fixed_zeta", zeta
    raise ConfigError(
        f"unknown curve {name!r}; choose from {', '.join(CURVE_CHOICES)}")


# kind -> f(chunk, parameter), the PSD over a grid chunk (a constant where
# the curve does not depend on frequency).  The chunk is its ifo._Solve:
# the exact curves read its loop solve, the closed forms only its cfg and w.
# Module functions are looked up at call time, so wrappers on them apply
_CURVES = {
    "sql": lambda chunk, _: limits.sql(chunk.cfg, chunk.w),
    "qcrb": lambda chunk, _: chunk.read(ifo._Solve.qcrb),
    "loss_limit_a1": lambda chunk, _: limits.loss_limit(
        chunk.cfg, chunk.w, limits.ALPHA_INTERNAL),
    "loss_limit_a4": lambda chunk, _: limits.loss_limit(
        chunk.cfg, chunk.w, limits.ALPHA_NO_INTERNAL),
    "full_optimal": lambda chunk, _: chunk.read(ifo._Solve.optimal),
    "full_fixed_zeta": lambda chunk, zeta: chunk.read(
        lambda solve: solve.homodyne(zeta)),
    "fdt_floor": lambda chunk, _: fdt.loss_floor_fdt(chunk.cfg, chunk.w),
    "taylor_qcrb_internal": lambda chunk, _: limits.taylor_qcrb_internal(
        chunk.cfg, chunk.w),
    "taylor_qcrb_no_internal": lambda chunk, _: limits.taylor_qcrb_no_internal(
        chunk.cfg, chunk.w),
    "taylor_loss_internal": lambda chunk, _: limits.taylor_loss_internal(
        chunk.cfg, chunk.w),
    "taylor_loss_no_internal": lambda chunk, _: limits.taylor_loss_no_internal(
        chunk.cfg, chunk.w),
}

# the kinds of the exact pipeline, which read the chunk's loop solve
_EXACT = ("qcrb", "full_optimal", "full_fixed_zeta")

BASE_CURVES = tuple(kind for kind in _CURVES if kind != "full_fixed_zeta")
CURVE_CHOICES = BASE_CURVES + ("full_fixed_zeta(<rad>)",)


def evaluate_curve(name: str, cfg: IfoConfig, f_hz: np.ndarray) -> np.ndarray:
    """Evaluate one named curve as a PSD array over the frequency grid.

    The grid is a 1-D array of frequencies [Hz], run in chunks of
    CHUNK_POINTS frequencies.  A degeneracy, or a PSD value negative or not
    finite, is reported at its first grid frequency.  So is a closed form's
    OverflowError or ZeroDivisionError, at the chunk's first frequency (see
    errors._as_degeneracy).
    """
    return _evaluate((name,), cfg, f_hz)[name]


def _evaluate(names, cfg: IfoConfig, f_hz) -> dict:
    """{name: PSD array} for the distinct curves `names`, in their order.

    Values, errors and warnings are those of a loop calling evaluate_curve
    on each name in turn: the first curve in order that fails raises, at
    its first failing frequency.  The exact curves walk the grid together
    when the first of them is reached, so they share one loop solve per
    chunk; every other curve walks it alone, in order, since only those
    may warn.  The once-per-location record of the RegimeWarnings
    (errors._SHOWN) is emptied first, so each call prints what a fresh
    process prints and the record does not grow over calls.
    """
    errors._SHOWN.clear()
    f_hz = np.asarray(f_hz, dtype=float)
    if f_hz.ndim != 1:
        raise ValueError("frequency grid must be a 1-D array, "
                         f"got shape {f_hz.shape}")
    exact = tuple(name for name in names
                  if parse_curve_name(name)[0] in _EXACT)
    spectra = {}
    for name in names:
        if name not in exact:
            spectra.update(_walk((name,), cfg, f_hz))
        elif name not in spectra:
            spectra.update(_walk(exact, cfg, f_hz))
        if isinstance(spectra[name], DegeneracyError):
            raise spectra[name]
    return {name: spectra[name] for name in names}


def _walk(names, cfg: IfoConfig, f_hz: np.ndarray) -> dict:
    """{name: PSD array, or the DegeneracyError it fails with}, from one walk
    over the chunks.

    A curve that fails stops the walk for itself and every name after it,
    which a loop over the names would not reach.  numpy's warnings are off:
    the PSD check reports a value beyond the double range at its frequency.
    """
    live = [(name, *parse_curve_name(name)) for name in names]
    out = {name: np.empty(len(f_hz)) for name in names}
    with np.errstate(all="ignore"):   # once per walk: each costs about 2 us
        for start in range(0, len(f_hz), CHUNK_POINTS):
            chunk = f_hz[start:start + CHUNK_POINTS]
            solve = ifo._Solve(cfg, TWO_PI * chunk)
            for k, (name, kind, param) in enumerate(live):
                values = out[name][start:start + len(chunk)]
                try:
                    values[:] = _CURVES[kind](solve, param)
                    _raise_first((~(np.isfinite(values) & (values >= 0.0)),
                                  DegeneracyError,
                                  lambda i: f"PSD value {values[i]:.6g} is "
                                            "not finite and non-negative"))
                except ArithmeticError as exc:
                    error = _as_degeneracy(exc)
                    out[name] = type(error)(f"curve {name!r} failed at "
                                            f"{chunk[error.index]:.6g} Hz: {error}",
                                            index=start + error.index)
                    out[name].__cause__ = exc
                    del live[k:]
                    break
    return out
