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

The curves of a request, exact or closed-form, walk the grid in one pass.
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

    Every curve walks the grid in one pass over the chunks, so the exact
    curves share one loop solve per chunk.  Values and errors are those of
    a loop calling evaluate_curve on each name in turn: a failing curve
    stops the walk for itself and every later name, which that loop would
    not reach, and the first failing curve in order raises.  So are the
    warnings on a grid of one chunk; on a longer grid they come chunk by
    chunk.  numpy's warnings are off: the PSD check reports a value beyond
    the double range at its frequency.  The once-per-location record of
    the RegimeWarnings (errors._SHOWN) is emptied first, so each call
    prints what a fresh process prints and the record does not grow.
    """
    errors._SHOWN.clear()
    f_hz = np.asarray(f_hz, dtype=float)
    if f_hz.ndim != 1:
        raise ValueError("frequency grid must be a 1-D array, "
                         f"got shape {f_hz.shape}")
    live = [(name, *parse_curve_name(name)) for name in names]
    out = {name: np.empty(len(f_hz)) for name in names}
    with np.errstate(all="ignore"):   # once per call: each costs about 2 us
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
    for spectrum in out.values():
        if isinstance(spectrum, DegeneracyError):
            raise spectrum
    return out
