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

from . import fdt, ifo, limits
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


# kind -> f(cfg, omega array, parameter), each returning the PSD over omega
# (a constant where the curve does not depend on frequency); the module
# functions are looked up at call time, so wrappers installed on them apply
_CURVES = {
    "sql": lambda cfg, w, _: limits.sql(cfg, w),
    "qcrb": lambda cfg, w, _: ifo.qcrb_lossless(cfg, w),
    "loss_limit_a1": lambda cfg, w, _: limits.loss_limit(
        cfg, w, limits.ALPHA_INTERNAL),
    "loss_limit_a4": lambda cfg, w, _: limits.loss_limit(
        cfg, w, limits.ALPHA_NO_INTERNAL),
    "full_optimal": lambda cfg, w, _: ifo.optimal_spectrum(cfg, w)[0],
    "full_fixed_zeta": lambda cfg, w, zeta: ifo.homodyne_spectrum(cfg, w, zeta),
    "fdt_floor": lambda cfg, w, _: fdt.loss_floor_fdt(cfg, w),
    "taylor_qcrb_internal": lambda cfg, w, _: limits.taylor_qcrb_internal(
        cfg, w),
    "taylor_qcrb_no_internal": lambda cfg, w, _: limits.taylor_qcrb_no_internal(
        cfg, w),
    "taylor_loss_internal": lambda cfg, w, _: limits.taylor_loss_internal(
        cfg, w),
    "taylor_loss_no_internal": lambda cfg, w, _: limits.taylor_loss_no_internal(
        cfg, w),
}

BASE_CURVES = tuple(kind for kind in _CURVES if kind != "full_fixed_zeta")
CURVE_CHOICES = BASE_CURVES + ("full_fixed_zeta(<rad>)",)


def evaluate_curve(name: str, cfg: IfoConfig, f_hz: np.ndarray) -> np.ndarray:
    """Evaluate one named curve as a PSD array over the frequency grid.

    The grid runs in chunks of CHUNK_POINTS frequencies.  A degeneracy, or a
    PSD value negative or not finite, is reported at its first grid frequency.
    So is an OverflowError or ZeroDivisionError, at the chunk's first
    frequency (see errors._as_degeneracy).
    """
    kind, param = parse_curve_name(name)
    curve = _CURVES[kind]
    f_hz = np.asarray(f_hz, dtype=float)
    out = np.empty(len(f_hz))
    for start in range(0, len(f_hz), CHUNK_POINTS):
        chunk = f_hz[start:start + CHUNK_POINTS]
        values = out[start:start + len(chunk)]
        try:
            values[:] = curve(cfg, TWO_PI * chunk, param)
            _raise_first((~(np.isfinite(values) & (values >= 0.0)), DegeneracyError,
                          lambda i: f"PSD value {values[i]:.6g} is not finite "
                                    "and non-negative"))
        except ArithmeticError as exc:
            error = _as_degeneracy(exc)
            raise type(error)(
                f"curve {name!r} failed at {chunk[error.index]:.6g} Hz: {error}",
                index=start + error.index) from exc
    return out
