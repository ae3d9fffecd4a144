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
from .config import IfoConfig, value_at
from .constants import TWO_PI
from .errors import ConfigError, DegeneracyError

BASE_CURVES = (
    "sql",
    "qcrb",
    "loss_limit_a1",
    "loss_limit_a4",
    "full_optimal",
    "fdt_floor",
    "taylor_qcrb_internal",
    "taylor_qcrb_no_internal",
    "taylor_loss_internal",
    "taylor_loss_no_internal",
)

CURVE_CHOICES = BASE_CURVES + ("full_fixed_zeta(<rad>)",)

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


def frequency_grid(f_lo_hz: float, f_hi_hz: float, points: int) -> np.ndarray:
    """Log-spaced frequency grid [Hz]."""
    return np.geomspace(f_lo_hz, f_hi_hz, points)


def _expansion_inputs(cfg: IfoConfig, omega: np.ndarray):
    """(Theta, r, theta) for the expansion formulas over omega.

    The formulas use the expansion angle convention, which is minus twice
    the squeeze-matrix ellipse angle.
    """
    theta_rot = value_at(cfg.Theta, omega / TWO_PI)
    r, theta_m, _ = ifo._squeeze_state(cfg, omega)
    return theta_rot, r, -2.0 * theta_m


def _taylor_qcrb_internal(cfg, omega, _):
    theta_rot, r, theta = _expansion_inputs(cfg, omega)
    return limits.taylor_qcrb_internal(cfg.T_src, theta_rot, r, theta,
                                       cfg.r_input, cfg.L, cfg.omega0, cfg.P)


def _taylor_qcrb_no_internal(cfg, omega, _):
    theta_rot, _, _ = _expansion_inputs(cfg, omega)
    return limits.taylor_qcrb_no_internal(cfg.T_src, theta_rot, cfg.r_input,
                                          cfg.L, cfg.omega0, cfg.P)


# kind -> f(cfg, omega array, parameter), each returning the PSD over omega
# (a constant where the curve does not depend on frequency); the module
# functions are looked up at call time, so wrappers installed on them apply
_CURVES = {
    "sql": lambda cfg, w, _: limits.sql(cfg.M, cfg.L, w),
    "qcrb": lambda cfg, w, _: ifo.qcrb_lossless(cfg, w),
    "loss_limit_a1": lambda cfg, w, _: limits.loss_limit(
        cfg, w, limits.ALPHA_INTERNAL),
    "loss_limit_a4": lambda cfg, w, _: limits.loss_limit(
        cfg, w, limits.ALPHA_NO_INTERNAL),
    "full_optimal": lambda cfg, w, _: ifo.optimal_spectrum(cfg, w)[0],
    "full_fixed_zeta": lambda cfg, w, zeta: ifo.homodyne_spectrum(cfg, w, zeta),
    "fdt_floor": lambda cfg, w, _: fdt.loss_floor_fdt(cfg, w),
    "taylor_qcrb_internal": _taylor_qcrb_internal,
    "taylor_qcrb_no_internal": _taylor_qcrb_no_internal,
    "taylor_loss_internal": lambda cfg, w, _: limits.taylor_loss_internal(
        cfg, w),
    "taylor_loss_no_internal": lambda cfg, w, _: limits.taylor_loss_no_internal(
        cfg, w),
}


def evaluate_curve(name: str, cfg: IfoConfig, f_hz: np.ndarray) -> np.ndarray:
    """Evaluate one named curve as a PSD array over the frequency grid.

    The grid is evaluated in chunks of CHUNK_POINTS frequencies; a numerical
    degeneracy is reported at the first grid frequency where it occurs.
    """
    kind, param = parse_curve_name(name)
    curve = _CURVES[kind]
    f_hz = np.asarray(f_hz, dtype=float)
    out = np.empty(len(f_hz))
    for start in range(0, len(f_hz), CHUNK_POINTS):
        chunk = f_hz[start:start + CHUNK_POINTS]
        try:
            out[start:start + len(chunk)] = curve(cfg, TWO_PI * chunk, param)
        except DegeneracyError as exc:
            f = chunk[exc.index]
            raise type(exc)(f"curve {name!r} failed at {f:.6g} Hz: {exc}",
                            index=start + exc.index) from exc
    return out
