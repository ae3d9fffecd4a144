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


def parse_curve_name(name: str) -> tuple[str, float | None]:
    """Split a curve name into (kind, parameter); raises on unknown names."""
    if name in BASE_CURVES:
        return name, None
    m = _FIXED_ZETA_RE.match(name)
    if m:
        zeta = float(m.group(1))
        if not math.isfinite(zeta):
            raise ConfigError(f"curve {name!r}: readout angle must be finite")
        return "full_fixed_zeta", zeta
    raise ConfigError(
        f"unknown curve {name!r}; choose from {', '.join(CURVE_CHOICES)}")


def frequency_grid(f_lo_hz: float, f_hi_hz: float, points: int) -> np.ndarray:
    """Log-spaced frequency grid [Hz]."""
    return np.geomspace(f_lo_hz, f_hi_hz, points)


def _expansion_inputs(cfg: IfoConfig, omega: float):
    """(Theta, r, theta) for the expansion formulas at one frequency.

    The formulas use the expansion angle convention, which is minus twice
    the squeeze-matrix ellipse angle.
    """
    f_hz = omega / TWO_PI
    theta_rot = value_at(cfg.Theta, f_hz)
    r, theta_m, _ = ifo._squeeze_state(cfg, omega)
    return theta_rot, r, -2.0 * theta_m


def evaluate_curve(name: str, cfg: IfoConfig, f_hz: np.ndarray) -> np.ndarray:
    """Evaluate one named curve as a PSD array over the frequency grid."""
    kind, param = parse_curve_name(name)
    out = np.empty(len(f_hz))
    for i, f in enumerate(f_hz):
        omega = TWO_PI * f
        try:
            if kind == "sql":
                out[i] = limits.sql(cfg.M, cfg.L, omega)
            elif kind == "qcrb":
                out[i] = ifo.qcrb_lossless(cfg, omega)
            elif kind == "loss_limit_a1":
                out[i] = limits.loss_limit(cfg, omega, limits.ALPHA_INTERNAL)
            elif kind == "loss_limit_a4":
                out[i] = limits.loss_limit(cfg, omega, limits.ALPHA_NO_INTERNAL)
            elif kind == "full_optimal":
                out[i] = ifo.optimal_spectrum(cfg, omega)[0]
            elif kind == "full_fixed_zeta":
                out[i] = ifo.homodyne_spectrum(cfg, omega, param)
            elif kind == "fdt_floor":
                out[i] = fdt.loss_floor_fdt(cfg, omega)
            elif kind == "taylor_qcrb_internal":
                theta_rot, r, theta = _expansion_inputs(cfg, omega)
                out[i] = limits.taylor_qcrb_internal(
                    cfg.T_src, theta_rot, r, theta, cfg.r_input,
                    cfg.L, cfg.omega0, cfg.P)
            elif kind == "taylor_qcrb_no_internal":
                theta_rot, _, _ = _expansion_inputs(cfg, omega)
                out[i] = limits.taylor_qcrb_no_internal(
                    cfg.T_src, theta_rot, cfg.r_input, cfg.L, cfg.omega0, cfg.P)
            elif kind == "taylor_loss_internal":
                out[i] = limits.taylor_loss_internal(cfg, omega)
            else:
                out[i] = limits.taylor_loss_no_internal(cfg, omega)
        except DegeneracyError as exc:
            raise type(exc)(
                f"curve {name!r} failed at {f:.6g} Hz: {exc}") from exc
    return out
