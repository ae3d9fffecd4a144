"""Fluctuation-dissipation cross-check of the arm-loss sensitivity floor.

Models the arm cavity field as a single damped mode whose loss channel acts
as a zero-temperature bath.  The zero-temperature fluctuation-dissipation
relation S_xx = 2 hbar Im[chi_xx] then gives the phase-quadrature
fluctuation directly from the mode susceptibilities, and normalising by the
strain response reproduces the arm-loss term of the closed-form loss floor.
This path shares no code with the matrix pipeline, so it serves as an
independent oracle for that term.

The susceptibilities live at absolute optical frequency; the public
loss_floor_fdt shifts the sideband frequency by the carrier internally so
its surface matches the rest of the package.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .config import IfoConfig
from .constants import C_LIGHT, HBAR
from .errors import DegeneracyError, RegimeWarning, _check_sideband

# single-mode treatment needs the damping rate far below the resonance
MODE_VALIDITY_RATIO = 1e3


@dataclass(frozen=True)
class CavityMode:
    """Single cavity mode: resonance omega_cav and loss damping rate [rad/s].

    Warns when the damping rate is not far below the resonance, where the
    rotating single-mode approximation degrades.
    """

    omega_cav: float
    gamma_eps: float

    def __post_init__(self):
        if not (self.omega_cav > 0 and self.gamma_eps > 0):
            raise ValueError("omega_cav and gamma_eps must be positive")
        if self.omega_cav / self.gamma_eps < MODE_VALIDITY_RATIO:
            warnings.warn(
                f"omega_cav/gamma_eps = {self.omega_cav / self.gamma_eps:.3g} "
                f"< {MODE_VALIDITY_RATIO:g}: single-mode approximation is "
                "unreliable", RegimeWarning, stacklevel=3)


def mode_for(cfg: IfoConfig) -> CavityMode:
    """Cavity mode implied by a configuration: resonant carrier, loss damping.

    A damping rate that underflows to 0 (L beyond about 1e307 m) raises
    DegeneracyError.
    """
    gamma_eps = C_LIGHT * cfg.eps_arm / (4.0 * cfg.L)
    if gamma_eps == 0.0 < cfg.eps_arm:
        raise DegeneracyError(f"loss damping rate c * eps_arm / (4 L) is 0 "
                              f"at L = {cfg.L!r}", index=0)
    return CavityMode(omega_cav=cfg.omega0, gamma_eps=gamma_eps)


def _denominator(mode: CavityMode, omega: float) -> complex:
    # omega_cav**2 first: a resonance whose square overflows raises
    # OverflowError before numpy squares the array term and warns
    return mode.omega_cav**2 + (mode.gamma_eps - 1j * omega) ** 2


def chi_phase_phase(mode: CavityMode, omega: float) -> complex:
    """Phase-quadrature self-susceptibility omega_cav / (hbar D)."""
    return mode.omega_cav / (HBAR * _denominator(mode, omega))


def chi_phase_amp(mode: CavityMode, omega: float) -> complex:
    """Phase response to an amplitude drive, (i omega - gamma) / (hbar D)."""
    return (1j * omega - mode.gamma_eps) / (HBAR * _denominator(mode, omega))


def gw_coupling(power: float, omega0: float, arm_length: float) -> float:
    """Strain coupling rate g = 2 sqrt(P omega0 / (hbar L c))."""
    if power < 0 or omega0 <= 0 or arm_length <= 0:
        raise ValueError("power must be >= 0; omega0 and L must be positive")
    return 2.0 * math.sqrt(power * omega0 / (HBAR * arm_length * C_LIGHT))


def loss_floor_fdt(cfg: IfoConfig, omega):
    """Arm-loss sensitivity floor from the fluctuation-dissipation relation.

    Evaluates 2 Im[chi_22] / (hbar g^2 L^2 |chi_21|^2) at the absolute
    frequency omega0 + Omega, which reduces to
    hbar c^2 eps_arm / (4 L^2 omega0 P) deep inside the validity regime.
    The ratio of the two susceptibilities is formed from a shared
    denominator, so near-resonance cancellation does not degrade it.  An
    array of omega gives an array.
    """
    _check_sideband(omega)
    if cfg.eps_arm == 0.0:
        return 0.0 * omega
    mode = mode_for(cfg)
    w_abs = cfg.omega0 + omega
    cpp = chi_phase_phase(mode, w_abs)
    cpa = chi_phase_amp(mode, w_abs)
    g = gw_coupling(cfg.P, cfg.omega0, cfg.L)
    return 2.0 * cpp.imag / (HBAR * g**2 * cfg.L**2 * abs(cpa) ** 2)


def coupled_susceptibilities(chi_pp: complex, chi_pa: complex,
                             chi_free: complex) -> tuple[complex, complex]:
    """Susceptibilities after coupling the mode to another degree of freedom.

    Both acquire the shared denominator 1 - chi_pp * chi_free.  For a real
    (dissipation-free) chi_free the ratio Im[chi_pp] / |chi_pa|^2, and hence
    the loss floor, is left invariant.
    """
    den = 1.0 - chi_pp * chi_free
    if den == 0.0:
        raise ValueError("coupling denominator vanishes")
    return chi_pp / den, chi_pa / den
