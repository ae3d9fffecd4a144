"""Closed-form sensitivity limits and their leading-order expansions.

Covers the free-mass standard quantum limit, the power-fluctuation
(Cramer-Rao) bound conversion, the optical-loss sensitivity floor with and
without internal squeezing, and the small-parameter expansions of the
optimal-readout spectra.  The expansion formulas are valid for small
recycling transmissivity and rotation angle; out-of-regime use emits a
RegimeWarning rather than an error, since the exact pipeline in
:mod:`qnbudget.ifo` remains authoritative.

Angle convention: the squeeze angle ``theta`` appearing in the expansion
formulas equals minus twice the ellipse angle of
:func:`qnbudget.quadrature.squeeze_matrix`; the two parametrizations
coincide at theta = 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .config import FreqTable, IfoConfig
from .constants import C_LIGHT, HBAR
from .errors import RegimeWarning
from .ifo import effective_internal_loss
from .quadrature import arccot

REGIME_T_SRC = 0.05
REGIME_THETA = 0.05

ALPHA_INTERNAL = 1.0       # internal squeezing maximises power fluctuation
ALPHA_NO_INTERNAL = 0.25   # internal squeezing negligible
_ALPHAS = (ALPHA_INTERNAL, ALPHA_NO_INTERNAL)


@dataclass(frozen=True)
class LimitParams:
    """Derived expansion parameters: delta, theta0 and the alpha selector."""

    delta: float
    theta0: float
    alpha: float = ALPHA_NO_INTERNAL

    def __post_init__(self):
        if not math.isfinite(self.delta) or self.delta <= 0.0:
            raise ValueError("delta must be positive and finite")
        if not 0.0 < self.theta0 < math.pi:
            raise ValueError("theta0 must lie in (0, pi)")
        if self.alpha not in _ALPHAS:
            raise ValueError(f"alpha must be one of {_ALPHAS}")


def limit_params(t_src: float, theta_rot: float,
                 alpha: float = ALPHA_NO_INTERNAL) -> LimitParams:
    """delta = sqrt(T_src^2 + 16 Theta^2) and theta0 = arccot(4 Theta / T_src)."""
    return LimitParams(delta=math.hypot(t_src, 4.0 * theta_rot),
                       theta0=arccot(4.0 * theta_rot / t_src),
                       alpha=alpha)


def _warn_regime(**named) -> None:
    for name, (value, bound) in named.items():
        if value is not None and abs(value) >= bound:
            warnings.warn(
                f"{name} = {value:.3g} is outside the expansion regime "
                f"(|{name}| < {bound:g}); the exact pipeline is authoritative",
                RegimeWarning, stacklevel=3)


def _max_theta(cfg: IfoConfig) -> float:
    if isinstance(cfg.Theta, FreqTable):
        return max(abs(x) for x in cfg.Theta.values)
    return abs(cfg.Theta)


def sql(mirror_mass: float, arm_length: float, omega: float) -> float:
    """Free-mass standard quantum limit 8 hbar / (M Omega^2 L^2) [1/Hz]."""
    if min(mirror_mass, arm_length, omega) <= 0:
        raise ValueError("mass, length and frequency must be positive")
    return 8.0 * HBAR / (mirror_mass * omega**2 * arm_length**2)


def _power_bound_map(x: float, arm_length: float, what: str) -> float:
    # hbar^2 c^2 / (2 x L^2) maps S_PP to S_hh and back: it is its own inverse
    if x <= 0:
        raise ValueError(f"{what} must be positive")
    return HBAR**2 * C_LIGHT**2 / (2.0 * x * arm_length**2)


def qcrb_from_spp(s_pp: float, arm_length: float) -> float:
    """Sensitivity bound hbar^2 c^2 / (2 S_PP L^2) from arm power fluctuation."""
    return _power_bound_map(s_pp, arm_length,
                            "power fluctuation spectral density")


def spp_from_qcrb(s_hh: float, arm_length: float) -> float:
    """Arm power fluctuation implied by a sensitivity bound; inverse of qcrb_from_spp."""
    return _power_bound_map(s_hh, arm_length, "sensitivity bound")


def _prefactor(cfg: IfoConfig) -> float:
    return HBAR * C_LIGHT**2 / (4.0 * cfg.L**2 * cfg.omega0 * cfg.P)


def loss_limit(cfg: IfoConfig, omega: float, alpha: float) -> float:
    """First-order-in-loss sensitivity floor [1/Hz].

    prefactor * [eps_arm + (1 + Omega^2/gamma^2) T_itm eps_src / 4
                 + alpha T_src eps_ext]
    with alpha = 1 when internal squeezing maximises the power fluctuation
    and alpha = 1/4 when it is negligible.
    """
    if alpha not in _ALPHAS:
        raise ValueError(f"alpha must be one of {_ALPHAS}, got {alpha!r}")
    eps_int = effective_internal_loss(cfg, omega)
    return _prefactor(cfg) * (eps_int + alpha * cfg.T_src * cfg.eps_ext)


def metrology_limit(cfg: IfoConfig) -> float:
    """Loss floor with the recycling-cavity loss dropped [1/Hz].

    prefactor * (eps_arm + T_src eps_ext / 4); the frequency-independent
    form used for phase estimation in simple two-path interferometers.
    """
    return _prefactor(cfg) * (cfg.eps_arm + 0.25 * cfg.T_src * cfg.eps_ext)


def taylor_qcrb_internal(t_src: float, theta_rot: float, r: float,
                         theta: float, r_input: float, arm_length: float,
                         omega0: float, power: float) -> float:
    """Leading-order lossless optimal-readout PSD with internal squeezing.

    hbar c^2 (delta^2 - 4 r^2)^2 e^(-2 r_input)
    / (16 L^2 omega0 P T_src [delta^2 + 4 r^2 + 4 delta r sin(theta + theta0)])

    Vanishes identically at r = delta / 2.  A non-positive denominator is
    outside the validity domain and raises.
    """
    params = limit_params(t_src, theta_rot)
    _warn_regime(T_src=(t_src, REGIME_T_SRC), Theta=(theta_rot, REGIME_THETA))
    if abs(r) > params.delta:
        _warn_regime(r=(r, params.delta))
    den = (params.delta**2 + 4.0 * r**2
           + 4.0 * params.delta * r * math.sin(theta + params.theta0))
    if den <= 0.0:
        raise ValueError("outside validity: expansion denominator is <= 0")
    num = (HBAR * C_LIGHT**2 * (params.delta**2 - 4.0 * r**2) ** 2
           * math.exp(-2.0 * r_input))
    return num / (16.0 * arm_length**2 * omega0 * power * t_src * den)


def taylor_qcrb_no_internal(t_src: float, theta_rot: float, r_input: float,
                            arm_length: float, omega0: float,
                            power: float) -> float:
    """Leading-order shot-noise-only PSD, no internal squeezing.

    hbar c^2 delta^2 e^(-2 r_input) / (16 T_src L^2 omega0 P)
    """
    params = limit_params(t_src, theta_rot)
    _warn_regime(T_src=(t_src, REGIME_T_SRC), Theta=(theta_rot, REGIME_THETA))
    return (HBAR * C_LIGHT**2 * params.delta**2 * math.exp(-2.0 * r_input)
            / (16.0 * t_src * arm_length**2 * omega0 * power))


def taylor_loss_internal(cfg: IfoConfig, omega: float) -> float:
    """Loss floor at the squeeze strength that nulls the lossless bound.

    prefactor * (eps_int + T_src eps_ext); the theta-minimised alpha = 1
    branch of the loss limit.
    """
    _warn_regime(T_src=(cfg.T_src, REGIME_T_SRC),
                 Theta=(_max_theta(cfg), REGIME_THETA))
    return loss_limit(cfg, omega, ALPHA_INTERNAL)


def taylor_loss_no_internal(cfg: IfoConfig, omega: float) -> float:
    """Loss floor without internal squeezing, minimised over detuning.

    prefactor * (eps_int + T_src eps_ext / 4); the alpha = 1/4 branch,
    attained at zero rotation angle.
    """
    _warn_regime(T_src=(cfg.T_src, REGIME_T_SRC),
                 Theta=(_max_theta(cfg), REGIME_THETA))
    return loss_limit(cfg, omega, ALPHA_NO_INTERNAL)


def signal_response_ratio(theta: float, theta0: float) -> float:
    """Signal response with internal squeezing relative to none.

    sqrt((1 + sin(theta + theta0)) / 4); at most 1/2 wherever
    sin(theta + theta0) <= 0, which includes the sensitivity-optimal angles.
    """
    if not (math.isfinite(theta) and math.isfinite(theta0)):
        raise ValueError("angles must be finite")
    return math.sqrt((1.0 + math.sin(theta + theta0)) / 4.0)
