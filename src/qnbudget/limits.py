"""Closed-form sensitivity limits and their leading-order expansions.

Covers the free-mass standard quantum limit, the power-fluctuation
(Cramer-Rao) bound conversion, the optical-loss sensitivity floor with and
without internal squeezing, and the small-parameter expansions of the
optimal-readout spectra.  The expansion formulas are valid for small
recycling transmissivity and rotation angle; out-of-regime use emits a
RegimeWarning rather than an error, since the exact pipeline in
:mod:`qnbudget.ifo` remains authoritative.  The frequency-dependent forms
take a scalar or an array of frequencies and return the same shape.  The
loss floors and expansions share the exact spectra's prefactor (_prefactor),
and the lossless expansion without internal squeezing is the one at r = 0.

Angle convention: the squeeze angle ``theta`` appearing in the expansion
formulas equals minus twice the ellipse angle of
:func:`qnbudget.quadrature.squeeze_matrix`; the two parametrizations
coincide at theta = 0.  The expansions read the internal squeeze element
of a config and make this conversion themselves.
"""

from __future__ import annotations

import math

import numpy as np

from .config import IfoConfig, value_at
from .constants import C_LIGHT, HBAR, TWO_PI
from .errors import (DegeneracyError, _check_sideband, _raise_first,
                     _regime_warning)
from .ifo import _prefactor, _squeeze_state, effective_internal_loss
from .quadrature import any_true, arccot

REGIME_T_SRC = 0.05
REGIME_THETA = 0.05

ALPHA_INTERNAL = 1.0       # internal squeezing maximises power fluctuation
ALPHA_NO_INTERNAL = 0.25   # internal squeezing negligible
_ALPHAS = (ALPHA_INTERNAL, ALPHA_NO_INTERNAL)


def limit_params(t_src: float, theta_rot):
    """(delta, theta0) = (sqrt(T_src^2 + 16 Theta^2), arccot(4 Theta / T_src)).

    A delta that is not positive and finite, or a theta0 that rounds out
    of (0, pi) (|Theta| / T_src beyond about 1e16), raises DegeneracyError
    for the first such point of an array of theta_rot.
    """
    delta = np.hypot(t_src, 4.0 * theta_rot)
    theta0 = arccot(4.0 * theta_rot / t_src)
    _raise_first(
        (~(np.isfinite(delta) & (delta > 0.0)), DegeneracyError,
         lambda i: f"delta = {np.reshape(delta, -1)[i]:.3g} must be positive and finite"),
        (~((0.0 < theta0) & (theta0 < math.pi)), DegeneracyError,
         lambda i: f"theta0 = {np.reshape(theta0, -1)[i]:.3g} must lie in (0, pi)"))
    return delta, theta0


def _warn_regime(**named) -> None:
    """One warning per quantity, naming its first out-of-regime value; it is
    attributed to the caller of the public function whose helper calls this."""
    for name, (value, bound) in named.items():
        outside = np.abs(value) >= bound
        if np.any(outside):
            i = np.argmax(outside)
            value_i = np.broadcast_to(value, np.shape(outside)).flat[i]
            bound_i = np.broadcast_to(bound, np.shape(outside)).flat[i]
            _regime_warning(
                f"{name} = {value_i:.3g} is outside the expansion regime "
                f"(|{name}| < {bound_i:g}); the exact pipeline is authoritative",
                stacklevel=4)


def sql(cfg: IfoConfig, omega):
    """Free-mass standard quantum limit 8 hbar / (M Omega^2 L^2) [1/Hz]."""
    _check_sideband(omega)
    if any_true(omega == 0.0):
        raise ValueError("sideband frequency must be positive (the SQL diverges at 0)")
    return 8.0 * HBAR / (cfg.M * omega**2 * cfg.L**2)


def qcrb_from_spp(s_pp: float, arm_length: float) -> float:
    """Sensitivity bound hbar^2 c^2 / (2 S_PP L^2) from arm power fluctuation."""
    # the map is its own inverse: a bound maps to the S_PP that attains it
    if s_pp <= 0:
        raise ValueError("power fluctuation spectral density must be positive")
    return HBAR**2 * C_LIGHT**2 / (2.0 * s_pp * arm_length**2)


def loss_limit(cfg: IfoConfig, omega, alpha: float):
    """First-order-in-loss sensitivity floor [1/Hz].

    prefactor * [eps_arm + (1 + Omega^2/gamma^2) T_itm eps_src / 4
                 + alpha T_src eps_ext], alpha = 1 where internal squeezing
    maximises the power fluctuation, 1/4 where it is negligible.  At
    eps_ext = 0 it floors every readout and input state, to first order in
    loss; the alpha term is a reference that an amplifying internal squeeze
    beats, by half at random_config seeds 7984 and 1938.
    """
    if alpha not in _ALPHAS:
        raise ValueError(f"alpha must be one of {_ALPHAS}, got {alpha!r}")
    eps_int = effective_internal_loss(cfg, omega)
    return _prefactor(cfg, eps_int + alpha * cfg.T_src * cfg.eps_ext)


def _taylor_qcrb(cfg: IfoConfig, omega, internal: bool):
    """The lossless expansion of taylor_qcrb_internal, in omega's shape; if
    not `internal`, at r = 0, without reading the internal squeeze element."""
    _check_sideband(omega)
    t_src = cfg.T_src
    theta_rot = value_at(cfg.Theta, omega / TWO_PI)
    r, theta_m, _ = _squeeze_state(cfg, omega) if internal else (0.0, 0.0, 0.0)
    theta = -2.0 * theta_m
    delta, theta0 = limit_params(t_src, theta_rot)
    _warn_regime(T_src=(t_src, REGIME_T_SRC), Theta=(theta_rot, REGIME_THETA),
                 r=(r, delta))
    # in omega's shape, so an empty batch divides by no point
    den = np.broadcast_to(
        delta**2 + 4.0 * r**2 + 4.0 * delta * r * np.sin(theta + theta0),
        np.shape(omega))
    _raise_first((den <= 0.0, DegeneracyError,
                  lambda i: ("outside validity: expansion denominator is <= 0 "
                             f"at Omega = {np.reshape(omega, -1)[i]:.6g} rad/s")))
    q = delta**2 - 4.0 * r**2
    # q (q / den) / T_src stays in range where q^2 underflows (T_src < 1e-77)
    return _prefactor(cfg, q * (q / den) / (4.0 * t_src)
                      * math.exp(-2.0 * cfg.r_input))[()]


def taylor_qcrb_internal(cfg: IfoConfig, omega):
    """Leading-order lossless optimal-readout PSD with internal squeezing.

    prefactor (delta^2 - 4 r^2)^2 e^(-2 r_input)
    / (4 T_src [delta^2 + 4 r^2 + 4 delta r sin(theta + theta0)])

    r and theta are the internal squeeze element's at omega, theta in the
    expansion convention.  Vanishes identically at r = delta / 2.  A
    non-positive denominator is outside the validity domain and raises
    DegeneracyError for its first point.
    """
    return _taylor_qcrb(cfg, omega, internal=True)


def taylor_qcrb_no_internal(cfg: IfoConfig, omega):
    """Leading-order shot-noise-only PSD, no internal squeezing.

    prefactor delta^2 e^(-2 r_input) / (4 T_src): taylor_qcrb_internal at
    r = 0, bit for bit.  The internal squeeze element of cfg is not read.
    """
    return _taylor_qcrb(cfg, omega, internal=False)


def _taylor_loss(cfg: IfoConfig, omega, alpha: float):
    """loss_limit(cfg, omega, alpha), warning outside the expansion regime."""
    _check_sideband(omega)
    _warn_regime(T_src=(cfg.T_src, REGIME_T_SRC),
                 Theta=(value_at(cfg.Theta, omega / TWO_PI), REGIME_THETA))
    return loss_limit(cfg, omega, alpha)


def taylor_loss_internal(cfg: IfoConfig, omega):
    """Loss floor at the squeeze strength that nulls the lossless bound.

    prefactor * (eps_int + T_src eps_ext); the theta-minimised alpha = 1
    branch of the loss limit.
    """
    return _taylor_loss(cfg, omega, ALPHA_INTERNAL)


def taylor_loss_no_internal(cfg: IfoConfig, omega):
    """Loss floor without internal squeezing, minimised over detuning.

    prefactor * (eps_int + T_src eps_ext / 4); the alpha = 1/4 branch,
    attained at zero rotation angle.
    """
    return _taylor_loss(cfg, omega, ALPHA_NO_INTERNAL)


def signal_response_ratio(theta: float, theta0: float) -> float:
    """Signal response with internal squeezing relative to none.

    sqrt((1 + sin(theta + theta0)) / 4); at most 1/2 wherever
    sin(theta + theta0) <= 0, which includes the sensitivity-optimal angles.
    """
    if not (math.isfinite(theta) and math.isfinite(theta0)):
        raise ValueError("angles must be finite")
    return math.sqrt((1.0 + math.sin(theta + theta0)) / 4.0)
