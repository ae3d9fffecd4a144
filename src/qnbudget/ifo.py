"""Exact single-mode model of the recycled interferometer.

Builds the frequency-domain input-output relation of the effective cavity
(recycling mirror + internal rotation/squeeze loop), the output covariance
including internal and external loss channels, and the signal-referred noise
spectra for fixed or optimal homodyne readout.  All evaluations are pure
functions of (config, sideband angular frequency) and are safe to run
concurrently across a frequency grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import DEFAULT_BAND_HZ, FreqTable, IfoConfig, value_at
from .constants import C_LIGHT, HBAR, TWO_PI
from .errors import (BlindQuadratureError, ConfigError, DegeneracyError,
                     LasingThresholdError)
from .quadrature import (adjoint, det2, mat_inv, ponderomotive_decompose,
                         rotation_matrix, squeeze_matrix, vec2)

# log-spaced samples of the band searched for the recycling-loss minimum
BAND_SAMPLES = 512

# |det| below this is treated as a hit on the lasing threshold
LASING_DET_TOL = 1e-14

# readout angles this close to orthogonal to the signal are called blind
BLIND_TOL = 1e-12


@dataclass(frozen=True)
class IoRelation:
    """Per-frequency ingredients of the input-output relation.

    M_io maps the input field to the output, M_c maps intra-cavity noise to
    the output, v is the strain response vector, and the coupling factors
    scale the internal (sqrt(T_src * eps_int)) and external (sqrt(eps_ext))
    loss channels.
    """

    M_io: np.ndarray
    M_c: np.ndarray
    v: np.ndarray
    internal_coupling: float
    external_coupling: float


@dataclass(frozen=True)
class NoiseSpectrum:
    """Strain-referred power spectral density sampled on a frequency grid.

    frequencies are in Hz and strictly increasing; values are the PSD in
    1/Hz and must be finite and non-negative.  The amplitude spectral
    density is available as .asd.
    """

    frequencies: np.ndarray
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if f.ndim != 1 or f.shape != v.shape:
            raise ValueError("frequencies and values must be matching 1-D arrays")
        if f.size and not np.all(np.diff(f) > 0):
            raise ValueError("frequencies must be strictly increasing")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise ValueError("PSD values must be finite and non-negative")
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "values", v)

    @property
    def asd(self) -> np.ndarray:
        return np.sqrt(self.values)


def arm_bandwidth(cfg: IfoConfig) -> float:
    """Arm cavity bandwidth c * T_itm / (4 L) [rad/s]."""
    return C_LIGHT * cfg.T_itm / (4.0 * cfg.L)


def ponderomotive_gain(cfg: IfoConfig, omega: float) -> float:
    """Radiation-pressure gain 16 P omega0 / (M c^2 Omega^2).

    Diverges as the sideband frequency goes to zero, so omega = 0 is
    rejected.
    """
    if not math.isfinite(omega) or omega <= 0.0:
        raise ValueError("sideband frequency must be positive (gain diverges at 0)")
    return 16.0 * cfg.P * cfg.omega0 / (cfg.M * C_LIGHT**2 * omega**2)


def effective_src_loss(channels, band_hz=DEFAULT_BAND_HZ) -> float:
    """Effective recycling-cavity loss: min over the band of the summed channels.

    channels is a sequence of constants and/or FreqTables; the minimum is
    taken over a dense log-spaced sample of the band (plus table knots).
    """
    channels = tuple(channels)
    if not channels:
        raise ConfigError("eps_src_channels: must not be empty")
    lo, hi = (float(band_hz[0]), float(band_hz[1]))
    if not (0.0 < lo <= hi) or not math.isfinite(hi):
        raise ConfigError(f"band: need 0 < f_lo <= f_hi, got {band_hz!r}")
    tables = []
    for i, ch in enumerate(channels):
        if isinstance(ch, FreqTable):
            if not ch.covers(lo, hi):
                raise ConfigError(
                    f"eps_src_channels[{i}]: table does not cover the band "
                    f"{lo:g}..{hi:g} Hz")
            tables.append(ch)
    if not tables:
        return float(sum(channels))
    knots = [f for table in tables for f in table.f_hz if lo <= f <= hi]
    grid = np.unique(np.concatenate([np.geomspace(lo, hi, BAND_SAMPLES), knots]))
    totals = sum(np.array([value_at(ch, f) for f in grid]) for ch in channels)
    return float(totals.min())


def resolve_band(cfg: IfoConfig, band_hz) -> IfoConfig:
    """The config with its recycling-loss channels fixed for one analysis band.

    Tabulated channels are replaced by their effective_src_loss over band_hz;
    a config without tables comes back unchanged.
    """
    if not any(isinstance(ch, FreqTable) for ch in cfg.eps_src_channels):
        return cfg
    eps_src = effective_src_loss(cfg.eps_src_channels, band_hz)
    if eps_src >= 1.0:
        raise ConfigError(
            f"eps_src_channels: summed loss is at least {eps_src:.6g} over the "
            f"band {band_hz[0]:g}..{band_hz[1]:g} Hz; it must stay below 1")
    return replace(cfg, eps_src_channels=(eps_src,))


def effective_internal_loss(cfg: IfoConfig, omega: float) -> float:
    """Lower bound on the internal loss seen from the recycling cavity.

    eps_arm enters directly; the recycling-cavity loss is suppressed by
    T_itm/4 at low frequency but grows as (1 + Omega^2/gamma^2) once the
    sideband leaves the arm bandwidth gamma.  Tabulated recycling-loss
    channels not yet fixed by resolve_band are minimised over
    DEFAULT_BAND_HZ.
    """
    if omega < 0:
        raise ValueError("sideband frequency must be >= 0")
    eps_src = effective_src_loss(cfg.eps_src_channels)
    gamma = arm_bandwidth(cfg)
    return cfg.eps_arm + 0.25 * cfg.T_itm * (1.0 + (omega / gamma) ** 2) * eps_src


def _squeeze_state(cfg: IfoConfig, omega: float) -> tuple[float, float, float]:
    """(r, theta, extra rotation) of the internal squeeze element at omega."""
    mode = cfg.internal_sqz.mode
    if mode == "none":
        return 0.0, 0.0, 0.0
    f_hz = omega / TWO_PI
    if mode == "fixed":
        return (value_at(cfg.internal_sqz.r, f_hz),
                value_at(cfg.internal_sqz.theta, f_hz), 0.0)
    gain = ponderomotive_gain(cfg, omega)
    if gain == 0.0:
        return 0.0, 0.0, 0.0
    phi, params = ponderomotive_decompose(gain)
    return params.r, params.theta, phi


def loop_matrix(cfg: IfoConfig, omega: float) -> np.ndarray:
    """One round trip through the effective recycling loop.

    rotation(Theta) @ squeeze @ rotation(Theta + phi), where phi is the
    rotation part of the ponderomotive decomposition (folded into the
    second rotation).  A nonzero residual_phase multiplies the round trip
    by exp(i phi_res); zero means perfect dispersion compensation.
    """
    f_hz = omega / TWO_PI
    theta_rot = value_at(cfg.Theta, f_hz)
    r, theta_sqz, extra = _squeeze_state(cfg, omega)
    x = (rotation_matrix(theta_rot)
         @ squeeze_matrix(r, theta_sqz)
         @ rotation_matrix(theta_rot + extra))
    phase = value_at(cfg.residual_phase, f_hz)
    if phase != 0.0:
        x = x * np.exp(1j * phase)
    return x


def io_relation(cfg: IfoConfig, omega: float) -> IoRelation:
    """Input-output relation of the effective cavity at one frequency.

    Raises LasingThresholdError when the round-trip gain of the loop hits
    unity and the cavity inverse does not exist.
    """
    x = loop_matrix(cfg, omega)
    sqrt_r_src = math.sqrt(1.0 - cfg.T_src)
    trip = np.eye(2) - sqrt_r_src * x
    if abs(det2(trip)) < LASING_DET_TOL:
        raise LasingThresholdError(
            f"recycling loop at lasing threshold (|det| = {abs(det2(trip)):.2e}) "
            f"at Omega = {omega:.6g} rad/s")
    m_c = mat_inv(trip)
    m_io = -sqrt_r_src * np.eye(2) + cfg.T_src * (m_c @ x)
    beta = 2.0 * math.sqrt(cfg.omega0 * cfg.L**2 * cfg.P / (HBAR * C_LIGHT**2))
    v = math.sqrt(cfg.T_src) * (m_c @ vec2(0.0, beta))
    eps_int = effective_internal_loss(cfg, omega)
    return IoRelation(
        M_io=m_io, M_c=m_c, v=v,
        internal_coupling=math.sqrt(cfg.T_src * eps_int),
        external_coupling=math.sqrt(cfg.eps_ext))


def _covariance_from(cfg: IfoConfig, io: IoRelation) -> np.ndarray:
    sq_in = squeeze_matrix(cfg.r_input, cfg.theta_input)
    sigma_in = sq_in @ adjoint(sq_in)
    sigma = io.M_io @ sigma_in @ adjoint(io.M_io)
    sigma = sigma + io.internal_coupling**2 * (io.M_c @ adjoint(io.M_c))
    sigma = sigma + io.external_coupling**2 * np.eye(2)
    return 0.5 * (sigma + adjoint(sigma))


def total_covariance(cfg: IfoConfig, omega: float) -> np.ndarray:
    """Hermitian covariance of the output quadratures.

    Sum of the (possibly squeezed) input transferred through M_io, the
    internal loss channel through M_c, and the external loss channel.
    """
    io = io_relation(cfg, omega)
    return _covariance_from(cfg, io)


def _homodyne_from(io: IoRelation, sigma: np.ndarray, zeta):
    zeta_arr = np.atleast_1d(np.asarray(zeta, dtype=float))
    q = np.stack([np.cos(zeta_arr), np.sin(zeta_arr)], axis=1)
    qv = q @ io.v
    v_norm = np.linalg.norm(io.v)
    blind = np.abs(qv) < BLIND_TOL * v_norm
    if np.any(blind):
        bad = zeta_arr[blind][0]
        raise BlindQuadratureError(
            f"readout angle {bad:.6g} rad is orthogonal to the signal response")
    noise = np.real(np.einsum("ni,ij,nj->n", q, sigma, q))
    s = noise / np.abs(qv) ** 2
    if np.ndim(zeta) == 0:
        return float(s[0])
    return s


def homodyne_spectrum(cfg: IfoConfig, omega: float, zeta):
    """Strain-referred PSD when reading out the quadrature at angle zeta.

    zeta may be a scalar or an array of angles [rad]; an angle orthogonal to
    the signal response raises BlindQuadratureError.
    """
    io = io_relation(cfg, omega)
    sigma = _covariance_from(cfg, io)
    return _homodyne_from(io, sigma, zeta)


def optimal_spectrum(cfg: IfoConfig, omega: float) -> tuple[float, float]:
    """Minimum strain-referred PSD over readout angles, and the optimal angle.

    Returns (1 / (v^dag Sigma^-1 v), zeta_opt) with zeta_opt in [0, pi).
    The value is a lower bound on homodyne_spectrum at every angle, attained
    at zeta_opt whenever the model matrices are real (no residual phase).

    The quadratic form is evaluated on a square-root factor of the
    covariance, which stays accurate under the extreme squeezing ratios a
    near-nulled configuration produces.
    """
    io = io_relation(cfg, omega)
    sq_in = squeeze_matrix(cfg.r_input, cfg.theta_input)
    # Sigma = F F^dag; the minimum-norm solution y of F y = v then has
    # |y|^2 = v^dag Sigma^-1 v
    factor = np.hstack([io.M_io @ sq_in,
                        io.internal_coupling * io.M_c,
                        io.external_coupling * np.eye(2)])
    y, _, rank, _ = np.linalg.lstsq(factor, io.v, rcond=None)
    if rank < 2 or not np.all(np.isfinite(y)):
        raise DegeneracyError(
            f"total covariance is singular at Omega = {omega:.6g} rad/s")
    quad = float(np.real(np.vdot(y, y)))
    if not math.isfinite(quad) or quad <= 0.0:
        raise DegeneracyError(
            f"degenerate covariance quadratic form at Omega = {omega:.6g} rad/s")
    s_min = 1.0 / quad

    # a real readout direction q sees noise q.A.q and signal q.B.q; the best
    # q spans the null space of B - lam A for the larger root lam of
    # det(B - lam A) = det(A) lam^2 - p lam + det(B) = 0.  Scaling by det(A)
    # keeps a singular A finite: it then yields A's null direction.
    a = np.real(factor @ adjoint(factor))
    a = 0.5 * (a + a.T)
    b = np.real(np.outer(io.v, io.v.conj()))
    det_a = det2(a)
    p = a[0, 0] * b[1, 1] + a[1, 1] * b[0, 0] - 2.0 * a[0, 1] * b[0, 1]
    lam_scaled = 0.5 * (p + math.sqrt(max(p * p - 4.0 * det_a * det2(b), 0.0)))
    c = det_a * b - lam_scaled * a
    # q is orthogonal to the larger row of the rank-one matrix c
    row = c[np.argmax(np.abs(c).sum(axis=1))]
    zeta_opt = math.atan2(-row[0], row[1]) % math.pi
    return s_min, zeta_opt


def qcrb_lossless(cfg: IfoConfig, omega: float) -> float:
    """Optimal-readout PSD with every loss channel switched off.

    In the lossless system the optimal frequency-dependent homodyne readout
    saturates the power-fluctuation (Cramer-Rao) bound, so this doubles as
    the exact bound for the configured squeezing settings.
    """
    lossless = replace(cfg, eps_arm=0.0, eps_src_channels=(0.0,), eps_ext=0.0)
    return optimal_spectrum(lossless, omega)[0]
