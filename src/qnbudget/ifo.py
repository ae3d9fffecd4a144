"""Exact single-mode model of the recycled interferometer.

Builds the frequency-domain input-output relation of the effective cavity
(recycling mirror + internal rotation/squeeze loop), the output covariance
including internal and external loss channels, and the signal-referred noise
spectra for fixed or optimal homodyne readout.  All evaluations are pure
functions of (config, sideband angular frequency).  Each takes a scalar
omega or a 1-D array of them.  Every 2x2 quantity is held as its four
entries (m11, m12, m21, m22), each an (N,) array over a batch of N
frequencies (a scalar, which broadcasts, where it does not depend on
frequency), so a batch is evaluated in one pass of elementwise arithmetic;
a scalar omega runs the same code on numpy scalars and gives bitwise the
matching element of an array call (each per-point square is written as a
product, which numpy computes alike for scalars and arrays), except where a
residual phase makes the loop complex: numpy rounds a product of two complex
scalars differently from its vectorised loop.  Every exact spectrum is read
from one loop solve, a _Solve, per unit coupling and scaled by _prefactor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .config import (DEFAULT_BAND_HZ, FreqTable, IfoConfig, _number,
                     coverage_check, value_at)
from .constants import C_LIGHT, HBAR, TWO_PI
from .errors import (BlindQuadratureError, ConfigError, DegeneracyError,
                     LasingThresholdError, _check_sideband, _raise_first)
from .quadrature import (MAX_SQUEEZE_FACTOR, any_true, mat2,
                         ponderomotive_decompose, rotation_entries,
                         squeeze_entries)

# |det| below this is treated as a hit on the lasing threshold
LASING_DET_TOL = 1e-14

# readout angles this close to orthogonal to the signal are called blind
BLIND_TOL = 1e-12

# rank test of the covariance factor F (2 x 6): numpy's lstsq default,
# machine epsilon times the larger dimension of F
_RANK_TOL = 6.0 * np.finfo(float).eps

# the entries of the 2x2 identity
_EYE = (1.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class IoRelation:
    """Per-frequency ingredients of the input-output relation.

    M_io maps the input field to the output, M_c maps intra-cavity noise to
    the output, v is the strain response per unit coupling (a spectrum read
    from it is in units of _prefactor), and the coupling factors scale the
    internal (sqrt(T_src * eps_int)) and external (sqrt(eps_ext)) loss
    channels.  The matrices are entry tuples (m11, m12, m21, m22) and v is
    (v1, v2); mat2(*io.M_io) gives the matrix.  Each entry, and the internal
    coupling, is a scalar for one frequency and an (N,) array for a batch of
    N, or a scalar, which broadcasts against omega, where it does not depend
    on frequency.  The external coupling is a float.
    """

    M_io: tuple
    M_c: tuple
    v: tuple
    internal_coupling: float
    external_coupling: float


def _prefactor(cfg: IfoConfig, x=1.0):
    """x hbar c^2 / (4 L^2 omega0 P) [1/Hz], the scale of every spectrum; L^2
    divides last, so a subnormal scale keeps x's digits."""
    l_sq = cfg.L**2 if np.size(x) else 1.0   # a batch of no points: none fails
    if l_sq == 0.0:   # an array would divide by it silently, to inf
        raise ZeroDivisionError("L**2 underflows to 0")
    return HBAR * C_LIGHT**2 / (4.0 * cfg.omega0 * cfg.P) * x / l_sq


def arm_bandwidth(cfg: IfoConfig) -> float:
    """Arm cavity bandwidth c * T_itm / (4 L) [rad/s]."""
    return C_LIGHT * cfg.T_itm / (4.0 * cfg.L)


def ponderomotive_gain(cfg: IfoConfig, omega):
    """Radiation-pressure gain 16 P omega0 / (M c^2 Omega^2).

    Diverges as the sideband frequency goes to zero, so omega = 0 is
    rejected.  An array of omega gives an array.
    """
    _check_sideband(omega)
    if any_true(omega == 0.0):
        raise ValueError("sideband frequency must be positive (gain diverges at 0)")
    return 16.0 * cfg.P * cfg.omega0 / (cfg.M * C_LIGHT**2 * (omega * omega))


def effective_src_loss(channels, band_hz=DEFAULT_BAND_HZ) -> float:
    """Effective recycling-cavity loss: min over the band of the summed channels.

    channels is a sequence of constants and/or FreqTables.  A table is
    linear in log-frequency between its knots, so the sum is smallest at a
    band edge or at a knot inside the band, and only those points are
    evaluated.  A table that does not cover the band raises ConfigError.
    """
    channels = tuple(channels)
    if not channels:
        raise ConfigError("eps_src_channels: must not be empty")
    lo = _number("band_hz[0]", band_hz[0], 0.0)
    hi = _number("band_hz[1]", band_hz[1], lo, math.inf, "[)")
    tables = [ch for ch in channels if isinstance(ch, FreqTable)]
    if not tables:
        return float(sum(channels))
    knots = [f for table in tables for f in table.f_hz if lo < f < hi]
    points = np.array([lo, *knots, hi])
    return float(sum(value_at(ch, points) for ch in channels).min())


def resolve_band(cfg: IfoConfig, band_hz) -> IfoConfig:
    """The config fixed for one analysis band.

    Every table of the config must cover band_hz (coverage_check, whose
    ConfigError names the key).  Tabulated recycling-loss channels are then
    replaced by their effective_src_loss over band_hz; a config without
    such tables comes back unchanged.  A summed loss of 1 or more, from
    constants or tables, is a ConfigError.
    """
    coverage_check(cfg, band_hz[0], band_hz[1])
    eps_src = effective_src_loss(cfg.eps_src_channels, band_hz)
    if eps_src >= 1.0:
        raise ConfigError(
            f"eps_src_channels: summed loss is at least {eps_src:.6g} over the "
            f"band {band_hz[0]:g}..{band_hz[1]:g} Hz; it must stay below 1")
    if not any(isinstance(ch, FreqTable) for ch in cfg.eps_src_channels):
        return cfg
    return replace(cfg, eps_src_channels=(eps_src,))


def effective_internal_loss(cfg: IfoConfig, omega):
    """Lower bound on the internal loss seen from the recycling cavity.

    eps_arm enters directly; the recycling-cavity loss is suppressed by
    T_itm/4 at low frequency but grows as (1 + Omega^2/gamma^2) once the
    sideband leaves the arm bandwidth gamma.  Tabulated recycling-loss
    channels not yet fixed by resolve_band are minimised over
    DEFAULT_BAND_HZ.  An array of omega gives an array.
    """
    _check_sideband(omega)
    return _internal_loss(cfg, omega, cfg.eps_arm,
                          effective_src_loss(cfg.eps_src_channels))


def _internal_loss(cfg: IfoConfig, omega, eps_arm, eps_src):
    """effective_internal_loss with eps_arm and the summed eps_src given."""
    q = omega / arm_bandwidth(cfg)
    return eps_arm + 0.25 * cfg.T_itm * (1.0 + q * q) * eps_src


def _frequencies(omega) -> np.ndarray:
    """omega as a float scalar or a 1-D float array."""
    w = np.asarray(omega, dtype=float)
    if w.ndim > 1:
        raise ValueError("sideband frequency must be a scalar or a 1-D array")
    # [()] turns a 0-d array into a numpy scalar, whose arithmetic is cheap
    return w[()]


def _scalar_or_array(x):
    return x if x.ndim else float(x)


def _abs2(z):
    """|z|^2 as a product, which numpy scalars and arrays compute alike."""
    a = np.abs(z)
    return a * a


def _squeeze_state(cfg: IfoConfig, omega):
    """(r, theta, extra rotation) of the internal squeeze element at omega.

    Each is a float where it does not depend on frequency.
    """
    mode = cfg.internal_sqz.mode
    if mode == "none":
        return 0.0, 0.0, 0.0
    f_hz = omega / TWO_PI
    if mode == "fixed":
        return (value_at(cfg.internal_sqz.r, f_hz),
                value_at(cfg.internal_sqz.theta, f_hz), 0.0)
    # an overflowing gain decomposes to |r| = inf, which _squeeze_guard reports
    with np.errstate(over="ignore"):
        gain = ponderomotive_gain(cfg, omega)
    # a gain that underflows to zero leaves the loop unsqueezed: it is
    # decomposed as a gain of 1 and masked out
    live = gain > 0.0
    phi, r, theta = ponderomotive_decompose(gain + (gain == 0.0))
    return r * live, theta * live, phi * live


def _mul(a, b):
    """Product of two 2x2 matrices given as entry tuples."""
    a11, a12, a21, a22 = a
    b11, b12, b21, b22 = b
    return (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)


def loop_matrix(cfg: IfoConfig, omega) -> np.ndarray:
    """One round trip through the effective recycling loop.

    rotation(Theta) @ squeeze @ rotation(Theta + phi), where phi is the
    rotation part of the ponderomotive decomposition (folded into the
    second rotation).  A nonzero residual_phase multiplies the round trip
    by exp(i phi_res); zero means perfect dispersion compensation.  A 1-D
    array of omega gives a stack of shape (N, 2, 2).  A squeeze factor
    beyond MAX_SQUEEZE_FACTOR, which strong radiation pressure reaches at
    low frequency, raises DegeneracyError.
    """
    w = _frequencies(omega)
    _check_sideband(w)
    with np.errstate(over="ignore", invalid="ignore"):
        *x, size = _loop(cfg, w)
    _raise_first(_squeeze_guard(size, w))
    return mat2(*np.broadcast_arrays(w, *x)[1:])


def _loop(cfg: IfoConfig, w):
    """The entries of loop_matrix, each of the shape of w or a scalar, then
    the internal squeeze |r|, for _squeeze_guard."""
    f_hz = w / TWO_PI
    theta_rot = value_at(cfg.Theta, f_hz)
    r, theta_sqz, extra = _squeeze_state(cfg, w)
    x = _mul(_mul(rotation_entries(theta_rot), squeeze_entries(r, theta_sqz)),
             rotation_entries(theta_rot + extra))
    phase = value_at(cfg.residual_phase, f_hz)
    if any_true(phase != 0.0):
        turn = np.exp(1j * phase)
        x = tuple(e * turn for e in x)
    if not w.size:   # an empty batch: nothing to solve, nothing to fail
        x = np.broadcast_arrays(w, *x)[1:]
    return (*x, np.abs(r))


def _squeeze_guard(size, w):
    """The check, for _raise_first, that the internal squeeze |r| = size
    stays within the overflow guard MAX_SQUEEZE_FACTOR over w."""
    return (size > MAX_SQUEEZE_FACTOR, DegeneracyError, lambda i: (
        f"internal squeeze |r| = {size.flat[i]:.3g} exceeds the overflow "
        f"guard ({MAX_SQUEEZE_FACTOR:g}) at Omega = {w.flat[i]:.6g} rad/s"))


def io_relation(cfg: IfoConfig, omega) -> IoRelation:
    """Input-output relation of the effective cavity.

    Returns an IoRelation whose entries are scalars for a scalar omega and
    (N,) arrays for a 1-D array of N, or scalars that broadcast against
    omega where the loop does not depend on frequency.  The lowest failing
    index raises, for the first check it fails: the internal squeeze's
    overflow guard; the round-trip gain of the loop at unity (no cavity
    inverse) or above it (no steady state), a LasingThresholdError; a
    vanishing signal response (|v|^2 underflows); the internal loss not finite.
    """
    w = _frequencies(omega)
    sqrt_r_src = math.sqrt(1.0 - cfg.T_src)
    # overflow and a vanishing det are left to the checks below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        *x, size = _loop(cfg, w)
        t11, t12, t21, t22 = (i - sqrt_r_src * e for i, e in zip(_EYE, x))
        det = t11 * t22 - t12 * t21
        det_abs = np.abs(det)
        # the round-trip eigenvalues, those of sqrt(R_src) x, are
        # 1 - g -+ root for the eigenvalues g +- root of trip, g half its trace
        g = 0.5 * (t11 + t22)
        root = np.sqrt(g * g - det + 0j)
        round_trip = np.maximum(np.abs(1.0 - g - root), np.abs(1.0 - g + root))
        m_c = (t22 / det, -t12 / det, -t21 / det, t11 / det)
        v1, v2 = (math.sqrt(cfg.T_src) * e for e in m_c[1::2])   # m_c @ (0, 1)
        c_int, coupling_check = _coupling(cfg, w, effective_internal_loss(cfg, w))
    _raise_first(
        _squeeze_guard(size, w),
        (det_abs < LASING_DET_TOL, LasingThresholdError, lambda i: (
            f"recycling loop at lasing threshold (|det| = {det_abs.flat[i]:.2e}) "
            f"at Omega = {w.flat[i]:.6g} rad/s")),
        (round_trip > 1.0, LasingThresholdError, lambda i: (
            "recycling loop beyond lasing threshold (round-trip eigenvalue "
            f"{round_trip.flat[i]:.4g}) at Omega = {w.flat[i]:.6g} rad/s")),
        (_abs2(v1) + _abs2(v2) == 0.0, DegeneracyError, lambda i: (
            f"signal response vanishes at Omega = {w.flat[i]:.6g} rad/s")),
        coupling_check)
    m_io = tuple(-sqrt_r_src * i + cfg.T_src * e
                 for i, e in zip(_EYE, _mul(m_c, x)))
    return IoRelation(m_io, m_c, (v1, v2), c_int, math.sqrt(cfg.eps_ext))


def _coupling(cfg: IfoConfig, w, loss):
    """(sqrt(T_src * loss) over w, check); the check, for _raise_first,
    fails where it is not finite, as where (Omega / gamma)^2 overflows."""
    coupling = np.sqrt(cfg.T_src * loss)
    return _scalar_or_array(coupling), (
        ~np.isfinite(coupling), DegeneracyError, lambda i: (
            f"internal loss {loss.flat[i]:.3g} is not finite at "
            f"Omega = {w.flat[i]:.6g} rad/s"))


def _covariance_from(inputs, couplings=None):
    """(F4 rows, Sigma entries, c_ext^2) of the output covariance Sigma =
    F F^dag from M_io S_in's entries and couplings = (c_int, M_c, c_ext^2).

    F4 = [M_io S_in, c_int M_c] is the first four columns of the
    square-root factor F = [F4, c_ext I]; without couplings, F is M_io S_in
    alone, the lossless covariance.  Each row of F4 is a tuple of entries.
    Sigma's diagonal is real and Sigma_21 is conj(Sigma_12).
    """
    rows, ext_sq = (inputs[:2], inputs[2:]), 0.0
    if couplings is not None:
        coupling, m_c, ext_sq = couplings
        c11, c12, c21, c22 = (coupling * e for e in m_c)
        rows = (*rows[0], c11, c12), (*rows[1], c21, c22)
    s11, s22 = (sum(_abs2(e) for e in row) + ext_sq for row in rows)
    s12 = sum(a * np.conj(b) for a, b in zip(*rows))
    return rows, (s11, s12, np.conj(s12), s22), ext_sq


def total_covariance(cfg: IfoConfig, omega) -> np.ndarray:
    """Hermitian covariance of the output quadratures.

    Sum of the (possibly squeezed) input transferred through M_io, the
    internal loss channel through M_c, and the external loss channel.  A
    1-D array of omega gives a stack of shape (N, 2, 2).
    """
    return _Solve(cfg, omega).read(lambda solve: mat2(*solve.covariance[1]))


def homodyne_spectrum(cfg: IfoConfig, omega, zeta):
    """Strain-referred PSD when reading out the quadrature at angle zeta [rad].

    Either omega or zeta may be a 1-D array, not both: a scalar omega with
    an array of angles scans the readout angle at one frequency, an array
    of omega with one angle gives the spectrum over the frequencies.  An
    angle that is not finite raises ValueError; one orthogonal to the
    signal response raises BlindQuadratureError.
    """
    solve = _Solve(cfg, omega)
    zeta_arr = np.asarray(zeta, dtype=float)
    if zeta_arr.ndim > 1:
        raise ValueError("readout angle must be a scalar or a 1-D array")
    if solve.w.ndim and zeta_arr.ndim:
        raise ValueError("omega and zeta cannot both be arrays")
    bad = zeta_arr[~np.isfinite(zeta_arr)].tolist()
    if bad:
        raise ValueError(f"readout angle must be finite, got {bad[0]!r} rad")
    return solve.read(lambda one: one.homodyne(zeta_arr))


def optimal_spectrum(cfg: IfoConfig, omega):
    """Minimum strain-referred PSD over readout angles, and the optimal angle.

    Returns (1 / (v^dag Sigma^-1 v), zeta_opt) with zeta_opt in [0, pi):
    floats for a scalar omega, arrays of shape (N,) for a 1-D array.  The
    value is a lower bound on homodyne_spectrum at every angle, attained at
    zeta_opt whenever the model matrices are real (no residual phase).

    The quadratic form is evaluated on a square-root factor of the
    covariance, which stays accurate under the extreme squeezing ratios a
    near-nulled configuration produces.
    """
    return _Solve(cfg, omega).read(lambda solve: (
        solve.optimal(), _optimal_angle(solve.io, solve.covariance)))


def _optimal_from(w, io: IoRelation, covariance, *checks):
    """The spectrum of optimal_spectrum over w from its IoRelation and
    _covariance_from; checks, for _raise_first, run ahead of its own."""
    rows, (g11, _, g21, g22), ext_sq = covariance
    v1, v2 = io.v
    # Gram-Schmidt on the rows of F gives Sigma = L L^dag with L lower
    # triangular, so v^dag Sigma^-1 v = |L^-1 v|^2; forming the residual
    # row f2 - mu f1 explicitly keeps l22 accurate when the rows are nearly
    # parallel.  Its external-loss part is c_ext (-mu, 1).
    with np.errstate(divide="ignore", invalid="ignore"):
        l11 = np.sqrt(g11)
        l21 = g21 / l11
        mu = g21 / g11
        residual = sum(_abs2(b - mu * a) for a, b in zip(*rows))
        l22 = np.sqrt(residual + ext_sq * (1.0 + _abs2(mu)))
        y1 = v1 / l11
        y2 = (v2 - l21 * y1) / l22
        quad = _abs2(y1) + _abs2(y2)
        # lstsq's sigma_min > 6 eps sigma_max, times sigma_max: sigma_max^2 is
        # tr Sigma in rounding below det L = 2^-28 tr Sigma; both pass above it
        full_rank = l11 * l22 > _RANK_TOL * (g11 + g22)
    _raise_first(
        *checks,
        (~(full_rank & np.isfinite(y1) & np.isfinite(y2)), DegeneracyError,
         lambda i: f"total covariance is singular at Omega = {w.flat[i]:.6g} rad/s"),
        (~(np.isfinite(quad) & (quad > 0.0)), DegeneracyError,
         lambda i: ("degenerate covariance quadratic form at "
                    f"Omega = {w.flat[i]:.6g} rad/s")))
    return _scalar_or_array(1.0 / quad)


def _optimal_angle(io: IoRelation, covariance):
    """The zeta_opt of optimal_spectrum, from its IoRelation and
    _covariance_from."""
    _, (g11, _, g21, g22), _ = covariance
    v1, v2 = io.v
    # a real readout direction q sees noise q.A.q and signal q.B.q, with
    # A = Re Sigma and B = Re(v v^dag); the best q spans the null space of
    # C = det(A) B - lam A for the larger root lam of
    # det(A) lam^2 - p lam + det(A) det(B) = 0.  Scaling by det(A) keeps a
    # singular A finite: it then yields A's null direction.  A and v are
    # divided by powers of two, exact steps the angle does not see, so the
    # products of a strong noise or a faint signal (tiny T_src) stay in range.
    _, a_exp = np.frexp(np.maximum(g11, g22))
    _, v_exp = np.frexp(np.maximum(np.abs(v1), np.abs(v2)))
    g11, a12, g22 = (np.ldexp(a, -a_exp) for a in (g11, g21.real, g22))
    v1, v2 = (v * np.ldexp(1.0, -v_exp) for v in (v1, v2))
    b11, b22, b12 = _abs2(v1), _abs2(v2), (v1 * v2.conj()).real
    det_a = g11 * g22 - a12 * a12
    p = g11 * b22 + g22 * b11 - 2.0 * a12 * b12
    lam = 0.5 * (p + np.sqrt(np.maximum(
        p * p - 4.0 * det_a * (b11 * b22 - b12 * b12), 0.0)))
    c11 = det_a * b11 - lam * g11
    c12 = det_a * b12 - lam * a12
    c22 = det_a * b22 - lam * g22
    # C is rank one and negative semidefinite, C = -s u u^T with u at angle
    # alpha, so (c22 - c11, -2 c12) = s (cos 2 alpha, sin 2 alpha); q is
    # orthogonal to u
    alpha = 0.5 * np.arctan2(-2.0 * c12, c22 - c11)
    return _scalar_or_array((alpha + 0.5 * math.pi) % math.pi)


def qcrb_lossless(cfg: IfoConfig, omega):
    """Optimal-readout PSD with every loss channel switched off.

    In the lossless system the optimal frequency-dependent homodyne readout
    saturates the power-fluctuation (Cramer-Rao) bound, so this doubles as
    the exact bound for the configured squeezing settings.  A 1-D array of
    omega gives an array.  It is read from the loop solve of cfg, whose
    checks include those of cfg's own losses.
    """
    return _Solve(cfg, omega).read(lambda one: _scalar_or_array(
        np.full(one.w.shape, one.qcrb())))


class _Solve:
    """One loop solve over a batch of omega; every exact spectrum, public,
    a budget curve or a validate check, is read from one by read().

    io_relation(cfg, omega) runs once, when a spectrum first needs it, and
    each spectrum is read per unit coupling, then scaled by _prefactor.  The
    optimal and every fixed-angle readout share the covariance.  Readouts
    with other losses read the same M_io, M_c and v with their couplings;
    the lossless bound is one of them.  Failures are masks raised by
    _raise_first, so the one raised is the one a loop over the points meets
    first: lowest index, then pipeline order.
    """

    def __init__(self, cfg, omega):
        self.cfg, self.w = cfg, _frequencies(omega)

    @functools.cached_property
    def io(self):
        return io_relation(self.cfg, self.w)

    @functools.cached_property
    def inputs(self):   # the entries of M_io S_in
        sqz = squeeze_entries(self.cfg.r_input, self.cfg.theta_input)
        return _mul(self.io.M_io, sqz)

    @functools.cached_property
    def covariance(self):
        return _covariance_from(self.inputs, (self.io.internal_coupling,
                                self.io.M_c, self.io.external_coupling**2))

    def read(self, spectra):
        """spectra(self); when it fails at point k, the points before k are
        read first, since one of them may fail a later stage."""
        try:
            return spectra(self)
        except DegeneracyError as exc:
            if exc.index:
                _Solve(self.cfg, self.w[:exc.index]).read(spectra)
            raise

    def optimal(self):
        return _prefactor(self.cfg, _optimal_from(self.w, self.io, self.covariance))

    def homodyne(self, zeta, trig=None):
        """homodyne_spectrum at zeta: a value per point of w for one angle,
        per angle at a scalar w, and (N, M), a row per frequency, for a row
        of M angles against an (N,) w.  A frequency with a blind angle
        fails, naming its first blind angle, as a loop over the frequencies
        and then the angles meets it.  trig, if given, is (cos, sin) of zeta."""
        w, zeta = self.w, np.asarray(zeta, dtype=float)
        v1, v2 = self.io.v
        s11, s12, _, s22 = self.covariance[1]
        if w.ndim and zeta.ndim:
            # one row of angles per frequency
            s11, s12, s22, v1, v2 = (np.reshape(e, (-1, 1))
                                     for e in (s11, s12, s22, v1, v2))
        c, s = (np.cos(zeta), np.sin(zeta)) if trig is None else trig
        qv = c * v1 + s * v2
        blind = np.abs(qv) < BLIND_TOL * np.sqrt(_abs2(v1) + _abs2(v2))
        # a row of angles per point, one row for all where v is a constant
        rows = np.reshape(blind, (-1, max(zeta.size, 1)))[:w.size]
        _raise_first((rows.any(axis=1), BlindQuadratureError, lambda i: (
            f"readout angle {zeta.flat[np.argmax(rows[i])]:.6g} "
            "rad is orthogonal to the signal response")))
        noise = c * c * s11 + 2.0 * c * s * np.real(s12) + s * s * s22
        return _prefactor(self.cfg, _scalar_or_array(noise / _abs2(qv)))

    def optimal_with(self, losses):
        """optimal() over the 1-D w for a (K, 3) array of losses, rows
        (eps_arm, eps_ext, summed eps_src), as (K, N); an error is the first
        failing row's own, its flat index divided by N that row and point."""
        io, (eps_arm, _, eps_src) = self.io, losses.T[..., None]
        # x ** 2 in Python, as for io's coupling: numpy's array square differs
        ext_sq = np.array([[math.sqrt(e)**2] for e in losses[:, 1].tolist()])
        w = np.broadcast_to(self.w, (len(losses), self.w.size))
        with np.errstate(over="ignore", invalid="ignore"):
            coupling, check = _coupling(self.cfg, w, _internal_loss(
                self.cfg, self.w, eps_arm, eps_src))
            covariance = _covariance_from(self.inputs, (coupling, io.M_c, ext_sq))
        return _prefactor(self.cfg, _optimal_from(w, io, covariance, check))

    def qcrb(self):
        """optimal() with every loss channel switched off, from M_io S_in
        alone; io_relation's coupling check covers the lossless one."""
        return _prefactor(self.cfg, _optimal_from(self.w, self.io,
                                                  _covariance_from(self.inputs)))
