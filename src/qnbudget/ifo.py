"""Exact single-mode model of the recycled interferometer.

Builds the frequency-domain input-output relation of the effective cavity
(recycling mirror + internal rotation/squeeze loop), the output covariance
including internal and external loss channels, and the signal-referred noise
spectra for fixed or optimal homodyne readout.  All evaluations are pure
functions of (config, sideband angular frequency).  Each takes a scalar
omega or a 1-D array of them.  Every 2x2 quantity is held as its four
entries (m11, m12, m21, m22), each an (N,) array over a batch of N
frequencies, so a batch is evaluated in one pass of elementwise arithmetic;
a scalar omega runs the same code on numpy scalars and gives bitwise the
matching element of an array call (each per-point square is written as a
product, which numpy computes alike for scalars and arrays), except where a
residual phase makes the loop complex: numpy rounds a product of two complex
scalars differently from its vectorised loop.  io_relation and
effective_internal_loss also take a tuple of N configs, one per frequency:
each config's constants are computed as for one config and stacked into
(N,) arrays.  Every exact spectrum, public or a budget curve or a validate
check, is read from one loop solve, a _Solve, which raises the failure a
loop over the points meets first: the lowest index, then pipeline order.
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
                     LasingThresholdError, _as_degeneracy, _check_sideband,
                     _raise_first)
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
    the output, v is the strain response vector, and the coupling factors
    scale the internal (sqrt(T_src * eps_int)) and external (sqrt(eps_ext))
    loss channels.  The matrices are entry tuples (m11, m12, m21, m22) and
    v is (v1, v2); mat2(*io.M_io) gives the matrix.  Each entry, and the
    internal coupling, is a scalar for one frequency and an (N,) array for
    a batch of N.  The external coupling is a float, or an (N,) array for a
    tuple of N configs.
    """

    M_io: tuple
    M_c: tuple
    v: tuple
    internal_coupling: float
    external_coupling: float


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


def effective_internal_loss(cfg, omega):
    """Lower bound on the internal loss seen from the recycling cavity.

    eps_arm enters directly; the recycling-cavity loss is suppressed by
    T_itm/4 at low frequency but grows as (1 + Omega^2/gamma^2) once the
    sideband leaves the arm bandwidth gamma.  Tabulated recycling-loss
    channels not yet fixed by resolve_band are minimised over
    DEFAULT_BAND_HZ.  An array of omega gives an array; cfg may be a tuple
    of configs, one per frequency of the array.
    """
    _check_sideband(omega)
    eps_arm, t_itm, gamma, eps_src = _per_config(lambda one, _: (
        one.eps_arm, one.T_itm, arm_bandwidth(one),
        effective_src_loss(one.eps_src_channels)), cfg, omega)
    q = omega / gamma
    return eps_arm + 0.25 * t_itm * (1.0 + q * q) * eps_src


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


def _per_config(f, cfg, w):
    """f(cfg, w), a tuple of values, for one config.

    For a tuple of N configs, one per point of the (N,) array w,
    f(cfg_i, w_i) runs for each in turn and each value is stacked into an
    (N,) array.  A DegeneracyError, OverflowError or ZeroDivisionError of
    config i is raised as a DegeneracyError at index i, the point a loop
    over the configs fails at.
    """
    if isinstance(cfg, IfoConfig):
        return f(cfg, w)
    if np.shape(w) != (len(cfg),):
        raise ValueError("a tuple of configs needs a 1-D omega of its length")
    rows = []
    for i, (one, point) in enumerate(zip(cfg, w)):
        try:
            rows.append(f(one, point))
        except DegeneracyError as exc:
            exc.index = i
            raise
        except (OverflowError, ZeroDivisionError) as exc:
            raise _as_degeneracy(exc, i) from exc
    return tuple(np.array(values) for values in zip(*rows))


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
    # a gain that overflows decomposes to |r| = inf, which _loop's overflow
    # guard reports
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
    return mat2(*_loop(cfg, w))


def _loop(cfg: IfoConfig, w):
    """The entries of loop_matrix, each of the shape of w."""
    f_hz = w / TWO_PI
    theta_rot = value_at(cfg.Theta, f_hz)
    r, theta_sqz, extra = _squeeze_state(cfg, w)
    size = np.abs(r)
    _raise_first((size > MAX_SQUEEZE_FACTOR, DegeneracyError, lambda i: (
        f"internal squeeze |r| = {size.flat[i]:.3g} exceeds the overflow "
        f"guard ({MAX_SQUEEZE_FACTOR:g}) at Omega = {w.flat[i]:.6g} rad/s")))
    x = _mul(_mul(rotation_entries(theta_rot), squeeze_entries(r, theta_sqz)),
             rotation_entries(theta_rot + extra))
    phase = value_at(cfg.residual_phase, f_hz)
    if any_true(phase != 0.0):
        turn = np.exp(1j * phase)
        x = tuple(e * turn for e in x)
    if np.ndim(x[0]) < w.ndim:
        # no factor depends on frequency: every frequency gets the same matrix
        x = tuple(e + np.zeros(w.shape) for e in x)
    return x


def io_relation(cfg, omega) -> IoRelation:
    """Input-output relation of the effective cavity.

    Returns an IoRelation whose entries are scalars for a scalar omega and
    (N,) arrays for a 1-D array of N; cfg may be a tuple of N configs, one
    per frequency.  Raises LasingThresholdError when the round-trip gain of
    the loop hits unity, where the cavity inverse does not exist, or
    exceeds it, where the loop has no steady state.  Raises
    DegeneracyError where the signal response overflows or vanishes (its
    squared norm underflows to 0), and then where the internal loss is not
    finite.
    """
    w = _frequencies(omega)
    *x, sqrt_r_src, sqrt_t_src, t_src, beta = _in_order(
        lambda: _per_config(_loop_stage, cfg, w), cfg, w, io_relation)
    t11, t12, t21, t22 = (i - sqrt_r_src * e for i, e in zip(_EYE, x))
    det = t11 * t22 - t12 * t21
    det_abs = np.abs(det)
    # the round-trip eigenvalues, those of sqrt(R_src) x, are 1 - g -+ root
    # for the eigenvalues g +- root of trip, g half its trace
    g = 0.5 * (t11 + t22)
    root = np.sqrt(g * g - det + 0j)
    round_trip = np.maximum(np.abs(1.0 - g - root), np.abs(1.0 - g + root))
    # a point where these divide by a vanishing det, or the signal overflows
    # or underflows, is reported by the checks below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        m_c = (t22 / det, -t12 / det, -t21 / det, t11 / det)
        # m_c @ (0, beta)
        v1, v2 = (sqrt_t_src * (e * beta) for e in m_c[1::2])
        power = _abs2(v1) + _abs2(v2)
    couplings, coupling_check = _couplings(cfg, w)
    _raise_first(
        (det_abs < LASING_DET_TOL, LasingThresholdError, lambda i: (
            f"recycling loop at lasing threshold (|det| = {det_abs.flat[i]:.2e}) "
            f"at Omega = {w.flat[i]:.6g} rad/s")),
        (round_trip > 1.0, LasingThresholdError, lambda i: (
            "recycling loop beyond lasing threshold (round-trip eigenvalue "
            f"{round_trip.flat[i]:.4g}) at Omega = {w.flat[i]:.6g} rad/s")),
        (~(np.isfinite(v1) & np.isfinite(v2)), DegeneracyError, lambda i: (
            f"signal response is not finite at Omega = {w.flat[i]:.6g} rad/s")),
        (power == 0.0, DegeneracyError, lambda i: (
            f"signal response vanishes at Omega = {w.flat[i]:.6g} rad/s")),
        coupling_check)
    m_io = tuple(-sqrt_r_src * i + t_src * e
                 for i, e in zip(_EYE, _mul(m_c, x)))
    return IoRelation(m_io, m_c, (v1, v2), *couplings)


def _loop_stage(cfg: IfoConfig, w):
    """The loop entries at w, then sqrt(R_src), sqrt(T_src), T_src and the
    signal coupling beta of cfg."""
    x = _loop(cfg, w)
    beta = 2.0 * math.sqrt(cfg.omega0 * cfg.L**2 * cfg.P / (HBAR * C_LIGHT**2))
    return (*x, math.sqrt(1.0 - cfg.T_src), math.sqrt(cfg.T_src), cfg.T_src,
            beta)


def _couplings(cfg, w):
    """((internal, external) loss couplings of io_relation(cfg, w), check).

    The check, for _raise_first, fails where the internal coupling is not
    finite, where (Omega / gamma)^2 overflows.
    """
    t_src, external = _per_config(
        lambda one, _: (one.T_src, math.sqrt(one.eps_ext)), cfg, w)
    with np.errstate(over="ignore", invalid="ignore"):
        loss = effective_internal_loss(cfg, w)
        coupling = np.sqrt(t_src * loss)
    return (_scalar_or_array(coupling), external), (
        ~np.isfinite(coupling), DegeneracyError, lambda i: (
            f"internal loss {loss.flat[i]:.3g} is not finite at "
            f"Omega = {w.flat[i]:.6g} rad/s"))


def _lossless(cfg: IfoConfig) -> IfoConfig:
    """cfg with every loss channel switched off."""
    return replace(cfg, eps_arm=0.0, eps_src_channels=(0.0,), eps_ext=0.0)


def _covariance_from(cfg, w, io: IoRelation):
    """(F4 rows, Sigma entries, c_ext^2) of the output covariance
    Sigma = F F^dag over w.

    F4 = [M_io S_in, c_int M_c] is the first four columns of the
    square-root factor F = [F4, c_ext I]; each of its two rows is a tuple
    of four entries.  Sigma's diagonal is real and Sigma_21 is
    conj(Sigma_12).
    """
    r, theta, ext_sq = _per_config(lambda one, _: (
        one.r_input, one.theta_input, math.sqrt(one.eps_ext)**2), cfg, w)
    p11, p12, p21, p22 = _mul(io.M_io, squeeze_entries(r, theta))
    c11, c12, c21, c22 = (io.internal_coupling * e for e in io.M_c)
    rows = (p11, p12, c11, c12), (p21, p22, c21, c22)
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


def _in_order(step, cfg, w: np.ndarray, evaluate):
    """step(), one stage over the points w of cfg with checks of its own.

    When it fails at point k, evaluate(cfg, w[:k]) first runs the caller on
    the points before it (and their configs, for a tuple of configs), so a
    failure that a loop over the points meets earlier is the one raised.
    """
    try:
        return step()
    except DegeneracyError as exc:
        k = exc.index
        if k:
            evaluate(cfg if isinstance(cfg, IfoConfig) else cfg[:k], w[:k])
        raise


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


def _homodyne_from(w, zeta_arr, io: IoRelation, sigma):
    """homodyne_spectrum over w from its IoRelation and covariance entries.

    One angle gives a value per point of w, angles at a scalar w a value per
    angle, and a row of M angles against an (N,) w gives (N, M) values, one
    row per frequency.  A frequency with a blind angle fails, and the
    message names its first blind angle, as a loop over the frequencies and
    then the angles meets it.
    """
    s11, s12, _, s22 = sigma
    v1, v2 = io.v
    if w.ndim and zeta_arr.ndim:
        # one row of angles per frequency
        s11, s12, s22, v1, v2 = (np.reshape(e, (-1, 1))
                                 for e in (s11, s12, s22, v1, v2))
    c, s = np.cos(zeta_arr), np.sin(zeta_arr)
    qv = c * v1 + s * v2
    blind = np.abs(qv) < BLIND_TOL * np.sqrt(_abs2(v1) + _abs2(v2))
    by_point = np.reshape(blind, (w.size, zeta_arr.size))
    angles = np.broadcast_to(zeta_arr, blind.shape).reshape(by_point.shape)
    _raise_first((by_point.any(axis=1), BlindQuadratureError, lambda i: (
        f"readout angle {angles[i, np.argmax(by_point[i])]:.6g} "
        "rad is orthogonal to the signal response")))
    noise = c * c * s11 + 2.0 * c * s * np.real(s12) + s * s * s22
    return _scalar_or_array(noise / _abs2(qv))


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


def _optimal_from(w, io: IoRelation, covariance):
    """The spectrum of optimal_spectrum over w from its IoRelation and
    _covariance_from."""
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
        # lstsq's rank test sigma_min > 6 eps sigma_max on the singular
        # values of F, which are those of L: their product is |det L| and
        # their squares sum to |L|_F^2 = |F|_F^2
        det_l = l11 * l22
        frob = g11 + g22
        sigma_max_sq = 0.5 * (frob + np.sqrt(np.maximum(
            frob * frob - 4.0 * det_l * det_l, 0.0)))
        full_rank = det_l > _RANK_TOL * sigma_max_sq
    _raise_first(
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
    # singular A finite: it then yields A's null direction.  The angle does
    # not depend on the scale of B, which is divided by the power of two
    # of its largest entry: an exact step that keeps a strong signal's
    # products below overflow.
    a12 = g21.real
    b11, b22 = _abs2(v1), _abs2(v2)
    b12 = (v1 * v2.conj()).real
    _, exponent = np.frexp(np.maximum(np.maximum(b11, b22), np.abs(b12)))
    b11, b22, b12 = (np.ldexp(b, -exponent) for b in (b11, b22, b12))
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
    omega gives an array.
    """
    return optimal_spectrum(_lossless(cfg), omega)[0]


class _Solve:
    """One loop solve over a batch of omega; every exact spectrum, public or
    internal, is read from one by read().

    io_relation(cfg, omega) runs once, when a spectrum first needs it; cfg
    may be a tuple of configs, one per frequency.  The optimal and every
    fixed-angle readout share its covariance.  Readouts with the losses of
    another config read the same M_io, M_c and v with that config's
    couplings, since the loop does not depend on loss; the lossless bound is
    one of them.  A failure is the one a loop over the points meets first.
    """

    def __init__(self, cfg, omega):
        self.cfg, self.w = cfg, _frequencies(omega)

    @functools.cached_property
    def io(self):
        return io_relation(self.cfg, self.w)

    @functools.cached_property
    def covariance(self):
        return _covariance_from(self.cfg, self.w, self.io)

    def read(self, spectra):
        """spectra(self), its failure ordered by _in_order."""
        return _in_order(lambda: spectra(self), self.cfg, self.w,
                         lambda cfg, w: _Solve(cfg, w).read(spectra))

    def optimal(self):
        return _optimal_from(self.w, self.io, self.covariance)

    def homodyne(self, zeta):
        """homodyne_spectrum at zeta; a row of M angles gives (N, M)."""
        return _homodyne_from(self.w, np.asarray(zeta, dtype=float), self.io,
                              self.covariance[1])

    def optimal_with(self, cfg):
        """optimal() for cfg, the solved config with other losses; the
        loop's checks run before those of cfg's couplings."""
        m_io, m_c, v = self.io.M_io, self.io.M_c, self.io.v
        couplings, check = _couplings(cfg, self.w)
        _raise_first(check)
        io = IoRelation(m_io, m_c, v, *couplings)
        return _optimal_from(self.w, io, _covariance_from(cfg, self.w, io))

    def qcrb(self):
        return self.optimal_with(_lossless(self.cfg))
