"""Transfer-matrix algebra on the amplitude/phase quadrature pair.

Every optical element in the model acts on the column vector (a1, a2)' of
amplitude and phase quadratures as a complex 2x2 matrix.  This module holds
the elementary constructors (rotation for passive elements, squeezing for
phase-sensitive active elements, and the lower-triangular ponderomotive
matrix from radiation-pressure coupling) plus the small amount of generic
2x2 plumbing the rest of the package needs.

Conventions: a1 is the amplitude quadrature, a2 the phase quadrature, and
all matrices multiply column vectors from the left.  Angles are in radians;
decibels appear only in the conversion helpers.
"""

from __future__ import annotations

import math

import numpy as np

# symplectic form J on (a1, a2); real symplectic matrices satisfy M J M^T = J
SYMPLECTIC_FORM = np.array([[0.0, 1.0], [-1.0, 0.0]])
SYMPLECTIC_FORM.flags.writeable = False   # read by every validate request

# e^40 is still comfortably inside double range while far beyond any
# physical squeeze level
MAX_SQUEEZE_FACTOR = 20.0


def mat2(m11, m12, m21, m22) -> np.ndarray:
    """Assemble 2x2 matrices from their four entries.

    Scalar entries give one (2, 2) matrix; 1-D arrays of one length N give
    a stack of shape (N, 2, 2).  Entries are all scalars or all arrays.
    """
    m = np.array([m11, m12, m21, m22])
    return m.T.reshape(m.shape[1:] + (2, 2))


def any_true(mask) -> bool:
    """Whether a boolean scalar or array holds any True entry; an array's
    are counted (np.count_nonzero costs less than mask.any())."""
    return bool(np.count_nonzero(mask) if getattr(mask, "ndim", 0) else mask)


def all_true(mask) -> bool:
    """Whether every entry of a boolean scalar or array is True; an array's
    True entries are counted against its size."""
    return bool(np.count_nonzero(mask) == mask.size
                if getattr(mask, "ndim", 0) else mask)


def mat_inv(m: np.ndarray) -> np.ndarray:
    """Invert a 2x2 matrix, or each matrix in a stack, via the adjugate.

    Raises ValueError on vanishing determinant.  The round trip M @ mat_inv(M)
    reproduces the identity to machine-limited accuracy for well-conditioned
    input (roughly cond(M) * machine epsilon per entry).
    """
    (m11, m21), (m12, m22) = m.T
    d = np.asarray(m11 * m22 - m12 * m21)
    if any_true(d == 0.0):
        raise ValueError("matrix is singular, cannot invert")
    return mat2(m22, -m12, -m21, m11) / d[..., None, None]


def arccot(x):
    """Inverse cotangent on the (0, pi) branch, so arccot(0) = pi/2."""
    return 0.5 * math.pi - np.arctan(x)


def rotation_entries(angle):
    """(m11, m12, m21, m22) of rotation_matrix(angle), unchecked."""
    c, s = np.cos(angle), np.sin(angle)
    return c, -s, s, c


def squeeze_entries(r, theta):
    """(m11, m12, m21, m22) of squeeze_matrix(r, theta), unchecked."""
    c, s = np.cos(theta), np.sin(theta)
    grow, shrink = np.exp(r), np.exp(-r)
    cc, ss = c * c, s * s
    off = c * s * (grow - shrink)
    return cc * grow + ss * shrink, off, off, ss * grow + cc * shrink


def rotation_matrix(angle) -> np.ndarray:
    """Quadrature rotation [[cos, -sin], [sin, cos]] of a passive element.

    A lossless element with no external pump only rotates the quadratures;
    for a detuned cavity the angle is frequency dependent.  A 1-D array of
    angles gives a stack of shape (N, 2, 2).
    """
    angle = np.asarray(angle, dtype=float)
    if not all_true(np.isfinite(angle)):
        raise ValueError("rotation angle must be finite")
    return mat2(*rotation_entries(angle))


def squeeze_matrix(r, theta=0.0) -> np.ndarray:
    """Phase-sensitive squeeze matrix rot(theta) diag(e^r, e^-r) rot(-theta).

    r = 1 at theta = 0 squeezes the phase quadrature by e^-1, i.e. about
    8.7 dB (see db_from_r).  |r| above MAX_SQUEEZE_FACTOR is rejected as an
    overflow guard.  r and theta may be scalars or 1-D arrays of one length
    N, which give a stack of shape (N, 2, 2).
    """
    r, theta = np.asarray(r, dtype=float), np.asarray(theta, dtype=float)
    if not (all_true(np.isfinite(r)) and all_true(np.isfinite(theta))):
        raise ValueError("squeeze parameters must be finite")
    size = np.abs(r)
    if any_true(size > MAX_SQUEEZE_FACTOR):
        raise ValueError(f"|r| = {np.max(size):.3g} exceeds the overflow "
                         f"guard ({MAX_SQUEEZE_FACTOR})")
    return mat2(*squeeze_entries(r, theta))


def ponderomotive_matrix(gain) -> np.ndarray:
    """Radiation-pressure transfer [[1, 0], [-gain, 1]].

    Amplitude fluctuations drive the test mass, which imprints them back
    onto the phase quadrature with dimensionless gain >= 0.  A 1-D array of
    gains gives a stack of shape (N, 2, 2).
    """
    gain = np.asarray(gain, dtype=float)
    if not all_true(np.isfinite(gain) & (gain >= 0.0)):
        raise ValueError("ponderomotive gain must be finite and >= 0")
    one = np.ones_like(gain)
    return mat2(one, 0.0 * one, -gain, one)


def ponderomotive_decompose(gain):
    """Split the ponderomotive matrix into a rotation followed by a squeeze.

    Returns (phi, r, theta) such that
        squeeze_matrix(r, theta) @ rotation_matrix(phi)
    equals ponderomotive_matrix(gain), with
        phi = -arctan(gain/2), theta = arccot(gain/2)/2 in (0, pi/4),
        r = -arcsinh(gain/2).
    An array of gains gives arrays of phi, r and theta.  An infinite gain
    gives the limit phi = -pi/2, r = -inf, theta = 0.

    The decomposition degenerates at gain <= 0 and is rejected there.
    """
    if not all_true(gain > 0.0):
        raise ValueError("decomposition requires gain > 0")
    half = 0.5 * gain
    phi = -np.arctan(half)
    r = -np.arcsinh(half)
    theta = 0.5 * arccot(half)
    return phi, r, theta


def db_from_r(r: float) -> float:
    """Squeeze factor to decibels: dB = 10 log10(e^(2r))."""
    return 20.0 * r / math.log(10.0)


def r_from_db(db: float) -> float:
    """Decibels to squeeze factor, inverse of db_from_r."""
    return db * math.log(10.0) / 20.0
