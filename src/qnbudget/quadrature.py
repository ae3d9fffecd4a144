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
from dataclasses import dataclass

import numpy as np

from .constants import TWO_PI

# symplectic form J on (a1, a2); real symplectic matrices satisfy M J M^T = J
SYMPLECTIC_FORM = np.array([[0.0, 1.0], [-1.0, 0.0]])

# e^40 is still comfortably inside double range while far beyond any
# physical squeeze level
MAX_SQUEEZE_FACTOR = 20.0


def mat2(m11, m12, m21, m22) -> np.ndarray:
    """Assemble a 2x2 matrix from its four entries."""
    return np.array([[m11, m12], [m21, m22]])


def vec2(a1, a2) -> np.ndarray:
    """Assemble a quadrature 2-vector (a1, a2)."""
    return np.array([a1, a2])


def adjoint(m: np.ndarray) -> np.ndarray:
    """Hermitian adjoint."""
    return m.conj().T


def det2(m: np.ndarray):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def mat_inv(m: np.ndarray) -> np.ndarray:
    """Invert a 2x2 matrix via the adjugate.

    Raises ValueError on vanishing determinant.  The round trip M @ mat_inv(M)
    reproduces the identity to machine-limited accuracy for well-conditioned
    input (roughly cond(M) * machine epsilon per entry).
    """
    d = det2(m)
    if abs(d) == 0.0:
        raise ValueError("matrix is singular, cannot invert")
    return mat2(m[1, 1], -m[0, 1], -m[1, 0], m[0, 0]) / d


def arccot(x: float) -> float:
    """Inverse cotangent on the (0, pi) branch, so arccot(0) = pi/2."""
    return 0.5 * math.pi - math.atan(x)


@dataclass(frozen=True)
class SqueezeParams:
    """Squeeze factor r (e-folds) and squeeze angle theta.

    theta is reduced to [0, 2pi) on construction; note that the squeeze
    matrix itself is pi-periodic in theta.
    """

    r: float
    theta: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.r):
            raise ValueError("squeeze factor must be finite")
        if not math.isfinite(self.theta):
            raise ValueError("squeeze angle must be finite")
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)


def rotation_matrix(angle: float) -> np.ndarray:
    """Quadrature rotation [[cos, -sin], [sin, cos]] of a passive element.

    A lossless element with no external pump only rotates the quadratures;
    for a detuned cavity the angle is frequency dependent.
    """
    if not math.isfinite(angle):
        raise ValueError("rotation angle must be finite")
    c, s = math.cos(angle), math.sin(angle)
    return mat2(c, -s, s, c)


def squeeze_matrix(r: float, theta: float = 0.0) -> np.ndarray:
    """Phase-sensitive squeeze matrix rot(theta) diag(e^r, e^-r) rot(-theta).

    r = 1 at theta = 0 squeezes the phase quadrature by e^-1, i.e. about
    8.7 dB (see db_from_r).  |r| above MAX_SQUEEZE_FACTOR is rejected as an
    overflow guard.
    """
    if not (math.isfinite(r) and math.isfinite(theta)):
        raise ValueError("squeeze parameters must be finite")
    if abs(r) > MAX_SQUEEZE_FACTOR:
        raise ValueError(
            f"|r| = {abs(r):.3g} exceeds the overflow guard ({MAX_SQUEEZE_FACTOR})")
    rot = rotation_matrix(theta)
    return rot @ np.diag([math.exp(r), math.exp(-r)]) @ rot.T


def ponderomotive_matrix(gain: float) -> np.ndarray:
    """Radiation-pressure transfer [[1, 0], [-gain, 1]].

    Amplitude fluctuations drive the test mass, which imprints them back
    onto the phase quadrature with dimensionless gain >= 0.
    """
    if not math.isfinite(gain) or gain < 0.0:
        raise ValueError("ponderomotive gain must be finite and >= 0")
    return mat2(1.0, 0.0, -float(gain), 1.0)


def ponderomotive_decompose(gain: float) -> tuple[float, SqueezeParams]:
    """Split the ponderomotive matrix into a rotation followed by a squeeze.

    Returns (phi, params) such that
        squeeze_matrix(params.r, params.theta) @ rotation_matrix(phi)
    equals ponderomotive_matrix(gain), with
        phi = -arctan(gain/2), theta = arccot(gain/2)/2, r = -arcsinh(gain/2).

    The decomposition degenerates at gain <= 0 and is rejected there.
    """
    if not math.isfinite(gain) or gain <= 0.0:
        raise ValueError("decomposition requires gain > 0")
    half = 0.5 * gain
    phi = -math.atan(half)
    theta = 0.5 * arccot(half)
    r = -math.asinh(half)
    return phi, SqueezeParams(r=r, theta=theta)


def db_from_r(r: float) -> float:
    """Squeeze factor to decibels: dB = 10 log10(e^(2r))."""
    return 20.0 * r / math.log(10.0)


def r_from_db(db: float) -> float:
    """Decibels to squeeze factor, inverse of db_from_r."""
    return db * math.log(10.0) / 20.0
