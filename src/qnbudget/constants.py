"""Physical constants shared across the package (SI units)."""

import math

C_LIGHT = 299792458.0    # speed of light [m/s]
HBAR = 1.054571817e-34   # reduced Planck constant [J s]
TWO_PI = 2.0 * math.pi
