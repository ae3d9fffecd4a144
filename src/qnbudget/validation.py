"""Cross-module consistency checks behind the `validate` CLI verb.

Each check compares two independent routes to the same quantity and reports
the worst relative deviation against a fixed tolerance.  The randomized
checks draw from a seeded generator, so a report is deterministic for a
given configuration and seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import fdt, ifo, limits
from .config import IfoConfig, InternalSqueeze, config_hash
from .constants import TWO_PI
from .errors import ConfigError
from .quadrature import (SYMPLECTIC_FORM, ponderomotive_decompose,
                         ponderomotive_matrix, rotation_matrix, squeeze_matrix)


@dataclass(frozen=True)
class CheckResult:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.deviation <= self.tolerance


@dataclass(frozen=True)
class ValidationReport:
    config_sha256: str
    seed: int
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self):
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            yield (f"{status}  {c.name:24s} max rel deviation {c.deviation:.3e} "
                   f"(tolerance {c.tolerance:.1e})")


def random_config(rng: np.random.Generator) -> IfoConfig:
    """Draw a physically valid configuration, safe from the lasing threshold."""
    t_src = 10.0 ** rng.uniform(-2.0, math.log10(0.5))
    # unity round-trip gain needs e^|r| to reach 1/sqrt(1 - T_src)
    r_cap = -0.5 * math.log1p(-t_src)
    mode = rng.choice(["none", "fixed"])
    sqz = InternalSqueeze()
    if mode == "fixed":
        sqz = InternalSqueeze(mode="fixed",
                              r=rng.uniform(-0.8, 0.8) * r_cap,
                              theta=rng.uniform(0.0, math.pi))
    return IfoConfig(
        L=rng.uniform(1e3, 1e4),
        M=rng.uniform(10.0, 200.0),
        P=10.0 ** rng.uniform(4.0, 6.3),
        omega0=TWO_PI * 299792458.0 / rng.uniform(0.5e-6, 1.6e-6),
        T_itm=rng.uniform(0.005, 0.05),
        T_src=t_src,
        eps_arm=rng.uniform(0.0, 3e-4),
        eps_src_channels=(rng.uniform(0.0, 3e-3),),
        eps_ext=rng.uniform(0.0, 0.3),
        r_input=rng.uniform(0.0, 2.0),
        theta_input=rng.uniform(0.0, TWO_PI),
        internal_sqz=sqz,
        Theta=rng.uniform(-0.3, 0.3),
    )


def _worst(got, want) -> float:
    """Largest relative deviation of got from want, over all points."""
    return float(np.max(np.abs(got - want) / want))


def _check_symplectic(rng) -> CheckResult:
    j = SYMPLECTIC_FORM
    # 200 draws of (rotation angle, squeeze r, squeeze angle, log10 gain),
    # taken from the generator in that order
    low = np.array([-10.0, -2.0, 0.0, -3.0])
    high = np.array([10.0, 2.0, TWO_PI, 2.0])
    angle, r, theta, log_gain = rng.uniform(low, high, size=(200, 4)).T
    worst = 0.0
    for m in (rotation_matrix(angle), squeeze_matrix(r, theta),
              ponderomotive_matrix(10.0 ** log_gain)):
        worst = max(worst, float(np.abs(m @ j @ m.swapaxes(1, 2) - j).max()))
    return CheckResult("symplectic", worst, 1e-12)


def _check_decomposition() -> CheckResult:
    gain = np.geomspace(1e-3, 1e3, 61)
    phi, r, theta = ponderomotive_decompose(gain)
    recomposed = squeeze_matrix(r, theta) @ rotation_matrix(phi)
    worst = float(np.abs(recomposed - ponderomotive_matrix(gain)).max())
    return CheckResult("decomposition_roundtrip", worst, 1e-10)


# frequencies [Hz] of the checks against the exact pipeline
_CHECK_HZ = np.array([12.0, 110.0, 980.0])


def _check_optimal_vs_grid(cfg) -> CheckResult:
    zetas = (np.arange(4000) + 0.5) * math.pi / 4000
    omega = TWO_PI * _CHECK_HZ
    s_opt = ifo.optimal_spectrum(cfg, omega)[0]
    grid_min = np.array([np.min(ifo.homodyne_spectrum(cfg, w, zetas))
                         for w in omega])
    return CheckResult("optimal_vs_grid", _worst(grid_min, s_opt), 1e-3)


def _check_monotonicity(rng) -> CheckResult:
    worst = 0.0
    for _ in range(20):
        cfg = random_config(rng)
        omega = TWO_PI * 10.0 ** rng.uniform(math.log10(5.0), math.log10(5e3))
        s0 = ifo.optimal_spectrum(cfg, omega)[0]
        field = rng.choice(["eps_arm", "eps_ext", "eps_src"])
        if field == "eps_src":
            base = cfg.eps_src_channels[0]
            bumped = replace(cfg, eps_src_channels=(base + rng.uniform(0.0, 2e-3),))
        else:
            base = getattr(cfg, field)
            bumped = replace(cfg, **{field: base + rng.uniform(0.0, 0.1 * (1 - base))})
        s1 = ifo.optimal_spectrum(bumped, omega)[0]
        worst = max(worst, max(0.0, (s0 - s1) / s0))
    return CheckResult("loss_monotonicity", worst, 1e-12)


def _check_fdt(cfg) -> CheckResult:
    if cfg.eps_arm == 0.0:
        return CheckResult("fdt_vs_loss_limit", 0.0, 1e-3)
    arm_only = replace(cfg, eps_src_channels=(0.0,), eps_ext=0.0)
    omega = TWO_PI * np.geomspace(5.0, 5000.0, 25)
    closed = limits.loss_limit(arm_only, omega, limits.ALPHA_NO_INTERNAL)
    oracle = fdt.loss_floor_fdt(arm_only, omega)
    return CheckResult("fdt_vs_loss_limit", _worst(oracle, closed), 1e-3)


def _taylor_regime(cfg) -> IfoConfig:
    return replace(cfg, T_src=1e-3, Theta=0.0, r_input=0.0, theta_input=0.0,
                   internal_sqz=InternalSqueeze(), residual_phase=0.0)


def _check_taylor_regime(cfg) -> tuple[CheckResult, CheckResult]:
    """The taylor_vs_exact and first_order_split checks, which share spectra.

    Both compare the exact pipeline on the Taylor-regime copy of cfg with
    its lossless optimum plus the alpha = 1/4 loss limit, which is what
    taylor_loss_no_internal gives there.
    """
    small = _taylor_regime(cfg)
    omega = TWO_PI * _CHECK_HZ
    exact_qcrb = ifo.qcrb_lossless(small, omega)
    s_full = ifo.optimal_spectrum(small, omega)[0]
    floor = limits.loss_limit(small, omega, limits.ALPHA_NO_INTERNAL)
    shot = limits.taylor_qcrb_no_internal(small, omega)
    deviations = [_worst(exact_qcrb, shot)]
    # without loss both loss terms vanish and only the lossless one compares
    if small.eps_arm or small.eps_ext or any(small.eps_src_channels):
        deviations.append(_worst(s_full - exact_qcrb, floor))
    # np.max keeps a NaN deviation, so an undefined comparison fails
    return (CheckResult("taylor_vs_exact", float(np.max(deviations)), 1e-2),
            CheckResult("first_order_split",
                        _worst(exact_qcrb + floor, s_full), 5e-2))


def run_validation(cfg: IfoConfig, seed: int = 42) -> ValidationReport:
    """Run the cross-check suite against a configuration.

    The config is resolved over the band the checks evaluate, 12..980 Hz
    (_CHECK_HZ), so every table must cover it.  The seed must be a
    non-negative integer.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"seed: must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    resolved = ifo.resolve_band(cfg, (_CHECK_HZ[0], _CHECK_HZ[-1]))
    checks = (
        _check_symplectic(rng),
        _check_decomposition(),
        _check_optimal_vs_grid(resolved),
        _check_monotonicity(rng),
        _check_fdt(resolved),
        *_check_taylor_regime(resolved),
    )
    return ValidationReport(config_sha256=config_hash(cfg), seed=seed,
                            checks=checks)
