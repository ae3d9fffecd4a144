"""Cross-module consistency checks behind the `validate` CLI verb.

Each check compares two independent routes to the same quantity, or, for
loss_monotonicity, the configuration's optimal spectrum with more loss and
without, and reports the worst relative deviation against a fixed
tolerance.  The randomized checks draw from a seeded generator, so a report
is deterministic for a given configuration and seed.  What depends on
neither is computed once per process and shared read-only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import errors, fdt, ifo, limits
from .config import TWO_PI_C, IfoConfig, InternalSqueeze, config_hash
from .constants import TWO_PI
from .errors import ConfigError, DegeneracyError, _as_degeneracy
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


# random_config's trailing draws, in the order it takes them: L, M,
# log10 P, lambda0, T_itm, eps_arm, eps_src, eps_ext, r_input, theta_input
# and Theta
_DRAW_LOW = np.array([1e3, 10.0, 4.0, 0.5e-6, 0.005, 0.0, 0.0, 0.0, 0.0,
                      0.0, -0.3])
_DRAW_HIGH = np.array([1e4, 200.0, 6.3, 1.6e-6, 0.05, 3e-4, 3e-3, 0.3, 2.0,
                       TWO_PI, 0.3])
_SYMPLECTIC_LOW = np.array([-10.0, -2.0, 0.0, -3.0])   # of _check_symplectic
_SYMPLECTIC_HIGH = np.array([10.0, 2.0, TWO_PI, 2.0])
_NO_INTERNAL_SQZ = InternalSqueeze()


def random_config(rng: np.random.Generator) -> IfoConfig:
    """Draw a physically valid configuration, safe from the lasing threshold.

    The sequence of generator calls is part of the contract: the
    benchmark's config pool and the tests replay it.
    """
    t_src = 10.0 ** rng.uniform(-2.0, math.log10(0.5))
    # unity round-trip gain needs e^|r| to reach 1/sqrt(1 - T_src)
    r_cap = -0.5 * math.log1p(-t_src)
    mode = ("none", "fixed")[rng.integers(2)]
    sqz = _NO_INTERNAL_SQZ
    if mode == "fixed":
        sqz = InternalSqueeze(mode="fixed",
                              r=rng.uniform(-0.8, 0.8) * r_cap,
                              theta=rng.uniform(0.0, math.pi))
    (length, mass, log_p, lambda0, t_itm, eps_arm, eps_src, eps_ext, r_input,
     theta_input, theta) = rng.uniform(_DRAW_LOW, _DRAW_HIGH).tolist()
    return IfoConfig(
        L=length,
        M=mass,
        P=10.0 ** log_p,
        omega0=TWO_PI_C / lambda0,
        T_itm=t_itm,
        T_src=t_src,
        eps_arm=eps_arm,
        eps_src_channels=(eps_src,),
        eps_ext=eps_ext,
        r_input=r_input,
        theta_input=theta_input,
        internal_sqz=sqz,
        Theta=theta,
    )


def _worst(got, want) -> float:
    """Largest relative deviation of got from want, over all points (0 for
    none); a NaN deviation is kept, so that its check fails."""
    return float(np.max(np.abs(got - want) / want, initial=0.0))


def _check_symplectic(rng) -> CheckResult:
    j = SYMPLECTIC_FORM
    angle, r, theta, log_gain = rng.uniform(
        _SYMPLECTIC_LOW, _SYMPLECTIC_HIGH, size=(200, 4)).T
    worst = np.max([np.abs(m @ j @ m.swapaxes(1, 2) - j).max() for m in (
        rotation_matrix(angle), squeeze_matrix(r, theta),
        ponderomotive_matrix(10.0 ** log_gain))], initial=0.0)
    return CheckResult("symplectic", float(worst), 1e-12)


@functools.cache   # depends on neither config nor seed
def _check_decomposition() -> CheckResult:
    gain = np.geomspace(1e-3, 1e3, 61)
    phi, r, theta = ponderomotive_decompose(gain)
    recomposed = squeeze_matrix(r, theta) @ rotation_matrix(phi)
    worst = float(np.abs(recomposed - ponderomotive_matrix(gain)).max())
    return CheckResult("decomposition_roundtrip", worst, 1e-10)


# frequencies [Hz] of the checks against the exact pipeline
_CHECK_HZ = np.array([12.0, 110.0, 980.0])
_CHECK_OMEGA = TWO_PI * _CHECK_HZ
_FDT_OMEGA = TWO_PI * np.geomspace(5.0, 5000.0, 25)   # of fdt_vs_loss_limit

# readout angles [rad] of the optimal_vs_grid scan, and their cos and sin
_GRID_ZETAS = (np.arange(4000) + 0.5) * math.pi / 4000
_GRID_TRIG = (np.cos(_GRID_ZETAS), np.sin(_GRID_ZETAS))
for _a in (_DRAW_LOW, _DRAW_HIGH, _SYMPLECTIC_LOW, _SYMPLECTIC_HIGH,
           _CHECK_HZ, _CHECK_OMEGA, _FDT_OMEGA, _GRID_ZETAS, *_GRID_TRIG):
    _a.flags.writeable = False


def _check_exact(cfg, rng) -> tuple[CheckResult, CheckResult]:
    """The optimal_vs_grid and loss_monotonicity checks, read from one loop
    solve of cfg at _CHECK_HZ.

    optimal_vs_grid compares the optimal spectrum with the minimum of a
    scan over readout angles; loss_monotonicity with the spectra, read in
    one pass, of three rows of losses, each raising one loss of cfg by a
    drawn fraction of its headroom to 1: eps_arm, eps_ext and eps_src, the
    sum of cfg's constant channels (cfg is resolved), which must not lower
    it.  The first row that fails alone raises its error again, of the same
    type and index, with a prefix naming the loss and the fraction.
    """
    fractions = rng.uniform(0.0, 0.1, size=3)
    base = np.array([cfg.eps_arm, cfg.eps_ext, sum(cfg.eps_src_channels)])
    raised = base + np.diag(fractions * (1.0 - base))   # one loss raised a row
    solve = ifo._Solve(cfg, _CHECK_OMEGA)
    s_opt = solve.read(ifo._Solve.optimal)
    # one row of the scan per frequency, one column per angle
    grid_min = solve.read(lambda o: o.homodyne(_GRID_ZETAS, _GRID_TRIG)).min(1)
    try:
        s_more = solve.optimal_with(raised)
    except DegeneracyError:
        for k, name in enumerate(("eps_arm", "eps_ext", "eps_src")):
            try:
                solve.optimal_with(raised[k:k + 1])
            except DegeneracyError as exc:
                raise type(exc)(f"loss_monotonicity: with {name} raised by "
                                f"{fractions[k]:.3g} of its headroom: {exc}",
                                index=exc.index) from exc
        raise
    return (CheckResult("optimal_vs_grid", _worst(grid_min, s_opt), 1e-3),
            CheckResult("loss_monotonicity", float(np.max(
                (s_opt - s_more) / s_opt, initial=0.0)), 1e-12))


def _check_fdt(cfg) -> CheckResult:
    arm_only = replace(cfg, eps_src_channels=(0.0,), eps_ext=0.0)
    closed = limits.loss_limit(arm_only, _FDT_OMEGA, limits.ALPHA_NO_INTERNAL)
    oracle = fdt.loss_floor_fdt(arm_only, _FDT_OMEGA)
    # compared where the closed form is a positive double: an eps_arm of 0,
    # or one below about 5e-278, whose floor underflows, compares nothing
    positive = closed > 0.0
    return CheckResult("fdt_vs_loss_limit",
                       _worst(oracle[positive], closed[positive]), 1e-3)


def _check_taylor_regime(cfg) -> tuple[CheckResult, CheckResult]:
    """The taylor_vs_exact and first_order_split checks, which share spectra.

    Both compare the exact pipeline on the Taylor-regime copy of cfg with
    its lossless optimum plus taylor_loss_no_internal, the alpha = 1/4 loss
    limit.
    """
    small = replace(cfg, T_src=1e-3, Theta=0.0, r_input=0.0, theta_input=0.0,
                    internal_sqz=_NO_INTERNAL_SQZ, residual_phase=0.0)
    solve = ifo._Solve(small, _CHECK_OMEGA)
    exact_qcrb = solve.read(ifo._Solve.qcrb)
    s_full = solve.read(ifo._Solve.optimal)
    floor = limits.taylor_loss_no_internal(small, _CHECK_OMEGA)
    shot = limits.taylor_qcrb_no_internal(small, _CHECK_OMEGA)
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
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or seed < 0):
        raise ConfigError(f"seed: must be a non-negative integer, got {seed!r}")
    errors._SHOWN.clear()   # each request prints its warnings, as a budget's
    rng = np.random.default_rng(seed)
    resolved = ifo.resolve_band(cfg, (_CHECK_HZ[0], _CHECK_HZ[-1]))
    try:
        # no numpy warning: a value beyond the double range fails its check
        with np.errstate(all="ignore"):
            checks = (
                _check_symplectic(rng),
                _check_decomposition(),
                *_check_exact(resolved, rng),
                _check_fdt(resolved),
                *_check_taylor_regime(resolved),
            )
    except (OverflowError, ZeroDivisionError) as exc:
        raise _as_degeneracy(exc) from exc
    return ValidationReport(config_sha256=config_hash(cfg), seed=seed,
                            checks=checks)
