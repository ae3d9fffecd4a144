import math
import os
from dataclasses import replace

import numpy as np
import pytest

from qnbudget import (ALPHA_NO_INTERNAL, CavityMode, RegimeWarning,
                      chi_phase_amp, chi_phase_phase,
                      coupled_susceptibilities, default_config, gw_coupling,
                      loss_floor_fdt, loss_limit, mode_for)
from qnbudget.constants import HBAR

TWO_PI = 2 * math.pi


@pytest.fixture
def cfg():
    return default_config()


@pytest.fixture
def mode():
    return CavityMode(omega_cav=1e15, gamma_eps=1e3)


class TestCavityMode:
    def test_from_config(self, cfg):
        m = mode_for(cfg)
        assert m.omega_cav == cfg.omega0
        assert m.gamma_eps == pytest.approx(
            299792458.0 * 1e-4 / 16000.0, rel=1e-12, abs=0.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CavityMode(omega_cav=0.0, gamma_eps=1.0)
        with pytest.raises(ValueError):
            CavityMode(omega_cav=1e15, gamma_eps=-1.0)

    def test_validity_warning(self):
        with pytest.warns(RegimeWarning):
            CavityMode(omega_cav=1e4, gamma_eps=1e2)

    def test_validity_warning_points_at_the_builder(self, cfg):
        # the line that built the mode, not the generated __init__
        with pytest.warns(RegimeWarning) as record:
            loss_floor_fdt(replace(cfg, omega0=1e3), TWO_PI * 10.0)
        assert os.path.basename(record[0].filename) == "fdt.py"
        with pytest.warns(RegimeWarning) as record:
            CavityMode(omega_cav=1e4, gamma_eps=1e2)
        assert record[0].filename == __file__


class TestSusceptibilities:
    def test_static_phase_phase_is_real(self, mode):
        chi = chi_phase_phase(mode, 0.0)
        assert chi.imag == 0.0
        expect = mode.omega_cav / (HBAR * (mode.gamma_eps**2 + mode.omega_cav**2))
        assert chi.real == pytest.approx(expect, rel=1e-12, abs=0.0)

    def test_dissipative_sign(self, mode):
        for w in np.geomspace(1e12, 2e15, 40):
            assert chi_phase_phase(mode, w).imag > 0

    def test_lossless_limit_off_resonance(self):
        tiny = CavityMode(omega_cav=1e15, gamma_eps=1e-9)
        chi = chi_phase_phase(tiny, 0.7e15)
        assert abs(chi.imag) < 1e-12 * abs(chi.real)

    def test_phase_amp_static_value(self, mode):
        chi = chi_phase_amp(mode, 0.0)
        expect = -mode.gamma_eps / (HBAR * (mode.gamma_eps**2 + mode.omega_cav**2))
        assert chi == pytest.approx(expect, rel=1e-12, abs=0.0)

    def test_phase_amp_peaks_at_resonance(self, mode):
        grid = np.linspace(0.5, 1.5, 2001) * mode.omega_cav
        mags = np.abs([chi_phase_amp(mode, w) for w in grid])
        w_peak = grid[int(np.argmax(mags))]
        assert abs(w_peak - mode.omega_cav) < 2 * (grid[1] - grid[0])

    def test_phase_amp_lossless_is_reactive(self):
        tiny = CavityMode(omega_cav=1e15, gamma_eps=1e-12)
        chi = chi_phase_amp(tiny, 0.7e15)
        assert abs(chi.real) < 1e-9 * abs(chi.imag)


class TestFdtSpectrum:
    """The zero-temperature fluctuation spectrum 2 hbar Im[chi_phase_phase]."""

    def test_on_resonance_value(self, mode):
        # substitute omega = omega_cav by hand: D = gamma^2 - 2i gamma w
        w = mode.omega_cav
        d = mode.gamma_eps**2 - 2j * mode.gamma_eps * w
        expect = (mode.omega_cav / (HBAR * d)).imag
        assert chi_phase_phase(mode, w).imag == pytest.approx(
            expect, rel=1e-12, abs=0.0)

    def test_positivity(self, mode):
        for w in np.geomspace(1e10, 3e15, 60):
            assert chi_phase_phase(mode, w).imag >= 0


class TestGwCoupling:
    def test_zero_power(self):
        assert gw_coupling(0.0, 1e15, 4000.0) == 0.0
        # below zero power, or at zero omega0 or L, there is no coupling
        for args in ((-1.0, 1e15, 4000.0), (1e5, 0.0, 4000.0),
                     (1e5, 1e15, 0.0)):
            with pytest.raises(ValueError, match="^power must be >= 0"):
                gw_coupling(*args)

    def test_sqrt_power_scaling(self):
        assert gw_coupling(4e5, 1e15, 4000.0) == pytest.approx(
            2 * gw_coupling(1e5, 1e15, 4000.0), rel=1e-12, abs=0.0)

    def test_default_value(self, cfg):
        g = gw_coupling(cfg.P, cfg.omega0, cfg.L)
        assert g == pytest.approx(6.693080266457569e21, rel=1e-10, abs=0.0)


class TestLossFloor:
    def test_matches_closed_form(self, cfg):
        arm_only = replace(cfg, eps_src_channels=(0.0,), eps_ext=0.0)
        for f in np.geomspace(5.0, 5000.0, 20):
            closed = loss_limit(arm_only, TWO_PI * f, ALPHA_NO_INTERNAL)
            assert loss_floor_fdt(arm_only, TWO_PI * f) == pytest.approx(
                closed, rel=1e-3, abs=0.0)

    def test_zero_arm_loss(self, cfg):
        c = replace(cfg, eps_arm=0.0)
        assert loss_floor_fdt(c, TWO_PI * 100.0) == 0.0

    def test_flat_across_band(self, cfg):
        vals = np.array([loss_floor_fdt(cfg, TWO_PI * f)
                         for f in np.geomspace(5.0, 5000.0, 40)])
        assert np.ptp(vals) / vals.mean() < 1e-5


class TestCoupledSusceptibilities:
    def test_zero_coupling_unchanged(self, mode):
        cpp = chi_phase_phase(mode, 0.9e15)
        cpa = chi_phase_amp(mode, 0.9e15)
        assert coupled_susceptibilities(cpp, cpa, 0.0) == (cpp, cpa)

    def test_lossless_coupling_invariance(self, mode):
        rng = np.random.default_rng(17)
        for _ in range(50):
            w = 10 ** rng.uniform(13.5, 15.3)
            cpp = chi_phase_phase(mode, w)
            cpa = chi_phase_amp(mode, w)
            ratio0 = cpp.imag / abs(cpa) ** 2
            chi_free = rng.uniform(-3.0, 3.0) / abs(cpp)
            cpp2, cpa2 = coupled_susceptibilities(cpp, cpa, chi_free)
            assert cpp2.imag / abs(cpa2) ** 2 == pytest.approx(
                ratio0, rel=1e-12, abs=0.0)

    def test_lossy_coupling_breaks_invariance(self, mode):
        w = 0.9e15
        cpp = chi_phase_phase(mode, w)
        cpa = chi_phase_amp(mode, w)
        ratio0 = cpp.imag / abs(cpa) ** 2
        cpp2, cpa2 = coupled_susceptibilities(cpp, cpa, (0.5 + 0.3j) / abs(cpp))
        assert abs(cpp2.imag / abs(cpa2) ** 2 - ratio0) > 0.01 * abs(ratio0)

    def test_singular_coupling_rejected(self, mode):
        cpp = chi_phase_phase(mode, 0.9e15)
        cpa = chi_phase_amp(mode, 0.9e15)
        with pytest.raises(ValueError):
            coupled_susceptibilities(cpp, cpa, 1.0 / cpp)
