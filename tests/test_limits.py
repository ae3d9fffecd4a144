import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qnbudget import (ALPHA_INTERNAL, ALPHA_NO_INTERNAL, DegeneracyError,
                      FreqTable, InternalSqueeze, RegimeWarning, arm_bandwidth,
                      default_config, effective_internal_loss,
                      homodyne_spectrum, io_relation, limit_params,
                      loop_matrix, loss_floor_fdt, loss_limit,
                      optimal_spectrum, ponderomotive_gain, qcrb_from_spp,
                      qcrb_lossless, r_from_db, random_config,
                      signal_response_ratio, sql,
                      taylor_loss_internal, taylor_loss_no_internal,
                      taylor_qcrb_internal, taylor_qcrb_no_internal,
                      total_covariance)
from qnbudget import limits
from qnbudget.constants import C_LIGHT, HBAR

TWO_PI = 2 * math.pi
OMEGA = TWO_PI * 100.0


@pytest.fixture
def cfg():
    return default_config()


@pytest.fixture(autouse=True)
def _quiet_regime_warnings():
    # the default config is outside the expansion regime on purpose in a few
    # tests; regime warnings are asserted explicitly where they matter
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        yield


class TestSql:
    def test_reference_value(self, cfg):
        s = sql(replace(cfg, M=40.0, L=4000.0), OMEGA)
        assert s == pytest.approx(3.339077022946588e-48, rel=1e-10)
        assert math.sqrt(s) == pytest.approx(1.83e-24, rel=3e-3)

    def test_frequency_scaling(self, cfg):
        c = replace(cfg, M=40.0, L=4000.0)
        assert sql(c, 4 * OMEGA) == pytest.approx(sql(c, OMEGA) / 16,
                                                  rel=1e-12)

    def test_mass_length_scaling(self, cfg):
        ref = sql(replace(cfg, M=40.0, L=4000.0), OMEGA)
        assert sql(replace(cfg, M=80.0, L=4000.0 * math.sqrt(2)),
                   OMEGA) == pytest.approx(ref / 8, rel=1e-12)

    def test_positivity_required(self, cfg):
        # a negative mass or length is a ConfigError of the config itself
        for omega in (0.0, -OMEGA, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                sql(cfg, omega)


# every public route of (cfg, omega); sql and ponderomotive_gain diverge at
# omega = 0 and reject it, the others accept it
SIDEBAND_ROUTES = {
    "sql": sql,
    "ponderomotive_gain": ponderomotive_gain,
    "effective_internal_loss": effective_internal_loss,
    "loop_matrix": loop_matrix,
    "io_relation": io_relation,
    "total_covariance": total_covariance,
    "homodyne_spectrum": lambda c, w: homodyne_spectrum(c, w, math.pi / 2),
    "optimal_spectrum": optimal_spectrum,
    "qcrb_lossless": qcrb_lossless,
    "loss_limit": lambda c, w: loss_limit(c, w, ALPHA_NO_INTERNAL),
    "taylor_qcrb_internal": taylor_qcrb_internal,
    "taylor_qcrb_no_internal": taylor_qcrb_no_internal,
    "taylor_loss_internal": taylor_loss_internal,
    "taylor_loss_no_internal": taylor_loss_no_internal,
    "loss_floor_fdt": loss_floor_fdt,
}
DIVERGE_AT_ZERO = ("sql", "ponderomotive_gain")


class TestSidebandFrequency:
    @pytest.mark.parametrize("route", SIDEBAND_ROUTES)
    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_frequency_named(self, cfg, route, omega):
        for w in (omega, np.array([OMEGA, omega, -2.0])):
            with pytest.raises(ValueError) as info:
                SIDEBAND_ROUTES[route](cfg, w)
            assert f"got {omega!r} rad/s" in str(info.value)

    @pytest.mark.parametrize("route", SIDEBAND_ROUTES)
    def test_zero_frequency(self, cfg, route):
        if route in DIVERGE_AT_ZERO:
            with pytest.raises(ValueError, match="must be positive"):
                SIDEBAND_ROUTES[route](cfg, 0.0)
        else:
            SIDEBAND_ROUTES[route](cfg, 0.0)
            SIDEBAND_ROUTES[route](cfg, np.array([0.0, OMEGA]))


class TestQcrbConversion:
    def test_large_power_fluctuation_lowers_bound(self):
        assert qcrb_from_spp(1e10, 4000.0) < qcrb_from_spp(1e0, 4000.0)

    def test_doubling_halves(self):
        assert qcrb_from_spp(2e5, 4000.0) == pytest.approx(
            qcrb_from_spp(1e5, 4000.0) / 2, rel=1e-12)

    def test_round_trip(self):
        # the map is its own inverse
        s_pp = 3.7e4
        assert qcrb_from_spp(qcrb_from_spp(s_pp, 4000.0), 4000.0) == \
            pytest.approx(s_pp, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="power fluctuation"):
            qcrb_from_spp(0.0, 4000.0)
        with pytest.raises(ValueError, match="power fluctuation"):
            qcrb_from_spp(-1.0, 4000.0)


class TestLossLimit:
    def test_reference_value(self, cfg):
        pref = HBAR * C_LIGHT**2 / (4 * cfg.L**2 * cfg.omega0 * cfg.P)
        assert pref == pytest.approx(1.0456555872448709e-46, rel=1e-10)
        assert pref == pytest.approx(1.05e-46, rel=1e-2)
        s = loss_limit(cfg, TWO_PI * 1.0, ALPHA_NO_INTERNAL)
        bracket = 1e-4 + 0.014 * 1e-3 / 4 + 0.25 * 0.14 * 0.1
        assert bracket == pytest.approx(3.6e-3, rel=2e-3)
        assert s == pytest.approx(pref * bracket, rel=1e-4)
        assert s == pytest.approx(3.768e-49, rel=1e-3)

    def test_term_crossover_frequency(self, cfg):
        # closed-form frequency where the recycling-cavity loss term catches
        # up with the arm loss term
        gamma = arm_bandwidth(cfg)
        omega_x = gamma * math.sqrt(4 * cfg.eps_arm / (cfg.T_itm * 1e-3) - 1)
        assert omega_x / TWO_PI == pytest.approx(219.219, rel=1e-4)
        arm_term = loss_limit(replace(cfg, eps_src_channels=(0.0,), eps_ext=0.0),
                              omega_x, ALPHA_NO_INTERNAL)
        src_term = loss_limit(replace(cfg, eps_arm=0.0, eps_ext=0.0),
                              omega_x, ALPHA_NO_INTERNAL)
        assert src_term == pytest.approx(arm_term, rel=1e-10)

    def test_zero_loss_gives_zero(self, cfg):
        c = replace(cfg, eps_arm=0.0, eps_src_channels=(0.0,), eps_ext=0.0)
        assert loss_limit(c, OMEGA, ALPHA_INTERNAL) == 0.0

    def test_linear_in_arm_loss(self, cfg):
        pref = HBAR * C_LIGHT**2 / (4 * cfg.L**2 * cfg.omega0 * cfg.P)
        s1 = loss_limit(replace(cfg, eps_arm=1e-4), OMEGA, ALPHA_NO_INTERNAL)
        s2 = loss_limit(replace(cfg, eps_arm=3e-4), OMEGA, ALPHA_NO_INTERNAL)
        assert (s2 - s1) / 2e-4 == pytest.approx(pref, rel=1e-12)

    def test_alpha_validation(self, cfg):
        with pytest.raises(ValueError):
            loss_limit(cfg, OMEGA, 0.5)


class TestLimitParams:
    def test_fields(self):
        delta, theta0 = limit_params(1e-3, 1e-4)
        assert delta == pytest.approx(math.hypot(1e-3, 4e-4), rel=1e-15)
        assert delta >= 1e-3
        assert theta0 == pytest.approx(math.atan2(1e-3, 4e-4), rel=1e-12)
        assert 0 < theta0 < math.pi

    def test_zero_rotation_angle(self):
        assert limit_params(1e-3, 0.0)[1] == pytest.approx(math.pi / 2)


def expansion_cfg(cfg, t_src, theta_rot, r=0.0, theta=0.0, r_input=0.0):
    """cfg with the expansion inputs; theta in the expansion convention,
    minus twice the squeeze-matrix ellipse angle."""
    return replace(cfg, T_src=t_src, Theta=theta_rot, r_input=r_input,
                   internal_sqz=InternalSqueeze("fixed", r=r,
                                                theta=-theta / 2))


class TestTaylorQcrb:
    def test_vanishes_at_nulling_squeeze(self, cfg):
        delta, _ = limit_params(1e-3, 1e-4)
        s = taylor_qcrb_internal(
            expansion_cfg(cfg, 1e-3, 1e-4, delta / 2, 0.3), OMEGA)
        assert s == 0.0

    def test_reduces_to_no_internal_at_r_zero(self, cfg):
        # bit for bit: the no-internal expansion is the internal one at r = 0
        a = taylor_qcrb_internal(
            expansion_cfg(cfg, 1e-3, 1e-4, 0.0, 0.7, 0.5), OMEGA)
        b = taylor_qcrb_no_internal(
            expansion_cfg(cfg, 1e-3, 1e-4, r_input=0.5), OMEGA)
        assert a == b
        omega = TWO_PI * np.geomspace(5.0, 5000.0, 40)
        for k in range(50):
            c = random_config(np.random.default_rng([26, k]))
            np.testing.assert_array_equal(
                taylor_qcrb_no_internal(c, omega), taylor_qcrb_internal(
                    replace(c, internal_sqz=InternalSqueeze()), omega))

    @pytest.mark.parametrize("t_src", [1e-90, 1e-78, 1e-3])
    def test_small_t_src_keeps_its_digits(self, cfg, t_src):
        # delta^2 e^(-2 r_input) prefactor / (4 T_src), with delta = T_src
        # at Theta = 0: no delta^4 is formed, which underflows below 1e-77
        want = (limits._prefactor(cfg) * math.exp(-2.0 * 0.5)) * (t_src / 4.0)
        for route in (taylor_qcrb_internal, taylor_qcrb_no_internal):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RegimeWarning)
                got = route(expansion_cfg(cfg, t_src, 0.0, r_input=0.5), OMEGA)
            assert got == pytest.approx(want, rel=1e-15) and got > 0.0

    def test_matches_exact_pipeline(self, cfg):
        c = replace(cfg, T_src=1e-3, Theta=1e-4,
                    internal_sqz=InternalSqueeze("fixed", r=2e-4, theta=0.0))
        exact = qcrb_lossless(c, OMEGA)
        tay = taylor_qcrb_internal(c, OMEGA)
        assert exact == pytest.approx(tay, rel=1e-2)

    def test_denominator_guard(self, cfg):
        # r = -delta/2 with sin(theta + theta0) = 1 makes the denominator
        # collapse to zero
        delta, _ = limit_params(1e-3, 0.0)
        collapsed = expansion_cfg(cfg, 1e-3, 0.0, -delta / 2, 0.0)
        with pytest.raises(DegeneracyError, match="validity"):
            taylor_qcrb_internal(collapsed, OMEGA)
        # a batch without points has none that fails, as in the exact
        # pipeline, although the denominator does not depend on frequency;
        # and it divides by no point, so numpy does not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert taylor_qcrb_internal(collapsed, np.array([])).shape == (0,)

    def test_shot_noise_reduction_at_zero_rotation(self, cfg):
        s = taylor_qcrb_no_internal(expansion_cfg(cfg, 1e-3, 0.0), OMEGA)
        expect = HBAR * C_LIGHT**2 * 1e-3 / (16 * cfg.L**2 * cfg.omega0 * cfg.P)
        assert s == pytest.approx(expect, rel=1e-12)

    def test_nonnegative_and_zero_only_at_nulling(self, cfg):
        rng = np.random.default_rng(13)
        delta, _ = limit_params(1e-3, 1e-4)
        for _ in range(50):
            r = rng.uniform(-delta, delta)
            theta = rng.uniform(0, 2 * math.pi)
            try:
                s = taylor_qcrb_internal(
                    expansion_cfg(cfg, 1e-3, 1e-4, r, theta), OMEGA)
            except DegeneracyError as exc:
                assert "validity" in str(exc)
                continue  # collapsed denominator is outside validity
            assert s >= 0.0
            assert (s == 0.0) == (abs(r) == delta / 2)

    def test_30db_input_squeezing_factor_1000(self, cfg):
        r30 = r_from_db(30.0)
        s0 = taylor_qcrb_no_internal(expansion_cfg(cfg, 1e-3, 0.0), OMEGA)
        s1 = taylor_qcrb_no_internal(
            expansion_cfg(cfg, 1e-3, 0.0, r_input=r30), OMEGA)
        assert s0 / s1 == pytest.approx(1000.0, rel=1e-12)

    def test_no_internal_matches_exact(self, cfg):
        c = replace(cfg, T_src=1e-3, Theta=0.0)
        exact = qcrb_lossless(c, OMEGA)
        tay = taylor_qcrb_no_internal(c, OMEGA)
        assert exact == pytest.approx(tay, rel=1e-2)

    def test_regime_warning(self, cfg):
        with pytest.warns(RegimeWarning):
            taylor_qcrb_no_internal(expansion_cfg(cfg, 0.14, 0.0), OMEGA)
        with pytest.warns(RegimeWarning):
            taylor_qcrb_internal(expansion_cfg(cfg, 1e-3, 0.2), OMEGA)


TAYLOR_ROUTES = [taylor_qcrb_internal, taylor_qcrb_no_internal,
                 taylor_loss_internal, taylor_loss_no_internal]


@pytest.mark.parametrize("route", TAYLOR_ROUTES)
@pytest.mark.parametrize("omega", [OMEGA, np.array([OMEGA]),
                                   TWO_PI * np.array([10.0, 100.0, 1000.0])])
def test_taylor_returns_omega_shape(cfg, route, omega):
    # constant Theta and squeeze too: the expansion does not depend on omega
    fixed = replace(cfg, internal_sqz=InternalSqueeze("fixed", r=0.01))
    for c in (cfg, fixed):
        assert np.shape(route(c, omega)) == np.shape(omega)


class TestTaylorLoss:
    @pytest.mark.parametrize("route", [
        taylor_qcrb_no_internal, taylor_loss_internal, taylor_loss_no_internal])
    def test_regime_read_at_the_evaluated_frequencies(self, cfg, route):
        # a rotation beyond the regime only outside the band does not warn
        c = replace(cfg, T_src=0.01, Theta=FreqTable(
            f_hz=(1.0, 10.0, 1e4), values=(0.0, 0.0, 0.3)))
        omega = TWO_PI * np.geomspace(5.0, 20.0, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RegimeWarning)
            route(c, omega)
        with pytest.warns(RegimeWarning, match="Theta = 0.3"):
            route(c, TWO_PI * 1e4)

    def test_warns_under_python_c(self):
        # under `python -c` the warning's caller is a __main__ module that
        # has no source loader; the warning prints and the call succeeds
        src = os.path.dirname(os.path.dirname(limits.__file__))
        for call, text in (
                ("from qnbudget import default_config, taylor_loss_no_internal"
                 "; taylor_loss_no_internal(default_config(), 100.0)",
                 "T_src = 0.14 is outside the expansion regime (|T_src| < "
                 "0.05); the exact pipeline is authoritative"),
                ("from qnbudget.fdt import CavityMode; CavityMode(1.0, 0.5)",
                 "omega_cav/gamma_eps = 2 < 1000: single-mode approximation "
                 "is unreliable")):
            done = subprocess.run([sys.executable, "-c", call],
                                  capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": src})
            assert (done.returncode, done.stdout, done.stderr) == (
                0, "", f"<string>:1: RegimeWarning: {text}\n")

    def test_internal_equals_alpha1_loss_limit(self, cfg):
        for t_src in (1e-3, 0.14):
            c = replace(cfg, T_src=t_src)
            for f in (1.0, 100.0, 4000.0):
                assert taylor_loss_internal(c, TWO_PI * f) == \
                    loss_limit(c, TWO_PI * f, ALPHA_INTERNAL)

    def test_no_internal_equals_alpha4_loss_limit(self, cfg):
        for t_src in (1e-3, 0.14):
            c = replace(cfg, T_src=t_src)
            for f in (1.0, 100.0, 4000.0):
                assert taylor_loss_no_internal(c, TWO_PI * f) == \
                    loss_limit(c, TWO_PI * f, ALPHA_NO_INTERNAL)

    def test_external_term_four_times_larger(self, cfg):
        c = replace(cfg, T_src=1e-3)
        pref = HBAR * C_LIGHT**2 / (4 * c.L**2 * c.omega0 * c.P)
        gap = taylor_loss_internal(c, OMEGA) - taylor_loss_no_internal(c, OMEGA)
        assert gap == pytest.approx(0.75 * pref * c.T_src * c.eps_ext, rel=1e-10)

    def test_internal_branch_never_below_no_internal(self, cfg):
        rng = np.random.default_rng(11)
        for _ in range(20):
            c = replace(cfg, T_src=10 ** rng.uniform(-3, -1.5),
                        eps_ext=rng.uniform(0.0, 0.3))
            assert taylor_loss_internal(c, OMEGA) >= \
                taylor_loss_no_internal(c, OMEGA)

    def test_theta_scan_of_exact_pipeline(self, cfg):
        # the exact loss spectrum, minimised over the squeeze angle at the
        # nulling squeeze strength, lands on the internal-squeezing floor
        t = 1e-3
        base = replace(cfg, T_src=t, eps_arm=1e-5, eps_src_channels=(0.0,),
                       eps_ext=1e-3)
        lossless = replace(base, eps_arm=0.0, eps_ext=0.0)
        thetas = np.linspace(0, math.pi, 241)
        best = math.inf
        for theta in thetas:
            sq = InternalSqueeze("fixed", r=t / 2, theta=float(theta))
            s = optimal_spectrum(replace(base, internal_sqz=sq), OMEGA)[0]
            s -= optimal_spectrum(replace(lossless, internal_sqz=sq), OMEGA)[0]
            best = min(best, s)
        assert best == pytest.approx(taylor_loss_internal(base, OMEGA), rel=3e-3)


class TestSignalResponseRatio:
    def test_full_cancellation(self):
        assert signal_response_ratio(-math.pi / 2, 0.0) == pytest.approx(0.0,
                                                                         abs=1e-12)

    def test_half_at_zero_argument(self):
        assert signal_response_ratio(0.0, 0.0) == 0.5

    @pytest.mark.parametrize("angles", [(math.nan, 0.0), (0.0, math.inf)])
    def test_angles_must_be_finite(self, angles):
        with pytest.raises(ValueError, match="^angles must be finite$"):
            signal_response_ratio(*angles)

    def test_stated_optimum_substitution(self):
        # theta = pi/2 + theta0 at zero rotation angle (theta0 = pi/2) gives
        # sin(theta + theta0) = cos(2 theta0) = -1, hence zero response
        theta0 = math.pi / 2
        theta = math.pi / 2 + theta0
        assert math.sin(theta + theta0) == pytest.approx(-1.0, abs=1e-12)
        ratio = signal_response_ratio(theta, theta0)
        assert ratio == pytest.approx(0.0, abs=1e-7)
        assert ratio <= 0.5
