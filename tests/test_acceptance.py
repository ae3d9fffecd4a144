"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s) and then
asserts, so the suite doubles as a human-readable checklist.  Expansion
comparisons give the expansions the same config as the exact pipeline, and
qnbudget.limits converts its squeeze angle to the formula-angle convention
theta_formula = -2 * theta_matrix.  Where input squeezing is on, they align
the input squeeze angle with the input-referred signal quadrature.
"""

import math
import warnings
from dataclasses import replace

import numpy as np

from qnbudget import (ALPHA_NO_INTERNAL, InternalSqueeze, RegimeWarning,
                      SYMPLECTIC_FORM, chi_phase_amp, chi_phase_phase,
                      config_to_dict, coupled_susceptibilities,
                      default_config, homodyne_spectrum, io_relation,
                      limit_params, loss_floor_fdt, loss_limit, mat2, mat_inv,
                      mode_for, optimal_spectrum, ponderomotive_decompose,
                      ponderomotive_matrix, qcrb_lossless, r_from_db,
                      random_config, rotation_matrix, squeeze_matrix,
                      taylor_loss_internal, taylor_loss_no_internal,
                      taylor_qcrb_internal, taylor_qcrb_no_internal)
from qnbudget.cli import main

TWO_PI = 2 * math.pi
OMEGA = TWO_PI * 100.0
BASE = default_config()

warnings.simplefilter("ignore", RegimeWarning)


def report(num, name, value, bound, ok=None):
    ok = value <= bound if ok is None else ok
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: " \
           f"{value:.3e} (bound {bound:.1e})"
    print(line)
    assert ok, line
    return ok


def cfg_taylor(t_src, theta_rot=0.0, r=0.0, theta_m=0.0, r_in=0.0,
               theta_in=0.0, eps=(0.0, 0.0, 0.0)):
    sqz = InternalSqueeze()
    if r != 0.0 or theta_m != 0.0:
        sqz = InternalSqueeze("fixed", r=r, theta=theta_m)
    return replace(BASE, T_src=t_src, Theta=theta_rot, r_input=r_in,
                   theta_input=theta_in, internal_sqz=sqz, eps_arm=eps[0],
                   eps_src_channels=(eps[1],), eps_ext=eps[2])


def aligned_input_angle(cfg):
    """Input squeeze angle that puts the squeezed axis on the signal."""
    lossless = replace(cfg, eps_arm=0.0, eps_src_channels=(0.0,),
                       eps_ext=0.0, r_input=0.0)
    io = io_relation(lossless, OMEGA)
    w = np.real(mat_inv(mat2(*io.M_io)) @ np.array(io.v))
    return math.atan2(w[1], w[0]) - math.pi / 2


def test_c01_loss_limit_equivalence():
    arm_only = replace(BASE, eps_src_channels=(0.0,), eps_ext=0.0)
    worst = 0.0
    for f in np.geomspace(5.0, 5000.0, 50):
        closed = loss_limit(arm_only, TWO_PI * f, ALPHA_NO_INTERNAL)
        oracle = loss_floor_fdt(arm_only, TWO_PI * f)
        worst = max(worst, abs(oracle - closed) / closed)
    report(1, "closed-form vs fluctuation-dissipation floor", worst, 1e-3)


LOSSES = (1e-5, 0.0, 1e-3)


def _golden_section_min(f, lo, hi, xatol):
    """Minimum of a unimodal f on [lo, hi], bracketed to within xatol."""
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > xatol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - shrink * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + shrink * (hi - lo)
            fd = f(d)
    return min(fc, fd)


def _exact_loss_with_nulling_squeeze(t_src, theta_rot, r_in):
    """Loss part of the exact optimum, minimised over the squeeze angle."""
    delta, _ = limit_params(t_src, theta_rot)

    def lossy(theta_m):
        c = cfg_taylor(t_src, theta_rot, delta / 2, theta_m, r_in=r_in,
                       eps=LOSSES)
        return optimal_spectrum(c, OMEGA)[0]

    grid = np.linspace(0.0, math.pi, 61)
    coarse = [lossy(t) for t in grid]
    i0 = int(np.argmin(coarse))
    # the lossless remainder at the nulling squeeze is ~T^3/16 times the
    # unsqueezed bound, orders below both the loss part and the tolerance
    return _golden_section_min(lossy, grid[max(i0 - 2, 0)],
                               grid[min(i0 + 2, 60)], 1e-9)


def _taylor_grid_deviation(t_src):
    """Worst expansion-vs-exact relative deviation over the criterion grid."""
    devs = []
    theta_rots = (0.0, 1e-4)
    for theta_rot in theta_rots:
        delta, _ = limit_params(t_src, theta_rot)
        for r_in in (0.0, 1.0):
            # lossless bound with internal squeezing, r = delta/4
            for theta_m in (0.0, 0.3, 0.9):
                c0 = cfg_taylor(t_src, theta_rot, delta / 4, theta_m)
                theta_in = aligned_input_angle(c0) if r_in else 0.0
                c = replace(c0, r_input=r_in, theta_input=theta_in)
                tay = taylor_qcrb_internal(c, OMEGA)
                devs.append(abs(qcrb_lossless(c, OMEGA) - tay) / tay)
            # nulling value r = delta/2: expansion is exactly zero, so
            # compare against the r = 0 scale (criterion 3 bounds it harder)
            c0 = cfg_taylor(t_src, theta_rot, delta / 2, 0.0)
            ref = taylor_qcrb_no_internal(c0, OMEGA)
            devs.append(qcrb_lossless(c0, OMEGA) / ref)
            # lossless bound without internal squeezing
            c0 = cfg_taylor(t_src, theta_rot)
            theta_in = aligned_input_angle(c0) if r_in else 0.0
            c = replace(c0, r_input=r_in, theta_input=theta_in)
            tay = taylor_qcrb_no_internal(c, OMEGA)
            devs.append(abs(qcrb_lossless(c, OMEGA) - tay) / tay)
            # loss floor with the nulling squeeze
            got = _exact_loss_with_nulling_squeeze(t_src, theta_rot, r_in)
            tay = taylor_loss_internal(cfg_taylor(t_src, theta_rot,
                                                  eps=LOSSES), OMEGA)
            devs.append(abs(got - tay) / tay)
        # loss floor without internal squeezing (tuned optimum)
        if theta_rot == 0.0:
            for r_in in (0.0, 1.0):
                c_lossy = cfg_taylor(t_src, 0.0, r_in=r_in, eps=LOSSES)
                c_clean = cfg_taylor(t_src, 0.0, r_in=r_in)
                got = (optimal_spectrum(c_lossy, OMEGA)[0]
                       - optimal_spectrum(c_clean, OMEGA)[0])
                tay = taylor_loss_no_internal(c_lossy, OMEGA)
                devs.append(abs(got - tay) / tay)
    return max(devs)


def test_c02_taylor_vs_exact():
    dev_large = _taylor_grid_deviation(1e-3)
    report(2, "expansion vs exact pipeline (T_src = 1e-3)", dev_large, 1e-2)
    dev_small = _taylor_grid_deviation(1e-4)
    # zero-rotation deviations scale linearly with T_src; allow 50% slack
    report(2, "deviation shrinks linearly in T_src",
           dev_small, 0.15 * dev_large)


def test_c03_qcrb_vanishing():
    worst = 0.0
    for theta_rot in (0.0, 1e-4):
        delta, _ = limit_params(1e-3, theta_rot)
        nulled = cfg_taylor(1e-3, theta_rot, delta / 2, 0.0)
        plain = cfg_taylor(1e-3, theta_rot)
        worst = max(worst, qcrb_lossless(nulled, OMEGA)
                    / qcrb_lossless(plain, OMEGA))
    report(3, "lossless bound suppression at nulling squeeze", worst, 1e-6)


def test_c04_factor_of_four():
    t_src = 1e-3
    step = 1e-3

    def ext_slope(r):
        lossy = cfg_taylor(t_src, 0.0, r, 0.0, eps=(0.0, 0.0, step))
        clean = cfg_taylor(t_src, 0.0, r, 0.0)
        return (optimal_spectrum(lossy, OMEGA)[0]
                - optimal_spectrum(clean, OMEGA)[0]) / step

    ratio = ext_slope(limit_params(t_src, 0.0)[0] / 2) / ext_slope(0.0)
    report(4, "external-loss coefficient ratio vs 4.0", abs(ratio - 4.0), 0.2)


def test_c05_optimal_readout_minimality():
    rng = np.random.default_rng(2024)
    zetas = (np.arange(10**4) + 0.5) * math.pi / 10**4
    step = math.pi / 10**4
    worst_excess, worst_gap = 0.0, 0.0
    for _ in range(20):
        cfg = random_config(rng)
        for f in 10 ** rng.uniform(math.log10(5.0), math.log10(5e3), 20):
            omega = TWO_PI * f
            s_opt, z_opt = optimal_spectrum(cfg, omega)
            s_grid = homodyne_spectrum(cfg, omega, zetas)
            worst_excess = max(worst_excess, float(np.max(s_opt / s_grid)) - 1.0)
            gap = abs(zetas[int(np.argmin(s_grid))] - z_opt) % math.pi
            worst_gap = max(worst_gap, min(gap, math.pi - gap))
    report(5, "optimal spectrum below homodyne grid", worst_excess, 1e-10)
    report(5, "grid minimum within one step of zeta_opt", worst_gap, step)


def test_c06_loss_monotonicity():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(200):
        cfg = random_config(rng)
        omega = TWO_PI * 10 ** rng.uniform(math.log10(5.0), math.log10(5e3))
        s0 = optimal_spectrum(cfg, omega)[0]
        which = rng.integers(3)
        if which == 0:
            bumped = replace(cfg, eps_arm=cfg.eps_arm + rng.uniform(0, 3e-4))
        elif which == 1:
            bumped = replace(cfg, eps_src_channels=(
                cfg.eps_src_channels[0] + rng.uniform(0, 3e-3),))
        else:
            bumped = replace(cfg, eps_ext=cfg.eps_ext + rng.uniform(0, 0.1))
        s1 = optimal_spectrum(bumped, omega)[0]
        worst = max(worst, (s0 - s1) / s0)
    report(6, "optimal spectrum never drops when a loss grows", worst, 1e-12)


def test_c07_fdt_invariance():
    rng = np.random.default_rng(7)
    mode = mode_for(BASE)
    worst = 0.0
    for _ in range(100):
        w_abs = BASE.omega0 + TWO_PI * 10 ** rng.uniform(0.7, 3.7)
        cpp = chi_phase_phase(mode, w_abs)
        cpa = chi_phase_amp(mode, w_abs)
        ratio0 = cpp.imag / abs(cpa) ** 2
        chi_free = rng.uniform(-3.0, 3.0) / abs(cpp)
        cpp2, cpa2 = coupled_susceptibilities(cpp, cpa, chi_free)
        worst = max(worst, abs(cpp2.imag / abs(cpa2) ** 2 - ratio0)
                    / abs(ratio0))
    report(7, "dissipation ratio invariant under lossless coupling",
           worst, 1e-12)


def test_c08_loss_limit_asymptotics(tmp_path):
    import json

    # flat floor below the arm bandwidth when the recycling-cavity loss is off
    flat_doc = config_to_dict(replace(BASE, eps_src_channels=(0.0,)))
    flat_cfg = tmp_path / "flat.json"
    flat_cfg.write_text(json.dumps(flat_doc))
    flat_out = tmp_path / "flat.csv"
    assert main(["budget", "--config", str(flat_cfg), "--fmin", "0.5",
                 "--fmax", "5", "--points", "50", "--curves", "loss_limit_a4",
                 "--out", str(flat_out)]) == 0
    data = np.genfromtxt(flat_out, delimiter=",", names=True)
    lf, lv = np.log(data["f_hz"]), np.log(data["loss_limit_a4"])
    low_slope = abs((lv[-1] - lv[0]) / (lf[-1] - lf[0]))
    report(8, "flat loss floor below the arm bandwidth", low_slope, 1e-2)

    # PSD slope of two when the recycling-cavity loss term dominates
    src_doc = config_to_dict(replace(BASE, eps_arm=0.0, eps_ext=0.0))
    src_cfg = tmp_path / "src.json"
    src_cfg.write_text(json.dumps(src_doc))
    src_out = tmp_path / "src.csv"
    assert main(["budget", "--config", str(src_cfg), "--fmin", "500",
                 "--fmax", "5000", "--points", "50",
                 "--curves", "loss_limit_a4", "--out", str(src_out)]) == 0
    data = np.genfromtxt(src_out, delimiter=",", names=True)
    lf, lv = np.log(data["f_hz"]), np.log(data["loss_limit_a4"])
    high_slope = (lv[-1] - lv[-2]) / (lf[-1] - lf[-2])
    report(8, "PSD slope reaches two above the arm bandwidth",
           abs(high_slope - 2.0), 1e-2)


def test_c09_squeezing_bookkeeping():
    r30 = r_from_db(30.0)
    assert math.isclose(r30, 3.454, rel_tol=1e-3)
    plain = cfg_taylor(1e-3)
    squeezed = replace(plain, r_input=r30)
    ratio = qcrb_lossless(squeezed, OMEGA) / qcrb_lossless(plain, OMEGA)
    report(9, "input squeezing scales spectrum by e^(-2r)",
           abs(ratio / math.exp(-2.0 * r30) - 1.0), 1e-9)


def test_c10_symplectic_suite():
    rng = np.random.default_rng(10)
    j = SYMPLECTIC_FORM
    worst = 0.0
    for _ in range(300):
        for m in (rotation_matrix(rng.uniform(-10, 10)),
                  squeeze_matrix(rng.uniform(-2, 2), rng.uniform(0, TWO_PI)),
                  ponderomotive_matrix(10 ** rng.uniform(-3, 2))):
            worst = max(worst, float(np.abs(m @ j @ m.T - j).max()))
    report(10, "elementary matrices are symplectic", worst, 1e-12)

    worst = 0.0
    for gain in np.geomspace(1e-3, 1e3, 121):
        phi, r, theta = ponderomotive_decompose(gain)
        recomposed = squeeze_matrix(r, theta) @ rotation_matrix(phi)
        worst = max(worst, float(np.abs(recomposed
                                        - ponderomotive_matrix(gain)).max()))
    report(10, "ponderomotive decomposition recomposes", worst, 1e-10)
