"""Property tests over random valid configurations and arbitrary floats.

Each configuration example draws a configuration with `random_config` and
one of four variants (as drawn, ponderomotive internal squeezing, a
tabulated rotation angle, a residual round-trip phase), plus a set of
sideband frequencies; the loss-limit property draws `random_config` as is,
or with a residual phase, over 1 Hz - 10 kHz.  The internal-loss floor
property (over the same band), the config-document round trip and the
raised-loss stack also draw tabulated fixed internal squeezing with a
tabulated recycling-loss channel.  The output-format examples draw columns
of arbitrary floats.
"""

import contextlib
import csv
import io
import json
import math
import os
import re
import tempfile
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from qnbudget import (ALPHA_NO_INTERNAL, BASE_CURVES, BlindQuadratureError,
                      BudgetRequest, DegeneracyError, FreqTable,
                      InternalSqueeze, LasingThresholdError,
                      __version__, config_from_dict,
                      config_hash, config_template, config_to_dict,
                      default_config,
                      effective_internal_loss, evaluate_curve,
                      homodyne_spectrum, ifo, io_relation, loop_matrix,
                      loss_floor_fdt, loss_limit, mat2, mat_inv,
                      optimal_spectrum, ponderomotive_decompose,
                      ponderomotive_gain, qcrb_lossless, random_config,
                      resolve_band, rotation_matrix,
                      run_budget, squeeze_matrix, taylor_qcrb_internal,
                      total_covariance, validation, value_at)
from qnbudget.cli import main, write_budget
from qnbudget.constants import C_LIGHT, HBAR
from qnbudget.curves import CHUNK_POINTS

TWO_PI = 2 * math.pi
VARIANTS = ("plain", "ponderomotive", "theta_table", "residual_phase")
PROFILE = settings(max_examples=40, deadline=None, derandomize=True,
                   database=None,
                   suppress_health_check=[HealthCheck.too_slow])


def make_config(seed, variant):
    rng = np.random.default_rng(seed)
    cfg = random_config(rng)
    if variant == "ponderomotive":
        # a negative rotation keeps the radiation-pressure loop below its
        # lasing threshold
        cfg = replace(cfg, internal_sqz=InternalSqueeze("ponderomotive"),
                      Theta=-abs(cfg.Theta))
    elif variant == "theta_table":
        cfg = replace(cfg, Theta=FreqTable(
            f_hz=(1.0, 30.0, 300.0, 1e4),
            values=tuple(rng.uniform(-0.3, 0.3, 4))))
    elif variant == "residual_phase":
        cfg = replace(cfg, residual_phase=rng.uniform(0.005, 0.05))
    return cfg


configs = st.builds(make_config, st.integers(0, 2**32 - 1),
                    st.sampled_from(VARIANTS))
frequencies = st.lists(st.floats(5.0, 5000.0), min_size=1, max_size=24)


def first_failure(fn, omegas):
    """Index and error of the first point whose scalar call raises."""
    for i, omega in enumerate(omegas):
        try:
            fn(omega)
        except DegeneracyError as exc:
            return i, exc
    return None, None


def assert_close(got, want, rel=1e-13):
    got, want = np.asarray(got), np.asarray(want)
    scale = np.max(np.abs(want), axis=(-2, -1), keepdims=True) \
        if want.ndim == 3 else np.abs(want)
    assert np.all(np.abs(got - want) <= rel * scale)


@PROFILE
@given(configs, frequencies)
def test_array_call_equals_scalar_calls(cfg, f_hz):
    omegas = TWO_PI * np.array(f_hz)
    i, exc = first_failure(lambda w: optimal_spectrum(cfg, w), omegas)
    if exc is not None:
        # the batch reports the point a loop over the frequencies meets first
        with pytest.raises(type(exc)) as info:
            optimal_spectrum(cfg, omegas)
        assert info.value.index == i
        assert str(info.value) == str(exc)
        return
    s, zeta = optimal_spectrum(cfg, omegas)
    one = [optimal_spectrum(cfg, w) for w in omegas]
    assert_close(s, [x[0] for x in one])
    gap = np.abs(zeta - [x[1] for x in one]) % math.pi
    assert np.all(np.minimum(gap, math.pi - gap) <= 1e-13 * math.pi)
    assert_close(total_covariance(cfg, omegas),
                 [total_covariance(cfg, w) for w in omegas])
    try:
        fixed = homodyne_spectrum(cfg, omegas, 0.7)
    except BlindQuadratureError:
        assume(False)
    assert_close(fixed, [homodyne_spectrum(cfg, w, 0.7) for w in omegas])


@PROFILE
@given(configs, st.floats(0.0, 1.0))
def test_scalar_call_is_element_of_array_call(cfg, shift):
    # each per-point square is a product, which numpy computes alike for
    # scalars and arrays; a complex product of two numpy scalars rounds
    # differently from the vectorised loop, so a loop made complex by a
    # residual phase agrees to rounding only.  A last-bit difference shows
    # at a few points in a thousand, hence the dense grid.
    omegas = TWO_PI * np.geomspace(5.0, 5000.0, 64) * 1.1**shift
    try:
        batch = np.array([*optimal_spectrum(cfg, omegas),
                          homodyne_spectrum(cfg, omegas, 0.7)])
    except DegeneracyError:
        assume(False)
    one = np.array([(*optimal_spectrum(cfg, w), homodyne_spectrum(cfg, w, 0.7))
                    for w in omegas]).T
    if cfg.residual_phase == 0.0:
        assert one.tobytes() == batch.tobytes()
    else:
        assert_close(one[[0, 2]], batch[[0, 2]])


@PROFILE
@given(configs, frequencies,
       st.lists(st.floats(0.0, math.pi), min_size=1, max_size=8))
def test_optimal_below_every_readout_angle(cfg, f_hz, zetas):
    omegas = TWO_PI * np.array(f_hz)
    try:
        s_opt = optimal_spectrum(cfg, omegas)[0]
        for zeta in zetas:
            s = homodyne_spectrum(cfg, omegas, zeta)
            assert np.all(s >= s_opt * (1 - 1e-12))
    except DegeneracyError:
        assume(False)


def knot_at(f_k, value):
    """A table that is 0 away from f_k and reaches value there."""
    return FreqTable(f_hz=(1.0, f_k, 1e4), values=(0.0, value, 0.0))


def planted_failure(kind, seed, f_hz, k):
    """(config, grid, curve name, route(cfg, omega)) with a failure planted
    at grid point k."""
    cfg = default_config()
    # the frequency the pipeline sees at point k, on which a table knot is hit
    f_k = TWO_PI * f_hz[k] / TWO_PI
    if kind == "blind":
        cfg = make_config(seed, "theta_table")
        v = np.real(io_relation(cfg, TWO_PI * f_hz[k]).v)
        zeta = math.atan2(v[1], v[0]) + math.pi / 2
        return (cfg, f_hz, f"full_fixed_zeta({zeta!r})",
                lambda c, w: homodyne_spectrum(c, w, zeta))
    if kind == "lasing":
        # the tuned loop reaches its lasing threshold at r_crit
        r_crit = -0.5 * math.log(1 - cfg.T_src)
        cfg = replace(cfg, internal_sqz=InternalSqueeze(
            "fixed", r=knot_at(f_k, r_crit)))
        return cfg, f_hz, "full_optimal", lambda c, w: optimal_spectrum(c, w)[0]
    if kind == "overflow":
        # radiation pressure on a 1 microgram mirror squeezes beyond the
        # overflow guard below about 115 Hz, at k and at the last point
        cfg = replace(cfg, M=1e-9, internal_sqz=InternalSqueeze("ponderomotive"))
        f_hz = np.geomspace(200.0, 5000.0, len(f_hz))
        f_hz[[k, -1]] = 5.0 + (seed % 95)
        return cfg, f_hz, "full_optimal", lambda c, w: optimal_spectrum(c, w)[0]
    # r = delta / 2 = T_src / 2 at sin(theta + theta0) = -1 zeroes the
    # expansion's denominator
    cfg = replace(cfg, T_src=0.02, internal_sqz=InternalSqueeze(
        "fixed", r=knot_at(f_k, 0.01), theta=math.pi / 2))
    return cfg, f_hz, "taylor_qcrb_internal", taylor_qcrb_internal


@settings(PROFILE, max_examples=4 * PROFILE.max_examples)
@given(st.sampled_from(["blind", "lasing", "overflow", "taylor"]),
       st.integers(0, 2**32 - 1), st.integers(8, 40), st.data())
def test_planted_failure_reported_at_its_frequency(kind, seed, n, data):
    k = data.draw(st.integers(1, n - 2), label="failing point")
    cfg, f_hz, name, route = planted_failure(
        kind, seed, np.geomspace(5.0, 5000.0, n), k)
    omegas = TWO_PI * f_hz
    i, exc = first_failure(lambda w: route(cfg, w), omegas)
    # a random config may fail before its planted blind angle
    assert i == k or (kind == "blind" and i is not None and i < k)
    with pytest.raises(type(exc)) as info:
        route(cfg, omegas)
    assert info.value.index == i
    assert str(info.value) == str(exc)
    with pytest.raises(type(exc),
                       match=re.escape(f"failed at {f_hz[i]:.6g} Hz: {exc}")) as info:
        evaluate_curve(name, cfg, f_hz)
    assert info.value.index == i


SHARED_SOLVE = {
    "full_optimal": lambda c, w: optimal_spectrum(c, w)[0],
    "qcrb": qcrb_lossless,
    "full_fixed_zeta(0.5)": lambda c, w: homodyne_spectrum(c, w, 0.5),
    "full_fixed_zeta(1.1)": lambda c, w: homodyne_spectrum(c, w, 1.1),
}


@PROFILE
@given(configs)
def test_shared_solve_equals_each_curve_alone(cfg):
    # three chunks; the spectra of one request share each chunk's solve
    req = BudgetRequest(config=cfg, points=2 * CHUNK_POINTS + 17,
                        curves=tuple(SHARED_SOLVE))
    f_hz = np.geomspace(*req.band_hz, req.points)
    try:
        alone = {name: evaluate_curve(name, cfg, f_hz) for name in req.curves}
    except DegeneracyError as exc:
        with pytest.raises(type(exc)) as info:
            run_budget(req)
        assert (str(info.value), info.value.index) == (str(exc), exc.index)
        return
    _, shared = run_budget(req)
    for name, route in SHARED_SOLVE.items():
        assert shared[name].tobytes() == alone[name].tobytes(), name
        # and each chunk is what the public function gives for it
        for start in range(0, len(f_hz), CHUNK_POINTS):
            chunk = f_hz[start:start + CHUNK_POINTS]
            assert (shared[name][start:start + len(chunk)].tobytes()
                    == route(cfg, TWO_PI * chunk).tobytes()), name


@PROFILE
@given(configs, frequencies)
def test_output_covariance_is_physical(cfg, f_hz):
    # Hermitian, and det >= 1 in vacuum units (the uncertainty principle)
    try:
        sigma = total_covariance(cfg, TWO_PI * np.array(f_hz))
    except DegeneracyError:
        assume(False)
    adjoint = np.conj(np.swapaxes(sigma, -1, -2))
    scale = np.max(np.abs(sigma), axis=(-2, -1))
    assert np.all(np.max(np.abs(sigma - adjoint), axis=(-2, -1))
                  <= 1e-9 * scale)
    det = np.real(sigma[:, 0, 0] * sigma[:, 1, 1]
                  - sigma[:, 0, 1] * sigma[:, 1, 0])
    assert np.all(det >= 1.0 - 1e-9)


def stacked_matrix_oracle(cfg, omega):
    """(loop, M_io, M_c, v, Sigma) at the frequencies omega, from products
    of (N, 2, 2) matrix stacks."""
    f_hz = omega / TWO_PI
    theta_rot = value_at(cfg.Theta, f_hz) + 0.0 * omega
    r = theta_sqz = extra = 0.0 * omega
    if cfg.internal_sqz.mode == "fixed":
        r = r + value_at(cfg.internal_sqz.r, f_hz)
        theta_sqz = theta_sqz + value_at(cfg.internal_sqz.theta, f_hz)
    elif cfg.internal_sqz.mode == "ponderomotive":
        extra, r, theta_sqz = ponderomotive_decompose(
            ponderomotive_gain(cfg, omega))
    x = (rotation_matrix(theta_rot) @ squeeze_matrix(r, theta_sqz)
         @ rotation_matrix(theta_rot + extra))
    phase = value_at(cfg.residual_phase, f_hz) + 0.0 * omega
    x = x * np.exp(1j * phase)[:, None, None]
    sqrt_r_src = math.sqrt(1.0 - cfg.T_src)
    m_c = mat_inv(np.eye(2) - sqrt_r_src * x)
    m_io = -sqrt_r_src * np.eye(2) + cfg.T_src * (m_c @ x)
    beta = 2.0 * math.sqrt(cfg.omega0 * cfg.L**2 * cfg.P / (HBAR * C_LIGHT**2))
    v = math.sqrt(cfg.T_src) * beta * m_c[:, :, 1]
    internal = np.sqrt(cfg.T_src * effective_internal_loss(cfg, omega))
    f4 = np.concatenate((m_io @ squeeze_matrix(cfg.r_input, cfg.theta_input),
                         internal[:, None, None] * m_c), axis=-1)
    sigma = f4 @ np.conj(np.swapaxes(f4, -1, -2)) + cfg.eps_ext * np.eye(2)
    return x, m_io, m_c, v, sigma


def assert_rel(got, want, rel=1e-12):
    """got equals want within rel of want's largest entry at each frequency."""
    got, want = np.asarray(got), np.asarray(want)
    axes = tuple(range(1, want.ndim))
    scale = np.max(np.abs(want), axis=axes, keepdims=True)
    assert np.all(np.abs(got - want) <= rel * scale)


@PROFILE
@given(configs, frequencies)
def test_entry_algebra_equals_stacked_matrices(cfg, f_hz):
    omega = TWO_PI * np.array(f_hz)
    try:
        io = io_relation(cfg, omega)
    except DegeneracyError:
        assume(False)
    x, m_io, m_c, v, sigma = stacked_matrix_oracle(cfg, omega)
    assert_rel(loop_matrix(cfg, omega), x)
    assert_rel(mat2(*io.M_io), m_io)
    assert_rel(mat2(*io.M_c), m_c)
    assert_rel(np.transpose(io.v), v)
    assert_rel(total_covariance(cfg, omega), sigma)


@PROFILE
@given(configs, frequencies)
def test_fdt_oracle_agrees_with_arm_loss_floor(cfg, f_hz):
    # acceptance check c07 and the validate check fdt_vs_loss_limit, over
    # the configuration space
    assume(cfg.eps_arm > 0.0)
    arm_only = replace(cfg, eps_src_channels=(0.0,), eps_ext=0.0)
    omega = TWO_PI * np.array(f_hz)
    closed = loss_limit(arm_only, omega, ALPHA_NO_INTERNAL)
    oracle = loss_floor_fdt(arm_only, omega)
    assert np.all(np.abs(oracle - closed) <= 1e-3 * closed)


# largest raise drawn for each loss channel, as in acceptance check c06
LOSS_BUMPS = {"eps_arm": 3e-4, "eps_src": 3e-3, "eps_ext": 0.1}


@settings(PROFILE, max_examples=200)
@given(configs, frequencies, st.sampled_from(sorted(LOSS_BUMPS)), st.data())
def test_more_loss_never_lowers_optimal_spectrum(cfg, f_hz, channel, data):
    # acceptance check c06 over the configuration space, at the tolerance of
    # the validate check loss_monotonicity
    bump = data.draw(st.floats(0.0, LOSS_BUMPS[channel], exclude_min=True),
                     label="loss raise")
    if channel == "eps_src":
        more = replace(cfg, eps_src_channels=(cfg.eps_src_channels[0] + bump,))
    else:
        more = replace(cfg, **{channel: getattr(cfg, channel) + bump})
    omega = TWO_PI * np.array(f_hz)
    try:
        s0 = optimal_spectrum(cfg, omega)[0]
        s1 = optimal_spectrum(more, omega)[0]
    except DegeneracyError:
        assume(False)
    assert np.all(s1 >= s0 * (1 - 1e-12))


@pytest.mark.parametrize("phase", [st.just(0.0), st.floats(-0.05, 0.05)],
                         ids=["plain", "residual_phase"])
@settings(PROFILE, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(60, 80), data=st.data())
def test_exact_optimum_never_below_loss_limit(phase, seed, n, data):
    # the full loss_limit, readout-loss term included, on 200 derandomized
    # seeds, compared with no tolerance.  It is not a floor: seeds 7984 and
    # 1938, which these seeds miss, beat it (test_readout_loss_term_is_beaten);
    # the floor the program claims is tested by
    # test_exact_optimum_never_below_internal_loss_floor
    cfg = replace(random_config(np.random.default_rng(seed)),
                  residual_phase=data.draw(phase, label="residual phase"))
    omega = TWO_PI * np.geomspace(1.0, 1e4, n)
    s_opt = optimal_spectrum(cfg, omega)[0]
    assert np.all(s_opt >= loss_limit(cfg, omega, ALPHA_NO_INTERNAL))


def tabulated_squeeze_config(seed):
    """A random_config draw with tabulated fixed internal squeezing and a
    tabulated recycling-loss channel beside its constant one."""
    rng = np.random.default_rng(seed)
    cfg = random_config(rng)
    knots = (1.0, 100.0, 1e4)

    def table(lo, hi):
        return FreqTable(knots, tuple(rng.uniform(lo, hi, len(knots))))

    return replace(cfg,
                   internal_sqz=InternalSqueeze("fixed", r=table(-0.05, 0.05),
                                                theta=table(0.0, math.pi)),
                   eps_src_channels=cfg.eps_src_channels + (table(0.0, 1e-3),))


@settings(PROFILE, max_examples=300)
@given(st.one_of(configs, st.builds(tabulated_squeeze_config,
                                    st.integers(0, 2**32 - 1))))
@example(make_config(7984, "plain"))
@example(make_config(1938, "plain"))
def test_exact_optimum_never_below_internal_loss_floor(cfg):
    # the floor the program claims for every readout and input state,
    # prefactor * eps_int: loss_limit without its readout-loss term.  It is
    # compared with no tolerance where it is tight: the lowest full_optimal
    # / floor found over 20,000 seeds is 1.00095
    f_hz = np.geomspace(1.0, 1e4, 60)
    try:
        s_opt = evaluate_curve("full_optimal", cfg, f_hz)
    except LasingThresholdError:   # a ponderomotive loop lases at low Omega
        assume(False)
    floor = loss_limit(replace(cfg, eps_ext=0.0), TWO_PI * f_hz,
                       ALPHA_NO_INTERNAL)
    assert np.all(s_opt >= floor)


@pytest.mark.parametrize("seed", [7984, 1938])
def test_readout_loss_term_is_beaten(seed):
    # two plain draws whose amplifying internal squeeze beats loss_limit_a4's
    # readout-loss term, with no RegimeWarning: 0.508 and 0.526 of it at 1 Hz
    cfg = random_config(np.random.default_rng(seed))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s_opt = evaluate_curve("full_optimal", cfg, np.array([1.0]))[0]
        assert s_opt < 0.53 * loss_limit(cfg, TWO_PI, ALPHA_NO_INTERNAL)


@settings(PROFILE, max_examples=100)
@given(st.one_of(configs, st.builds(tabulated_squeeze_config,
                                    st.integers(0, 2**32 - 1))),
       st.integers(0, 2**32 - 1))
def test_stacked_raised_losses_equal_raised_copies(cfg, seed):
    # validate's loss_monotonicity reads its three raised-loss spectra as
    # one stack of loss values from the validated config's loop solve; each
    # row is bitwise the spectrum of the config copy with that one loss
    # raised, the route kept here as the oracle
    resolved = resolve_band(cfg, (12.0, 980.0))
    f_arm, f_ext, f_src = np.random.default_rng(seed).uniform(0.0, 0.1, 3)
    channels = resolved.eps_src_channels
    copies = (
        replace(resolved, eps_arm=resolved.eps_arm
                + f_arm * (1.0 - resolved.eps_arm)),
        replace(resolved, eps_ext=resolved.eps_ext
                + f_ext * (1.0 - resolved.eps_ext)),
        replace(resolved, eps_src_channels=(
            *channels, f_src * (1.0 - sum(channels)))))
    stacks, optimal_with = [], ifo._Solve.optimal_with

    def spy(solve, losses):
        stacks.append(optimal_with(solve, losses))
        return stacks[-1]

    with (mock.patch.object(ifo._Solve, "optimal_with", spy),
          np.errstate(all="ignore")):
        try:
            validation._check_exact(resolved, np.random.default_rng(seed))
        except DegeneracyError:
            assume(False)
    (stack,) = stacks
    for row, copy in zip(stack, copies):
        want = optimal_spectrum(copy, validation._CHECK_OMEGA)[0]
        assert row.tobytes() == want.tobytes()


@settings(PROFILE, max_examples=100)
@given(configs, st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.sampled_from([math.inf, math.nan, 1e308,
                                           0.999999])), max_size=4))
def test_stacked_error_names_its_row(cfg, seed, planted):
    # a failing (3, 3) stack raises what its first failing row raises
    # alone, at the row and point its flat index divided by N gives: the
    # row-by-row read, kept here as the oracle of validate's one read
    resolved = resolve_band(cfg, (12.0, 980.0))
    base = np.array([resolved.eps_arm, resolved.eps_ext,
                     sum(resolved.eps_src_channels)])
    fractions = np.random.default_rng(seed).uniform(0.0, 0.1, 3)
    raised = base + np.diag(fractions * (1.0 - base))
    for row, column, value in planted:
        raised[row, column] = value
    solve = ifo._Solve(resolved, validation._CHECK_OMEGA)
    with np.errstate(all="ignore"):
        try:
            solve.io
        except DegeneracyError:
            assume(False)
        errors = []
        for rows in (raised, *(raised[k:k + 1] for k in range(3))):
            try:
                solve.optimal_with(rows)
                errors.append(None)
            except DegeneracyError as exc:
                errors.append(exc)
    stacked, *alone = errors
    failing = [k for k, exc in enumerate(alone) if exc is not None]
    assert (stacked is None) == (not failing)
    if failing:
        first = alone[failing[0]]
        assert divmod(stacked.index, validation._CHECK_OMEGA.size) == (
            failing[0], first.index)
        assert type(stacked) is type(first)
        assert str(stacked) == str(first)


@PROFILE
@given(st.one_of(configs, st.builds(tabulated_squeeze_config,
                                    st.integers(0, 2**32 - 1))))
def test_config_document_round_trip(cfg):
    doc = json.loads(json.dumps(config_to_dict(cfg)))
    again = config_from_dict(doc)
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


# the template's numeric keys; eps_src_channels stands for its one entry
EXTREME_KEYS = ("L", "M", "P", "lambda0", "T_itm", "T_src", "eps_arm",
                "eps_ext", "r_input", "theta_input", "Theta", "residual_phase",
                "eps_src_channels")
# log-uniform magnitudes from 1e-320 to 1.7e308, either sign, and 0
extremes = st.one_of(st.just(0.0), st.builds(
    lambda exponent, sign: sign * 10.0**exponent,
    st.floats(-320.0, math.log10(1.7e308)), st.sampled_from((1.0, -1.0))))
INTERNAL_SQZ = ("none", "ponderomotive", {"mode": "fixed", "r": 0.01,
                                          "theta": 0.3})


@settings(PROFILE, max_examples=60)
@given(st.sampled_from(EXTREME_KEYS), extremes, st.sampled_from(INTERNAL_SQZ))
@pytest.mark.filterwarnings("ignore")
def test_no_traceback_for_any_finite_extreme(key, value, sqz):
    """Every verb answers a finite extreme of one key with an exit code."""
    doc = config_template()
    doc[key] = [value] if key == "eps_src_channels" else value
    doc["internal_sqz"] = sqz
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        runs = [["validate"]] + [
            ["budget", "--points", "8", "--curves", curve,
             "--out", os.path.join(tmp, "out.csv")]
            for curve in BASE_CURVES + ("full_fixed_zeta(0.3)",)]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                assert main(argv + ["--config", path]) in (0, 1, 2, 3)


def test_array_omega_with_array_zeta_rejected():
    cfg = make_config(0, "plain")
    with pytest.raises(ValueError, match="both be arrays"):
        homodyne_spectrum(cfg, TWO_PI * np.array([10.0, 100.0]),
                          np.array([0.1, 0.2]))


# what the output format is checked against: every cell rounded to 12
# significant digits with f"{x:.11e}", and json.dumps of the whole document
def csv_oracle(columns):
    lines = [",".join(columns)]
    lines += [",".join(f"{x:.11e}" for x in row)
              for row in zip(*columns.values())]
    return "\n".join(lines) + "\n"


def json_oracle(req, columns):
    doc = {
        "metadata": {
            "format": "qnbudget-budget/1",
            "version": __version__,
            "config_sha256": config_hash(req.config),
            "constants": {"c_m_per_s": C_LIGHT, "hbar_J_s": HBAR},
            "band_hz": list(req.band_hz),
            "points": req.points,
            "curves": list(req.curves),
        },
        "columns": {name: [float(f"{x:.11e}") for x in values]
                    for name, values in columns.items()},
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def written(req, columns, fmt):
    """The text write_budget writes for columns {"f_hz": ..., curve: ...} in
    the format fmt."""
    fh = io.BytesIO()
    f_hz, *_ = columns.values()
    spectra = dict(list(columns.items())[1:])
    write_budget(fh.write, replace(req, fmt=fmt), f_hz, spectra)
    return fh.getvalue().decode("ascii")


def nudged(x, ulps):
    """x moved by `ulps` units in the last place."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


# 12-digit rounding ties (m + 1/2) 10**k, and powers of ten, where the
# exponent estimate from log10 can be off by one, a few ulps either side,
# at decimal exponents from -320 to 308 (three-digit ones included)
NEAR_TIES = st.builds(lambda m, k, ulps: nudged(float(f"{m}5e{k}"), ulps),
                      st.integers(10**11, 10**12 - 1), st.integers(-332, 295),
                      st.integers(-3, 3))
NEAR_POWERS = st.builds(lambda k, ulps: nudged(float(f"1e{k}"), ulps),
                        st.integers(-323, 308), st.integers(-1, 1))
THREE_DIGIT_EXPONENTS = st.one_of(st.floats(1e100, 1e308),
                                  st.floats(1e-308, 1e-100))
# decimals of 1 to 12 significant digits at exponents -5 to 11, the range
# of fixed notation and one beyond either end, so that the digits end in
# every place of every group
SHORT_DECIMALS = st.builds(
    lambda m, nsig, k: float(f"{m // 10**(12 - nsig)}e{k + 1 - nsig}"),
    st.integers(10**11, 10**12 - 1), st.integers(1, 12), st.integers(-5, 11))

# floats whose text is easy to get wrong: signed zeros, non-finite values,
# subnormals, the range where "%g" and repr choose different notations,
# values that round up to a power of ten, integers and near-integers (and
# those of 1..1e11 once more, the range of fixed notation), values in
# [1e7, 1e11), whose JSON text Python writes, the values above, and their
# negatives
CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                     2.2250738585072014e-308, 1e-300, 999999999999.5,
                     99999999999.95, 9.999999999995e-5, 9.9999999999995e15,
                     5.000000000004, 0.9999999999995, -5.0,
                     # near-ties whose scaled mantissa, computed in floats,
                     # lies on the wrong side of n + 1/2
                     7.194944981495e16, 9.541135785505e-33,
                     9.997342878905e-70]),
    st.floats(1e-310, 1e-290), st.floats(1e11, 1e16).map(lambda x: -x),
    st.floats(1e11, 1e16),
    st.integers(-10**16, 10**16).map(float),
    st.tuples(st.integers(-10**12, 10**12), st.floats(-6e-12, 6e-12)).map(
        lambda t: t[0] * (1.0 + t[1])),
    st.floats(-1e12, 1e12).map(lambda x: float(f"{x:.11e}")),
    st.tuples(st.integers(1, 10**11), st.floats(-4e-13, 4e-13)).map(
        lambda t: t[0] * (1.0 + t[1])),
    st.floats(1e7, 1e11),
    *(st.tuples(values, st.sampled_from([1.0, -1.0])).map(
        lambda t: t[0] * t[1])
      for values in (NEAR_TIES, NEAR_POWERS, THREE_DIGIT_EXPONENTS,
                     SHORT_DECIMALS)),
)
COLUMN_NAMES = ("sql", "qcrb", "loss_limit_a4", "full_fixed_zeta(0.5)",
                "fdt_floor")


@settings(PROFILE, max_examples=300)
@given(st.integers(2, 40).flatmap(lambda n: st.lists(
           st.lists(CELLS, min_size=n, max_size=n), min_size=2, max_size=4)),
       st.integers(1, 7))
def test_output_text_equals_per_cell_formatting(cells, chunk):
    columns = {"f_hz": np.array(cells[0])}
    columns.update((name, np.array(col))
                   for name, col in zip(COLUMN_NAMES, cells[1:]))
    req = BudgetRequest(config=default_config(), points=len(cells[0]),
                        curves=tuple(columns)[1:])
    # small blocks put every cell near a block boundary
    with mock.patch("qnbudget.cli.CHUNK_POINTS", chunk):
        assert written(req, columns, "csv") == csv_oracle(columns)
        assert written(req, columns, "json") == json_oracle(req, columns)


@settings(PROFILE, max_examples=100)
@given(st.floats(0.1, 1e3), st.floats(1e3, 1e7),
       st.lists(st.tuples(st.booleans(), st.floats(1e-50, 1e-30),
                          st.sampled_from([1.0, -1.0])),
                min_size=2, max_size=40),
       st.integers(1, 7))
def test_mixed_notation_block_equals_per_cell_formatting(fmin, fmax, draws,
                                                         chunk):
    # grid frequencies (fixed notation) and PSD-scale values (scientific)
    # interleaved in one column, so that a block holds both
    f_hz = np.geomspace(fmin, fmax, len(draws))
    mixed = np.array([f if grid else sign * psd
                      for f, (grid, psd, sign) in zip(f_hz, draws)])
    columns = {"f_hz": f_hz, "sql": mixed, "qcrb": mixed[::-1].copy()}
    req = BudgetRequest(config=default_config(), points=len(f_hz),
                        curves=("sql", "qcrb"))
    with mock.patch("qnbudget.cli.CHUNK_POINTS", chunk):
        assert written(req, columns, "csv") == csv_oracle(columns)
        assert written(req, columns, "json") == json_oracle(req, columns)


# JSON budgets whose column blocks pack into digit passes of at most
# CHUNK_POINTS cells (columns with f_hz, rows): one pass for all five
# columns; exactly CHUNK_POINTS cells; one cell more; a pass that ends on a
# column boundary and one for the last column; columns whose 17-row tails
# fill no pass with the next column's head, so each block has a pass of
# its own
PACKED = {(5, 500): [2500], (4, 2048): [CHUNK_POINTS],
          (3, CHUNK_POINTS // 3 + 1): [2 * (CHUNK_POINTS // 3 + 1),
                                       CHUNK_POINTS // 3 + 1],
          (5, 2048): [CHUNK_POINTS, 2048],
          (3, 2 * CHUNK_POINTS + 17): [CHUNK_POINTS, CHUNK_POINTS, 17] * 3}


def packed_columns(ncols, rows):
    """f_hz and ncols - 1 seeded columns of PSD-scale values, values in
    and beyond fixed notation, integers and special cells, of both signs."""
    rng = np.random.default_rng([ncols, rows])
    columns = {"f_hz": np.geomspace(5.0, 5000.0, rows)}
    for name in COLUMN_NAMES[:ncols - 1]:
        kind = rng.integers(4, size=rows)
        values = np.select(
            [kind == 0, kind == 1, kind == 2],
            [10.0 ** rng.uniform(-50.0, -40.0, rows),
             10.0 ** rng.uniform(-6.0, 12.0, rows),
             np.floor(10.0 ** rng.uniform(0.0, 12.0, rows))],
            rng.choice([0.0, math.nan, math.inf, 5e-324, 1e100,
                        99999999999.95], rows))
        columns[name] = values * rng.choice([1.0, -1.0], rows)
    return columns


@pytest.mark.parametrize("ncols, rows", PACKED)
def test_packed_json_passes_equal_per_cell_formatting(ncols, rows):
    from qnbudget import celltext
    columns = packed_columns(ncols, rows)
    req = BudgetRequest(config=default_config(), points=rows,
                        curves=tuple(columns)[1:])
    passes, json_rows = [], celltext._json_rows
    with mock.patch.object(celltext, "_json_rows",
                           lambda v: passes.append(len(v)) or json_rows(v)):
        assert written(req, columns, "json") == json_oracle(req, columns)
    assert passes == PACKED[ncols, rows]


# CSV budgets cut into digit passes of CHUNK_POINTS // columns rows, each
# over all the columns (columns with f_hz, rows), as cell counts: one pass
# for a 1,000-point budget of four columns; passes of 1,365 rows, then an
# 890-row tail; 2 * CHUNK_POINTS + 17 rows of three columns, in passes of
# 2,730 rows and a 21-row tail
CSV_PACKED = {(4, 1000): [4000], (6, 20000): [6 * 1365] * 14 + [6 * 890],
              (3, 2 * CHUNK_POINTS + 17): [3 * 2730] * 6 + [3 * 21]}


@pytest.mark.parametrize("ncols, rows", CSV_PACKED)
def test_packed_csv_passes_equal_per_cell_formatting(ncols, rows):
    from qnbudget import celltext
    columns = packed_columns(ncols, rows)
    req = BudgetRequest(config=default_config(), points=rows,
                        curves=tuple(columns)[1:])
    passes, decimal = [], celltext._decimal
    with mock.patch.object(celltext, "_decimal",
                           lambda v: passes.append(len(v)) or decimal(v)):
        assert written(req, columns, "csv") == csv_oracle(columns)
    assert passes == CSV_PACKED[ncols, rows]
    assert max(passes) <= CHUNK_POINTS and sum(passes) == ncols * rows


# cells whose text is shorter or longer than a PSD value's, or which Python
# formats: negatives, NaN, infinities, subnormals, near-ties, zeros
HARD_CELLS = [-1.5e-40, math.nan, math.inf, -math.inf, 5e-324, -1e-310,
              2.2250738585072014e-308, 7.194944981495e16, -9.541135785505e-33,
              0.0, -0.0, 1e100, -5.0, 0.1, 99999999999.95, -12345.678]


# rows one short of, at and one past a block, and two blocks and a tail;
# past a block, each column's last JSON pass is its tail, shorter than the
# first
@pytest.mark.parametrize("rows", [CHUNK_POINTS - 1, CHUNK_POINTS,
                                  CHUNK_POINTS + 1, 2 * CHUNK_POINTS + 5])
@pytest.mark.parametrize("ncols", [3, 5])
def test_reused_buffers_equal_per_cell_formatting(ncols, rows):
    # the last block holds the hard cells, so that bytes an earlier, longer
    # block left in a reused buffer would show in its text
    rng = np.random.default_rng([ncols, rows])
    columns = {"f_hz": np.geomspace(5.0, 5000.0, rows)}
    for name in COLUMN_NAMES[:ncols - 1]:
        values = 10.0 ** rng.uniform(-50.0, -40.0, rows)
        values[-len(HARD_CELLS):] = rng.permutation(HARD_CELLS)
        columns[name] = values
    req = BudgetRequest(config=default_config(), points=rows,
                        curves=tuple(columns)[1:])
    assert written(req, columns, "csv") == csv_oracle(columns)
    from qnbudget import celltext
    passes, json_rows = [], celltext._json_rows
    with mock.patch.object(celltext, "_json_rows",
                           lambda v: passes.append(len(v)) or json_rows(v)):
        assert written(req, columns, "json") == json_oracle(req, columns)
    assert passes[-1] == (rows - 1) % CHUNK_POINTS + 1


@PROFILE
@given(configs, st.integers(2, 60))
def test_csv_and_json_carry_identical_numbers(cfg, points):
    curves = ("sql", "qcrb", "loss_limit_a1", "fdt_floor", "full_optimal")
    req = BudgetRequest(config=cfg, points=points, curves=curves)
    try:
        f_hz, spectra = run_budget(req)
    except DegeneracyError:
        assume(False)
    columns = {"f_hz": f_hz, **spectra}
    rows = list(csv.reader(io.StringIO(written(req, columns, "csv"))))
    doc = json.loads(written(req, columns, "json"))
    assert rows[0] == list(columns)
    for k, name in enumerate(columns):
        assert [float(row[k]) for row in rows[1:]] == doc["columns"][name]
