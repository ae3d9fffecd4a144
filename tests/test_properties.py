"""Property tests over random valid configurations.

Each example draws a configuration with `random_config` and one of four
variants (as drawn, ponderomotive internal squeezing, a tabulated rotation
angle, a residual round-trip phase), plus a set of sideband frequencies.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from qnbudget import (BlindQuadratureError, DegeneracyError, FreqTable,
                      InternalSqueeze, evaluate_curve, homodyne_spectrum,
                      io_relation, optimal_spectrum, random_config,
                      total_covariance)

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


@PROFILE
@given(st.integers(0, 2**32 - 1), st.integers(8, 40), st.data())
def test_blind_angle_reported_at_its_frequency(seed, n, data):
    cfg = make_config(seed, "theta_table")
    f_hz = np.geomspace(5.0, 5000.0, n)
    omegas = TWO_PI * f_hz
    k = data.draw(st.integers(1, n - 2), label="blind point")
    v = np.real(io_relation(cfg, omegas[k]).v)
    zeta = math.atan2(v[1], v[0]) + math.pi / 2
    i, exc = first_failure(lambda w: homodyne_spectrum(cfg, w, zeta), omegas)
    assert i is not None and i <= k
    with pytest.raises(BlindQuadratureError) as info:
        homodyne_spectrum(cfg, omegas, zeta)
    assert info.value.index == i
    with pytest.raises(BlindQuadratureError,
                       match=f"failed at {f_hz[i]:.6g} Hz"):
        evaluate_curve(f"full_fixed_zeta({zeta!r})", cfg, f_hz)


def test_array_omega_with_array_zeta_rejected():
    cfg = make_config(0, "plain")
    with pytest.raises(ValueError, match="both be arrays"):
        homodyne_spectrum(cfg, TWO_PI * np.array([10.0, 100.0]),
                          np.array([0.1, 0.2]))
