import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnbudget import (ALPHA_NO_INTERNAL, DEFAULT_BAND_HZ,
                      BlindQuadratureError, ConfigError, DegeneracyError,
                      FreqTable,
                      InternalSqueeze, LasingThresholdError,
                      arm_bandwidth, config_from_dict, config_template,
                      default_config,
                      effective_internal_loss, effective_src_loss,
                      evaluate_curve, homodyne_spectrum, io_relation,
                      loop_matrix, loss_limit, mat2, optimal_spectrum,
                      ponderomotive_gain, qcrb_lossless, random_config,
                      resolve_band, total_covariance, value_at)
from qnbudget import curves, ifo
from qnbudget.constants import C_LIGHT, HBAR

TWO_PI = 2 * math.pi
OMEGA = TWO_PI * 100.0


@pytest.fixture
def cfg():
    return default_config()


@pytest.fixture
def lossless(cfg):
    return replace(cfg, eps_arm=0.0, eps_src_channels=(0.0,), eps_ext=0.0)


def small_cfg(cfg, t_src=1e-3, **kw):
    base = replace(cfg, T_src=t_src, eps_arm=0.0, eps_src_channels=(0.0,),
                   eps_ext=0.0)
    return replace(base, **kw)


class TestScales:
    def test_arm_bandwidth_value(self, cfg):
        # c * 0.014 / 16000 by hand
        assert arm_bandwidth(cfg) == pytest.approx(262.31840075, rel=1e-10)
        assert arm_bandwidth(cfg) / TWO_PI == pytest.approx(41.75, rel=1e-3)

    def test_arm_bandwidth_scaling(self, cfg):
        small_t = replace(cfg, T_itm=1e-6)
        assert arm_bandwidth(small_t) < 0.02
        assert arm_bandwidth(replace(cfg, L=8000.0)) == pytest.approx(
            arm_bandwidth(cfg) / 2, rel=1e-12)

    def test_gain_value(self, cfg):
        c = replace(cfg, omega0=1.77e15)
        k = ponderomotive_gain(c, OMEGA)
        assert k == pytest.approx(0.015963278925323756, rel=1e-12)
        assert k == pytest.approx(0.0159, rel=5e-3)

    def test_gain_scaling(self, cfg):
        assert ponderomotive_gain(cfg, 2 * OMEGA) == pytest.approx(
            ponderomotive_gain(cfg, OMEGA) / 4, rel=1e-12)
        assert ponderomotive_gain(replace(cfg, P=1e-30), OMEGA) < 1e-30

    def test_gain_rejects_zero_frequency(self, cfg):
        for omega in (0.0, -OMEGA, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                ponderomotive_gain(cfg, omega)


class TestEffectiveLosses:
    def test_single_constant_channel(self):
        assert effective_src_loss((1e-3,)) == pytest.approx(1e-3, rel=1e-15)

    def test_constant_channels_sum(self):
        assert effective_src_loss((4e-4, 6e-4)) == pytest.approx(1e-3, rel=1e-15)

    def test_rising_channel_min_at_band_edge(self):
        table = FreqTable(f_hz=(5.0, 5000.0), values=(1e-4, 1e-3))
        got = effective_src_loss((table,), band_hz=(5.0, 5000.0))
        # brute force over a fine grid
        grid = np.geomspace(5.0, 5000.0, 20000)
        brute = min(table.at(f) for f in grid)
        assert got == pytest.approx(1e-4, rel=1e-12)
        assert got <= brute + 1e-15

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_band_search_matches_pointwise_lookup(self, data):
        channels = data.draw(LOSS_CHANNELS)
        tables = [ch for ch in channels if isinstance(ch, FreqTable)]
        cover = (max([1.0] + [t.f_hz[0] for t in tables]),
                 min([1e4] + [t.f_hz[-1] for t in tables]))
        lo = data.draw(st.floats(*cover))
        band = (lo, data.draw(st.floats(lo, cover[1])))
        got = effective_src_loss(channels, band)
        knots = [f for t in tables for f in t.f_hz if band[0] < f < band[1]]

        def total(f):
            return sum(value_at(ch, f) for ch in channels)

        edges_and_knots = [total(f) for f in (*band, *knots)]
        # geomspace may round a point of a one-point band off its edge
        between = [total(float(f))
                   for f in np.clip(np.geomspace(*band, 256), *band)]
        # the minimum is the least sum on a band edge or an inner knot; a
        # point in between can undercut it only by the rounding of its
        # interpolation (by an ulp where two tables' slopes cancel)
        assert got == min(edges_and_knots)
        assert got == pytest.approx(min(edges_and_knots + between),
                                    rel=1e-15, abs=1e-18)

    def test_errors(self):
        with pytest.raises(ConfigError):
            effective_src_loss(())
        table = FreqTable(f_hz=(10.0, 100.0), values=(1e-4, 1e-4))
        with pytest.raises(ConfigError):
            effective_src_loss((table,), band_hz=(5.0, 5000.0))

    def test_internal_loss_value(self, cfg):
        got = effective_internal_loss(cfg, 0.0)
        assert got == pytest.approx(1.035e-4, rel=1e-12)

    def test_internal_loss_doubles_at_bandwidth(self, cfg):
        gamma = arm_bandwidth(cfg)
        lo = effective_internal_loss(cfg, 0.0) - cfg.eps_arm
        hi = effective_internal_loss(cfg, gamma) - cfg.eps_arm
        assert hi == pytest.approx(2 * lo, rel=1e-12)

    def test_internal_loss_without_src_channel(self, cfg):
        c = replace(cfg, eps_src_channels=(0.0,))
        for omega in (OMEGA, 100 * OMEGA):
            assert effective_internal_loss(c, omega) == cfg.eps_arm


LOSSES = st.floats(0.0, 3e-3)


@st.composite
def _loss_table(draw):
    """A recycling-loss table covering at least 5..2000 Hz."""
    inner = draw(st.lists(st.floats(5.0, 2000.0, exclude_min=True,
                                    exclude_max=True), max_size=4, unique=True))
    f_hz = (draw(st.floats(1.0, 5.0)), *sorted(inner),
            draw(st.floats(2000.0, 1e4)))
    return FreqTable(f_hz, tuple(draw(LOSSES) for _ in f_hz))


LOSS_CHANNELS = st.lists(LOSSES | _loss_table(), min_size=1, max_size=3)

# recycling loss with its minimum (1e-3) on the 100 Hz knot
V_TABLE = FreqTable(f_hz=(1.0, 100.0, 10000.0), values=(3e-3, 1e-3, 3e-3))


class TestResolveBand:
    def test_constant_channels_unchanged(self, cfg):
        c = replace(cfg, eps_src_channels=(4e-4, 6e-4))
        assert resolve_band(c, (300.0, 1000.0)) is c

    def test_table_replaced_by_band_minimum(self, cfg):
        c = replace(cfg, eps_src_channels=(5e-4, V_TABLE))
        got = resolve_band(c, (300.0, 1000.0))
        # the V's minimum lies below the band, so the band edge wins
        assert got.eps_src_channels == (
            effective_src_loss(c.eps_src_channels, (300.0, 1000.0)),)
        assert got.eps_src_channels[0] == pytest.approx(
            5e-4 + V_TABLE.at(300.0), rel=1e-15)
        assert replace(got, eps_src_channels=c.eps_src_channels) == c

    def test_unresolved_call_uses_default_band(self, cfg):
        c = replace(cfg, eps_src_channels=(5e-4, V_TABLE))
        resolved = resolve_band(c, DEFAULT_BAND_HZ)
        assert resolved.eps_src_channels[0] == pytest.approx(1.5e-3, rel=1e-15)
        for omega in (TWO_PI * 7.0, OMEGA, TWO_PI * 3000.0):
            assert optimal_spectrum(c, omega) == optimal_spectrum(resolved, omega)
            assert homodyne_spectrum(c, omega, 1.0) == \
                homodyne_spectrum(resolved, omega, 1.0)
            assert loss_limit(c, omega, ALPHA_NO_INTERNAL) == \
                loss_limit(resolved, omega, ALPHA_NO_INTERNAL)

    def test_sum_reaching_one_rejected(self, cfg):
        table = FreqTable(f_hz=(1.0, 10000.0), values=(0.5, 0.9))
        c = replace(cfg, eps_src_channels=(0.5, table))
        with pytest.raises(ConfigError,
                           match=r"eps_src_channels.*1\.\.100 Hz"):
            resolve_band(c, (1.0, 100.0))
        below = replace(c, eps_src_channels=(0.4999, table))
        assert resolve_band(below, (1.0, 100.0)).eps_src_channels[0] < 1.0


class TestBatchErrors:
    """A batch raises for the point a loop over its frequencies meets first."""

    @pytest.fixture
    def lasing_at_100hz(self, cfg):
        # the internal squeeze reaches the lasing threshold on the 100 Hz knot
        r_crit = -0.5 * math.log(1 - cfg.T_src)
        r = FreqTable(f_hz=(1.0, 100.0, 1e4), values=(0.0, r_crit, 0.0))
        return replace(cfg, internal_sqz=InternalSqueeze("fixed", r=r))

    def test_lasing_point_reported_with_its_index(self, lasing_at_100hz):
        f_hz = np.array([50.0, 100.0, 200.0])
        with pytest.raises(LasingThresholdError) as batch:
            optimal_spectrum(lasing_at_100hz, TWO_PI * f_hz)
        with pytest.raises(LasingThresholdError) as one:
            optimal_spectrum(lasing_at_100hz, TWO_PI * 100.0)
        assert batch.value.index == 1
        assert str(batch.value) == str(one.value)
        with pytest.raises(LasingThresholdError,
                           match="'full_optimal' failed at 100 Hz: recycling"):
            evaluate_curve("full_optimal", lasing_at_100hz, f_hz)

    def test_beyond_threshold_reported_at_lowest_index(self, cfg):
        # the loop reaches its lasing threshold on the 30 Hz knot and is
        # driven beyond it (round-trip eigenvalue above 1) from there to
        # about 3 kHz
        r_crit = -0.5 * math.log(1 - cfg.T_src)
        r = FreqTable(f_hz=(1.0, 30.0, 100.0, 1e4),
                      values=(0.0, r_crit, 2.0 * r_crit, 0.0))
        c = replace(cfg, internal_sqz=InternalSqueeze("fixed", r=r))
        beyond = "beyond lasing threshold"
        with pytest.raises(LasingThresholdError, match=beyond) as one:
            io_relation(c, TWO_PI * 100.0)
        # tuned loop, eigenvalue sqrt(R_src) e^r = 1 / sqrt(R_src) at 2 r_crit
        eigenvalue = 1.0 / math.sqrt(1.0 - cfg.T_src)
        assert f"round-trip eigenvalue {eigenvalue:.4g})" in str(one.value)
        for f_hz, index, match in (([10.0, 100.0, 30.0], 1, beyond),
                                   ([10.0, 30.0, 100.0], 1, "at lasing"),
                                   ([300.0, 30.0], 0, beyond)):
            with pytest.raises(LasingThresholdError, match=match) as batch:
                optimal_spectrum(c, TWO_PI * np.array(f_hz))
            assert batch.value.index == index
        with pytest.raises(LasingThresholdError,
                           match=f"'qcrb' failed at 300 Hz: recycling loop "
                                 f"{beyond}"):
            evaluate_curve("qcrb", c, np.array([5.0, 300.0, 30.0]))
        # below the threshold nothing is raised
        assert optimal_spectrum(c, TWO_PI * np.array([5.0, 5e3]))[0].min() > 0

    def test_earlier_blind_angle_wins_over_later_lasing(self, lasing_at_100hz):
        # the tuned signal is pure phase quadrature, so zeta = 0 is blind
        with pytest.raises(BlindQuadratureError) as info:
            homodyne_spectrum(lasing_at_100hz, TWO_PI * np.array([50.0, 100.0]),
                              0.0)
        assert info.value.index == 0
        with pytest.raises(BlindQuadratureError, match="failed at 50 Hz"):
            evaluate_curve("full_fixed_zeta(0)", lasing_at_100hz,
                           np.array([50.0, 100.0]))

    def test_chunks_report_global_frequency(self, lasing_at_100hz):
        from qnbudget import curves
        # the lasing point is the last one, in the second chunk
        f_hz = np.geomspace(10.0, 100.0, curves.CHUNK_POINTS + 5)
        f_hz[-1] = 100.0
        with pytest.raises(LasingThresholdError) as info:
            evaluate_curve("qcrb", lasing_at_100hz, f_hz)
        assert info.value.index == curves.CHUNK_POINTS + 4
        assert "failed at 100 Hz" in str(info.value)

    @pytest.fixture
    def overflow_below_100hz(self, cfg):
        # radiation pressure on a 1 microgram mirror squeezes beyond the
        # overflow guard below about 115 Hz
        return replace(cfg, M=1e-9, internal_sqz=InternalSqueeze("ponderomotive"))

    def test_squeeze_overflow_reported_with_its_index(self,
                                                      overflow_below_100hz):
        c = overflow_below_100hz
        f_hz = np.array([200.0, 50.0, 10.0])
        with pytest.raises(DegeneracyError, match="overflow guard") as batch:
            optimal_spectrum(c, TWO_PI * f_hz)
        with pytest.raises(DegeneracyError) as one:
            optimal_spectrum(c, TWO_PI * 50.0)
        assert batch.value.index == 1
        assert str(batch.value) == str(one.value)
        with pytest.raises(DegeneracyError, match=(
                "'full_optimal' failed at 50 Hz: internal squeeze")):
            evaluate_curve("full_optimal", c, f_hz)

    def test_earlier_lasing_wins_over_later_overflow(self,
                                                     overflow_below_100hz):
        c = lasing_at(overflow_below_100hz, 200.0)
        with pytest.raises(LasingThresholdError) as info:
            io_relation(c, TWO_PI * np.array([200.0, 50.0]))
        assert info.value.index == 0

    @pytest.mark.parametrize("spectrum", [
        io_relation, total_covariance, optimal_spectrum,
        pytest.param(lambda c, w: homodyne_spectrum(c, w, 0.3),
                     id="homodyne_spectrum")])
    def test_bad_frequency_is_raised_before_a_degeneracy(self, cfg, spectrum):
        # beyond the lasing threshold at every frequency
        r = -math.log(1.0 - cfg.T_src)
        c = replace(cfg, internal_sqz=InternalSqueeze("fixed", r=r))
        with pytest.raises(LasingThresholdError):
            spectrum(c, OMEGA)
        for omega in (-OMEGA, np.array([OMEGA, -OMEGA])):
            with pytest.raises(ValueError, match=(
                    f"^sideband frequency must be finite and >= 0, got "
                    f"{-OMEGA!r} rad/s$")):
                spectrum(c, omega)

    @pytest.mark.parametrize("spectrum", [io_relation, total_covariance,
                                          optimal_spectrum, qcrb_lossless])
    def test_earlier_coupling_failure_wins_over_later_lasing(
            self, overflow_below_100hz, spectrum):
        # (Omega / gamma)^2 overflows at f_big, where the loop is unsqueezed
        c = lasing_at(overflow_below_100hz, 200.0)
        f_big = 2e154 * arm_bandwidth(c) / TWO_PI
        omega = TWO_PI * np.array([f_big, 200.0])
        want = first_scalar_failure(spectrum, c, omega)
        # the lossless bound's internal loss is 0 * inf
        assert (want[0], want[2]) == (DegeneracyError, 0)
        assert want[1].endswith(
            f" is not finite at Omega = {omega[0]:.6g} rad/s")
        assert batch_failure(spectrum, c, omega) == want
        with pytest.raises(DegeneracyError) as info:
            evaluate_curve("full_optimal", c, omega / TWO_PI)
        assert str(info.value).startswith(f"curve 'full_optimal' failed at "
                                          f"{f_big:.6g} Hz: internal loss inf")
        assert info.value.index == 0

    def test_earlier_blind_angle_wins_over_later_overflow(
            self, overflow_below_100hz):
        c = overflow_below_100hz
        v = np.real(io_relation(c, TWO_PI * 300.0).v)
        zeta = math.atan2(v[1], v[0]) + math.pi / 2
        with pytest.raises(BlindQuadratureError) as info:
            homodyne_spectrum(c, TWO_PI * np.array([300.0, 50.0]), zeta)
        assert info.value.index == 0


def lasing_at(cfg, f_hz):
    """cfg with a rotation that lifts the round-trip trace at f_hz a little
    above 2, and the T_src that puts the loop there on its lasing
    threshold."""
    omega = TWO_PI * f_hz
    c = replace(cfg, Theta=1e-3 / ponderomotive_gain(cfg, omega))
    trace = np.trace(loop_matrix(c, omega)).real
    sqrt_r = 0.5 * (trace - math.sqrt(trace**2 - 4.0))
    return replace(c, T_src=1.0 - sqrt_r**2)


def failure(exc, index):
    return type(exc), str(exc), index


def first_scalar_failure(spectrum, cfg, omega, *args):
    """(type, message, index) of the first of the scalar calls
    spectrum(cfg, omega_i, *args) that fails, or None."""
    for i, point in enumerate(omega):
        try:
            spectrum(cfg, point, *args)
        except ArithmeticError as exc:
            return failure(exc, i)
    return None


def batch_failure(spectrum, cfg, omega, *args):
    """(type, message, index) of the failure of spectrum(cfg, omega, *args),
    or None; an error of the config's constants has no index and fails at
    every point alike, so its index is 0."""
    try:
        spectrum(cfg, omega, *args)
    except ArithmeticError as exc:
        return failure(exc, getattr(exc, "index", 0))
    return None


def plant_failures(rng, cfg):
    """(cfg with one or two failures planted, frequencies [Hz] where the
    planted failures show)."""
    r_crit = -0.5 * math.log(1 - cfg.T_src)
    f_k = 10 ** rng.uniform(1.3, 3.3)
    knot = InternalSqueeze("fixed", r=FreqTable(
        f_hz=(1.0, f_k, 1e4), values=(0.0, r_crit, 0.0)))
    beyond = InternalSqueeze("fixed", r=FreqTable(
        f_hz=(1.0, f_k, 2.0 * f_k, 1e4),
        values=(0.0, r_crit, 2.0 * r_crit, 0.0)))
    pressure = InternalSqueeze("ponderomotive")
    # (change, frequencies where it fails); a frequency where a change
    # fails may also fail for a later stage or a second change
    loops = [
        (lambda c: replace(c, Theta=0.0, internal_sqz=knot), [f_k]),
        (lambda c: replace(c, Theta=0.0, internal_sqz=beyond),
         [1.3 * f_k, 1.7 * f_k]),
        # the overflow guard, below about 100 Hz
        (lambda c: replace(c, M=1e-9, internal_sqz=pressure), [5.0, 12.0]),
    ]
    others = [
        (lambda c: replace(c, T_itm=1e-300), []),
        # (Omega / gamma)^2 overflows above 2 f_k
        (lambda c: replace(c, T_itm=2.0 * c.L * TWO_PI * f_k
                           / (1.34e154 * C_LIGHT)), [3.0 * f_k, 1e4]),
        # lossless, with e^(-2 r_input) below lstsq's rank tolerance
        (lambda c: replace(c, eps_arm=0.0, eps_src_channels=(0.0,),
                           eps_ext=0.0, r_input=17.5), []),
        # L**2 overflows in Python's scalar arithmetic
        (lambda c: replace(c, L=1e300), []),
    ]
    plants = [loops[rng.integers(len(loops))]] if rng.uniform() < 0.75 else []
    if not plants or rng.uniform() < 0.5:
        # mostly the change that fails at some frequencies only
        plants.append(others[rng.choice(4, p=(0.15, 0.55, 0.15, 0.15))])
    bad = []
    for change, f_hz in plants:
        cfg = change(cfg)
        bad += f_hz
    return cfg, bad


class TestPlantedFailures:
    """Failures planted at random grid indices are raised as the first
    failing scalar call raises them: its type, message and index."""

    CURVES = ("full_optimal", "qcrb", "sql")
    GOOD_HZ = np.geomspace(5.0, 5000.0, 24)

    def test_batches_raise_the_first_scalar_failure(self):
        rng = np.random.default_rng(1600)
        failed = 0
        for draw in range(300):
            c, bad = plant_failures(rng, random_config(rng))
            picks = list(rng.choice(self.GOOD_HZ, size=4))
            if bad:
                picks += [bad[j] for j in rng.integers(len(bad), size=3)]
            f_hz = np.array(picks)
            rng.shuffle(f_hz)
            if rng.integers(2):
                f_hz.sort()
            omega = TWO_PI * f_hz
            zeta = rng.uniform(0.0, math.pi)
            for spectrum, args in ((io_relation, ()), (total_covariance, ()),
                                   (optimal_spectrum, ()),
                                   (homodyne_spectrum, (zeta,)),
                                   (qcrb_lossless, ())):
                want = first_scalar_failure(spectrum, c, omega, *args)
                failed += want is not None
                assert batch_failure(spectrum, c, omega, *args) == want, (
                    draw, spectrum.__name__)
            names = self.CURVES + (f"full_fixed_zeta({zeta!r})",)
            names = tuple(names[j] for j in rng.permutation(len(names)))
            got = batch_failure(lambda c, f: curves._evaluate(names, c, f),
                                c, f_hz)
            assert got == curve_by_curve_scalar(names, c, f_hz), draw
        # the sweep plants a failure in most draws
        assert failed > 1000


def curve_by_curve_scalar(names, cfg, f_hz):
    """(type, message, index) of the first failure of evaluate_curve on one
    name at one frequency, taking the names in turn and each one's
    frequencies in turn, or None."""
    for name in names:
        for i in range(len(f_hz)):
            try:
                evaluate_curve(name, cfg, f_hz[i:i + 1])
            except DegeneracyError as exc:
                return failure(exc, i)
    return None


def homodyne_at(zeta):
    return lambda c, w: homodyne_spectrum(c, w, zeta)


class TestConstantLoop:
    """A loop with no Theta, residual-phase or internal-squeeze table that is
    not ponderomotive, the default config's, is solved once per batch: a
    check it fails, it fails at every point, so at index 0, and every
    public spectrum still has a value per frequency."""

    OMEGAS = TWO_PI * np.array([10.0, 100.0, 1000.0])
    SPECTRA = [io_relation, total_covariance, optimal_spectrum, qcrb_lossless,
               pytest.param(homodyne_at(0.3), id="homodyne_spectrum")]

    @pytest.mark.parametrize("spectrum", SPECTRA)
    @pytest.mark.parametrize("change, error, message", [
        # the internal squeeze puts the loop on or beyond its threshold
        ({"r": 0.5}, LasingThresholdError, "recycling loop at lasing threshold"),
        ({"r": 1.0}, LasingThresholdError, "recycling loop beyond lasing"),
        ({"L": 1e300}, DegeneracyError, "signal response is not finite"),
        ({"L": 2.7e-269}, DegeneracyError, "signal response vanishes"),
    ], ids=["at-threshold", "beyond-threshold", "signal-overflow",
            "signal-underflow"])
    def test_failure_is_the_scalar_call_at_index_0(self, cfg, spectrum, change,
                                                   error, message):
        if "r" in change:
            r = -change["r"] * math.log(1.0 - cfg.T_src)
            cfg = replace(cfg, internal_sqz=InternalSqueeze("fixed", r=r))
        else:
            cfg = replace(cfg, **change)
        with pytest.raises(error, match=message) as one:
            spectrum(cfg, self.OMEGAS[0])
        want = failure(one.value, 0)
        assert first_scalar_failure(spectrum, cfg, self.OMEGAS) == want
        assert batch_failure(spectrum, cfg, self.OMEGAS) == want
        # an empty batch has no point to fail
        if spectrum is not io_relation:
            got = spectrum(cfg, np.array([]))
            assert np.shape(got[0] if spectrum is optimal_spectrum
                            else got)[:1] == (0,)

    @pytest.mark.parametrize("batch", ["frequencies", "angles", "both"])
    def test_blind_angle_is_the_scalar_call_at_index_0(self, cfg, batch):
        v = np.real(io_relation(cfg, self.OMEGAS).v)
        assert v.shape == (2,)   # v does not depend on frequency
        zeta = math.atan2(v[1], v[0]) + math.pi / 2
        with pytest.raises(BlindQuadratureError) as one:
            homodyne_spectrum(cfg, self.OMEGAS[0], zeta)
        assert str(one.value) == (f"readout angle {zeta:.6g} rad is "
                                  "orthogonal to the signal response")
        want = failure(one.value, 0)
        if batch == "frequencies":
            got = batch_failure(homodyne_at(zeta), cfg, self.OMEGAS)
        elif batch == "angles":
            got = batch_failure(homodyne_at([0.3, zeta]), cfg, self.OMEGAS[0])
        else:
            # validate's scan: a row of angles at each frequency
            got = batch_failure(lambda c, w: ifo._Solve(c, w).read(
                lambda one: one.homodyne([0.3, zeta])), cfg, self.OMEGAS)
        assert got == want

    def test_qcrb_fails_as_0_times_inf_where_the_loss_overflows(self, cfg):
        # no recycling loss: (Omega / gamma)^2 = inf makes the internal
        # loss 0 * inf, for the lossless bound as for the config
        c = replace(cfg, eps_src_channels=(0.0,))
        f_big = 2e154 * arm_bandwidth(c) / TWO_PI
        omega = TWO_PI * np.array([f_big, 100.0])
        for spectrum in (qcrb_lossless, optimal_spectrum):
            want = first_scalar_failure(spectrum, c, omega)
            assert want == (DegeneracyError, "internal loss nan is not finite "
                            f"at Omega = {omega[0]:.6g} rad/s", 0)
            assert batch_failure(spectrum, c, omega) == want
        with pytest.raises(DegeneracyError) as info:
            evaluate_curve("qcrb", c, omega / TWO_PI)
        assert str(info.value).startswith(
            f"curve 'qcrb' failed at {f_big:.6g} Hz: internal loss nan")

    @pytest.mark.parametrize("n", [1, 3])
    def test_public_spectra_keep_a_value_per_frequency(self, cfg, n):
        omegas = self.OMEGAS[:n]
        io = io_relation(cfg, omegas)
        assert all(np.ndim(e) == 0 for e in (*io.M_io, *io.M_c, *io.v))
        assert np.shape(io.internal_coupling) == (n,)
        s, zeta = optimal_spectrum(cfg, omegas)
        qcrb = qcrb_lossless(cfg, omegas)
        fixed = homodyne_spectrum(cfg, omegas, 0.3)
        assert s.shape == zeta.shape == qcrb.shape == fixed.shape == (n,)
        loop, sigma = loop_matrix(cfg, omegas), total_covariance(cfg, omegas)
        assert loop.shape == sigma.shape == (n, 2, 2)
        # a grid of two dimensions is not a batch of frequencies
        for spectrum in (io_relation, total_covariance, loop_matrix,
                         optimal_spectrum, qcrb_lossless,
                         lambda c, w: homodyne_spectrum(c, w, 0.3)):
            with pytest.raises(ValueError, match="^sideband frequency must "
                                                 "be a scalar or a 1-D array$"):
                spectrum(cfg, omegas[:, None])
        # each is bitwise the scalar call at its frequency; a scalar call
        # gives floats and (2, 2) matrices
        for k, w in enumerate(omegas):
            assert isinstance(qcrb_lossless(cfg, w), float)
            assert qcrb[k] == qcrb_lossless(cfg, w)
            assert s[k] == optimal_spectrum(cfg, w)[0]
            assert np.array_equal(loop[k], loop_matrix(cfg, w))
            assert np.array_equal(sigma[k], total_covariance(cfg, w))
        # the bound is a fresh array, not a view of one value
        qcrb[0] = 0.0
        assert qcrb_lossless(cfg, omegas)[0] > 0.0
        angles = homodyne_spectrum(cfg, omegas[0], [0.3, 1.2])
        assert angles.shape == (2,) and angles[0] == fixed[0]
        # validate's scan: a row of angles per frequency
        scan = ifo._Solve(cfg, omegas).read(lambda one: one.homodyne([0.3, 1.2]))
        assert scan.shape == (n, 2) and np.array_equal(scan[:, 0], fixed)


class TestIoRelation:
    def test_transparent_recycling_mirror(self, lossless):
        c = replace(lossless, T_src=1.0)
        io = io_relation(c, OMEGA)
        beta = 2 * math.sqrt(c.omega0 * c.L**2 * c.P / (HBAR * C_LIGHT**2))
        assert np.allclose(mat2(*io.M_io), np.eye(2), atol=1e-14)
        assert np.allclose(io.v, [0.0, beta], rtol=1e-14)

    def test_scalar_geometric_series(self, cfg):
        # tuned, no squeezing: every matrix is the same scalar times identity
        io = io_relation(cfg, OMEGA)
        g = -math.sqrt(0.86) + 0.14 / (1 - math.sqrt(0.86))
        assert np.abs(mat2(*io.M_io) - g * np.eye(2)).max() < 1e-12
        c_scalar = 1.0 / (1 - math.sqrt(0.86))
        assert np.abs(mat2(*io.M_c) - c_scalar * np.eye(2)).max() < 1e-12

    def test_lossless_io_is_unitary(self, lossless):
        rng = np.random.default_rng(3)
        for _ in range(20):
            c = replace(lossless, Theta=rng.uniform(-0.5, 0.5),
                        T_src=rng.uniform(0.01, 0.9))
            m_io = mat2(*io_relation(c, OMEGA).M_io)
            assert np.abs(m_io @ m_io.conj().T - np.eye(2)).max() < 1e-10

    def test_coupling_factors(self, cfg):
        io = io_relation(cfg, OMEGA)
        eps_int = effective_internal_loss(cfg, OMEGA)
        assert io.internal_coupling == pytest.approx(
            math.sqrt(cfg.T_src * eps_int), rel=1e-12)
        assert io.external_coupling == pytest.approx(math.sqrt(0.1), rel=1e-12)

    def test_lasing_threshold_error(self, cfg):
        r_crit = -0.5 * math.log(1 - cfg.T_src)
        c = replace(cfg, internal_sqz=InternalSqueeze("fixed", r=r_crit))
        with pytest.raises(LasingThresholdError):
            io_relation(c, OMEGA)

    def test_signal_halves_at_nulling_squeeze(self, cfg):
        # internal squeezing strong enough to null the lossless bound costs
        # a factor of two in signal at the optimal readout quadrature
        t = 1e-3
        c0 = small_cfg(cfg, t, eps_arm=1e-5, eps_ext=1e-3)
        c1 = replace(c0, internal_sqz=InternalSqueeze("fixed", r=t / 2))
        _, z0 = optimal_spectrum(c0, OMEGA)
        _, z1 = optimal_spectrum(c1, OMEGA)
        v0 = np.real(io_relation(c0, OMEGA).v)
        v1 = np.real(io_relation(c1, OMEGA).v)
        q0 = np.array([math.cos(z0), math.sin(z0)])
        q1 = np.array([math.cos(z1), math.sin(z1)])
        ratio = abs(q1 @ v1) / abs(q0 @ v0)
        assert ratio == pytest.approx(0.5, abs=2e-3)


class TestCovariance:
    def test_lossless_vacuum_identity(self, lossless):
        sigma = total_covariance(lossless, OMEGA)
        assert np.abs(sigma - np.eye(2)).max() < 1e-10

    def test_matches_component_sum(self, cfg):
        io = io_relation(cfg, OMEGA)
        sigma = total_covariance(cfg, OMEGA)
        m_io, m_c = mat2(*io.M_io), mat2(*io.M_c)
        expect = (m_io @ m_io.conj().T
                  + io.internal_coupling**2 * (m_c @ m_c.conj().T)
                  + io.external_coupling**2 * np.eye(2))
        assert np.allclose(sigma, expect, rtol=1e-12)

    def test_dark_readout_bound(self, cfg):
        c = replace(cfg, eps_ext=1.0 - 1e-12)
        sigma = total_covariance(c, OMEGA)
        eigs = np.linalg.eigvalsh(sigma)
        assert eigs.min() >= 1.0 - 1e-9

    def test_hermitian_positive_definite(self, cfg):
        c = replace(cfg, residual_phase=0.3)
        sigma = total_covariance(c, OMEGA)
        assert np.abs(sigma - sigma.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(sigma).min() > 0


class TestHomodyne:
    def test_shot_noise_only(self, lossless):
        c = replace(lossless, T_src=1.0)
        beta = 2 * math.sqrt(c.omega0 * c.L**2 * c.P / (HBAR * C_LIGHT**2))
        s = homodyne_spectrum(c, OMEGA, math.pi / 2)
        assert s == pytest.approx(1.0 / beta**2, rel=1e-12)

    def test_grid_minimum_matches_optimal(self, cfg):
        zetas = (np.arange(20000) + 0.5) * math.pi / 20000
        s_grid = homodyne_spectrum(cfg, OMEGA, zetas)
        s_opt, z_opt = optimal_spectrum(cfg, OMEGA)
        assert s_grid.min() == pytest.approx(s_opt, rel=1e-3)
        assert np.all(s_grid >= s_opt * (1 - 1e-12))
        assert 0 <= z_opt < math.pi

    def test_external_loss_raises_noise_everywhere(self, cfg):
        zetas = np.linspace(0.05, math.pi - 0.05, 200)
        s0 = homodyne_spectrum(replace(cfg, eps_ext=0.0), OMEGA, zetas)
        s1 = homodyne_spectrum(replace(cfg, eps_ext=0.1), OMEGA, zetas)
        assert np.all(s1 > s0)

    def test_blind_quadrature(self, cfg):
        # tuned configuration has a pure phase-quadrature signal
        with pytest.raises(BlindQuadratureError):
            homodyne_spectrum(cfg, OMEGA, 0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("omega,zeta,bad", [
        (OMEGA, math.nan, "nan"),
        (np.array([OMEGA, 2 * OMEGA]), math.inf, "inf"),
        (OMEGA, [0.3, -math.inf, math.nan], "-inf"),
    ], ids=["nan", "inf-over-frequencies", "first-of-angles"])
    def test_angle_not_finite_is_value_error(self, cfg, omega, zeta, bad):
        with pytest.raises(ValueError, match=(
                f"^readout angle must be finite, got {bad} rad$")):
            homodyne_spectrum(cfg, omega, zeta)

    def test_angles_of_two_dimensions_rejected(self, cfg):
        with pytest.raises(ValueError, match="readout angle must be a scalar "
                                             "or a 1-D array"):
            homodyne_spectrum(cfg, OMEGA, np.full((2, 2), 0.3))

    def test_no_frequencies_give_an_empty_spectrum(self, cfg):
        got = homodyne_spectrum(cfg, np.array([]), 0.3)
        assert got.shape == optimal_spectrum(cfg, np.array([]))[0].shape == (0,)


class TestOptimal:
    def test_identity_covariance_case(self, lossless):
        c = replace(lossless, T_src=1.0)
        io = io_relation(c, OMEGA)
        s, zeta = optimal_spectrum(c, OMEGA)
        assert s == pytest.approx(1.0 / np.linalg.norm(io.v)**2, rel=1e-12)
        assert zeta == pytest.approx(math.pi / 2, abs=1e-9)

    def test_complex_angle_matches_generalised_eigenvector(self):
        rng = np.random.default_rng(8)
        n = 20000
        zetas = (np.arange(n) + 0.5) * math.pi / n
        for i in range(20):
            c = replace(random_config(rng),
                        residual_phase=rng.uniform(0.005, 0.05))
            if i % 2:
                c = replace(c, internal_sqz=InternalSqueeze("ponderomotive"))
            omega = TWO_PI * 10 ** rng.uniform(math.log10(5), math.log10(5e3))
            v = np.array(io_relation(c, omega).v)
            assert np.abs(np.imag(v)).max() > 1e-6 * np.abs(v).max()
            # reference: largest generalised eigenvector of B q = lam A q,
            # by the Cholesky reduction A = K K^T, K^-1 B K^-T y = lam y,
            # q = K^-T y
            a = np.real(total_covariance(c, omega))
            b = np.real(np.outer(v, v.conj()))
            k_inv = np.linalg.inv(np.linalg.cholesky(a))
            y = np.linalg.eigh(k_inv @ b @ k_inv.T)[1][:, -1]
            q = k_inv.T @ y
            want = math.atan2(q[1], q[0]) % math.pi
            _, zeta = optimal_spectrum(c, omega)
            assert 0 <= zeta < math.pi
            gap = abs(zeta - want) % math.pi
            assert min(gap, math.pi - gap) < 1e-9
            grid_best = zetas[np.argmin(homodyne_spectrum(c, omega, zetas))]
            gap = abs(zeta - grid_best) % math.pi
            assert min(gap, math.pi - gap) <= math.pi / n

    def test_rank_threshold_of_lstsq(self, lossless):
        # the input squeeze sets the singular-value ratio of the covariance
        # factor to e^(-2 r_input); lstsq calls it rank one below 6 eps
        s, _ = optimal_spectrum(replace(lossless, r_input=17.0), OMEGA)
        assert s > 0
        with pytest.raises(DegeneracyError, match="covariance is singular"):
            optimal_spectrum(replace(lossless, r_input=17.5), OMEGA)
        with pytest.raises(DegeneracyError) as info:
            optimal_spectrum(replace(lossless, r_input=17.5),
                             OMEGA * np.array([1.0, 2.0]))
        assert info.value.index == 0

    def test_rank_rule_is_lstsqs(self, monkeypatch):
        # the rank rule det L > 6 eps tr Sigma against lstsq's
        # sigma_min > 6 eps sigma_max, times sigma_max, with sigma_max^2
        # from det L and tr Sigma as the oracle.  A factor with orthogonal
        # rows of norms a and b has det L = a b and tr Sigma = a^2 + b^2;
        # det L / tr Sigma lies within 8 ulps of the threshold, within about
        # 0.2 % of it or within a factor of 10^10 of it, over tr Sigma in
        # [1e-20, 1e150]
        rng = np.random.default_rng(11)
        n = 40_000
        trace = 10.0 ** rng.uniform(-20.0, 150.0, 3 * n)
        tol = ifo._RANK_TOL
        ratio = np.concatenate([
            tol * (1.0 + rng.integers(-8, 9, n) * 2.0**-52),
            tol * 10.0 ** rng.normal(0.0, 1e-3, n),
            tol * 10.0 ** rng.uniform(-10.0, 10.0, n)])
        seen = []
        monkeypatch.setattr(ifo, "_raise_first",
                            lambda *checks: seen.extend(checks))

        def full_rank(trace, ratio):
            a = np.sqrt(0.5 * trace * (1.0 + np.sqrt(1.0 - 4.0 * ratio**2)))
            b = ratio * trace / a
            zero = np.zeros_like(a)
            io = ifo.IoRelation(None, None, (zero + 1.0, zero + 1.0), 0.0, 0.0)
            seen.clear()
            ifo._optimal_from(a, io, (((a, zero), (zero, b)),
                                      (a * a, zero, zero, b * b), 0.0))
            det_l, frob = a * b, a * a + b * b
            with np.errstate(over="ignore", invalid="ignore"):
                sigma_max_sq = 0.5 * (frob + np.sqrt(np.maximum(
                    frob * frob - 4.0 * det_l * det_l, 0.0)))
            return ~seen[0][0], det_l > tol * sigma_max_sq

        new, old = full_rank(trace, ratio)
        np.testing.assert_array_equal(new, old)
        assert 0.2 < new.mean() < 0.8
        # where (tr Sigma)^2 overflows only the new rule passes
        new, old = full_rank(10.0 ** rng.uniform(154.2, 300.0, 1000),
                             10.0 ** rng.uniform(-10.0, math.log10(0.5), 1000))
        assert new.all() and not old.any()

    @pytest.mark.parametrize("arm_length", [1e90, 1e100, 1e120, 1e135])
    def test_covariance_beyond_square_overflow(self, cfg, arm_length):
        # tr Sigma beyond 1.3e154, whose square overflows: the optimum is
        # finite, without a numpy warning, and equals the loss limit
        c = replace(cfg, L=arm_length)
        omega = TWO_PI * 10.0
        s, zeta = optimal_spectrum(c, omega)
        assert s == pytest.approx(loss_limit(c, omega, ALPHA_NO_INTERNAL),
                                  rel=1e-14)
        assert zeta == pytest.approx(math.pi / 2, rel=1e-15)
        if arm_length < 1e134:   # beyond it |v|^2 overflows in the readout
            assert s <= homodyne_spectrum(c, omega, 0.5)

    def test_equals_qcrb_when_lossless(self, lossless):
        assert optimal_spectrum(lossless, OMEGA)[0] == pytest.approx(
            qcrb_lossless(lossless, OMEGA), rel=1e-14)

    def test_monotone_in_each_loss(self, cfg):
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = random_config(rng)
            omega = TWO_PI * 10 ** rng.uniform(math.log10(5), math.log10(5e3))
            s0 = optimal_spectrum(c, omega)[0]
            for bump in (replace(c, eps_arm=min(c.eps_arm + 1e-4, 0.999)),
                         replace(c, eps_ext=min(c.eps_ext + 0.05, 0.999))):
                assert optimal_spectrum(bump, omega)[0] >= s0 * (1 - 1e-12)

    # a signal response near 1e77 and beyond, where b11 * b22 overflows;
    # at L = 1e300 the signal coupling itself overflows, which io_relation
    # reports at the first frequency
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("change", [{"L": 1e57}, {"lambda0": 9.57e-195},
                                        {"L": 1e300}])
    def test_angle_of_a_strong_signal(self, change):
        c = config_from_dict({**config_template(), **change})
        omega = TWO_PI * np.geomspace(5.0, 5000.0, 50)
        if c.L == 1e300:
            with pytest.raises(DegeneracyError, match=(
                    "^signal response is not finite at "
                    f"Omega = {omega[0]:.6g} rad/s$")) as info:
                io_relation(c, omega)
            assert info.value.index == 0
            return
        assert np.abs(np.array(io_relation(c, omega).v)).max() > 1e77
        s, zeta = optimal_spectrum(c, omega)
        assert np.all((0 <= zeta) & (zeta < math.pi))
        attained = np.array([homodyne_spectrum(c, w, z)
                             for w, z in zip(omega, zeta)])
        assert np.abs(attained / s - 1.0).max() < 1e-15

    def test_angle_only_where_returned(self, cfg, monkeypatch):
        # the exact curves and validate read spectra only
        from qnbudget import ifo, run_validation

        def no_angle(*args):
            raise AssertionError("optimal angle computed")

        monkeypatch.setattr(ifo, "_optimal_angle", no_angle)
        for name in ("full_optimal", "qcrb", "full_fixed_zeta(0.5)"):
            evaluate_curve(name, cfg, np.array([10.0, 100.0]))
        assert run_validation(cfg).passed
        with pytest.raises(AssertionError, match="optimal angle computed"):
            optimal_spectrum(cfg, OMEGA)


class TestQcrbLossless:
    def test_input_squeezing_scaling(self, cfg):
        c0 = small_cfg(cfg)
        dr = 0.8
        s0 = qcrb_lossless(c0, OMEGA)
        s1 = qcrb_lossless(replace(c0, r_input=dr), OMEGA)
        assert s1 / s0 == pytest.approx(math.exp(-2 * dr), rel=1e-12)

    def test_nulling_squeeze_suppression(self, cfg):
        t = 1e-3
        c0 = small_cfg(cfg, t)
        c1 = replace(c0, internal_sqz=InternalSqueeze("fixed", r=t / 2))
        assert qcrb_lossless(c1, OMEGA) < 1e-6 * qcrb_lossless(c0, OMEGA)

    def test_ignores_configured_losses(self, cfg):
        assert qcrb_lossless(cfg, OMEGA) == pytest.approx(
            qcrb_lossless(replace(cfg, eps_ext=0.5), OMEGA), rel=1e-14)


class TestFirstOrderSplit:
    def test_discrepancy_shrinks_with_loss_scale(self, cfg):
        base = small_cfg(cfg, 1e-3)
        devs = []
        for s in (1.0, 0.5, 0.25):
            c = replace(base, eps_arm=1e-4 * s, eps_src_channels=(1e-3 * s,),
                        eps_ext=0.1 * s)
            full = optimal_spectrum(c, OMEGA)[0]
            split = qcrb_lossless(c, OMEGA) + loss_limit(c, OMEGA, 0.25)
            devs.append(abs(full - split) / full)
        assert devs[1] <= 0.75 * devs[0]
        assert devs[2] <= 0.75 * devs[1]


class TestPonderomotiveMode:
    def test_radiation_pressure_dominates_low_frequency(self, cfg):
        c = replace(cfg, internal_sqz=InternalSqueeze("ponderomotive"))
        s_low = optimal_spectrum(c, TWO_PI * 1.0)[0]
        s_mid = optimal_spectrum(c, TWO_PI * 100.0)[0]
        assert s_low > 100 * s_mid

    def test_matches_fixed_mode_at_one_frequency(self, cfg):
        from qnbudget import ponderomotive_decompose
        c_pond = replace(cfg, internal_sqz=InternalSqueeze("ponderomotive"))
        gain = ponderomotive_gain(cfg, OMEGA)
        phi, r, theta = ponderomotive_decompose(gain)
        c_fixed = replace(cfg, internal_sqz=InternalSqueeze("fixed", r=r,
                                                            theta=theta),
                          Theta=0.0)
        # fixed mode drops the decomposition rotation, so fold it in by hand
        from qnbudget import loop_matrix, rotation_matrix
        x_pond = loop_matrix(c_pond, OMEGA)
        x_manual = loop_matrix(c_fixed, OMEGA) @ rotation_matrix(phi)
        assert np.abs(x_pond - x_manual).max() < 1e-12

