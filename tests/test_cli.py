import errno
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import qnbudget
from qnbudget import (ALPHA_NO_INTERNAL, DEFAULT_BAND_HZ,
                      BlindQuadratureError, BudgetRequest, ConfigError,
                      DegeneracyError, FreqTable, InternalSqueeze,
                      LasingThresholdError,
                      config_hash, config_template, config_to_dict,
                      default_config,
                      evaluate_curve, homodyne_spectrum, ifo,
                      io_relation, load_config, loss_limit, quadrature,
                      resolve_band, run_budget,
                      run_validation, validation)
from qnbudget.cli import build_parser, main
from qnbudget.config import MAX_FREQUENCY_HZ
from qnbudget.constants import TWO_PI
from qnbudget.curves import CHUNK_POINTS, parse_curve_name


@pytest.fixture
def cfg():
    return default_config()


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestBudgetRequest:
    def test_defaults_valid(self, cfg):
        req = BudgetRequest(config=cfg)
        assert req.band_hz == (5.0, 5000.0)

    @pytest.mark.parametrize("kw", [
        {"band_hz": (0.05, 100.0)},
        {"band_hz": (100.0, 10.0)},
        {"points": 1},
        {"points": 10**6 + 1},
        {"points": 2.9},
        {"points": "7"},
        {"curves": ()},
        {"curves": ("not_a_curve",)},
        {"fmt": "yaml"},
        {"band_hz": 5.0},
        {"band_hz": (5.0,)},
        {"band_hz": ("5", "5000")},
        {"curves": ("sql", 3)},
        {"curves": 5},
    ])
    def test_invalid_requests(self, cfg, kw):
        with pytest.raises(ConfigError):
            BudgetRequest(config=cfg, **kw)

    @pytest.mark.parametrize("kw,message", [
        ({"band_hz": 5.0}, "band_hz: expected a pair (fmin, fmax), got 5.0"),
        ({"band_hz": (5.0,)}, "band_hz: expected a pair (fmin, fmax), got (5.0,)"),
        ({"band_hz": ("5", "5000")}, "fmin: expected a number, got '5'"),
        ({"band_hz": (0.05, 100.0)}, "fmin: must be in [0.1, inf), got 0.05"),
        ({"band_hz": (100.0, 10.0)},
         "fmax: must be in (100, 2.86112e+307], got 10.0"),
        ({"curves": ("sql", 3)}, "curves: expected a curve name, got 3"),
        ({"curves": 5},
         "curves: expected a curve name or a sequence of them, got 5"),
        ({"curves": "full_fixed_zeta(1e999)"},
         "curve 'full_fixed_zeta(1e999)': readout angle must be finite"),
        # a bool is no point count, as it is no config number
        ({"points": True}, "points: must be an integer, got True"),
        ({"points": np.True_}, "points: must be an integer, got np.True_"),
    ])
    def test_invalid_request_names_key(self, cfg, kw, message):
        with pytest.raises(ConfigError) as info:
            BudgetRequest(config=cfg, **kw)
        assert str(info.value) == message

    def test_fmax_ends_where_the_sideband_frequency_overflows(self, cfg):
        # 2 pi fmax is the largest finite double at the upper end, and one
        # step beyond it is refused before any curve overflows to inf
        top = BudgetRequest(config=cfg, band_hz=(5.0, MAX_FREQUENCY_HZ))
        assert math.isfinite(TWO_PI * top.band_hz[1])
        beyond = math.nextafter(MAX_FREQUENCY_HZ, math.inf)
        assert TWO_PI * beyond == math.inf
        for fmax in (beyond, 1e308, sys.float_info.max):
            with pytest.raises(ConfigError) as info:
                BudgetRequest(config=cfg, band_hz=(5.0, fmax))
            assert str(info.value) == (
                f"fmax: must be in (5, 2.86112e+307], got {fmax!r}")

    def test_bare_string_is_one_curve(self, cfg):
        assert BudgetRequest(config=cfg, curves="sql").curves == ("sql",)
        with pytest.raises(ConfigError, match="unknown curve 'sqlx'"):
            BudgetRequest(config=cfg, curves="sqlx")

    def test_unknown_curve_lists_choices_in_order(self):
        with pytest.raises(ConfigError) as info:
            parse_curve_name("psd")
        assert str(info.value) == (
            "unknown curve 'psd'; choose from sql, qcrb, loss_limit_a1, "
            "loss_limit_a4, full_optimal, fdt_floor, taylor_qcrb_internal, "
            "taylor_qcrb_no_internal, taylor_loss_internal, "
            "taylor_loss_no_internal, full_fixed_zeta(<rad>)")

    def test_curve_name_parsing(self):
        assert parse_curve_name("sql") == ("sql", None)
        kind, zeta = parse_curve_name("full_fixed_zeta(1.5708)")
        assert kind == "full_fixed_zeta"
        assert zeta == pytest.approx(math.pi / 2, rel=1e-4)
        with pytest.raises(ConfigError):
            parse_curve_name("full_fixed_zeta(nan)")


class TestRunBudget:
    def test_repeated_curve_kept_once(self, cfg, tmp_path):
        # by its name, or by spellings of one readout angle: the first
        # spelling is kept
        for curves, kept in (
                (("sql", "loss_limit_a4", "sql"), ("sql", "loss_limit_a4")),
                (("full_fixed_zeta(0.5)", "full_fixed_zeta(0.50)", "sql",
                  "full_fixed_zeta(5e-1)"), ("full_fixed_zeta(0.5)", "sql"))):
            req = BudgetRequest(config=cfg, points=5, curves=curves)
            assert req.curves == kept
            for fmt in ("csv", "json"):
                run_budget(replace(req, fmt=fmt, out_path=str(tmp_path / fmt)))
            header = (tmp_path / "csv").read_text().splitlines()[0].split(",")
            doc = json.loads((tmp_path / "json").read_text())
            assert header == ["f_hz", *doc["metadata"]["curves"]]
            assert sorted(header) == sorted(doc["columns"])
            assert doc["metadata"]["curves"] == list(kept)

    @pytest.mark.parametrize("grid", [5.0, np.array(5.0), np.ones((2, 2))])
    def test_grid_must_be_one_dimensional(self, cfg, grid):
        with pytest.raises(ValueError) as info:
            evaluate_curve("sql", cfg, grid)
        assert str(info.value) == ("frequency grid must be a 1-D array, got "
                                   f"shape {np.shape(grid)}")

    @pytest.mark.parametrize("wrapped", [False, True])
    def test_warning_registry_bounded_over_requests(self, cfg, monkeypatch,
                                                    wrapped):
        # each request prints what a fresh process prints, though every
        # rotation angle gives a new warning text; so does a request whose
        # expansions run through a wrapper, which moves where they point
        from qnbudget import curves, errors, limits
        if wrapped:
            def wrap(fn):
                return lambda *args: fn(*args)
            for name in ("taylor_qcrb_no_internal", "taylor_loss_internal"):
                monkeypatch.setattr(limits, name, wrap(getattr(limits, name)))
        sizes, printed = [], []
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("default")
            for theta in np.linspace(0.1, 0.3, 12):
                # omega0 = 1e3 rad/s: fdt_floor's single-mode warning too
                run_budget(BudgetRequest(
                    config=replace(cfg, Theta=float(theta), omega0=1e3),
                    points=8, curves=("taylor_qcrb_no_internal",
                                      "taylor_loss_internal", "fdt_floor")))
                sizes.append((sum(map(len, errors._SHOWN.values())),
                              len(vars(curves).get("__warningregistry__", ()))))
                printed.append(len(seen))
                seen.clear()
        assert sizes == [sizes[0]] * 12
        # T_src and Theta, for each expansion, and the cavity mode
        assert printed == [5] * 12

    def test_returns_spectra_in_request_order(self, cfg, tmp_path):
        req = BudgetRequest(config=cfg, points=16,
                            curves=("loss_limit_a4", "sql"))
        f_hz, spectra = run_budget(req)
        assert list(spectra) == ["loss_limit_a4", "sql"]
        assert np.array_equal(f_hz, np.geomspace(5.0, 5000.0, 16))
        assert all(len(psd) == 16 for psd in spectra.values())

    @pytest.mark.parametrize("bad", [math.nan, -1e-40, math.inf])
    def test_bad_psd_value_raises_degeneracy(self, cfg, tmp_path, capsys,
                                             monkeypatch, bad):
        from qnbudget import curves

        def broken(chunk, _):
            psd = qnbudget.limits.sql(chunk.cfg, chunk.w)
            psd[2:] = bad
            return psd

        monkeypatch.setitem(curves._CURVES, "sql", broken)
        f_hz = np.geomspace(5.0, 5000.0, 8)
        req = BudgetRequest(config=cfg, points=8, curves=("qcrb", "sql"))
        with pytest.raises(DegeneracyError) as info:
            run_budget(req)
        assert info.value.index == 2
        assert str(info.value).startswith(
            f"curve 'sql' failed at {f_hz[2]:.6g} Hz: PSD value {bad:.6g}")
        out = tmp_path / "x.csv"
        assert main(["budget", "--points", "8", "--curves", "sql",
                     "--out", str(out)]) == 3
        assert "numerical degeneracy: curve 'sql'" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_shape(self, cfg, tmp_path):
        out = tmp_path / "budget.csv"
        req = BudgetRequest(config=cfg, points=1000,
                            curves=("sql", "loss_limit_a4"),
                            out_path=str(out))
        run_budget(req)
        lines = out.read_text().splitlines()
        assert lines[0] == "f_hz,sql,loss_limit_a4"
        assert len(lines) == 1001
        assert all(len(line.split(",")) == 3 for line in lines)

    def test_determinism(self, cfg, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run_budget(BudgetRequest(config=cfg, points=64,
                                     curves=("sql", "qcrb"),
                                     out_path=str(out)))
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_csv_json_identical_numbers(self, cfg, tmp_path):
        csv_path, json_path = tmp_path / "b.csv", tmp_path / "b.json"
        common = dict(config=cfg, points=40, curves=("sql", "loss_limit_a1"))
        run_budget(BudgetRequest(out_path=str(csv_path), fmt="csv", **common))
        run_budget(BudgetRequest(out_path=str(json_path), fmt="json", **common))
        doc = json.loads(json_path.read_text())
        rows = [line.split(",") for line in
                csv_path.read_text().splitlines()[1:]]
        for col, name in enumerate(["f_hz", "sql", "loss_limit_a1"]):
            csv_vals = [float(r[col]) for r in rows]
            assert csv_vals == doc["columns"][name]
        assert doc["metadata"]["points"] == 40

    def test_json_metadata_hash_stable(self, cfg, tmp_path):
        out = tmp_path / "m.json"
        run_budget(BudgetRequest(config=cfg, points=8, curves=("sql",),
                                 out_path=str(out), fmt="json"))
        doc = json.loads(out.read_text())
        assert doc["metadata"]["config_sha256"] == config_hash(cfg)
        assert "seed" not in doc["metadata"]

    def test_fixed_zeta_curve(self, cfg):
        req = BudgetRequest(config=cfg, points=8,
                            curves=("full_fixed_zeta(1.5707963)",))
        _, spectra = run_budget(req)
        assert np.all(spectra["full_fixed_zeta(1.5707963)"] > 0)

    def test_squeezed_input_sits_above_loss_limit(self, cfg):
        from qnbudget import r_from_db
        req = BudgetRequest(config=replace(cfg, r_input=r_from_db(30.0)),
                            points=100, curves=("full_optimal", "loss_limit_a4"))
        _, spectra = run_budget(req)
        assert np.all(spectra["full_optimal"] > spectra["loss_limit_a4"])


def curve_by_curve(names, cfg, f_hz):
    """The spectra, or the first error, of a loop calling evaluate_curve on
    each name in turn."""
    try:
        return {name: evaluate_curve(name, cfg, f_hz) for name in names}
    except DegeneracyError as exc:
        return exc


def beyond_threshold(cfg):
    """cfg with its loop driven beyond the lasing threshold from just above
    30 Hz to about 3 kHz (see test_ifo's TestBatchErrors)."""
    r_crit = -0.5 * math.log(1 - cfg.T_src)
    r = FreqTable(f_hz=(1.0, 30.0, 100.0, 1e4),
                  values=(0.0, r_crit, 2.0 * r_crit, 0.0))
    return replace(cfg, internal_sqz=InternalSqueeze("fixed", r=r))


class TestSharedSolve:
    """run_budget's curves walk the grid in one pass, whose exact curves
    share one loop solve per chunk, and the request still answers as
    evaluating its curves one by one would."""

    EXACT = ("full_optimal", "qcrb", "full_fixed_zeta(0.5)")

    def test_one_loop_solve_per_chunk(self, cfg, monkeypatch):
        from qnbudget import curves, ifo
        calls = []
        loop = ifo._loop
        monkeypatch.setattr(ifo, "_loop",
                            lambda c, w: calls.append(len(w)) or loop(c, w))
        points = 2 * curves.CHUNK_POINTS + 17
        # the closed forms among the exact curves solve no loop of their own
        mixed = ("sql", "full_optimal", "loss_limit_a4", "qcrb", "fdt_floor",
                 "full_fixed_zeta(0.5)")
        run_budget(BudgetRequest(config=cfg, points=points, curves=mixed))
        assert calls == [curves.CHUNK_POINTS, curves.CHUNK_POINTS, 17]
        calls.clear()
        for name in self.EXACT:
            evaluate_curve(name, cfg, np.geomspace(5.0, 5000.0, 40))
        assert calls == [40] * 3

    def test_first_curve_in_order_wins_over_earlier_chunk(self, cfg,
                                                           monkeypatch):
        from qnbudget import curves
        # on 5-40 Hz the loop passes its lasing threshold in the second
        # chunk, while the tuned signal is blind to zeta = 0 from the first
        c = beyond_threshold(cfg)
        req = BudgetRequest(config=c, band_hz=(5.0, 40.0),
                            points=2 * curves.CHUNK_POINTS + 17,
                            curves=("full_optimal", "full_fixed_zeta(0)",
                                    "qcrb"))
        f_hz = np.geomspace(5.0, 40.0, req.points)
        want = curve_by_curve(req.curves, c, f_hz)
        assert isinstance(want, LasingThresholdError)
        assert curves.CHUNK_POINTS <= want.index < 2 * curves.CHUNK_POINTS
        with pytest.raises(LasingThresholdError) as info:
            run_budget(req)
        assert (str(info.value), info.value.index) == (str(want), want.index)
        reordered = replace(req, curves=req.curves[1:] + req.curves[:1])
        want = curve_by_curve(reordered.curves, c, f_hz)
        with pytest.raises(BlindQuadratureError) as info:
            run_budget(reordered)
        assert (str(info.value), info.value.index) == (str(want), 0)

        # a closed form that fails in the first chunk, after and before an
        # exact curve that fails in the second
        def failing_sql(chunk, _):
            psd = qnbudget.limits.sql(chunk.cfg, chunk.w)
            psd[5] = -1.0
            return psd

        monkeypatch.setitem(curves._CURVES, "sql", failing_sql)
        wanted = []
        for names in (("full_optimal", "sql"), ("sql", "full_optimal")):
            want = curve_by_curve(names, c, f_hz)
            with pytest.raises(DegeneracyError) as info:
                run_budget(replace(req, curves=names))
            got = info.value
            assert ((type(got), str(got), got.index, repr(got.__cause__))
                    == (type(want), str(want), want.index,
                        repr(want.__cause__)))
            wanted.append((type(want), want.index))
        assert wanted[0][0] is LasingThresholdError
        assert curves.CHUNK_POINTS <= wanted[0][1] < 2 * curves.CHUNK_POINTS
        assert wanted[1] == (DegeneracyError, 5)

    @pytest.mark.parametrize("curve_names", [
        ("full_fixed_zeta(0.5)", "qcrb", "full_optimal"),
        ("qcrb", "sql", "full_optimal"),
        ("sql", "full_optimal", "full_fixed_zeta(0)"),
    ])
    @pytest.mark.parametrize("band", [(50.0, 100.0), (100.0, 200.0),
                                      (5.0, 5000.0)])
    def test_lasing_configs_report_as_curve_by_curve(self, cfg, curve_names,
                                                     band):
        r_crit = -0.5 * math.log(1 - cfg.T_src)
        at_100hz = replace(cfg, internal_sqz=InternalSqueeze(
            "fixed", r=FreqTable(f_hz=(1.0, 100.0, 1e4),
                                 values=(0.0, r_crit, 0.0))))
        for c in (at_100hz, beyond_threshold(cfg)):
            req = BudgetRequest(config=c, band_hz=band, points=9,
                                curves=curve_names)
            want = curve_by_curve(curve_names, c, np.geomspace(*band, 9))
            if isinstance(want, dict):
                _, got = run_budget(req)
                assert all(np.array_equal(got[n], want[n]) for n in want)
                continue
            with pytest.raises(type(want)) as info:
                run_budget(req)
            assert (str(info.value), info.value.index) == (str(want),
                                                           want.index)

    def test_stderr_as_curve_by_curve(self, cfg, tmp_path):
        # the expansion warns (T_src = 0.14 is outside its regime); a
        # curve's warnings print when it is reached, and the first failing
        # curve in order ends the request
        path = write_config(tmp_path, config_to_dict(beyond_threshold(cfg)))
        src = os.path.dirname(os.path.dirname(qnbudget.__file__))

        def stderr(curve_names):
            done = subprocess.run(
                [sys.executable, "-m", "qnbudget", "budget", "--config", path,
                 "--points", "20", "--curves", curve_names,
                 "--out", str(tmp_path / "x.csv")],
                capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": src})
            return done.returncode, done.stderr

        code, warned = stderr("taylor_qcrb_no_internal")
        # the console script prints a warning as one line, without the
        # source location and code Python's format shows
        assert code == 0 and warned == (
            "warning: RegimeWarning: T_src = 0.14 is outside the expansion "
            "regime (|T_src| < 0.05); the exact pipeline is authoritative\n")
        assert ".py" not in warned and "lambda" not in warned
        code, failed = stderr("full_fixed_zeta(0.5)")
        assert code == 3 and failed.startswith("numerical degeneracy: ")
        assert stderr("taylor_qcrb_no_internal,full_fixed_zeta(0.5),"
                      "full_optimal") == (3, warned + failed)
        assert stderr("full_fixed_zeta(0.5),taylor_qcrb_no_internal,"
                      "qcrb") == (3, failed)

    def test_exact_warnings_follow_earlier_curves(self, cfg, monkeypatch):
        # each chunk runs the curves in request order, so what the exact
        # curves warn follows the warnings of earlier curves
        from qnbudget import ifo
        optimal_from = ifo._optimal_from

        def warning_optimal_from(*args):
            warnings.warn("exact readout", RuntimeWarning)
            return optimal_from(*args)

        monkeypatch.setattr(ifo, "_optimal_from", warning_optimal_from)
        names = ("taylor_qcrb_no_internal", "full_optimal", "qcrb")
        messages = []
        for run in (lambda: curve_by_curve(names, cfg,
                                           np.geomspace(5.0, 5000.0, 8)),
                    lambda: run_budget(BudgetRequest(config=cfg, points=8,
                                                     curves=names))):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                run()
            messages.append([str(w.message) for w in seen])
        assert messages[0][-2:] == ["exact readout"] * 2
        assert "expansion regime" in messages[0][0]
        assert messages[1] == messages[0]


class TestBandResolution:
    # recycling loss with its minimum on the 100 Hz knot, below the band
    V_CHANNELS = [5e-4, {"f_hz": [1.0, 100.0, 10000.0],
                         "values": [3e-3, 1e-3, 3e-3]}]

    def test_cli_resolves_at_requested_band_edge(self, cfg, tmp_path):
        doc = config_to_dict(cfg)
        doc["eps_src_channels"] = self.V_CHANNELS
        path = write_config(tmp_path, doc)
        out = tmp_path / "v.csv"
        assert main(["budget", "--config", path, "--fmin", "300", "--fmax",
                     "1000", "--points", "16", "--curves", "loss_limit_a4",
                     "--out", str(out)]) == 0
        got = np.genfromtxt(out, delimiter=",", names=True)["loss_limit_a4"]
        loaded = load_config(path)
        f_hz = np.geomspace(300.0, 1000.0, 16)

        def column(c):
            values = [loss_limit(c, 2 * math.pi * f, ALPHA_NO_INTERNAL)
                      for f in f_hz]
            return [float(f"{x:.11e}") for x in values]   # CSV precision

        assert list(got) == column(resolve_band(loaded, (300.0, 1000.0)))
        assert np.all(got > column(resolve_band(loaded, DEFAULT_BAND_HZ)))

    def test_json_hashes_unresolved_config(self, cfg, tmp_path):
        doc = config_to_dict(cfg)
        doc["eps_src_channels"] = self.V_CHANNELS
        path = write_config(tmp_path, doc)
        out = tmp_path / "v.json"
        assert main(["budget", "--config", path, "--fmin", "300", "--fmax",
                     "1000", "--points", "4", "--curves", "sql",
                     "--out", str(out), "--format", "json"]) == 0
        meta = json.loads(out.read_text())["metadata"]
        assert meta["config_sha256"] == config_hash(load_config(path))

    def test_band_loss_reaching_one_exits_2(self, cfg, tmp_path, capsys):
        doc = config_to_dict(cfg)
        doc["eps_src_channels"] = [0.5, {"f_hz": [1.0, 10000.0],
                                         "values": [0.6, 0.9]}]
        path = write_config(tmp_path, doc)
        rc = main(["budget", "--config", path, "--points", "4",
                   "--curves", "sql", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "eps_src_channels" in err and "5..5000 Hz" in err


class TestCliExitCodes:
    def test_budget_ok(self, cfg, tmp_path):
        out = tmp_path / "ok.csv"
        rc = main(["budget", "--points", "16", "--curves", "sql",
                   "--out", str(out)])
        assert rc == 0
        assert out.exists()

    def test_parser_built_once_per_process(self):
        assert build_parser() is build_parser()

    def test_corrupt_config_exits_2(self, cfg, tmp_path, capsys):
        doc = config_to_dict(cfg)
        doc["T_src"] = 1.5
        path = write_config(tmp_path, doc)
        rc = main(["budget", "--config", path, "--out",
                   str(tmp_path / "x.csv")])
        assert rc == 2
        assert "T_src" in capsys.readouterr().err
        # a file that is not UTF-8 and an array nested beyond the parser's
        # recursion limit are not valid JSON either
        for name, content in (("latin.json", b"\xff\xfe{"),
                              ("nested.json", b"[" * 100000)):
            path = tmp_path / name
            path.write_bytes(content)
            for verb in ("budget", "validate"):
                assert main([verb, "--config", str(path)]) == 2
                assert capsys.readouterr().err.startswith(
                    "config error: config file is not valid JSON: ")

    @pytest.mark.parametrize("field,value", [
        ("L", "abc"), ("lambda0", "x"), ("r_input", "q"), ("T_src", True),
    ])
    def test_bad_config_value_exits_2(self, cfg, tmp_path, capsys, field,
                                      value):
        doc = config_to_dict(cfg)
        if field == "lambda0":
            del doc["omega0"]
        doc[field] = value
        path = write_config(tmp_path, doc)
        rc = main(["budget", "--config", path, "--out",
                   str(tmp_path / "x.csv")])
        assert rc == 2
        assert f"config error: {field}: expected a number" in \
            capsys.readouterr().err

    def test_omega0_and_lambda0_together_exits_2(self, cfg, tmp_path, capsys):
        doc = config_to_dict(cfg)
        doc["lambda0"] = 1.064e-6
        path = write_config(tmp_path, doc)
        assert main(["budget", "--config", path, "--points", "4"]) == 2
        err = capsys.readouterr().err
        assert "'omega0' and 'lambda0'" in err

    @pytest.mark.parametrize("verb", [["budget", "--points", "4"],
                                      ["validate"]])
    def test_constant_loss_sum_reaching_one_exits_2(self, cfg, tmp_path,
                                                    capsys, verb):
        doc = config_to_dict(cfg)
        doc["eps_src_channels"] = [0.6, 0.6]
        path = write_config(tmp_path, doc)
        assert main(verb + ["--config", path]) == 2
        err = capsys.readouterr().err
        assert "config error: eps_src_channels: summed loss is at least 1.2" \
            in err and "must stay below 1" in err

    @pytest.mark.parametrize("verb", [["budget", "--points", "4"],
                                      ["validate"]])
    def test_lasing_beyond_threshold_exits_3(self, cfg, tmp_path, capsys,
                                             verb):
        # twice the threshold squeeze r = 0.0754: round-trip eigenvalue 1.088
        doc = config_to_dict(cfg)
        doc["internal_sqz"] = {"mode": "fixed", "r": 0.16}
        path = write_config(tmp_path, doc)
        assert main(verb + ["--config", path]) == 3
        err = capsys.readouterr().err
        assert "beyond lasing threshold (round-trip eigenvalue 1.088)" in err

    @pytest.mark.parametrize("key", ["Theta", "residual_phase",
                                     "internal_sqz.r", "internal_sqz.theta",
                                     "eps_src_channels[0]"])
    def test_validate_names_table_short_of_check_span(self, cfg, tmp_path,
                                                      capsys, key):
        def run(f_hz):
            doc = config_to_dict(cfg)
            doc["internal_sqz"] = {"mode": "fixed", "r": 0.01, "theta": 0.0}
            table = {"f_hz": f_hz, "values": [0.01, 0.01]}
            if key.startswith("internal_sqz."):
                doc["internal_sqz"][key.split(".")[1]] = table
            elif key == "eps_src_channels[0]":
                doc["eps_src_channels"] = [table]
            else:
                doc[key] = table
            return main(["validate", "--config", write_config(tmp_path, doc)])

        assert run([20.0, 800.0]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}: table covers 20..800 Hz")
        assert "12..980 Hz" in err
        assert run([10.0, 1000.0]) == 0

    def test_malformed_curve_angle_exits_2(self, tmp_path, capsys):
        rc = main(["budget", "--points", "4", "--curves",
                   "full_fixed_zeta(1e)", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "full_fixed_zeta(1e)" in capsys.readouterr().err

    def test_band_below_minimum_exits_2(self, tmp_path):
        rc = main(["budget", "--fmin", "0.01", "--out",
                   str(tmp_path / "x.csv")])
        assert rc == 2

    def test_fmax_beyond_finite_sideband_exits_2(self, capsys):
        # 2 pi 1e308 overflows: a config error, not a traceback from the
        # sideband check with exit 1
        rc = main(["budget", "--fmin", "5000", "--fmax", "1e308",
                   "--points", "2", "--curves", "sql"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "config error: fmax: must be in (5000, 2.86112e+307], "
            "got 1e+308\n")

    # Omega^2 overflows above about 1e150 Hz: the PSD check names the
    # frequency, an sql that underflows to 0 is valid, and numpy stays quiet
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("curve,code,err", [
        ("sql", 0, ""),
        ("loss_limit_a4", 3, "PSD value inf is not finite"),
        ("fdt_floor", 3, "PSD value nan is not finite"),
    ])
    def test_closed_forms_beyond_1e150_hz_exit_without_warning(
            self, capsys, curve, code, err):
        assert main(["budget", "--fmin", "5000", "--fmax", "1e160",
                     "--points", "2", "--curves", curve]) == code
        got = capsys.readouterr().err
        assert got == (f"numerical degeneracy: curve '{curve}' failed at "
                       f"1e+160 Hz: {err} and non-negative\n" if code else "")

    @pytest.mark.parametrize("where, reason", [
        ("missing/x.csv", "No such file or directory"),
        (".", "Is a directory")])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, where, reason):
        out = tmp_path / where
        rc = main(["budget", "--points", "4", "--curves", "sql",
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"config error: out: cannot write '{out}': {reason}\n")

    def test_degeneracy_exits_3_before_out_is_opened(self, tmp_path, capsys):
        # evaluation comes first: a degeneracy wins over an unwritable path,
        # and a writable one is left without a file
        argv = ["budget", "--points", "8", "--curves", "full_fixed_zeta(0.0)",
                "--out"]
        for out in (tmp_path / "missing" / "x.csv", tmp_path / "x.csv"):
            assert main(argv + [str(out)]) == 3
            assert "numerical degeneracy" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_degeneracy_exits_3(self, cfg, tmp_path, capsys):
        doc = config_to_dict(cfg)
        doc["internal_sqz"] = {"mode": "fixed",
                               "r": -0.5 * math.log(1 - cfg.T_src),
                               "theta": 0.0}
        path = write_config(tmp_path, doc)
        rc = main(["budget", "--config", path, "--points", "8",
                   "--curves", "full_optimal", "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "5" in err  # offending frequency is reported

    @pytest.mark.parametrize("verb", [["budget", "--points", "4"],
                                      ["validate"]])
    @pytest.mark.parametrize("r", [25.0, {"f_hz": [1.0, 1e4],
                                          "values": [0.1, -20.5]}])
    def test_internal_squeeze_beyond_guard_exits_2(self, cfg, tmp_path, capsys,
                                                   verb, r):
        doc = config_to_dict(cfg)
        doc["internal_sqz"] = {"mode": "fixed", "r": r, "theta": 0.0}
        path = write_config(tmp_path, doc)
        assert main(verb + ["--config", path]) == 2
        err = capsys.readouterr().err
        bad = r if isinstance(r, float) else r["values"][-1]
        assert f"config error: internal_sqz.r: must be in [-20, 20], got {bad!r}" in err

    @pytest.mark.filterwarnings("ignore::qnbudget.RegimeWarning")
    def test_ponderomotive_overflow_exits_3(self, cfg, tmp_path, capsys):
        # radiation pressure on a 1 microgram mirror squeezes beyond the
        # overflow guard at low frequency
        doc = config_to_dict(cfg)
        doc.update(M=1e-9, internal_sqz="ponderomotive")
        path = write_config(tmp_path, doc)
        rc = main(["budget", "--config", path, "--fmin", "1", "--fmax", "10",
                   "--points", "8", "--curves", "sql,full_optimal",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "curve 'full_optimal' failed at 1 Hz" in err
        assert "overflow guard" in err
        assert main(["validate", "--config", path]) == 3
        err = capsys.readouterr().err
        assert "overflow guard" in err and "rad/s" in err
        # the expansion curves do not build the loop matrix and still evaluate
        assert main(["budget", "--config", path, "--fmin", "1", "--fmax", "10",
                     "--points", "8", "--curves", "taylor_qcrb_internal",
                     "--out", str(tmp_path / "t.csv")]) == 0

    @pytest.mark.filterwarnings("ignore::qnbudget.RegimeWarning")
    def test_taylor_denominator_collapse_exits_3(self, cfg, tmp_path, capsys):
        # r = delta/2 with sin(theta + theta0) = -1 zeroes the denominator
        doc = config_to_dict(cfg)
        doc["internal_sqz"] = {"mode": "fixed", "r": 0.07,
                               "theta": math.pi / 2}
        path = write_config(tmp_path, doc)
        rc = main(["budget", "--config", path, "--points", "8", "--curves",
                   "taylor_qcrb_internal", "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "curve 'taylor_qcrb_internal' failed at 5 Hz" in err
        assert "validity" in err

    def test_band_too_narrow_for_points_exits_2(self, tmp_path, capsys):
        rc = main(["budget", "--fmin", "100", "--fmax", "100.0000000001",
                   "--points", "1000", "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error: points: 1000" in err
        assert "100.0..100.0000000001 Hz" in err

    # finite values of valid keys whose arithmetic leaves the double range
    @pytest.mark.filterwarnings("ignore")
    @pytest.mark.parametrize("change,curve,fragment", [
        ({"Theta": 1e30}, "taylor_qcrb_internal", "theta0 = 0 must lie in"),
        ({"Theta": 1.7e308}, "taylor_qcrb_no_internal", "delta = inf must be"),
        ({"L": 1e300}, "sql", "cfg.L**2"),
        ({"L": 1e300}, "full_optimal", "internal loss inf is not finite at"),
        ({"M": 5e-324, "internal_sqz": "ponderomotive"}, "full_optimal",
         "|r| = inf exceeds the overflow guard"),
        ({"lambda0": 1e-150}, "fdt_floor", "mode.omega_cav**2"),
        ({"L": 2.7e-269}, "loss_limit_a4", "L**2 underflows to 0"),
        ({"L": 2.7e-269}, "full_optimal", "L**2 underflows to 0"),
        ({"L": 2.7e-269}, "full_fixed_zeta(0.5)", "L**2 underflows to 0"),
        ({"T_itm": 1e-300}, "full_optimal", "internal loss inf is not finite at"),
        ({"L": 1e308}, "fdt_floor", "loss damping rate c * eps_arm / (4 L) is 0"),
    ])
    def test_finite_extreme_exits_3(self, tmp_path, capsys, change, curve,
                                    fragment):
        doc = {**config_template(), **change}
        path = write_config(tmp_path, doc)
        assert main(["budget", "--config", path, "--points", "8", "--curves",
                     curve, "--out", str(tmp_path / "x.csv")]) == 3
        err = capsys.readouterr().err
        assert f"curve '{curve}' failed at 5 Hz: " in err and fragment in err
        # validate's exact checks fail first on an arm too long to damp
        if (curve != "sql" and not curve.startswith("taylor")
                and "damping" not in fragment):
            assert main(["validate", "--config", path]) == 3
            assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize("change", [
        {"M": 5e-324, "internal_sqz": "ponderomotive"},
        {"L": 1e300},
        {"L": 2.7e-269},
        {"T_itm": 1e-300},
    ])
    def test_extreme_exit_3_prints_one_line(self, tmp_path, change):
        # no numpy RuntimeWarning reaches stderr ahead of the message
        path = write_config(tmp_path, {**config_template(), **change})
        src = os.path.dirname(os.path.dirname(qnbudget.__file__))
        done = subprocess.run(
            [sys.executable, "-m", "qnbudget", "budget", "--config", path,
             "--points", "4", "--curves", "full_optimal,qcrb"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 3
        assert done.stderr.startswith(
            "numerical degeneracy: curve 'full_optimal' failed at 5 Hz: ")
        assert done.stderr.count("\n") == 1

    # L^2 underflows to 0 in the scale of every spectrum; and an arm
    # bandwidth so narrow that (Omega / gamma)^2 overflows
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("change,message", [
        ({"L": 2.7e-269}, "arithmetic on the config's constants failed in "
         '`raise ZeroDivisionError("L**2 underflows to 0")` '
         "(ZeroDivisionError: L**2 underflows to 0)"),
        ({"T_itm": 1e-300},
         "internal loss inf is not finite at Omega = 31.4159 rad/s"),
    ])
    @pytest.mark.parametrize("curve", ["full_optimal", "full_fixed_zeta(0.5)"])
    def test_degeneracy_named_without_warning(self, tmp_path, capsys, change,
                                              message, curve):
        path = write_config(tmp_path, {**config_template(), **change})
        assert main(["budget", "--config", path, "--points", "4", "--curves",
                     curve, "--out", str(tmp_path / "x.csv")]) == 3
        assert capsys.readouterr().err == (
            f"numerical degeneracy: curve '{curve}' failed at 5 Hz: {message}\n")

    @pytest.mark.filterwarnings("error")
    def test_qcrb_names_the_internal_loss_of_the_solved_config(
            self, tmp_path, capsys):
        # the lossless bound reads the loop solved with the config's own
        # losses, so it fails where that loop's internal loss does, with
        # full_optimal's message and validate's
        path = write_config(tmp_path, {**config_template(), "T_itm": 1e-300})
        message = "internal loss inf is not finite at Omega ="
        for curve in ("qcrb", "full_optimal"):
            assert main(["budget", "--config", path, "--points", "4",
                         "--curves", curve,
                         "--out", str(tmp_path / "x.csv")]) == 3
            assert capsys.readouterr().err == (
                f"numerical degeneracy: curve '{curve}' failed at 5 Hz: "
                f"{message} 31.4159 rad/s\n")
        assert main(["validate", "--config", path]) == 3
        assert capsys.readouterr().err == (
            f"numerical degeneracy: {message} 75.3982 rad/s\n")

    def test_degeneracy_chains_original_error(self, cfg):
        with pytest.raises(BlindQuadratureError) as info:
            evaluate_curve("full_fixed_zeta(0.0)", cfg, np.array([100.0]))
        cause = info.value.__cause__
        assert isinstance(cause, BlindQuadratureError)
        assert str(info.value).endswith(str(cause))
        assert "at 100 Hz" in str(info.value)

    def test_budget_seed_flag_removed(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["budget", "--seed", "1", "--out", str(tmp_path / "x.csv")])
        assert info.value.code == 2

    def test_blind_quadrature_exits_3(self, tmp_path):
        rc = main(["budget", "--points", "8", "--curves",
                   "full_fixed_zeta(0.0)", "--out", str(tmp_path / "x.csv")])
        assert rc == 3

    def test_print_config_template(self, capsys, tmp_path):
        assert main(["print-config-template"]) == 0
        doc = json.loads(capsys.readouterr().out)
        from qnbudget import config_from_dict
        assert config_from_dict(doc) == default_config()

    def test_stdout_budget(self, capsys):
        rc = main(["budget", "--points", "4", "--curves", "sql"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("f_hz,sql")
        assert len(out.splitlines()) == 5

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_honours_format(self, capsys, tmp_path, fmt):
        argv = ["budget", "--points", "6", "--curves", "sql,loss_limit_a4",
                "--format", fmt]
        out = tmp_path / f"out.{fmt}"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(argv) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_python_dash_m_runs_cli(self, capsys):
        assert main(["budget", "--points", "4", "--curves", "sql"]) == 0
        src = os.path.dirname(os.path.dirname(qnbudget.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "qnbudget", "budget", "--points", "4",
             "--curves", "sql"], capture_output=True, text=True, env=env)
        assert done.returncode == 0
        assert done.stdout == capsys.readouterr().out
        bad = subprocess.run([sys.executable, "-m", "qnbudget", "budget",
                              "--fmin", "0.01"], capture_output=True,
                             text=True, env=env)
        assert bad.returncode == 2 and "config error" in bad.stderr

    @pytest.mark.parametrize("out", [[], ["--out", "/dev/stdout"]],
                             ids=["stdout", "out-dev-stdout"])
    def test_closed_stdout_ends_quietly(self, out):
        # a reader that closes its end after one line, as `| head -1` does:
        # the console script ends as cat does, exit 141 and an empty stderr;
        # through --out too, where the write's BrokenPipeError is not a
        # config error
        src = os.path.dirname(os.path.dirname(qnbudget.__file__))
        with subprocess.Popen(
                [sys.executable, "-m", "qnbudget", "budget", "--points",
                 "100000", "--curves", "sql", *out], stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": src}) as proc:
            assert proc.stdout.readline() == b"f_hz,sql\n"
            proc.stdout.close()
            assert proc.stderr.read() == b""
            assert proc.wait() == 141

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_underflowing_fdt_floor_is_positive_zero(self, tmp_path, capsys,
                                                     fmt):
        path = write_config(tmp_path, {**config_template(), "eps_arm": 5e-324})
        assert main(["budget", "--config", path, "--points", "4", "--curves",
                     "fdt_floor", "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert "-0." not in out
        values = ([float(line.split(",")[1]) for line in out.splitlines()[1:]]
                  if fmt == "csv" else json.loads(out)["columns"]["fdt_floor"])
        assert [math.copysign(1.0, x) for x in values] == [1.0] * 4
        assert values == [0.0] * 4

    @pytest.mark.filterwarnings("error")
    def test_underflowing_scale_reads_zero(self, tmp_path, capsys):
        # hbar c^2 / (4 L^2 omega0 P) lies below the least subnormal at
        # P = 1e300, for the exact curves as for the closed forms
        path = write_config(tmp_path, {**config_template(), "P": 1e300})
        curves = "full_optimal,qcrb,full_fixed_zeta(0.5),loss_limit_a4"
        assert main(["budget", "--config", path, "--points", "4", "--curves",
                     curves, "--format", "json"]) == 0
        columns = json.loads(capsys.readouterr().out)["columns"]
        assert all(columns[name] == [0.0] * 4 for name in curves.split(","))

    def test_subnormal_quadratic_form_keeps_its_digits(self, tmp_path,
                                                       capsys):
        # a detuned loop with T_src = 1e-318 makes v^dag Sigma^-1 v per unit
        # coupling subnormal, and its reciprocal overflows; the optimum and
        # the lossless bound read the digits they read when the signal
        # carried its coupling, 4.60073698095e+268 and 4.18248816450e+268,
        # and every spectrum of the same loop at T_src = 1e-310 stays as it
        # is, whose quadratic form is a normal double
        rows = {}
        for t_src in ("1e-318", "1e-310"):
            path = write_config(tmp_path, {**config_template(), "Theta": 0.01,
                                           "T_src": float(t_src)})
            assert main(["budget", "--config", path, "--points", "3",
                         "--curves", "full_optimal,qcrb"]) == 0
            rows[t_src] = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[1:] for row in rows["1e-318"]] == [
            ["4.60073698095e+268", "4.18248816450e+268"]] * 3
        assert [row.split(",")[1:] for row in rows["1e-310"]] == [
            ["4.60073122310e+260", "4.18248293009e+260"]] * 3

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_bytes_equal_out_bytes(self, tmp_path, capsys, fmt):
        # two full blocks and a tail, in both formats
        argv = ["budget", "--points", str(2 * CHUNK_POINTS + 5), "--curves",
                "sql,loss_limit_a4,fdt_floor", "--format", fmt]
        out = tmp_path / f"out.{fmt}"
        assert main(argv + ["--out", str(out)]) == 0
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()


class TestOutRewrite:
    """--out rewrites an existing file in place and cuts it to the new
    output's length, so a shorter run leaves none of a longer one's rows."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_short_over_long_equals_fresh_write(self, tmp_path, capsys, fmt):
        argv = ["budget", "--curves", "sql,qcrb", "--format", fmt]
        out, fresh = tmp_path / f"out.{fmt}", tmp_path / f"fresh.{fmt}"
        assert main(argv + ["--points", "2000", "--out", str(out)]) == 0
        long_size, inode = out.stat().st_size, out.stat().st_ino
        assert main(argv + ["--points", "50", "--out", str(out)]) == 0
        assert main(argv + ["--points", "50", "--out", str(fresh)]) == 0
        assert out.stat().st_size < long_size
        assert out.stat().st_ino == inode   # the same file, not a new one
        assert out.read_bytes() == fresh.read_bytes()
        assert main(argv + ["--points", "50"]) == 0
        assert capsys.readouterr().out.encode() == fresh.read_bytes()

    def test_new_file_mode_follows_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            assert main(["budget", "--points", "4", "--curves", "sql",
                         "--out", str(tmp_path / "x.csv")]) == 0
            with open(tmp_path / "ref.csv", "w"):
                pass
        finally:
            os.umask(old)
        modes = [(tmp_path / name).stat().st_mode & 0o777
                 for name in ("x.csv", "ref.csv")]
        assert modes == [0o666 & ~0o027] * 2

    def test_dev_null(self, capsys):
        assert main(["budget", "--points", "4", "--curves", "sql",
                     "--out", os.devnull]) == 0
        assert capsys.readouterr() == ("", "")

    def test_symlink_rewrites_target(self, tmp_path):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("x" * 100_000)
        link.symlink_to(target)
        assert main(["budget", "--points", "4", "--curves", "sql",
                     "--out", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_text().startswith("f_hz,sql\n")
        assert len(target.read_text().splitlines()) == 5

    def test_failed_write_leaves_file_empty(self, tmp_path, capsys,
                                            monkeypatch):
        from qnbudget import cli

        def fail_midway(write, req, f_hz, spectra):
            write(b"f_hz,sql\n1.00000000000e+00,")   # still buffered
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        out = tmp_path / "x.csv"
        out.write_text("an earlier, longer run\n" * 1000)
        monkeypatch.setattr(cli, "write_budget", fail_midway)
        assert main(["budget", "--points", "4", "--curves", "sql",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: out: cannot write '{out}': "
            "No space left on device\n")
        assert out.read_bytes() == b""


class TestValidation:
    def test_default_config_passes(self, cfg):
        report = run_validation(cfg, seed=42)
        assert report.passed
        names = [c.name for c in report.checks]
        for expected in ("symplectic", "decomposition_roundtrip",
                         "optimal_vs_grid", "loss_monotonicity",
                         "fdt_vs_loss_limit", "taylor_vs_exact",
                         "first_order_split"):
            assert expected in names

    def test_deterministic_for_fixed_seed(self, cfg):
        a = run_validation(cfg, seed=7)
        b = run_validation(cfg, seed=7)
        assert a == b

    def test_scaled_losses_report_larger_split_deviation(self, cfg):
        scaled = replace(cfg, eps_arm=4e-4, eps_src_channels=(4e-3,),
                         eps_ext=0.4)
        dev = {c.name: c.deviation for c in run_validation(cfg, 3).checks}
        dev4 = {c.name: c.deviation for c in run_validation(scaled, 3).checks}
        assert dev4["first_order_split"] > dev["first_order_split"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_lossless_taylor_check_compares_lossless_term(self, cfg):
        # without loss both loss terms are zero: only the lossless bound is
        # compared, so the check neither divides 0 by 0 nor fails
        lossless = replace(cfg, eps_arm=0.0, eps_src_channels=(0.0,),
                           eps_ext=0.0)
        checks = {c.name: c for c in run_validation(lossless, 3).checks}
        lossy = {c.name: c for c in run_validation(cfg, 3).checks}
        taylor = checks["taylor_vs_exact"]
        assert math.isfinite(taylor.deviation) and taylor.passed
        # the lossless term is computed on the same lossless configuration
        # either way, and on the default config it is the larger term
        assert taylor.deviation == lossy["taylor_vs_exact"].deviation

    def test_cli_validate_exit_codes(self, cfg, tmp_path, capsys):
        assert main(["validate", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7
        doc = config_to_dict(cfg)
        doc["eps_ext"] = 2.0
        path = write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fdt_check_compares_where_the_floor_is_positive(self, cfg,
                                                             tmp_path, capsys):
        # an arm-loss floor that is 0, or underflows to 0, compares nothing
        # and warns of no regime
        with warnings.catch_warnings():
            warnings.simplefilter("error", qnbudget.RegimeWarning)
            for eps_arm in (5e-324, 1e-310, 1e-300, 1e-280, 1e-278, 0.0):
                report = run_validation(replace(cfg, eps_arm=eps_arm))
                fdt_check = report.checks[4]
                assert fdt_check.name == "fdt_vs_loss_limit"
                assert fdt_check.deviation == 0.0 and report.passed
            path = write_config(tmp_path, {**config_to_dict(cfg),
                                           "eps_arm": 0.0})
            assert main(["validate", "--config", path]) == 0
        assert ("PASS  fdt_vs_loss_limit        max rel deviation 0.000e+00 "
                "(tolerance 1.0e-03)\n") in capsys.readouterr().out
        # a NaN deviation still fails: the mode leaves its regime and warns
        with pytest.warns(qnbudget.RegimeWarning, match="single-mode"):
            report = run_validation(replace(cfg, L=1e-150))
        assert math.isnan(report.checks[4].deviation)
        assert not report.checks[4].passed

    @staticmethod
    def losses(cfg):
        """The (eps_arm, eps_ext, summed eps_src) row of a resolved cfg."""
        return np.array([cfg.eps_arm, cfg.eps_ext, sum(cfg.eps_src_channels)])

    def spy_raised_rows(self, monkeypatch, failing=None, error=None):
        """Record each (solved config, stack of losses) a loop solve reads;
        a stack with a row that raises the loss in column failing raises
        error instead."""
        calls, optimal_with = [], ifo._Solve.optimal_with

        def spy(solve, losses):
            calls.append((solve.cfg, losses))
            if failing is not None and any(
                    losses[:, failing] > self.losses(solve.cfg)[failing]):
                raise error
            return optimal_with(solve, losses)

        monkeypatch.setattr(ifo._Solve, "optimal_with", spy)
        return calls

    def test_monotonicity_raises_each_loss_of_the_validated_config(
            self, cfg, monkeypatch):
        # the tabulated channel is resolved over the checks' band first
        cfg = replace(cfg, eps_src_channels=(
            1e-3, FreqTable((1.0, 1e4), (2e-4, 1e-3))))
        resolved = resolve_band(cfg, (12.0, 980.0))
        calls = self.spy_raised_rows(monkeypatch)
        assert run_validation(cfg, 4).passed
        stacks = [losses for solved, losses in calls if solved == resolved]
        # one stack, a row per raised loss
        assert len(stacks) == 1 and stacks[0].shape == (3, 3)
        base = self.losses(resolved)
        for k, row in enumerate(stacks[0]):
            kept = np.arange(3) != k
            assert np.array_equal(row[kept], base[kept])
            assert 0.0 < row[k] - base[k] < 0.1 * (1.0 - base[k])

    def test_stacked_readout_reads_as_the_solved_config(self, cfg):
        # an eps_ext whose coupling squares one ulp apart as Python's
        # x ** 2 and numpy's array x * x, which moves the spectrum
        cfg = replace(cfg, eps_ext=0.16213706896903546)
        solve = ifo._Solve(cfg, validation._CHECK_OMEGA)
        own = self.losses(cfg)[None]
        assert solve.optimal_with(own)[0].tobytes() == \
            solve.optimal().tobytes()
        # a failing row's index is into the flat stack; alone, the row
        # fails at its own index with the same message
        bad = own + [np.inf, 0.0, 0.0]
        with pytest.raises(DegeneracyError) as stacked:
            solve.optimal_with(np.concatenate([own, bad]))
        with pytest.raises(DegeneracyError) as alone:
            solve.optimal_with(bad)
        assert (stacked.value.index, alone.value.index) == (3, 0)
        assert str(stacked.value) == str(alone.value) == (
            "internal loss inf is not finite at Omega = 75.3982 rad/s")

    def test_failing_raised_copy_is_named(self, cfg, monkeypatch, capsys):
        # a planted failure of the stack with the raised recycling loss, at
        # point 1 of its row 2 in the flat index, named from that one read
        n = validation._CHECK_OMEGA.size
        planted = LasingThresholdError("planted at 75.3982 rad/s",
                                       index=2 * n + 1)
        calls = self.spy_raised_rows(monkeypatch, 2, planted)
        with pytest.raises(LasingThresholdError) as info:
            run_validation(cfg, 4)
        stacks = [losses for _, losses in calls]
        assert [len(s) for s in stacks] == [3]
        base = self.losses(cfg)
        added = (stacks[0][2, 2] - base[2]) / (1.0 - base[2])
        assert str(info.value) == (
            f"loss_monotonicity: with eps_src raised by {added:.3g} of its "
            "headroom: planted at 75.3982 rad/s")
        assert info.value.index == 1 and info.value.__cause__ is planted
        assert main(["validate", "--seed", "4"]) == 3
        assert capsys.readouterr().err == f"numerical degeneracy: {info.value}\n"

    def test_failing_middle_row_alone_is_named(self, cfg, monkeypatch):
        # the eps_ext row fails at its point 2, and the stack is read once
        n = validation._CHECK_OMEGA.size
        planted = DegeneracyError("planted", index=n + 2)
        calls = self.spy_raised_rows(monkeypatch, 1, planted)
        with pytest.raises(DegeneracyError) as info:
            run_validation(cfg, 4)
        assert [len(losses) for _, losses in calls] == [3]
        assert type(info.value) is DegeneracyError
        assert str(info.value).startswith(
            "loss_monotonicity: with eps_ext raised by ")
        assert str(info.value).endswith(" of its headroom: planted")
        assert info.value.index == 2 and info.value.__cause__ is planted

    def test_failing_base_optimal_wins_over_failing_row(self, cfg,
                                                        monkeypatch, capsys):
        # every row fails too, but the base spectrum is read first
        base = LasingThresholdError("planted at 75.3982 rad/s", index=0)
        calls = self.spy_raised_rows(
            monkeypatch, 0, DegeneracyError("planted row", index=0))

        def optimal(solve):
            raise base

        monkeypatch.setattr(ifo._Solve, "optimal", optimal)
        with pytest.raises(LasingThresholdError) as info:
            run_validation(cfg, 4)
        assert info.value is base and not calls
        assert main(["validate", "--seed", "4"]) == 3
        assert capsys.readouterr().err == (
            "numerical degeneracy: planted at 75.3982 rad/s\n")

    def test_losses_near_one_stay_valid_when_raised(self, tmp_path, capsys):
        path = write_config(tmp_path, {
            **config_template(), "eps_arm": 0.999,
            "eps_src_channels": [0.5, 0.499], "eps_ext": 0.999})
        for seed in range(5):
            assert main(["validate", "--config", path,
                         "--seed", str(seed)]) != 2
            assert "config error" not in capsys.readouterr().err

    # strong signal couplings, whose scale hbar c^2 / (4 L^2 omega0 P) is
    # far below 1; the tiny wavelength also overflows the fdt oracle's
    # resonance squared
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("change,code,err", [
        ({"L": 1e57}, 0, ""),
        ({"lambda0": 9.57e-195}, 3,
         "numerical degeneracy: arithmetic on the config's constants failed "
         "in `return mode.omega_cav**2 + (mode.gamma_eps - 1j * omega) ** 2` "
         "(OverflowError: "),
        # the arm-loss floor underflows to 0 and fdt_vs_loss_limit compares
        # nothing, as for eps_arm 0
        ({"eps_arm": 5e-324}, 0, ""),
    ])
    def test_strong_signal_validates_without_warning(self, tmp_path, capsys,
                                                     change, code, err):
        path = write_config(tmp_path, {**config_template(), **change})
        assert main(["validate", "--config", path]) == code
        got = capsys.readouterr().err
        assert got.startswith(err) and got.count("\n") == bool(err)

    def test_negative_seed_is_config_error(self, capsys):
        # exit 1 means a failed check; a seed numpy rejects is a bad input
        assert main(["validate", "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="seed"):
            run_validation(default_config(), seed=-3)
        with pytest.raises(ConfigError, match="^seed: .*, got True$"):
            run_validation(default_config(), seed=True)

    def test_nan_monotonicity_deviation_fails(self, cfg, monkeypatch,
                                              capsys):
        # max(0.0, nan) is 0.0: a NaN deviation once read as a PASS; one
        # NaN row of the stack fails the check
        optimal_with = ifo._Solve.optimal_with

        def spy(solve, losses):
            spectra = optimal_with(solve, losses)
            spectra[1] = np.nan
            return spectra

        monkeypatch.setattr(ifo._Solve, "optimal_with", spy)
        assert main(["validate", "--seed", "7"]) == 1
        assert ("FAIL  loss_monotonicity        max rel deviation nan "
                "(tolerance 1.0e-12)") in capsys.readouterr().out.splitlines()

    def test_nan_symplectic_deviation_fails(self, monkeypatch):
        # one NaN matrix among the three, not the last: max(worst, nan)
        # once kept the worst before it
        monkeypatch.setattr(validation, "squeeze_matrix",
                            lambda r, theta: np.full((r.size, 2, 2), np.nan))
        check = validation._check_symplectic(np.random.default_rng(7))
        assert math.isnan(check.deviation) and not check.passed

    @staticmethod
    def three_chains(rng):
        """symplectic's deviation as m @ J @ m^T on each stack in turn."""
        j = quadrature.SYMPLECTIC_FORM
        angle, r, theta, log_gain = rng.uniform(
            validation._SYMPLECTIC_LOW, validation._SYMPLECTIC_HIGH,
            size=(200, 4)).T
        return float(np.max([np.abs(m @ j @ m.swapaxes(1, 2) - j).max()
                             for m in (quadrature.rotation_matrix(angle),
                                       quadrature.squeeze_matrix(r, theta),
                                       quadrature.ponderomotive_matrix(
                                           10.0 ** log_gain))], initial=0.0))

    def test_symplectic_deviation_is_the_three_chains(self):
        # one @ over the joined stack, with M J taken as a column swap and
        # a contiguous M^T, gives each seed's deviation bit for bit
        for seed in range(500):
            got = validation._check_symplectic(np.random.default_rng(seed))
            want = self.three_chains(np.random.default_rng(seed))
            assert got.deviation.hex() == want.hex(), seed

    def test_perturbed_squeeze_fails_symplectic(self, monkeypatch):
        # a squeeze whose (1, 1) entry is off by 1e-9 of itself is no longer
        # symplectic, and the joined stack reports it
        squeeze = validation.squeeze_matrix

        def perturbed(r, theta):
            m = squeeze(r, theta)
            m[:, 1, 1] *= 1.0 + 1e-9
            return m

        monkeypatch.setattr(validation, "squeeze_matrix", perturbed)
        check = validation._check_symplectic(np.random.default_rng(7))
        assert check.deviation > 1e-10 and not check.passed


def scan_by_frequency(cfg, omega, zetas):
    """homodyne_spectrum over zetas at each frequency in turn, as (N, M)
    rows, or the BlindQuadratureError of the first frequency that fails."""
    rows = []
    for k, w in enumerate(omega):
        try:
            rows.append(homodyne_spectrum(cfg, w, zetas))
        except BlindQuadratureError as exc:
            return k, exc
    return np.array(rows)


class TestGridScan:
    """optimal_vs_grid scans its angles with one row per frequency; each row
    is that frequency's angle scan."""

    OMEGA = TWO_PI * validation._CHECK_HZ

    def test_rows_equal_per_frequency_scans(self):
        rng = np.random.default_rng(15)
        zetas = validation._GRID_ZETAS
        for i in range(200):
            cfg = validation.random_config(rng)
            got = ifo._Solve(cfg, self.OMEGA).homodyne(zetas)
            want = scan_by_frequency(cfg, self.OMEGA, zetas)
            assert got.shape == (3, zetas.size), i
            assert got.tobytes() == want.tobytes(), i

    @staticmethod
    def blind_angle(cfg, omega):
        v1, v2 = io_relation(cfg, omega).v
        return math.atan2(-v1, v2) % math.pi

    @pytest.mark.parametrize("plant", [
        pytest.param({1: [2100]}, id="one"),
        # frequency 1 before 2, though 2's blind angle comes first in the row
        pytest.param({2: [700], 1: [2100]}, id="first-frequency"),
        # the same direction twice at frequency 1: the first in the row
        pytest.param({1: [3000, 900]}, id="first-angle"),
    ])
    def test_blind_angle_is_the_one_a_loop_meets(self, plant):
        # radiation pressure turns the signal direction with frequency, so
        # each frequency has its own blind angle
        cfg = replace(validation.random_config(np.random.default_rng(3)),
                      internal_sqz=InternalSqueeze("ponderomotive"))
        zetas = validation._GRID_ZETAS.copy()
        for k, columns in plant.items():
            zeta = self.blind_angle(cfg, self.OMEGA[k])
            for turns, j in enumerate(columns):
                zetas[j] = zeta + turns * math.pi
        k, want = scan_by_frequency(cfg, self.OMEGA, zetas)
        assert k == min(plant)
        assert str(want).startswith(
            f"readout angle {zetas[min(plant[k])]:.6g} rad ")
        with pytest.raises(BlindQuadratureError) as info:
            ifo._Solve(cfg, self.OMEGA).homodyne(zetas)
        assert (str(info.value), info.value.index) == (str(want), k)

    def test_blind_row_two_as_validate_scans_it(self):
        # the first blind angle of a (3, M) scan in the second frequency's
        # row, read as optimal_vs_grid reads it (hoisted cos and sin, one
        # read of the solve): that row's index and that angle's message
        cfg = replace(validation.random_config(np.random.default_rng(3)),
                      internal_sqz=InternalSqueeze("ponderomotive"))
        zetas = validation._GRID_ZETAS.copy()
        zetas[1500] = self.blind_angle(cfg, self.OMEGA[1])
        zetas[3900] = self.blind_angle(cfg, self.OMEGA[2])
        trig = (np.cos(zetas), np.sin(zetas))
        with pytest.raises(BlindQuadratureError) as info:
            ifo._Solve(cfg, self.OMEGA).read(
                lambda o: o.homodyne(zetas, trig))
        assert info.value.index == 1
        assert str(info.value) == (f"readout angle {zetas[1500]:.6g} rad is "
                                   "orthogonal to the signal response")
        assert homodyne_spectrum(cfg, self.OMEGA[0], zetas).shape == (4000,)


class TestSharedValidationWork:
    """validate computes what depends on neither config nor seed once per
    process, and shares it read-only: no request changes a later one."""

    OMEGA = TestGridScan.OMEGA

    def test_rows_with_hoisted_trig_equal_the_scan(self):
        rng = np.random.default_rng(25)
        zetas, trig = validation._GRID_ZETAS, validation._GRID_TRIG
        for i in range(200):
            solve = ifo._Solve(validation.random_config(rng), self.OMEGA)
            got = solve.homodyne(zetas, trig)
            assert got.tobytes() == solve.homodyne(zetas).tobytes(), i

    def test_shared_arrays_are_read_only(self):
        shared = [*validation._GRID_TRIG, *(
            v for v in vars(validation).values() if isinstance(v, np.ndarray))]
        assert len(shared) >= 11
        assert any(a is qnbudget.SYMPLECTIC_FORM for a in shared)
        for a in shared:
            assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            validation._GRID_TRIG[0][0] = 0.0

    def test_in_process_requests_equal_a_fresh_process(self, tmp_path,
                                                        capsys):
        doc = config_to_dict(validation.random_config(
            np.random.default_rng([25, 1])))
        path = write_config(tmp_path, doc)
        cfg = load_config(path)
        src = os.path.dirname(os.path.dirname(qnbudget.__file__))
        for seed in (1, 2, 1):
            assert run_validation(cfg, seed) == run_validation(cfg, seed)
            main(["validate", "--config", path, "--seed", str(seed)])
            done = subprocess.run(
                [sys.executable, "-m", "qnbudget", "validate", "--config",
                 path, "--seed", str(seed)], capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": src})
            assert capsys.readouterr().out == done.stdout, seed

    def test_each_request_prints_its_regime_warnings(self, cfg):
        # as a fresh process does: fdt's single-mode warning, each time
        printed = []
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("default")
            for _ in range(3):
                run_validation(replace(cfg, L=1e-150), 1)
                printed.append(len(seen))
                seen.clear()
        assert printed == [1, 1, 1]

    def test_decomposition_is_checked_once(self, cfg, monkeypatch):
        first = run_validation(cfg, 3)
        calls, decompose = [], quadrature.ponderomotive_decompose

        def counted(gain):
            calls.append(gain)
            return decompose(gain)
        for module in (validation, ifo, quadrature):
            monkeypatch.setattr(module, "ponderomotive_decompose", counted)
        assert cfg.internal_sqz.mode != "ponderomotive"
        assert run_validation(cfg, 3) == first
        assert calls == []

    def test_budget_never_checks_the_decomposition(self):
        src = os.path.dirname(os.path.dirname(qnbudget.__file__))
        done = subprocess.run([sys.executable, "-c", (
            "from qnbudget import validation; "
            "from qnbudget.cli import main; "
            "assert main(['budget', '--points', '4', '--out', '/dev/null']) == 0; "
            "assert validation._check_decomposition.cache_info().misses == 0")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr


def draw_stream_digest(draws):
    return hashlib.sha256(json.dumps(draws, separators=(",", ":"))
                          .encode()).hexdigest()


class TestDrawStream:
    """random_config takes the generator calls it always took: the
    benchmark's config pool replays them.  The digest covers the drawn
    configs and the generator's next uniform draw after them."""

    def test_random_config(self):
        draws = []
        for i in range(500):
            rng = np.random.default_rng([18071173, i])
            draws.append([config_to_dict(validation.random_config(rng)),
                          rng.uniform()])
        assert draw_stream_digest(draws) == (
            "6b408da01f8c7bf5444cce1054d87102376d6717d9bec9c8d767a248cfd60859")
