import json
import math
from dataclasses import replace

import numpy as np
import pytest

from qnbudget import (ALPHA_NO_INTERNAL, DEFAULT_BAND_HZ,
                      BlindQuadratureError, BudgetRequest, ConfigError,
                      config_hash, config_to_dict, default_config,
                      evaluate_curve, frequency_grid, load_config, loss_limit,
                      resolve_band, run_budget, run_validation)
from qnbudget.cli import main
from qnbudget.curves import parse_curve_name


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
        {"curves": ()},
        {"curves": ("not_a_curve",)},
        {"fmt": "yaml"},
    ])
    def test_invalid_requests(self, cfg, kw):
        with pytest.raises(ConfigError):
            BudgetRequest(config=cfg, **kw)

    def test_curve_name_parsing(self):
        assert parse_curve_name("sql") == ("sql", None)
        kind, zeta = parse_curve_name("full_fixed_zeta(1.5708)")
        assert kind == "full_fixed_zeta"
        assert zeta == pytest.approx(math.pi / 2, rel=1e-4)
        with pytest.raises(ConfigError):
            parse_curve_name("full_fixed_zeta(nan)")


class TestRunBudget:
    def test_returns_spectra_in_request_order(self, cfg, tmp_path):
        req = BudgetRequest(config=cfg, points=16,
                            curves=("loss_limit_a4", "sql"))
        spectra = run_budget(req)
        assert list(spectra) == ["loss_limit_a4", "sql"]
        assert len(spectra["sql"].frequencies) == 16
        assert spectra["sql"].label == "sql"

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
        spectra = run_budget(req)
        assert np.all(spectra["full_fixed_zeta(1.5707963)"].values > 0)

    def test_squeezed_input_sits_above_loss_limit(self, cfg):
        from qnbudget import r_from_db
        req = BudgetRequest(config=replace(cfg, r_input=r_from_db(30.0)),
                            points=100, curves=("full_optimal", "loss_limit_a4"))
        spectra = run_budget(req)
        assert np.all(spectra["full_optimal"].values
                      > spectra["loss_limit_a4"].values)


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
        f_hz = frequency_grid(300.0, 1000.0, 16)

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

    def test_corrupt_config_exits_2(self, cfg, tmp_path, capsys):
        doc = config_to_dict(cfg)
        doc["T_src"] = 1.5
        path = write_config(tmp_path, doc)
        rc = main(["budget", "--config", path, "--out",
                   str(tmp_path / "x.csv")])
        assert rc == 2
        assert "T_src" in capsys.readouterr().err

    def test_band_below_minimum_exits_2(self, tmp_path):
        rc = main(["budget", "--fmin", "0.01", "--out",
                   str(tmp_path / "x.csv")])
        assert rc == 2

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

    def test_cli_validate_exit_codes(self, cfg, tmp_path, capsys):
        assert main(["validate", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7
        doc = config_to_dict(cfg)
        doc["eps_ext"] = 2.0
        path = write_config(tmp_path, doc)
        assert main(["validate", "--config", path]) == 2
