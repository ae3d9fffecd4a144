import json
import math
from dataclasses import fields, replace

import pytest

from qnbudget import (ConfigError, FreqTable, IfoConfig, InternalSqueeze,
                      config_from_dict, config_hash, config_template,
                      config_to_dict, default_config, load_config,
                      resolve_band, value_at)


class TestFreqTable:
    def test_interpolates_in_log_frequency(self):
        t = FreqTable(f_hz=(10.0, 1000.0), values=(0.0, 2.0))
        assert t.at(10.0) == pytest.approx(0.0, abs=1e-15)
        assert t.at(1000.0) == pytest.approx(2.0, rel=1e-12)
        assert t.at(100.0) == pytest.approx(1.0, rel=1e-12)  # log midpoint

    def test_extrapolation_forbidden(self):
        t = FreqTable(f_hz=(10.0, 1000.0), values=(1.0, 2.0))
        with pytest.raises(ConfigError):
            t.at(5.0)
        with pytest.raises(ConfigError):
            t.at(2000.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            FreqTable(f_hz=(10.0,), values=(1.0,))
        with pytest.raises(ConfigError):
            FreqTable(f_hz=(10.0, 5.0), values=(1.0, 2.0))
        with pytest.raises(ConfigError):
            FreqTable(f_hz=(-1.0, 5.0), values=(1.0, 2.0))
        with pytest.raises(ConfigError):
            FreqTable(f_hz=(1.0, 5.0), values=(1.0, math.inf))

    def test_value_at_passthrough(self):
        assert value_at(0.25, 123.0) == 0.25


class TestIfoConfigValidation:
    def test_default_is_valid(self):
        cfg = default_config()
        assert cfg.T_itm == 0.014 and cfg.T_src == 0.14
        assert cfg.omega0 == pytest.approx(1.7703492173955385e15, rel=1e-12)

    @pytest.mark.parametrize("field,value,fragment", [
        ("T_src", 1.5, "T_src"),
        ("T_src", 0.0, "T_src"),
        ("T_itm", 1.0, "T_itm"),
        ("eps_arm", 1.0, "eps_arm"),
        ("eps_ext", -0.1, "eps_ext"),
        ("L", -4000.0, "L"),
        ("M", -1.0, "M"),
        ("r_input", 25.0, "r_input"),
    ])
    def test_rejects_out_of_range(self, field, value, fragment):
        doc = config_to_dict(default_config())
        doc[field] = value
        with pytest.raises(ConfigError, match=fragment):
            config_from_dict(doc)

    def test_empty_channel_list_rejected(self):
        doc = config_to_dict(default_config())
        doc["eps_src_channels"] = []
        with pytest.raises(ConfigError, match="eps_src_channels"):
            config_from_dict(doc)

    @pytest.mark.parametrize("field,value", [
        ("L", "abc"), ("r_input", "q"), ("T_itm", None), ("eps_arm", [1e-4]),
    ])
    def test_non_numeric_value_names_key(self, field, value):
        doc = config_to_dict(default_config())
        doc[field] = value
        with pytest.raises(ConfigError, match=f"{field}: expected a number"):
            config_from_dict(doc)

    @pytest.mark.parametrize("key", ["Theta", "residual_phase"])
    def test_string_for_table_key_names_key(self, key):
        doc = config_to_dict(default_config())
        doc[key] = "abc"
        with pytest.raises(ConfigError,
                           match=f"^{key}: expected a number, got 'abc'$"):
            config_from_dict(doc)

    def test_omega0_and_lambda0_together_rejected(self):
        doc = config_to_dict(default_config())
        doc["lambda0"] = 1.064e-6
        with pytest.raises(ConfigError, match="'omega0' and 'lambda0'"):
            config_from_dict(doc)

    # 1e-310 is positive and finite, but 2*pi*c/lambda0 overflows
    @pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0, -1e-6, 1e-310])
    def test_bad_wavelength_names_lambda0(self, lam):
        doc = config_template()
        doc["lambda0"] = lam
        bound = (r"2\*pi\*c/lambda0 must be finite" if lam == 1e-310
                 else r"must be in \(0, inf\)")
        with pytest.raises(ConfigError, match=rf"^lambda0: {bound}, got {lam!r}$"):
            config_from_dict(doc)

    def test_missing_keys_named(self):
        doc = config_to_dict(default_config())
        del doc["omega0"]
        with pytest.raises(ConfigError, match="'omega0' .* or 'lambda0'"):
            config_from_dict(doc)
        doc = config_to_dict(default_config())
        del doc["eps_ext"]
        with pytest.raises(ConfigError, match="missing required key 'eps_ext'"):
            config_from_dict(doc)
        del doc["r_input"], doc["internal_sqz"], doc["Theta"]
        doc["eps_ext"] = 0.1
        assert config_from_dict(doc) == default_config()

    def test_non_numeric_wavelength_names_key(self):
        doc = config_template()
        doc["lambda0"] = "x"
        with pytest.raises(ConfigError, match="lambda0: expected a number"):
            config_from_dict(doc)

    @pytest.mark.parametrize("field", [
        "L", "M", "P", "omega0", "lambda0", "T_itm", "T_src", "eps_arm",
        "eps_src_channels", "eps_ext", "r_input", "theta_input", "Theta",
        "residual_phase",
    ])
    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_rejected(self, field, flag):
        doc = config_template() if field == "lambda0" \
            else config_to_dict(default_config())
        doc[field] = flag
        with pytest.raises(ConfigError, match=field):
            config_from_dict(doc)

    def test_boolean_squeeze_and_table_entries_rejected(self):
        doc = config_to_dict(default_config())
        doc["internal_sqz"] = {"mode": "fixed", "r": True, "theta": 0.0}
        with pytest.raises(ConfigError, match="internal_sqz.r"):
            config_from_dict(doc)
        doc = config_to_dict(default_config())
        doc["Theta"] = {"f_hz": [1.0, 1e4], "values": [0.0, True]}
        with pytest.raises(ConfigError, match="Theta: table values"):
            config_from_dict(doc)
        doc["Theta"] = {"f_hz": [1.0, 1e4], "values": 0.0}
        with pytest.raises(ConfigError, match="Theta: table"):
            config_from_dict(doc)

    def test_unknown_key_rejected(self):
        doc = config_to_dict(default_config())
        doc["chirp_mass"] = 30.0
        with pytest.raises(ConfigError, match="chirp_mass"):
            config_from_dict(doc)
        doc = config_to_dict(default_config())
        doc["internal_sqz"]["phase"] = 0.0
        with pytest.raises(ConfigError,
                           match=r"internal_sqz: unknown keys \['phase'\]"):
            config_from_dict(doc)
        doc["internal_sqz"] = 1.0
        with pytest.raises(ConfigError, match="internal_sqz: expected"):
            config_from_dict(doc)
        with pytest.raises(ConfigError, match="expected a JSON object"):
            config_from_dict([doc])

    def test_docstrings_state_the_field_intervals(self):
        for cls in (IfoConfig, InternalSqueeze):
            for f in fields(cls):
                lo, hi, ends = f.metadata.get("interval", (-math.inf, math.inf, "()"))
                if (lo, hi) != (-math.inf, math.inf):
                    assert f"{ends[0]}{lo:g}, {hi:g}{ends[1]}" in cls.__doc__

    def test_internal_sqz_modes(self):
        with pytest.raises(ConfigError, match="mode"):
            InternalSqueeze(mode="extreme")
        with pytest.raises(ConfigError):
            InternalSqueeze(mode="none", r=0.5)
        sqz = InternalSqueeze(mode="fixed", r=0.5, theta=0.1)
        assert sqz.r == 0.5


class TestSerialization:
    def test_round_trip(self):
        cfg = default_config()
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_lambda0_alternative(self):
        doc = config_to_dict(default_config())
        del doc["omega0"]
        doc["lambda0"] = 1.064e-6
        cfg = config_from_dict(doc)
        assert cfg.omega0 == pytest.approx(default_config().omega0, rel=1e-15)

    def test_template_is_loadable(self):
        cfg = config_from_dict(config_template())
        assert cfg == default_config()

    def test_single_channel_without_list(self):
        table = {"f_hz": [1.0, 10000.0], "values": [1e-4, 1e-3]}
        for channel in (1e-3, table):
            doc = config_to_dict(default_config())
            doc["eps_src_channels"] = channel
            cfg = config_from_dict(doc)
            assert config_to_dict(cfg)["eps_src_channels"] == [channel]

    def test_single_channel_in_constructor(self):
        table = FreqTable(f_hz=(1.0, 10000.0), values=(1e-4, 1e-3))
        for channel in (1e-3, table):
            cfg = replace(default_config(), eps_src_channels=channel)
            assert cfg.eps_src_channels == (channel,)
        for bad in ("abc", None):
            with pytest.raises(ConfigError, match=r"^eps_src_channels\[0\]: "
                                                  "expected a number, got"):
                replace(default_config(), eps_src_channels=bad)

    def test_tables_round_trip(self):
        doc = config_to_dict(default_config())
        doc["Theta"] = {"f_hz": [1.0, 10000.0], "values": [0.0, 0.02]}
        doc["eps_src_channels"] = [1e-4, {"f_hz": [1.0, 10000.0],
                                          "values": [1e-4, 1e-3]}]
        cfg = config_from_dict(doc)
        assert isinstance(cfg.Theta, FreqTable)
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_load_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(default_config())))
        assert load_config(path) == default_config()
        bad = tmp_path / "bad.json"
        bad.write_text("{not valid json")
        with pytest.raises(ConfigError):
            load_config(bad)
        # not UTF-8, and nested beyond the parser's recursion limit
        for name, content in (("latin.json", b"\xff\xfe{"),
                              ("nested.json", b"[" * 100000)):
            (tmp_path / name).write_bytes(content)
            with pytest.raises(ConfigError, match="^config file is not "
                               "valid JSON: "):
                load_config(tmp_path / name)
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")


class TestCoverage:
    def test_coverage_check(self):
        """resolve_band refuses a table short of the band, naming its key."""
        doc = config_to_dict(default_config())
        doc["Theta"] = {"f_hz": [10.0, 100.0], "values": [0.0, 0.0]}
        cfg = config_from_dict(doc)
        assert resolve_band(cfg, (10.0, 100.0)) is cfg
        with pytest.raises(ConfigError, match="^Theta: table covers 10..100 Hz "
                           "but the requested band is 5..5000 Hz$"):
            resolve_band(cfg, (5.0, 5000.0))
        doc = config_to_dict(default_config())
        doc["eps_src_channels"] = [1e-4, {"f_hz": [20.0, 800.0],
                                          "values": [1e-4, 1e-3]}]
        cfg = config_from_dict(doc)
        with pytest.raises(ConfigError, match=r"^eps_src_channels\[1\]: table "
                           "covers 20..800 Hz but the requested band is "
                           "12..980 Hz$"):
            resolve_band(cfg, (12.0, 980.0))
