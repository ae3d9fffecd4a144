"""Interferometer configuration: schema, validation, JSON ingestion.

The configuration document is a flat JSON object.  Scalar entries are plain
numbers; frequency-dependent entries are tables {"f_hz": [...], "values":
[...]} interpolated linearly in log-frequency, with extrapolation forbidden.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import C_LIGHT, TWO_PI
from .errors import ConfigError

DEFAULT_BAND_HZ = (5.0, 5000.0)
MIN_FREQUENCY_HZ = 0.1
TWO_PI_C = TWO_PI * C_LIGHT

INTERNAL_SQZ_MODES = ("none", "fixed", "ponderomotive")


@dataclass(frozen=True)
class FreqTable:
    """Real quantity tabulated against frequency [Hz].

    Lookups interpolate linearly in log10(f); requests outside the tabulated
    range raise instead of extrapolating.
    """

    f_hz: tuple
    values: tuple

    def __post_init__(self):
        f = tuple(float(x) for x in self.f_hz)
        v = tuple(float(x) for x in self.values)
        if len(f) != len(v):
            raise ConfigError("table: f_hz and values must have equal length")
        if len(f) < 2:
            raise ConfigError("table: need at least two points")
        if any(not math.isfinite(x) or x <= 0.0 for x in f):
            raise ConfigError("table: frequencies must be positive and finite")
        if any(f[i] >= f[i + 1] for i in range(len(f) - 1)):
            raise ConfigError("table: frequencies must be strictly increasing")
        if any(not math.isfinite(x) for x in v):
            raise ConfigError("table: values must be finite")
        object.__setattr__(self, "f_hz", f)
        object.__setattr__(self, "values", v)

    def covers(self, f_lo_hz: float, f_hi_hz: float | None = None) -> bool:
        hi = f_lo_hz if f_hi_hz is None else f_hi_hz
        return self.f_hz[0] <= f_lo_hz and hi <= self.f_hz[-1]

    def at(self, f_hz: float) -> float:
        if not self.covers(f_hz):
            raise ConfigError(
                f"table does not cover {f_hz:g} Hz (tabulated "
                f"{self.f_hz[0]:g}..{self.f_hz[-1]:g} Hz); extrapolation is forbidden")
        return float(np.interp(math.log10(f_hz),
                               np.log10(np.asarray(self.f_hz)),
                               np.asarray(self.values)))


def value_at(quantity, f_hz: float) -> float:
    """Evaluate a constant-or-tabulated quantity at a frequency [Hz]."""
    if isinstance(quantity, FreqTable):
        return quantity.at(f_hz)
    return float(quantity)


def _check_loss(name: str, x) -> float:
    x = float(x)
    if not math.isfinite(x) or not 0.0 <= x < 1.0:
        raise ConfigError(f"{name}: loss must be in [0, 1), got {x!r}")
    return x


@dataclass(frozen=True)
class InternalSqueeze:
    """Squeezing generated inside the recycling cavity.

    mode "none" disables it, "fixed" uses the given squeeze factor and angle
    (constants or tables), "ponderomotive" derives them from the
    radiation-pressure gain at each frequency.
    """

    mode: str = "none"
    r: object = 0.0       # float or FreqTable
    theta: object = 0.0   # float or FreqTable

    def __post_init__(self):
        if self.mode not in INTERNAL_SQZ_MODES:
            raise ConfigError(
                f"internal_sqz.mode: must be one of {INTERNAL_SQZ_MODES}, got {self.mode!r}")
        for name in ("r", "theta"):
            q = getattr(self, name)
            if isinstance(q, FreqTable):
                continue
            q = float(q)
            if not math.isfinite(q):
                raise ConfigError(f"internal_sqz.{name}: must be finite")
            object.__setattr__(self, name, q)
        if self.mode != "fixed" and (self.r != 0.0 or self.theta != 0.0):
            raise ConfigError(
                "internal_sqz: r and theta are only meaningful in 'fixed' mode")


@dataclass(frozen=True)
class IfoConfig:
    """Full parameter set of the simplified interferometer.

    Fields (SI units, angles in rad):
      L        arm length [m]
      M        mirror mass [kg]
      P        optical power per arm [W]
      omega0   carrier angular frequency [rad/s]
      T_itm    input test mass power transmissivity, (0, 1)
      T_src    effective recycling-cavity transmissivity, (0, 1]
      eps_arm  arm round-trip loss, [0, 1)
      eps_src_channels  recycling-cavity loss channels, each a constant or a
                        frequency table; the effective loss is the minimum
                        over the analysis band of their sum
      eps_ext  external/readout loss, [0, 1)
      r_input, theta_input  input squeezing factor and angle
      internal_sqz          InternalSqueeze settings
      Theta    intra-cavity quadrature rotation, constant or table
      residual_phase        uncancelled round-trip phase, constant or table
                            (zero means perfect dispersion compensation)
    """

    L: float
    M: float
    P: float
    omega0: float
    T_itm: float
    T_src: float
    eps_arm: float
    eps_src_channels: tuple
    eps_ext: float
    r_input: float = 0.0
    theta_input: float = 0.0
    internal_sqz: InternalSqueeze = field(default_factory=InternalSqueeze)
    Theta: object = 0.0            # float or FreqTable
    residual_phase: object = 0.0   # float or FreqTable

    def __post_init__(self):
        for name in ("L", "M", "P", "omega0"):
            x = float(getattr(self, name))
            if not math.isfinite(x) or x <= 0.0:
                raise ConfigError(f"{name}: must be positive and finite, got {x!r}")
            object.__setattr__(self, name, x)
        t_itm = float(self.T_itm)
        if not 0.0 < t_itm < 1.0:
            raise ConfigError(f"T_itm: must be in (0, 1), got {t_itm!r}")
        object.__setattr__(self, "T_itm", t_itm)
        t_src = float(self.T_src)
        if not 0.0 < t_src <= 1.0:
            raise ConfigError(f"T_src: must be in (0, 1], got {t_src!r}")
        object.__setattr__(self, "T_src", t_src)
        object.__setattr__(self, "eps_arm", _check_loss("eps_arm", self.eps_arm))
        object.__setattr__(self, "eps_ext", _check_loss("eps_ext", self.eps_ext))

        channels = tuple(self.eps_src_channels)
        if not channels:
            raise ConfigError("eps_src_channels: must not be empty")
        checked = []
        for i, ch in enumerate(channels):
            if isinstance(ch, FreqTable):
                for x in ch.values:
                    _check_loss(f"eps_src_channels[{i}]", x)
                checked.append(ch)
            else:
                checked.append(_check_loss(f"eps_src_channels[{i}]", ch))
        object.__setattr__(self, "eps_src_channels", tuple(checked))

        r_in = float(self.r_input)
        if not math.isfinite(r_in) or abs(r_in) > 20.0:
            raise ConfigError(f"r_input: must be finite with |r| <= 20, got {r_in!r}")
        object.__setattr__(self, "r_input", r_in)
        th_in = float(self.theta_input)
        if not math.isfinite(th_in):
            raise ConfigError("theta_input: must be finite")
        object.__setattr__(self, "theta_input", th_in)

        if not isinstance(self.internal_sqz, InternalSqueeze):
            raise ConfigError("internal_sqz: expected an InternalSqueeze")
        for name in ("Theta", "residual_phase"):
            q = getattr(self, name)
            if isinstance(q, FreqTable):
                continue
            q = float(q)
            if not math.isfinite(q):
                raise ConfigError(f"{name}: must be finite")
            object.__setattr__(self, name, q)


def default_config() -> IfoConfig:
    """Broadband configuration with published Advanced-LIGO-like parameters."""
    return IfoConfig(
        L=4000.0,
        M=40.0,
        P=8e5,
        omega0=TWO_PI_C / 1.064e-6,
        T_itm=0.014,
        T_src=0.14,
        eps_arm=1e-4,
        eps_src_channels=(1e-3,),
        eps_ext=0.1,
    )


def _quantity_from_json(name: str, obj):
    if isinstance(obj, dict):
        extra = set(obj) - {"f_hz", "values"}
        if extra:
            raise ConfigError(f"{name}: unknown table keys {sorted(extra)}")
        try:
            return FreqTable(tuple(obj["f_hz"]), tuple(obj["values"]))
        except KeyError as exc:
            raise ConfigError(f"{name}: table needs 'f_hz' and 'values'") from exc
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return float(obj)
    raise ConfigError(f"{name}: expected a number or a frequency table")


def _quantity_to_json(q):
    if isinstance(q, FreqTable):
        return {"f_hz": list(q.f_hz), "values": list(q.values)}
    return q


KNOWN_KEYS = {
    "L", "M", "P", "omega0", "lambda0", "T_itm", "T_src", "eps_arm",
    "eps_src_channels", "eps_ext", "r_input", "theta_input", "internal_sqz",
    "Theta", "residual_phase",
}


def config_from_dict(doc: dict) -> IfoConfig:
    """Build and validate an IfoConfig from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(doc) - KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    if "omega0" in doc:
        omega0 = doc["omega0"]
    elif "lambda0" in doc:
        lam = float(doc["lambda0"])
        if lam <= 0:
            raise ConfigError("lambda0: must be positive")
        omega0 = TWO_PI_C / lam
    else:
        raise ConfigError("config needs 'omega0' [rad/s] or 'lambda0' [m]")

    try:
        channels_doc = doc["eps_src_channels"]
    except KeyError:
        raise ConfigError("missing required key 'eps_src_channels'")
    if isinstance(channels_doc, (int, float)) and not isinstance(channels_doc, bool):
        channels_doc = [channels_doc]
    if not isinstance(channels_doc, list):
        raise ConfigError("eps_src_channels: expected a number or a list")
    channels = tuple(_quantity_from_json(f"eps_src_channels[{i}]", ch)
                     for i, ch in enumerate(channels_doc))

    sqz_doc = doc.get("internal_sqz", "none")
    if isinstance(sqz_doc, str):
        sqz = InternalSqueeze(mode=sqz_doc)
    elif isinstance(sqz_doc, dict):
        extra = set(sqz_doc) - {"mode", "r", "theta"}
        if extra:
            raise ConfigError(f"internal_sqz: unknown keys {sorted(extra)}")
        sqz = InternalSqueeze(
            mode=sqz_doc.get("mode", "none"),
            r=_quantity_from_json("internal_sqz.r", sqz_doc.get("r", 0.0)),
            theta=_quantity_from_json("internal_sqz.theta", sqz_doc.get("theta", 0.0)),
        )
    else:
        raise ConfigError("internal_sqz: expected a mode string or an object")

    def need(key):
        try:
            return doc[key]
        except KeyError:
            raise ConfigError(f"missing required key '{key}'")

    return IfoConfig(
        L=need("L"),
        M=need("M"),
        P=need("P"),
        omega0=omega0,
        T_itm=need("T_itm"),
        T_src=need("T_src"),
        eps_arm=need("eps_arm"),
        eps_src_channels=channels,
        eps_ext=need("eps_ext"),
        r_input=doc.get("r_input", 0.0),
        theta_input=doc.get("theta_input", 0.0),
        internal_sqz=sqz,
        Theta=_quantity_from_json("Theta", doc.get("Theta", 0.0)),
        residual_phase=_quantity_from_json("residual_phase",
                                           doc.get("residual_phase", 0.0)),
    )


def config_to_dict(cfg: IfoConfig) -> dict:
    """Canonical JSON-ready form of a configuration."""
    return {
        "L": cfg.L,
        "M": cfg.M,
        "P": cfg.P,
        "omega0": cfg.omega0,
        "T_itm": cfg.T_itm,
        "T_src": cfg.T_src,
        "eps_arm": cfg.eps_arm,
        "eps_src_channels": [_quantity_to_json(ch) for ch in cfg.eps_src_channels],
        "eps_ext": cfg.eps_ext,
        "r_input": cfg.r_input,
        "theta_input": cfg.theta_input,
        "internal_sqz": {
            "mode": cfg.internal_sqz.mode,
            "r": _quantity_to_json(cfg.internal_sqz.r),
            "theta": _quantity_to_json(cfg.internal_sqz.theta),
        },
        "Theta": _quantity_to_json(cfg.Theta),
        "residual_phase": _quantity_to_json(cfg.residual_phase),
    }


def config_hash(cfg: IfoConfig) -> str:
    """SHA-256 of the canonical JSON encoding."""
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def config_template() -> dict:
    """Template document with every key spelled out."""
    doc = config_to_dict(default_config())
    del doc["omega0"]
    doc["lambda0"] = 1.064e-6
    return doc


def load_config(path) -> IfoConfig:
    """Load and validate a JSON configuration file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    return config_from_dict(doc)


def coverage_check(cfg: IfoConfig, f_lo_hz: float, f_hi_hz: float) -> None:
    """Verify every tabulated quantity covers the requested band."""
    tables = [("Theta", cfg.Theta), ("residual_phase", cfg.residual_phase),
              ("internal_sqz.r", cfg.internal_sqz.r),
              ("internal_sqz.theta", cfg.internal_sqz.theta)]
    tables += [(f"eps_src_channels[{i}]", ch)
               for i, ch in enumerate(cfg.eps_src_channels)]
    for name, q in tables:
        if isinstance(q, FreqTable) and not q.covers(f_lo_hz, f_hi_hz):
            raise ConfigError(
                f"{name}: table covers {q.f_hz[0]:g}..{q.f_hz[-1]:g} Hz but the "
                f"requested band is {f_lo_hz:g}..{f_hi_hz:g} Hz")
