"""Interferometer configuration: schema, validation, JSON ingestion.

The configuration document is a flat JSON object whose keys are the fields
of IfoConfig, the one statement of the schema.  Scalar entries are plain
numbers; frequency-dependent entries are tables {"f_hz": [...], "values":
[...]} interpolated linearly in log-frequency, with extrapolation forbidden.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Iterable
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np

from .constants import C_LIGHT, TWO_PI
from .errors import ConfigError
from .quadrature import MAX_SQUEEZE_FACTOR, all_true

DEFAULT_BAND_HZ = (5.0, 5000.0)
MIN_FREQUENCY_HZ = 0.1
MAX_FREQUENCY_HZ = 1.7976931348623157e308 / TWO_PI   # 2 pi f: the largest double
TWO_PI_C = TWO_PI * C_LIGHT

INTERNAL_SQZ_MODES = ("none", "fixed", "ponderomotive")

# real number types a config value may have (bool is excluded separately)
_REAL_TYPES = (int, float, np.integer, np.floating)


def _number(key: str, x, lo: float = -math.inf, hi: float = math.inf,
            ends: str = "()") -> float:
    """x as a float if a real, non-boolean, finite number in the interval from
    lo to hi, each end open ("(", ")") or closed; else a ConfigError on key."""
    if type(x) is not float:
        if isinstance(x, bool) or not isinstance(x, _REAL_TYPES):
            raise ConfigError(f"{key}: expected a number, got {x!r}")
        try:
            x = float(x)
        except OverflowError:   # an integer beyond the double range
            x = math.inf if x > 0 else -math.inf
    if not ((lo < x or lo == x and ends[0] == "[")
            and (x < hi or x == hi and ends[1] == "]")
            and math.isfinite(x)):
        raise ConfigError(
            f"{key}: must be in {ends[0]}{lo:g}, {hi:g}{ends[1]}, got {x!r}")
    return x


def _within(lo=-math.inf, hi=math.inf, ends="()", **kw):
    """A config field whose numbers lie in an interval (see _number)."""
    return field(metadata={"interval": (lo, hi, ends)}, **kw)


@dataclass(frozen=True)
class FreqTable:
    """Real quantity tabulated against frequency [Hz].

    Lookups interpolate linearly in log10(f); requests outside the tabulated
    range raise instead of extrapolating.
    """

    f_hz: tuple
    values: tuple

    def __post_init__(self):
        f = tuple(_number("table f_hz", x, 0.0) for x in self.f_hz)
        v = tuple(_number("table values", x) for x in self.values)
        if len(f) != len(v):
            raise ConfigError("table: f_hz and values must have equal length")
        if len(f) < 2:
            raise ConfigError("table: need at least two points")
        if any(f[i] >= f[i + 1] for i in range(len(f) - 1)):
            raise ConfigError("table: frequencies must be strictly increasing")
        object.__setattr__(self, "f_hz", f)
        object.__setattr__(self, "values", v)
        # interpolation knots, derived once from the immutable fields
        object.__setattr__(self, "_log_f", np.log10(f))
        object.__setattr__(self, "_v", np.array(v))

    def covers(self, f_lo_hz: float, f_hi_hz: float) -> bool:
        return self.f_hz[0] <= f_lo_hz and f_hi_hz <= self.f_hz[-1]

    def at(self, f_hz):
        """The table at a frequency [Hz], or at each of an array of them."""
        f = np.asarray(f_hz, dtype=float)[()]
        inside = (f >= self.f_hz[0]) & (f <= self.f_hz[-1])
        if not all_true(inside):
            bad = np.asarray(f)[~inside].flat[0]
            raise ConfigError(
                f"table does not cover {bad:g} Hz (tabulated "
                f"{self.f_hz[0]:g}..{self.f_hz[-1]:g} Hz); extrapolation is forbidden")
        values = np.interp(np.log10(f), self._log_f, self._v)
        return values if f.ndim else float(values)


def value_at(quantity, f_hz):
    """Evaluate a constant-or-tabulated quantity at a frequency [Hz].

    For an array of frequencies a table gives an array; a constant comes
    back as a float, which broadcasts against it.
    """
    if isinstance(quantity, FreqTable):
        return quantity.at(f_hz)
    return float(quantity)


@dataclass(frozen=True)
class InternalSqueeze:
    """Squeezing generated inside the recycling cavity.

    mode "none" disables it, "fixed" uses the given squeeze factor, in
    [-20, 20], and angle (constants or tables), "ponderomotive" derives them
    from the radiation-pressure gain at each frequency.
    """

    mode: str = "none"
    r: float | FreqTable = _within(-MAX_SQUEEZE_FACTOR, MAX_SQUEEZE_FACTOR,
                                   "[]", default=0.0)
    theta: float | FreqTable = _within(default=0.0)

    def __post_init__(self):
        if self.mode not in INTERNAL_SQZ_MODES:
            raise ConfigError(
                f"internal_sqz.mode: must be one of {INTERNAL_SQZ_MODES}, got {self.mode!r}")
        _check_fields(self)
        if self.mode != "fixed" and (self.r != 0.0 or self.theta != 0.0):
            raise ConfigError(
                "internal_sqz: r and theta are only meaningful in 'fixed' mode")


@dataclass(frozen=True)
class IfoConfig:
    """Full parameter set of the simplified interferometer.

    Fields (SI units, angles in rad; every number finite, in the interval):
      L, M, P  arm length [m], mirror mass [kg], power per arm [W], (0, inf)
      omega0   carrier angular frequency [rad/s], (0, inf)
      T_itm    input test mass power transmissivity, (0, 1)
      T_src    effective recycling-cavity transmissivity, (0, 1]
      eps_arm  arm round-trip loss, [0, 1)
      eps_src_channels  recycling-cavity loss channels, each a constant or a
                        frequency table in [0, 1); the effective loss is the
                        minimum over the analysis band of their sum
      eps_ext  external/readout loss, [0, 1)
      r_input, theta_input  input squeezing factor in [-20, 20], and angle
      internal_sqz          InternalSqueeze settings
      Theta    intra-cavity quadrature rotation, constant or table
      residual_phase        uncancelled round-trip phase, constant or table
                            (zero means perfect dispersion compensation)
    """

    L: float = _within(0.0)
    M: float = _within(0.0)
    P: float = _within(0.0)
    omega0: float = _within(0.0)
    T_itm: float = _within(0.0, 1.0)
    T_src: float = _within(0.0, 1.0, "(]")
    eps_arm: float = _within(0.0, 1.0, "[)")
    eps_src_channels: tuple[float | FreqTable, ...] = _within(0.0, 1.0, "[)")
    eps_ext: float = _within(0.0, 1.0, "[)")
    r_input: float = _within(-MAX_SQUEEZE_FACTOR, MAX_SQUEEZE_FACTOR, "[]",
                             default=0.0)
    theta_input: float = _within(default=0.0)
    internal_sqz: InternalSqueeze = field(default_factory=InternalSqueeze)
    Theta: float | FreqTable = _within(default=0.0)
    residual_phase: float | FreqTable = _within(default=0.0)

    def __post_init__(self):
        _check_fields(self)


# how a field is read and checked, by its annotation (a string: annotations
# are postponed in this module); a field not listed is read as it is
_KINDS = {"float": "number", "float | FreqTable": "table",
          "tuple[float | FreqTable, ...]": "channels",
          "InternalSqueeze": InternalSqueeze}

# (name, key as errors give it, kind, lo, hi, ends) of each listed field, in
# field order; built once, as dataclasses.fields costs more than the checks
_WALKS = {cls: tuple((f.name, prefix + f.name, _KINDS[f.type],
                      *f.metadata.get("interval", (None,) * 3))
                     for f in fields(cls) if f.metadata or f.type in _KINDS)
          for cls, prefix in ((IfoConfig, ""), (InternalSqueeze, "internal_sqz."))}


def _quantity(key: str, q, tables: bool, lo: float, hi: float, ends: str):
    """q as a float, or a FreqTable where tables are allowed, in the interval;
    a table object {"f_hz": [...], "values": [...]} is read as a FreqTable."""
    if tables and isinstance(q, dict):
        extra = set(q) - {"f_hz", "values"}
        if extra:
            raise ConfigError(f"{key}: unknown table keys {sorted(extra)}")
        try:
            f_hz, values = q["f_hz"], q["values"]
        except KeyError as exc:
            raise ConfigError(f"{key}: table needs 'f_hz' and 'values'") from exc
        if not (isinstance(f_hz, list) and isinstance(values, list)):
            raise ConfigError(f"{key}: table 'f_hz' and 'values' must be lists")
        try:
            q = FreqTable(tuple(f_hz), tuple(values))
        except ConfigError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    if not (tables and isinstance(q, FreqTable)):
        return _number(key, q, lo, hi, ends)
    for x in q.values:
        _number(key, x, lo, hi, ends)
    return q


def _check_fields(obj) -> None:
    """Read each field of a config object from its JSON form, if any, and
    check it against its interval; the first bad field in order is reported."""
    for name, key, kind, lo, hi, ends in _WALKS[type(obj)]:
        value = checked = getattr(obj, name)
        if kind == "channels":
            # one constant or table is one channel, as a bare JSON value is
            if isinstance(value, (str, dict)) or not isinstance(value, Iterable):
                value = (value,)
            checked = tuple(_quantity(f"{key}[{i}]", ch, True, lo, hi, ends)
                            for i, ch in enumerate(value))
            if not checked:
                raise ConfigError(f"{key}: must not be empty")
        elif kind is not InternalSqueeze:
            checked = _quantity(key, value, kind == "table", lo, hi, ends)
        elif not isinstance(value, kind):   # a mode string or an object
            doc = {"mode": value} if isinstance(value, str) else value
            checked = _from_dict(kind, doc, f"{key}.")
        if checked is not value:
            object.__setattr__(obj, name, checked)


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


def _from_dict(cls, doc, prefix: str = ""):
    """cls(**doc) for a config dataclass, once doc is an object with no
    unknown key and every required key (a field without a default); the
    dataclass reads and checks the values.  Errors name prefix + key."""
    where = prefix.rstrip(".") or "config"
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    schema = fields(cls)
    unknown = set(doc) - {f.name for f in schema}
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown, key=str)}")
    for f in schema:
        required = f.default is MISSING and f.default_factory is MISSING
        if required and f.name not in doc:
            raise ConfigError(f"missing required key '{prefix}{f.name}'")
    return cls(**doc)


def config_from_dict(doc: dict) -> IfoConfig:
    """Build and validate an IfoConfig from a parsed JSON document.

    The carrier is given as omega0 [rad/s] or as lambda0 [m], not both.
    lambda0 is read first, so its error comes before any other key's.
    """
    if isinstance(doc, dict) and "lambda0" in doc:
        if "omega0" in doc:
            raise ConfigError("config gives both 'omega0' and 'lambda0'; "
                              "give one of the two")
        doc = dict(doc)
        lam = _number("lambda0", doc.pop("lambda0"), 0.0)
        doc["omega0"] = TWO_PI_C / lam
        if not math.isfinite(doc["omega0"]):
            raise ConfigError(
                f"lambda0: 2*pi*c/lambda0 must be finite, got {lam!r}")
    elif isinstance(doc, dict) and "omega0" not in doc:
        raise ConfigError("config needs 'omega0' [rad/s] or 'lambda0' [m]")
    return _from_dict(IfoConfig, doc)


def config_to_dict(cfg: IfoConfig) -> dict:
    """Canonical JSON-ready form of a configuration: the fields in order,
    tables as {"f_hz": [...], "values": [...]} objects."""
    if is_dataclass(cfg):
        return {f.name: config_to_dict(getattr(cfg, f.name)) for f in fields(cfg)}
    if isinstance(cfg, tuple):
        return [config_to_dict(x) for x in cfg]
    return cfg


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
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}")
    return config_from_dict(doc)


def coverage_check(cfg, f_lo_hz: float, f_hi_hz: float) -> None:
    """Verify every table of a config covers the requested band; the first
    short one in field order is reported."""
    for name, key, kind, *_ in _WALKS[type(cfg)]:
        value = getattr(cfg, name)
        if kind is InternalSqueeze:
            coverage_check(value, f_lo_hz, f_hi_hz)
        for i, q in enumerate(value if kind == "channels" else (value,)):
            if isinstance(q, FreqTable) and not q.covers(f_lo_hz, f_hi_hz):
                where = f"{key}[{i}]" if kind == "channels" else key
                raise ConfigError(
                    f"{where}: table covers {q.f_hz[0]:g}..{q.f_hz[-1]:g} Hz but the "
                    f"requested band is {f_lo_hz:g}..{f_hi_hz:g} Hz")
