"""Command-line front end: budget sweeps, validation, config template.

Exit codes: 0 success, 1 validation check failed, 2 configuration error,
3 numerical degeneracy during evaluation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import (DEFAULT_BAND_HZ, MIN_FREQUENCY_HZ, IfoConfig, _number,
                     config_hash, config_template, default_config,
                     load_config)
from .constants import C_LIGHT, HBAR
from .curves import CHUNK_POINTS, evaluate_curve, parse_curve_name
from .errors import ConfigError, DegeneracyError
from .ifo import resolve_band
from .validation import run_validation

MAX_POINTS = 10**6


@dataclass(frozen=True)
class BudgetRequest:
    """Validated description of one budget sweep.

    band_hz is a pair of numbers (fmin, fmax) with 0.1 <= fmin < fmax.
    points must be an integer.  curves is a sequence of curve names; a
    single string is one name.
    """

    config: IfoConfig
    band_hz: tuple = DEFAULT_BAND_HZ
    points: int = 1000
    curves: tuple = ("sql", "loss_limit_a4")
    out_path: str | None = None
    fmt: str = "csv"

    def __post_init__(self):
        try:
            lo, hi = self.band_hz
        except (TypeError, ValueError):
            raise ConfigError("band_hz: expected a pair (fmin, fmax), "
                              f"got {self.band_hz!r}") from None
        lo = _number("fmin", lo, MIN_FREQUENCY_HZ, math.inf, "[)")
        hi = _number("fmax", hi, lo)
        object.__setattr__(self, "band_hz", (lo, hi))
        try:
            points = operator.index(self.points)
        except TypeError:
            raise ConfigError(
                f"points: must be an integer, got {self.points!r}") from None
        if not 2 <= points <= MAX_POINTS:
            raise ConfigError(
                f"points: must be in [2, {MAX_POINTS}], got {self.points!r}")
        object.__setattr__(self, "points", points)
        curves = (self.curves,) if isinstance(self.curves, str) else tuple(self.curves)
        if not curves:
            raise ConfigError("curves: select at least one curve")
        for name in curves:
            if not isinstance(name, str):
                raise ConfigError(f"curves: expected a curve name, got {name!r}")
            parse_curve_name(name)
        object.__setattr__(self, "curves", curves)
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format: must be csv or json, got {self.fmt!r}")


def _blocks(n: int):
    return (slice(lo, lo + CHUNK_POINTS) for lo in range(0, n, CHUNK_POINTS))


def write_budget(fh, req: BudgetRequest, f_hz: np.ndarray,
                 spectra: dict) -> None:
    """Write the curves {name: PSD array} to the text stream `fh` in the
    request's format, CSV or JSON.

    The text is built CHUNK_POINTS rows at a time, so its memory stays
    bounded at any point count.
    """
    # imported here, so that commands which write no table, and starting
    # the program, do not build its lookup tables
    from .celltext import csv_rows, json_elements

    columns = {"f_hz": f_hz, **spectra}
    if req.fmt == "csv":
        fh.write(",".join(columns) + "\n")
        for rows in _blocks(len(f_hz)):
            fh.write(csv_rows([col[rows] for col in columns.values()]))
        return
    # the document json.dumps(sort_keys=True, indent=1) writes: "columns"
    # sorts before "metadata", so the arrays go first, then its metadata text
    metadata = json.dumps({"metadata": {
        "format": "qnbudget-budget/1",
        "version": __version__,
        "config_sha256": config_hash(req.config),
        "constants": {"c_m_per_s": C_LIGHT, "hbar_J_s": HBAR},
        "band_hz": list(req.band_hz),
        "points": req.points,
        "curves": list(req.curves),
    }}, sort_keys=True, indent=1)
    fh.write('{\n "columns": {\n')
    for k, name in enumerate(sorted(columns)):
        fh.write((",\n" if k else "") + f"  {json.dumps(name)}: [\n")
        for j, rows in enumerate(_blocks(len(f_hz))):
            if j:
                fh.write(",\n")
            fh.write(json_elements(columns[name][rows]))
        fh.write("\n  ]")
    fh.write("\n },\n" + metadata.removeprefix("{\n") + "\n")


def run_budget(req: BudgetRequest) -> tuple[np.ndarray, dict]:
    """Evaluate the requested curves; write the output file if a path is set.

    Returns (f_hz, {name: PSD array}), the curves in request order.  A
    degeneracy, a PSD value that is negative or not finite included, raises
    evaluate_curve's DegeneracyError, and then no file is written.
    """
    lo, hi = req.band_hz
    f_hz = np.geomspace(lo, hi, req.points)
    if not np.all(f_hz[1:] > f_hz[:-1]):
        raise ConfigError(f"points: {req.points} frequencies are not distinct "
                          f"doubles in the band {lo!r}..{hi!r} Hz")
    cfg = resolve_band(req.config, req.band_hz)
    spectra = {name: evaluate_curve(name, cfg, f_hz) for name in req.curves}
    if req.out_path is not None:
        with open(req.out_path, "w", newline="") as fh:
            write_budget(fh, req, f_hz, spectra)
    return f_hz, spectra


def _load(path: str | None) -> IfoConfig:
    return default_config() if path is None else load_config(path)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="qnbudget",
        description="Quantum-noise sensitivity limits of laser "
                    "interferometers under optical loss.")
    sub = parser.add_subparsers(dest="command", required=True)

    budget = sub.add_parser(
        "budget", help="evaluate sensitivity curves over a frequency band")
    budget.add_argument("--config", help="JSON config path (default: built-in)")
    budget.add_argument("--fmin", type=float, default=DEFAULT_BAND_HZ[0],
                        help="lower band edge [Hz]")
    budget.add_argument("--fmax", type=float, default=DEFAULT_BAND_HZ[1],
                        help="upper band edge [Hz]")
    budget.add_argument("--points", type=int, default=1000,
                        help="number of log-spaced frequencies")
    budget.add_argument("--curves", default="sql,qcrb,loss_limit_a4,full_optimal",
                        help="comma-separated curve names")
    budget.add_argument("--out", help="output file path (default: stdout)")
    budget.add_argument("--format", choices=("csv", "json"), default="csv")

    validate = sub.add_parser(
        "validate", help="run the cross-module consistency checks")
    validate.add_argument("--config", help="JSON config path (default: built-in)")
    validate.add_argument("--seed", type=int, default=42)

    sub.add_parser("print-config-template",
                   help="print a complete JSON config template")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "print-config-template":
            print(json.dumps(config_template(), indent=2))
            return 0
        if args.command == "validate":
            report = run_validation(_load(args.config), seed=args.seed)
            print(f"config sha256: {report.config_sha256}")
            print(f"seed: {report.seed}")
            for line in report.lines():
                print(line)
            return 0 if report.passed else 1
        req = BudgetRequest(
            config=_load(args.config),
            band_hz=(args.fmin, args.fmax),
            points=args.points,
            curves=tuple(s.strip() for s in args.curves.split(",") if s.strip()),
            out_path=args.out,
            fmt=args.format,
        )
        f_hz, spectra = run_budget(req)
        if req.out_path is None:
            write_budget(sys.stdout, req, f_hz, spectra)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DegeneracyError as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return 3


def cli_entry() -> None:
    sys.exit(main())
