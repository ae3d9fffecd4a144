"""Command-line front end: budget sweeps, validation, config template.

Exit codes: 0 success, 1 validation check failed, 2 configuration error,
3 numerical degeneracy, 141 (console script) the reader of stdout is gone.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import operator
import os
import stat
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import (DEFAULT_BAND_HZ, MAX_FREQUENCY_HZ, MIN_FREQUENCY_HZ,
                     IfoConfig, _number, config_hash, config_template,
                     default_config, load_config)
from .constants import C_LIGHT, HBAR
from .curves import CHUNK_POINTS, _evaluate, parse_curve_name
from .errors import ConfigError, DegeneracyError
from .ifo import resolve_band
from .quadrature import all_true
from .validation import run_validation

MAX_POINTS = 10**6


@dataclass(frozen=True)
class BudgetRequest:
    """Validated description of one budget sweep.

    band_hz is a pair of numbers, 0.1 <= fmin < fmax <= MAX_FREQUENCY_HZ.
    points must be an integer, not a bool.  curves is a sequence of curve
    names, one per parsed curve, kept at its first place and spelling; a
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
        hi = _number("fmax", hi, lo, MAX_FREQUENCY_HZ, "(]")
        object.__setattr__(self, "band_hz", (lo, hi))
        try:
            if isinstance(self.points, bool):   # an int to operator.index
                raise TypeError
            points = operator.index(self.points)
        except TypeError:
            raise ConfigError(
                f"points: must be an integer, got {self.points!r}") from None
        if not 2 <= points <= MAX_POINTS:
            raise ConfigError(
                f"points: must be in [2, {MAX_POINTS}], got {self.points!r}")
        object.__setattr__(self, "points", points)
        try:
            curves = ((self.curves,) if isinstance(self.curves, str)
                      else tuple(self.curves))
        except TypeError:
            raise ConfigError("curves: expected a curve name or a sequence of "
                              f"them, got {self.curves!r}") from None
        if not curves:
            raise ConfigError("curves: select at least one curve")
        kept = {}   # one name per parsed curve, its first spelling
        for name in curves:
            if not isinstance(name, str):
                raise ConfigError(f"curves: expected a curve name, got {name!r}")
            kept.setdefault(parse_curve_name(name), name)
        object.__setattr__(self, "curves", tuple(kept.values()))
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format: must be csv or json, got {self.fmt!r}")


def write_budget(write, req: BudgetRequest, f_hz: np.ndarray,
                 spectra: dict) -> None:
    """Write the curves {name: PSD array} in the request's format, CSV or
    JSON, as ASCII bytes passed to `write`, which must copy what it keeps.

    The text is built in digit passes of at most CHUNK_POINTS cells, in
    buffers allocated once per call, so its memory stays bounded at any
    point count.
    """
    # imported here, so that commands which write no table, and starting
    # the program, do not build its lookup tables
    from .celltext import csv_rows, csv_workspace, json_blocks

    columns = {"f_hz": f_hz, **spectra}
    if req.fmt == "csv":
        write(",".join(columns).encode() + b"\n")
        rows = max(1, CHUNK_POINTS // len(columns))   # per digit pass
        work = csv_workspace(min(len(f_hz), rows) * len(columns))
        for lo in range(0, len(f_hz), rows):
            block = [c[lo:lo + rows] for c in columns.values()]
            for piece in csv_rows(block, work):
                write(piece)
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
    names = sorted(columns)
    # columns of fewer than CHUNK_POINTS rows share passes; any other has a
    # pass per block, as no tail fits beside the next column's full block
    per = max(1, CHUNK_POINTS // len(f_hz))
    texts = (text for k in range(0, len(names), per)
             for lo in range(0, len(f_hz), CHUNK_POINTS)
             for text in json_blocks([columns[name][lo:lo + CHUNK_POINTS]
                                      for name in names[k:k + per]]))
    write(b'{\n "columns": {\n')
    for k, name in enumerate(names):
        write(((",\n" if k else "") + f"  {json.dumps(name)}: [\n").encode())
        for lo in range(0, len(f_hz), CHUNK_POINTS):
            write(b",\n" if lo else b"")
            write(next(texts))
        write(b"\n  ]")
    write(("\n },\n" + metadata.removeprefix("{\n") + "\n").encode())


def run_budget(req: BudgetRequest) -> tuple[np.ndarray, dict]:
    """Evaluate the requested curves; write the output file if a path is set.

    Returns (f_hz, {name: PSD array}), the curves in request order.  The
    exact curves share one loop solve per chunk of the grid.  A degeneracy,
    a PSD value that is negative or not finite included, raises the
    DegeneracyError that evaluate_curve raises for the first failing curve
    in request order, and then no file is written.  The file is rewritten in
    place; a failed open or write raises ConfigError (a write leaves it
    empty), except BrokenPipeError: the reader of a pipe is gone.
    """
    lo, hi = req.band_hz
    f_hz = np.geomspace(lo, hi, req.points)
    if not all_true(f_hz[1:] > f_hz[:-1]):
        raise ConfigError(f"points: {req.points} frequencies are not distinct "
                          f"doubles in the band {lo!r}..{hi!r} Hz")
    cfg = resolve_band(req.config, req.band_hz)
    spectra = _evaluate(req.curves, cfg, f_hz)
    if req.out_path is not None:
        try:
            # in place: truncating to 0 first makes ext4 write back at close
            fd = os.open(req.out_path, os.O_WRONLY | os.O_CREAT, 0o666)
            try:
                with open(fd, "wb", closefd=False) as fh:
                    write_budget(fh.write, req, f_hz, spectra)
                    if stat.S_ISREG(os.fstat(fd).st_mode):
                        fh.truncate()   # to the written length
            except OSError:   # leave no rows of an earlier run behind
                with contextlib.suppress(OSError):
                    os.ftruncate(fd, 0)
                raise
            finally:
                os.close(fd)
        except BrokenPipeError:   # cli_entry ends quietly with exit 141
            raise
        except OSError as exc:
            raise ConfigError(f"out: cannot write '{req.out_path}': "
                              f"{exc.strerror or exc}") from exc
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
            # a text stream, so that a caller may redirect stdout to StringIO
            write_budget(lambda text: sys.stdout.write(str(text, "ascii")),
                         req, f_hz, spectra)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DegeneracyError as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return 3


def cli_entry() -> None:
    """The console script: main(), each warning one line of stderr; a
    reader that closes stdout early ends it with exit 141, as SIGPIPE does."""
    warnings.formatwarning = lambda message, category, *_: (
        f"warning: {category.__name__}: {message}\n")
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: let that go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)
