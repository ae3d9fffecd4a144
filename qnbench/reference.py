"""Reference outputs and the gate that compares each request against them.

Budget references hold every curve at every lattice point of the workload
(see workloads.py) plus the exit code; validate references hold the exit
code and each check's PASS/FAIL for every pool entry.  Outputs are compared
within workloads.RTOL, never byte for byte.

Rebuild the references (only when the benchmark's inputs change, never to
absorb a change in the program's outputs):

    python3 qnbench/reference.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys

import numpy as np

from workloads import (RTOL, WORKLOADS, Workload, band_of, lattice_hz,
                       make_request)

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def ref_path(w: Workload) -> str:
    ext = "json" if w.kind == "validate" else "npz"
    return os.path.join(REF_DIR, f"{w.name}.{ext}")


def load_reference(w: Workload):
    if w.kind == "validate":
        with open(ref_path(w)) as fh:
            return json.load(fh)
    with np.load(ref_path(w)) as data:
        return {key: data[key] for key in data.files}


def config_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _mismatch(what: str, got, want) -> str | None:
    got = np.asarray(got, dtype=float)
    if got.shape != want.shape:
        return f"{what}: shape {got.shape}, expected {want.shape}"
    bad = ~(np.abs(got - want) <= RTOL * np.abs(want))
    if bad.any():
        i = int(np.argmax(bad))
        return (f"{what}[{i}]: {float(got[i])!r}, expected {float(want[i])!r} "
                f"(rtol {RTOL:g})")
    return None


def read_budget_output(path: str, fmt: str) -> tuple[list, np.ndarray]:
    """(column names, columns as rows of an array) of a budget output file."""
    with open(path) as fh:
        if fmt == "csv":
            names = fh.readline().strip().split(",")
            cols = np.loadtxt(fh, delimiter=",", ndmin=2).T
            return names, cols
        doc = json.load(fh)
    names = ["f_hz"] + doc["metadata"]["curves"]
    return names, np.array([doc["columns"][n] for n in names], dtype=float)


def check_budget(w: Workload, ref: dict, req, exit_codes) -> list:
    """Reasons request `req` differs from the reference; empty if it matches."""
    k0, stride = band_of(w, req.index)
    sel = slice(k0, k0 + (w.points - 1) * stride + 1, stride)
    want_rc = int(ref["exit_code"])
    reasons = []
    for argv, out, rc in zip(req.calls, req.outputs, exit_codes):
        fmt = argv[argv.index("--format") + 1]
        if rc != want_rc:
            reasons.append(f"{fmt}: exit code {rc}, expected {want_rc}")
            continue
        try:
            names, cols = read_budget_output(out, fmt)
        except (OSError, ValueError, KeyError) as exc:
            reasons.append(f"{fmt}: unreadable output: {exc!r}")
            continue
        if names != ["f_hz", *w.curves]:
            reasons.append(f"{fmt}: columns {names}")
            continue
        for name, col in zip(names, cols):
            why = _mismatch(f"{fmt}:{name}", col, ref[name][sel])
            if why:
                reasons.append(why)
    return reasons


def parse_validate_output(text: str) -> list:
    """[(check name, PASS|FAIL), ...] from the validate verb's stdout."""
    out = []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] in ("PASS", "FAIL"):
            out.append((parts[1], parts[0]))
    return out


def check_validate(ref: dict, req, exit_code: int, stdout: str) -> list:
    want_rc, want_status, digest = ref["entries"][req.index]
    if config_digest(req.config) != digest:
        return ["input drift: the generated config differs from the reference's"]
    reasons = []
    if exit_code != want_rc:
        reasons.append(f"exit code {exit_code}, expected {want_rc}")
    got = parse_validate_output(stdout)
    want = list(zip(ref["checks"], want_status))
    if got != [(n, "PASS" if s == "P" else "FAIL") for n, s in want]:
        reasons.append(f"checks {got}, expected {want}")
    return reasons


def _run_cli(argv) -> tuple[int, str]:
    from qnbudget.cli import main
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, stdout.getvalue()


def build_budget(w: Workload) -> None:
    from qnbudget import (config_from_dict, default_config,
                          effective_src_loss, evaluate_curve)
    cfg = default_config() if w.config is None else config_from_dict(w.config)
    f = lattice_hz(w, np.arange(w.lattice_size))
    band = (float(f[0]), float(f[-1]))
    # the lattice evaluation stands for every band only if the
    # band-minimised recycling loss is the same for all of them
    losses = set()
    for index in range(w.pool):
        k0, stride = band_of(w, index)
        losses.add(effective_src_loss(
            cfg.eps_src_channels,
            (float(f[k0]), float(f[k0 + (w.points - 1) * stride]))))
    if len(losses) != 1:
        raise SystemExit(f"{w.name}: band loss varies over the pool: {losses}")
    data = {"f_hz": f, "exit_code": np.array(0)}
    for name in w.curves:
        data[name] = evaluate_curve(name, cfg, f, src_band=band)
    np.savez_compressed(ref_path(w), **data)


def build_validate(w: Workload, workdir: str) -> None:
    checks, entries = None, []
    for index in range(w.pool):
        req = make_request(w, index, workdir)
        with open(f"{workdir}/config.json", "wb") as fh:
            fh.write(req.config)
        rc, stdout = _run_cli(req.calls[0])
        parsed = parse_validate_output(stdout)
        names = [n for n, _ in parsed]
        if checks is None:
            checks = names
        elif names != checks:
            raise SystemExit(f"validate entry {index}: checks {names}")
        status = "".join(s[0] for _, s in parsed)
        entries.append([rc, status, config_digest(req.config)])
    with open(ref_path(w), "w") as fh:
        json.dump({"rtol": RTOL, "checks": checks, "entries": entries}, fh,
                  separators=(",", ":"))
        fh.write("\n")


def main() -> int:
    import warnings
    from run import WORK_ROOT, import_program
    import_program()
    workdir = os.path.join(WORK_ROOT, f"reference-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(REF_DIR, exist_ok=True)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for w in WORKLOADS.values():
                print(f"building {w.name}", file=sys.stderr)
                if w.kind == "validate":
                    build_validate(w, workdir)
                else:
                    build_budget(w)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
