"""Byte-for-byte checks of the CLI output for a fixed set of requests.

The files in tests/golden/ hold the output of each request below.  They are
the record that output formatting stays byte-identical across refactors, so
regenerate them only for a change that is meant to alter the output:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from qnbudget.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

# ponderomotive internal squeezing, residual round-trip phase, tabulated
# rotation angle and a tabulated recycling-loss channel beside a constant one
TABULATED_CONFIG = {
    "L": 4000.0,
    "M": 40.0,
    "P": 8e5,
    "lambda0": 1.064e-6,
    "T_itm": 0.014,
    "T_src": 0.14,
    "eps_arm": 1e-4,
    "eps_src_channels": [
        5e-4,
        {"f_hz": [1.0, 100.0, 30000.0], "values": [3e-3, 1e-3, 4e-3]},
    ],
    "eps_ext": 0.1,
    "r_input": 1.0,
    "theta_input": 0.0,
    "internal_sqz": "ponderomotive",
    "Theta": {"f_hz": [1.0, 30.0, 300.0, 3000.0, 30000.0],
              "values": [-0.02, -0.015, -0.01, -0.012, -0.02]},
    "residual_phase": 0.01,
}

# golden file -> (config document or None for the built-in default, argv);
# a request without --format writes to stdout, a budget request CSV
REQUESTS = {
    "config_template.json": (None, ["print-config-template"]),
    "default.csv": (None, [
        "budget", "--points", "200",
        "--curves", "sql,qcrb,loss_limit_a4,full_optimal", "--format", "csv"]),
    "default.json": (None, [
        "budget", "--fmin", "20", "--fmax", "800", "--points", "150",
        "--curves", "sql,qcrb,loss_limit_a1,fdt_floor,full_optimal",
        "--format", "json"]),
    "fixed_zeta_stdout.csv": (None, [
        "budget", "--points", "120", "--curves", "full_fixed_zeta(0.5),sql"]),
    "tabulated.json": (TABULATED_CONFIG, [
        "budget", "--points", "180",
        "--curves", "full_optimal,qcrb,taylor_qcrb_internal,loss_limit_a1",
        "--format", "json"]),
}


def run_request(name, workdir) -> bytes:
    """Output of golden request `name`, run with its files under `workdir`."""
    doc, argv = REQUESTS[name]
    if doc is not None:
        cfg_path = os.path.join(workdir, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(doc, fh)
        argv += ["--config", cfg_path]
    out_path = os.path.join(workdir, name)
    if "--format" in argv:
        argv += ["--out", out_path]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    if "--format" not in argv:
        return stdout.getvalue().encode()
    with open(out_path, "rb") as fh:
        return fh.read()


@pytest.mark.filterwarnings("ignore::qnbudget.RegimeWarning")
@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_output_matches_golden_file(name, tmp_path):
    with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
        want = fh.read()
    assert run_request(name, str(tmp_path)) == want


def test_csv_run_builds_no_json_tables():
    # in a new process: a CSV budget leaves celltext's JSON tables unbuilt,
    # and the first JSON budget builds them and writes the golden text
    script = """if True:
        import sys, tempfile
        from test_golden import run_request
        from qnbudget import celltext
        with tempfile.TemporaryDirectory() as tmp:
            run_request("default.csv", tmp)
            assert celltext._json_tables.cache_info().currsize == 0
            sys.stdout.buffer.write(run_request("default.json", tmp))
        assert celltext._json_tables.cache_info().currsize == 1
    """
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env={**os.environ, "PYTHONPATH": f"{src}:{tests}"})
    assert done.returncode == 0, done.stderr.decode()
    with open(os.path.join(GOLDEN_DIR, "default.json"), "rb") as fh:
        assert done.stdout == fh.read()


if __name__ == "__main__":
    import tempfile
    import warnings

    warnings.simplefilter("ignore")
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for golden in REQUESTS:
        with tempfile.TemporaryDirectory() as tmp:
            data = run_request(golden, tmp)
        with open(os.path.join(GOLDEN_DIR, golden), "wb") as fh:
            fh.write(data)
        print(f"wrote {golden} ({len(data)} bytes)", file=sys.stderr)
