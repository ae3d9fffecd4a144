"""Workload definitions and the seeded request generators.

Every budget request draws its band from a log-frequency lattice
f_k = F0_HZ * 10**(k * step_dec).  A band that starts on lattice point k0 and
spans (points - 1) * stride lattice steps puts every grid point of
`numpy.geomspace(fmin, fmax, points)` on a lattice point, so one stored
reference per curve and lattice point covers every band the generator can
draw.  Validate requests draw an index into a fixed pool of random configs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# relative tolerance of the reference gate: loose enough for a faithful
# refactor that changes the last bits, tight against any real change
RTOL = 1e-9

# lattice origin of every budget workload
F0_HZ = 5.0

VALIDATE_POOL = 4096
VALIDATE_RNG_BASE = 18071173

# ponderomotive internal squeezing with complex (residual-phase) loop
# matrices, tabulated rotation and a tabulated recycling-loss channel.  The
# negative rotation keeps the loop below its lasing threshold at every
# lattice frequency; the loss table has its minimum on the 100 Hz knot,
# inside every band the generator draws, so the band-minimised loss is the
# same for all of them while each new band still misses the cache.
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


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "budget" or "validate"
    config: dict | None = None  # written to a file; None = built-in default
    points: int = 0
    curves: tuple = ()
    formats: tuple = ()       # one CLI call per format, timed as one request
    step_dec: float = 0.0     # lattice step in decades
    starts: int = 0           # band start points k0 in [0, starts)
    strides: tuple = ()       # grid step in lattice steps
    # percentile reported as request_s.tail: the highest of 75/90/95 that
    # leaves at least ten samples beyond it at this workload's request rate
    # (dense_closed_form runs too few requests for that and keeps 75)
    tail_pct: float = 75.0

    @property
    def pool(self) -> int:
        if self.kind == "validate":
            return VALIDATE_POOL
        return self.starts * len(self.strides)

    @property
    def lattice_size(self) -> int:
        return self.starts + (self.points - 1) * max(self.strides)


# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload(
        name="broadband_exact", kind="budget",
        points=1000, curves=("full_optimal", "qcrb", "full_fixed_zeta(0.5)"),
        formats=("csv",), step_dec=5e-4, starts=1205, strides=(4, 5, 6)),
    Workload(
        name="dense_closed_form", kind="budget",
        points=20000,
        curves=("sql", "loss_limit_a1", "loss_limit_a4", "fdt_floor",
                "taylor_loss_no_internal"),
        formats=("csv", "json"), step_dec=1.5e-4, starts=2007, strides=(1,)),
    Workload(
        name="tabulated_ponderomotive", kind="budget",
        config=TABULATED_CONFIG, points=500,
        curves=("full_optimal", "qcrb", "taylor_qcrb_internal",
                "loss_limit_a1"),
        formats=("json",), step_dec=5e-4, starts=1205, strides=(8, 10, 12)),
    Workload(
        name="validate_random", kind="validate",
        tail_pct=95.0),
)}


def lattice_hz(w: Workload, k) -> np.ndarray:
    return F0_HZ * 10.0 ** (np.asarray(k, dtype=float) * w.step_dec)


def band_of(w: Workload, index: int) -> tuple[int, int]:
    """(k0, stride) of pool entry `index` of a budget workload."""
    return index % w.starts, w.strides[index // w.starts]


def validate_config_doc(index: int) -> dict:
    """Config document of validate pool entry `index`."""
    from qnbudget import config_to_dict, random_config
    rng = np.random.default_rng([VALIDATE_RNG_BASE, index])
    return config_to_dict(random_config(rng))


def config_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()


def pool_order(w: Workload, seed: int):
    """Endless pool indices for a seed; no index repeats within one pool."""
    rng = np.random.default_rng(seed)
    p = w.pool
    offset = int(rng.integers(p))
    stride = int(rng.integers(1, p))
    while math.gcd(stride, p) != 1:
        stride = stride % (p - 1) + 1
    i = 0
    while True:
        yield (offset + i * stride) % p
        i += 1


@dataclass(frozen=True)
class Request:
    index: int            # pool entry
    calls: tuple          # argv lists, run in order as one request
    outputs: tuple        # output file per call (budget) or () (validate)
    config: bytes | None  # config file content written before the request


def make_request(w: Workload, index: int, workdir: str) -> Request:
    """The CLI calls of pool entry `index`; files go under `workdir`."""
    cfg_path = f"{workdir}/config.json"
    if w.kind == "validate":
        doc = validate_config_doc(index)
        argv = ["validate", "--config", cfg_path, "--seed", str(index)]
        return Request(index, (argv,), (), config_bytes(doc))
    k0, stride = band_of(w, index)
    fmin, fmax = lattice_hz(w, [k0, k0 + (w.points - 1) * stride])
    base = ["budget"]
    if w.config is not None:
        base += ["--config", cfg_path]
    base += ["--fmin", repr(float(fmin)), "--fmax", repr(float(fmax)),
             "--points", str(w.points), "--curves", ",".join(w.curves)]
    calls, outputs = [], []
    for fmt in w.formats:
        out = f"{workdir}/out.{fmt}"
        calls.append(base + ["--out", out, "--format", fmt])
        outputs.append(out)
    cfg = None if w.config is None else config_bytes(w.config)
    return Request(index, tuple(calls), tuple(outputs), cfg)

