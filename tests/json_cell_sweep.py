"""Byte-identity sweep of celltext's JSON and CSV text against per-cell
oracles.

    PYTHONPATH=src python tests/json_cell_sweep.py [CELLS [SEED]]

Formats CELLS (default 10**7) seeded random floats in runs of 1 to 8,192
cells, each cut into 1 to 8 blocks that share one digit pass, as the
budget writer's short columns do, and compares each block's text with
json.dumps(float("%.11e" % x)) per cell.  Each run is also written as CSV
rows of 1 to 6 columns (the cells left over form one more column) and
compared with "%.11e" % x per cell.  The runs draw from both
notations and both signs: the whole double range, the fixed-notation range
and past its ends, decimals of 1 to 12 significant digits (trailing zeros
end at every digit), values within a few ulps of a 12-digit rounding tie,
values whose digits past the 12th lie uniformly within 2e-3 of a tie (on
both sides of the margin inside which Python formats a cell), integers and near-integers, zeros, NaN, infinities and subnormals,
frequency grids and PSD-scale values; half of the runs interleave two
kinds.  Prints the cell count and every mismatching block; exits 1 if
there was one.
"""

import json
import math
import sys

import numpy as np

from qnbudget.celltext import csv_rows, csv_workspace, json_blocks

SPECIALS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-310,
            2.2250738585072014e-308, 1.7976931348623157e308, 1.0, 0.1, 1e-4,
            1e-5, 9.9999999999995e-5, 1e6, 1e7, 9999999.9999995, 1e11,
            99999999999.95, 1e16]


def oracle(values: np.ndarray) -> str:
    return ",\n".join("   " + json.dumps(float("%.11e" % x))
                      for x in values.tolist())


def csv_oracle(columns: list) -> str:
    return "".join(",".join("%.11e" % x for x in row) + "\n"
                   for row in zip(*(c.tolist() for c in columns)))


def csv_blocks(values: np.ndarray) -> list:
    """The values as columns of one CSV block of 1 to 6 columns, cut from
    the run in order (the column count follows from its length, so the
    JSON draws stay those of the seed), and the cells left over as a
    block of one column."""
    ncols = min(1 + len(values) % 6, len(values))
    rows = len(values) // ncols
    blocks = [list(values[:rows * ncols].reshape(ncols, rows))]
    if len(values) > rows * ncols:
        blocks.append([values[rows * ncols:]])
    return blocks


def draw(rng, kind: int, n: int) -> np.ndarray:
    if kind == 0:
        return 10.0 ** rng.uniform(-323.3, 308.2, n)
    if kind == 1:
        return 10.0 ** rng.uniform(-6.0, 12.0, n)
    if kind == 2:   # 1-12 significant digits at exponents -6..12
        nsig = rng.integers(1, 13, n)
        digits = rng.integers(10**11, 10**12, n) // 10 ** (12 - nsig)
        exps = rng.integers(-6, 13, n) + 1 - nsig
        return np.array([float(f"{d}e{k}")
                         for d, k in zip(digits.tolist(), exps.tolist())])
    if kind == 3:   # (m + 1/2) 10**k nudged by -3..3 ulps
        return np.array([_nudged(float(f"{m}5e{k}"), s) for m, k, s in zip(
            rng.integers(10**11, 10**12, n).tolist(),
            rng.integers(-60, 60, n).tolist(),
            rng.integers(-3, 4, n).tolist())])
    if kind == 4:
        ints = np.floor(10.0 ** rng.uniform(0.0, 12.0, n))
        return ints * (1.0 + rng.choice([0.0, 1e-12, -1e-12, 3e-13], n))
    if kind == 5:
        return rng.choice(SPECIALS, n)
    if kind == 6:
        return np.geomspace(rng.uniform(0.1, 10.0), rng.uniform(100.0, 1e7), n)
    if kind == 7:
        return 10.0 ** rng.uniform(-50.0, -40.0, n)
    # (m + 1/2 + u) 10**(e - 11), u uniform in [-2e-3, 2e-3], |e| <= 99
    return np.array([float(f"{m}{u:09d}e{k}") for m, u, k in zip(
        rng.integers(10**11, 10**12, n).tolist(),
        rng.integers(498 * 10**6, 502 * 10**6 + 1, n).tolist(),
        rng.integers(-119, 80, n).tolist())])


def _nudged(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def main(argv) -> int:
    total = int(float(argv[1])) if len(argv) > 1 else 10**7
    rng = np.random.default_rng(int(argv[2]) if len(argv) > 2 else 0)
    done = bad = 0
    with np.errstate(over="ignore"):
        while done < total:
            n = int(rng.integers(1, 8193))
            values = draw(rng, int(rng.integers(9)), n)
            if rng.random() < 0.5:   # interleave a second kind
                other = draw(rng, int(rng.integers(9)), n)
                values = np.where(np.arange(n) % 2 == 1, other, values)
            values *= rng.choice([1.0, -1.0], n)
            cuts = rng.choice(np.arange(1, n), min(n - 1, rng.integers(8)),
                              replace=False)
            blocks = np.split(values, np.sort(cuts))
            texts = [(str(text, "ascii"), oracle(block)) for block, text
                     in zip(blocks, json_blocks(blocks), strict=True)]
            for columns in csv_blocks(values):
                pieces = csv_rows(columns, csv_workspace(len(values)))
                texts.append((str(b"".join(pieces), "ascii"),
                              csv_oracle(columns)))
            for got, want in texts:
                if got != want:
                    bad += 1
                    print([(g, w) for g, w in zip(got.split("\n"),
                                                  want.split("\n"))
                           if g != w][:5])
            done += n
    print(f"{done} cells, {bad} mismatching blocks")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
