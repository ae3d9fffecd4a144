"""Sweep of the loss floor the program claims over seeded random configs.

    PYTHONPATH=src python tests/floor_sweep.py [N [SEED]]

Draws random_config(np.random.default_rng(SEED + i)) for i < N (default
N = 20,000, SEED = 0) and evaluates full_optimal over 60 log-spaced points
in 1 Hz - 10 kHz.  The claim checked is the internal-loss floor: for every
readout and input state, full_optimal >= prefactor * eps_int, which is
loss_limit with eps_ext = 0.  Exits 1 naming each draw and frequency where
it fails, or where a draw raises a DegeneracyError.  Prints the lowest
full_optimal / floor and, for information only, the lowest full_optimal /
loss_limit_a4: that reference includes the readout-loss term, which an
amplifying internal squeeze beats.
"""

import sys
from dataclasses import replace

import numpy as np

from qnbudget import (ALPHA_NO_INTERNAL, DegeneracyError, evaluate_curve,
                      loss_limit, random_config)

F_HZ = np.geomspace(1.0, 1e4, 60)
OMEGA = 2 * np.pi * F_HZ


def main(argv) -> int:
    n = int(float(argv[1])) if len(argv) > 1 else 20000
    seed = int(argv[2]) if len(argv) > 2 else 0
    worst = dict.fromkeys(("floor", "loss_limit_a4"), (np.inf, None, None))
    bad = 0
    for i in range(n):
        cfg = random_config(np.random.default_rng(seed + i))
        try:
            s_opt = evaluate_curve("full_optimal", cfg, F_HZ)
        except DegeneracyError as exc:
            bad += 1
            print(f"seed {seed + i}: {exc}")
            continue
        floors = {"floor": loss_limit(replace(cfg, eps_ext=0.0), OMEGA,
                                      ALPHA_NO_INTERNAL),
                  "loss_limit_a4": loss_limit(cfg, OMEGA, ALPHA_NO_INTERNAL)}
        for name, floor in floors.items():
            ratio = s_opt / floor
            k = int(np.argmin(ratio))
            if ratio[k] < worst[name][0]:
                worst[name] = (ratio[k], seed + i, F_HZ[k])
        below = np.flatnonzero(s_opt < floors["floor"])
        if below.size:
            bad += 1
            print(f"seed {seed + i}: full_optimal below the floor at "
                  f"{F_HZ[below[0]]:.6g} Hz ({s_opt[below[0]]:.6e} < "
                  f"{floors['floor'][below[0]]:.6e})")
    for name, (ratio, at, f_hz) in worst.items():
        print(f"lowest full_optimal / {name}: {ratio:.6f} "
              f"(seed {at}, {f_hz:.6g} Hz)")
    print(f"{n} draws, {bad} failing")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
