"""Host-speed calibration of request and set-up times.

The single-thread speed of a shared host can switch between levels far
apart (about 1.8x on the 2-core host the benchmark was built on) several
times a second, and a run's median then depends on which level prevailed.
While a `SpeedClock` runs, a timer signal every PERIOD_S interrupts the
process and times one short fixed piece of work, `kernel`, in the signal
handler.  `SpeedClock.scaled` then turns the wall time of each timed
interval into its time at the host speed where the kernel takes REF_S:
the host speed between two samples is taken as the mean of theirs, and the
handler's own time is taken out.  The kernel mixes what the program spends
its time on -- interpreter loops, small numpy arrays and float formatting --
so that both slow down alike.
"""

from __future__ import annotations

import contextlib
import signal
import time
from array import array

import numpy as np

# sampling period, and a typical kernel time on the host the benchmark was
# built on
PERIOD_S = 0.02
REF_S = 5e-4

_M = np.array([[1.0, 0.25], [0.5, 2.0]])
_V = np.linspace(1.0, 2.0, 16)


def kernel() -> float:
    """Wall time of one fixed piece of work, in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(30):
        m = _M @ _M.T + i
        acc += float(np.hypot(m[0, 0], m[1, 1]))
        acc += float(np.sum(np.sin(_V) * _V))
    for i in range(400):
        acc += (i * 0.5) % 7.0
    text = ",".join(["%.17g" % (x * acc) for x in _V] * 4)
    if not text:
        raise AssertionError("kernel produced nothing")
    return time.perf_counter() - t0


class SpeedClock:
    """Samples host speed on a timer signal while in a `with` block."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.at = array("d")      # start of each kernel run
        self.took = array("d")    # its wall time
        self._busy = False
        self._previous = None

    def sample(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        self.at.append(time.perf_counter())
        self.took.append(kernel())
        self._busy = False

    @contextlib.contextmanager
    def paused(self):
        """No samples inside the block, for a block that waits on another
        process: no interval in it can be scaled, and the process that
        waits would run the kernel alongside the one it waits for."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def __enter__(self):
        kernel()    # warm-up, not recorded
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def scaled(self, intervals) -> list:
        """Each (start, end) interval of perf_counter times, scaled to the
        host speed where the kernel takes REF_S, with kernel runs inside it
        taken out.  Every interval must lie within the `with` block."""
        at = np.asarray(self.at)
        speed = REF_S / np.asarray(self.took)
        # speed between two samples: their mean; after the last: its own
        between = np.append((speed[:-1] + speed[1:]) / 2, speed[-1])
        # reference-speed time elapsed up to each sample, and that spent in
        # kernel runs before it
        ref_elapsed = np.concatenate(([0.0], np.cumsum(np.diff(at) * between[:-1])))
        ref_kernel = np.concatenate(([0.0], np.cumsum(np.asarray(self.took)
                                                      * between)))

        def ref_time(t):
            j = np.searchsorted(at, t, side="right") - 1
            if j < 0 or t > at[-1] + self.took[-1]:
                raise ValueError(f"time {t} lies outside the sampled span")
            return ref_elapsed[j] + (t - at[j]) * between[j]

        out = []
        for start, end in intervals:
            first, stop = np.searchsorted(at, [start, end])
            out.append(float(ref_time(end) - ref_time(start)
                             - (ref_kernel[stop] - ref_kernel[first])))
        return out
