"""Machine-speed calibration for the benchmark's timings.

On a shared virtual machine the interpreter's speed drifts by tens of
percent over tens of seconds, which is wider than any useful regression
bound; CPU time drifts with it.  A daemon thread therefore times a fixed
reference kernel every PERIOD_S while the measurement runs, and each timing
is rescaled to the nominal speed at which the kernel takes NOMINAL_S:

    normalised seconds = wall seconds * mean(NOMINAL_S / kernel seconds)

over the kernel timings inside the measured interval: the timings are
evenly spaced in time, so the mean is the interval's average speed.  An
interval too short to hold MIN_SAMPLES timings (a set-up takes about 0.1 s)
is topped up with timings taken right after it.  The kernel does not call
charp_autos, so a change to the library cannot move it; it mimics the
library's hot loops (tuple keys in a dict, small integers mod p) so that it
slows down as they do.  It takes the GIL for about 0.2 ms every 20 ms, a
fixed cost of about 1% of every measured interval.

The kernel shares the measured process's allocator, garbage collector and
caches, so a library change that grows the live heap could move it and
rescale part of its own cost away.  `selftest.py --full` checks that it
does not: with 2M extra live tuples the scale stays within 5% of a light
heap's (0.985, 0.987 and 1.004 of it in three runs).
"""

import statistics
import threading
import time

PERIOD_S = 0.02
NOMINAL_S = 2.0e-4
MIN_SAMPLES = 10

_A = {(i, j): (3 * i + j) % 7 + 1 for i in range(6) for j in range(4)}
_B = {(i, j): (i + 5 * j) % 7 + 1 for i in range(4) for j in range(5)}


def reference_kernel():
    """A sparse bivariate product over F_7 on plain dicts."""
    out = {}
    for (a1, b1), c1 in _A.items():
        for (a2, b2), c2 in _B.items():
            key = (a1 + a2, b1 + b2)
            out[key] = (out.get(key, 0) + c1 * c2) % 7
    return out


def sample():
    """(monotonic end time, seconds) of one timed reference kernel."""
    start = time.perf_counter()
    reference_kernel()
    return time.monotonic(), time.perf_counter() - start


class SpeedProbe:
    """Times the reference kernel every PERIOD_S from a daemon thread."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            self.samples.append(sample())

    def scale(self, start, end):
        """Factor that rescales wall time spent in [start, end] (monotonic
        clock) to the nominal speed."""
        ds = [d for t, d in list(self.samples) if start <= t <= end]
        ds += [sample()[1] for _ in range(MIN_SAMPLES - len(ds))]
        return statistics.fmean(NOMINAL_S / d for d in ds)
