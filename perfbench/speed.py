"""Host speed reference: times that do not follow the host's slow phases.

The shared host this benchmark was built on (2 vCPUs of an Intel Xeon)
runs single-threaded Python at a speed that changes in phases of seconds to
minutes: a fixed loop reads 1.0-2.0x its fastest time depending on the
phase.  A phase slows every op run during it, so a run that falls into slow
phases reads slow as a whole, and no number of repetitions inside one run
fixes that.

So the benchmark times a fixed reference kernel (``kernel``: a loop of
Python integer arithmetic, then small numpy products and QR
factorisations, about half the time each) every ``EVERY_S`` seconds, from a timer signal
that also fires inside ops, and divides each op's time by the host's
slowness during it: the median kernel time within ``WINDOW_S`` of the op,
over ``REFERENCE_S``.  Time spent in kernel samples is taken out of every
time the benchmark reads (``clock``).  ``REFERENCE_S`` is the kernel's time
in the host's fast phases, so a normalised time reads as the op's time at
that speed.  Averaged over one-second buckets, the
classify and count ops slowed by about the same factor as this kernel
(log-log slope 1.0-1.2, correlation 0.89-0.98); verify ops slowed less
(slope 0.5-0.8), so their normalised times still carry part of the phases,
in the other direction.  Sixteen runs of the 9008-entry classify anchor,
with a pure-loop kernel, varied by 17% (coefficient of variation) raw and
by 7% normalised.  The kernel is part
of the benchmark, not of geodiag, so a change to the program moves the op
times and leaves the kernel alone.  Raw times stay in each run's report.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

KERNEL_LOOPS = 13000
KERNEL_SUM = sum((j * j) % 7 for j in range(KERNEL_LOOPS))
KERNEL_QR_STEPS = 11
_MATRIX = np.random.default_rng(7).standard_normal((8, 8))
#: Kernel time (best of two back-to-back calls) in the host's fast phases.
REFERENCE_S = 1.0e-3
#: Least time between two kernel samples.
EVERY_S = 0.025
#: Kernel samples within this distance of an op judge the host's speed for it.
WINDOW_S = 0.1
#: When the window holds fewer samples, the nearest this many are used.
MIN_SAMPLES = 5


_paused = 0.0


def clock() -> float:
    """``time.perf_counter`` without the time spent taking kernel samples."""
    return time.perf_counter() - _paused


def kernel() -> float:
    """Time one fixed piece of work: integer arithmetic, then small numpy steps."""
    t0 = time.perf_counter()
    acc = 0
    for j in range(KERNEL_LOOPS):
        acc += (j * j) % 7
    m = _MATRIX
    for _ in range(KERNEL_QR_STEPS):
        m = np.linalg.qr(m @ _MATRIX.T)[0]
    t1 = time.perf_counter()
    if acc != KERNEL_SUM or not np.isfinite(m).all():
        raise RuntimeError("reference kernel went wrong")
    return t1 - t0


class Speedometer:
    """Kernel samples over a run, and the host's slowness at any time of it."""

    def __init__(self):
        self.at: list[float] = []
        self.kernel_s: list[float] = []
        self._running = False
        for _ in range(10):  # warm the kernel's code path
            kernel()
        self.sample()

    def sample(self) -> None:
        global _paused
        t0 = time.perf_counter()
        self.at.append(t0 - _paused)
        self.kernel_s.append(min(kernel(), kernel()))
        _paused += time.perf_counter() - t0

    def start(self) -> None:
        """Sample every ``EVERY_S`` seconds from SIGALRM until ``stop``."""
        self._running = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S)

    def stop(self) -> None:
        # A tick already pending runs after the timer is disarmed and must not
        # re-arm it, and a late SIGALRM must not end the process.
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self.sample()

    def _tick(self, signum, frame) -> None:
        self.sample()
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, EVERY_S)  # one-shot, so ticks never nest

    def slowness(self, t0: float, t1: float) -> float:
        """Median kernel time around ``clock`` times [t0, t1], over the fast-phase reference."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.at, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.at) - MIN_SAMPLES))
            hi = min(len(self.at), lo + MIN_SAMPLES)
        return statistics.median(self.kernel_s[lo:hi]) / REFERENCE_S
