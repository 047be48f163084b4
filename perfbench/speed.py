"""Machine-speed sampling for a shared, noisy host.

On a small shared machine the effective speed of a core drifts by 20-35 %
over seconds as neighbours come and go, and CPU time drifts with wall time,
so neither gives steady numbers on its own. While a round runs, an interval
timer interrupts the process every ``EVERY_S`` and times a fixed reference
kernel of about a millisecond. An operation's time is its wall time minus
the kernel time spent inside it, times ``NOMINAL_S / k``, where ``k`` is
the mean kernel time over the operation (widened to ``WINDOW_S`` around
short operations). Reported times are thus seconds at the speed at which
the kernel takes ``NOMINAL_S``; plain wall times are kept in the run record.

The kernel does the kinds of work the program does, in code of its own
that no change to the program touches: small matrix-vector products and
float formatting.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

NOMINAL_S = 1e-3  # about the kernel's time on an idle 2-core x86-64 VM
EVERY_S = 0.05
WINDOW_S = 2.0

_MATRIX = np.linspace(-0.05, 0.05, 256).reshape(16, 16)
_VALUES = np.linspace(-1.0, 1.0, 60) * np.pi


def kernel_seconds() -> float:
    start = time.perf_counter()
    y = np.ones(16)
    for _ in range(300):
        y = _MATRIX @ y + 1.0
    ",".join(f"{v:.16e}" for v in _VALUES)
    return time.perf_counter() - start


class SpeedSampler:
    """Timestamped kernel samples, taken by the timer or on request."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._sampling = False

    def sample(self, count: int = 1) -> None:
        self._sampling = True
        try:
            for _ in range(count):
                start = time.perf_counter()
                self.seconds.append(kernel_seconds())
                self.starts.append(start)
        finally:
            self._sampling = False

    def _on_timer(self, signum, frame) -> None:
        # a tick during a sample is skipped, so ``starts`` stays sorted
        if not self._sampling:
            self.sample()

    @contextmanager
    def running(self):
        """Sample every ``EVERY_S`` for the duration of the block."""
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def _between(self, lo: float, hi: float) -> slice:
        return slice(bisect.bisect_left(self.starts, lo), bisect.bisect_right(self.starts, hi))

    def stolen(self, start: float, end: float) -> float:
        """Kernel time spent inside ``[start, end]``."""
        return sum(self.seconds[self._between(start, end)])

    def scale(self, start: float, end: float) -> float:
        """``NOMINAL_S`` over the mean kernel time around ``[start, end]``."""
        pad = max(0.0, WINDOW_S - (end - start)) / 2.0
        window = self.seconds[self._between(start - pad, end + pad)]
        if not window:
            self.sample(5)
            window = self.seconds[-5:]
        return NOMINAL_S / statistics.fmean(window)
