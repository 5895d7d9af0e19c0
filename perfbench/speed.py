"""The machine's speed while a pass runs, and times in reference seconds.

On a shared VM the same work can take twice as long from one second to
the next, and a slow spell can last minutes, so raw times of two runs of
the same code differ by more than any change worth measuring.  The child
therefore runs :class:`SpeedProbe`: every ``PERIOD_S`` of wall time a timer
signal times one run of a fixed calibration kernel.  The kernel is the
benchmark's own code and never changes with the program, so its time
follows only the machine.  :func:`reference_seconds` turns a stretch of
wall time into reference seconds, the time the same stretch would have
taken at the speed where one kernel run takes ``KERNEL_REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

PERIOD_S = 0.01
# The kernel's median time on a 2-vCPU Xeon VM at 2.0 GHz, Python 3.11.7.
KERNEL_REFERENCE_S = 0.0005


def calibration_kernel() -> int:
    """Fixed interpreter work of the kinds convfib does: Fraction sums,
    growing big integers and list building."""
    acc = Fraction(0)
    for k in range(1, 90):
        acc += Fraction(k, 2 * k + 1)
    x = 1
    for k in range(1, 450):
        x = x * 3 + k
    return acc.numerator + sum([k * x for k in range(150)])


class SpeedProbe:
    """Times the calibration kernel from a timer signal.

    ``samples`` holds the (start, end) wall time of every kernel run;
    ``wall_s`` and ``cpu_s`` add up the time spent in them, for the
    requests to leave out.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._busy = False

    def sample(self, *_signal) -> None:
        if self._busy:  # the timer fired again inside a stalled sample
            return
        self._busy = True
        wall0, cpu0 = time.perf_counter(), time.process_time()
        calibration_kernel()
        wall1, cpu1 = time.perf_counter(), time.process_time()
        self.samples.append((wall0, wall1))
        self.wall_s += wall1 - wall0
        self.cpu_s += cpu1 - cpu0
        self._busy = False

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def reference_seconds(
    samples: list[tuple[float, float]], spans: list[tuple[float, float]]
) -> list[float]:
    """The reference seconds in each wall interval (start, end) of ``spans``.

    Each stretch between two kernel runs counts at the mean speed of the
    two; the kernel runs themselves do not count.  ``samples`` must be in
    time order and must cover the spans (the probe samples once before the
    first request and once after the last).
    """
    starts = [a for a, _ in samples]
    speeds = [KERNEL_REFERENCE_S / (b - a) for a, b in samples]
    out = []
    for start, end in spans:
        total = 0.0
        for j in range(max(bisect.bisect_right(starts, start) - 1, 0), len(samples) - 1):
            gap_start, gap_end = samples[j][1], samples[j + 1][0]
            if gap_start >= end:
                break
            overlap = min(end, gap_end) - max(start, gap_start)
            if overlap > 0:
                total += overlap * (speeds[j] + speeds[j + 1]) / 2
        out.append(total)
    return out
