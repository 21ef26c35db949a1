"""A fixed reference loop that gauges how fast the host runs at the moment.

On a shared host the speed of a core drifts by a third within seconds to
minutes, and the wall time of one and the same verdict drifts with it: in
two sets of ten runs the middle half of the run medians spread by 20-40 %.
The benchmark therefore runs its verdicts, and each set-up probe, under a
``Gauge``: a timer signal interrupts the work every ``INTERVAL_S`` of wall
time and times one pass of the loop.  A verdict's time is its wall time
less the passes inside it, divided by the mean pass time of its unit, times
``NOMINAL_S``: its time in seconds on a host on which a pass takes
``NOMINAL_S``.  Measured that way a verdict varies by a few per cent where
its wall time varies by 50 %.  A set-up probe is measured the same way.

The loop is pure interpreter arithmetic and shares no code or data with
metsymp, so a change to the program moves the calibrated time by the same
factor as the wall time.  A pass taken inside a verdict runs on caches the
verdict filled and takes ~15 % longer than one taken on its own; that share
is the same on every run.
"""

from __future__ import annotations

import signal
import time

ITERATIONS = 25_000
# Mean pass time inside a verdict on a quiet 2-vCPU x86-64 host, CPython 3.11.
NOMINAL_S = 0.0025
INTERVAL_S = 0.1


def loop() -> float:
    total = 0.0
    for i in range(ITERATIONS):
        total += (i * 0.5) ** 0.5
    return total


class Gauge:
    """Time one pass of the loop every ``interval`` seconds of wall time,
    from a timer signal in the main thread, while the gauge is entered."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.spent = 0.0     # wall time inside passes, handler included
        self.passes = 0
        self.pass_total = 0.0
        self._previous = None

    def clock(self) -> float:
        """``time.perf_counter`` less the time the gauge has taken."""
        return time.perf_counter() - self.spent

    def mark(self) -> tuple[int, float]:
        return self.passes, self.pass_total

    def pass_mean(self, mark: tuple[int, float]) -> float:
        """Mean pass time since ``mark``, taking one pass now if the timer
        has taken none since."""
        passes, total = mark
        if self.passes == passes:
            blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
            try:
                self.take_pass()
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        return (self.pass_total - total) / (self.passes - passes)

    def take_pass(self, signum=None, frame=None) -> None:
        entered = time.perf_counter()
        loop()
        done = time.perf_counter()
        self.passes += 1
        self.pass_total += done - entered
        self.spent += time.perf_counter() - entered

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.take_pass)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def calibrate(seconds: float, pass_mean: float) -> float:
    """``seconds`` measured while a pass took ``pass_mean`` on average, in
    reference seconds."""
    if not pass_mean > 0.0:
        raise ValueError(f"no reference pass time ({pass_mean!r})")
    return seconds * NOMINAL_S / pass_mean
