"""Machine-speed reference: a fixed pure-Python loop timed all through a measurement.

On a shared machine the speed of a core drifts by a fifth or more, both
within seconds and over minutes, so raw times of the same code disagree from
run to run far more than the changes the benchmark must catch.  While an
operation runs, ``Sampler`` times a short reference loop every
``INTERVAL_S`` of wall time, from a ``SIGALRM`` handler in the same thread.
The operation's time, less the time spent in the loop, is then reported at
the loop's nominal speed ("reference seconds"):

    t_ref = (t - loop time) * NOMINAL_S / mean(loop samples)

The loop is benchmark code, so no change to the program can alter it.  Raw
times are kept next to the scaled ones in the full report.
"""

from __future__ import annotations

import signal
import time

ITERATIONS = 12_000
NOMINAL_S = 0.0016       # the loop's median time on the 2-core box the benchmark was written on
INTERVAL_S = 0.1


def reference_s(iterations: int = ITERATIONS) -> float:
    """Wall time of the reference loop: list indexing, dict stores, integer math."""
    table = list(range(64))
    seen: dict[int, int] = {}
    acc = 0
    t0 = time.perf_counter()
    for i in range(iterations):
        j = (i * 40503) % 64
        acc = (acc + table[j]) & 0xFFFF
        seen[j] = acc
    return time.perf_counter() - t0


def samples(count: int = 5) -> list[float]:
    """``count`` back-to-back timings of the reference loop."""
    return [reference_s() for _ in range(count)]


def scaled(seconds: float, refs: list[float]) -> float:
    """``seconds`` expressed at the nominal speed, given loop timings ``refs``."""
    return seconds * NOMINAL_S * len(refs) / sum(refs)


class Sampler:
    """Times the reference loop every ``INTERVAL_S`` of wall time while active."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.samples.append(reference_s())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def drain(self) -> list[float]:
        """The samples taken since the last drain."""
        out, self.samples = self.samples, []
        return out
