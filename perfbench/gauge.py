"""A speed gauge for the machine a run is on.

On a shared host the same code can run at speeds up to twice apart from one
minute to the next, and a 25-second run does not average that out. The gauge
is a fixed loop, independent of stacknash, that a run times between ops,
outside the timed op: pure Python for interpreter-bound workloads, numpy for
the Monte Carlo ones. Each op's latency is then scaled to the reference
speed: multiplied by the loop's reference duration over its local median
duration around that op. A change to the program does not move the gauge,
so a scaled figure moves only with the program and with the part of the
host's slowdown that the gauge does not share.

Only the array loop needs numpy, and it imports it when first used, so that
run.py can use the interpreter loop with the standard library alone.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from array import array

REPEATS = 3                 # loop runs per sample; a sample is their median
PERIOD_NS = 10_000_000      # a run takes a sample after an op once this has passed
WINDOW_NS = 250_000_000     # an op is scaled by the median of samples this near


class Loop:
    """A fixed piece of work and its duration at the reference speed, the
    faster of the speeds seen on a shared 2-vCPU Intel Xeon virtual
    machine. Scaled figures read as the raw ones would at that speed."""

    def __init__(self, make, reference_ns: int):
        self._make = make
        self._run = None
        self.reference_ns = reference_ns

    def run(self):
        if self._run is None:
            self._run = self._make()
        return self._run()


def _interpreter_loop():
    def run() -> float:
        total = 0.0
        for i in range(300):
            total += math.sqrt(i * 1.5 + 1.0) / (i + 1.0)
        return total
    return run


def _array_loop():
    """numpy work that allocates its arrays, as the Monte Carlo layer does."""
    import numpy as np
    grid = np.linspace(0.0, 1.0, 200_000)
    return lambda: float(np.exp(-0.7 * grid).sum())


#: For interpreter-bound workloads (the solver, sweeps) and for set-up.
INTERPRETER = Loop(_interpreter_loop, 45_000)
#: For the numpy-bound Monte Carlo workloads, which the host slows less. Its
#: reference is 14.8 times the interpreter loop's, the median ratio of their
#: durations measured side by side, so that both read the same speed there.
ARRAY = Loop(_array_loop, 666_000)


def sample(loop: Loop = INTERPRETER, clock=time.perf_counter_ns) -> int:
    """The median duration of REPEATS runs of the loop, in ns."""
    durations = []
    for _ in range(REPEATS):
        t0 = clock()
        loop.run()
        durations.append(clock() - t0)
    return int(statistics.median(durations))


class Gauge:
    """Samples of one loop taken during a run, each with the time it was
    taken."""

    def __init__(self, loop: Loop = INTERPRETER):
        self.loop = loop
        self.at = array("q")
        self.ns = array("q")

    def take(self, clock=time.perf_counter_ns) -> None:
        self.ns.append(sample(self.loop, clock))
        self.at.append(clock())

    def due(self, now: int) -> bool:
        return not self.at or now - self.at[-1] >= PERIOD_NS

    def local_medians(self) -> list[float]:
        """For each sample, the median of the samples within WINDOW_NS of it."""
        out = []
        for t in self.at:
            lo = bisect.bisect_left(self.at, t - WINDOW_NS)
            hi = bisect.bisect_right(self.at, t + WINDOW_NS)
            out.append(statistics.median(self.ns[lo:hi]))
        return out

    def scale(self, latency, sample_of_op) -> list[float]:
        """Latencies scaled to the reference speed; op k is scaled by the
        local median around its sample ``sample_of_op[k]``."""
        local = self.local_medians()
        reference = self.loop.reference_ns
        return [lat * reference / local[j]
                for lat, j in zip(latency, sample_of_op)]

    def speed(self) -> float:
        """The run's median speed relative to the reference (1 = reference)."""
        if not self.ns:
            return math.nan
        return self.loop.reference_ns / statistics.median(self.ns)
