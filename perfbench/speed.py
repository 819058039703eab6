"""A machine-speed index, sampled between the timed steps of a workload.

On a shared virtual machine the CPU time of a fixed piece of work drifts
by up to 2x over minutes, as neighbours load the shared caches and memory.
To keep runs comparable, the runner times a fixed reference kernel in
short bursts and multiplies every timed step of the run by
NOMINAL_S / (median kernel time over the run).  The result is seconds at
nominal speed, the speed at which the kernel takes NOMINAL_S.

A burst never runs inside a timed step: the runner asks for one at each
step boundary, and one is taken when PERIOD_S CPU seconds have passed
since the last.  Each burst starts with an untimed kernel call that
reloads the kernel's working set, which the step before it may have
evicted, so the timed calls measure the machine and not the cache state
the program left behind.

The kernel mixes what the solvers spend their time on: random-access
accumulation over a 4 MB array, an in-place sort, and an interpreter loop.
It allocates no Python objects that the garbage collector tracks, so its
cost does not depend on the program's heap.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

PERIOD_S = 1.0  # CPU seconds between bursts, at most
BURST = 6  # timed kernel calls per burst
NOMINAL_S = 0.003  # kernel time that defines nominal speed


class SpeedProbe:
    """Times the reference kernel in bursts, when asked."""

    def __init__(self, period: float = PERIOD_S, burst: int = BURST):
        rng = np.random.default_rng(20240305)
        self._idx = rng.integers(0, 1 << 19, size=1 << 17)
        self._acc = np.zeros(1 << 19)
        self._keys = rng.random(1 << 16)
        self._buf = np.empty_like(self._keys)
        self.kernel()  # first call pays page faults and cold caches
        self.period = period
        self.burst = burst
        self.samples: list[float] = []
        self._last: float | None = None  # process CPU time at the last burst

    def kernel(self) -> int:
        np.add.at(self._acc, self._idx, 1.0)
        self._buf[:] = self._keys
        self._buf.sort()
        total = 0
        for i in range(20_000):
            total += i & 7
        return total

    def time_kernel(self) -> float:
        """Wall seconds of one kernel call.

        Wall time, because the process CPU clock advances in scheduler
        ticks on some kernels, too coarse for a 3 ms kernel.  Medians over
        many calls discard those that the hypervisor preempted.
        """
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0

    def sample(self) -> list[float]:
        """One burst: a warm-up call, then ``burst`` timed calls."""
        self.kernel()
        times = [self.time_kernel() for _ in range(self.burst)]
        self.samples.extend(times)
        self._last = time.process_time()
        return times

    def maybe_sample(self) -> None:
        """A burst, if ``period`` CPU seconds have passed since the last."""
        if self._last is None or time.process_time() - self._last >= self.period:
            self.sample()

    def scale(self, samples=None) -> float:
        """Multiply measured CPU seconds by this to get nominal-speed seconds.

        ``samples`` defaults to every kernel time taken so far.
        """
        return NOMINAL_S / statistics.median(self.samples if samples is None else samples)
