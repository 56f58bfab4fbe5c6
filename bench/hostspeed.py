"""Host speed: a fixed pure-Python kernel timed between instances.

On a shared virtual machine the same work takes up to a quarter more or
less CPU time from one minute to the next, because the host's other
guests share its caches and cores.  That drift is larger than the change
a benchmark bound is meant to catch.  The kernel below does the kind of
work the package does (reachability over adjacency bitmasks, a generator
over set bits, list and int operations) and never touches the package, so
a change to the package does not change its time, while a slower host
slows it as much as it slows the package.

The timed loop runs the kernel every SLICE_NS of CPU time.  Each instance
is scaled by ``REFERENCE_NS / local kernel time``, which gives its time on
a host as fast as the one the reference was recorded on.  The local kernel
time is the mean of the samples just before and just after the instance.
The host's speed changes within a second: over 2-s windows of sweep-mix9,
the median latency scaled this way varied by 0.016 (coefficient of
variation), against 0.055 scaled by the window's median kernel time and
0.093 unscaled.
"""

from __future__ import annotations

import random
import statistics
import time

N = 24                      # vertices of the kernel's fixed digraph
REPS = 5                    # sweeps over all N start vertices per sample
REFERENCE_NS = 1_750_000    # the kernel's CPU time on the recording host (Xeon, 2 vCPU)
SLICE_NS = 40_000_000       # CPU time of workload between two samples
SETUP_SAMPLES = 5           # kernel runs at the end of a set-up

_rng = random.Random(20_12_03742)
ROWS = tuple(_rng.getrandbits(N) & ~(1 << u) for u in range(N))


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def kernel() -> int:
    """Reachable-set sizes from every vertex, REPS times; a fixed amount of work."""
    total = 0
    rows = ROWS
    for _ in range(REPS):
        for s in range(N):
            seen = 1 << s
            stack = [s]
            while stack:
                new = rows[stack.pop()] & ~seen
                seen |= new
                stack.extend(_bits(new))
            total += seen.bit_count()
    return total


def sample(run=kernel) -> int:
    """CPU ns of one kernel run (``run`` may be the kernel wrapped in a span)."""
    clock = time.process_time_ns
    a = clock()
    run()
    return clock() - a


def scales(samples: list[tuple[int, int]], count: int) -> list[float]:
    """``REFERENCE_NS / local kernel time`` for instances 0..count-1.

    ``samples`` holds (i, ns): a kernel run of ``ns`` CPU ns made just
    before instance i, in increasing i, the first at 0 and the last at
    ``count``.  Instance i takes the mean of the samples on either side of it.
    """
    out: list[float] = []
    for (lo, a), (hi, b) in zip(samples, samples[1:]):
        out.extend([2 * REFERENCE_NS / (a + b)] * (hi - lo))
    return out[:count]


class SetupClock:
    """CPU time of a process's set-up, scaled to the reference host speed.

    ``tick()`` between steps of the set-up runs the kernel once every
    SLICE_NS of CPU time; ``seconds()`` adds SETUP_SAMPLES more runs and returns
    the process's CPU time so far, less the kernel's, scaled by the median
    of all the runs.
    """

    def __init__(self) -> None:
        self.ns: list[int] = []
        self.paused = 0
        self.next = time.process_time_ns() + SLICE_NS

    def tick(self) -> None:
        c = time.process_time_ns()
        if c >= self.next:
            self.ns.append(sample())
            self.paused += time.process_time_ns() - c
            self.next = c + SLICE_NS

    def seconds(self) -> tuple[float, float]:
        """(scaled, unscaled) CPU seconds of the set-up."""
        raw = (time.process_time_ns() - self.paused) / 1e9
        self.ns.extend(sample() for _ in range(SETUP_SAMPLES))
        return raw * REFERENCE_NS / statistics.median(self.ns), raw
