"""Host-speed sampling, so that host time measures the code, not the host.

The machines this benchmark runs on are shared: the speed of one CPU
swings by a factor of two within a second and drifts over minutes
while nothing in the run changes.  While a run measures, a
:class:`Sampler` interrupts it every ``INTERVAL_S`` seconds (a
``SIGALRM`` timer, handled in the main thread between bytecodes) to
time a short fixed job of the kind the simulator does -- small numpy
masks, a heap, dict traffic -- that the program cannot change.  The
job keeps a small working set on purpose: a walk over megabytes of
objects tracked memory contention better within one process, but its
speed also depended on where its objects landed in memory, which
differs from process to process, and that made whole runs read 30%
off.  Each timed interval then loses the time the samples took inside
it and is scaled by how fast its own samples ran, or, when it is too
short to hold ``OWN_SAMPLES`` of them, by how fast the ``OWN_SAMPLES``
samples nearest its middle ran.  The speed swings within a phase, so
a whole phase's figure misjudges a short interval taken in a slow or a
fast stretch of it.  How fast is the median sample time: a sample that
a context switch or an interrupt caught (the daemon shares the CPU on
``service-smoke``) runs long for reasons that do not slow the program
alike, and a mean let a few of them move whole phases by 10-20%:

    normalised = (measured - sampling time) * NOMINAL_S / (median sample time)

``NOMINAL_S`` is a constant: the job's median thread CPU time on the
host where the benchmark was defined, so normalised figures read as
that host's seconds.  A sample's duration is its own thread CPU time,
which leaves out any wait for the interpreter lock.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import statistics
import time
from array import array
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: Thread CPU seconds of one sample on the defining host (see README).
NOMINAL_S = 0.0003

#: Seconds between samples.
INTERVAL_S = 0.01

#: Rounds of the sampled job.
_ROUNDS = 40

#: Samples an interval needs inside it to be scaled by its own speed.
OWN_SAMPLES = 20

clock = time.perf_counter


class Sampler:
    """Times a fixed job every ``INTERVAL_S`` seconds while entered.

    Samples run in the main thread, inside whatever it was doing, and
    are kept as (wall start, wall end, thread CPU seconds) in flat
    arrays: thousands of small long-lived objects scattered among the
    program's allocations would pin memory arenas and inflate its
    peak resident memory.  For the same reason the job keeps nothing
    between samples.
    """

    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self.cpu = array("d")
        self._previous = None

    @staticmethod
    def job() -> int:
        """The sampled job; returns a checksum so nothing is skipped."""
        acc = 0
        lanes = np.arange(64, dtype=np.int64)
        heap: List[Tuple[int, int]] = []
        table: Dict[int, int] = {}
        for i in range(_ROUNDS):
            mask = (lanes & (i | 1)) != 0
            acc += int(np.where(mask, lanes * 3, lanes)[i & 63])
            heapq.heappush(heap, (acc & 1023, i))
            if len(heap) > 16:
                heapq.heappop(heap)
            table[acc & 127] = table.get(acc & 127, 0) + 1
        return acc + len(table)

    def sample(self, *_) -> None:
        start = clock()
        cpu = time.thread_time()
        self.job()
        cpu = time.thread_time() - cpu
        self.cpu.append(cpu)
        self.starts.append(start)
        self.ends.append(clock())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def scale(self, a: float, b: float) -> float:
        """NOMINAL_S over the median sample time within [a, b]: the
        factor that turns seconds spent in [a, b] into nominal-host
        seconds."""
        inside = self.cpu[bisect.bisect_left(self.starts, a):bisect.bisect_right(self.ends, b)]
        if not inside:
            raise ValueError("no host-speed sample within [%r, %r]" % (a, b))
        return NOMINAL_S / statistics.median(inside)

    def normalise(self, a: float, b: float, scale: float) -> float:
        """The interval [a, b], less the samples taken inside it, times
        ``scale`` (from :meth:`scale` or :meth:`nearby_scale`)."""
        first = bisect.bisect_left(self.starts, a)
        last = bisect.bisect_right(self.ends, b)
        busy = sum(self.ends[i] - self.starts[i] for i in range(first, last))
        return (b - a - busy) * scale

    def nearby_scale(self, a: float, b: float) -> float:
        """:meth:`scale` over the ``OWN_SAMPLES`` samples nearest the
        middle of [a, b], for an interval too short to hold that many."""
        if len(self.cpu) < OWN_SAMPLES:
            raise ValueError("%d host-speed samples, need %d" % (len(self.cpu), OWN_SAMPLES))
        middle = bisect.bisect_left(self.starts, (a + b) / 2)
        first = min(max(0, middle - OWN_SAMPLES // 2), len(self.cpu) - OWN_SAMPLES)
        return NOMINAL_S / statistics.median(self.cpu[first:first + OWN_SAMPLES])

    def phase(self, intervals: Sequence[Tuple[float, float]]) -> List[float]:
        """Each interval normalised: with its own samples when it holds
        at least ``OWN_SAMPLES`` of them, else with the ``OWN_SAMPLES``
        samples nearest its middle -- a short interval holds too few
        samples to judge its own speed."""
        out = []
        for a, b in intervals:
            inside = bisect.bisect_right(self.ends, b) - bisect.bisect_left(self.starts, a)
            scale = self.scale(a, b) if inside >= OWN_SAMPLES else self.nearby_scale(a, b)
            out.append(self.normalise(a, b, scale))
        return out
