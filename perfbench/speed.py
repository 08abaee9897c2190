"""Host speed: scale the benchmark's times to a fixed reference speed.

On a shared host the same CPU-bound Python code runs up to about 1.7
times slower for seconds to minutes at a time, as other tenants load the
physical core under each virtual CPU.  The two virtual CPUs change speed
independently, and CPU time slows exactly as much as wall time.  Means
of 30 s windows of a fixed loop then differ by about 20% (interquartile
range over median), so raw wall times of CPU-bound jobs cannot tell a
10% change of the program from a change of the host.

``SpeedSampler`` measures the speed the job itself gets.  While a job
runs, an interval timer (``SIGALRM``) runs ``calibrate``, a fixed
pure-Python loop that touches nothing of ``repro``, every ``INTERVAL``
seconds on the job's own thread, and records how long the loop took
(``SpeedThread`` does the same from a thread, for the daemon).  A
job's *scaled time* is its wall time minus the sampler's own time, times
``REFERENCE_LOOP_S`` over the mean loop time during the job: the seconds
the job would take on a host where the loop takes ``REFERENCE_LOOP_S``.
A change to ``repro`` that makes a job do more work moves the scaled
time as much as the wall time; a change of host speed moves the job and
the loop alike and cancels out.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
import threading
import time
from pathlib import Path
from typing import List, Tuple

#: Seconds between two speed samples while a job runs.
INTERVAL = 0.02

#: Samples within this many seconds of a job also count for its speed, so
#: that jobs shorter than a few ``INTERVAL``\ s still get several.
MARGIN = 0.1

#: Sides of the grid ``calibrate`` walks: 9 * 7 * 4 = 252 states.
GRID = (9, 7, 4)

#: The loop time that scaled times refer to: about the median loop time
#: during ``adversary`` jobs on the 2-vCPU Xeon VM the benchmark was built
#: on, so scaled times there read close to wall times.
REFERENCE_LOOP_S = 3.0e-4


def calibrate() -> float:
    """Seconds one run of the fixed calibration loop takes.

    The loop is a depth-first search over a small grid of tuple states
    with a visited set: tuple building, hashing and set probes, like the
    explorers the workloads time.  Of the loops tried (integer
    arithmetic, tuple/set search, large-dict probes, short sorts), its
    time tracked repeated ``repro adversary rounds:5`` jobs closest:
    scaling by it cut their coefficient of variation from 0.093 to
    0.031, against 0.049 for plain arithmetic.  The collector is off
    during the loop, so a sample never pays for a collection of the
    job's objects.
    """
    enabled = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    a_side, b_side, c_side = GRID
    seen = set()
    stack = [(0, 0, 0)]
    while stack:
        a, b, c = stack.pop()
        for state in (((a + 1) % a_side, b, c), (a, (b + 1) % b_side, c),
                      (a, b, (c + 1) % c_side)):
            if state not in seen:
                seen.add(state)
                stack.append(state)
    elapsed = time.perf_counter() - started
    if enabled:
        gc.enable()
    return elapsed


class SpeedSampler:
    """Samples the speed the calling thread gets between ``start`` and
    ``stop``: once at each end, and every ``INTERVAL`` seconds between.

    Must be used from the main thread (signal handlers run there).
    """

    def __init__(self, interval: float = INTERVAL) -> None:
        self.interval = interval
        #: (start, seconds) of each loop sample.
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        started = time.perf_counter()
        self.samples.append((started, calibrate()))

    def start(self) -> "SpeedSampler":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def own_s(self, begin: float, end: float) -> float:
        """Seconds the sampler itself ran inside ``[begin, end]``."""
        return sum(s for at, s in self.samples if begin <= at < end)

    def loop_s(self, begin: float = float("-inf"),
               end: float = float("inf")) -> float:
        """Mean loop time over the samples within ``MARGIN`` of
        ``[begin, end]`` (over all samples when there are none)."""
        near = [s for at, s in self.samples
                if begin - MARGIN <= at < end + MARGIN]
        return statistics.mean(near or [s for _, s in self.samples])

    def scaled(self, begin: float, end: float) -> float:
        """The span ``[begin, end]`` without the sampler, at reference
        speed.  ``perf_counter`` is the system-wide monotonic clock, so
        the span may come from another process than the samples."""
        own = self.own_s(begin, end)
        return (end - begin - own) * REFERENCE_LOOP_S / self.loop_s(begin,
                                                                   end)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.samples))

    @classmethod
    def load(cls, path: Path) -> "SpeedSampler":
        sampler = cls()
        sampler.samples = [tuple(pair) for pair in json.loads(
            path.read_text())]
        return sampler


class SpeedThread(SpeedSampler):
    """The same samples, taken by a thread of their own.

    For the ``repro serve`` daemon, whose jobs run on worker threads
    while its main thread waits: the sampler thread shares their CPU
    (the benchmark pins the daemon to one) and their interpreter lock,
    and so the speed they get.
    """

    def start(self) -> "SpeedThread":
        self.samples = []
        self._done = threading.Event()
        self._sample()
        self._thread = threading.Thread(
            target=self._run, name="perfbench-speed", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._done.wait(self.interval):
            self._sample()

    def stop(self) -> None:
        self._done.set()
        self._thread.join()
        self._sample()
