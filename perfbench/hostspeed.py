"""How fast the host runs right now, so wall-clock times can be scaled.

The benchmark shares its CPUs with other tenants, and how fast a CPU
runs drifts by several times within minutes while it stays steady for
seconds.  A wall-clock time alone therefore tells the host's load as
much as the program's speed.  So every time is reported in *reference
seconds*: wall seconds divided by the host's slowdown, where the
slowdown is how long a fixed probe takes now, relative to
``REFERENCE_UNIT_S``.

The probe, nothing from ``repro``, does the kinds of work the program
spends its time on: a pure-Python loop, numpy sorting and gathering,
and random lookups in a dict too big for a CPU's private caches (the
functional pass's cache state is such dicts, and work of that kind is
the most sensitive to the host's load).  It runs once on each CPU the
benchmark may use, only while the program is idle (between closed-loop
rounds and between set-up processes), and is timed in the probing
thread's own CPU time: where the hypervisor reports no stolen time, a
slower host stretches that as much as wall time, but time the probe
spends waiting for a CPU held by some other process does not count, so
neither the program nor anything else running beside the probe can
change its reading.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import time

import numpy as np

#: The scale of reference seconds: a reference second is a second on a
#: host where one probe unit takes this long.
REFERENCE_UNIT_S = 0.020
#: Units timed per CPU; their median is that CPU's time.
REPEATS = 3


class Probe:
    """The probe's inputs, built once, and its timing."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._values = rng.random(200_000)
        self._index = rng.integers(0, self._values.size, self._values.size)
        keys = random.Random(12345).sample(range(10_000_000), 300_000)
        self._table = dict.fromkeys(keys, 1)
        self._lookups = keys[::6]

    def _unit(self) -> float:
        started = time.thread_time()
        total = 0
        for value in range(150_000):
            total += value
        np.sort(self._values)
        np.cumsum(self._values[self._index])
        table = self._table
        for key in self._lookups:
            total += table[key]
        return time.thread_time() - started

    def slowdown(self) -> float:
        """The host's slowdown now: mean over CPUs of a probe unit's
        time, divided by ``REFERENCE_UNIT_S``.  Runs on the calling
        thread."""
        cpus = sorted(os.sched_getaffinity(0))
        times = []
        try:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(statistics.median(self._unit() for _ in range(REPEATS)))
        finally:
            os.sched_setaffinity(0, cpus)
        return statistics.fmean(times) / REFERENCE_UNIT_S


class ProbeProcess:
    """A ``Probe`` in a helper process, so that its memory never counts
    as the program's; the helper waits idle between probes."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def slowdown(self) -> float:
        self._proc.stdin.write("probe\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


if __name__ == "__main__":
    probe = Probe()
    for _ in sys.stdin:
        print(probe.slowdown(), flush=True)
