"""Host-speed probe: converts wall times into seconds at a fixed reference speed.

On a shared host a vCPU's speed changes by up to half within seconds, as
other tenants load the same physical core, and the share of slow time drifts
over minutes.  Process CPU time slows down just as much as wall time, and
the two vCPUs of a VM change speed independently of each other, so neither
CPU time nor a probe on another core can correct for it.

``SpeedProbe`` therefore pins the benchmark and its children to one CPU and
runs a short probe there every ``INTERVAL_S`` from a background thread.  The
probe is a fixed mix of the interpreter work the CLI does (dict and list
building, big-integer arithmetic, a small numpy op, a sort, random reads
from a table larger than the caches).  A command's
normalised time is its wall time times the mean of ``REF_PROBE_S / probe``
over the probes taken while it ran: the time it would have taken on a CPU
that runs the probe in ``REF_PROBE_S``.  ``REF_PROBE_S`` is a constant, so the
normalised times of different runs are comparable; it is about the probe's
time on an idle core of an Intel Xeon 2-vCPU VM, so that the normalised
figures read like seconds on that machine when nothing else runs.

Before each command ``pin_fastest`` probes every allowed CPU and pins the
benchmark to the fastest, so less of a run falls into slow spells.
"""

from __future__ import annotations

import os
import random
import statistics
import threading
import time

import numpy as np

REF_PROBE_S = 100e-6
INTERVAL_S = 0.05
# Each probe is the fastest of this many back-to-back rounds, so that an
# interrupt or a preemption by the command under test does not count as a
# slow spell.
ROUNDS = 3

_ARRAY = np.arange(4096, dtype=np.int64)
_MODULUS = 10**40 + 3
# Random reads from a table of about 8 MB, larger than the caches a tenant
# on the same core competes for: the down-set DP, the enumerations and the
# verify suites slow down more under load than cache-resident code does.
_rng = random.Random(0)
_TABLE = [_rng.random() for _ in range(1 << 18)]
_READS = [_rng.randrange(len(_TABLE)) for _ in range(600)]


def _round() -> int:
    table = {}
    for i in range(300):
        table[i] = [i] * 3
    x = 3**200
    for i in range(100):
        x = (x * 7 + i) % _MODULUS
    _ARRAY.copy().cumsum()
    sorted(range(200, 0, -1))
    total = 0.0
    for i in _READS:
        total += _TABLE[i]
    return x + len(table) + int(total)


def probe() -> float:
    """Seconds for one probe on the calling thread's CPU."""
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        _round()
        best = min(best, time.perf_counter() - start)
    return best


class SpeedProbe:
    """Background probe of the CPU that the benchmark is pinned to.

    Use as a context manager; ``normalise(wall, t0, t1)`` converts a wall
    time measured between ``time.perf_counter()`` readings ``t0`` and ``t1``.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, probe seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-probe", daemon=True)
        self._saved = os.sched_getaffinity(0)
        self._cpus = sorted(self._saved)

    def __enter__(self) -> "SpeedProbe":
        self.pin_fastest()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._saved)

    def _loop(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.samples.append((time.perf_counter(), probe()))

    def pin_fastest(self) -> None:
        """Pin this thread (so the next child) and the probe thread to the fastest CPU."""
        best_cpu, best = self._cpus[0], float("inf")
        if len(self._cpus) > 1:
            for cpu in self._cpus:
                os.sched_setaffinity(0, {cpu})
                t = probe()
                if t < best:
                    best_cpu, best = cpu, t
        os.sched_setaffinity(0, {best_cpu})
        if self._thread.native_id is not None:
            os.sched_setaffinity(self._thread.native_id, {best_cpu})

    def factor(self, t0: float, t1: float) -> float:
        """Mean of REF_PROBE_S / probe over the probes taken between t0 and t1."""
        inside = [p for t, p in self.samples if t0 <= t <= t1]
        if not inside:  # shorter than one interval: take the nearest probe
            if not self.samples:
                return REF_PROBE_S / probe()
            inside = [min(self.samples, key=lambda s: abs(s[0] - t1))[1]]
        return statistics.fmean(REF_PROBE_S / p for p in inside)

    def normalise(self, wall: float, t0: float, t1: float) -> float:
        return wall * self.factor(t0, t1)
