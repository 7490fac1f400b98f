"""Host speed probe: a fixed piece of work that never changes with the repository.

Besides slow phases that come and go within seconds (which the per-lap
minimum of ``run.lap_wall`` removes), the reference host's *fastest* speed
drifts by 10-30% over minutes: every sample of a run, and its set-up, is slower
together.  :func:`probe` times a fixed mix of interpreter work and small-array
NumPy calls, the two kinds of work the repository does, many times over a run;
its fastest repetition measures the host's speed at that time.  The run scales
its times by ``REFERENCE_S / fastest probe``, i.e. to the speed the reference
host had when the probe took ``REFERENCE_S``.

Changing this file changes the scale of every reported time.
"""

from __future__ import annotations

import time

import numpy as np

#: Fastest probe repetition on the 2-core reference host (Intel Xeon,
#: Python 3.11.7, NumPy 2.4.6) when it ran at its usual top speed.
REFERENCE_S = 0.0022

#: Repetitions per sample; each takes a few milliseconds.
REPETITIONS = 24


class _Job:
    __slots__ = ("rack", "work", "rate")

    def __init__(self, rack: int, work: float) -> None:
        self.rack = rack
        self.work = work
        self.rate = 1.0


def _once(shares: np.ndarray) -> float:
    jobs = [_Job(i % 7, 1.0 + (i % 13)) for i in range(200)]
    load: dict[int, float] = {}
    total = 0.0
    for step in range(32):
        load.clear()
        for job in jobs:
            load[job.rack] = load.get(job.rack, 0.0) + job.work
        for job in jobs:
            job.rate = 1.0 / (1.0 + 0.01 * load[job.rack])
            job.work = max(job.work - job.rate * 0.1, 0.0)
            total += job.rate
        weights = shares * (step + 1)
        total += float(np.minimum(weights, 3.0).sum()) + float(weights.argmax())
    return total


def probe(clock=time.perf_counter, repetitions: int = REPETITIONS) -> float:
    """Seconds of the fastest of ``repetitions`` runs of the fixed work."""
    shares = np.linspace(0.0, 1.0, 64)
    best = float("inf")
    for _ in range(repetitions):
        start = clock()
        _once(shares)
        best = min(best, clock() - start)
    return best
