"""The scheduler's previous event loop, kept as a differential oracle.

:class:`~repro.scheduler.simulator.ClusterSimulator` offers a queued job to
its policy only when some rack can host it, keeps arrivals behind a cursor,
counts free nodes per rack and caches static rates per rack.  The loop it
replaced did none of that, and lives on here:

* :func:`rescan_run` — every event rescans the whole pending list and offers
  every arrived job to the policy, and the next arrival is the least
  ``submit_time - clock`` over that list;
* :class:`ScanRack` — capacity checks rebuild the free-node list by scanning
  every node instead of reading the rack's free-node count;
* :class:`RescanProgress` — static rates recomputed for every running job at
  every event, each through :func:`fold_rate`;
* :func:`fold_rate` — the static rate with the co-runner LoIs folded for
  every job, where the library skips the fold for a job without a
  sensitivity curve.

The tests load this file by path (``tests/fabric/oracles.py`` already owns
the module name ``oracles``).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.config.errors import SchedulingError
from repro.scheduler.cluster import Cluster, Rack
from repro.scheduler.job import Job, JobProfile
from repro.scheduler.progress import StaticCurveProgress
from repro.scheduler.simulator import MAX_IDLE_EVENTS, MIN_EVENT_STEP, ScheduleOutcome
from repro.telemetry import metrics


class ScanRack(Rack):
    """A rack whose capacity check scans its nodes."""

    def can_host(self, job: Job) -> bool:
        return bool(self.free_nodes) and job.profile.pool_gb <= self.pool_free_gb


def scan_cluster(n_racks: int, nodes_per_rack: int, pool_capacity_gb: float) -> Cluster:
    """:meth:`Cluster.build` with :class:`ScanRack` racks."""
    built = Cluster.build(
        n_racks=n_racks, nodes_per_rack=nodes_per_rack, pool_capacity_gb=pool_capacity_gb
    )
    return Cluster(
        racks=[
            ScanRack(rack_id=r.rack_id, nodes=r.nodes, pool_capacity_gb=r.pool_capacity_gb)
            for r in built.racks
        ]
    )


def fold_rate(job: Job, rack: Rack) -> float:
    """1 / slowdown at the sum of the job's co-runners' LoIs, curve or not."""
    return 1.0 / max(job.profile.slowdown_at(rack.aggregate_loi(excluding=job)), 1.0)


class RescanProgress(StaticCurveProgress):
    """Static-curve rates, recomputed for every running job at every event."""

    def rates(self, clock: float) -> dict[int, float]:
        if self.cluster is None:
            raise SchedulingError("progress model is not bound to a cluster")
        return {
            job.job_id: fold_rate(job, self.cluster.rack_of(job))
            for job in self.cluster.running_jobs
        }


def rescan_run(
    cluster: Cluster,
    policy,
    profiles: Sequence[JobProfile],
    arrivals: Optional[Sequence[float]] = None,
    seed: int = 0,
    progress=None,
) -> ScheduleOutcome:
    """Run a job stream through the previous event loop.

    Same arguments and result as ``ClusterSimulator(cluster, policy, seed,
    progress).run(profiles, arrivals)``; the counters ``scheduler.events``,
    ``scheduler.jobs.started`` and ``scheduler.jobs.finished`` are bumped
    once per event, start and finish.
    """
    progress = progress if progress is not None else RescanProgress()
    arrivals = list(arrivals) if arrivals is not None else [0.0] * len(profiles)
    registry = metrics()
    events = registry.counter("scheduler.events")
    started = registry.counter("scheduler.jobs.started")
    finished = registry.counter("scheduler.jobs.finished")
    rng = np.random.default_rng(seed)
    jobs = [
        Job(job_id=i, profile=p, submit_time=float(t))
        for i, (p, t) in enumerate(zip(profiles, arrivals))
    ]
    pending = sorted(jobs, key=lambda j: j.submit_time)
    remaining_work = {j.job_id: j.profile.baseline_runtime for j in jobs}
    progress.bind(cluster)
    clock = 0.0
    idle_events = 0

    while pending or cluster.running_jobs:
        events.inc()
        # Start every pending job the policy can place now.
        n_pending = len(pending)
        progressed = True
        while progressed:
            progressed = False
            for job in list(pending):
                if job.submit_time > clock:
                    continue
                rack = policy.choose_rack(cluster, job, rng)
                if rack is None:
                    continue
                rack.place(job)
                job.start_time = clock
                pending.remove(job)
                progress.job_started(job, rack, clock)
                started.inc()
                progressed = True

        running = cluster.running_jobs
        if not running:
            # Jump to the next arrival.
            future = [j.submit_time for j in pending if j.submit_time > clock]
            if not future:
                break
            progress.advance(min(future) - clock)
            clock = min(future)
            continue

        rates = progress.rates(clock)
        finish_horizons = [
            remaining_work[j.job_id] / rates[j.job_id]
            for j in running
            if rates[j.job_id] > 0
        ]
        next_event = min(finish_horizons) if finish_horizons else float("inf")
        future_arrivals = [j.submit_time - clock for j in pending if j.submit_time > clock]
        if future_arrivals:
            next_event = min(next_event, min(future_arrivals))
        model_horizon = progress.horizon(clock)
        if model_horizon is not None:
            next_event = min(next_event, model_horizon)
        if not np.isfinite(next_event):
            raise SchedulingError("no progress possible: all rates are zero")
        next_event = max(next_event, MIN_EVENT_STEP)

        progress.advance(next_event)
        for job in running:
            remaining_work[job.job_id] -= rates[job.job_id] * next_event
        clock += next_event

        retired = 0
        for job in list(cluster.running_jobs):
            if remaining_work[job.job_id] <= 1e-6:
                job.finish_time = clock
                rack = cluster.rack_of(job)
                rack.release(job)
                progress.job_finished(job, rack, clock)
                finished.inc()
                retired += 1

        stalled = not finish_horizons and not future_arrivals
        if retired or len(pending) < n_pending or (next_event > MIN_EVENT_STEP and not stalled):
            idle_events = 0
        else:
            idle_events += 1
            if idle_events > MAX_IDLE_EVENTS:
                raise SchedulingError(
                    f"scheduling simulation made no progress in {MAX_IDLE_EVENTS} events"
                )

    return ScheduleOutcome(policy=policy.name, jobs=tuple(jobs), makespan=clock)
