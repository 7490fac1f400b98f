"""Replay a real Slurm trace through the pooled-memory cluster simulator.

The capacity-planning question the paper asks — *how much pooled memory does
a machine actually need?* — is only as strong as the workload driving it.
A ``sacct`` dump streamed through :mod:`repro.data.slurm` becomes the job
stream of the one scheduling study
(:meth:`~repro.casestudies.scheduling.CoupledSchedulingStudy.replay`), so
pool-aware placement (:class:`~repro.scheduler.policies.PoolAwarePlacement`)
is judged against a machine's *measured* memory footprints and arrival
process instead of an analytic model.

Mapping contract (:class:`TraceJobMapper`):

* ``MaxRSS × NNodes`` is the job's aggregate footprint; the remote share
  (``1 - local_fraction`` of it) becomes ``JobProfile.pool_gb`` — converted
  binary-RSS-bytes → **decimal GB** through :func:`repro.config.units.
  bytes_to_gb`, the pinned convention of the scheduler layer.
* ``Elapsed`` becomes ``baseline_runtime``: the recorded runtime is taken as
  the interference-free baseline (the trace machine's own interference is
  not subtractable from accounting data — a documented limitation).  Jobs
  shorter than :data:`MIN_RUNTIME_S` are clamped up to it, not dropped.
* ``Submit`` offsets (relative to the first replayed job) become arrivals,
  so queueing emerges from the real arrival process.
* Accounting data records no memory traffic, so a job's ``workload`` is
  one of the six Table-2 applications (a CRC-32 of the seed and the job id)
  at the scale (1, 2 or 4) whose footprint is nearest the job's, e.g.
  ``"BFS@4"``; the coupled fabric prices that application's traffic.
* Sensitivity hints are not in accounting data, so every replayed job is
  insensitive (no sensitivity curve, zero induced LoI), making the static
  replay a *capacity* study; the coupled leg prices interference itself.

Multi-node trace jobs occupy **one** simulator node but carry their full
pooled footprint — capacity pressure is exact, node-count pressure is not
(follow-on in ROADMAP).  Jobs too large for any rack's pool are dropped and
counted (``unplaceable_jobs``), never silently shrunk.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Union

from ..config.errors import SchedulingError
from ..config.units import bytes_to_gb
from ..data.slurm import IngestReport, TraceJob, read_sacct
from ..scheduler.job import JobProfile
from ..scheduler.simulator import ScheduleOutcome
from ..workloads.base import WorkloadSpec
from ..workloads.registry import build_workload, workload_names

if TYPE_CHECKING:
    from .scheduling import CoupledSchedulingResult

#: The scales of a replayed job's application: Table 2's three inputs.
TRACE_SCALES = (1, 2, 4)
#: Shortest baseline runtime of a replayed job, seconds: shorter accounting
#: entries are clamped up, not dropped, since they make degenerate baselines.
MIN_RUNTIME_S = 1.0


@functools.lru_cache(maxsize=None)
def trace_workloads() -> Mapping[str, WorkloadSpec]:
    """Every ``"<application>@<scale>"`` a replayed job may run as, built
    once per process so one study's baseline runs serve the next."""
    return MappingProxyType(
        {f"{app}@{s}": build_workload(app, s) for app in workload_names() for s in TRACE_SCALES}
    )


@functools.lru_cache(maxsize=None)
def _footprints(app: str) -> tuple:
    """``(footprint bytes, label)`` of ``app`` at each scale."""
    return tuple(
        (trace_workloads()[f"{app}@{s}"].footprint_bytes, f"{app}@{s}") for s in TRACE_SCALES
    )


@dataclass(frozen=True)
class TraceJobMapper:
    """:class:`TraceJob` → :class:`JobProfile` mapping.

    Attributes
    ----------
    local_fraction:
        Fraction of each job's footprint assumed served node-locally in the
        what-if machine; the rest is drawn from the rack pool.
    """

    local_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.local_fraction <= 1.0:
            raise SchedulingError("local_fraction must be in [0, 1]")

    def workload_of(self, job: TraceJob, seed: int = 0) -> str:
        """The key of :func:`trace_workloads` ``job`` runs as: the application
        by a CRC-32 of ``seed`` and the job id (unlike the salted ``hash``,
        stable across processes), the scale nearest its footprint."""
        apps = workload_names()
        app = apps[zlib.crc32(f"{seed}:{job.job_id}".encode()) % len(apps)]
        footprint = job.footprint_bytes
        return min(_footprints(app), key=lambda c: abs(c[0] - footprint))[1]

    def profile_of(self, job: TraceJob, seed: int = 0) -> JobProfile:
        """The submission-time profile a replayed trace job presents."""
        remote_bytes = job.footprint_bytes * (1.0 - self.local_fraction)
        return JobProfile(
            workload=self.workload_of(job, seed),
            baseline_runtime=max(job.elapsed_s, MIN_RUNTIME_S),
            pool_gb=bytes_to_gb(remote_bytes),
        )


@dataclass(frozen=True)
class TraceReplayResult:
    """Outcome of one trace replay: schedule statistics + ingestion report
    (+ the static-vs-coupled comparison when the fabric leg ran)."""

    outcome: ScheduleOutcome
    ingest: dict
    jobs_replayed: int
    unplaceable_jobs: int
    peak_pool_demand_gb: float
    trace_span_s: float
    coupled: Optional["CoupledSchedulingResult"] = None

    def summary(self) -> dict:
        """CLI/README-friendly summary: the static leg, then any fabric leg."""
        summary = {
            "policy": self.outcome.policy,
            "jobs_replayed": self.jobs_replayed,
            "jobs_finished": sum(1 for job in self.outcome.jobs if job.finished),
            "unplaceable_jobs": self.unplaceable_jobs,
            "makespan_s": self.outcome.makespan,
            "mean_wait_s": self.outcome.mean_wait,
            "mean_slowdown": self.outcome.mean_slowdown,
            "peak_pool_demand_gb": self.peak_pool_demand_gb,
            "trace_span_s": self.trace_span_s,
            "ingest": self.ingest,
        }
        if self.coupled is not None:
            comparison = self.coupled.summary()
            del comparison["policy"], comparison["static"]
            comparison["fabric_coupled"]["jobs_finished"] = sum(
                1 for job in self.coupled.coupled.jobs if job.finished
            )
            summary.update(comparison)
        return summary


def trace_job_stream(
    source: Union[str, Path, Iterable[str]],
    mapper: TraceJobMapper,
    seed: int,
    pool_capacity_gb: float,
    limit: Optional[int] = None,
    window: Optional[tuple] = None,
) -> tuple[list[JobProfile], list[float], int, IngestReport]:
    """(profiles, arrivals, unplaceable jobs, ingest report) of a ``sacct``
    dump, streamed: only the replayed window (after ``limit`` / ``window``)
    is materialised, and a job too large for a rack's pool is only counted."""
    report = IngestReport()
    profiles: list[JobProfile] = []
    arrivals: list[float] = []
    origin: Optional[float] = None
    unplaceable = 0
    for job in read_sacct(source, limit=limit, window=window, report=report):
        profile = mapper.profile_of(job, seed)
        if profile.pool_gb > pool_capacity_gb:
            unplaceable += 1
            continue
        if origin is None:
            origin = job.submit_unix or 0.0
        profiles.append(profile)
        arrivals.append(max((job.submit_unix or 0.0) - origin, 0.0))
    return profiles, arrivals, unplaceable, report


class TraceReplayStudy:
    """The static replay of a ``sacct`` dump: an entry point onto the one
    scheduling study that builds no cluster or simulator of its own."""

    def __init__(
        self,
        n_racks: int = 4,
        nodes_per_rack: int = 16,
        pool_capacity_gb: float = 2048.0,
        policy: str = "pool-aware",
        seed: int = 0,
    ) -> None:
        from .scheduling import CoupledSchedulingStudy  # which imports this module

        self.study = CoupledSchedulingStudy(
            n_racks=n_racks,
            nodes_per_rack=nodes_per_rack,
            pool_capacity_gb=pool_capacity_gb,
            policy=policy,
            seed=seed,
        )

    def run(
        self,
        source: Union[str, Path, Iterable[str]],
        limit: Optional[int] = None,
        window: Optional[tuple] = None,
    ) -> TraceReplayResult:
        """Replay ``source`` (a path or line stream) to completion."""
        return self.study.replay(source, limit=limit, window=window, coupled=False)
