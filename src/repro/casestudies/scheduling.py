"""Case study 2: interference-aware job scheduling (Section 7.2, Figure 13).

Each evaluated workload runs 100 times at 50% memory-pool capacity against a
background interference whose Level of Interference is redrawn every 60 s —
uniformly from 0-50% for the random baseline and from 0-20% for the
interference-aware scheduler (which refuses to co-locate interference-heavy
jobs with sensitive ones).  The paper reports mean speedups of roughly
4% (Hypre), 2% (NekRS, SuperLU), 1% (BFS, HPL) and 0% (XSBench), and a
reduction of the 75th-percentile execution time of 1-5%.

:class:`CoupledSchedulingStudy`, the one cluster-scheduling study, extends
the study to the rack-scale :class:`~repro.scheduler.simulator.ClusterSimulator`:
the *same* job stream — synthetic or a ``sacct`` trace — is scheduled once
with the paper's static ``slowdown_at(LoI)`` pricing and once
with :class:`~repro.scheduler.progress.FabricCoupledProgress`, which steps
one :class:`~repro.fabric.cluster.ClusterCoSimulator` (every rack in
lockstep, on one clock and one fault feed) between scheduler events.  The delta between the two outcomes is the study's result: how much
the emergent contention the fabric resolves changes completion times compared
to the submission-time hints alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

from ..config.errors import SchedulingError
from ..config.units import bytes_to_gb
from ..fabric.faults import BlastRadiusReport
from ..profiler.level3 import Level3Profiler, SensitivityCurve
from ..scheduler.cluster import Cluster
from ..scheduler.job import JobProfile
from ..scheduler.policies import make_policy
from ..scheduler.progress import FabricCoupledProgress, StaticCurveProgress, fabric_job_profile
from ..scheduler.simulator import ClusterSimulator, CoLocationResult, CoLocationStudy, ScheduleOutcome
from ..sim.platform import Platform
from ..telemetry import trace_span
from ..workloads.base import WorkloadSpec
from ..workloads.registry import build_all
from .trace_replay import TraceJobMapper, TraceReplayResult, trace_job_stream, trace_workloads


@dataclass(frozen=True)
class WorkloadSchedulingResult:
    """Baseline vs interference-aware execution-time distributions for one workload."""

    workload: str
    baseline: CoLocationResult
    aware: CoLocationResult

    @property
    def mean_speedup(self) -> float:
        """Relative reduction of the mean execution time."""
        if self.aware.mean <= 0:
            return 0.0
        return self.baseline.mean / self.aware.mean - 1.0

    @property
    def p75_reduction(self) -> float:
        """Relative reduction of the 75th-percentile execution time."""
        p75 = self.baseline.percentile(75)
        if p75 <= 0:
            return 0.0
        return 1.0 - self.aware.percentile(75) / p75

    def summary(self) -> dict:
        """Row used by the Figure-13 benchmark and EXPERIMENTS.md."""
        return {
            "workload": self.workload,
            "baseline": self.baseline.five_number_summary(),
            "interference_aware": self.aware.five_number_summary(),
            "mean_speedup": self.mean_speedup,
            "p75_reduction": self.p75_reduction,
        }


@dataclass(frozen=True)
class SchedulingCaseStudyResult:
    """Results for all evaluated workloads."""

    results: tuple[WorkloadSchedulingResult, ...]

    def result(self, workload: str) -> WorkloadSchedulingResult:
        """Look one workload's result up by name."""
        for r in self.results:
            if r.workload == workload:
                return r
        raise KeyError(f"no scheduling result for {workload!r}")

    def speedups(self) -> dict[str, float]:
        """Mean speedup per workload."""
        return {r.workload: r.mean_speedup for r in self.results}

    def most_improved(self) -> str:
        """The workload benefitting most from interference awareness."""
        return max(self.results, key=lambda r: r.mean_speedup).workload


class SchedulingCaseStudy:
    """Runs the interference-aware scheduling comparison for a set of workloads."""

    def __init__(
        self,
        local_fraction: float = 0.50,
        n_runs: int = 100,
        interval: float = 60.0,
        seed: int = 0,
    ) -> None:
        self.local_fraction = local_fraction
        self.n_runs = n_runs
        self.interval = interval
        self.seed = seed

    def sensitivity_of(self, spec: WorkloadSpec) -> SensitivityCurve:
        """Measure one workload's sensitivity curve on the pooled platform."""
        platform = Platform.pooled(spec.footprint_bytes, self.local_fraction)
        return Level3Profiler(seed=self.seed).sensitivity(spec, platform)

    def job_profile_of(self, spec: WorkloadSpec) -> JobProfile:
        """Build the submission-time job profile the scheduler would receive."""
        sensitivity = self.sensitivity_of(spec)
        remote_fraction = 1.0 - self.local_fraction
        return JobProfile(
            workload=spec.name,
            baseline_runtime=sensitivity.baseline_runtime,
            sensitivity=sensitivity,
            pool_gb=bytes_to_gb(spec.footprint_bytes * remote_fraction),
        )

    def study_workload(
        self,
        spec: WorkloadSpec,
        baseline_range: tuple[float, float] = (0.0, 50.0),
        aware_range: tuple[float, float] = (0.0, 20.0),
    ) -> WorkloadSchedulingResult:
        """Run the 100-repetition comparison for one workload."""
        sensitivity = self.sensitivity_of(spec)
        study = CoLocationStudy(
            baseline_runtime=sensitivity.baseline_runtime,
            sensitivity=sensitivity,
            interval=self.interval,
        )
        outcomes = study.compare_policies(
            n_runs=self.n_runs,
            baseline_range=baseline_range,
            aware_range=aware_range,
            seed=self.seed,
        )
        return WorkloadSchedulingResult(
            workload=spec.name,
            baseline=outcomes["baseline"],
            aware=outcomes["interference-aware"],
        )

    def run(
        self,
        specs: Optional[Sequence[WorkloadSpec]] = None,
        jobs: int = 1,
    ) -> SchedulingCaseStudyResult:
        """Run the case study for all (or the given) workloads.

        ``jobs > 1`` shards the per-workload studies over worker processes
        via :class:`repro.parallel.SweepRunner`; results are bit-identical to
        the serial run (each workload's study is seeded by ``self.seed``,
        independent of sharding).
        """
        from ..parallel import SweepRunner

        specs = list(specs) if specs is not None else build_all(1.0)
        runner = SweepRunner(jobs=jobs, base_seed=self.seed)
        results = runner.map(
            _study_workload_task,
            [{"study": self, "spec": spec} for spec in specs],
            seed_param=None,
        )
        return SchedulingCaseStudyResult(results=tuple(results))


def _study_workload_task(study: SchedulingCaseStudy, spec: WorkloadSpec):
    """Picklable sweep task: one workload's 100-repetition comparison."""
    return study.study_workload(spec)


# ---------------------------------------------------------------------------
# Rack-scale extension: static-curve versus fabric-coupled scheduling.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoupledSchedulingResult:
    """One job stream scheduled under static and fabric-coupled progress."""

    static: ScheduleOutcome
    coupled: ScheduleOutcome
    #: The coupled leg's blast radius when faults were injected.
    faults: Optional[BlastRadiusReport] = None

    @property
    def makespan_delta(self) -> float:
        """Relative makespan change when the fabric is coupled in (>0 = longer)."""
        if self.static.makespan <= 0:
            return 0.0
        return self.coupled.makespan / self.static.makespan - 1.0

    @property
    def mean_slowdown_delta(self) -> float:
        """Absolute change of the mean job slowdown under coupling."""
        return self.coupled.mean_slowdown - self.static.mean_slowdown

    @property
    def max_finish_time_shift(self) -> float:
        """Largest per-job |finish-time| difference between the two schedules.

        Non-zero values mean the static proxy mispredicted completion times —
        the quantity an interference-aware scheduler would act on.
        """
        shifts = [
            abs(a.finish_time - b.finish_time)
            for a, b in zip(self.static.jobs, self.coupled.jobs)
            if a.finished and b.finished
        ]
        return max(shifts, default=0.0)

    def summary(self) -> dict:
        """CLI/README-friendly comparison rows (and the faults' blast radius)."""

        def row(outcome: ScheduleOutcome) -> dict:
            return {
                "makespan_s": outcome.makespan,
                "mean_slowdown": outcome.mean_slowdown,
                "p75_slowdown": outcome.p75_slowdown,
                "mean_wait_s": outcome.mean_wait,
            }

        summary = {
            "policy": self.static.policy,
            "static": row(self.static),
            "fabric_coupled": row(self.coupled),
            "makespan_delta": self.makespan_delta,
            "mean_slowdown_delta": self.mean_slowdown_delta,
            "max_finish_time_shift_s": self.max_finish_time_shift,
        }
        if self.faults is not None:
            summary["faults"] = self.faults.summary()
        return summary


class CoupledSchedulingStudy:
    """Schedules one job stream with and without the fabric in the loop.

    The stream is the synthetic Table-2 one (:meth:`run`), measured on the
    fabric's own models (:func:`~repro.scheduler.progress.fabric_job_profile`),
    or a ``sacct`` dump (:meth:`replay`).  Both pricing machineries see the
    same inputs, so any outcome difference comes from *how* interference is
    resolved.
    """

    #: Policies that score racks through the live progress model and must be
    #: handed the same instance the simulator steps.
    COUPLED_POLICIES = ("fabric-coupled", "cluster-fabric")

    def __init__(
        self,
        n_racks: int = 2,
        nodes_per_rack: int = 2,
        pool_capacity_gb: float = 2048.0,
        local_fraction: float = 0.5,
        policy: str = "least-loaded",
        ports_per_rack: int = 1,
        epoch_seconds: Optional[float] = None,
        scale: float = 1.0,
        seed: int = 0,
        cluster_pool_gb: float = 0.0,
        fault_schedule=None,
        overcommit: bool = False,
        drain_bytes_per_s: Optional[float] = None,
    ) -> None:
        if pool_capacity_gb <= 0:
            raise SchedulingError("pool_capacity_gb must be positive")
        self.n_racks = n_racks
        self.nodes_per_rack = nodes_per_rack
        self.pool_capacity_gb = pool_capacity_gb
        self.local_fraction = local_fraction
        self.policy = policy
        self.ports_per_rack = ports_per_rack
        self.epoch_seconds = epoch_seconds
        self.scale = scale
        self.seed = seed
        self.cluster_pool_gb = cluster_pool_gb
        #: Fault schedule injected into the *coupled* leg only: the static
        #: leg has no fabric to break, which is exactly the comparison the
        #: chaos study makes (what does the static model miss under faults?).
        self.fault_schedule = fault_schedule
        self.overcommit = overcommit
        self.drain_bytes_per_s = drain_bytes_per_s

    def _cluster(self) -> Cluster:
        return Cluster.build(
            n_racks=self.n_racks,
            nodes_per_rack=self.nodes_per_rack,
            pool_capacity_gb=self.pool_capacity_gb,
        )

    def job_stream(
        self,
        specs: Optional[Sequence[WorkloadSpec]] = None,
        copies: int = 2,
        stagger: float = 0.0,
        with_sensitivity: bool = False,
    ) -> tuple[list[JobProfile], list[float], dict[str, WorkloadSpec]]:
        """(profiles, arrivals, workload mapping) of the study's job stream.

        With ``with_sensitivity`` each profile also carries its measured
        Level-3 sensitivity curve, giving the static model the paper's full
        submission-time hints instead of pricing every co-location at 1.
        """
        specs = list(specs) if specs is not None else build_all(self.scale)
        workloads = {spec.name: spec for spec in specs}
        profiles: list[JobProfile] = []
        for spec in specs:
            sensitivity = None
            if with_sensitivity:
                platform = Platform.pooled(spec.footprint_bytes, self.local_fraction)
                sensitivity = Level3Profiler(seed=self.seed).sensitivity(spec, platform)
            profile = fabric_job_profile(
                spec,
                local_fraction=self.local_fraction,
                seed=self.seed,
                sensitivity=sensitivity,
            )
            profiles.extend([profile] * copies)
        arrivals = [i * stagger for i in range(len(profiles))]
        return profiles, arrivals, workloads

    def run(
        self,
        specs: Optional[Sequence[WorkloadSpec]] = None,
        copies: int = 2,
        stagger: float = 0.0,
        with_sensitivity: bool = False,
    ) -> CoupledSchedulingResult:
        """Schedule the synthetic stream twice — static pricing vs fabric coupling."""
        profiles, arrivals, workloads = self.job_stream(
            specs, copies, stagger, with_sensitivity=with_sensitivity
        )
        return self._schedule(profiles, arrivals, workloads)[1]

    def replay(
        self,
        source: Union[str, Path, Iterable[str]],
        limit: Optional[int] = None,
        window: Optional[tuple] = None,
        coupled: bool = True,
    ) -> TraceReplayResult:
        """Schedule a ``sacct`` dump (a path or line stream): the static leg,
        and the fabric leg when ``coupled``.  The study's ``local_fraction``
        splits each job's lease and prices its traffic."""
        mapper = TraceJobMapper(local_fraction=self.local_fraction)
        with trace_span("trace_replay.ingest"):
            profiles, arrivals, unplaceable, report = trace_job_stream(
                source, mapper, self.seed, self.pool_capacity_gb, limit, window
            )
        if not profiles:
            raise SchedulingError(
                "trace replay produced no replayable jobs "
                f"(ingest report: {report.summary()})"
            )
        with trace_span("trace_replay.simulate", jobs=len(profiles)):
            static, comparison = self._schedule(profiles, arrivals, trace_workloads(), coupled)
        return TraceReplayResult(
            outcome=static,
            ingest=report.summary(),
            jobs_replayed=len(profiles),
            unplaceable_jobs=unplaceable,
            peak_pool_demand_gb=max(p.pool_gb for p in profiles),
            trace_span_s=max(arrivals),
            coupled=comparison,
        )

    def _schedule(
        self, profiles: list, arrivals: list, workloads: Mapping, coupled: bool = True
    ) -> tuple[ScheduleOutcome, Optional[CoupledSchedulingResult]]:
        """The static leg and, when ``coupled``, its comparison with the fabric leg."""
        static_outcome = ClusterSimulator(
            self._cluster(),
            make_policy(self.policy),
            seed=self.seed,
            progress=StaticCurveProgress(),
        ).run(profiles, arrivals=arrivals)
        if not coupled:
            return static_outcome, None
        progress = FabricCoupledProgress(
            workloads=workloads,
            local_fraction=self.local_fraction,
            ports_per_rack=self.ports_per_rack,
            epoch_seconds=self.epoch_seconds,
            seed=self.seed,
            cluster_pool_gb=self.cluster_pool_gb,
            fault_schedule=self.fault_schedule,
            overcommit=self.overcommit,
            drain_bytes_per_s=self.drain_bytes_per_s,
        )
        coupled_policy = (
            make_policy(self.policy, progress=progress)
            if self.policy in self.COUPLED_POLICIES
            else make_policy(self.policy)
        )
        coupled_outcome = ClusterSimulator(
            self._cluster(),
            coupled_policy,
            seed=self.seed,
            progress=progress,
        ).run(profiles, arrivals=arrivals)
        faults = None
        if self.fault_schedule is not None:
            faults = progress.cluster_simulator().blast_radius()
        return static_outcome, CoupledSchedulingResult(static_outcome, coupled_outcome, faults)

    @classmethod
    def sweep(
        cls,
        param_sets: Sequence[dict],
        jobs: int = 1,
        base_seed: int = 0,
    ) -> list[dict]:
        """Run one study per parameter dict, sharded over ``jobs`` processes.

        Each dict holds :class:`CoupledSchedulingStudy` constructor kwargs
        plus an optional ``"run"`` sub-dict forwarded to :meth:`run`; each
        point returns its :meth:`CoupledSchedulingResult.summary`.  Points
        without an explicit ``seed`` get a deterministic one derived from
        ``base_seed`` and the point's own configuration, so results do not
        depend on sweep order or worker count.  Repeated configurations are
        fingerprint-memoized and solved once.
        """
        from ..parallel import SweepRunner

        runner = SweepRunner(jobs=jobs, base_seed=base_seed)
        return runner.map(run_coupled_study, param_sets)


def run_coupled_study(seed: int = 0, run: Optional[dict] = None, **config) -> dict:
    """Picklable sweep task: one coupled-scheduling study, summarised."""
    study = CoupledSchedulingStudy(seed=seed, **config)
    return study.run(**(run or {})).summary()
