"""Scheduling simulators.

Two levels of fidelity are provided:

* :class:`CoLocationStudy` reproduces the paper's Section 7.2 experiment
  exactly: one monitored application runs against a background Level of
  Interference that is redrawn every 60 seconds from a uniform range —
  0-50% for the random baseline, 0-20% for the interference-aware scheduler —
  and the experiment is repeated 100 times per configuration (Figure 13).

* :class:`ClusterSimulator` is an event-driven rack-scale simulation where a
  stream of jobs is placed by a :mod:`policy <repro.scheduler.policies>` onto
  nodes sharing per-rack memory pools; each job's progress rate depends on the
  interference generated by its co-runners.  This is the "integrate the
  methodology into SLURM" extension the paper sketches.

How fast running jobs advance is delegated to a
:class:`~repro.scheduler.progress.ProgressModel`:
:class:`~repro.scheduler.progress.StaticCurveProgress` (the default) prices
co-location with the submission-time ``slowdown_at(LoI)`` hints, while
:class:`~repro.scheduler.progress.FabricCoupledProgress` steps one
:class:`~repro.fabric.cluster.ClusterCoSimulator`, every rack in lockstep,
between scheduler events so placement decisions see emergent contention.  The simulator itself
only does linear bookkeeping: rates are piecewise constant between events,
and the progress model's ``horizon()`` bounds how far one event may advance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..config.errors import SchedulingError
from ..profiler.level3 import SensitivityCurve
from ..telemetry import metrics, trace_span
from .cluster import Cluster
from .job import Job, JobProfile
from .policies import PlacementPolicy, RandomPlacement
from .progress import ProgressModel, StaticCurveProgress


# ---------------------------------------------------------------------------
# Section 7.2 experiment: one application against a random LoI schedule.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoLocationResult:
    """Execution-time distribution of one workload under one policy."""

    workload: str
    policy: str
    times: np.ndarray

    @property
    def mean(self) -> float:
        """Mean execution time over the runs."""
        return float(self.times.mean())

    @property
    def median(self) -> float:
        """Median execution time."""
        return float(np.median(self.times))

    def percentile(self, q: float) -> float:
        """Execution-time percentile (0-100)."""
        return float(np.percentile(self.times, q))

    def five_number_summary(self) -> dict[str, float]:
        """Min / Q1 / median / Q3 / max — the box-plot statistics of Figure 13."""
        return {
            "min": float(self.times.min()),
            "q1": self.percentile(25),
            "median": self.median,
            "q3": self.percentile(75),
            "max": float(self.times.max()),
        }

    @property
    def variability(self) -> float:
        """Interquartile range, the paper's variability measure."""
        return self.percentile(75) - self.percentile(25)


class CoLocationStudy:
    """Monte-Carlo study of one application under a time-varying LoI schedule."""

    def __init__(
        self,
        baseline_runtime: float,
        sensitivity: SensitivityCurve,
        interval: float = 60.0,
    ) -> None:
        if baseline_runtime <= 0:
            raise SchedulingError("baseline runtime must be positive")
        if interval <= 0:
            raise SchedulingError("the LoI redraw interval must be positive")
        self.baseline_runtime = float(baseline_runtime)
        self.sensitivity = sensitivity
        self.interval = float(interval)

    def run_once(self, loi_low: float, loi_high: float, rng: np.random.Generator) -> float:
        """Execution time of one run with LoI ~ U(low, high) redrawn per interval.

        The application makes progress at a rate inversely proportional to the
        slowdown at the current LoI; the run finishes when the accumulated
        progress equals the interference-free runtime.
        """
        if loi_high < loi_low or loi_low < 0:
            raise SchedulingError("need 0 <= loi_low <= loi_high")
        remaining = self.baseline_runtime
        elapsed = 0.0
        # Hard bound on the number of intervals to keep pathological inputs finite.
        max_slots = int(np.ceil(self.baseline_runtime / self.interval)) * 20 + 10
        for _ in range(max_slots):
            loi = float(rng.uniform(loi_low, loi_high))
            slowdown = max(self.sensitivity.slowdown_at(loi), 1.0)
            progress_rate = 1.0 / slowdown
            progress_this_slot = progress_rate * self.interval
            if progress_this_slot >= remaining:
                elapsed += remaining / progress_rate
                return elapsed
            remaining -= progress_this_slot
            elapsed += self.interval
        return elapsed + remaining  # pragma: no cover - defensive fallback

    def run_many(
        self,
        n_runs: int,
        loi_low: float,
        loi_high: float,
        policy_name: str,
        seed: int = 0,
    ) -> CoLocationResult:
        """Execution-time distribution over ``n_runs`` seeded repetitions."""
        if n_runs <= 0:
            raise SchedulingError("need at least one run")
        times = np.empty(n_runs, dtype=np.float64)
        for i in range(n_runs):
            rng = np.random.default_rng((seed, i))
            times[i] = self.run_once(loi_low, loi_high, rng)
        return CoLocationResult(
            workload=self.sensitivity.workload, policy=policy_name, times=times
        )

    def compare_policies(
        self,
        n_runs: int = 100,
        baseline_range: tuple[float, float] = (0.0, 50.0),
        aware_range: tuple[float, float] = (0.0, 20.0),
        seed: int = 0,
    ) -> dict[str, CoLocationResult]:
        """The paper's baseline-vs-interference-aware comparison (Figure 13)."""
        return {
            "baseline": self.run_many(n_runs, *baseline_range, policy_name="baseline", seed=seed),
            "interference-aware": self.run_many(
                n_runs, *aware_range, policy_name="interference-aware", seed=seed + 1
            ),
        }


# ---------------------------------------------------------------------------
# Rack-scale event-driven scheduling simulation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleOutcome:
    """Aggregate statistics of one cluster-simulation run."""

    policy: str
    jobs: tuple[Job, ...]
    makespan: float

    @property
    def mean_slowdown(self) -> float:
        """Average job slowdown relative to interference-free runtimes."""
        finished = [j for j in self.jobs if j.finished]
        if not finished:
            return 1.0
        return float(np.mean([j.slowdown for j in finished]))

    @property
    def p75_slowdown(self) -> float:
        """75th-percentile job slowdown (the paper's variability proxy)."""
        finished = [j for j in self.jobs if j.finished]
        if not finished:
            return 1.0
        return float(np.percentile([j.slowdown for j in finished], 75))

    @property
    def mean_wait(self) -> float:
        """Average queueing delay before jobs started."""
        finished = [j for j in self.jobs if j.finished]
        if not finished:
            return 0.0
        return float(np.mean([j.wait_time for j in finished]))

    def per_workload_slowdowns(self) -> dict[str, list[float]]:
        """Slowdowns grouped by workload name."""
        grouped: dict[str, list[float]] = {}
        for job in self.jobs:
            if job.finished:
                grouped.setdefault(job.profile.workload, []).append(job.slowdown)
        return grouped


#: Shortest interval one event may advance the clock, seconds.
MIN_EVENT_STEP = 1e-9
#: Consecutive idle events before a run counts as stuck.  An event is idle
#: when it starts and finishes no job and either advances the clock by no
#: more than :data:`MIN_EVENT_STEP` or leaves every running job at rate zero
#: with no arrival ahead.  A run may take any number of events as long as
#: they make progress.
MAX_IDLE_EVENTS = 10_000


class ClusterSimulator:
    """Event-driven simulation of job placement on a pooled-memory cluster.

    Parameters
    ----------
    cluster:
        The racks and nodes jobs are placed on.
    policy:
        Placement policy choosing the rack of each job (random by default).
    seed:
        Seed for the policy's random choices.
    progress:
        :class:`~repro.scheduler.progress.ProgressModel` supplying the
        running jobs' progress rates between events.  Defaults to the static
        sensitivity-curve pricing; pass
        :class:`~repro.scheduler.progress.FabricCoupledProgress` to drive the
        rates from per-rack fabric co-simulations instead.
    """

    def __init__(
        self,
        cluster: Cluster,
        policy: Optional[PlacementPolicy] = None,
        seed: int = 0,
        progress: Optional[ProgressModel] = None,
    ) -> None:
        self.cluster = cluster
        self.policy = policy if policy is not None else RandomPlacement()
        self.seed = seed
        self.progress = progress if progress is not None else StaticCurveProgress()

    def run(self, profiles: Sequence[JobProfile], arrivals: Optional[Sequence[float]] = None) -> ScheduleOutcome:
        """Simulate a job stream to completion.

        ``arrivals`` gives the submit time of each job (all at time 0 when
        omitted).  Progress rates are recomputed whenever a job starts or
        finishes — and, for epoch-driven progress models, whenever the model's
        ``horizon()`` expires — so interference reflects the currently running
        mix.
        """
        if not profiles:
            raise SchedulingError("need at least one job")
        arrivals = [float(t) for t in arrivals] if arrivals is not None else [0.0] * len(profiles)
        if len(arrivals) != len(profiles):
            raise SchedulingError("arrivals must match the number of jobs")
        if any(np.isnan(arrivals)):
            raise SchedulingError("arrival times must be numbers, not NaN")
        with trace_span("scheduler.run", jobs=len(profiles), policy=self.policy.name):
            return self._run(profiles, arrivals)

    def _run(self, profiles: Sequence[JobProfile], arrivals: list[float]) -> ScheduleOutcome:
        registry = metrics()
        rng = np.random.default_rng(self.seed)
        jobs = [
            Job(job_id=i, profile=p, submit_time=float(t))
            for i, (p, t) in enumerate(zip(profiles, arrivals))
        ]
        # Jobs in submit order; ``order[cursor:]`` have not arrived yet and
        # ``queue`` holds the arrived jobs still waiting, in submit order.
        order = sorted(jobs, key=lambda j: j.submit_time)
        cursor = 0
        queue: list[Job] = []
        # Baseline-seconds left per job, indexed by job id.
        remaining_work = [p.baseline_runtime for p in profiles]
        self.progress.bind(self.cluster)
        clock = 0.0
        idle_events = 0
        # Counted locally, published once when the run ends (see finally).
        n_events = n_started = n_finished = 0
        offers = declined = no_node = no_pool = 0
        # Jobs running after the last event: the loop builds the running
        # list once per event and counts retirements off it.
        n_running = len(self.cluster.running_jobs)

        try:
            while queue or cursor < len(order) or n_running:
                n_events += 1
                while cursor < len(order) and order[cursor].submit_time <= clock:
                    queue.append(order[cursor])
                    cursor += 1

                # Offer each queued job, in submit order, to the policy when
                # some rack can host it; repeat while a pass places a job.
                started_before = n_started
                headroom = self.cluster.placement_headroom_gb()
                if headroom is None:
                    no_node += len(queue)
                placed = True
                while placed and headroom is not None:
                    placed = False
                    i = 0
                    while i < len(queue):
                        if headroom is None:
                            no_node += len(queue) - i
                            break
                        job = queue[i]
                        # The negation of Rack.can_host's test: a NaN never fits.
                        if not job.profile.pool_gb <= headroom:
                            no_pool += 1
                            i += 1
                            continue
                        offers += 1
                        rack = self.policy.choose_rack(self.cluster, job, rng)
                        if rack is None:
                            declined += 1
                            i += 1
                            continue
                        rack.place(job)
                        del queue[i]
                        job.start_time = clock
                        self.progress.job_started(job, rack, clock)
                        n_started += 1
                        placed = True
                        headroom = self.cluster.placement_headroom_gb()

                next_arrival = order[cursor].submit_time if cursor < len(order) else None
                running = self.cluster.running_jobs
                n_running = len(running)
                if not running:
                    # Jump to the next arrival.
                    if next_arrival is None:
                        break
                    self.progress.advance(next_arrival - clock)
                    clock = next_arrival
                    continue

                # Progress rates under the current mix.
                rates = self.progress.rates(clock)

                # Time until the first running job finishes, the next job
                # arrives, or the progress model's rates expire (epoch / phase
                # boundary).
                finish_horizons = [
                    remaining_work[job.job_id] / rate
                    for job in running
                    if (rate := rates[job.job_id]) > 0
                ]
                next_event = min(finish_horizons) if finish_horizons else float("inf")
                if next_arrival is not None:
                    # Rounding is monotone, so this is the least ``a - clock``.
                    next_event = min(next_event, next_arrival - clock)
                model_horizon = self.progress.horizon(clock)
                if model_horizon is not None:
                    next_event = min(next_event, model_horizon)
                if not math.isfinite(next_event):  # pragma: no cover - defensive
                    raise SchedulingError("no progress possible: all rates are zero")
                next_event = max(next_event, MIN_EVENT_STEP)

                # Advance every running job by the elapsed interval and
                # retire the ones that finished.
                self.progress.advance(next_event)
                clock += next_event
                retired = 0
                for job in running:
                    left = remaining_work[job.job_id] - rates[job.job_id] * next_event
                    remaining_work[job.job_id] = left
                    if left <= 1e-6:
                        job.finish_time = clock
                        rack = self.cluster.rack_of(job)
                        rack.release(job)
                        self.progress.job_finished(job, rack, clock)
                        n_finished += 1
                        retired += 1
                n_running -= retired

                stalled = not finish_horizons and next_arrival is None
                if retired or n_started > started_before or (
                    next_event > MIN_EVENT_STEP and not stalled
                ):
                    idle_events = 0
                else:
                    idle_events += 1
                    if idle_events > MAX_IDLE_EVENTS:
                        raise SchedulingError(
                            f"scheduling simulation made no progress in {MAX_IDLE_EVENTS} "
                            f"events: none started or finished a job, and each either "
                            f"advanced the clock by only {MIN_EVENT_STEP} s or left every "
                            f"running job at rate zero (at t={clock:.6g} s)"
                        )
        finally:
            registry.counter("scheduler.events").inc(n_events)
            registry.counter("scheduler.jobs.started").inc(n_started)
            registry.counter("scheduler.jobs.finished").inc(n_finished)
            registry.counter("scheduler.placement.offers").inc(offers)
            registry.counter("scheduler.placement.declined").inc(declined)
            registry.counter("scheduler.placement.no_free_node").inc(no_node)
            registry.counter("scheduler.placement.no_pool_headroom").inc(no_pool)

        return ScheduleOutcome(policy=self.policy.name, jobs=tuple(jobs), makespan=clock)
