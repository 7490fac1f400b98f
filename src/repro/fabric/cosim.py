"""Rack co-simulation: tenants sharing a memory pool over a contended fabric.

:class:`RackCoSimulator` closes the loop between the per-node execution engine
and one rack: instead of injecting a configured Level of Interference, each
tenant's effective pool bandwidth is **re-derived every epoch from what its
co-runners are actually demanding** on the shared pool port.  Interference is
emergent:

1. every tenant first leases its remote capacity from the rack's
   :class:`~repro.fabric.pool.MemoryPool` (granted / queued / rejected),
2. each epoch, the offered bandwidth of every running tenant's current phase
   is resolved through the :class:`~repro.fabric.topology.FabricTopology`,
   giving each tenant the background its co-runners generate,
3. the per-node performance model converts that background into the epoch's
   progress rate, so a tenant in a bandwidth-hungry phase slows everyone on
   its port down — and finishes later itself, prolonging the interference it
   causes (the feedback the static-LoI model cannot express),
4. completed tenants return their leases, admitting queued tenants.

Baseline phase runtimes and traffic come from one interference-free
:class:`~repro.sim.engine.ExecutionEngine` run per unique workload
(:func:`baseline_run`), so the co-simulation inherits the full
cache/prefetch/placement behaviour of the single-node model.

Coupling contract (used by :mod:`repro.fabric.cluster`)
-------------------------------------------------------

A rack never runs on its own: the one public fabric simulator,
:class:`~repro.fabric.cluster.ClusterCoSimulator`, builds one
:class:`RackCoSimulator` per rack of its fabric (a standalone rack is its
1-rack case) and drives them, for its closed loop and for the scheduler in
:mod:`repro.scheduler.progress` alike:

* **Units.**  Progress is measured in *baseline seconds*: one baseline second
  is the work the tenant completes per wall-clock second on an idle fabric.
  Bandwidths are bytes/s of *data* payload (protocol overhead is the
  :class:`~repro.interconnect.link.RemoteLink`'s job); times are simulated
  wall-clock seconds.
* **Epoch semantics.**  Backgrounds (what each tenant's co-runners deliver
  through its pool port) are re-resolved only at *epoch rollovers*: every
  ``epoch_seconds`` of stepped time, and immediately on tenant admission or
  withdrawal.  Between rollovers backgrounds are frozen, so per-phase progress
  rates are piecewise constant and an external event loop can do exact linear
  completion-time bookkeeping as long as it never steps past
  :meth:`RackCoSimulator.horizon` in one go.  A rollover that would skip its
  solve changes no rate, so the horizon runs past it and the rollover is
  recorded in place, at its own time.
* **Tenant ↔ job mapping.**  Each running job is one :class:`TenantSpec` (one
  tenant per occupied node); :meth:`RackCoSimulator.admit` runs when the job
  starts and :meth:`RackCoSimulator.withdraw` when the cluster retires it.  A
  rack never releases a pool lease on its own — lease lifetime is exactly
  job lifetime, owned by the cluster and whoever steps it.
* **Checkpoint / rollback.**  :meth:`RackCoSimulator.checkpoint` snapshots the
  epoch state (clock, intra-epoch elapsed time, frozen backgrounds, per-tenant
  phase progress); :func:`roll_back` rolls racks back to such snapshots so
  speculative steps — e.g. stepping to an estimated completion that an
  earlier arrival then invalidates — can be re-taken.  Checkpoints stay valid
  only while the tenant mix is unchanged.
* **Faults.**  An armed :class:`~repro.fabric.faults.FaultSchedule` fires at
  exact simulated times: :func:`step_racks` sub-chunks at fault times, each
  applied fault (:meth:`RackCoSimulator.apply_fault`) forces an epoch
  rollover (dirtying the solver key), and the damage is summarised by the
  blast radius.  There is one code path with or without faults: a fault-free
  chunk runs the same bookkeeping and finds nothing to charge.  Rollback
  across an *applied* fault raises (pool/lease state is not checkpointed),
  while rollback with faults merely pending is bit-identical.  See
  ``docs/failure_model.md``.

Racks that step together share one :class:`_Lockstep`: one clock, one
epoch length, one fault feed and one map of where each tenant lives.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from ..config.errors import FabricError
from ..config.testbed import SKYLAKE_EMULATION, TestbedConfig
from ..sim.engine import ExecutionEngine
from ..sim.perfmodel import PerformanceModel, PhaseInputs
from ..sim.platform import Platform
from ..sim.results import PhaseResult, RunResult
from ..telemetry import TimeSeries, metrics, trace_span
from ..workloads.base import WorkloadSpec
from .faults import (
    DEFAULT_DRAIN_BYTES_PER_S,
    FAULT_LEASE_REVOKE,
    FAULT_LEASE_SHRINK,
    FAULT_POOL_CAPACITY_LOSS,
    FAULT_PORT_DEGRADE,
    FAULT_PORT_KILL,
    FAULT_PORT_RESTORE,
    BlastRadiusReport,
    FaultEvent,
    FaultSchedule,
    TenantImpact,
)
from .interference import DynamicInterference
from .pool import (
    LEASE_GRANTED,
    LEASE_QUEUED,
    LEASE_REVOKED,
    Lease,
    MemoryPool,
    PoolSample,
)
from .topology import FabricTopology


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the rack: a workload bound to a node and a pool share.

    Attributes
    ----------
    name:
        Unique tenant name (job identifier).
    workload:
        The workload specification the tenant executes.
    local_fraction:
        Fraction of the workload's footprint served by node-local memory; the
        remainder is leased from the shared pool (the paper's 75/50/25 splits).
    arrival:
        Simulated submit time, seconds.
    pool_bytes:
        Explicit pool lease size; None derives it from the footprint and
        ``local_fraction``.
    baseline_runtime:
        Runtime of the job the tenant stands for, seconds, to which its
        phases stretch at their offered bandwidth; None keeps the engine's.
    """

    name: str
    workload: WorkloadSpec
    local_fraction: float = 0.5
    arrival: float = 0.0
    pool_bytes: Optional[int] = None
    baseline_runtime: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.local_fraction <= 1.0:
            raise FabricError(f"tenant {self.name!r}: local_fraction must be in (0, 1]")
        if self.arrival < 0:
            raise FabricError(f"tenant {self.name!r}: arrival must be >= 0")
        if self.pool_bytes is not None and self.pool_bytes < 0:
            raise FabricError(f"tenant {self.name!r}: pool_bytes must be >= 0")
        if self.baseline_runtime is not None and not self.baseline_runtime > 0:
            raise FabricError(f"tenant {self.name!r}: baseline_runtime must be > 0")

    @property
    def lease_bytes(self) -> int:
        """Pool capacity the tenant leases while it runs, bytes."""
        if self.pool_bytes is not None:
            return int(self.pool_bytes)
        return int(round(self.workload.footprint_bytes * (1.0 - self.local_fraction)))


def uniform_tenants(
    workload: WorkloadSpec,
    n: int,
    local_fraction: float = 0.5,
    stagger: float = 0.0,
    pool_bytes: Optional[int] = None,
) -> list[TenantSpec]:
    """``n`` identical tenants of one workload, arrivals ``stagger`` s apart.

    The shared constructor behind the CLI, the figure builder and the
    benchmark sweep, so the tenant-naming and arrival conventions stay in one
    place.
    """
    if n <= 0:
        raise FabricError("need at least one tenant")
    return [
        TenantSpec(
            name=f"{workload.name}-{i}",
            workload=workload,
            local_fraction=local_fraction,
            arrival=i * stagger,
            pool_bytes=pool_bytes,
        )
        for i in range(n)
    ]


#: Most baseline runs :func:`baseline_run` keeps (least recently used go first).
_BASELINE_MEMO_SIZE = 64
#: (id(workload), local_fraction, testbed, seed) -> (workload, run result).
_baselines: OrderedDict = OrderedDict()


def baseline_run(
    workload: WorkloadSpec,
    local_fraction: float = 0.5,
    testbed: TestbedConfig = SKYLAKE_EMULATION,
    seed: int = 0,
) -> RunResult:
    """The interference-free engine run of ``workload`` on the pooled platform.

    The one reference measurement behind every fabric baseline: the
    co-simulator's tenants and placement probes read its phases directly,
    and the scheduler's fabric job profiles
    (:func:`repro.scheduler.progress.fabric_job_profile`) its totals.  The
    run is a pure function of its arguments, so it is memoized per
    (workload, local fraction, testbed, seed) in a small LRU; without it
    every placement probe would price a fresh run.  Each entry holds the
    workload object itself and only that very object (``is``) hits: a key
    built from ``id()`` alone could hand a new workload the run of a freed
    one whose id CPython reused.
    """
    key = (id(workload), local_fraction, testbed, seed)
    entry = _baselines.get(key)
    if entry is not None and entry[0] is workload:
        _baselines.move_to_end(key)
        metrics().counter("fabric.profile.cache_hits").inc()
        return entry[1]
    metrics().counter("fabric.profile.runs").inc()
    with trace_span("fabric.profile", workload=workload.name):
        platform = Platform.pooled(
            workload.footprint_bytes, local_fraction, testbed=testbed
        )
        result = ExecutionEngine(platform, seed=seed).run(workload)
    _baselines[key] = (workload, result)
    _baselines.move_to_end(key)
    if len(_baselines) > _BASELINE_MEMO_SIZE:
        _baselines.popitem(last=False)
    return result


class _TenantState:
    """Mutable progress bookkeeping of one tenant during the co-simulation.

    ``baseline`` is the tenant's interference-free engine run
    (:func:`baseline_run`); its phases are shared with every tenant of the
    same workload and local fraction; a spec's ``baseline_runtime`` stretches
    their runtimes (not their rates) to it.  ``perf`` prices the tenant's
    phases on its pool port, which may be provisioned differently from the
    node's own link.
    """

    def __init__(
        self, spec: TenantSpec, node: int, perf: PerformanceModel, baseline: RunResult
    ) -> None:
        self.spec = spec
        self.node = node
        self.lease = None
        self.perf = perf
        self.phases: tuple[PhaseResult, ...] = baseline.phases
        self.baseline_runtime = spec.baseline_runtime or baseline.total_runtime
        stretch = self.baseline_runtime / baseline.total_runtime  # 1.0 unless set
        #: Baseline seconds of each phase.
        self.runtimes = tuple(p.runtime * stretch for p in self.phases)
        #: Baseline seconds of the phases before phase ``i``, for every ``i``
        #: up to ``len(phases)`` (summed the way the sums always were, so
        #: the bits match on every Python version).
        self.phases_before = tuple(
            sum(self.runtimes[:i]) for i in range(len(self.phases) + 1)
        )
        self.unit_time_idle = tuple(
            self.unit_time(index, 0.0) for index in range(len(self.phases))
        )
        self.phase_index = 0
        self.phase_elapsed = 0.0  # baseline-seconds completed in the current phase
        # One-entry progress-rate cache, keyed by the phase index and the
        # frozen background it was evaluated under (see _progress_rate).
        self.rate_phase = -1
        self.rate_background = 0.0
        self.rate = 0.0
        self.finish_time: Optional[float] = None
        self.background_times: list[float] = []
        self.background_bandwidths: list[float] = []
        # Fault bookkeeping (all zero/None until a fault lands).
        self.stall_seconds = 0.0  # wall time lost to faults
        self.migration_debt = 0.0  # page give-back drain still owed, wall-seconds
        self.revoked_at: Optional[float] = None
        self.readmit_latency: Optional[float] = None
        self.revocations = 0
        self.migrated_bytes = 0
        # A revocation replaces the lease, so the original grant time (the
        # tenant's true start for wait/runtime accounting) is stashed here.
        self.first_granted_at: Optional[float] = None

    @property
    def start_time(self) -> Optional[float]:
        """Grant time of the tenant's *first* lease (survives revocations)."""
        if self.first_granted_at is not None:
            return self.first_granted_at
        return self.lease.granted_at if self.lease is not None else None

    @property
    def finished(self) -> bool:
        return self.finish_time is not None

    @property
    def running(self) -> bool:
        return (
            self.lease is not None
            and self.lease.state == LEASE_GRANTED
            and self.finish_time is None
        )

    def unit_time(self, index: int, background: float) -> float:
        """Wall time for one baseline-second of phase ``index`` under ``background``."""
        phase = self.phases[index]
        runtime = max(phase.runtime, 1e-12)
        inputs = PhaseInputs(
            flops=phase.flops / runtime,
            local_demand_bytes=phase.local_bytes / runtime,
            remote_demand_bytes=phase.remote_bytes / runtime,
            prefetch_coverage=phase.prefetch_coverage,
            mlp=self.spec.workload.phases[index].mlp,
            background_bandwidth=background,
        )
        return max(self.perf.phase_time(inputs).runtime, 1e-12)

    def current_offered_bandwidth(self) -> float:
        if self.phase_index >= len(self.phases):
            return 0.0
        return self.phases[self.phase_index].remote_bandwidth_demand

    @property
    def completed_baseline_seconds(self) -> float:
        """Baseline seconds of work completed so far (phases done + partial)."""
        return self.phases_before[self.phase_index] + self.phase_elapsed

    def outcome(self) -> "TenantOutcome":
        """The tenant's statistics as they stand (what
        :meth:`~repro.fabric.cluster.ClusterCoSimulator.outcome` reports)."""
        return TenantOutcome(
            name=self.spec.name,
            workload=self.spec.workload.name,
            node=self.node,
            arrival=self.spec.arrival,
            start_time=self.start_time,
            finish_time=self.finish_time,
            baseline_runtime=self.baseline_runtime,
            lease_bytes=self.spec.lease_bytes,
            lease_state=self.lease.state,
            mean_background_bandwidth=(
                float(np.mean(self.background_bandwidths))
                if self.background_bandwidths
                else 0.0
            ),
        )

    def interference(self) -> DynamicInterference:
        """The background-bandwidth timeline the tenant experienced on its
        pool port's link."""
        return DynamicInterference(
            self.background_times, self.background_bandwidths, link=self.perf.link
        )

    def impact(self) -> TenantImpact:
        """The tenant's share of the blast radius as it stands."""
        return TenantImpact(
            name=self.spec.name,
            stall_seconds=self.stall_seconds,
            revocations=self.revocations,
            readmission_latency=self.readmit_latency,
            migrated_bytes=self.migrated_bytes,
            throughput_lost=self.stall_seconds,
        )


#: 1e-12 as ``(numerator, power-of-two denominator)``, for :func:`_ends_within`.
_SLACK_RATIO = (1e-12).as_integer_ratio()


def _ends_within(state: _TenantState, rate: float, dt: float, used: float) -> bool:
    """Whether the current phase of ``state``, which floats put just past the
    ``dt - used`` wall-seconds left of a chunk, ends within 1e-12 s of them.

    Its exact residue decides: rounding it could cut a phase at the end of a
    chunk it outlasts by more, depending on how the chunk was cut up.  Past
    ~500 s of phase and chunk, a few ulps near 1e-12 s and floats decide.

    The exact test ``runtime - elapsed <= (dt - used + 1e-12) * rate`` is
    made in integers.  Every float is ``n / 2**k``, so the five summands are
    scaled to their largest denominator and both sides are multiplied by
    the rate's denominator; no step rounds.
    """
    runtime, elapsed = state.runtimes[state.phase_index], state.phase_elapsed
    if runtime / rate + dt > 500.0:
        return (runtime - elapsed) / rate <= (dt - used) + 1e-12
    (r, r_d), (e, e_d), (t, t_d), (u, u_d), (q, q_d) = (
        x.as_integer_ratio() for x in (runtime, elapsed, dt, used, rate)
    )
    s, s_d = _SLACK_RATIO
    d = max(r_d, e_d, t_d, u_d, s_d)
    residue = r * (d // r_d) - e * (d // e_d)
    left = t * (d // t_d) - u * (d // u_d) + s * (d // s_d)
    return residue * q_d <= left * q


@dataclass(frozen=True)
class TenantOutcome:
    """Per-tenant statistics of one co-simulation run."""

    name: str
    workload: str
    node: int
    arrival: float
    start_time: Optional[float]
    finish_time: Optional[float]
    baseline_runtime: float
    lease_bytes: int
    lease_state: str
    mean_background_bandwidth: float

    @property
    def runtime(self) -> float:
        """Wall-clock execution time while running (0 if the tenant never ran)."""
        if self.start_time is None or self.finish_time is None:
            return 0.0
        return self.finish_time - self.start_time

    @property
    def wait_time(self) -> float:
        """Delay between arrival and lease grant (0 if never granted)."""
        if self.start_time is None:
            return 0.0
        return self.start_time - self.arrival

    @property
    def slowdown(self) -> float:
        """Execution time relative to the interference-free baseline (>= ~1)."""
        if self.runtime <= 0 or self.baseline_runtime <= 0:
            return 1.0
        return self.runtime / self.baseline_runtime


#: Columns of the per-rack epoch timeline (shared by every RackTelemetry).
_TIMELINE_COLUMNS = (
    "leased_bytes",
    "queue_depth",
    "active_tenants",
    "max_port_utilization",
    "max_port_waiting_ns",
)


class RackTelemetry:
    """Epoch-resolution timeline of the shared pool and its fabric ports.

    A thin adapter over one :class:`repro.telemetry.TimeSeries` — the rows
    live in the telemetry instrument, not in a parallel set of hand-rolled
    lists — plus live registry gauges (``fabric.pool.leased_bytes``,
    ``fabric.pool.queue_depth``) and a ``fabric.port.utilization`` histogram
    updated on every recorded epoch.  The timeline itself always records
    (it is simulation output feeding the pool-timeline figure), while the
    registry side honours the process-wide telemetry enable flag.  The
    public :meth:`series` shape is unchanged.
    """

    def __init__(self, series: Optional[TimeSeries] = None) -> None:
        self._timeline = (
            series
            if series is not None
            else TimeSeries("fabric.rack.timeline", _TIMELINE_COLUMNS)
        )

    # Column views (kept for callers that index the raw timeline).

    @property
    def times(self) -> list[float]:
        return self._timeline.times

    @property
    def leased_bytes(self) -> list[int]:
        return self._timeline.column("leased_bytes")

    @property
    def queue_depth(self) -> list[int]:
        return self._timeline.column("queue_depth")

    @property
    def active_tenants(self) -> list[int]:
        return self._timeline.column("active_tenants")

    @property
    def max_port_utilization(self) -> list[float]:
        return self._timeline.column("max_port_utilization")

    @property
    def max_port_waiting_ns(self) -> list[float]:
        return self._timeline.column("max_port_waiting_ns")

    def __len__(self) -> int:
        return len(self._timeline)

    def record(
        self, sample: PoolSample, utilization: float, waiting_seconds: float
    ) -> None:
        """Record one epoch sample; one at the latest row's instant replaces it."""
        self._append(sample, utilization, waiting_seconds / 1e-9)

    def repeat(self, sample: PoolSample) -> None:
        """Record ``sample`` with the port load of the latest row.

        A rollover that skips its solve resolves the very demands the latest
        row was computed from, so it would compute the same load again.
        """
        self._append(sample, self.max_port_utilization[-1], self.max_port_waiting_ns[-1])

    def _append(self, sample: PoolSample, utilization: float, waiting_ns: float) -> None:
        if self.times and self.times[-1] >= sample.time - 1e-12:
            self.drop_last()
        self._timeline.append(
            sample.time,
            leased_bytes=sample.leased_bytes,
            queue_depth=sample.queue_depth,
            active_tenants=sample.active_leases,
            max_port_utilization=utilization,
            max_port_waiting_ns=waiting_ns,
        )
        registry = metrics()
        registry.gauge("fabric.pool.leased_bytes").set(sample.leased_bytes)
        registry.gauge("fabric.pool.queue_depth").set(sample.queue_depth)
        registry.histogram("fabric.port.utilization").observe(utilization)

    def drop_last(self) -> None:
        """Remove the most recent epoch sample (same-instant re-record)."""
        self._timeline.drop_last()

    def trim_after(self, time: float) -> None:
        """Drop samples recorded after ``time`` (checkpoint rollback)."""
        self._timeline.trim_after(time)

    def series(self) -> dict:
        """The timeline as plain arrays (for figures and JSON output)."""
        raw = self._timeline.series()
        return {
            "time": raw["time"],
            "leased_gb": [b / 1e9 for b in raw["leased_bytes"]],
            "queue_depth": raw["queue_depth"],
            "active_tenants": raw["active_tenants"],
            "max_port_utilization": raw["max_port_utilization"],
            "max_port_waiting_ns": raw["max_port_waiting_ns"],
        }


#: The per-tenant state a checkpoint captures: phase progress and the fault
#: bookkeeping.
_CHECKPOINTED = (
    "phase_index",
    "phase_elapsed",
    "finish_time",
    "stall_seconds",
    "migration_debt",
    "revoked_at",
    "readmit_latency",
    "revocations",
    "migrated_bytes",
    "first_granted_at",
)


@dataclass(frozen=True)
class EpochCheckpoint:
    """Snapshot of one rack's epoch state.

    Captures everything stepping mutates — the simulated clock, how far into
    the current epoch the simulation is, the epoch's frozen per-node
    backgrounds and every tenant's phase progress — but *not* the tenant mix
    or the pool's lease table: those only change through
    :meth:`RackCoSimulator.admit` / :meth:`RackCoSimulator.withdraw`, which
    invalidate the checkpoint.  Produced by
    :meth:`RackCoSimulator.checkpoint`, consumed by :func:`roll_back`.
    """

    clock: float
    epoch_elapsed: float
    backgrounds: tuple[tuple[int, float], ...]
    #: (name, *values of :data:`_CHECKPOINTED`) per tenant.
    tenants: tuple[tuple, ...]
    #: (name, background-timeline length) per tenant, for rollback trimming.
    histories: tuple[tuple[str, int], ...]
    #: (node, bytes/s) external background offsets (cluster spine traffic).
    offsets: tuple[tuple[int, float], ...] = ()
    #: Signature of the last resolved epoch, for dirty-epoch skip tracking.
    #: Restored on rollback so a stale signature can never cause a wrong skip.
    solve_key: Optional[tuple] = None
    #: Fault-layer mutation count at snapshot time.  Applying a fault (or
    #: re-requesting a revoked lease) mutates pool/lease state a checkpoint
    #: does not capture, so :func:`roll_back` refuses a
    #: checkpoint whose count no longer matches — rollback is bit-identical
    #: only while faults are merely *pending*.
    fault_epoch: int = 0
    #: Whether the next rollover would skip its solve, so a replay from the
    #: checkpoint cuts its chunks exactly where the original steps did.
    clean: bool = False


class _Lockstep:
    """What racks stepping in lockstep share: a
    :class:`~repro.fabric.cluster.ClusterCoSimulator` owns one for all its
    racks.  Each rack keeps only its time into its epoch.
    """

    def __init__(self, epoch: Optional[float]) -> None:
        if epoch is not None and epoch <= 0:
            raise FabricError("epoch_seconds must be positive")
        #: The racks in rack order; a rack's position here is its ``_index``.
        self.racks: tuple[RackCoSimulator, ...] = ()
        #: The one clock: :func:`step_racks` moves it once per chunk.
        self.clock = 0.0
        #: Epoch length, seconds; None until the first admission derives it.
        self.epoch = epoch
        self.schedule: Optional[FaultSchedule] = None
        #: (event, position of the rack it names), in firing order.
        self.feed: tuple[tuple[FaultEvent, int], ...] = ()
        self.cursor = 0
        #: Time of the next event in the feed (None once it is spent).
        self.next_fault: Optional[float] = None
        self.drain_bytes_per_s = DEFAULT_DRAIN_BYTES_PER_S
        #: Faults applied, and the fault impacts of withdrawn tenants.
        self.applied = 0
        self.withdrawn: dict[str, TenantImpact] = {}
        #: Tenant name -> position of its rack, in admission order.
        self.tenant_rack: dict[str, int] = {}

    def arm(
        self,
        schedule: FaultSchedule,
        positions: Mapping[int, int],
        drain_bytes_per_s: Optional[float],
    ) -> None:
        """Arm ``schedule`` once: an event joins the feed if ``positions``
        maps the rack it names to one here; any other stays inert."""
        if self.schedule is not None:
            raise FabricError("a fault schedule is already injected")
        if not isinstance(schedule, FaultSchedule):
            raise FabricError("inject_faults() needs a FaultSchedule")
        if drain_bytes_per_s is not None:
            if not 0 < drain_bytes_per_s < math.inf:
                raise FabricError(
                    f"drain_bytes_per_s must be positive and finite, got {drain_bytes_per_s}"
                )
            self.drain_bytes_per_s = float(drain_bytes_per_s)
        self.schedule = schedule
        self.feed = tuple(
            (event, positions[event.rack])
            for event in schedule.events
            if event.rack in positions
        )
        self.next_fault = self.feed[0][0].time if self.feed else None

    def apply_due_faults(self) -> None:
        """Apply every armed event whose time the clock has reached.

        A lease event acts on the rack hosting its tenant when it fires, and
        on the rack it names otherwise, where it is a counted no-op.  Every
        other event acts on the rack it names.
        """
        while self.next_fault is not None and self.next_fault <= self.clock + 1e-12:
            event, position = self.feed[self.cursor]
            self.cursor += 1
            self.next_fault = (
                self.feed[self.cursor][0].time if self.cursor < len(self.feed) else None
            )
            if event.kind in (FAULT_LEASE_REVOKE, FAULT_LEASE_SHRINK):
                position = self.tenant_rack.get(event.tenant, position)
            self.racks[position].apply_fault(event)

    @property
    def reports_faults(self) -> bool:
        """Whether a result carries a blast radius: events are armed, a fault
        was applied, or a pool is elastic (reclaims stall like faults)."""
        elastic = any(rack.pool.elastic for rack in self.racks)
        return bool(self.feed or self.applied) or elastic

    def blast_radius(self) -> BlastRadiusReport:
        """Every rack's damage so far, live tenants and withdrawn ones."""
        impacts = dict(self.withdrawn)
        for rack in self.racks:
            for name, state in rack.tenant_states.items():
                impacts[name] = state.impact()
        return BlastRadiusReport(
            faults_injected=self.applied,
            revocations=sum(i.revocations for i in impacts.values()),
            tenants=tuple(impacts[name] for name in sorted(impacts)),
        )


class RackCoSimulator:
    """Epoch-driven co-simulation of tenants sharing one rack's memory pool.

    Internal to the fabric: only a
    :class:`~repro.fabric.cluster.ClusterCoSimulator` builds one, per rack of
    its fabric, and drives it through the coupling contract in the module
    docstring.

    Parameters
    ----------
    topology:
        The rack's fabric wiring.
    pool:
        The rack's shared memory pool.
    testbed:
        Platform description used for the per-node performance models.
    seed:
        Seed for the tenants' baseline engine runs.
    lockstep:
        The state shared with the racks stepping in lockstep with this one;
        the rack joins it as its next rack.
    """

    def __init__(
        self,
        topology: FabricTopology,
        pool: MemoryPool,
        testbed: TestbedConfig,
        seed: int,
        lockstep: _Lockstep,
    ) -> None:
        self.testbed = testbed
        self.topology = topology
        self.pool = pool
        self.seed = int(seed)
        self._lockstep = lockstep
        self._index = len(lockstep.racks)
        lockstep.racks += (self,)
        self._states: dict[str, _TenantState] = {}
        self._epoch_elapsed = 0.0
        self._backgrounds: dict[int, float] = {}
        self._telemetry = RackTelemetry()
        #: External (outside-the-rack) background per node, bytes/s.
        self._offsets: dict[int, float] = {}
        #: Signature of the epoch state the current backgrounds were resolved
        #: for — when the next rollover poses the identical problem, the
        #: contention solve is skipped (see :func:`roll_over`).
        self._solve_key: Optional[tuple] = None
        #: True while a rollover now would skip its solve: its demand
        #: signature still equals ``_solve_key`` and no revoked tenant
        #: waits for its lease.  Every rollover sets it; whatever changes a
        #: signature input outside a rollover clears it.  A clean rack's
        #: epoch ends are not step boundaries (see :meth:`_chunk_bound`).
        self._clean = False
        #: Applied faults and lease re-requests, which checkpoints cannot undo.
        self._fault_mutations = 0
        #: Residual capacity per degraded port (killed = 0.0); absent = healthy.
        self._port_scales: dict[int, float] = {}

    # -- baseline profiling ---------------------------------------------------------

    def _baseline(self, spec: TenantSpec) -> RunResult:
        """The tenant's interference-free engine run (:func:`baseline_run`)."""
        return baseline_run(spec.workload, spec.local_fraction, self.testbed, self.seed)

    def _new_tenant(self, spec: TenantSpec, node: int) -> _TenantState:
        """``spec`` on ``node``, priced on the node's pool port."""
        perf = PerformanceModel(self.testbed, self.topology.link_of(node))
        return _TenantState(spec, node, perf, self._baseline(spec))

    def _progress_rate(self, state: _TenantState, background: float) -> float:
        """Baseline-seconds of progress per wall-clock second in the current phase.

        Normalised against the same model at zero background, so slowdowns are
        exactly 1 on an idle fabric regardless of model details, and clamped at
        1: the perf model prices some latency-bound phases faster under load.

        The rate is a pure function of the phase and the background, and both
        change only at phase boundaries and epoch rollovers, so each tenant
        remembers its last evaluation: the perf model runs (and
        ``fabric.rates.evaluations`` counts) only when either one changed,
        not on every rate, horizon and step query.
        """
        index = state.phase_index
        if index == state.rate_phase and background == state.rate_background:
            return state.rate
        metrics().counter("fabric.rates.evaluations").inc()
        state.rate = min(
            state.unit_time_idle[index] / state.unit_time(index, background), 1.0
        )
        state.rate_phase = index
        state.rate_background = background
        return state.rate

    def _advance(
        self, state: _TenantState, background: float, dt: float
    ) -> Optional[float]:
        """Advance a tenant by ``dt`` wall-seconds under ``background``.

        Returns the wall time actually consumed if the tenant finished inside
        the epoch, else None.  Phase boundaries inside the epoch are honoured:
        the next phase runs at its own rate (the background map, however, is
        only refreshed at epoch granularity).
        """
        used = 0.0
        while used < dt and state.phase_index < len(state.phases):
            rate = self._progress_rate(state, background)
            baseline_remaining = state.runtimes[state.phase_index] - state.phase_elapsed
            wall_needed = baseline_remaining / rate
            if wall_needed <= dt - used or (
                wall_needed <= (dt - used) + 2e-12 and _ends_within(state, rate, dt, used)
            ):
                used += wall_needed
                state.phase_index += 1
                state.phase_elapsed = 0.0
            else:
                state.phase_elapsed += (dt - used) * rate
                used = dt
        if state.phase_index >= len(state.phases):
            return used
        return None

    # -- the cluster's API ------------------------------------------------------------
    #
    # The methods below let the cluster drive one rack's co-simulation between
    # its own events.  See the module docstring ("Coupling contract") for units
    # and epoch semantics.

    @property
    def clock(self) -> float:
        """Simulated time of the co-simulation, seconds: the lockstep's clock."""
        return self._lockstep.clock

    @property
    def telemetry(self) -> RackTelemetry:
        """Epoch-rollover telemetry of the rack."""
        return self._telemetry

    @property
    def tenant_states(self) -> Mapping[str, _TenantState]:
        """Live per-tenant state, keyed by tenant name: a read-only view that
        follows later admissions and withdrawals."""
        return MappingProxyType(self._states)

    def admit(self, spec: TenantSpec, node: Optional[int] = None) -> "Lease":
        """Admit one tenant into the running co-simulation at the current clock.

        Profiles the tenant interference-free (:func:`baseline_run`),
        requests its pool lease and rolls the epoch over so the new tenant's
        demand is part of the resolved backgrounds immediately.  ``node`` is
        the rack-local node index (first free node when omitted).  Returns
        the tenant's lease so the caller can see whether it was granted or
        queued.
        """
        lockstep = self._lockstep
        if spec.name in lockstep.tenant_rack:
            raise FabricError(f"tenant {spec.name!r} is already admitted")
        occupied = {s.node for s in self._states.values()}
        if node is None:
            free = [n for n in range(self.topology.n_nodes) if n not in occupied]
            if not free:
                raise FabricError("no free node in the rack fabric")
            node = free[0]
        elif not 0 <= node < self.topology.n_nodes:
            raise FabricError(
                f"node {node} is not part of this {self.topology.n_nodes}-node fabric"
            )
        elif node in occupied:
            raise FabricError(f"node {node} already hosts a tenant")
        metrics().counter("fabric.cosim.admitted").inc()
        state = self._new_tenant(spec, node)
        if lockstep.epoch is None:
            lockstep.epoch = max(state.baseline_runtime / 40.0, 1e-6)
        state.lease = self.pool.request(spec.name, spec.lease_bytes, time=self.clock)
        self._states[spec.name] = state
        lockstep.tenant_rack[spec.name] = self._index
        if self.pool.elastic:
            # An overcommitting pool may have shrunk co-tenants to fit the
            # newcomer; charge those reclaims before re-resolving the epoch.
            self._consume_pool_reclaims()
        roll_over((self,), self._solve_alone, force=True)
        return state.lease

    def withdraw(self, name: str) -> None:
        """Remove a tenant (finished or cancelled) at the current clock and
        return its lease.

        Releasing the lease admits queued co-tenants in FIFO order; the epoch
        is rolled over so the departed tenant's demand stops interfering in
        the same instant.  The tenant's fault impact stays in the blast
        radius.
        """
        if name not in self._states:
            raise FabricError(f"no admitted tenant named {name!r}")
        metrics().counter("fabric.cosim.withdrawn").inc()
        state = self._states.pop(name)
        del self._lockstep.tenant_rack[name]
        self._lockstep.withdrawn[name] = state.impact()
        if state.lease is not None and state.lease.state in (LEASE_GRANTED, LEASE_QUEUED):
            self.pool.release(state.lease, time=self.clock)
        roll_over((self,), self._solve_alone, force=True)

    def set_background_offset(self, node: int, bandwidth: float) -> None:
        """Impose extra background bandwidth on ``node`` from outside the rack.

        The offset models traffic the intra-rack solve cannot see — a cluster
        fabric's spine traffic landing on the node's pool path — and is simply
        added to whatever intra-rack background the node's co-runners
        generate.  It takes effect immediately (the current epoch's frozen
        background is adjusted in place, and the tenant's background history
        gets a point at the current clock) and persists across rollovers
        until replaced; pass 0 to clear.  Offsets are part of the dirty-epoch
        signature, so changing them always triggers a re-solve path update.
        """
        if not 0 <= node < self.topology.n_nodes:
            raise FabricError(
                f"node {node} is not part of this {self.topology.n_nodes}-node fabric"
            )
        if bandwidth < 0:
            raise FabricError("background offset must be >= 0")
        old = self._offsets.get(node, 0.0)
        if bandwidth > 0:
            self._offsets[node] = float(bandwidth)
        else:
            self._offsets.pop(node, None)
        delta = float(bandwidth) - old
        if delta == 0.0:
            return
        self._clean = False
        if node in self._backgrounds:
            self._backgrounds[node] += delta
            for state in self._states.values():
                if state.node != node or not state.running:
                    continue
                background = self._backgrounds[node]
                if (
                    state.background_times
                    and state.background_times[-1] >= self.clock - 1e-12
                ):
                    state.background_bandwidths[-1] = background
                else:
                    state.background_times.append(self.clock)
                    state.background_bandwidths.append(background)

    def baseline_runtime_of(self, name: str) -> float:
        """Interference-free total runtime of an admitted tenant, seconds."""
        return self._state_of(name).baseline_runtime

    def peak_offered_bandwidth(self, spec: TenantSpec) -> float:
        """Pool bandwidth of a tenant's hungriest phase, bytes/s.

        Reads the tenant's baseline run (:func:`baseline_run`) without
        admitting it — used by placement policies to project what a
        prospective tenant would add to a pool port.
        """
        phases = self._baseline(spec).phases
        return max((p.remote_bandwidth_demand for p in phases), default=0.0)

    def current_demands(self) -> dict[int, float]:
        """Offered pool bandwidth per node of the currently running tenants."""
        return {
            s.node: s.current_offered_bandwidth()
            for s in self._states.values()
            if s.running
        }

    def progress_rates(self) -> dict[str, float]:
        """Baseline-seconds of progress per wall-second, per running tenant.

        Rates are exact under the current epoch's frozen backgrounds and the
        tenants' current phases; they stay valid for at most
        :meth:`horizon` seconds.  Fault-stalled tenants — revoked lease,
        killed port, or a migration drain in progress — report an **explicit
        0.0** rather than being omitted, so coupled schedulers observe the
        stall instead of falling back to a static estimate.
        """
        rates: dict[str, float] = {}
        scales = self._port_scales
        for name, state in self._states.items():
            if state.running:
                if state.migration_debt > 0.0 or (scales and self._on_killed_port(state)):
                    rates[name] = 0.0
                elif state.phase_index < len(state.phases):
                    rates[name] = self._progress_rate(
                        state, self._backgrounds.get(state.node, 0.0)
                    )
            elif not state.finished and state.revoked_at is not None and (
                state.readmit_latency is None
            ):
                # Revoked (or re-queued after revocation): stalled.
                rates[name] = 0.0
        return rates

    def horizon(self) -> float:
        """Wall seconds the current :meth:`progress_rates` stay exact.

        Bounded by the next rollover that re-solves and by the nearest phase
        boundary of any running tenant (a new phase runs at a different
        rate); also by the next fault time (on any rack of the lockstep) and
        by every migration drain that is actually being paid.  The epoch end
        bounds it only while the rack is dirty: a rollover that would skip
        its solve changes no rate.  When no rate will ever change on its own,
        the epoch end is the bound anyway, so no caller steps forever.
        """
        epoch = self._lockstep.epoch
        if epoch is None:
            raise FabricError(
                "the co-simulation has no epoch length yet: pass epoch_seconds "
                "or admit a tenant first"
            )
        bound = self._rate_change()[0]
        if not self._clean or bound == math.inf:
            bound = min(bound, max(epoch - self._epoch_elapsed, 1e-12))
        return max(bound, 1e-12)

    def progressing(self) -> bool:
        """Whether some running tenant advances now: it has a positive
        progress rate or is paying a migration drain."""
        return self._rate_change()[1]

    def _rate_change(self) -> tuple[float, bool]:
        """Wall seconds to the next rate change this rack makes on its own,
        and whether any running tenant advances meanwhile.

        The one walk behind :meth:`horizon`, :meth:`progressing` and a clean
        rack's :meth:`_chunk_bound`.  The next rate change is the nearest of
        the next fault, every drain being paid and every progressing
        tenant's phase end (infinite when there is none).  It reads the
        same tenants :meth:`progress_rates` prices, so it evaluates no rate
        that call would not.
        """
        bound = math.inf
        moving = False
        nxt = self._lockstep.next_fault
        if nxt is not None:
            bound = max(nxt - self.clock, 1e-12)
        scales = self._port_scales
        for state in self._states.values():
            if not state.running or state.phase_index >= len(state.phases):
                continue
            if state.migration_debt > 0.0 or (scales and self._on_killed_port(state)):
                if self._draining(state):
                    # The rate flips from 0 back up once the drain finishes.
                    bound = min(bound, max(state.migration_debt, 1e-12))
                    moving = True
                # Otherwise stalled; debt owed behind a killed port waits for
                # the port restore, a fault time that bounds the walk already.
                continue
            rate = self._progress_rate(state, self._backgrounds.get(state.node, 0.0))
            if rate > 0:
                remaining = state.runtimes[state.phase_index] - state.phase_elapsed
                bound = min(bound, max(remaining, 0.0) / rate)
                moving = True
        return bound, moving

    # No caller in the library: perfbench/layers.py binds it and the lockstep
    # oracle in tests/fabric/oracles.py steps each rack through it.
    def step(self, dt: float) -> dict[str, float]:
        """Advance the co-simulation ``dt`` wall-seconds.

        Progress accrues under the current epoch's frozen backgrounds; epoch
        boundaries crossed inside ``dt`` trigger rollovers (backgrounds are
        re-resolved mid-step), so arbitrarily large ``dt`` values are legal —
        but only steps of at most :meth:`horizon` keep rates piecewise
        constant for the caller's own bookkeeping.  Tenants finishing inside
        the step get their ``finish_time`` set and stop demanding bandwidth;
        their leases stay held until :meth:`withdraw`.  Returns the baseline
        seconds each tenant completed during the step.

        The rack runs the fabric's one stepping loop, :func:`step_racks`, alone.
        """
        if dt < 0:
            raise FabricError("cannot step the co-simulation backwards")
        return step_racks((self,), dt, self._solve_alone)

    def _chunk_bound(self) -> float:
        """The longest chunk :meth:`step_frozen` may take now.

        A dirty rack's chunk ends at its epoch end: 0 when a rollover is
        due.  A clean rack's rollovers would skip their solve, so its chunk
        runs to its next rate change (:meth:`_rate_change`: a fault, a drain
        end or a phase end) and :meth:`step_frozen` records the rollovers it
        crosses in place.  Infinite for a rack with no epoch length yet.
        """
        epoch = self._lockstep.epoch
        if epoch is None:
            return math.inf
        if self._clean:
            return max(self._rate_change()[0], 1e-12)
        return max(epoch - self._epoch_elapsed, 0.0)

    def step_frozen(self, dt: float) -> dict[str, float]:
        """Advance ``dt`` wall-seconds under the current frozen backgrounds.

        The one place tenants advance.  ``dt`` must not cross the next fault
        time, nor this rack's epoch end while the rack is dirty
        (:meth:`_chunk_bound` bounds it).  Epoch ends a clean rack crosses
        are recorded in place as the skipped rollovers they are; its one
        caller, :func:`step_racks`, moves the clock on and rolls the epoch
        over once it is due at the chunk's end (:func:`roll_over`), which
        lets a :class:`~repro.fabric.cluster.ClusterCoSimulator` batch every rack's
        re-solve into one solve call.  A tenant on a killed port stalls
        for the whole chunk, one owing migration debt pays it down first,
        and a revoked tenant waiting for its lease stalls too.  Returns the
        baseline seconds each tenant completed.
        """
        if dt < 0:
            raise FabricError("cannot step the co-simulation backwards")
        registry = metrics()
        registry.counter("fabric.cosim.step_calls").inc()
        registry.counter("fabric.cosim.stepped_seconds").inc(dt)
        done = {name: 0.0 for name in self._states}
        epoch = self._lockstep.epoch
        if dt <= 1e-15 or epoch is None:
            # With no epoch length nothing was ever admitted: no work happens.
            return done
        running = [s for s in self._states.values() if s.running]
        left = max(epoch - self._epoch_elapsed, 0.0)
        if dt > left + 1e-12:
            if not self._clean:
                raise FabricError(
                    "step_frozen cannot cross the epoch end of a rack whose "
                    "rollover would re-solve; roll the epoch over first"
                )
            elapsed = self._skip_rollovers(running, left, dt)
        else:
            elapsed = self._epoch_elapsed + dt
        scales = self._port_scales
        for state in running:
            # Only a faulted port or migration debt costs a tenant wall time.
            owes = scales or state.migration_debt > 0.0
            avail = self._fault_chunk_available(state, dt) if owes else dt
            if avail <= 0.0:
                continue
            index = state.phase_index
            before = state.completed_baseline_seconds
            used = self._advance(
                state, self._backgrounds.get(state.node, 0.0), avail
            )
            done[state.spec.name] += state.completed_baseline_seconds - before
            if state.phase_index != index:
                # A new phase offers a new demand, a finish none at all.
                self._clean = False
            if used is not None and state.finish_time is None:
                state.finish_time = self.clock + (dt - avail) + used
        if len(running) < len(self._states):
            for state in self._states.values():
                # Between revocation and re-grant (the lease is REVOKED or
                # back in the queue) the tenant makes no progress: all of
                # that wall time is fault-induced stall.
                if (
                    state.revoked_at is not None
                    and state.readmit_latency is None
                    and not state.finished
                    and not state.running
                ):
                    self._record_stall(state, dt)
        self._epoch_elapsed = elapsed
        return done

    def _skip_rollovers(
        self, running: list[_TenantState], left: float, dt: float
    ) -> float:
        """Record the rollovers a clean rack's chunk of ``dt`` crosses.

        Each is the skipped rollover :func:`roll_over` would have made at
        that epoch end: it is counted, and it records background history
        and a telemetry sample for the tenants running at the chunk's start,
        whose rates cannot change before the chunk ends.  The first falls
        ``left`` seconds in, each later one an epoch after the previous;
        one within 1e-12 s of the chunk's end is left to the caller's
        :func:`roll_over`, which sees the tenants after the chunk.  Returns
        the epoch's elapsed time at the chunk's end.
        """
        end = self.clock + dt
        time = self.clock + left
        crossed = 1
        self._record_rollover(running, time)
        while time + self._lockstep.epoch < end - 1e-12:
            time += self._lockstep.epoch
            crossed += 1
            self._record_rollover(running, time)
        registry = metrics()
        registry.counter("fabric.cosim.epoch_rollovers").inc(crossed)
        registry.counter("fabric.cosim.epoch_skips").inc(crossed)
        return end - time

    def epoch_due(self) -> bool:
        """Whether the current epoch has fully elapsed (a rollover is due)."""
        return (
            self._lockstep.epoch is not None
            and self._epoch_elapsed >= self._lockstep.epoch - 1e-12
        )

    def checkpoint(self) -> EpochCheckpoint:
        """Snapshot the epoch state for a later :func:`roll_back`."""
        metrics().counter("fabric.cosim.checkpoints").inc()
        ordered = sorted(self._states.items())
        return EpochCheckpoint(
            clock=self.clock,
            epoch_elapsed=self._epoch_elapsed,
            backgrounds=tuple(sorted(self._backgrounds.items())),
            tenants=tuple(
                (name, *(getattr(s, field) for field in _CHECKPOINTED))
                for name, s in ordered
            ),
            histories=tuple((name, len(s.background_times)) for name, s in ordered),
            offsets=tuple(sorted(self._offsets.items())),
            solve_key=self._solve_key,
            clean=self._clean,
            fault_epoch=self._fault_mutations,
        )

    # -- fault injection / elastic leasing --------------------------------------------
    #
    # The failure model these methods implement is documented in
    # ``docs/failure_model.md``.  The armed schedule lives in the lockstep
    # state (:class:`_Lockstep`), port health and fault bookkeeping here.

    def port_health(self, port: int) -> float:
        """Residual capacity fraction of a pool port: 1.0 healthy, 0.0 killed."""
        return self._port_scales.get(port, 1.0)

    def apply_fault(self, event: FaultEvent) -> None:
        """Apply one fault event at the current clock (scheduled events land
        here too, so ad-hoc chaos drivers share the exact same semantics).

        Port events retune :meth:`port_health`; lease events act on the named
        tenant's granted pool lease (an unknown, finished or not-yet-granted
        tenant is a documented no-op — the fault outlived its target);
        capacity loss shrinks the pool, reclaiming elastic leases first and
        revoking the youngest granted leases as a last resort.  Every applied
        fault bumps the mutation counter — invalidating earlier checkpoints,
        see :class:`EpochCheckpoint` — and forces an epoch rollover, so the
        solver key is dirtied and the next solve sees the new world.
        """
        self._fault_mutations += 1
        self._lockstep.applied += 1
        metrics().counter("fabric.faults.injected").inc()
        kind = event.kind
        if kind in (FAULT_PORT_KILL, FAULT_PORT_DEGRADE, FAULT_PORT_RESTORE):
            if not 0 <= event.port < self.topology.n_ports:
                raise FabricError(
                    f"fault targets port {event.port} but the fabric has "
                    f"{self.topology.n_ports} ports"
                )
            if kind == FAULT_PORT_KILL:
                self._port_scales[event.port] = 0.0
            elif kind == FAULT_PORT_DEGRADE:
                self._port_scales[event.port] = float(event.scale)
            else:
                self._port_scales.pop(event.port, None)
        elif kind in (FAULT_LEASE_REVOKE, FAULT_LEASE_SHRINK):
            state = self._states.get(event.tenant)
            if state is not None and state.running:
                if kind == FAULT_LEASE_REVOKE:
                    self.pool.revoke(state.lease, time=self.clock)
                else:
                    self.pool.shrink(
                        state.lease, int(event.nbytes), time=self.clock
                    )
        elif kind == FAULT_POOL_CAPACITY_LOSS:
            self.pool.lose_capacity(int(event.nbytes), time=self.clock)
        self._consume_pool_reclaims()
        roll_over((self,), self._solve_alone, force=True)

    def _consume_pool_reclaims(self) -> None:
        """Charge pool-side reclaims (shrink / revoke) to their tenants.

        Each reclaimed byte drains back to the pool at the modeled migration
        rate; the drain time lands on the tenant as migration debt, paid as a
        stall before any further progress.  The pool's reclaim log is
        consumed destructively, so every reclaim is charged exactly once.
        """
        records = self.pool.consume_reclaims()
        if not records:
            return
        self._clean = False
        registry = metrics()
        for record in records:
            state = self._states.get(record.tenant)
            if state is None:
                continue
            state.migration_debt += record.nbytes / self._lockstep.drain_bytes_per_s
            state.migrated_bytes += record.nbytes
            registry.counter("fabric.faults.migrated_bytes").inc(record.nbytes)
            if record.kind == "revoke":
                if (
                    state.first_granted_at is None
                    and state.lease is not None
                    and state.lease.granted_at is not None
                ):
                    state.first_granted_at = state.lease.granted_at
                state.revoked_at = record.time
                state.readmit_latency = None
                state.revocations += 1
                registry.counter("fabric.faults.revocations").inc()

    def _retry_revoked(self) -> None:
        """Re-request the lease of every revoked tenant (back of the queue).

        Runs at each epoch rollover: a revoked tenant rejoins the pool's FIFO
        admission queue and resumes once capacity allows.  The time from revocation to re-grant is its
        re-admission latency; on an uncontended pool that is 0 and the whole
        blast radius is the migration drain.
        """
        changed = False
        for name, state in self._states.items():
            if (
                state.lease is not None
                and state.lease.state == LEASE_REVOKED
                and not state.finished
            ):
                state.lease = self.pool.request(
                    name, state.spec.lease_bytes, time=self.clock
                )
                self._fault_mutations += 1
                changed = True
        if changed:
            self._consume_pool_reclaims()
        for state in self._states.values():
            if (
                state.revoked_at is not None
                and state.readmit_latency is None
                and state.lease is not None
                and state.lease.state == LEASE_GRANTED
                and state.lease.granted_at is not None
                and state.lease.granted_at >= state.revoked_at
            ):
                state.readmit_latency = state.lease.granted_at - state.revoked_at
                metrics().counter("fabric.faults.readmissions").inc()

    def _record_stall(self, state: _TenantState, seconds: float) -> None:
        if seconds <= 0:
            return
        state.stall_seconds += seconds
        metrics().counter("fabric.faults.stall_seconds").inc(seconds)

    def _fault_chunk_available(self, state: _TenantState, chunk: float) -> float:
        """Wall time of ``chunk`` a running tenant can spend on real progress.

        A tenant on a killed port is fully stalled; a tenant owing migration
        debt pays it down first (stalled while its pages drain) and runs with
        whatever remains of the chunk.
        """
        if self._on_killed_port(state):
            self._record_stall(state, chunk)
            return 0.0
        if state.migration_debt > 0.0:
            pay = min(state.migration_debt, chunk)
            state.migration_debt -= pay
            if state.migration_debt < 1e-12:
                state.migration_debt = 0.0
            self._record_stall(state, pay)
            return chunk - pay
        return chunk

    def _on_killed_port(self, state: _TenantState) -> bool:
        """Whether the tenant's pool port is killed (it stalls outright)."""
        return bool(self._port_scales) and (
            self._port_scales.get(self.topology.port_of(state.node), 1.0) <= 0.0
        )

    def _draining(self, state: _TenantState) -> bool:
        """Whether a running tenant is paying down migration debt right now.

        A tenant behind a killed port owes its debt but pays none of it until
        the port is restored.
        """
        return (
            state.running
            and state.migration_debt > 0.0
            and not self._on_killed_port(state)
        )

    def _state_of(self, name: str) -> _TenantState:
        try:
            return self._states[name]
        except KeyError as exc:
            raise FabricError(f"no admitted tenant named {name!r}") from exc

    def _solve_alone(
        self, indices: Sequence[int], demands: Sequence[Mapping[int, float]]
    ) -> list[Mapping[int, float]]:
        """:func:`roll_over`'s solve for this rack on its own: one
        :meth:`FabricTopology.resolve` call, none when nothing runs."""
        return [self.topology.resolve(demands[0]) if demands[0] else {}]

    def _epoch_demands(
        self,
    ) -> tuple[list[_TenantState], dict[int, float], tuple]:
        """The running tenants, their demand vector and its solve signature.

        The first step of :func:`roll_over`.  Revoked tenants re-request
        their leases first.  Tenants on killed ports demand nothing (they are
        stalled), and port health is part of the signature, so restoring or
        degrading a port can never be skipped as "unchanged".
        """
        self._retry_revoked()
        running = [s for s in self._states.values() if s.running]
        demands = {
            s.node: s.current_offered_bandwidth()
            for s in running
            if not self._on_killed_port(s)
        }
        solve_key = (
            tuple(sorted(demands.items())),
            tuple(sorted(self._offsets.items())),
            tuple(sorted(self._port_scales.items())),
        )
        return running, demands, solve_key

    def _apply_epoch_solve(
        self,
        running: list[_TenantState],
        delivered: Mapping[int, float],
        solve_key: tuple,
    ) -> None:
        """Freeze new epoch backgrounds from a resolved allocation."""
        self._backgrounds = {
            s.node: self.topology.background_for(s.node, delivered)
            + self._offsets.get(s.node, 0.0)
            for s in running
        }
        if self._port_scales:
            # A degraded port's lost capacity behaves like permanent
            # background traffic occupying (1 - scale) of the port.
            for s in running:
                port = self.topology.port_of(s.node)
                scale = self._port_scales.get(port, 1.0)
                if scale < 1.0:
                    self._backgrounds[s.node] += (
                        1.0 - scale
                    ) * self.topology.ports[port].data_capacity
        self._solve_key = solve_key

    def _complete_rollover(
        self, running: list[_TenantState], demands: Mapping[int, float]
    ) -> None:
        """Restart the epoch, record background history + telemetry and
        settle whether the next rollover would skip its solve."""
        self._epoch_elapsed = 0.0
        load = None
        if running:
            ports = {self.topology.port_of(s.node) for s in running}
            load = (
                max(self.topology.port_utilization(p, demands) for p in ports),
                max(self.topology.port_waiting_time(p, demands) for p in ports),
            )
        self._record_rollover(running, self.clock, load)
        # The signature was just taken, so only a revoked tenant that
        # _retry_revoked would act on can make the next rollover re-solve.
        self._clean = not any(
            (s.revoked_at is not None and s.readmit_latency is None)
            or (s.lease.state == LEASE_REVOKED and not s.finished)
            for s in self._states.values()
        )

    def _record_rollover(
        self,
        running: list[_TenantState],
        time: float,
        load: Optional[tuple[float, float]] = None,
    ) -> None:
        """Background history and a telemetry sample of a rollover at ``time``.

        ``load`` is the (port utilization, waiting seconds) pair of the
        rolled demands; None repeats the latest sample's, which a skipped
        rollover of a clean rack would compute again.
        """
        for state in running:
            background = self._backgrounds[state.node]
            if state.background_times and state.background_times[-1] >= time - 1e-12:
                state.background_bandwidths[-1] = background
            else:
                state.background_times.append(time)
                state.background_bandwidths.append(background)
        if running:
            sample = self.pool.sample(time)
            if load is None:
                self._telemetry.repeat(sample)
            else:
                self._telemetry.record(sample, *load)


def roll_over(
    racks: Sequence[RackCoSimulator],
    solve: Callable[[list[int], list[dict[int, float]]], Sequence[Mapping[int, float]]],
    force: bool = False,
) -> None:
    """Roll the epoch over on every rack that is due (every rack with ``force``).

    The fabric's one epoch rollover: a rack rolls itself over as a batch of
    one when a tenant comes, goes or is hit by a fault, and
    :func:`step_racks` rolls all the due racks over together.  Each rolled rack collects its running
    tenants' demands.  When neither they, the external offsets nor the port
    health changed since the rack's last solve, the solve is skipped — it
    would reproduce the backgrounds already frozen.  Every other rolled rack
    is re-solved in one ``solve(indices, demands)`` call, which returns the
    delivered maps of ``racks[i]`` for each ``i`` in ``indices``, in order.
    Then every rolled rack restarts its epoch and records background history
    and telemetry exactly as a re-solved one would.  ``force`` (admission,
    withdrawal, applied fault, released lease) always re-solves: those
    events change pool or lease state the demand signature cannot see.
    """
    registry = metrics()
    rolled: list[tuple[RackCoSimulator, list[_TenantState], dict[int, float]]] = []
    dirty: list[tuple[int, RackCoSimulator, list[_TenantState], dict, tuple]] = []
    for index, rack in enumerate(racks):
        if not (force or rack.epoch_due()):
            continue
        registry.counter("fabric.cosim.epoch_rollovers").inc()
        running, demands, solve_key = rack._epoch_demands()
        rolled.append((rack, running, demands))
        if force or solve_key != rack._solve_key:
            registry.counter("fabric.cosim.epoch_resolves").inc()
            dirty.append((index, rack, running, demands, solve_key))
        else:
            registry.counter("fabric.cosim.epoch_skips").inc()
    if dirty:
        solved = solve([entry[0] for entry in dirty], [entry[3] for entry in dirty])
        for (_, rack, running, _, solve_key), delivered in zip(dirty, solved):
            rack._apply_epoch_solve(running, delivered, solve_key)
    for rack, running, demands in rolled:
        rack._complete_rollover(running, demands)


def step_racks(
    racks: Sequence[RackCoSimulator],
    dt: float,
    solve: Callable[[list[int], list[dict[int, float]]], Sequence[Mapping[int, float]]],
) -> dict[str, float]:
    """Advance ``racks`` in lockstep ``dt`` wall-seconds: the fabric's one
    stepping loop.  Each chunk fires the faults that are due and ends at the
    end of ``dt``, at the next fault or at the nearest rack's
    :meth:`~RackCoSimulator._chunk_bound`; every rack advances through
    :meth:`~RackCoSimulator.step_frozen`, the racks' one clock moves on, then
    :func:`roll_over` rolls the due racks over with ``solve``.  A
    :class:`~repro.fabric.cluster.ClusterCoSimulator` steps all its racks
    through it.  Returns each tenant's baseline seconds."""
    lockstep = racks[0]._lockstep
    done = {name: 0.0 for rack in racks for name in rack._states}
    end = lockstep.clock + dt
    remaining = float(dt)
    while remaining > 1e-15:
        lockstep.apply_due_faults()
        chunk = min([remaining] + [rack._chunk_bound() for rack in racks])
        if lockstep.next_fault is not None:
            chunk = min(chunk, max(lockstep.next_fault - lockstep.clock, 0.0))
        if chunk > 0:
            for rack in racks:
                for name, amount in rack.step_frozen(chunk).items():
                    done[name] += amount
            lockstep.clock += chunk
        roll_over(racks, solve)
        remaining = end - lockstep.clock
    return done


def roll_back(
    racks: Sequence[RackCoSimulator], checkpoints: Sequence[EpochCheckpoint]
) -> None:
    """Roll each of ``racks`` back to its checkpoint, or none of them: every
    checkpoint is checked before any rack is restored, so racks that step in
    lockstep stay at one clock when one refuses."""
    if len(checkpoints) != len(racks):
        raise FabricError("checkpoint does not match the rack count")
    for rack, checkpoint in zip(racks, checkpoints):
        if {entry[0] for entry in checkpoint.tenants} != set(rack._states):
            raise FabricError(
                "checkpoint does not match the current tenant mix; checkpoints "
                "are invalidated by admit() and withdraw()"
            )
        if checkpoint.fault_epoch != rack._fault_mutations:
            raise FabricError(
                "checkpoint predates applied fault events; fault application "
                "mutates pool and lease state that checkpoints do not capture, "
                "so rollback is only legal while faults are merely pending"
            )
    for rack, checkpoint in zip(racks, checkpoints):
        rack._lockstep.clock = checkpoint.clock
        rack._epoch_elapsed = checkpoint.epoch_elapsed
        rack._backgrounds = dict(checkpoint.backgrounds)
        rack._offsets = dict(checkpoint.offsets)
        rack._solve_key = checkpoint.solve_key
        rack._clean = checkpoint.clean
        for name, *values in checkpoint.tenants:
            for field, value in zip(_CHECKPOINTED, values):
                setattr(rack._states[name], field, value)
        for name, length in checkpoint.histories:
            state = rack._states[name]
            del state.background_times[length:]
            del state.background_bandwidths[length:]
        rack._telemetry.trim_after(checkpoint.clock)
        metrics().counter("fabric.cosim.rollbacks").inc()
