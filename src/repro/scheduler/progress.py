"""Progress models: how running jobs advance between scheduler events.

The :class:`~repro.scheduler.simulator.ClusterSimulator` is an event loop —
place jobs, advance everyone to the next event, retire finished jobs.  What
used to be hard-wired inside that loop is *how fast each running job makes
progress*, and that is exactly where the paper's static methodology and the
:mod:`repro.fabric` co-simulation differ:

* :class:`StaticCurveProgress` (the default, and the pre-existing behaviour)
  prices co-location with the submission-time hints of Section 7.2: each
  co-runner contributes its ``induced_loi`` and a job's rate is the inverse of
  its measured ``slowdown_at(sum of co-runner LoIs)``.  Interference is a
  static curve; a slowed-down co-runner keeps "emitting" its nominal LoI.
* :class:`FabricCoupledProgress` drives the rates from fabric co-simulation
  epochs instead: all racks' incremental co-simulators are stepped together
  by one shared :class:`~repro.fabric.cluster.ClusterCoSimulator`, each
  running job is admitted as a fabric tenant on its node, and the progress
  rates fed back to the scheduler are the emergent per-epoch rates the fabric
  resolves — a tenant in a bandwidth-hungry phase slows its port's co-runners
  *and therefore itself finishes later, prolonging the interference it
  causes*, the feedback the static curve cannot express.  With a cluster
  spill pool provisioned, jobs that do not fit their rack's pool spill into
  it and additionally contend on their rack uplink and the shared spine.

Coupling contract (mirrors :mod:`repro.fabric.cosim`)
-----------------------------------------------------

* **Units.**  Rates returned by :meth:`ProgressModel.rates` are in *profile
  baseline seconds* per wall-clock second, so the simulator's remaining-work
  bookkeeping (seeded with ``JobProfile.baseline_runtime``) stays linear.  A
  coupled tenant is stretched to its job's baseline, not rescaled: it gets
  the job's ``baseline_runtime`` (``TenantSpec.baseline_runtime``) and
  stretches its workload's engine-run phases to it, each keeping its offered
  bandwidth, so the fabric's rates pass through unscaled.
* **Epoch semantics.**  Fabric-coupled rates are exact only until the next
  epoch rollover or tenant phase boundary; :meth:`ProgressModel.horizon`
  exposes that bound and the simulator never advances past it in one event.
* **Tenant ↔ job mapping.**  Job ``j`` placed on cluster node ``n`` of rack
  ``r`` becomes fabric tenant ``job-<j>`` on the rack-local node index of
  ``n`` in rack ``r``'s co-simulator.  The tenant's workload is resolved from
  ``JobProfile.workload`` via an explicit mapping or the workload registry;
  its pool lease is ``JobProfile.pool_gb`` (GB -> bytes), mirroring the
  capacity the cluster model already reserved, and its traffic is priced at
  the model's one ``local_fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Protocol

from ..config.errors import SchedulingError
from ..config.testbed import SKYLAKE_EMULATION, TestbedConfig
from ..config.units import bytes_to_gb, gb
from ..fabric.cluster import ClusterCoSimulator, ClusterFabric
from ..fabric.cosim import RackCoSimulator, TenantSpec, baseline_run
from ..fabric.faults import FaultSchedule
from ..interconnect.link import RemoteLink
from ..profiler.level3 import SensitivityCurve
from ..workloads.base import WorkloadSpec
from ..workloads.registry import build_workload
from .cluster import Cluster, Rack
from .job import Job, JobProfile


class ProgressModel(Protocol):
    """How running jobs accrue progress between scheduler events.

    The :class:`~repro.scheduler.simulator.ClusterSimulator` calls these hooks
    in a fixed order each event-loop iteration: :meth:`rates` (current
    per-job progress rates), :meth:`horizon` (how long those rates stay
    valid), then :meth:`advance` with the chosen time step; :meth:`job_started`
    / :meth:`job_finished` bracket each job's residency.
    """

    name: str

    def bind(self, cluster: Cluster) -> None:
        """Attach to (and reset for) one cluster-simulation run."""
        ...

    def job_started(self, job: Job, rack: Rack, clock: float) -> None:
        """A job was placed on ``rack`` at ``clock``."""
        ...

    def job_finished(self, job: Job, rack: Rack, clock: float) -> None:
        """A job completed and is being retired from ``rack`` at ``clock``."""
        ...

    def rates(self, clock: float) -> Dict[int, float]:
        """Progress rate per running job id, in baseline-seconds per second."""
        ...

    def horizon(self, clock: float) -> Optional[float]:
        """Seconds the current rates stay valid (None = until the next event)."""
        ...

    def advance(self, dt: float) -> None:
        """Commit a time step of ``dt`` seconds (all rates were applied)."""
        ...


def static_rate(job: Job, rack: Rack) -> float:
    """The paper's static progress rate: 1 / slowdown at the co-runners' LoI.

    The single-job entry point, used by the fabric-coupled model's fallback
    path; :func:`static_rates` prices a whole rack through the same formula.
    A job without a sensitivity curve has slowdown 1 at every LoI, so it runs
    at 1.0 and its co-runners' LoIs are not summed.
    """
    if job.profile.sensitivity is None:
        return 1.0
    return _rate_at(job, rack.aggregate_loi(excluding=job))


def static_rates(rack: Rack) -> Dict[int, float]:
    """:func:`static_rate` of every job running in ``rack``, in one pass.

    Each job's ``induced_loi`` is read once.  A job's co-runner LoI is the
    left fold, in node order, of the other jobs' LoIs that
    ``rack.aggregate_loi(excluding=job)`` computes: the fold of the jobs on
    earlier nodes, carried from job to job, then the jobs on later nodes.
    Subtracting a job's own LoI from the rack total would change the bits.
    Only a job with a sensitivity curve folds its later co-runners; one
    without runs at 1.0, so a rack of curve-less jobs costs O(jobs).
    """
    jobs = rack.running_jobs
    lois = [job.profile.induced_loi for job in jobs]
    rates: Dict[int, float] = {}
    before = 0.0
    for k, job in enumerate(jobs):
        if job.profile.sensitivity is None:
            rates[job.job_id] = 1.0
        else:
            seen = before
            for loi in lois[k + 1:]:
                seen += loi
            rates[job.job_id] = _rate_at(job, min(seen, 100.0))
        before += lois[k]
    return rates


def _rate_at(job: Job, seen_loi: float) -> float:
    """The static pricing formula at a co-runner LoI already clipped at 100."""
    return 1.0 / max(job.profile.slowdown_at(seen_loi), 1.0)


@dataclass
class StaticCurveProgress:
    """The paper's static pricing: rate = 1 / slowdown_at(co-runners' LoI).

    Each co-runner contributes its submission-time ``induced_loi`` hint; the
    sum (clipped at 100%) is looked up in the job's measured sensitivity
    curve.  This is exactly the behaviour :class:`ClusterSimulator` had before
    progress models existed, preserved as the default.

    A job's rate depends only on who else runs in its rack, so the rates are
    cached per rack: :meth:`job_started` and :meth:`job_finished` drop their
    rack's entry and :meth:`rates` prices only the racks without one, each
    in one pass (:func:`static_rates`).  The merged map is kept too, and
    handed out again until a start or finish drops a rack; callers read it
    and must not change it.
    """

    name: str = "static-curve"
    cluster: Optional[Cluster] = field(default=None, repr=False)
    _rack_rates: Dict[int, Dict[int, float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _merged: Optional[Dict[int, float]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def bind(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self._rack_rates = {}
        self._merged = None

    def job_started(self, job: Job, rack: Rack, clock: float) -> None:
        self._rack_rates.pop(rack.rack_id, None)
        self._merged = None

    def job_finished(self, job: Job, rack: Rack, clock: float) -> None:
        self._rack_rates.pop(rack.rack_id, None)
        self._merged = None

    def rates(self, clock: float) -> Dict[int, float]:
        if self._merged is not None:
            return self._merged
        if self.cluster is None:
            raise SchedulingError("progress model is not bound to a cluster")
        rates: Dict[int, float] = {}
        for rack in self.cluster.racks:
            rack_rates = self._rack_rates.get(rack.rack_id)
            if rack_rates is None:
                rack_rates = self._rack_rates[rack.rack_id] = static_rates(rack)
            rates.update(rack_rates)
        self._merged = rates
        return rates

    def horizon(self, clock: float) -> Optional[float]:
        return None

    def advance(self, dt: float) -> None:
        pass


def fabric_job_profile(
    workload: WorkloadSpec,
    local_fraction: float = 0.5,
    testbed: TestbedConfig = SKYLAKE_EMULATION,
    seed: int = 0,
    sensitivity: Optional[SensitivityCurve] = None,
) -> JobProfile:
    """A :class:`JobProfile` whose hints are measured on the fabric's models.

    ``baseline_runtime`` comes from the interference-free engine run,
    ``induced_loi`` from the workload's average offered pool bandwidth
    expressed as a Level of Interference on the pool link, and ``pool_gb``
    from the remote share of the footprint — so static-curve and
    fabric-coupled schedulers price the *same* job stream with their two
    different interference machineries.  The engine run is the co-simulator's
    own baseline (:func:`~repro.fabric.cosim.baseline_run`), so a coupled
    study pays it once per workload, not once per profile and once per rack.
    """
    result = baseline_run(workload, local_fraction, testbed, seed)
    baseline = result.total_runtime
    link = RemoteLink(testbed)
    induced = link.loi(result.total_remote_bytes / baseline) if baseline > 0 else 0.0
    return JobProfile(
        workload=workload.name,
        baseline_runtime=baseline,
        sensitivity=sensitivity,
        induced_loi=induced,
        pool_gb=bytes_to_gb(workload.footprint_bytes * (1.0 - local_fraction)),
    )


class FabricCoupledProgress:
    """Progress rates from the shared :class:`ClusterCoSimulator` epoch loop.

    All racks' incremental co-simulators are stepped together by one
    :class:`~repro.fabric.cluster.ClusterCoSimulator`, so rack epochs stay
    aligned, every tenant's baseline is its workload's one memoized engine
    run, and (when a cluster pool is provisioned) jobs that do not fit their
    rack's pool spill into it and feel uplink/spine contention.

    Parameters
    ----------
    workloads:
        Mapping from ``JobProfile.workload`` name to the
        :class:`~repro.workloads.base.WorkloadSpec` a job executes.  Names not
        in the mapping are resolved through the workload registry (so the
        paper's six applications work out of the box); anything else raises
        :class:`SchedulingError` at placement time.
    local_fraction:
        Fraction of every tenant's footprint served node-locally, which
        prices its pool traffic.  The lease is the job's own ``pool_gb``.
    ports_per_rack:
        Pool ports of each rack's co-simulator (see
        :class:`~repro.fabric.topology.FabricTopology`); the rest of the
        wiring is :class:`~repro.fabric.cluster.ClusterFabric`'s default.
    epoch_seconds:
        Cluster co-simulation epoch (None: derived from the first placed
        job's baseline runtime and shared by every rack).
    seed:
        Engine seed for the per-tenant baselines.
    cluster_pool_gb:
        Capacity of the cluster-level spill pool (0 disables spilling, the
        historical per-rack-only behaviour).
    fault_schedule:
        Optional :class:`~repro.fabric.faults.FaultSchedule` injected into
        the shared cluster co-simulation at construction.  Fault-stalled
        tenants report an explicit rate of 0 (the scheduler observes the
        stall, it does not fall back to a static estimate), and placement
        policies reading :meth:`projected_port_pressure` automatically avoid
        racks whose ports are degraded or dead.
    overcommit:
        Make every mirrored rack pool elastic (see
        :class:`~repro.fabric.cluster.ClusterCoSimulator`).
    drain_bytes_per_s:
        Page give-back migration rate charged on lease shrink/revoke; None
        keeps :data:`~repro.fabric.faults.DEFAULT_DRAIN_BYTES_PER_S`.
    """

    name = "fabric-coupled"

    def __init__(
        self,
        workloads: Optional[Mapping[str, WorkloadSpec]] = None,
        local_fraction: float = 0.5,
        ports_per_rack: int = 1,
        epoch_seconds: Optional[float] = None,
        seed: int = 0,
        cluster_pool_gb: float = 0.0,
        fault_schedule: Optional[FaultSchedule] = None,
        overcommit: bool = False,
        drain_bytes_per_s: Optional[float] = None,
    ) -> None:
        if not 0.0 < local_fraction <= 1.0:
            raise SchedulingError("local_fraction must be in (0, 1]")
        if cluster_pool_gb < 0:
            raise SchedulingError("cluster_pool_gb must be >= 0")
        self.workloads = dict(workloads) if workloads else {}
        self.local_fraction = float(local_fraction)
        self.ports_per_rack = int(ports_per_rack)
        self.epoch_seconds = epoch_seconds
        self.seed = int(seed)
        self.cluster_pool_gb = float(cluster_pool_gb)
        self.fault_schedule = fault_schedule
        self.overcommit = bool(overcommit)
        self.drain_bytes_per_s = drain_bytes_per_s
        self.cluster: Optional[Cluster] = None
        self._cluster_sim: Optional[ClusterCoSimulator] = None
        self._rack_index: Dict[int, int] = {}
        self._jobs: Dict[int, str] = {}  # job id -> fabric tenant name

    # -- lifecycle hooks ---------------------------------------------------------

    def bind(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self._cluster_sim = None
        self._rack_index = {}
        self._jobs = {}

    def job_started(self, job: Job, rack: Rack, clock: float) -> None:
        cluster_sim = self.cluster_simulator()
        spec = self._tenant_spec(job, clock)
        node = self._local_node(rack, job)
        cluster_sim.admit(
            self._rack_index[rack.rack_id], spec, node=node, time=clock
        )
        self._jobs[job.job_id] = spec.name

    def job_finished(self, job: Job, rack: Rack, clock: float) -> None:
        tenant = self._jobs.pop(job.job_id, None)
        if tenant is not None and self._cluster_sim is not None:
            self._cluster_sim.withdraw(tenant, time=clock)

    # -- event-loop hooks ----------------------------------------------------------

    def rates(self, clock: float) -> Dict[int, float]:
        if self.cluster is None:
            raise SchedulingError("progress model is not bound to a cluster")
        fabric_rates = (
            self._cluster_sim.progress_rates()
            if self._cluster_sim is not None
            else {}
        )
        rates: Dict[int, float] = {}
        for job in self.cluster.running_jobs:
            tenant = self._jobs.get(job.job_id)
            if tenant is None:
                raise SchedulingError(
                    f"job {job.job_id} is running but was never coupled to the fabric"
                )
            rate = fabric_rates.get(tenant)
            if rate is None:
                # The mirrored lease is queued (possible only when the rack's
                # pool is provisioned tighter than the cluster model believes)
                # or the tenant already finished its fabric work: fall back to
                # the static curve so the simulation cannot deadlock.
                rate = static_rate(job, self.cluster.rack_of(job))
            rates[job.job_id] = rate
        return rates

    def horizon(self, clock: float) -> Optional[float]:
        sim = self._cluster_sim
        if sim is None:
            return None
        busy = any(state.running for state in sim.tenant_states.values())
        return sim.horizon() if busy else None

    def advance(self, dt: float) -> None:
        if self._cluster_sim is not None:
            self._cluster_sim.step(dt)

    # -- fabric wiring ------------------------------------------------------------

    def cluster_simulator(self) -> ClusterCoSimulator:
        """The (lazily created) shared co-simulation of the whole cluster."""
        if self._cluster_sim is None:
            if self.cluster is None:
                raise SchedulingError("progress model is not bound to a cluster")
            racks = self.cluster.racks
            nodes_per_rack = max(len(rack.nodes) for rack in racks)
            fabric = ClusterFabric(
                n_racks=len(racks),
                nodes_per_rack=nodes_per_rack,
                n_ports=min(self.ports_per_rack, nodes_per_rack),
            )
            # Mirror each rack's pool capacity (GB -> bytes, with a rounding
            # slack so per-job GB->byte rounding can never queue a lease the
            # cluster model already admitted).
            pools = [
                int(round(gb(rack.pool_capacity_gb))) + len(rack.nodes)
                for rack in racks
            ]
            cluster_pool = int(round(gb(self.cluster_pool_gb)))
            self._cluster_sim = ClusterCoSimulator(
                fabric,
                rack_pool_bytes=pools,
                cluster_pool_bytes=cluster_pool if cluster_pool > 0 else None,
                epoch_seconds=self.epoch_seconds,
                seed=self.seed,
                overcommit=self.overcommit,
            )
            if self.fault_schedule is not None:
                self._cluster_sim.inject_faults(
                    self.fault_schedule, drain_bytes_per_s=self.drain_bytes_per_s
                )
            self._rack_index = {
                rack.rack_id: index for index, rack in enumerate(racks)
            }
        return self._cluster_sim

    def rack_simulator(self, rack: Rack) -> RackCoSimulator:
        """Rack ``rack``'s view into the shared cluster co-simulation."""
        return self.cluster_simulator().rack_sim(self._rack_index[rack.rack_id])

    def is_spilled(self, job: Job) -> bool:
        """Whether a running job's pool lease spilled to the cluster pool."""
        tenant = self._jobs.get(job.job_id)
        return (
            tenant is not None
            and self._cluster_sim is not None
            and self._cluster_sim.is_spilled(tenant)
        )

    def projected_port_pressure(self, rack: Rack, job: Job) -> float:
        """Utilisation of the busiest pool port if ``job`` landed in ``rack``.

        Resolves the rack's *live* offered demands — current phases of the
        co-simulated tenants, not submission-time hints — plus the prospective
        job's hungriest-phase demand on the port it would be wired to.  Used
        by :class:`~repro.scheduler.policies.FabricCoupledPlacement`.

        Port faults are priced in: each port's utilisation is divided by its
        residual health (:meth:`~repro.fabric.cosim.RackCoSimulator.
        port_health`), so a degraded port reads proportionally hotter and a
        killed port reads as effectively infinite pressure — placement
        policies with a utilisation ceiling avoid faulted racks with no
        fault-specific logic of their own.  On healthy ports the divisor is
        exactly 1.0, leaving fault-free pressure values bit-identical.
        """
        sim = self.rack_simulator(rack)
        demands = dict(sim.current_demands())
        free = [
            n for n in range(sim.topology.n_nodes)
            if n not in {s.node for s in sim.tenant_states.values()}
        ]
        probe_node = free[0] if free else 0
        spec = self._tenant_spec(job, arrival=0.0)
        demands[probe_node] = demands.get(probe_node, 0.0) + sim.peak_offered_bandwidth(spec)
        return max(
            sim.topology.port_utilization(port, demands)
            / max(sim.port_health(port), 1e-9)
            for port in range(sim.topology.n_ports)
        )

    # -- job -> tenant mapping -----------------------------------------------------

    def _workload_of(self, profile: JobProfile) -> WorkloadSpec:
        if profile.workload in self.workloads:
            return self.workloads[profile.workload]
        try:
            spec = build_workload(profile.workload)
        except Exception as exc:
            raise SchedulingError(
                f"cannot couple job {profile.workload!r} to the fabric: not in "
                "the explicit workload mapping and not a registry workload. "
                "Pass FabricCoupledProgress(workloads={name: WorkloadSpec})."
            ) from exc
        self.workloads[profile.workload] = spec
        return spec

    def _tenant_spec(self, job: Job, arrival: float) -> TenantSpec:
        return TenantSpec(
            name=f"job-{job.job_id}",
            workload=self._workload_of(job.profile),
            local_fraction=self.local_fraction,
            arrival=max(arrival, 0.0),
            pool_bytes=int(round(gb(job.profile.pool_gb))),
            baseline_runtime=job.profile.baseline_runtime,
        )

    def _local_node(self, rack: Rack, job: Job) -> Optional[int]:
        for index, node in enumerate(rack.nodes):
            if node.node_id == job.assigned_node:
                return index
        return None

    # -- reporting ----------------------------------------------------------------

    def lease_state_of(self, job: Job) -> Optional[str]:
        """Lease state of a coupled job's fabric tenant (None when unknown)."""
        tenant = self._jobs.get(job.job_id)
        if tenant is None:
            return None
        state = self._cluster_sim.tenant_states.get(tenant)
        return state.lease.state if state is not None and state.lease else None

    def describe(self) -> dict:
        """Wiring summary of the per-rack co-simulators built so far."""
        return {
            rack_id: self._cluster_sim.fabric.rack(index).describe()
            for rack_id, index in sorted(self._rack_index.items())
        }
