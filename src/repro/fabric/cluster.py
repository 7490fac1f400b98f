"""Cluster-scale fabric: racks composed over uplinks, a spine, and pooled spill.

This is the datacenter layer on top of the single-rack
:mod:`repro.fabric` machinery:

* :class:`ClusterFabric` composes ``n_racks`` :class:`~repro.fabric.topology.
  FabricTopology` racks with per-rack **uplinks** and one shared **spine**
  (both ordinary :class:`~repro.interconnect.link.RemoteLink` models, so the
  capacity/overhead/queueing math is the same at every level of the
  hierarchy), and batches whole-cluster contention resolution through the
  vectorized kernel in :mod:`repro.fabric.solver` — one NumPy solve for all
  racks instead of ``n_racks`` Python loops.
* :class:`ClusterCoSimulator`, the one public fabric simulator (a standalone
  rack is its 1-rack case), builds one
  :class:`~repro.fabric.cosim.RackCoSimulator` per rack and steps them in
  **one stepping loop** on one clock and one fault feed, with
  hierarchical pools: a tenant that does not fit its rack's pool can spill
  into the cluster-level pool, and spilled tenants' pool traffic rides their
  rack's uplink onto the spine — cross-rack spine contention feeds back into
  their progress rates as per-node background offsets
  (:meth:`~repro.fabric.cosim.RackCoSimulator.set_background_offset`).

Scaling comes from three mechanisms, each held to a slow reference path by
the test suite: one batched vectorized solve for every rack due a rollover,
the racks' dirty-epoch skip (a rack whose demand vector is unchanged is not
re-solved at rollover, and its epoch end is no step boundary), and each
tenant's memoized progress rate (the perf model re-runs only when the
tenant's phase or its epoch background changes).

Spine coupling model
--------------------

Spilled tenants contend twice outside their rack: with same-rack spilled
tenants on the rack uplink, and with every other rack's spilled traffic on
the spine.  Both are expressed as an *equivalent background on the tenant's
pool port* by scaling foreign traffic with the ratio of port data capacity to
uplink/spine data capacity — i.e. 50% spine utilisation from other racks is
felt like 50%-utilisation-equivalent background on the tenant's own port.
The offsets refresh at every cluster epoch boundary from the racks' live
demands, so the inter-rack feedback loop closes at the same epoch granularity
as the intra-rack one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

import numpy as np

from ..config.errors import FabricError
from ..config.testbed import SKYLAKE_EMULATION, TestbedConfig
from ..interconnect.link import RemoteLink
from ..interconnect.queueing import QueueingModel
from ..telemetry import metrics, trace_span
from .cosim import (
    EpochCheckpoint,
    RackCoSimulator,
    TenantOutcome,
    TenantSpec,
    _Lockstep,
    _TenantState,
    baseline_run,
    roll_back,
    step_racks,
)
from .faults import BlastRadiusReport, FaultSchedule
from .interference import DynamicInterference
from .pool import LEASE_GRANTED, LEASE_QUEUED, LEASE_REJECTED, MemoryPool
from .topology import ClusterSolve, FabricTopology, solve_racks


class ClusterFabric:
    """``n_racks`` rack fabrics composed over uplinks and one shared spine.

    Parameters
    ----------
    n_racks / nodes_per_rack / n_ports:
        Cluster shape: identical racks, each a
        :class:`~repro.fabric.topology.FabricTopology` with
        ``nodes_per_rack`` nodes over ``n_ports`` pool ports.
    testbed / port_capacity_scale / queueing:
        Forwarded to every rack topology (see there).
    uplink_capacity_scale:
        Multiplier (>= 1) on the testbed's peak link traffic for each rack's
        uplink into the spine — an uplink typically aggregates several node
        links.
    spine_capacity_scale:
        Multiplier for the shared spine; the default provisions it at half
        the combined uplink capacity (a 2:1 oversubscribed fat tree).
    """

    def __init__(
        self,
        n_racks: int,
        nodes_per_rack: int,
        n_ports: int = 1,
        testbed: TestbedConfig = SKYLAKE_EMULATION,
        port_capacity_scale: float = 1.0,
        uplink_capacity_scale: float = 4.0,
        spine_capacity_scale: Optional[float] = None,
        queueing: QueueingModel | None = None,
    ) -> None:
        if n_racks <= 0:
            raise FabricError("a cluster needs at least one rack")
        if uplink_capacity_scale < 1.0:
            raise FabricError("uplink_capacity_scale must be >= 1")
        if spine_capacity_scale is None:
            spine_capacity_scale = max(uplink_capacity_scale * n_racks / 2.0, 1.0)
        if spine_capacity_scale < 1.0:
            raise FabricError("spine_capacity_scale must be >= 1")
        self.n_racks = int(n_racks)
        self.nodes_per_rack = int(nodes_per_rack)
        self.n_ports = int(n_ports)
        self.testbed = testbed
        self.racks: tuple[FabricTopology, ...] = tuple(
            FabricTopology(
                n_nodes=nodes_per_rack,
                n_ports=n_ports,
                testbed=testbed,
                port_capacity_scale=port_capacity_scale,
                queueing=queueing,
            )
            for _ in range(self.n_racks)
        )
        uplink_testbed = replace(
            testbed, link_peak_traffic=testbed.link_peak_traffic * uplink_capacity_scale
        )
        #: One uplink per rack, aggregating its spilled tenants' pool traffic.
        self.uplinks: tuple[RemoteLink, ...] = tuple(
            RemoteLink(uplink_testbed, queueing) for _ in range(self.n_racks)
        )
        #: The shared spine all uplinks feed into.
        self.spine = RemoteLink(
            replace(
                testbed,
                link_peak_traffic=testbed.link_peak_traffic * spine_capacity_scale,
            ),
            queueing,
        )

    def rack(self, index: int) -> FabricTopology:
        """Rack ``index``'s topology (validating the index)."""
        if not 0 <= index < self.n_racks:
            raise FabricError(
                f"rack {index} is not part of this {self.n_racks}-rack cluster"
            )
        return self.racks[index]

    # -- whole-cluster demand resolution ---------------------------------------------

    def resolve_all(
        self,
        demands: Sequence[Mapping[int, float]],
        iterations: int = 64,
        damping: Optional[float] = None,
        tolerance: float = 1e6,
    ) -> ClusterSolve:
        """Resolve every rack's port contention in one call.

        ``demands[i]`` is rack ``i``'s demand map (rack-local node ->
        offered bytes/s).  All racks go through one batched fixed-point solve
        (:meth:`resolve_racks`) — this is the cluster-scale hot path the
        ``solver_vectorized`` benchmark group times.
        """
        return self.resolve_racks(
            range(self.n_racks), demands, iterations, damping, tolerance
        )

    def resolve_racks(
        self,
        indices: Sequence[int],
        demands: Sequence[Mapping[int, float]],
        iterations: int = 64,
        damping: Optional[float] = None,
        tolerance: float = 1e6,
    ) -> ClusterSolve:
        """One batched NumPy solve across a subset of racks' demand maps.

        ``demands[i]`` belongs to rack ``indices[i]``; the returned
        :class:`ClusterSolve` carries diagnostics in the same order.  This is
        :func:`~repro.fabric.topology.solve_racks` on those racks' topologies,
        the kernel behind both :meth:`resolve_all` (all racks) and the
        cluster stepper's batched epoch rollover (the racks due a re-solve).
        """
        racks = [self.rack(index) for index in indices]
        return solve_racks(racks, demands, iterations, damping, tolerance)

    def describe(self) -> dict:
        """Summary of the cluster wiring."""
        return {
            "n_racks": self.n_racks,
            "nodes_per_rack": self.nodes_per_rack,
            "n_ports": self.n_ports,
            "uplink_data_capacity_gbs": self.uplinks[0].data_capacity / 1e9,
            "spine_data_capacity_gbs": self.spine.data_capacity / 1e9,
            "rack": self.racks[0].describe(),
        }


@dataclass(frozen=True)
class ClusterCheckpoint:
    """Snapshot of a :class:`ClusterCoSimulator`'s epoch state.

    Composes one :class:`~repro.fabric.cosim.EpochCheckpoint` per rack plus
    the racks' common clock and the next cluster epoch end.  Subject to the
    same contract as rack checkpoints: valid only while the (cluster-wide)
    tenant mix — and therefore the spill set — is unchanged.
    """

    clock: float
    epoch_end: float
    racks: tuple[EpochCheckpoint, ...]


#: Most instants :meth:`ClusterCoSimulator.run_to_completion` visits before it
#: gives up, so a mis-configured run ends with a clear error instead of spinning.
_MAX_INSTANTS = 200_000


class ClusterCoSimulator:
    """All racks' co-simulations stepped in lockstep and recoupled each epoch.

    The one public fabric simulator: a standalone rack is a 1-rack cluster,
    which never spills unless it has a cluster pool.

    Parameters
    ----------
    fabric:
        The cluster wiring (rack topologies, uplinks, spine).
    rack_pool_bytes:
        Capacity of each rack's memory pool — one int for homogeneous racks
        or a per-rack sequence.  None sizes every rack pool generously
        (effectively unbounded, for callers doing their own admission).
    cluster_pool_bytes:
        Capacity of the cluster-level spill pool; 0/None disables spilling
        (tenants that do not fit their rack pool queue there).
    epoch_seconds:
        Cluster epoch (inter-rack recoupling period) and every rack's
        co-simulation epoch.  None derives it for all racks at once: from
        every arrival :meth:`run_to_completion` is handed, or else from the
        first admitted tenant's baseline runtime.
    seed:
        Engine seed shared by all racks; baseline runs are memoized per
        workload (:func:`~repro.fabric.cosim.baseline_run`), so admitting the
        same workload to many racks costs one engine run, not ``n_racks``.
    overcommit:
        Make every rack pool *elastic*: a lease request that does not fit is
        granted anyway by shrinking running co-tenants toward their floors,
        charging them the modeled page give-back migration cost instead of
        queueing the newcomer (see :mod:`repro.fabric.pool`).
    """

    def __init__(
        self,
        fabric: ClusterFabric,
        rack_pool_bytes: int | Sequence[int] | None = None,
        cluster_pool_bytes: Optional[int] = None,
        epoch_seconds: Optional[float] = None,
        seed: int = 0,
        overcommit: bool = False,
    ) -> None:
        self.fabric = fabric
        if rack_pool_bytes is None:
            capacities = [1 << 62] * fabric.n_racks
        elif isinstance(rack_pool_bytes, int):
            capacities = [rack_pool_bytes] * fabric.n_racks
        else:
            capacities = [int(c) for c in rack_pool_bytes]
            if len(capacities) != fabric.n_racks:
                raise FabricError(
                    f"expected {fabric.n_racks} rack pool capacities, "
                    f"got {len(capacities)}"
                )
        #: The racks' clock, epoch, fault feed and tenant -> rack map.
        self._lockstep = _Lockstep(epoch_seconds)
        self.rack_sims: tuple[RackCoSimulator, ...] = tuple(
            RackCoSimulator(
                topology,
                MemoryPool(capacities[i], name=f"rack-{i}", elastic=overcommit),
                fabric.testbed,
                seed,
                self._lockstep,
            )
            for i, topology in enumerate(fabric.racks)
        )
        self.cluster_pool = (
            MemoryPool(cluster_pool_bytes, name="cluster-pool")
            if cluster_pool_bytes
            else None
        )
        self.seed = int(seed)
        #: The next cluster epoch end (first admission + epoch if derived).
        self._epoch_end = epoch_seconds if epoch_seconds is not None else math.inf
        self._spilled: dict[str, object] = {}  # tenant name -> cluster-pool Lease
        self._offset_nodes: set[tuple[int, int]] = set()
        #: States of the tenants :meth:`run_to_completion` retired, by name.
        self._retired: dict[str, _TenantState] = {}

    # -- fault injection --------------------------------------------------------------

    def inject_faults(
        self, schedule: FaultSchedule, drain_bytes_per_s: Optional[float] = None
    ) -> None:
        """Arm one fault schedule as the racks' one fault feed.

        A lease event acts on the rack hosting its tenant when it fires (the
        rack it names, as a counted no-op, if none does), any other on the
        rack it names; events naming a rack the cluster lacks stay inert.
        ``drain_bytes_per_s`` is the modeled page give-back rate, positive
        and finite (:class:`FabricError` otherwise): when a lease is shrunk
        or revoked, the reclaimed bytes drain back at this rate and the
        drain time is charged against the tenant's progress as a stall
        (migration debt).  Faults fire at exact simulated times during
        :meth:`step` (the step sub-chunks at fault times), and each applied
        fault forces an epoch rollover so the contention solve reflects the
        damage immediately.  Injection is one-shot per simulator; an *empty*
        schedule changes no output.
        """
        self._lockstep.arm(
            schedule, {i: i for i in range(self.fabric.n_racks)}, drain_bytes_per_s
        )

    def blast_radius(self) -> BlastRadiusReport:
        """Cluster-wide damage assessment (live tenants plus withdrawn ones)."""
        return self._lockstep.blast_radius()

    # -- introspection ---------------------------------------------------------------

    @property
    def clock(self) -> float:
        """Simulated cluster time, seconds: the clock its racks share."""
        return self._lockstep.clock

    @property
    def epoch_seconds(self) -> Optional[float]:
        """The cluster epoch length (None until the first tenant derives it)."""
        return self._lockstep.epoch

    def rack_sim(self, rack: int) -> RackCoSimulator:
        """Rack ``rack``'s incremental co-simulator."""
        if not 0 <= rack < self.fabric.n_racks:
            raise FabricError(
                f"rack {rack} is not part of this {self.fabric.n_racks}-rack cluster"
            )
        return self.rack_sims[rack]

    def rack_of(self, name: str) -> int:
        """The rack an admitted tenant lives in."""
        try:
            return self._lockstep.tenant_rack[name]
        except KeyError as exc:
            raise FabricError(f"no admitted tenant named {name!r}") from exc

    def is_spilled(self, name: str) -> bool:
        """Whether a tenant's pool lease lives in the cluster-level pool."""
        return name in self._spilled

    def _spill_bytes(self, name: str) -> int:
        """The bytes of a tenant's cluster-pool lease (0 for a rack-pool tenant)."""
        lease = self._spilled.get(name)
        return lease.nbytes if lease is not None else 0

    @property
    def tenant_names(self) -> tuple[str, ...]:
        """Names of all currently admitted tenants, in admission order."""
        return tuple(self._lockstep.tenant_rack)

    @property
    def tenant_states(self) -> Mapping[str, _TenantState]:
        """Live state of every admitted tenant across the racks, keyed by
        name in admission order (a snapshot of the admitted set)."""
        return {
            name: self.rack_sims[rack].tenant_states[name]
            for name, rack in self._lockstep.tenant_rack.items()
        }

    def interference_for(self, name: str) -> DynamicInterference:
        """The background-bandwidth timeline an admitted tenant, or one
        :meth:`run_to_completion` retired, experienced on its pool port's
        link, as an :class:`~repro.sim.interference.InterferenceSource` for
        the engine."""
        state = self._retired.get(name) or self.tenant_states.get(name)
        if state is None or not state.background_times:
            raise FabricError(
                f"tenant {name!r} never ran, so no interference timeline exists"
            )
        return state.interference()

    def outcome(self, name: str) -> TenantOutcome:
        """The statistics of an admitted tenant, or of one
        :meth:`run_to_completion` retired, as they stand."""
        state = self._retired.get(name) or self.tenant_states.get(name)
        if state is None:
            raise FabricError(f"no tenant named {name!r}")
        return state.outcome()

    # -- tenant lifecycle -------------------------------------------------------------

    def admit(
        self,
        rack: int,
        spec: TenantSpec,
        node: Optional[int] = None,
        time: Optional[float] = None,
    ):
        """Admit a tenant into rack ``rack``, spilling to the cluster pool
        when the rack pool cannot grant the lease immediately.

        A spilled tenant holds its capacity lease in the cluster pool and is
        admitted into the rack with a zero-byte rack lease (the rack pool's
        accounting is untouched); its pool traffic rides the rack uplink and
        the spine from the next recoupling on.  Returns the lease that holds
        the tenant's actual capacity (rack- or cluster-pool).
        """
        if spec.name in self._lockstep.tenant_rack:
            raise FabricError(f"tenant {spec.name!r} is already admitted")
        sim = self.rack_sim(rack)
        if time is not None:
            # The scheduler's clock sums the same steps in another order, so
            # it may trail this one by rounding.
            if time < self.clock - 1e-9:
                raise FabricError("cannot admit a tenant in the past")
            if time > self.clock:
                self.step(time - self.clock)
        spill = (
            self.cluster_pool is not None
            and spec.lease_bytes > 0
            and (spec.lease_bytes > sim.pool.free_bytes or sim.pool.queue_depth > 0)
            and spec.lease_bytes <= self.cluster_pool.free_bytes
            and self.cluster_pool.queue_depth == 0
        )
        # The rack may refuse the tenant, so it admits before the cluster pool.
        lease = sim.admit(replace(spec, pool_bytes=0) if spill else spec, node=node)
        if spill:
            lease = self._spilled[spec.name] = self.cluster_pool.request(
                spec.name, spec.lease_bytes, time=self.clock
            )
            metrics().counter("fabric.cluster.spills").inc()
        if self._epoch_end == math.inf:  # the first admission set the epoch
            self._epoch_end = self.clock + self.epoch_seconds
        self._recouple()
        return lease

    def withdraw(self, name: str, time: Optional[float] = None) -> None:
        """Remove a tenant, returning its rack- or cluster-pool lease."""
        rack = self.rack_of(name)
        sim = self.rack_sims[rack]
        if time is not None and time > self.clock:
            self.step(time - self.clock)
        state = sim.tenant_states.get(name)
        sim.withdraw(name)
        lease = self._spilled.pop(name, None)
        if lease is not None and lease.state in (LEASE_GRANTED, LEASE_QUEUED):
            self.cluster_pool.release(lease, time=self.clock)
        if state is not None and (rack, state.node) in self._offset_nodes:
            sim.set_background_offset(state.node, 0.0)
            self._offset_nodes.discard((rack, state.node))
        self._recouple()

    # -- stepping ---------------------------------------------------------------------

    def step(self, dt: float) -> dict[str, float]:
        """Advance all racks ``dt`` wall-seconds in lockstep.

        The racks run the fabric's one stepping loop
        (:func:`~repro.fabric.cosim.step_racks`), their re-solves batched
        into :meth:`ClusterFabric.resolve_racks`.  It stops at the cluster
        epoch end only while a recoupling has work (:meth:`_next_recoupling`).
        The epoch ends a step reaches are counted and refresh the spilled
        tenants' uplink/spine backgrounds once.  Returns baseline-seconds
        completed per tenant.
        """
        if dt < 0:
            raise FabricError("cannot step the cluster backwards")
        metrics().counter("fabric.cluster.step_calls").inc()
        done = dict.fromkeys(self._lockstep.tenant_rack, 0.0)
        end = self.clock + dt
        remaining = float(dt)
        with trace_span("fabric.cluster.step", racks=self.fabric.n_racks):
            while remaining > 1e-15:
                piece = min(remaining, self._next_recoupling() - self.clock)
                piece_done = step_racks(self.rack_sims, piece, self._resolve_racks)
                for name, amount in piece_done.items():
                    done[name] += amount
                if self.clock >= self._epoch_end - 1e-12:
                    while self.clock >= self._epoch_end - 1e-12:
                        metrics().counter("fabric.cluster.epochs").inc()
                        self._epoch_end += self.epoch_seconds
                    self._recouple()
                remaining = end - self.clock
        return done

    def _next_recoupling(self) -> float:
        """The next cluster epoch end while a recoupling has work (a spilled
        tenant or a stale offset), else infinity: it would move no offset."""
        return self._epoch_end if self._spilled or self._offset_nodes else math.inf

    def _resolve_racks(
        self, indices: Sequence[int], demands: Sequence[Mapping[int, float]]
    ) -> tuple[dict[int, float], ...]:
        """:func:`~repro.fabric.cosim.roll_over`'s solve for the due racks:
        one batched :meth:`ClusterFabric.resolve_racks` call."""
        return self.fabric.resolve_racks(indices, demands).delivered

    def _recouple(self) -> None:
        """Refresh spilled tenants' uplink/spine background offsets.

        See the module docstring for the coupling model.  Idempotent given
        unchanged rack demands, so calling it on admission, withdrawal and
        at cluster epoch ends keeps the offsets exact without disturbing the
        racks' dirty-epoch tracking more than necessary.

        A cluster that never spills pays (almost) nothing here: with no
        spilled tenants and no stale offsets to clear, every offset below
        would compute to its current value, so the walk exits up front —
        ``fabric.cluster.recouples`` counts only the recouples that actually
        walked.
        """
        if not self._spilled and not self._offset_nodes:
            return
        metrics().counter("fabric.cluster.recouples").inc()
        uplink_traffic = [0.0] * self.fabric.n_racks
        spilled_nodes: list[tuple[int, int, float]] = []
        for name in self._spilled:
            rack = self._lockstep.tenant_rack[name]
            state = self.rack_sims[rack].tenant_states.get(name)
            if state is None or not state.running:
                continue
            demand = state.current_offered_bandwidth()
            uplink_traffic[rack] += demand
            spilled_nodes.append((rack, state.node, demand))
        total = sum(uplink_traffic)
        metrics().gauge("fabric.cluster.spine_utilization").set(
            self.fabric.spine.utilization(total)
        )
        live: set[tuple[int, int]] = set()
        for rack, node, demand in spilled_nodes:
            same_rack = uplink_traffic[rack] - demand
            cross_rack = total - uplink_traffic[rack]
            port_capacity = self.fabric.racks[rack].ports[0].data_capacity
            offset = (
                same_rack * port_capacity / self.fabric.uplinks[rack].data_capacity
                + cross_rack * port_capacity / self.fabric.spine.data_capacity
            )
            self.rack_sims[rack].set_background_offset(node, offset)
            live.add((rack, node))
        for rack, node in self._offset_nodes - live:
            self.rack_sims[rack].set_background_offset(node, 0.0)
        self._offset_nodes = live

    # -- rates / horizon (for external event loops) ------------------------------------

    def progress_rates(self) -> dict[str, float]:
        """Per-tenant progress rates merged across all racks."""
        rates: dict[str, float] = {}
        for sim in self.rack_sims:
            rates.update(sim.progress_rates())
        return rates

    def horizon(self) -> float:
        """Wall seconds the current rates stay exact, cluster-wide.

        Bounded by every busy rack's own
        :meth:`~repro.fabric.cosim.RackCoSimulator.horizon` (its next rate
        change, or the next rollover that re-solves) and by the next cluster
        recoupling that has work (:meth:`_next_recoupling`).  With neither,
        the next cluster epoch end is the bound.
        """
        if self.epoch_seconds is None:
            raise FabricError(
                "the cluster has no epoch length yet: pass epoch_seconds or "
                "admit a tenant first"
            )
        epoch_end = max(self._epoch_end - self.clock, 1e-12)
        bound = self._next_recoupling() - self.clock
        for sim in self.rack_sims:
            if any(state.running for state in sim.tenant_states.values()):
                bound = min(bound, sim.horizon())
        return epoch_end if bound == math.inf else max(bound, 1e-12)

    # -- checkpoint / rollover ---------------------------------------------------------

    def checkpoint(self) -> ClusterCheckpoint:
        """Snapshot every rack's epoch state plus the next cluster epoch end."""
        metrics().counter("fabric.cluster.checkpoints").inc()
        return ClusterCheckpoint(
            clock=self.clock,
            epoch_end=self._epoch_end,
            racks=tuple(sim.checkpoint() for sim in self.rack_sims),
        )

    def rollover(self, checkpoint: ClusterCheckpoint) -> None:
        """Roll every rack back to a checkpoint, or none of them
        (:func:`~repro.fabric.cosim.roll_back`)."""
        roll_back(self.rack_sims, checkpoint.racks)
        self._epoch_end = checkpoint.epoch_end
        metrics().counter("fabric.cluster.rollbacks").inc()

    # -- closed loop ------------------------------------------------------------------

    def run_to_completion(
        self, arrivals: Sequence[tuple[int, TenantSpec]] = ()
    ) -> dict:
        """Step until every tenant finishes (or can never run): the fabric's
        one closed loop.

        ``arrivals`` are ``(rack, spec)`` admissions still to come: each is
        admitted on its rack's first free node at its exact ``spec.arrival``.
        With no epoch length set yet, ~1/40 of the longest baseline runtime
        among them sets it (at least 1e-6 s).

        At each instant, in this order: the faults that are due fire, the
        arrivals that are due are admitted, the racks' leased pool bytes are
        sampled, and every finished tenant is retired with :meth:`withdraw`
        in admission order, which frees its node, returns its rack- or
        cluster-pool lease (granting queued tenants in that same instant) and
        re-solves its rack at once.  Then the cluster steps to its next rate
        change, never past the next arrival or fault, or straight to that
        arrival or fault when no tenant progresses.  With neither, the run is
        *stranded*: the tenants still admitted stay where they stand, and one
        whose lease is queued is rejected.

        Returns a summary dict: the makespan, the means over the finished
        tenants (in retirement order), the rack pools' total capacity and
        the peak of their sampled leased bytes, and one row per tenant,
        sorted by (rack, name) and dated from its first lease grant; a
        finished tenant reads ``granted``, and a spilled tenant's rack-pool
        ``lease_gb`` reads 0 while its ``spill_gb`` holds its cluster-pool
        lease (0 for a rack-pool tenant), as granted at admission.  The
        closed loop behind ``repro-dmem fabric`` and both fabric figures.
        """
        lockstep = self._lockstep
        placed = {
            name: (rack, self._spill_bytes(name))
            for name, rack in lockstep.tenant_rack.items()
        }
        pending = sorted(arrivals, key=lambda item: item[1].arrival)
        cursor = 0
        retired: dict[str, _TenantState] = {}
        peak = 0
        with trace_span("fabric.run", tenants=len(placed) + len(pending)):
            if lockstep.epoch is None and pending:
                testbed = self.fabric.testbed
                runtimes = [
                    spec.baseline_runtime
                    or baseline_run(
                        spec.workload, spec.local_fraction, testbed, self.seed
                    ).total_runtime
                    for _, spec in pending
                ]
                lockstep.epoch = max(max(runtimes) / 40.0, 1e-6)
            for _ in range(_MAX_INSTANTS):
                lockstep.apply_due_faults()
                while (
                    cursor < len(pending)
                    and pending[cursor][1].arrival <= self.clock + 1e-12
                ):
                    rack, spec = pending[cursor]
                    self.admit(rack, spec, time=spec.arrival)
                    placed[spec.name] = (rack, self._spill_bytes(spec.name))
                    cursor += 1
                peak = max(peak, sum(sim.pool.leased_bytes for sim in self.rack_sims))
                for name, state in self.tenant_states.items():
                    if state.finished:
                        retired[name] = state
                        self.withdraw(name)
                if not lockstep.tenant_rack and cursor == len(pending):
                    break
                ahead = [lockstep.next_fault]
                if cursor < len(pending):
                    ahead.append(pending[cursor][1].arrival)
                future = [t for t in ahead if t is not None and t > self.clock + 1e-12]
                if any(sim.progressing() for sim in self.rack_sims):
                    dt = self.horizon()
                    if future:
                        dt = min(dt, min(future) - self.clock)
                    self.step(dt)
                elif future:
                    self.step(min(future) - self.clock)
                else:
                    for sim in self.rack_sims:
                        for state in sim.tenant_states.values():
                            if state.lease.state == LEASE_QUEUED:
                                sim.pool.release(state.lease, time=self.clock)
                                state.lease.state = LEASE_REJECTED
                    break
            else:
                raise FabricError(
                    f"the closed loop did not terminate within {_MAX_INSTANTS} instants"
                )
        self._retired.update(retired)
        live = self.tenant_states
        rows = sorted(
            (rack, name, spill, (retired.get(name) or live[name]).outcome())
            for name, (rack, spill) in placed.items()
        )
        finished = [state.outcome() for state in retired.values()]
        summary = {
            "makespan": max((o.finish_time for o in finished), default=0.0),
            "mean_slowdown": (
                float(np.mean([o.slowdown for o in finished])) if finished else 1.0
            ),
            "mean_runtime": (
                float(np.mean([o.runtime for o in finished])) if finished else 0.0
            ),
            "n_racks": self.fabric.n_racks,
            "nodes_per_rack": self.fabric.nodes_per_rack,
            "epoch_seconds": self.epoch_seconds,
            "pool_capacity_gb": sum(sim.pool.capacity_bytes for sim in self.rack_sims) / 1e9,
            "max_leased_gb": peak / 1e9,
            "spilled_tenants": sum(1 for row in rows if row[2] > 0),
            "cluster_pool_gb": (
                self.cluster_pool.capacity_bytes / 1e9
                if self.cluster_pool is not None
                else 0.0
            ),
            "tenants": [
                {
                    "name": o.name,
                    "workload": o.workload,
                    "rack": rack,
                    "node": o.node,
                    "spilled": spill > 0,
                    "lease_state": (
                        LEASE_GRANTED if o.finish_time is not None else o.lease_state
                    ),
                    "lease_gb": o.lease_bytes / 1e9,
                    "spill_gb": spill / 1e9,
                    "wait_s": o.wait_time,
                    "runtime_s": o.runtime,
                    "baseline_s": o.baseline_runtime,
                    "slowdown": o.slowdown,
                    "mean_background_gbs": o.mean_background_bandwidth / 1e9,
                }
                for rack, _, spill, o in rows
            ],
        }
        if lockstep.reports_faults:
            summary["faults"] = self.blast_radius().summary()
        return summary
