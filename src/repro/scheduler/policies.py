"""Scheduling policies: random co-location versus interference awareness.

Section 7.2 compares a baseline where a job may be co-located with arbitrary
interference (LoI drawn from 0-50%) against an interference-aware scheduler
that avoids placing interference-inducing jobs next to sensitive ones
(emulated by restricting the LoI range to 0-20%).  For the rack-scale
simulation we generalise that idea into placement policies that choose the
rack a job lands in.

All policies except :class:`FabricCoupledPlacement` and
:class:`ClusterFabricPlacement` score racks from the jobs' *submission-time
hints* (``induced_loi``, sensitivity curves, pool GB).  The two coupled
policies instead read the live state of the
:class:`~repro.scheduler.progress.FabricCoupledProgress` model driving the
simulation — the contention they project is resolved on the same fabric the
jobs actually run on, so placement sees the emergent interference of the
co-simulation rather than a static proxy of it;
:class:`ClusterFabricPlacement` additionally trades that port pressure
against hierarchical pool pressure (rack-pool headroom and cluster-pool
spill).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

import numpy as np

from ..config.errors import SchedulingError
from ..config.units import gb
from .cluster import Cluster, Rack
from .job import Job


class PlacementPolicy(Protocol):
    """Chooses the rack a job should be placed in (None = leave it queued).

    Contract with :class:`~repro.scheduler.simulator.ClusterSimulator`: the
    simulator offers a queued job only while some rack can host it, i.e.
    while ``cluster.candidate_racks(job)`` is non-empty.  A policy must
    therefore return None when there are no candidates *before* any random
    draw or other side effect, so that skipping those calls changes nothing.
    Every built-in policy does.  A job the policy declines is offered again
    in the next placement pass: after a pass that placed a job, or at the
    next event.
    """

    name: str

    def choose_rack(self, cluster: Cluster, job: Job, rng: np.random.Generator) -> Optional[Rack]:
        """Pick a rack for ``job`` or return None to keep it waiting."""
        ...


@dataclass
class RandomPlacement:
    """Interference-oblivious baseline: any rack with a free node will do."""

    name: str = "random"

    def choose_rack(self, cluster: Cluster, job: Job, rng: np.random.Generator) -> Optional[Rack]:
        candidates = cluster.candidate_racks(job)
        if not candidates:
            return None
        return candidates[int(rng.integers(0, len(candidates)))]


@dataclass
class LeastLoadedPlacement:
    """Places jobs on the rack whose pool link currently carries the least traffic.

    A simple capacity-balancing policy that is still interference-oblivious
    about the *job's own* sensitivity; included as an intermediate baseline.
    """

    name: str = "least-loaded"

    def choose_rack(self, cluster: Cluster, job: Job, rng: np.random.Generator) -> Optional[Rack]:
        candidates = cluster.candidate_racks(job)
        if not candidates:
            return None
        return min(candidates, key=lambda rack: rack.aggregate_loi())


@dataclass
class InterferenceAwarePlacement:
    """Keeps the interference seen by sensitive jobs below a threshold.

    The policy uses the submission-time hints the paper proposes: each job's
    induced LoI and its sensitivity curve.  A rack is acceptable for a job if

    * the interference the job would *see* there stays below ``max_seen_loi``
      (scaled down further for highly sensitive jobs), and
    * the interference the job would *add* does not push any sensitive
      co-runner above the same limit.

    Among acceptable racks the least-loaded one is chosen.  If no rack is
    acceptable the job waits (``strict``) or falls back to the least-loaded
    rack (``strict=False``), so the policy degrades gracefully under pressure.
    """

    max_seen_loi: float = 20.0
    sensitivity_threshold: float = 1.05
    strict: bool = False
    name: str = "interference-aware"

    def _sensitive(self, job: Job) -> bool:
        return job.profile.slowdown_at(50.0) >= self.sensitivity_threshold

    def choose_rack(self, cluster: Cluster, job: Job, rng: np.random.Generator) -> Optional[Rack]:
        candidates = cluster.candidate_racks(job)
        if not candidates:
            return None
        acceptable = []
        for rack in candidates:
            seen = rack.aggregate_loi()
            if self._sensitive(job) and seen > self.max_seen_loi:
                continue
            # Would adding this job push a sensitive co-runner over the limit?
            harms_others = False
            for other in rack.running_jobs:
                other_seen = rack.aggregate_loi(excluding=other) + job.profile.induced_loi
                if other.profile.slowdown_at(50.0) >= self.sensitivity_threshold and other_seen > self.max_seen_loi:
                    harms_others = True
                    break
            if harms_others:
                continue
            acceptable.append(rack)
        if acceptable:
            return min(acceptable, key=lambda rack: rack.aggregate_loi())
        if self.strict:
            return None
        return min(candidates, key=lambda rack: rack.aggregate_loi())


@dataclass
class PoolAwarePlacement:
    """Places jobs where the memory pool has headroom and the pool port is calm.

    This is the placement view of the :mod:`repro.fabric` co-simulation: a job
    draws two distinct rack resources — pool *capacity* (its lease) and pool
    *port bandwidth* (its traffic).  A rack whose pool is nearly exhausted
    would queue the job's lease; a rack whose port already runs hot would slow
    everyone down.  The policy scores each candidate rack by the projected
    state *after* placing the job,

    ``score = capacity_weight · pool-utilisation + (1 − capacity_weight) · port-utilisation``,

    and picks the lowest.  Racks whose projected port utilisation exceeds
    ``max_port_utilization`` are avoided entirely unless no other rack can
    host the job (graceful degradation under pressure, like the
    interference-aware policy).  Port utilisation is estimated from the
    co-runners' induced LoI, which is the link-traffic share their pool
    traffic occupies.
    """

    max_port_utilization: float = 0.9
    capacity_weight: float = 0.5
    name: str = "pool-aware"

    def __post_init__(self) -> None:
        if not 0.0 <= self.capacity_weight <= 1.0:
            raise SchedulingError("capacity_weight must be in [0, 1]")
        if self.max_port_utilization <= 0:
            raise SchedulingError("max_port_utilization must be positive")

    def _projected(self, rack: Rack, job: Job) -> tuple[float, float]:
        """(pool utilisation, port utilisation) if ``job`` landed in ``rack``."""
        pool_util = (rack.pool_used_gb + job.profile.pool_gb) / max(
            rack.pool_capacity_gb, 1e-9
        )
        port_util = (rack.aggregate_loi() + job.profile.induced_loi) / 100.0
        return pool_util, port_util

    def choose_rack(self, cluster: Cluster, job: Job, rng: np.random.Generator) -> Optional[Rack]:
        candidates = cluster.candidate_racks(job)
        if not candidates:
            return None

        def score(rack: Rack) -> float:
            pool_util, port_util = self._projected(rack, job)
            return (
                self.capacity_weight * pool_util
                + (1.0 - self.capacity_weight) * port_util
            )

        acceptable = [
            rack
            for rack in candidates
            if self._projected(rack, job)[1] <= self.max_port_utilization
        ]
        return min(acceptable if acceptable else candidates, key=score)


@dataclass
class FabricCoupledPlacement:
    """Places jobs where the *live* co-simulated fabric has the most headroom.

    Requires the cluster simulation to run with a
    :class:`~repro.scheduler.progress.FabricCoupledProgress` model (pass the
    same instance to both the simulator and this policy).  Each candidate rack
    is scored by the utilisation its busiest pool port would reach with the
    job's hungriest phase added to the tenants' *current* offered demands —
    the projection is resolved through the same
    :class:`~repro.fabric.topology.FabricTopology` the co-simulation steps,
    so a rack whose tenants currently sit in quiet phases is (correctly)
    considered calm even if their submission-time hints looked noisy.  Racks
    whose projected pressure exceeds ``max_port_utilization`` are avoided
    unless no other rack can host the job; falls back to the static LoI
    score when no progress model is attached.

    Because the projection divides by port health (see
    :meth:`~repro.scheduler.progress.FabricCoupledProgress.
    projected_port_pressure`), racks with degraded or killed ports read as
    high-pressure and are avoided automatically when a fault schedule is
    active — no fault-specific placement logic exists or is needed here.
    """

    progress: Optional[object] = None
    max_port_utilization: float = 0.9
    name: str = "fabric-coupled"

    def choose_rack(self, cluster: Cluster, job: Job, rng: np.random.Generator) -> Optional[Rack]:
        candidates = cluster.candidate_racks(job)
        if not candidates:
            return None
        if self.progress is None or not hasattr(self.progress, "projected_port_pressure"):
            return min(candidates, key=lambda rack: rack.aggregate_loi())
        pressures = {
            rack.rack_id: self.progress.projected_port_pressure(rack, job)
            for rack in candidates
        }
        acceptable = [
            rack
            for rack in candidates
            if pressures[rack.rack_id] <= self.max_port_utilization
        ]
        return min(acceptable if acceptable else candidates, key=lambda rack: pressures[rack.rack_id])


@dataclass
class ClusterFabricPlacement:
    """Cluster-scale placement: inter-rack traffic versus pool pressure.

    Extends :class:`FabricCoupledPlacement`'s live port-pressure projection
    with the hierarchical-pool view of the
    :class:`~repro.fabric.cluster.ClusterCoSimulator`: a job whose pool lease
    the rack's *mirrored fabric pool* cannot grant immediately will *spill*
    into the cluster pool and from then on contend on the rack uplink and the
    shared spine, so racks where the job would spill are penalised by
    ``spill_weight`` (in port-utilisation units), and every rack pays a
    continuous ``pool_weight``-scaled pool-pressure term so leases spread
    away from nearly-full pools *before* anything spills.  The score,

    ``score = port-pressure + pool_weight · pool-pressure + spill_weight · would-spill``,

    places jobs to keep traffic rack-local first and ports calm second.
    Racks whose projected port pressure exceeds ``max_port_utilization`` are
    avoided unless no other rack can host the job; with no progress model
    attached the port and spill terms fall back to the static hints.  Like
    :class:`FabricCoupledPlacement`, the port-pressure term divides by port
    health, so degraded racks are penalised and dead-ported racks avoided
    automatically under an active fault schedule.
    """

    progress: Optional[object] = None
    max_port_utilization: float = 0.9
    pool_weight: float = 0.25
    spill_weight: float = 0.5
    name: str = "cluster-fabric"

    def __post_init__(self) -> None:
        if self.pool_weight < 0:
            raise SchedulingError("pool_weight must be >= 0")
        if self.spill_weight < 0:
            raise SchedulingError("spill_weight must be >= 0")

    def _port_pressure(self, rack: Rack, job: Job) -> float:
        if self.progress is not None and hasattr(
            self.progress, "projected_port_pressure"
        ):
            return float(self.progress.projected_port_pressure(rack, job))
        return (rack.aggregate_loi() + job.profile.induced_loi) / 100.0

    def _pool_pressure(self, rack: Rack, job: Job) -> float:
        return (rack.pool_used_gb + job.profile.pool_gb) / max(
            rack.pool_capacity_gb, 1e-9
        )

    def _would_spill(self, rack: Rack, job: Job) -> bool:
        lease_bytes = gb(job.profile.pool_gb)  # scheduler capacities are decimal GB
        if self.progress is not None and hasattr(self.progress, "rack_simulator"):
            pool = self.progress.rack_simulator(rack).pool
            return lease_bytes > pool.free_bytes or pool.queue_depth > 0
        return job.profile.pool_gb > rack.pool_free_gb

    def choose_rack(self, cluster: Cluster, job: Job, rng: np.random.Generator) -> Optional[Rack]:
        candidates = cluster.candidate_racks(job)
        if not candidates:
            return None
        scores = {}
        pressures = {}
        for rack in candidates:
            pressure = self._port_pressure(rack, job)
            pressures[rack.rack_id] = pressure
            scores[rack.rack_id] = (
                pressure
                + self.pool_weight * self._pool_pressure(rack, job)
                + (self.spill_weight if self._would_spill(rack, job) else 0.0)
            )
        acceptable = [
            rack
            for rack in candidates
            if pressures[rack.rack_id] <= self.max_port_utilization
        ]
        return min(
            acceptable if acceptable else candidates,
            key=lambda rack: scores[rack.rack_id],
        )


POLICIES = {
    "random": RandomPlacement,
    "least-loaded": LeastLoadedPlacement,
    "interference-aware": InterferenceAwarePlacement,
    "pool-aware": PoolAwarePlacement,
    "fabric-coupled": FabricCoupledPlacement,
    "cluster-fabric": ClusterFabricPlacement,
}


def make_policy(name: str, **kwargs) -> PlacementPolicy:
    """Instantiate a placement policy by name."""
    try:
        cls = POLICIES[name]
    except KeyError as exc:
        raise SchedulingError(
            f"unknown scheduling policy {name!r}; known: {sorted(POLICIES)}"
        ) from exc
    return cls(**kwargs)
