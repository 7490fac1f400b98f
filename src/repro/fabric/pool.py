"""Shared memory pool with capacity leasing and admission control.

The paper's target architecture (Figure 2) gives every rack one
fabric-attached memory pool that all compute nodes borrow capacity from.
:class:`MemoryPool` models the pool-side resource manager sketched in the
Section 7.2 extension: tenants *request* remote capacity before they start,
the pool either **grants** the lease, **queues** the request until enough
capacity is released, or **rejects** it outright when it could never fit.
Leases are returned on job completion, at which point queued requests are
admitted in FIFO order.

The pool only manages *capacity*; bandwidth contention on the way to the pool
is the :class:`~repro.fabric.topology.FabricTopology`'s job.

Units and coupling: capacities and leases are **bytes**; timestamps are
simulated seconds supplied by whoever drives the pool (the closed loop of
:meth:`~repro.fabric.cluster.ClusterCoSimulator.run_to_completion`, or a
scheduler stepping the cluster incrementally).  When the scheduler couples jobs to fabric tenants,
one lease mirrors one job's ``pool_gb`` reservation and lives exactly as long
as the job — the pool never expires leases on its own.

Elasticity (the failure-model extension, see ``docs/failure_model.md``):
an ``elastic=True`` pool may *overcommit* — instead of queueing a request
that does not fit, it shrinks running leases proportionally (never below
``min_lease_fraction`` of what each tenant originally asked for) to make
room.  Leases can also be shrunk or revoked explicitly (fault injection),
and capacity can be lost outright.  Every byte taken back from a granted
lease is logged exactly once as a :class:`ReclaimRecord`; the co-simulator
drains these via :meth:`MemoryPool.consume_reclaims` and charges the
modelled page-give-back migration cost against the victim tenant's
progress, so the accounting is charge-exactly-once by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..config.errors import FabricError
from ..telemetry import metrics

#: Lease lifecycle states.
LEASE_GRANTED = "granted"
LEASE_QUEUED = "queued"
LEASE_REJECTED = "rejected"
LEASE_RELEASED = "released"
LEASE_REVOKED = "revoked"


@dataclass
class Lease:
    """One tenant's claim on pool capacity.

    Attributes
    ----------
    lease_id:
        Monotonic identifier assigned by the pool.
    tenant:
        Name of the requesting tenant (job / node).
    nbytes:
        Currently granted pool capacity in bytes (an elastic pool may shrink
        this below ``requested_nbytes`` while the lease runs).
    requested_nbytes:
        What the tenant originally asked for — the base of the elastic
        shrink floor (``min_lease_fraction`` × this).
    state:
        One of ``granted``, ``queued``, ``rejected``, ``released`` or
        ``revoked``.  A revoked lease occupies no capacity; its tenant must
        request a fresh lease to run again (the co-simulator does this at
        the next epoch rollover).
    requested_at / granted_at / released_at / revoked_at:
        Simulated timestamps of the lease lifecycle (None until reached).
    """

    lease_id: int
    tenant: str
    nbytes: int
    state: str
    requested_at: float
    granted_at: Optional[float] = None
    released_at: Optional[float] = None
    revoked_at: Optional[float] = None
    requested_nbytes: int = 0

    @property
    def active(self) -> bool:
        """Whether the lease currently occupies pool capacity."""
        return self.state == LEASE_GRANTED

    @property
    def wait_time(self) -> float:
        """Time the request spent queued before being granted (0 if immediate)."""
        if self.granted_at is None:
            return 0.0
        return self.granted_at - self.requested_at


@dataclass(frozen=True)
class PoolSample:
    """One telemetry sample of the pool's state."""

    time: float
    leased_bytes: int
    queue_depth: int
    active_leases: int


@dataclass(frozen=True)
class ReclaimRecord:
    """Bytes taken back from a granted lease (shrink or revoke).

    The pool appends one record per reclaim; whoever drives the pool drains
    them with :meth:`MemoryPool.consume_reclaims` and charges the migration
    cost (``nbytes / drain rate`` seconds of stall) against the tenant.
    Because each record is produced once and the queue is drained
    destructively, the cost is charged exactly once per reclaimed byte.
    """

    tenant: str
    lease_id: int
    nbytes: int
    time: float
    kind: str  # "shrink" | "revoke"


class MemoryPool:
    """Rack-level disaggregated memory pool with admission control.

    Parameters
    ----------
    capacity_bytes:
        Total capacity of the pool in bytes.
    name:
        Human-readable pool name used in telemetry/reports.
    elastic:
        Overcommit admission mode: a request that does not fit shrinks
        running leases proportionally (respecting each lease's floor)
        instead of queueing.  Default off — a non-elastic pool behaves
        bit-identically to the pre-fault-layer pool.
    min_lease_fraction:
        Elastic shrink floor, as a fraction of each lease's originally
        requested bytes (default 0.5: a lease is never squeezed below half
        of what its tenant asked for).

    Admission is first-come-first-served with head-of-line blocking: queued
    requests are admitted strictly in arrival order, so a large queued request
    is never starved by smaller ones arriving later.
    """

    def __init__(
        self,
        capacity_bytes: int,
        name: str = "pool-0",
        elastic: bool = False,
        min_lease_fraction: float = 0.5,
    ) -> None:
        if capacity_bytes <= 0:
            raise FabricError("pool capacity must be positive")
        if not 0.0 <= min_lease_fraction <= 1.0:
            raise FabricError("min_lease_fraction must be in [0, 1]")
        self.capacity_bytes = int(capacity_bytes)
        self.name = name
        self.elastic = bool(elastic)
        self.min_lease_fraction = float(min_lease_fraction)
        self._leases: list[Lease] = []
        self._queue: list[Lease] = []
        self._reclaims: list[ReclaimRecord] = []
        self._next_id = 0

    # -- state ---------------------------------------------------------------------

    @property
    def leased_bytes(self) -> int:
        """Capacity currently granted to tenants, bytes."""
        return sum(l.nbytes for l in self._leases if l.active)

    @property
    def free_bytes(self) -> int:
        """Capacity available for new grants, bytes."""
        return self.capacity_bytes - self.leased_bytes

    @property
    def queue_depth(self) -> int:
        """Number of requests waiting for capacity."""
        return len(self._queue)

    @property
    def active_leases(self) -> tuple[Lease, ...]:
        """All currently granted leases."""
        return tuple(l for l in self._leases if l.active)

    @property
    def utilization(self) -> float:
        """Fraction of pool capacity currently leased."""
        return self.leased_bytes / self.capacity_bytes

    def sample(self, time: float) -> PoolSample:
        """Capture a telemetry sample of the pool at ``time``."""
        return PoolSample(
            time=float(time),
            leased_bytes=self.leased_bytes,
            queue_depth=self.queue_depth,
            active_leases=len(self.active_leases),
        )

    # -- leasing -------------------------------------------------------------------

    def request(self, tenant: str, nbytes: int, time: float = 0.0) -> Lease:
        """Request ``nbytes`` of pool capacity for ``tenant``.

        Returns a :class:`Lease` whose state tells the caller what happened:
        ``granted`` (capacity reserved immediately), ``queued`` (will be
        granted by a later :meth:`release`) or ``rejected`` (the request can
        never be satisfied because it exceeds the pool's total capacity).
        A zero-byte request is granted trivially — the tenant simply does not
        use the pool.

        On an ``elastic`` pool a request that does not fit is granted anyway
        when shrinking the running leases (proportionally, never below their
        floors) can free enough capacity; it queues like on a rigid pool
        only when even full shrinkage would not fit it — and elastic
        reclamation never lets a request overtake earlier queued ones.
        """
        if nbytes < 0:
            raise FabricError("cannot request a negative amount of pool capacity")
        lease = Lease(
            lease_id=self._next_id,
            tenant=tenant,
            nbytes=int(nbytes),
            state=LEASE_QUEUED,
            requested_at=float(time),
            requested_nbytes=int(nbytes),
        )
        self._next_id += 1
        self._leases.append(lease)
        if lease.nbytes > self.capacity_bytes:
            lease.state = LEASE_REJECTED
            metrics().counter("fabric.pool.rejected").inc()
        elif lease.nbytes == 0 or (lease.nbytes <= self.free_bytes and not self._queue):
            # Zero-byte requests occupy nothing, so they never wait behind the
            # queue; non-zero requests must not overtake earlier queued ones.
            lease.state = LEASE_GRANTED
            lease.granted_at = float(time)
            metrics().counter("fabric.pool.granted").inc()
        elif (
            self.elastic
            and not self._queue
            and self.free_bytes + self._reclaimable_bytes() >= lease.nbytes
        ):
            self._reclaim(lease.nbytes - self.free_bytes, time)
            lease.state = LEASE_GRANTED
            lease.granted_at = float(time)
            metrics().counter("fabric.pool.granted").inc()
        else:
            self._queue.append(lease)
            metrics().counter("fabric.pool.queued").inc()
        return lease

    def release(self, lease: Lease, time: float = 0.0) -> list[Lease]:
        """Return a granted lease to the pool and admit queued requests.

        Returns the leases that became granted as a consequence (in FIFO
        order), so a co-simulator can start the corresponding tenants.
        """
        if lease.state == LEASE_QUEUED:
            # Cancelling a queued request is allowed (e.g. a tenant gives up).
            self._queue.remove(lease)
            lease.state = LEASE_RELEASED
            lease.released_at = float(time)
            metrics().counter("fabric.pool.released").inc()
            return self._admit(time)
        if lease.state != LEASE_GRANTED:
            raise FabricError(
                f"lease {lease.lease_id} of {lease.tenant!r} is {lease.state}, "
                "only granted or queued leases can be released"
            )
        lease.state = LEASE_RELEASED
        lease.released_at = float(time)
        metrics().counter("fabric.pool.released").inc()
        return self._admit(time)

    def _admit(self, time: float) -> list[Lease]:
        """Grant queued requests from the head of the queue while they fit."""
        admitted: list[Lease] = []
        while self._queue and self._queue[0].nbytes <= self.free_bytes:
            lease = self._queue.pop(0)
            lease.state = LEASE_GRANTED
            lease.granted_at = float(time)
            admitted.append(lease)
        if admitted:
            metrics().counter("fabric.pool.granted").inc(len(admitted))
        return admitted

    # -- elasticity / fault surface ------------------------------------------------

    def _floor_of(self, lease: Lease) -> int:
        """Bytes an elastic shrink must leave a granted lease."""
        return int(math.ceil(lease.requested_nbytes * self.min_lease_fraction))

    def _reclaimable_bytes(self) -> int:
        """Bytes elastic shrinking could free without breaching any floor."""
        return sum(
            max(l.nbytes - self._floor_of(l), 0) for l in self._leases if l.active
        )

    def _shrink_by(self, lease: Lease, nbytes: int, time: float) -> int:
        """Take up to ``nbytes`` from a granted lease; log one reclaim record."""
        take = min(int(nbytes), lease.nbytes)
        if take <= 0:
            return 0
        lease.nbytes -= take
        self._reclaims.append(
            ReclaimRecord(
                tenant=lease.tenant,
                lease_id=lease.lease_id,
                nbytes=take,
                time=float(time),
                kind="shrink",
            )
        )
        metrics().counter("fabric.pool.shrunk").inc()
        return take

    def _reclaim(self, needed: int, time: float) -> int:
        """Shrink active leases proportionally to free ``needed`` bytes.

        Each victim loses spare capacity (above its floor) in proportion to
        how much spare it has, rounded up, so the target is met with minimal
        overshoot; a greedy second pass covers any rounding shortfall.
        Returns the bytes actually freed (less than ``needed`` when floors
        bind).
        """
        victims = [l for l in self._leases if l.active]
        total_spare = sum(max(l.nbytes - self._floor_of(l), 0) for l in victims)
        if total_spare <= 0 or needed <= 0:
            return 0
        reclaimed = 0
        for lease in victims:
            if reclaimed >= needed:
                break
            spare = max(lease.nbytes - self._floor_of(lease), 0)
            share = -(-spare * int(needed) // total_spare)  # ceil
            reclaimed += self._shrink_by(
                lease, min(spare, share, needed - reclaimed), time
            )
        for lease in victims:
            if reclaimed >= needed:
                break
            spare = max(lease.nbytes - self._floor_of(lease), 0)
            reclaimed += self._shrink_by(lease, min(spare, needed - reclaimed), time)
        return reclaimed

    def shrink(self, lease: Lease, nbytes: int, time: float = 0.0) -> int:
        """Reclaim up to ``nbytes`` from a granted lease (fault injection).

        The lease keeps running with the smaller grant; its ``nbytes`` never
        goes below zero because the reclaim is clamped to the current grant.
        Freed capacity admits queued requests immediately.  Returns the bytes
        actually reclaimed.
        """
        if nbytes < 0:
            raise FabricError("cannot shrink a lease by a negative amount")
        if lease.state != LEASE_GRANTED:
            raise FabricError(
                f"lease {lease.lease_id} of {lease.tenant!r} is {lease.state}, "
                "only granted leases can be shrunk"
            )
        taken = self._shrink_by(lease, nbytes, time)
        if taken:
            self._admit(time)
        return taken

    def revoke(self, lease: Lease, time: float = 0.0) -> int:
        """Revoke a granted lease outright (fault injection).

        The lease stops occupying capacity but keeps its byte count, so the
        tenant (or the co-simulator on its behalf) can re-request the same
        amount later — the re-request joins the back of the FIFO queue like
        any new request.  Returns the bytes freed.
        """
        if lease.state != LEASE_GRANTED:
            raise FabricError(
                f"lease {lease.lease_id} of {lease.tenant!r} is {lease.state}, "
                "only granted leases can be revoked"
            )
        freed = lease.nbytes
        lease.state = LEASE_REVOKED
        lease.revoked_at = float(time)
        self._reclaims.append(
            ReclaimRecord(
                tenant=lease.tenant,
                lease_id=lease.lease_id,
                nbytes=freed,
                time=float(time),
                kind="revoke",
            )
        )
        metrics().counter("fabric.pool.revoked").inc()
        self._admit(time)
        return freed

    def lose_capacity(self, nbytes: int, time: float = 0.0) -> int:
        """Remove ``nbytes`` of capacity from the pool (fault injection).

        Capacity never drops below one byte.  Queued requests that can no
        longer ever fit are rejected; if the granted leases now exceed
        capacity, an elastic pool shrinks them toward their floors first,
        then (elastic or not) the youngest granted leases are revoked until
        the pool fits again.  Returns the bytes actually removed.
        """
        if nbytes <= 0:
            raise FabricError("lose_capacity requires nbytes > 0")
        lost = min(int(nbytes), self.capacity_bytes - 1)
        if lost <= 0:
            return 0
        self.capacity_bytes -= lost
        metrics().counter("fabric.pool.capacity_lost_bytes").inc(lost)
        for lease in list(self._queue):
            if lease.nbytes > self.capacity_bytes:
                self._queue.remove(lease)
                lease.state = LEASE_REJECTED
                metrics().counter("fabric.pool.rejected").inc()
        while self.leased_bytes > self.capacity_bytes:
            over = self.leased_bytes - self.capacity_bytes
            if self.elastic and self._reclaim(over, time) > 0:
                continue
            active = [l for l in self._leases if l.active]
            if not active:  # pragma: no cover - leased>capacity implies active
                break
            self.revoke(max(active, key=lambda l: l.lease_id), time)
        return lost

    def consume_reclaims(self) -> tuple[ReclaimRecord, ...]:
        """Drain the reclaim log (destructive — each record is returned once).

        The co-simulator calls this after every pool mutation and converts
        each record into migration debt for the named tenant; draining
        destructively is what makes the migration cost charge exactly once.
        """
        records = tuple(self._reclaims)
        self._reclaims.clear()
        return records

    def describe(self) -> dict:
        """Summary of the pool state."""
        return {
            "name": self.name,
            "capacity_bytes": self.capacity_bytes,
            "leased_bytes": self.leased_bytes,
            "free_bytes": self.free_bytes,
            "utilization": self.utilization,
            "queue_depth": self.queue_depth,
            "active_leases": len(self.active_leases),
        }
