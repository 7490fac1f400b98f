"""Deterministic fault injection for the rack/cluster co-simulation.

The paper models the disaggregated pool as a steady-state system; this module
is the chaos layer that stresses it: pool ports die or
degrade mid-run, leases are revoked or shrunk while their tenants execute,
and whole slabs of pool capacity disappear.  Faults are *data*, not
callbacks — a :class:`FaultSchedule` is a sorted tuple of
:class:`FaultEvent` values at simulated times, injected once into a
:class:`~repro.fabric.cluster.ClusterCoSimulator` (one rack or many) before
stepping begins.  A cluster's racks share one fault feed: a port or pool-capacity event acts on
the rack it names, and a lease event on the rack hosting its tenant when it
fires.

**Determinism contract.**  A schedule is fully materialised at construction
time: :meth:`FaultSchedule.seeded` draws every event from one
``numpy.random.default_rng(seed)`` up front, so the same seed always yields
the same events, and simulations driven by equal schedules are bit-identical
regardless of step sizes (the simulator sub-steps exactly at fault times).
There is no separate fault-free path: every chunk runs the same fault
bookkeeping, which charges nothing when nothing failed, so an **empty**
schedule leaves every output bit-identical to a simulator that never heard
of faults.

**Recovery contract** (what survives, what re-queues):

* Port kills/degrades persist until a matching ``port-restore`` event (the
  ``duration`` shorthand expands into one); tenants behind a killed port
  stall — they hold their lease and their epoch state but make no progress.
* A revoked lease is re-requested automatically at the next epoch rollover;
  the re-request joins the **back** of the pool's FIFO queue (no priority for
  victims), and the tenant stalls until re-granted.  Page give-back and
  re-fill are modelled as a migration debt (``reclaimed bytes / drain rate``
  seconds) paid as stall time before the tenant progresses again.
* Shrunk leases keep running with the smaller grant; only the migration debt
  of the reclaimed bytes is charged.
* :meth:`~repro.fabric.cluster.ClusterCoSimulator.checkpoint` /
  :meth:`~repro.fabric.cluster.ClusterCoSimulator.rollover` remain bit-identical
  while faults are merely *pending*; rolling back across an *applied* fault
  raises, because fault application mutates pool/lease state the checkpoint
  does not capture (same contract as admit/withdraw).

See ``docs/failure_model.md`` for the full taxonomy, units and a worked
blast-radius example.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from ..config.errors import FabricError
from ..config.units import GiB

#: Fault event kinds (the taxonomy; parameters per kind are validated by
#: :class:`FaultEvent`).
FAULT_PORT_KILL = "port-kill"
FAULT_PORT_DEGRADE = "port-degrade"
FAULT_PORT_RESTORE = "port-restore"
FAULT_LEASE_REVOKE = "lease-revoke"
FAULT_LEASE_SHRINK = "lease-shrink"
FAULT_POOL_CAPACITY_LOSS = "pool-capacity-loss"

FAULT_KINDS = (
    FAULT_PORT_KILL,
    FAULT_PORT_DEGRADE,
    FAULT_PORT_RESTORE,
    FAULT_LEASE_REVOKE,
    FAULT_LEASE_SHRINK,
    FAULT_POOL_CAPACITY_LOSS,
)

_PORT_KINDS = (FAULT_PORT_KILL, FAULT_PORT_DEGRADE, FAULT_PORT_RESTORE)
_LEASE_KINDS = (FAULT_LEASE_REVOKE, FAULT_LEASE_SHRINK)

#: Default page-give-back drain rate: reclaimed lease bytes migrate back at
#: 4 GB/s, charged against the victim tenant's progress as stall time.
DEFAULT_DRAIN_BYTES_PER_S = 4e9


@dataclass(frozen=True)
class FaultEvent:
    """One fault at a simulated time.

    Attributes
    ----------
    time:
        Simulated seconds at which the fault fires (>= 0).
    kind:
        One of :data:`FAULT_KINDS`.
    rack:
        Rack index the fault targets (the default 0 matches a standalone
        rack); in a cluster a lease event acts on the rack its tenant runs
        on when it fires.
    port:
        Pool-port index, required by the ``port-*`` kinds.
    tenant:
        Tenant name, required by the ``lease-*`` kinds.  Events naming a
        tenant the simulator does not know (never admitted, already
        withdrawn) apply as no-ops — chaos schedules may outlive tenants.
    scale:
        Residual capacity fraction in ``(0, 1)`` for ``port-degrade``.
    nbytes:
        Bytes to reclaim (``lease-shrink``) or remove (``pool-capacity-loss``).
    duration:
        Optional shorthand on ``port-kill`` / ``port-degrade``: the schedule
        expands it into a paired ``port-restore`` at ``time + duration``.
    """

    time: float
    kind: str
    rack: int = 0
    port: Optional[int] = None
    tenant: Optional[str] = None
    scale: Optional[float] = None
    nbytes: Optional[int] = None
    duration: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FabricError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if self.time < 0:
            raise FabricError("fault time must be >= 0")
        if self.rack < 0:
            raise FabricError("fault rack must be >= 0")
        if self.kind in _PORT_KINDS:
            if self.port is None or self.port < 0:
                raise FabricError(f"{self.kind} requires a port index >= 0")
        if self.kind in _LEASE_KINDS and not self.tenant:
            raise FabricError(f"{self.kind} requires a tenant name")
        if self.kind == FAULT_PORT_DEGRADE:
            if self.scale is None or not 0.0 < self.scale < 1.0:
                raise FabricError("port-degrade requires scale in (0, 1)")
        if self.kind in (FAULT_LEASE_SHRINK, FAULT_POOL_CAPACITY_LOSS):
            if self.nbytes is None or self.nbytes <= 0:
                raise FabricError(f"{self.kind} requires nbytes > 0")
        if self.duration is not None:
            if self.kind not in (FAULT_PORT_KILL, FAULT_PORT_DEGRADE):
                raise FabricError("duration is only valid on port-kill/port-degrade")
            if self.duration <= 0:
                raise FabricError("fault duration must be > 0")


class FaultSchedule:
    """An immutable, time-sorted fault schedule.

    Construction normalises the events: ``duration`` shorthands expand into
    explicit ``port-restore`` events, and the result is sorted by time
    (stable, so same-time events keep their given order).  Once built the
    schedule is pure data — injecting it into a simulator never mutates it,
    so one schedule can drive many simulators.
    """

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        expanded: list[FaultEvent] = []
        for event in events:
            if not isinstance(event, FaultEvent):
                raise FabricError(f"not a FaultEvent: {event!r}")
            if event.duration is not None:
                expanded.append(replace(event, duration=None))
                expanded.append(
                    FaultEvent(
                        time=event.time + event.duration,
                        kind=FAULT_PORT_RESTORE,
                        rack=event.rack,
                        port=event.port,
                    )
                )
            else:
                expanded.append(event)
        self.events: tuple[FaultEvent, ...] = tuple(
            sorted(expanded, key=lambda e: e.time)
        )

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultSchedule) and self.events == other.events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultSchedule({len(self.events)} events)"

    @classmethod
    def seeded(
        cls,
        seed: int,
        horizon: float,
        n_events: int = 4,
        kinds: Sequence[str] = (FAULT_PORT_KILL, FAULT_PORT_DEGRADE),
        n_racks: int = 1,
        n_ports: int = 1,
        tenants: Sequence[str] = (),
        nbytes: Optional[int] = None,
        mean_duration: Optional[float] = None,
    ) -> "FaultSchedule":
        """A stochastic schedule, fully materialised from one seed.

        Draws ``n_events`` events uniformly over ``[0, horizon)`` from
        ``numpy.random.default_rng(seed)`` — every draw happens here, so the
        schedule (and any simulation it drives) is a pure function of the
        arguments.  ``kinds`` restricts the taxonomy; lease kinds need a
        non-empty ``tenants`` list to pick victims from, and
        ``lease-shrink`` / ``pool-capacity-loss`` need ``nbytes``.  With
        ``mean_duration`` set, port kills/degrades heal after a random
        duration in ``[0.5, 1.5) × mean_duration``.
        """
        if horizon <= 0:
            raise FabricError("seeded schedule horizon must be > 0")
        if n_events < 0:
            raise FabricError("n_events must be >= 0")
        for kind in kinds:
            if kind in _LEASE_KINDS and not tenants:
                raise FabricError(f"seeded {kind} events require a tenants list")
            if kind in (FAULT_LEASE_SHRINK, FAULT_POOL_CAPACITY_LOSS) and not nbytes:
                raise FabricError(f"seeded {kind} events require nbytes")
        rng = np.random.default_rng(seed)
        events = []
        for time in np.sort(rng.uniform(0.0, horizon, size=n_events)):
            kind = kinds[int(rng.integers(0, len(kinds)))]
            duration = None
            if mean_duration is not None and kind in (
                FAULT_PORT_KILL,
                FAULT_PORT_DEGRADE,
            ):
                duration = float(rng.uniform(0.5, 1.5)) * mean_duration
            events.append(
                FaultEvent(
                    time=float(time),
                    kind=kind,
                    rack=int(rng.integers(0, n_racks)),
                    port=(
                        int(rng.integers(0, n_ports)) if kind in _PORT_KINDS else None
                    ),
                    tenant=(
                        str(tenants[int(rng.integers(0, len(tenants)))])
                        if kind in _LEASE_KINDS
                        else None
                    ),
                    scale=(
                        float(rng.uniform(0.1, 0.9))
                        if kind == FAULT_PORT_DEGRADE
                        else None
                    ),
                    nbytes=(
                        int(nbytes)
                        if kind in (FAULT_LEASE_SHRINK, FAULT_POOL_CAPACITY_LOSS)
                        else None
                    ),
                    duration=duration,
                )
            )
        return cls(events)


def parse_fault_spec(spec: str) -> FaultEvent:
    """Parse a CLI fault spec ``KIND@TIME[:key=value,key=value...]``.

    Keys: ``rack``, ``port`` (int), ``scale``, ``duration`` (float), ``gb``
    (GiB, converted to ``nbytes`` — same unit as ``--pool-gb``), ``tenant``
    (string).  Examples::

        port-kill@5:port=0,duration=10
        port-degrade@3:port=1,scale=0.5
        lease-revoke@8:tenant=XSBench-1
        pool-capacity-loss@4:gb=2
    """
    head, sep, tail = spec.partition(":")
    kind, at, time_text = head.partition("@")
    if not at:
        raise FabricError(
            f"bad fault spec {spec!r}: expected KIND@TIME[:key=value,...]"
        )
    try:
        kwargs: dict = {"time": float(time_text), "kind": kind.strip()}
    except ValueError:
        raise FabricError(f"bad fault spec {spec!r}: time {time_text!r} is not a number")
    if not math.isfinite(kwargs["time"]):
        # nan slips past the `time < 0` check (all comparisons are False);
        # reject it here so schedules stay sortable.
        raise FabricError(f"bad fault spec {spec!r}: time {time_text!r} is not finite")
    if sep:
        for item in tail.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or not value:
                raise FabricError(f"bad fault spec {spec!r}: malformed {item!r}")
            try:
                if key in ("rack", "port"):
                    kwargs[key] = int(value)
                elif key in ("scale", "duration"):
                    kwargs[key] = float(value)
                    if not math.isfinite(kwargs[key]):
                        raise FabricError(
                            f"bad fault spec {spec!r}: {key} {value!r} is not finite"
                        )
                elif key == "gb":
                    kwargs["nbytes"] = int(float(value) * GiB)
                elif key == "tenant":
                    kwargs["tenant"] = value.strip()
                else:
                    raise FabricError(
                        f"bad fault spec {spec!r}: unknown key {key!r}"
                    )
            except ValueError:
                raise FabricError(f"bad fault spec {spec!r}: bad value {item!r}")
    return FaultEvent(**kwargs)


@dataclass(frozen=True)
class TenantImpact:
    """One tenant's share of a fault's blast radius.

    ``stall_seconds`` counts wall time the tenant was fault-stalled (killed
    port, awaiting re-admission, or paying migration debt);
    ``throughput_lost`` expresses the same stalls in baseline seconds at the
    idle progress rate of 1 baseline-s/s — an upper bound on the work the
    stalls cost, since a contended tenant progresses slower than idle.
    ``readmission_latency`` is ``None`` until a revoked tenant's re-request
    is granted again.
    """

    name: str
    stall_seconds: float
    revocations: int
    readmission_latency: Optional[float]
    migrated_bytes: int
    throughput_lost: float

    @property
    def stalled(self) -> bool:
        return self.stall_seconds > 0.0


@dataclass(frozen=True)
class BlastRadiusReport:
    """Aggregate damage assessment of a faulted co-simulation.

    Built by :meth:`~repro.fabric.cluster.ClusterCoSimulator.blast_radius`
    after stepping; the per-tenant impacts are sorted by tenant name so
    equal simulations produce equal reports.
    """

    faults_injected: int
    revocations: int
    tenants: tuple[TenantImpact, ...]

    @property
    def stalled_tenants(self) -> tuple[str, ...]:
        """Names of the tenants that lost any time to faults."""
        return tuple(i.name for i in self.tenants if i.stalled)

    @property
    def total_stall_seconds(self) -> float:
        return sum(i.stall_seconds for i in self.tenants)

    @property
    def total_migrated_bytes(self) -> int:
        return sum(i.migrated_bytes for i in self.tenants)

    def summary(self) -> dict:
        """JSON-friendly view (the CLI and figure builders print this)."""
        return {
            "faults_injected": self.faults_injected,
            "revocations": self.revocations,
            "stalled_tenants": list(self.stalled_tenants),
            "total_stall_seconds": self.total_stall_seconds,
            "total_migrated_gb": self.total_migrated_bytes / 1e9,
            "tenants": [
                {
                    "name": i.name,
                    "stall_seconds": i.stall_seconds,
                    "revocations": i.revocations,
                    "readmission_latency_s": i.readmission_latency,
                    "migrated_gb": i.migrated_bytes / 1e9,
                    "throughput_lost_baseline_s": i.throughput_lost,
                }
                for i in self.tenants
            ],
        }
