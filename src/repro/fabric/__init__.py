"""Rack-scale shared memory-pool fabric co-simulation.

The fabric subsystem models racks of the paper's target architecture
(Figure 2): a shared :class:`MemoryPool` per rack with capacity leasing and
admission control, a :class:`FabricTopology` of per-node links feeding
shared pool ports, and one co-simulator that advances all tenants in epochs
so interference between them is emergent rather than injected.
:class:`DynamicInterference` carries the derived background timelines back
into the single-node execution engine.

:mod:`repro.fabric.cluster` composes racks into a :class:`ClusterFabric`
(uplinks + shared spine + hierarchical pools) stepped by a
:class:`ClusterCoSimulator`, the one public fabric simulator: a standalone
rack is a 1-rack cluster.  It runs its tenants to completion through one
closed loop, or is driven incrementally — admit/withdraw tenants, step
between external events, checkpoint and roll epochs back — which is how
:mod:`repro.scheduler.progress` puts the fabric in the scheduling loop.  The
units, epoch semantics and tenant↔job mapping of that coupling are
documented in :mod:`repro.fabric.cosim`, whose per-rack co-simulator the
cluster builds; the batched NumPy contention solver that makes it scale
lives in :mod:`repro.fabric.solver`.

Finally, :mod:`repro.fabric.faults` makes the whole stack chaos-testable: a
deterministic :class:`FaultSchedule` of port-kill / port-degrade /
lease-revoke / capacity-loss events injected into the co-simulator, elastic
(overcommitting) pools with modeled page give-back migration costs, and a
:class:`BlastRadiusReport` quantifying the damage.  The failure model —
units, determinism and recovery contracts — is documented in
``docs/failure_model.md``.
"""

from .cluster import (
    ClusterCheckpoint,
    ClusterCoSimulator,
    ClusterFabric,
    ClusterSolve,
)
from .cosim import (
    EpochCheckpoint,
    RackTelemetry,
    TenantOutcome,
    TenantSpec,
    uniform_tenants,
)
from .faults import (
    DEFAULT_DRAIN_BYTES_PER_S,
    FAULT_KINDS,
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
    parse_fault_spec,
)
from .interference import DynamicInterference
from .pool import (
    LEASE_GRANTED,
    LEASE_QUEUED,
    LEASE_REJECTED,
    LEASE_RELEASED,
    LEASE_REVOKED,
    Lease,
    MemoryPool,
    PoolSample,
    ReclaimRecord,
)
from .solver import FixedPointResult, solve_fixed_point
from .topology import FabricConvergenceWarning, FabricTopology, SolveDiagnostics

__all__ = [
    "FabricConvergenceWarning",
    "SolveDiagnostics",
    "ClusterCheckpoint",
    "ClusterCoSimulator",
    "ClusterFabric",
    "ClusterSolve",
    "FixedPointResult",
    "solve_fixed_point",
    "EpochCheckpoint",
    "RackTelemetry",
    "TenantOutcome",
    "TenantSpec",
    "uniform_tenants",
    "DynamicInterference",
    "BlastRadiusReport",
    "DEFAULT_DRAIN_BYTES_PER_S",
    "FAULT_KINDS",
    "FAULT_LEASE_REVOKE",
    "FAULT_LEASE_SHRINK",
    "FAULT_POOL_CAPACITY_LOSS",
    "FAULT_PORT_DEGRADE",
    "FAULT_PORT_KILL",
    "FAULT_PORT_RESTORE",
    "FaultEvent",
    "FaultSchedule",
    "TenantImpact",
    "parse_fault_spec",
    "LEASE_GRANTED",
    "LEASE_QUEUED",
    "LEASE_REJECTED",
    "LEASE_RELEASED",
    "LEASE_REVOKED",
    "Lease",
    "MemoryPool",
    "PoolSample",
    "ReclaimRecord",
    "FabricTopology",
]
