#!/usr/bin/env python3
"""Chaos-testing the fabric: fault injection, elastic leases, blast radius.

The rack co-simulation of :mod:`repro.fabric` (a rack is a 1-rack
:class:`ClusterCoSimulator`) is deterministic all the way down, and that
includes its failures: a :class:`FaultSchedule` fires port
kills, degradations, lease revocations and capacity loss at exact simulated
times, elastic pools shrink running tenants to admit newcomers at a modeled
page-give-back migration cost, and every run summarises the damage as a
:class:`BlastRadiusReport`.  The full failure model is documented in
``docs/failure_model.md``.

Four parts:

1. an explicit port-kill schedule — the blast radius vs the clean baseline;
2. a lease revocation — migration drain, stall and re-admission latency;
3. elastic overcommit — a newcomer admitted by shrinking a running tenant;
4. seeded chaos — same seed, same faults, bit-identical reports — and the
   checkpoint/rollback contract around pending vs applied faults.

Run with::

    python examples/fabric_chaos.py
"""

from __future__ import annotations

from repro.config.errors import FabricError
from repro.fabric import (
    ClusterCoSimulator,
    ClusterFabric,
    FaultEvent,
    FaultSchedule,
    TenantSpec,
    uniform_tenants,
)
from repro.workloads import build_workload


def one_rack(tenants, pool_bytes=None, **kwargs) -> ClusterCoSimulator:
    """A rack with a node per tenant and a pool of exactly their leases (or
    ``pool_bytes``): a 1-rack cluster."""
    return ClusterCoSimulator(
        ClusterFabric(n_racks=1, nodes_per_rack=len(tenants)),
        rack_pool_bytes=pool_bytes or sum(t.lease_bytes for t in tenants),
        **kwargs,
    )


def on_rack(tenants):
    return [(0, tenant) for tenant in tenants]


def port_kill_blast_radius() -> None:
    print("=== 1. Port kill: blast radius vs clean baseline ===")
    spec = build_workload("XSBench", 1.0)
    tenants = uniform_tenants(spec, 2, local_fraction=0.5)
    baseline = one_rack(tenants, seed=0).run_to_completion(on_rack(tenants))

    chaos = one_rack(tenants, seed=0)
    chaos.inject_faults(
        FaultSchedule(
            (FaultEvent(time=5.0, kind="port-kill", port=0, duration=2.0),)
        )
    )
    result = chaos.run_to_completion(on_rack(tenants))
    report = chaos.blast_radius()
    print(f"  makespan: clean {baseline['makespan']:.2f} s -> "
          f"faulted {result['makespan']:.2f} s")
    print(f"  stalled tenants: {report.stalled_tenants}")
    print(f"  total stall: {report.total_stall_seconds:.1f} s "
          f"(= kill window x {len(report.stalled_tenants)} tenants on the dead port)\n")


def lease_revocation() -> None:
    print("=== 2. Lease revocation: migration drain + re-admission ===")
    spec = build_workload("XSBench", 1.0)
    tenants = uniform_tenants(spec, 2, local_fraction=0.5)
    sim = one_rack(tenants, seed=0)
    # Revoke one tenant's lease at t=5; its 2 GB drain back at 1 GB/s.
    sim.inject_faults(
        FaultSchedule((FaultEvent(time=5.0, kind="lease-revoke", tenant="XSBench-1"),)),
        drain_bytes_per_s=1e9,
    )
    sim.run_to_completion(on_rack(tenants))
    report = sim.blast_radius()
    impact = {t.name: t for t in report.tenants}["XSBench-1"]
    print(f"  migrated: {impact.migrated_bytes / 1e9:.1f} GB, "
          f"stall {impact.stall_seconds:.1f} s, "
          f"re-admission latency {impact.readmission_latency:.1f} s")
    print("  The un-revoked co-tenant is untouched: "
          f"{ {t.name: t.stall_seconds for t in report.tenants} }\n")


def elastic_overcommit() -> None:
    print("=== 3. Elastic overcommit: admit by shrinking (floors + drain cost) ===")
    spec = build_workload("XSBench", 1.0)
    # Two 2 GB leases against a 3 GB elastic pool: the second arrival fits
    # only because the first tenant is shrunk to its 50% floor (1 GB), and
    # that give-back is charged to the first tenant as a migration stall.
    tenants = uniform_tenants(spec, 2, local_fraction=0.5, stagger=5.0)
    lease = tenants[0].lease_bytes
    sim = one_rack(tenants, pool_bytes=int(1.5 * lease), seed=0, overcommit=True)
    result = sim.run_to_completion(on_rack(tenants))
    report = sim.blast_radius()
    shrunk = {t.name: t for t in report.tenants}["XSBench-0"]
    print(f"  pool {result['pool_capacity_gb']:.1f} GB, leases 2 x {lease / 1e9:.1f} GB")
    print(f"  XSBench-0 gave back {shrunk.migrated_bytes / 1e9:.1f} GB "
          f"and stalled {shrunk.stall_seconds:.3f} s while its pages drained")
    print(f"  both finished: { {t['name']: t['lease_state'] for t in result['tenants']} }\n")


def seeded_chaos_and_rollback() -> None:
    print("=== 4. Seeded chaos is replayable; rollback respects applied faults ===")
    spec = build_workload("XSBench", 1.0)

    def run_once():
        tenants = uniform_tenants(spec, 2, local_fraction=0.5)
        sim = one_rack(tenants, seed=0)
        sim.inject_faults(
            FaultSchedule.seeded(
                seed=7, horizon=20.0, n_events=4,
                kinds=("port-kill", "port-degrade"), n_ports=1,
            )
        )
        return sim.run_to_completion(on_rack(tenants))["faults"]

    a, b = run_once(), run_once()
    print(f"  seeded run twice, identical reports: {a == b} "
          f"({a['faults_injected']} faults, {a['total_stall_seconds']:.2f} s stall)")

    # Checkpoints tolerate *pending* faults but refuse to cross *applied* ones.
    jobs = [TenantSpec(name=f"job-{i}", workload=spec, local_fraction=0.5) for i in range(2)]
    sim = one_rack(jobs, epoch_seconds=1.0)
    for job in jobs:
        sim.admit(0, job)
    sim.inject_faults(
        FaultSchedule((FaultEvent(time=10.0, kind="port-kill", port=0, duration=2.0),))
    )
    sim.step(5.0)
    checkpoint = sim.checkpoint()   # fault at t=10 still pending: legal
    sim.step(3.0)
    sim.rollover(checkpoint)        # bit-identical replay up to t=8
    sim.step(7.0)                   # crosses t=10 -> the fault is now applied
    try:
        sim.rollover(checkpoint)
    except FabricError as exc:
        print(f"  rollback across an applied fault refused: {str(exc)[:60]}...")


def main() -> int:
    port_kill_blast_radius()
    lease_revocation()
    elastic_overcommit()
    seeded_chaos_and_rollback()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
