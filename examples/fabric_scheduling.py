#!/usr/bin/env python3
"""Co-simulation-in-the-loop scheduling: the fabric drives the scheduler.

The rack-scale :class:`ClusterSimulator` usually prices co-location with the
paper's static ``slowdown_at(LoI)`` curves.  This example couples it to the
:mod:`repro.fabric` co-simulation instead: every rack is a rack of one
incrementally-stepped :class:`ClusterCoSimulator`, each placed job becomes a
fabric tenant on its node, and job progress rates are the emergent per-epoch
rates the shared pool ports resolve.

Three parts:

1. the same job stream scheduled with static pricing and with the fabric in
   the loop — under pool-port contention the two schedules diverge;
2. a placement bake-off where :class:`FabricCoupledPlacement` reads the live
   co-simulated fabric instead of submission-time hints;
3. the epoch checkpoint/rollover API that makes incremental stepping safe for
   speculative schedulers.

This is also the worked example referenced by ``docs/architecture.md``.

Run with::

    python examples/fabric_scheduling.py
"""

from __future__ import annotations

from repro.casestudies.scheduling import CoupledSchedulingStudy
from repro.fabric import ClusterCoSimulator, ClusterFabric, TenantSpec
from repro.scheduler import (
    Cluster,
    ClusterSimulator,
    FabricCoupledPlacement,
    FabricCoupledProgress,
    RandomPlacement,
    fabric_job_profile,
)
from repro.workloads import build_workload


WORKLOADS = ("Hypre", "XSBench", "BFS")


def static_vs_coupled() -> None:
    print("=== 1. Static curves vs fabric-coupled progress (1 rack x 6 nodes) ===")
    study = CoupledSchedulingStudy(
        n_racks=1, nodes_per_rack=6, pool_capacity_gb=2048.0, seed=0
    )
    specs = [build_workload(name, 1.0) for name in WORKLOADS]
    result = study.run(specs=specs, copies=2)
    print(f"{'progress model':<16} {'makespan':>10} {'mean slowdown':>14} {'p75 slowdown':>13}")
    for label, outcome in (("static-curve", result.static), ("fabric-coupled", result.coupled)):
        print(
            f"{label:<16} {outcome.makespan:>9.1f}s {outcome.mean_slowdown:>14.3f} "
            f"{outcome.p75_slowdown:>13.3f}"
        )
    print(
        f"makespan delta {result.makespan_delta:+.1%}, largest per-job finish-time "
        f"shift {result.max_finish_time_shift:.1f} s\n"
        "The static proxy cannot see the contention the shared pool port\n"
        "resolves epoch by epoch; the coupled schedule can.\n"
    )


def placement_bakeoff() -> None:
    print("=== 2. Placement with live fabric state (3 racks x 2 nodes) ===")
    specs = {name: build_workload(name, 1.0) for name in WORKLOADS}
    profiles = [fabric_job_profile(spec, local_fraction=0.5) for spec in specs.values()]
    for policy_factory in (
        lambda progress: RandomPlacement(),
        lambda progress: FabricCoupledPlacement(progress=progress),
    ):
        progress = FabricCoupledProgress(workloads=specs, local_fraction=0.5)
        cluster = Cluster.build(n_racks=3, nodes_per_rack=2, pool_capacity_gb=2048.0)
        policy = policy_factory(progress)
        outcome = ClusterSimulator(cluster, policy, seed=7, progress=progress).run(profiles)
        print(
            f"  {policy.name:<16} mean slowdown {outcome.mean_slowdown:5.3f}   "
            f"p75 slowdown {outcome.p75_slowdown:5.3f}   makespan {outcome.makespan:6.1f} s"
        )
    print(
        "Both runs use fabric-coupled progress; only the placement differs.\n"
        "Random packs two jobs onto one rack's pool port; the fabric-coupled\n"
        "policy projects each candidate rack's port utilisation from the\n"
        "tenants' *current phases* and isolates all three.\n"
    )


def checkpoint_rollover() -> None:
    print("=== 3. Epoch checkpoint / rollover (speculative stepping) ===")
    spec = build_workload("Hypre", 1.0)
    sim = ClusterCoSimulator(
        ClusterFabric(n_racks=1, nodes_per_rack=2), epoch_seconds=1.0
    )
    for i in range(2):
        sim.admit(0, TenantSpec(name=f"job-{i}", workload=spec, local_fraction=0.5))
    sim.step(5.0)
    checkpoint = sim.checkpoint()
    speculative = sim.step(20.0)  # step past an estimated completion ...
    sim.rollover(checkpoint)      # ... an earlier arrival invalidated it
    replay = sim.step(20.0)
    identical = all(
        speculative[name] == replay[name] for name in speculative
    ) and sim.clock == checkpoint.clock + 20.0
    print(f"  speculative step == replayed step after rollover: {identical}")
    print(f"  progress rates now: "
          + ", ".join(f"{k}={v:.3f}" for k, v in sorted(sim.progress_rates().items())))


def main() -> int:
    static_vs_coupled()
    placement_bakeoff()
    checkpoint_rollover()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
