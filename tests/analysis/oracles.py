"""The three fabric scenario builders as they were before they shared one.

``repro-dmem fabric``, :func:`repro.analysis.figure_fabric_pool_timeline` and
:func:`repro.analysis.figure_blast_radius` once each built the fabric
scenario (N tenants of one workload on a rack, or on every rack of a
cluster) themselves.  Their bodies live on here, unchanged apart from
returning the CLI's output instead of printing it, as the reference the one
shared scenario is held to (``test_fabric_scenario.py``).  They had drifted
apart in four places, which the differential grid leaves out and which
``test_fabric_scenario.py`` pins one by one:

* the blast-radius baseline ran a rigid pool under ``overcommit``;
* the CLI sized a default elastic pool ``sum(lease_bytes)``, zero when every
  tenant runs node-locally;
* a cluster's racks defaulted to a ``1 << 62``-byte pool, a standalone rack
  to exactly its leases;
* ``fabric --cluster N --timeline`` printed no timeline.
"""

from __future__ import annotations

import argparse
from dataclasses import replace
from typing import Any, Optional, Sequence

from repro.config.units import gb_per_s, gib
from repro.fabric import (
    ClusterCoSimulator,
    ClusterFabric,
    FabricTopology,
    FaultSchedule,
    MemoryPool,
    RackCoSimulator,
    parse_fault_spec,
    uniform_tenants,
)
from repro.workloads.registry import build_workload, get_model


def cmd_fabric(args: argparse.Namespace) -> Any:
    """What ``repro-dmem fabric`` printed for ``args`` (before ``--json``)."""
    spec = build_workload(args.workload, args.scale)
    tenants = uniform_tenants(
        spec, args.tenants, local_fraction=args.local_fraction, stagger=args.stagger
    )
    schedule = (
        FaultSchedule(tuple(parse_fault_spec(s) for s in args.inject))
        if args.inject
        else None
    )
    drain = gb_per_s(args.drain_gbs)
    if args.cluster:
        fabric = ClusterFabric(
            n_racks=args.cluster,
            nodes_per_rack=args.tenants,
            n_ports=args.ports,
            port_capacity_scale=args.port_capacity_scale,
            uplink_capacity_scale=args.uplink_scale,
        )
        simulator = ClusterCoSimulator(
            fabric,
            rack_pool_bytes=(
                int(gib(args.pool_gb)) if args.pool_gb is not None else None
            ),
            cluster_pool_bytes=(
                int(gib(args.cluster_pool_gb)) if args.cluster_pool_gb else None
            ),
            epoch_seconds=args.epoch_seconds,
            seed=args.seed,
            overcommit=args.overcommit,
        )
        if schedule is not None:
            simulator.inject_faults(schedule, drain_bytes_per_s=drain)
        arrivals = [
            (rack, replace(tenant, name=f"rack{rack}-{tenant.name}"))
            for rack in range(args.cluster)
            for tenant in tenants
        ]
        return simulator.run_to_completion(arrivals)
    if args.pool_gb is not None:
        pool = MemoryPool(int(gib(args.pool_gb)), elastic=args.overcommit)
    elif args.overcommit:
        pool = MemoryPool(sum(t.lease_bytes for t in tenants), elastic=True)
    else:
        pool = None
    topology = FabricTopology(
        n_nodes=args.tenants,
        n_ports=args.ports,
        port_capacity_scale=args.port_capacity_scale,
    )
    simulator = RackCoSimulator(
        tenants,
        pool=pool,
        topology=topology,
        epoch_seconds=args.epoch_seconds,
        seed=args.seed,
    )
    if schedule is not None:
        simulator.inject_faults(schedule, drain_bytes_per_s=drain)
    result = simulator.run()
    output = result.summary()
    if args.timeline:
        output["timeline"] = result.telemetry.series()
    return output


def figure_fabric_pool_timeline(
    n_tenants: int = 4,
    workload: str = "Hypre",
    scale: float = 1.0,
    local_fraction: float = 0.50,
    pool_capacity_bytes: Optional[int] = None,
    n_ports: int = 1,
    stagger: float = 0.0,
    seed: int = 0,
    n_racks: int = 1,
    cluster_pool_bytes: Optional[int] = None,
) -> dict:
    """:func:`repro.analysis.figure_fabric_pool_timeline`, as it was."""
    spec = get_model(workload).build(scale)
    tenants = uniform_tenants(
        spec, n_tenants, local_fraction=local_fraction, stagger=stagger
    )
    if n_racks > 1:
        fabric = ClusterFabric(n_racks=n_racks, nodes_per_rack=n_tenants, n_ports=n_ports)
        simulator = ClusterCoSimulator(
            fabric,
            rack_pool_bytes=pool_capacity_bytes,
            cluster_pool_bytes=cluster_pool_bytes,
            seed=seed,
        )
        summary = simulator.run_to_completion(
            [
                (rack, replace(t, name=f"rack{rack}-{t.name}"))
                for rack in range(n_racks)
                for t in tenants
            ]
        )
        backgrounds = {}
        for tenant in summary["tenants"]:
            if tenant["lease_state"] == "granted":
                times, lois = simulator.interference_for(tenant["name"]).loi_timeline()
                backgrounds[tenant["name"]] = {"time": list(times), "loi": list(lois)}
        return {
            "timeline": {
                f"rack{rack}": sim.telemetry.series()
                for rack, sim in enumerate(simulator.rack_sims)
            },
            "tenant_background_loi": backgrounds,
            "summary": summary,
        }
    pool = (
        MemoryPool(pool_capacity_bytes) if pool_capacity_bytes is not None else None
    )
    topology = FabricTopology(n_nodes=n_tenants, n_ports=n_ports)
    result = RackCoSimulator(tenants, pool=pool, topology=topology, seed=seed).run()
    backgrounds = {}
    for outcome in result.finished_tenants:
        times, lois = result.interference_for(outcome.name).loi_timeline()
        backgrounds[outcome.name] = {"time": list(times), "loi": list(lois)}
    return {
        "timeline": result.telemetry.series(),
        "tenant_background_loi": backgrounds,
        "summary": result.summary(),
    }


def figure_blast_radius(
    n_tenants: int = 4,
    workload: str = "Hypre",
    scale: float = 1.0,
    local_fraction: float = 0.50,
    pool_capacity_bytes: Optional[int] = None,
    n_ports: int = 1,
    stagger: float = 0.0,
    seed: int = 0,
    faults: Optional[Sequence] = None,
    fault_seed: Optional[int] = None,
    n_fault_events: int = 4,
    drain_bytes_per_s: Optional[float] = None,
    overcommit: bool = False,
) -> dict:
    """:func:`repro.analysis.figure_blast_radius`, as it was."""
    spec = get_model(workload).build(scale)
    tenants = uniform_tenants(
        spec, n_tenants, local_fraction=local_fraction, stagger=stagger
    )

    def make_pool() -> Optional[MemoryPool]:
        if pool_capacity_bytes is None and not overcommit:
            return None
        capacity = (
            pool_capacity_bytes
            if pool_capacity_bytes is not None
            else sum(max(t.lease_bytes, 1) for t in tenants)
        )
        return MemoryPool(capacity, elastic=overcommit)

    def make_sim() -> RackCoSimulator:
        return RackCoSimulator(
            tenants,
            pool=make_pool(),
            topology=FabricTopology(n_nodes=n_tenants, n_ports=n_ports),
            seed=seed,
        )

    baseline = RackCoSimulator(
        tenants,
        pool=(
            MemoryPool(pool_capacity_bytes)
            if pool_capacity_bytes is not None
            else None
        ),
        topology=FabricTopology(n_nodes=n_tenants, n_ports=n_ports),
        seed=seed,
    ).run()

    if faults is not None:
        events = [
            parse_fault_spec(f) if isinstance(f, str) else f for f in faults
        ]
        schedule = FaultSchedule(events)
    elif fault_seed is not None:
        schedule = FaultSchedule.seeded(
            seed=fault_seed,
            horizon=baseline.makespan,
            n_events=n_fault_events,
            n_ports=n_ports,
        )
    else:
        schedule = FaultSchedule([])

    sim = make_sim()
    sim.inject_faults(schedule, drain_bytes_per_s=drain_bytes_per_s)
    faulted = sim.run()
    report = faulted.blast_radius
    return {
        "schedule": [
            {
                "time": e.time,
                "kind": e.kind,
                "port": e.port,
                "tenant": e.tenant,
                "scale": e.scale,
                "nbytes": e.nbytes,
            }
            for e in schedule.events
        ],
        "baseline": {
            "makespan": baseline.makespan,
            "mean_slowdown": baseline.mean_slowdown,
        },
        "faulted": {
            "makespan": faulted.makespan,
            "mean_slowdown": faulted.mean_slowdown,
        },
        "makespan_delta": faulted.makespan - baseline.makespan,
        "blast_radius": report.summary() if report is not None else None,
        "timeline": faulted.telemetry.series(),
        "summary": faulted.summary(),
    }
