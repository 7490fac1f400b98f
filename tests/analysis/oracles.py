"""The three fabric scenario builders as they were before they shared one.

``repro-dmem fabric``, :func:`repro.analysis.figure_fabric_pool_timeline` and
:func:`repro.analysis.figure_blast_radius` once each built the fabric
scenario (N tenants of one workload on a rack, or on every rack of a
cluster) themselves.  Their bodies live on here, unchanged apart from
returning the CLI's output instead of printing it and from running a
standalone rack as the 1-rack cluster it now is, through the closed loop
its ``run()`` had (``fabric/oracles.py``'s ``rack_run_oracle``), as the
reference the one shared scenario is held to (``test_fabric_scenario.py``).
They had drifted apart in four places, which the differential grid leaves
out and which ``test_fabric_scenario.py`` pins one by one:

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

from fabric.oracles import rack_run_oracle
from fabric.racks import one_rack
from repro.config.units import gb_per_s, gib
from repro.fabric import (
    ClusterCoSimulator,
    ClusterFabric,
    FaultSchedule,
    parse_fault_spec,
    uniform_tenants,
)
from repro.workloads.registry import build_workload, get_model

#: The summary keys a cluster printed before it gained the rack's.
CLUSTER_KEYS = (
    "makespan", "mean_slowdown", "n_racks", "nodes_per_rack", "epoch_seconds",
    "spilled_tenants", "cluster_pool_gb", "tenants", "faults",
)
CLUSTER_ROW_KEYS = (
    "name", "rack", "node", "spilled", "lease_state", "wait_s", "runtime_s",
    "baseline_s", "slowdown",
)


def cluster_summary(summary: dict) -> dict:
    """A cluster's ``summary`` on the keys it printed before it gained the rack's."""
    printed = {key: summary[key] for key in CLUSTER_KEYS if key in summary}
    printed["tenants"] = [
        {key: row[key] for key in CLUSTER_ROW_KEYS} for row in summary["tenants"]
    ]
    return printed


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
        return cluster_summary(simulator.run_to_completion(arrivals))
    if args.pool_gb is not None:
        pool_bytes = int(gib(args.pool_gb))
    elif args.overcommit:
        pool_bytes = sum(t.lease_bytes for t in tenants)
    else:
        pool_bytes = None
    simulator = one_rack(
        tenants,
        pool_bytes=pool_bytes,
        n_ports=args.ports,
        port_capacity_scale=args.port_capacity_scale,
        epoch_seconds=args.epoch_seconds,
        seed=args.seed,
        overcommit=args.overcommit,
    )
    if schedule is not None:
        simulator.inject_faults(schedule, drain_bytes_per_s=drain)
    result = rack_run_oracle(simulator, tenants)
    output = result["summary"]
    if args.timeline:
        output["timeline"] = result["telemetry"]
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
        summary = cluster_summary(
            simulator.run_to_completion(
                [
                    (rack, replace(t, name=f"rack{rack}-{t.name}"))
                    for rack in range(n_racks)
                    for t in tenants
                ]
            )
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
    result = rack_run_oracle(
        one_rack(tenants, pool_bytes=pool_capacity_bytes, n_ports=n_ports, seed=seed),
        tenants,
    )
    backgrounds = {}
    for name, outcome in result["outcomes"].items():
        if outcome.finish_time is not None:
            times, lois = result["timelines"][name].loi_timeline()
            backgrounds[name] = {"time": list(times), "loi": list(lois)}
    return {
        "timeline": result["telemetry"],
        "tenant_background_loi": backgrounds,
        "summary": result["summary"],
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

    def make_sim(overcommit: bool) -> ClusterCoSimulator:
        return one_rack(
            tenants,
            pool_bytes=pool_capacity_bytes,
            n_ports=n_ports,
            seed=seed,
            overcommit=overcommit,
        )

    baseline = rack_run_oracle(make_sim(False), tenants)["summary"]

    if faults is not None:
        events = [
            parse_fault_spec(f) if isinstance(f, str) else f for f in faults
        ]
        schedule = FaultSchedule(events)
    elif fault_seed is not None:
        schedule = FaultSchedule.seeded(
            seed=fault_seed,
            horizon=baseline["makespan"],
            n_events=n_fault_events,
            n_ports=n_ports,
        )
    else:
        schedule = FaultSchedule([])

    sim = make_sim(overcommit)
    sim.inject_faults(schedule, drain_bytes_per_s=drain_bytes_per_s)
    result = rack_run_oracle(sim, tenants)
    faulted = result["summary"]
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
            "makespan": baseline["makespan"],
            "mean_slowdown": baseline["mean_slowdown"],
        },
        "faulted": {
            "makespan": faulted["makespan"],
            "mean_slowdown": faulted["mean_slowdown"],
        },
        "makespan_delta": faulted["makespan"] - baseline["makespan"],
        "blast_radius": faulted.get("faults"),
        "timeline": result["telemetry"],
        "summary": faulted,
    }
