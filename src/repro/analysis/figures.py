"""Figure builders: regenerate the data series behind every figure of the paper.

Each function returns plain Python/NumPy data structures (dictionaries of
series) rather than rendering plots, so the benchmarks can print the same
rows/series the paper reports and users can plot them with any tool.  The
mapping from figure number to builder is listed in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from ..casestudies.bfs_placement import BFSPlacementCaseStudy
from ..casestudies.scheduling import SchedulingCaseStudy
from ..data.top500 import memory_evolution
from ..fabric import (
    ClusterCoSimulator,
    ClusterFabric,
    FaultSchedule,
    parse_fault_spec,
    uniform_tenants,
)
from ..models.roofline import RooflinePoint, roofline_series
from ..profiler.level1 import Level1Profiler
from ..profiler.level2 import Level2Profiler
from ..profiler.level3 import Level3Profiler
from ..sim.platform import Platform
from ..workloads.lbench import LBench
from ..workloads.registry import all_models, build_all, get_model


def figure1_memory_evolution() -> dict:
    """Figure 1: evolution of memory capacity/bandwidth of top supercomputers."""
    points = memory_evolution()
    return {
        "years": [p.year for p in points],
        "systems": [p.system for p in points],
        "memory_gb_per_node": [p.memory_gb_per_node for p in points],
        "bandwidth_gbs_per_node": [p.memory_bandwidth_gbs_per_node for p in points],
        "bandwidth_per_core_gbs": [p.bandwidth_per_core_gbs for p in points],
        "capacity_per_core_gb": [p.capacity_per_core_gb for p in points],
    }


def figure5_roofline(scale: float = 1.0, seed: int = 0) -> dict:
    """Figure 5: roofline with the per-phase AI/throughput of every workload."""
    profiler = Level1Profiler(seed=seed)
    points: list[RooflinePoint] = []
    for spec in build_all(scale):
        profile = profiler.profile(spec)
        for label, intensity, gflops in profile.phase_points():
            points.append(RooflinePoint(label=label, arithmetic_intensity=intensity, gflops=gflops))
    return roofline_series(points)


def figure6_scaling_curves(seed: int = 0, n_points: int = 101) -> dict:
    """Figure 6: bandwidth-capacity scaling curves, 6 workloads x 3 input scales."""
    profiler = Level1Profiler(seed=seed)
    panels = {}
    for model in all_models():
        curves = profiler.scaling_curves(model.inputs())
        panels[model.name] = {
            label: {
                "footprint_pct": curve.footprint_pct,
                "access_pct": curve.access_pct,
                "skewness": curve.skewness,
            }
            for label, curve in curves.items()
        }
    return panels


def figure7_prefetch_timeline(
    workloads: Sequence[str] = ("NekRS", "HPL", "XSBench"),
    scale: float = 1.0,
    steps_per_phase: int = 40,
    seed: int = 0,
) -> dict:
    """Figure 7: L2 cacheline timeline with and without prefetching."""
    profiler = Level1Profiler(seed=seed)
    panels = {}
    for name in workloads:
        spec = get_model(name).build(scale)
        timelines = profiler.prefetch_timeline(spec, steps_per_phase=steps_per_phase)
        panels[name] = {
            label: {"time": times, "l2_lines": lines}
            for label, (times, lines) in timelines.items()
        }
    return panels


def figure8_prefetch_metrics(scale: float = 1.0, seed: int = 0) -> dict:
    """Figure 8: prefetch accuracy, coverage, excess traffic and performance gain."""
    profiler = Level1Profiler(seed=seed)
    rows = {}
    for spec in build_all(scale):
        report = profiler.profile(spec).prefetch
        rows[spec.name] = {
            "accuracy": report.accuracy,
            "coverage": report.coverage,
            "excess_traffic": report.excess_traffic,
            "performance_gain": report.performance_gain,
        }
    return rows


def figure9_tier_access(
    local_fractions: Sequence[float] = (0.75, 0.50, 0.25),
    scale: float = 1.0,
    seed: int = 0,
) -> dict:
    """Figure 9: remote access ratio per phase on the three capacity-ratio systems."""
    profiler = Level2Profiler(seed=seed)
    panels = {}
    for fraction in local_fractions:
        label = f"{int(round(fraction * 100))}-{int(round((1 - fraction) * 100))}"
        rows = []
        capacity_ratio = None
        bandwidth_ratio = None
        for spec in build_all(scale):
            platform = Platform.pooled(spec.footprint_bytes, fraction)
            profile = profiler.profile(spec, platform)
            capacity_ratio = profile.remote_capacity_ratio
            bandwidth_ratio = profile.remote_bandwidth_ratio
            for phase in profile.phases:
                rows.append(
                    {
                        "label": phase.label,
                        "remote_access_ratio": phase.remote_access_ratio,
                        "arithmetic_intensity": phase.arithmetic_intensity,
                    }
                )
        panels[label] = {
            "capacity_ratio": capacity_ratio,
            "bandwidth_ratio": bandwidth_ratio,
            "phases": rows,
        }
    return panels


def figure10_sensitivity(
    local_fractions: Sequence[float] = (0.75, 0.50, 0.25),
    loi_levels: Sequence[float] = (0.0, 10.0, 20.0, 30.0, 40.0, 50.0),
    scale: float = 1.0,
    seed: int = 0,
) -> dict:
    """Figure 10: relative performance under interference on the three systems."""
    profiler = Level3Profiler(seed=seed)
    panels = {}
    for fraction in local_fractions:
        label = f"{int(round(fraction * 100))}-{int(round((1 - fraction) * 100))}"
        rows = {}
        for spec in build_all(scale):
            platform = Platform.pooled(spec.footprint_bytes, fraction)
            curve = profiler.sensitivity(spec, platform, loi_levels)
            rows[spec.name] = {
                "loi": list(curve.loi_levels),
                "relative_performance": list(curve.relative_performance),
                "max_loss": curve.max_performance_loss,
            }
        panels[label] = rows
    return panels


def figure11_lbench(
    scale: float = 1.0,
    seed: int = 0,
    intensities: Sequence[float] = (10, 20, 30, 40, 50),
    background_flops: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128),
    local_fraction: float = 0.50,
) -> dict:
    """Figure 11: LBench validation and per-application interference coefficients.

    Left panel: measured LoI versus configured intensity (1 and 2 threads).
    Middle panel: interference coefficient and PCM traffic versus the
    background kernel intensity.  Right panel: IC per application on the 50%
    pooling setup.
    """
    lbench = LBench()
    left = {
        f"{threads}-threads": [
            {"configured": intensity, "measured": m.loi}
            for intensity, m in zip(intensities, lbench.intensity_sweep(intensities, threads))
        ]
        for threads in (1, 2)
    }
    middle = lbench.contention_curve(list(background_flops))
    profiler = Level3Profiler(seed=seed)
    reports = profiler.interference_coefficients(build_all(scale), local_fraction)
    right = {
        name: {
            "interference_coefficient": report.interference_coefficient,
            "phase_coefficients": dict(report.phase_interference_coefficients),
        }
        for name, report in reports.items()
    }
    return {"loi_scaling": left, "contention_curve": middle, "application_ic": right,
            "loi_calibration": lbench.calibrate_loi(intensities)}


def figure12_bfs_case_study(
    scale: float = 1.0,
    pool_fractions: Sequence[float] = (0.50, 0.75),
    seed: int = 0,
    with_sensitivity: bool = True,
) -> dict:
    """Figure 12: the BFS data-placement optimisation case study."""
    study = BFSPlacementCaseStudy(scale=scale, seed=seed)
    result = study.run(pool_fractions=pool_fractions, with_sensitivity=with_sensitivity)
    summary = {
        "rows": result.summary_rows(),
        "speedups": {},
        "remote_reduction": {},
    }
    for pooled in pool_fractions:
        label = f"{int(round(pooled * 100))}%-pooled"
        summary["speedups"][label] = {
            "reordered": result.speedup(label, "reordered"),
            "optimized": result.speedup(label, "optimized"),
        }
        summary["remote_reduction"][label] = {
            "reordered": result.remote_access_reduction(label, "reordered"),
            "optimized": result.remote_access_reduction(label, "optimized"),
        }
    return summary


def fabric_scenario(
    workload: str = "Hypre",
    n_tenants: int = 4,
    scale: float = 1.0,
    local_fraction: float = 0.50,
    stagger: float = 0.0,
    pool_capacity_bytes: Optional[int] = None,
    n_ports: int = 1,
    port_capacity_scale: float = 1.0,
    epoch_seconds: Optional[float] = None,
    n_racks: Optional[int] = None,
    cluster_pool_bytes: Optional[int] = None,
    uplink_capacity_scale: float = 4.0,
    overcommit: bool = False,
    faults: Optional[FaultSchedule] = None,
    drain_bytes_per_s: Optional[float] = None,
    seed: int = 0,
) -> dict:
    """``n_tenants`` tenants of ``workload`` on each rack of an
    ``n_racks``-rack cluster, run to the end.

    The one fabric scenario behind ``repro-dmem fabric`` and both fabric
    figures.  Each rack pool holds ``pool_capacity_bytes``, by default
    exactly its leases (a byte for a tenant that leases none), and is
    elastic iff ``overcommit``; tenants that do not fit spill into a
    ``cluster_pool_bytes`` pool when one is given.  ``n_racks=None`` runs
    one rack and names only the output: tenants keep their plain names
    and the pool ``timeline`` is that rack's, where a cluster prefixes
    names ``rack<i>-`` and keys one timeline per ``rack<i>``.  Returns the
    ``summary``, the ``timeline`` and every finished tenant's
    ``tenant_background_loi``.
    """
    spec = get_model(workload).build(scale)
    tenants = uniform_tenants(spec, n_tenants, local_fraction=local_fraction, stagger=stagger)
    if pool_capacity_bytes is None:
        pool_capacity_bytes = sum(max(t.lease_bytes, 1) for t in tenants)
    fabric = ClusterFabric(
        n_racks=n_racks or 1,
        nodes_per_rack=n_tenants,
        n_ports=n_ports,
        port_capacity_scale=port_capacity_scale,
        uplink_capacity_scale=uplink_capacity_scale,
    )
    simulator = ClusterCoSimulator(
        fabric,
        rack_pool_bytes=pool_capacity_bytes,
        cluster_pool_bytes=cluster_pool_bytes,
        epoch_seconds=epoch_seconds,
        seed=seed,
        overcommit=overcommit,
    )
    if faults is not None:
        simulator.inject_faults(faults, drain_bytes_per_s=drain_bytes_per_s)
    summary = simulator.run_to_completion(
        [
            (r, t if n_racks is None else replace(t, name=f"rack{r}-{t.name}"))
            for r in range(fabric.n_racks)
            for t in tenants
        ]
    )
    if n_racks is None:
        timeline = simulator.rack_sim(0).telemetry.series()
    else:
        timeline = {
            f"rack{r}": sim.telemetry.series() for r, sim in enumerate(simulator.rack_sims)
        }
    # The closed loop withdraws a finished tenant; one that cannot run stays.
    stranded = simulator.tenant_states
    backgrounds = {}
    for row in summary["tenants"]:
        if row["name"] not in stranded:
            times, lois = simulator.interference_for(row["name"]).loi_timeline()
            backgrounds[row["name"]] = {"time": list(times), "loi": list(lois)}
    return {
        "timeline": timeline,
        "tenant_background_loi": backgrounds,
        "summary": summary,
    }


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
    """Pool-telemetry timeline of a rack co-simulation (fabric extension).

    Not a figure of the paper: it visualises the Section 7.2 extension the
    :mod:`repro.fabric` subsystem implements — leased pool capacity, admission
    queue depth and pool-port utilisation over time while ``n_tenants``
    instances of ``workload`` share one rack, plus each tenant's emergent
    background-interference timeline.

    With ``n_racks > 1`` the same view is produced per rack (``n_tenants``
    tenants in *every* rack, ``rack<i>-`` name prefixes), run through the
    same closed loop: each tenant is admitted at its arrival and returns its
    lease when it finishes.  ``timeline`` then maps rack labels to series.
    Tenants that do not fit their rack pool spill into a
    ``cluster_pool_bytes`` pool, on one rack too, and their spine
    contention shows up in their background-LoI timelines because the
    racks fold external offsets into the frozen backgrounds.
    """
    return fabric_scenario(
        workload=workload,
        n_tenants=n_tenants,
        scale=scale,
        local_fraction=local_fraction,
        stagger=stagger,
        pool_capacity_bytes=pool_capacity_bytes,
        n_ports=n_ports,
        n_racks=n_racks if n_racks > 1 else None,
        cluster_pool_bytes=cluster_pool_bytes,
        seed=seed,
    )


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
    """Blast radius of injected fabric faults (chaos study, fabric extension).

    Runs the same rack co-simulation as :func:`figure_fabric_pool_timeline`
    twice — once fault-free, once with a :class:`~repro.fabric.faults.
    FaultSchedule` — and reports the damage side by side: per-tenant stall
    seconds, revocations, re-admission latencies and migrated bytes
    (``blast_radius``), the faulted pool/port timeline, and the makespan and
    slowdown deltas against the clean baseline.  The baseline is the same
    scenario, ``overcommit`` included, without the faults, so an empty
    schedule moves nothing.  ``faults`` takes explicit
    :class:`~repro.fabric.faults.FaultEvent`\\ s (or CLI-style spec strings,
    see :func:`~repro.fabric.faults.parse_fault_spec`); alternatively
    ``fault_seed`` draws ``n_fault_events`` seeded stochastic port faults
    over the baseline makespan.  Both paths are fully deterministic given
    their arguments — see ``docs/failure_model.md``.
    """
    scenario = dict(
        workload=workload,
        n_tenants=n_tenants,
        scale=scale,
        local_fraction=local_fraction,
        stagger=stagger,
        pool_capacity_bytes=pool_capacity_bytes,
        n_ports=n_ports,
        overcommit=overcommit,
        seed=seed,
    )
    baseline = fabric_scenario(**scenario)["summary"]
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
    faulted = fabric_scenario(
        **scenario, faults=schedule, drain_bytes_per_s=drain_bytes_per_s
    )
    summary = faulted["summary"]
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
            "makespan": summary["makespan"],
            "mean_slowdown": summary["mean_slowdown"],
        },
        "makespan_delta": summary["makespan"] - baseline["makespan"],
        "blast_radius": summary.get("faults"),
        "timeline": faulted["timeline"],
        "summary": summary,
    }


def figure13_scheduling(
    scale: float = 1.0,
    n_runs: int = 100,
    local_fraction: float = 0.50,
    seed: int = 0,
    workloads: Optional[Sequence[str]] = None,
) -> dict:
    """Figure 13: execution-time distributions, random vs interference-aware."""
    study = SchedulingCaseStudy(local_fraction=local_fraction, n_runs=n_runs, seed=seed)
    specs = None
    if workloads is not None:
        specs = [get_model(name).build(scale) for name in workloads]
    else:
        specs = build_all(scale)
    result = study.run(specs)
    return {
        "per_workload": {r.workload: r.summary() for r in result.results},
        "mean_speedups": result.speedups(),
        "most_improved": result.most_improved(),
    }
