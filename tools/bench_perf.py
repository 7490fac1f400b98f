#!/usr/bin/env python3
"""Repeatable perf harness behind the ``BENCH_cosim.json`` trajectory.

Times the hot paths every "made it faster" claim must be measured against,
and the overhead of the telemetry layer itself:

1. ``fabric_solver`` — :meth:`FabricTopology.resolve_detailed` under
   all-nodes-overloaded demand, at small/medium/large rack wirings;
2. ``rack_cosim_step`` — epoch stepping of one rack with co-located
   tenants, through the rack's own ``step`` (the rack of a 1-rack
   :class:`ClusterCoSimulator`);
3. ``cluster_events`` — :class:`ClusterSimulator` event throughput on a
   synthetic job stream (static progress, no fabric coupling), run once
   with telemetry disabled and once enabled so both overheads are recorded;
   full runs add the same stream at 4,000 and 40,000 jobs
   (``cluster_events.jobs4000`` / ``.jobs40000``) as a scaling series;
4. ``solver_vectorized`` — the 100-rack contention sweep through
   :meth:`ClusterFabric.resolve_all`, one batched NumPy solve;
5. ``cluster_fabric`` — epoch stepping of the whole-cluster
   :class:`ClusterCoSimulator` with tenants in every rack, plus
   ``cluster_fabric.closed_loop``: ``run_to_completion`` of a seeded 8-rack
   elastic cluster under port and lease faults, and
   ``cluster_fabric.trace_replay_coupled``: the committed ``sacct`` fixture
   replayed by the one scheduling study with the fabric coupled in, on 100
   racks under seeded port and lease faults;
6. ``fault_injection`` — what the fault bookkeeping costs a fault-free
   stepping loop (its ``extra.disabled_overhead_pct`` is the < 2%
   acceptance bound of ``docs/failure_model.md``) plus a seeded chaos
   scenario;
7. ``cluster_step_batched`` — cluster epoch stepping at 100 racks with
   every rack re-solved each epoch, all in one batched rollover;
8. ``sweep_sharded`` — a repeated-query parameter sweep executed through
   :class:`repro.parallel.SweepRunner` at 8 workers vs a naive serial loop
   over the same query stream (``extra.speedup_vs_serial`` records the
   ratio: the memo's saving net of starting 8 worker processes, on the
   ``cpu_count`` the document records);
9. ``trace_ingest`` — streaming ``sacct`` trace ingestion through
   :func:`repro.data.slurm.read_sacct` on a synthetic dump
   (``extra.rows_per_s`` is the recorded ingestion rate);
10. ``engine_profile_levels`` — the paper's three-level methodology through
    :class:`repro.sim.ExecutionEngine` on HPL and XSBench (full runs add a
    row with all six applications); ``extra`` counts the engine runs, the
    plans (placements), the dense ``page_weights`` draws behind them, the
    draws the profiler shared and the dense page counts the Level-1 curves
    sorted, and records the run's tracemalloc peak.

The emitted JSON validates against
:mod:`repro.telemetry.benchjson` (``--check FILE`` re-validates any existing
document, which is what CI's perf-smoke job and the regression test use),
and ``--compare BASELINE`` additionally diffs the fresh run against a
committed baseline document, exiting non-zero when a benchmark with an
identical config regressed past the threshold.  ``--quick`` shrinks repeat
counts and problem sizes for CI smoke runs — but keeps the configs of the
``fabric_solver``, ``solver_vectorized`` and ``cluster_fabric`` groups
identical to a full run (and so does ``engine_profile_levels``'s HPL +
XSBench row), so exactly those groups stay comparable across quick and full
documents.  The committed ``BENCH_cosim.json`` at the repository root is a
full run — one recorded point of the perf trajectory per PR.

Usage::

    python tools/bench_perf.py --out BENCH_cosim.json           # full run
    python tools/bench_perf.py --quick --out bench_quick.json   # CI smoke
    python tools/bench_perf.py --check BENCH_cosim.json         # validate only
    python tools/bench_perf.py --quick --compare BENCH_cosim.json
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import telemetry  # noqa: E402
from repro.config.units import GiB  # noqa: E402
from repro.fabric.cluster import ClusterCoSimulator, ClusterFabric  # noqa: E402
from repro.fabric.faults import FaultSchedule  # noqa: E402
from repro.fabric.topology import FabricTopology  # noqa: E402
from repro.fabric.cosim import TenantSpec, uniform_tenants  # noqa: E402
from repro.scheduler.cluster import Cluster  # noqa: E402
from repro.scheduler.job import JobProfile  # noqa: E402
from repro.scheduler.simulator import ClusterSimulator  # noqa: E402
from repro.telemetry.benchjson import (  # noqa: E402
    BENCH_SCHEMA,
    BENCH_SCHEMA_VERSION,
    DEFAULT_REGRESSION_THRESHOLD,
    compare_bench,
    validate_bench,
)
from repro.workloads.registry import build_workload  # noqa: E402

#: Rack wirings of the ``fabric_solver`` group: (label, nodes, ports).
RACK_WIRINGS = (("small", 4, 1), ("medium", 16, 2), ("large", 64, 4))

#: The 100-rack sweep of the ``solver_vectorized`` group (identical in quick
#: and full runs so the two document kinds compare on it).
SWEEP_RACKS = 100
SWEEP_NODES = 16
SWEEP_PORTS = 2


def _timeit(fn, repeats: int) -> dict:
    """Wall times of ``repeats`` calls: mean/min plus per-second throughput."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    mean = statistics.fmean(samples)
    return {
        "repeats": repeats,
        "mean_s": mean,
        "min_s": min(samples),
        "throughput_per_s": 1.0 / mean if mean > 0 else 0.0,
    }


def bench_fabric_solver(quick: bool) -> list[dict]:
    """Fixed-point contention solves, every node demanding its full link."""
    from repro.fabric.topology import FabricConvergenceWarning

    repeats = 10 if quick else 50
    rows = []
    for label, n_nodes, n_ports in RACK_WIRINGS:
        topology = FabricTopology(n_nodes=n_nodes, n_ports=n_ports)
        demands = {n: topology.testbed.remote_bandwidth for n in range(n_nodes)}
        # Full-link demand on every node deliberately includes oversubscribed
        # cases; whether the budget sufficed is recorded in ``extra``, so the
        # per-call warning is just noise here.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FabricConvergenceWarning)
            diag = topology.resolve_detailed(demands)
            timing = _timeit(lambda: topology.resolve_detailed(demands), repeats)
        rows.append(
            {
                "name": f"fabric_solver.{label}",
                "group": "fabric_solver",
                "config": {"n_nodes": n_nodes, "n_ports": n_ports},
                **timing,
                "extra": {
                    "iterations": diag.iterations,
                    "converged": diag.converged,
                    "residual_bytes_s": diag.residual,
                },
            }
        )
    return rows


def bench_rack_cosim_step(quick: bool) -> dict:
    """Epoch stepping of one rack with co-located identical tenants.

    The tenants are admitted to a 1-rack cluster with an unbounded pool,
    and the rack's own ``step`` (``rack_sim(0).step``) is timed, so the row
    times the per-rack stepping loop it always timed.
    """
    n_tenants = 4
    steps = 60 if quick else 300
    spec = build_workload("XSBench")
    tenants = uniform_tenants(spec, n_tenants, local_fraction=0.5)
    cluster = ClusterCoSimulator(ClusterFabric(n_racks=1, nodes_per_rack=n_tenants))
    for tenant in tenants:
        cluster.admit(0, tenant)
    sim = cluster.rack_sim(0)
    # Step one epoch at a time; the baseline is ~40 epochs long, so scale the
    # epoch down to keep every tenant running for the whole measurement.
    epoch = sim.baseline_runtime_of(tenants[0].name) / (steps * 4)
    start = time.perf_counter()
    for _ in range(steps):
        sim.step(epoch)
    wall = time.perf_counter() - start
    return {
        "name": "rack_cosim_step",
        "group": "rack_cosim_step",
        "config": {
            "n_tenants": n_tenants,
            "workload": spec.name,
            "steps": steps,
            "epoch_seconds": epoch,
        },
        "repeats": steps,
        "mean_s": wall / steps,
        "min_s": wall / steps,
        "throughput_per_s": steps / wall if wall > 0 else 0.0,
        "extra": {"wall_s": wall, "simulated_s": steps * epoch},
    }


def bench_solver_vectorized(quick: bool) -> dict:
    """Batched-NumPy cluster contention solving, 100-rack sweep.

    Every node demands its full link (the oversubscribed worst case), and
    all racks' demand maps are resolved in one :meth:`ClusterFabric.resolve_all`
    call.
    """
    from repro.fabric.topology import FabricConvergenceWarning

    repeats = 10 if quick else 30
    fabric = ClusterFabric(
        n_racks=SWEEP_RACKS, nodes_per_rack=SWEEP_NODES, n_ports=SWEEP_PORTS
    )
    bandwidth = fabric.testbed.remote_bandwidth
    demands = [
        {n: bandwidth for n in range(SWEEP_NODES)} for _ in range(SWEEP_RACKS)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FabricConvergenceWarning)
        solve = fabric.resolve_all(demands)
        timing = _timeit(lambda: fabric.resolve_all(demands), repeats)
    return {
        "name": "solver_vectorized.vectorized",
        "group": "solver_vectorized",
        "config": {
            "n_racks": SWEEP_RACKS,
            "nodes_per_rack": SWEEP_NODES,
            "n_ports": SWEEP_PORTS,
        },
        **timing,
        "extra": {
            "iterations": solve.iterations,
            "converged": solve.converged,
            "residual_bytes_s": solve.residual,
        },
    }


def bench_cluster_fabric(quick: bool) -> dict:
    """Epoch stepping of the whole-cluster co-simulator, tenants in every rack.

    The cluster wiring (racks, nodes, tenants) is identical in quick and full
    runs — only the number of timed steps differs — and the recorded
    ``mean_s`` is per cluster step, so quick and full documents are directly
    comparable on this group.
    """
    n_racks, nodes_per_rack, n_tenants = 6, 4, 4
    # The tenants finish after about 160 quarter-epoch steps; a full run
    # stops well before that so every step times running tenants.
    steps = 40 if quick else 120
    spec = build_workload("XSBench")
    fabric = ClusterFabric(n_racks=n_racks, nodes_per_rack=nodes_per_rack, n_ports=2)
    sim = ClusterCoSimulator(fabric, seed=0)
    tenants = uniform_tenants(spec, n_tenants, local_fraction=0.5)
    for rack in range(n_racks):
        for tenant in tenants:
            sim.admit(rack, replace(tenant, name=f"rack{rack}-{tenant.name}"))
    # Step one fraction of an epoch at a time, like the rack bench, so every
    # tenant stays running for the whole measurement.
    epoch = sim.epoch_seconds / 4
    # The first step and the epoch after it re-evaluate every tenant's
    # progress rate while its background settles, costing tens of steady
    # steps.  They stay untimed so quick and full per-step means compare.
    for _ in range(5):
        sim.step(epoch)
    start = time.perf_counter()
    for _ in range(steps):
        sim.step(epoch)
    wall = time.perf_counter() - start
    return {
        "name": "cluster_fabric",
        "group": "cluster_fabric",
        "config": {
            "n_racks": n_racks,
            "nodes_per_rack": nodes_per_rack,
            "n_tenants_per_rack": n_tenants,
            "workload": spec.name,
        },
        "repeats": steps,
        "mean_s": wall / steps,
        "min_s": wall / steps,
        "throughput_per_s": steps / wall if wall > 0 else 0.0,
        "extra": {
            "wall_s": wall,
            "steps": steps,
            "simulated_s": steps * epoch,
            "total_tenants": n_racks * n_tenants,
        },
    }


def stepping_counts(registry) -> dict:
    """The stepping work recorded in ``registry``: cluster steps,
    :meth:`RackCoSimulator.step_frozen` chunks, rollovers and re-solves."""
    return {
        "cluster_steps": int(registry.counter("fabric.cluster.step_calls").value),
        "step_frozen_chunks": int(registry.counter("fabric.cosim.step_calls").value),
        "epoch_rollovers": int(registry.counter("fabric.cosim.epoch_rollovers").value),
        "epoch_resolves": int(registry.counter("fabric.cosim.epoch_resolves").value),
    }


#: The ``cluster_fabric.closed_loop`` scenario: 8 elastic racks of 4
#: tenants each, arrivals in the first 2 s, and 16 seeded faults in the
#: first 12 s (identical in quick and full runs).
CLOSED_LOOP_RACKS = 8
CLOSED_LOOP_TENANTS = 4
CLOSED_LOOP_SEED = 1
CLOSED_LOOP_FAULTS = (("port-degrade", 8), ("lease-shrink", 4), ("lease-revoke", 4))
CLOSED_LOOP_APPS = ("HPL", "Hypre", "NekRS", "BFS", "SuperLU", "XSBench")


def _closed_loop_scenario() -> tuple[list, FaultSchedule]:
    """The closed-loop row's ``(rack, TenantSpec)`` arrivals and faults.

    Rack ``r`` runs four consecutive applications starting at
    ``CLOSED_LOOP_APPS[r % 6]``; every lease fault lands in its victim's
    rack.
    """
    import numpy as np

    rng = np.random.default_rng(CLOSED_LOOP_SEED)
    specs = {name: build_workload(name) for name in CLOSED_LOOP_APPS}
    arrivals = []
    for rack in range(CLOSED_LOOP_RACKS):
        for slot in range(CLOSED_LOOP_TENANTS):
            app = CLOSED_LOOP_APPS[(rack + slot) % len(CLOSED_LOOP_APPS)]
            spec = TenantSpec(
                name=f"r{rack}-t{slot}-{app}", workload=specs[app],
                local_fraction=0.5, arrival=float(rng.uniform(0.0, 2.0)),
            )
            arrivals.append((rack, spec))
    rack_of = {spec.name: rack for rack, spec in arrivals}
    events = []
    for kind, count in CLOSED_LOOP_FAULTS:
        drawn = FaultSchedule.seeded(
            seed=int(rng.integers(2**32)), horizon=12.0, n_events=count,
            kinds=(kind,), n_racks=CLOSED_LOOP_RACKS, n_ports=2,
            tenants=list(rack_of), nbytes=GiB, mean_duration=4.0,
        )
        events += [
            replace(e, rack=rack_of[e.tenant]) if e.tenant else e for e in drawn.events
        ]
    return arrivals, FaultSchedule(events)


def bench_cluster_fabric_closed_loop(quick: bool) -> dict:
    """``run_to_completion`` of a seeded elastic cluster under faults.

    The racks' pools hold 60% of their tenants' leases (at least the
    largest one), a cluster pool takes 15% of all of them as spill, and the
    epoch is 1.5 s.  Workloads and baseline runs are built once, untimed;
    each repeat builds the cluster and runs it to completion.  One more
    untimed run records the stepping work into ``extra``.
    """
    repeats = 3 if quick else 5
    arrivals, schedule = _closed_loop_scenario()
    demand = [0] * CLOSED_LOOP_RACKS
    largest = [0] * CLOSED_LOOP_RACKS
    for rack, spec in arrivals:
        demand[rack] += spec.lease_bytes
        largest[rack] = max(largest[rack], spec.lease_bytes)

    def run():
        sim = ClusterCoSimulator(
            ClusterFabric(
                n_racks=CLOSED_LOOP_RACKS, nodes_per_rack=CLOSED_LOOP_TENANTS, n_ports=2
            ),
            rack_pool_bytes=[max(int(0.6 * d), big) for d, big in zip(demand, largest)],
            cluster_pool_bytes=int(0.15 * sum(demand)),
            epoch_seconds=1.5,
            seed=0,
            overcommit=True,
        )
        sim.inject_faults(schedule)
        return sim.run_to_completion(arrivals)

    with telemetry.isolated(True) as registry:
        summary = run()
    timing = _timeit(run, repeats)
    return {
        "name": "cluster_fabric.closed_loop",
        "group": "cluster_fabric",
        "config": {
            "n_racks": CLOSED_LOOP_RACKS,
            "nodes_per_rack": CLOSED_LOOP_TENANTS,
            "apps": list(CLOSED_LOOP_APPS),
            "seed": CLOSED_LOOP_SEED,
            "faults": dict(CLOSED_LOOP_FAULTS),
            "epoch_seconds": 1.5,
        },
        **timing,
        "extra": {
            **stepping_counts(registry),
            "makespan_s": summary["makespan"],
            "spilled_tenants": summary["spilled_tenants"],
            "faults_injected": summary["faults"]["faults_injected"],
        },
    }


#: The ``cluster_fabric.trace_replay_coupled`` scenario (identical in quick
#: and full runs): the committed fixture on 100 racks of 16 nodes, one pool
#: port each, under 24 seeded faults over its first ~6.7 hours.
TRACE_COUPLED_FIXTURE = "tests/data/fixtures/sacct_synthetic.txt"
TRACE_COUPLED_RACKS = 100
TRACE_COUPLED_NODES = 16
TRACE_COUPLED_SEED = 1
TRACE_COUPLED_FAULTS = 24
TRACE_COUPLED_KINDS = ("port-degrade", "port-kill", "lease-shrink", "lease-revoke")


def bench_trace_replay_coupled(quick: bool) -> dict:
    """The one scheduling study replaying a trace coupled to the fabric.

    :meth:`CoupledSchedulingStudy.replay` of the committed fixture with
    pool-aware placement runs both legs: the static one and the fabric one,
    stepped through every rack of the 100.  Port kills and degrades heal
    after about 30 minutes; lease faults pick their victims among the
    replayed jobs.  One untimed run plans the baselines and records the work
    into ``extra``: the stepping counts, the baseline plans, the faults
    applied and the jobs the fabric leg finished.  The timed repeats find the
    baselines memoized.
    """
    from repro.casestudies.scheduling import CoupledSchedulingStudy
    from repro.data.slurm import read_sacct
    from repro.fabric.topology import FabricConvergenceWarning

    lines = (REPO_ROOT / TRACE_COUPLED_FIXTURE).read_text().splitlines(keepends=True)
    schedule = FaultSchedule.seeded(
        seed=TRACE_COUPLED_SEED, horizon=24_000.0, n_events=TRACE_COUPLED_FAULTS,
        kinds=TRACE_COUPLED_KINDS, n_racks=TRACE_COUPLED_RACKS,
        tenants=[f"job-{i}" for i in range(sum(1 for _ in read_sacct(lines)))],
        nbytes=GiB, mean_duration=1800.0,
    )

    def run():
        study = CoupledSchedulingStudy(
            n_racks=TRACE_COUPLED_RACKS, nodes_per_rack=TRACE_COUPLED_NODES,
            policy="pool-aware", seed=TRACE_COUPLED_SEED, fault_schedule=schedule,
        )
        return study.replay(lines)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FabricConvergenceWarning)
        with telemetry.isolated(True) as registry:
            result = run()
        timing = _timeit(run, 1 if quick else 3)
    coupled = result.coupled.coupled
    return {
        "name": "cluster_fabric.trace_replay_coupled",
        "group": "cluster_fabric",
        "config": {
            "trace": TRACE_COUPLED_FIXTURE,
            "n_racks": TRACE_COUPLED_RACKS,
            "nodes_per_rack": TRACE_COUPLED_NODES,
            "policy": "pool-aware",
            "seed": TRACE_COUPLED_SEED,
            "faults": TRACE_COUPLED_FAULTS,
            "fault_kinds": list(TRACE_COUPLED_KINDS),
        },
        **timing,
        "extra": {
            **stepping_counts(registry),
            "baseline_runs": int(registry.counter("fabric.profile.runs").value),
            "faults_applied": int(registry.counter("fabric.faults.injected").value),
            "jobs_replayed": result.jobs_replayed,
            "jobs_finished": sum(1 for job in coupled.jobs if job.finished),
            "makespan_s": coupled.makespan,
        },
    }


def bench_fault_injection(quick: bool) -> list[dict]:
    """Cost of the fault layer: fault-free overhead + a seeded chaos run.

    * ``fault_injection.disabled_check`` — there is no fault-free fast
      path: every chunk runs the fault bookkeeping, which charges nothing
      when nothing failed.  In a fault-free chunk that is the stepping
      loop's look at the fault feed (``_Lockstep.apply_due_faults``) and
      ``step_frozen``'s two checks: whether each running tenant owes stall
      time (a faulted port or migration debt, which would call
      ``_fault_chunk_available``) and whether some tenant does not run
      (which would scan for tenants waiting on a revoked lease).  The row
      times the same stepping loop as ``rack_cosim_step`` (the rack's own
      ``step``, reached through ``rack_sim(0)`` of a 1-rack cluster) with no
      faults injected, counts its chunks, measures one chunk's bookkeeping
      standalone, and records ``extra.disabled_overhead_pct`` = chunks x
      bookkeeping cost / wall time — the < 2% acceptance bound of
      ``docs/failure_model.md``.
    * ``fault_injection.seeded_chaos`` — wall time of a closed-loop chaos
      run of a 1-rack cluster (``run_to_completion``, a pool of exactly the
      leases) under a seeded port-fault schedule; the blast radius and the
      stepping work (:func:`stepping_counts`) go into ``extra`` so the
      scenario's determinism is visible in the trajectory.  The run steps
      through the cluster, so ``cluster_steps`` counts its steps.  The
      scenario config is identical in quick and full runs (only repeats
      differ), so the two document kinds stay comparable on this row.
    """
    n_tenants = 4
    steps = 60 if quick else 300
    spec = build_workload("XSBench")
    tenants = uniform_tenants(spec, n_tenants, local_fraction=0.5)

    def stepped():
        cluster = ClusterCoSimulator(ClusterFabric(n_racks=1, nodes_per_rack=n_tenants))
        for tenant in tenants:
            cluster.admit(0, tenant)
        return cluster

    cluster = stepped()
    sim = cluster.rack_sim(0)
    epoch = sim.baseline_runtime_of(tenants[0].name) / (steps * 4)
    start = time.perf_counter()
    for _ in range(steps):
        sim.step(epoch)
    step_wall = time.perf_counter() - start
    with telemetry.isolated(True) as registry:
        counted = stepped().rack_sim(0)
        calls = registry.counter("fabric.cosim.step_calls").value
        for _ in range(steps):
            counted.step(epoch)
        chunks = int(registry.counter("fabric.cosim.step_calls").value - calls)

    # One fault-free chunk's fault bookkeeping, measured standalone: the
    # statements ``step_racks`` and ``step_frozen`` run for it, net of the
    # walk over the running tenants that ``step_frozen`` makes anyway.
    loops = 20_000 if quick else 100_000
    lockstep, states = sim._lockstep, sim.tenant_states
    running = [state for state in states.values() if state.running]

    def bookkeeping():
        waiting = False
        for _ in range(loops):
            lockstep.apply_due_faults()
            scales = sim._port_scales
            for state in running:
                if scales or state.migration_debt > 0.0:
                    sim._fault_chunk_available(state, epoch)
            waiting = len(running) < len(states)
        assert not waiting

    def walk():
        for _ in range(loops):
            for state in running:
                pass

    net_s = _timeit(bookkeeping, 3)["min_s"] - _timeit(walk, 3)["min_s"]
    bookkeeping_ns = max(net_s, 0.0) / loops * 1e9
    assert cluster.blast_radius().total_stall_seconds == 0.0
    disabled_overhead_pct = chunks * bookkeeping_ns / (step_wall * 1e9) * 100.0

    rows = [
        {
            "name": "fault_injection.disabled_check",
            "group": "fault_injection",
            "config": {
                "n_tenants": n_tenants,
                "workload": spec.name,
                "steps": steps,
                "faults": "none",
            },
            "repeats": steps,
            "mean_s": step_wall / steps,
            "min_s": step_wall / steps,
            "throughput_per_s": steps / step_wall if step_wall > 0 else 0.0,
            "extra": {
                "bookkeeping_ns": bookkeeping_ns,
                "chunks_per_run": chunks,
                "disabled_overhead_pct": disabled_overhead_pct,
            },
        }
    ]

    schedule = FaultSchedule.seeded(
        seed=0,
        horizon=20.0,
        n_events=4,
        kinds=("port-kill", "port-degrade"),
        n_ports=1,
    )
    repeats = 3 if quick else 10

    def chaos_run():
        chaos = ClusterCoSimulator(
            ClusterFabric(n_racks=1, nodes_per_rack=n_tenants),
            rack_pool_bytes=sum(max(t.lease_bytes, 1) for t in tenants),
            seed=0,
        )
        chaos.inject_faults(schedule)
        return chaos.run_to_completion([(0, tenant) for tenant in tenants])

    with telemetry.isolated(True) as registry:
        result = chaos_run()
    timing = _timeit(chaos_run, repeats)
    report = result["faults"]
    rows.append(
        {
            "name": "fault_injection.seeded_chaos",
            "group": "fault_injection",
            "config": {
                "n_tenants": n_tenants,
                "workload": spec.name,
                "fault_seed": 0,
                "n_events": 4,
                "kinds": "port-kill,port-degrade",
            },
            **timing,
            "extra": {
                "faults_injected": report["faults_injected"],
                "stalled_tenants": len(report["stalled_tenants"]),
                "total_stall_seconds": report["total_stall_seconds"],
                "makespan_s": result["makespan"],
                **stepping_counts(registry),
            },
        }
    )
    return rows


#: The 100-rack wiring of the ``cluster_step_batched`` group — dense enough
#: that the per-rack Python work, not the shared tenant models, dominates
#: (identical in quick and full runs so the per-step time is always measured
#: at the same scale).
BATCHED_RACKS = 100
BATCHED_NODES = 8
BATCHED_TENANTS = 8


def bench_cluster_step_batched(quick: bool) -> dict:
    """Cluster epoch stepping at 100 racks, 800 tenants, one epoch per step.

    Before each step one node per rack has its external background offset
    toggled between 0 and 1 B/s.  That changes every rack's solve inputs, so
    no rollover can skip its solve and every step pays a full cross-rack
    contention re-solve: all racks advance under frozen backgrounds and
    their rollovers fold into one vectorized ``resolve_racks`` call.  Only
    the steps are timed, not the toggles.  The stepping path this replaced
    (each rack stepping and solving alone) was about 2.8x slower per step
    under the same solver; see ``docs/benchmarks.md``.
    """
    steps = 6 if quick else 30
    sim = ClusterCoSimulator(
        ClusterFabric(n_racks=BATCHED_RACKS, nodes_per_rack=BATCHED_NODES, n_ports=1),
        seed=0,
    )
    spec = build_workload("Hypre", 4.0)
    tenants = uniform_tenants(spec, BATCHED_TENANTS, local_fraction=0.5)
    for rack in range(BATCHED_RACKS):
        for tenant in tenants:
            sim.admit(rack, replace(tenant, name=f"rack{rack}-{tenant.name}"))
    epoch = sim.epoch_seconds
    sim.step(epoch)  # untimed first step, as in bench_cluster_fabric
    wall = 0.0
    for step in range(steps):
        # Time the rollover machinery itself, not the skip fast path.
        for rack_sim in sim.rack_sims:
            rack_sim.set_background_offset(0, float(step % 2 == 0))
        start = time.perf_counter()
        sim.step(epoch)
        wall += time.perf_counter() - start
    return {
        "name": "cluster_step_batched.batched",
        "group": "cluster_step_batched",
        "config": {
            "n_racks": BATCHED_RACKS,
            "nodes_per_rack": BATCHED_NODES,
            "n_ports": 1,
            "n_tenants_per_rack": BATCHED_TENANTS,
            "workload": "Hypre",
            "scale": 4.0,
        },
        "repeats": steps,
        "mean_s": wall / steps,
        "min_s": wall / steps,
        "throughput_per_s": steps / wall if wall > 0 else 0.0,
        "extra": {"wall_s": wall, "steps": steps, "simulated_s": steps * epoch},
    }


#: The ``sweep_sharded`` query stream: 4 unique rack co-simulation configs,
#: each requested 5 times (20 points) — the repeated-query shape of the
#: ROADMAP's memoized what-if service, where parameter studies revisit
#: baseline configurations.
SWEEP_TENANT_POINTS = (2, 4, 6, 8)
SWEEP_REPEATS_PER_POINT = 5
SWEEP_JOBS = 8


def _sweep_point(workload: str, scale: float, tenants: int, request: int) -> dict:
    """One sharded-sweep query: a full rack co-simulation, as a plain row.

    ``request`` tags which repetition of the query this is; it is dropped
    from the parameters before fingerprinting so repeated requests share one
    fingerprint (and therefore one execution).
    """
    rack = uniform_tenants(build_workload(workload, scale), tenants)
    result = ClusterCoSimulator(
        ClusterFabric(n_racks=1, nodes_per_rack=tenants),
        rack_pool_bytes=sum(max(t.lease_bytes, 1) for t in rack),
    ).run_to_completion([(0, tenant) for tenant in rack])
    return {
        "tenants": tenants,
        "mean_runtime": result["mean_runtime"],
        "mean_slowdown": result["mean_slowdown"],
        "makespan": result["makespan"],
    }


def bench_sweep_sharded(quick: bool) -> list[dict]:
    """Repeated-query sweep through ``SweepRunner`` vs a naive serial loop.

    The stream holds 20 queries over 4 unique configurations.  The serial
    row executes every query; the sharded row runs the same stream through
    ``SweepRunner(jobs=8)``, which deduplicates repeated fingerprints (each
    unique configuration is solved once) and shards the fresh ones over
    worker processes.  The sharded row therefore measures the memo plus the
    start-up of 8 worker processes, which dominates it on a host with few
    cores (the document's ``cpu_count``).  ``extra.speedup_vs_serial``
    records serial over sharded ``min_s``; no bound is checked on it.
    """
    from repro.parallel import SweepRunner

    points = [
        {"workload": "Hypre", "scale": 1.0, "tenants": tenants, "request": request}
        for request in range(SWEEP_REPEATS_PER_POINT)
        for tenants in SWEEP_TENANT_POINTS
    ]
    repeats = 2 if quick else 5
    config = {
        "workload": "Hypre",
        "scale": 1.0,
        "points": len(points),
        "unique_points": len(SWEEP_TENANT_POINTS),
    }

    def run_serial():
        return [_sweep_point(**params) for params in points]

    def run_sharded():
        runner = SweepRunner(jobs=SWEEP_JOBS)
        fingerprinted = [
            {k: v for k, v in params.items() if k != "request"} for params in points
        ]
        return runner.map(_sweep_point_query, fingerprinted, seed_param=None)

    serial_rows = run_serial()
    sharded_rows = run_sharded()
    assert serial_rows == sharded_rows, "sharded sweep diverged from serial"
    serial = _timeit(run_serial, repeats)
    sharded = _timeit(run_sharded, repeats)
    speedup = serial["min_s"] / sharded["min_s"] if sharded["min_s"] > 0 else 0.0
    return [
        {
            "name": "sweep_sharded.serial",
            "group": "sweep_sharded",
            "config": {**config, "jobs": 1},
            **serial,
            "extra": {"executions": len(points)},
        },
        {
            "name": "sweep_sharded.jobs8",
            "group": "sweep_sharded",
            "config": {**config, "jobs": SWEEP_JOBS},
            **sharded,
            "extra": {
                "executions": len(SWEEP_TENANT_POINTS),
                "memo_hits": len(points) - len(SWEEP_TENANT_POINTS),
                "speedup_vs_serial": speedup,
            },
        },
    ]


def _sweep_point_query(workload: str, scale: float, tenants: int) -> dict:
    """The fingerprinted form of :func:`_sweep_point` (no request tag)."""
    return _sweep_point(workload, scale, tenants, request=0)


#: The ``trace_ingest`` dump size — identical in quick and full runs (only
#: repeats differ) so quick CI documents stay config-comparable with the
#: committed full-run baseline on this group.
TRACE_JOBS = 400
TRACE_SEED = 0


def bench_trace_ingest(quick: bool) -> dict:
    """Streaming ``read_sacct`` throughput on a synthetic ``sacct`` dump.

    The dump (~1.6k rows for 400 jobs: allocation + ``.batch``/``.extern`` +
    numbered steps, with the generator's usual sprinkling of cancelled and
    malformed rows) is synthesized once in memory; each repeat streams it
    through :func:`read_sacct` end to end, folding steps and skipping bad
    rows exactly as a replay would.  ``extra.rows_per_s`` (best-of) is the
    recorded ingestion rate of the trajectory.
    """
    from repro.data.slurm import IngestReport, read_sacct, synthesize_sacct_lines

    lines = list(synthesize_sacct_lines(TRACE_JOBS, seed=TRACE_SEED))
    repeats = 3 if quick else 10

    def ingest():
        report = IngestReport()
        jobs = sum(1 for _ in read_sacct(lines, report=report))
        return jobs, report

    jobs, report = ingest()
    timing = _timeit(lambda: ingest(), repeats)
    rows_per_s = report.rows_read / timing["min_s"] if timing["min_s"] > 0 else 0.0
    return {
        "name": "trace_ingest.synthetic",
        "group": "trace_ingest",
        "config": {"n_jobs": TRACE_JOBS, "seed": TRACE_SEED},
        **timing,
        "extra": {
            "rows": report.rows_read,
            "jobs_yielded": jobs,
            "steps_folded": report.steps_folded,
            "rows_skipped": report.rows_skipped,
            "conserved": report.conserved,
            "rows_per_s": rows_per_s,
        },
    }


#: Application sets of the ``engine_profile_levels`` rows.  Quick runs keep
#: only the first, whose config is identical in quick and full documents.
PROFILE_APP_SETS = (
    ("HPL", "XSBench"),
    ("HPL", "Hypre", "NekRS", "BFS", "SuperLU", "XSBench"),
)
PROFILE_SEED = 1
#: Level 2's capacity splits (local share of the footprint); level 3 runs at 50%.
PROFILE_SPLITS = (0.75, 0.50, 0.25)


def count_page_weight_draws(fn):
    """``(fn(), draws)``: how many dense ``page_weights`` draws ``fn`` makes.

    Every access pattern's ``page_weights`` is wrapped for the duration of
    the call.  A draw nested in another (a gather pattern drawing its skewed
    part from a Zipf pattern) counts once, with its outer call.  Weights the
    engine reads as runs (``page_runs``: uniform and hot/cold patterns) are
    no draw and are not counted.
    """
    from repro.trace import patterns

    draws = [0]
    depth = [0]
    saved = []

    def counting(method):
        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            if depth[0] == 0:
                draws[0] += 1
            depth[0] += 1
            try:
                return method(*args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    try:
        for cls in vars(patterns).values():
            if isinstance(cls, type) and "page_weights" in vars(cls):
                method = vars(cls)["page_weights"]
                saved.append((cls, method))
                setattr(cls, "page_weights", counting(method))
        result = fn()
    finally:
        for cls, method in saved:
            setattr(cls, "page_weights", method)
    return result, draws[0]


def bench_engine_profile_levels(quick: bool) -> list[dict]:
    """The paper's three profiling levels through the execution engine.

    Per application: level 1 on a local-only system (prefetch on and off,
    plus the access profile behind the scaling curve), level 2 at the
    75/50/25% capacity splits, and level 3 (the IC and the six-point LoI
    sweep) at the 50% split.  Every repeat builds fresh workload objects, so
    no repeat prices a plan memoized by an earlier one.  One extra untimed
    run counts the work into ``extra``: ``engine_runs``, ``engine_plans``
    (placements, one per workload and tier geometry),
    ``page_weight_draws`` (the dense draws actually made), ``shared_draws``
    (draws the profiler handed out again instead) and
    ``curve_dense_counts`` (the page counts the Level-1 curves sorted and
    summed one by one: their dense pieces; runs cost O(runs x binades) and
    are not counted).  Another untimed run records the tracemalloc peak,
    ``peak_traced_mb``.
    """
    from repro.profiler.profiler import MultiLevelProfiler

    repeats = 3 if quick else 5
    rows = []
    for apps in PROFILE_APP_SETS[:1] if quick else PROFILE_APP_SETS:

        def methodology(apps=apps):
            profiler = MultiLevelProfiler(seed=PROFILE_SEED)
            for name in apps:
                spec = build_workload(name)
                profiler.level1(spec)
                profiler.level2_sweep(spec, PROFILE_SPLITS)
                profiler.level3(spec, local_fraction=0.5)

        with telemetry.isolated(True) as registry:
            _, draws = count_page_weight_draws(methodology)
        runs = int(registry.counter("engine.runs").value)
        tracemalloc.start()
        try:
            methodology()
            peak_traced_mb = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        timing = _timeit(methodology, repeats)
        label = "six_apps" if len(apps) == 6 else "_".join(a.lower() for a in apps)
        rows.append(
            {
                "name": f"engine_profile_levels.{label}",
                "group": "engine_profile_levels",
                "config": {
                    "apps": list(apps),
                    "seed": PROFILE_SEED,
                    "splits": list(PROFILE_SPLITS),
                    "level3_local_fraction": 0.5,
                },
                **timing,
                "extra": {
                    "engine_runs": runs,
                    "engine_plans": int(registry.counter("engine.plans").value),
                    "page_weight_draws": draws,
                    "shared_draws": int(registry.counter("engine.draws.shared").value),
                    "curve_dense_counts": int(
                        registry.counter("footprint.dense_counts").value
                    ),
                    "peak_traced_mb": peak_traced_mb,
                    "runs_per_s": runs / timing["min_s"] if timing["min_s"] > 0 else 0.0,
                },
            }
        )
    return rows


def _synthetic_jobs(n_jobs: int) -> tuple[list[JobProfile], list[float]]:
    """A deterministic job stream exercising placement, waiting and retiring."""
    profiles = []
    arrivals = []
    for i in range(n_jobs):
        profiles.append(
            JobProfile(
                workload=f"synthetic-{i % 7}",
                baseline_runtime=50.0 + 10.0 * (i % 13),
                induced_loi=float(i % 5) * 4.0,
                pool_gb=1.0 + (i % 3),
            )
        )
        arrivals.append(2.5 * i)
    return profiles, arrivals


def _run_cluster(n_racks: int, nodes_per_rack: int, profiles, arrivals):
    cluster = Cluster.build(
        n_racks=n_racks, nodes_per_rack=nodes_per_rack, pool_capacity_gb=64.0
    )
    simulator = ClusterSimulator(cluster, seed=0)
    return simulator.run(profiles, arrivals)


def _cluster_events_config(n_racks: int, nodes_per_rack: int, n_jobs: int) -> dict:
    return {
        "n_racks": n_racks,
        "nodes_per_rack": nodes_per_rack,
        "n_jobs": n_jobs,
        "policy": "random",
        "progress": "static-curve",
    }


#: Instrument methods every recording telemetry hook ends in.
HOOK_METHODS = (
    (telemetry.Counter, "inc"),
    (telemetry.Gauge, "set"),
    (telemetry.Histogram, "observe"),
    (telemetry.TimeSeries, "append"),
    (telemetry.Tracer, "span"),
)


def count_hook_calls(fn):
    """``(fn(), hooks)``: how many telemetry hooks ``fn`` executes.

    Every :data:`HOOK_METHODS` entry is wrapped for the duration of the call,
    so ``hooks`` counts the recording calls the run actually makes (with
    telemetry enabled), independent of the values they add.
    """
    calls = [0]
    saved = []

    def counting(method):
        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return method(*args, **kwargs)

        return wrapper

    try:
        for owner, name in HOOK_METHODS:
            method = vars(owner)[name]
            saved.append((owner, name, method))
            setattr(owner, name, counting(method))
        result = fn()
    finally:
        for owner, name, method in saved:
            setattr(owner, name, method)
    return result, calls[0]


#: Timed runs per telemetry mode in ``bench_cluster_events``, alternating
#: disabled and enabled so a slow phase of the host falls on both modes.
OVERHEAD_PAIRS = 5


def bench_cluster_events(quick: bool) -> tuple[dict, dict]:
    """Event throughput of the scheduler loop + telemetry overhead on it.

    Runs the same deterministic job stream several ways.  One untimed run
    with telemetry enabled counts the events and, with every hook wrapped,
    the hook calls.  Then :data:`OVERHEAD_PAIRS` disabled and enabled runs
    alternate, timed without the counting wrappers.  The recorded number is
    the fastest disabled run, and the enabled-mode cost is the ratio of the
    two modes' fastest runs.  The disabled-mode overhead is the measured
    no-op hook cost times the hook count, as a fraction of the fastest
    disabled run: the number the acceptance bound (< 2%) refers to.
    """
    n_racks, nodes_per_rack = (2, 4) if quick else (4, 8)
    n_jobs = 120 if quick else 400
    profiles, arrivals = _synthetic_jobs(n_jobs)

    telemetry.enable(reset=True)
    _, hook_calls = count_hook_calls(
        lambda: _run_cluster(n_racks, nodes_per_rack, profiles, arrivals)
    )
    events = int(telemetry.registry().counter("scheduler.events").value)

    walls: dict = {False: [], True: []}
    for _ in range(OVERHEAD_PAIRS):
        for enabled in (False, True):
            if enabled:
                telemetry.enable(reset=True)
            else:
                telemetry.disable()
            start = time.perf_counter()
            outcome = _run_cluster(n_racks, nodes_per_rack, profiles, arrivals)
            walls[enabled].append(time.perf_counter() - start)
    telemetry.disable()
    disabled_walls = walls[False]
    disabled_wall = min(disabled_walls)
    enabled_wall = min(walls[True])

    # Cost of one disabled-mode hook: the flag check + no-op instrument.
    loops = 50_000 if quick else 200_000
    start = time.perf_counter()
    for _ in range(loops):
        with telemetry.trace_span("bench.noop"):
            pass
    noop_span_ns = (time.perf_counter() - start) / loops * 1e9
    start = time.perf_counter()
    for _ in range(loops):
        telemetry.metrics().counter("bench.noop").inc()
    noop_counter_ns = (time.perf_counter() - start) / loops * 1e9

    noop_ns = max(noop_span_ns, noop_counter_ns)
    disabled_overhead_pct = hook_calls * noop_ns / (disabled_wall * 1e9) * 100.0
    bench = {
        "name": "cluster_events",
        "group": "cluster_events",
        "config": _cluster_events_config(n_racks, nodes_per_rack, n_jobs),
        "repeats": len(disabled_walls),
        "mean_s": statistics.fmean(disabled_walls),
        "min_s": disabled_wall,
        "throughput_per_s": events / disabled_wall if disabled_wall > 0 else 0.0,
        "extra": {
            "events": events,
            "makespan_s": outcome.makespan,
            "events_per_s": events / disabled_wall if disabled_wall > 0 else 0.0,
        },
    }
    overhead = {
        "noop_span_ns": noop_span_ns,
        "noop_counter_ns": noop_counter_ns,
        "events": events,
        "hook_calls": hook_calls,
        "disabled_wall_s": disabled_wall,
        "enabled_wall_s": enabled_wall,
        "enabled_overhead_pct": (enabled_wall - disabled_wall) / disabled_wall * 100.0,
        "disabled_overhead_pct": disabled_overhead_pct,
    }
    return bench, overhead


#: Job counts of the full-run-only scaling rows of ``cluster_events`` (same
#: stream and 4x8-node cluster as the main row).  400,000 jobs would take
#: about 20 s per repeat on a 2-core host, so the series stops at 40,000.
SCALING_JOBS = (4_000, 40_000)


def bench_cluster_events_scaling(quick: bool) -> list[dict]:
    """``cluster_events`` at 10x and 100x the jobs (full runs only).

    Each run records into a private registry for its event count; since the
    scheduler publishes its counters once per run, that costs a few hook
    calls per run, not per event.
    """
    if quick:
        return []
    rows = []
    for n_jobs in SCALING_JOBS:
        profiles, arrivals = _synthetic_jobs(n_jobs)
        runs = []

        def run():
            with telemetry.isolated(True) as registry:
                outcome = _run_cluster(4, 8, profiles, arrivals)
            runs.append((outcome, int(registry.counter("scheduler.events").value)))

        timing = _timeit(run, repeats=2)
        outcome, events = runs[-1]
        events_per_s = events / timing["min_s"] if timing["min_s"] > 0 else 0.0
        rows.append(
            {
                "name": f"cluster_events.jobs{n_jobs}",
                "group": "cluster_events",
                "config": _cluster_events_config(4, 8, n_jobs),
                **timing,
                "throughput_per_s": events_per_s,
                "extra": {
                    "events": events,
                    "makespan_s": outcome.makespan,
                    "events_per_s": events_per_s,
                },
            }
        )
    return rows


def run_benchmarks(quick: bool) -> dict:
    """The full schema-versioned bench document."""
    telemetry.disable()
    benchmarks = []
    benchmarks.extend(bench_fabric_solver(quick))
    benchmarks.append(bench_rack_cosim_step(quick))
    cluster_bench, overhead = bench_cluster_events(quick)
    benchmarks.append(cluster_bench)
    benchmarks.extend(bench_cluster_events_scaling(quick))
    benchmarks.append(bench_solver_vectorized(quick))
    benchmarks.append(bench_cluster_fabric(quick))
    benchmarks.append(bench_cluster_fabric_closed_loop(quick))
    benchmarks.append(bench_trace_replay_coupled(quick))
    benchmarks.extend(bench_fault_injection(quick))
    benchmarks.append(bench_cluster_step_batched(quick))
    benchmarks.extend(bench_sweep_sharded(quick))
    benchmarks.append(bench_trace_ingest(quick))
    benchmarks.extend(bench_engine_profile_levels(quick))
    return {
        "schema": BENCH_SCHEMA,
        "version": BENCH_SCHEMA_VERSION,
        "created_unix": time.time(),
        "quick": quick,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "benchmarks": benchmarks,
        "telemetry_overhead": overhead,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized smoke run")
    parser.add_argument(
        "--out", default="BENCH_cosim.json", help="output path (default: %(default)s)"
    )
    parser.add_argument(
        "--check",
        metavar="FILE",
        default=None,
        help="validate an existing bench document instead of measuring",
    )
    parser.add_argument(
        "--compare",
        metavar="BASELINE",
        default=None,
        help="after measuring, diff against BASELINE (a committed bench "
        "document) and exit non-zero on a perf regression",
    )
    parser.add_argument(
        "--compare-threshold",
        type=float,
        default=DEFAULT_REGRESSION_THRESHOLD,
        help="relative slowdown tolerated before --compare fails "
        "(default: %(default)s)",
    )
    args = parser.parse_args(argv)

    if args.check is not None:
        with open(args.check, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        errors = validate_bench(data)
        if errors:
            for error in errors:
                print(f"{args.check}: {error}", file=sys.stderr)
            return 1
        print(f"{args.check}: valid {BENCH_SCHEMA} v{BENCH_SCHEMA_VERSION} document")
        return 0

    data = run_benchmarks(quick=args.quick)
    errors = validate_bench(data)
    if errors:  # pragma: no cover - harness bug guard
        for error in errors:
            print(f"internal schema violation: {error}", file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    events_per_s = next(
        b["throughput_per_s"] for b in data["benchmarks"] if b["group"] == "cluster_events"
    )
    overhead = data["telemetry_overhead"]
    print(f"wrote {args.out}")
    print(f"  cluster events/s: {events_per_s:.0f}")
    print(f"  telemetry overhead: disabled {overhead['disabled_overhead_pct']:.3f}% "
          f"enabled {overhead['enabled_overhead_pct']:.1f}%")
    fault_pct = next(
        b["extra"]["disabled_overhead_pct"]
        for b in data["benchmarks"]
        if b["name"] == "fault_injection.disabled_check"
    )
    print(f"  fault layer disabled overhead: {fault_pct:.3f}%")
    sweep_speedup = next(
        b["extra"]["speedup_vs_serial"]
        for b in data["benchmarks"]
        if b["name"] == "sweep_sharded.jobs8"
    )
    print(f"  sharded sweep speedup (8 workers, repeated queries): {sweep_speedup:.1f}x")
    rows_per_s = next(
        b["extra"]["rows_per_s"]
        for b in data["benchmarks"]
        if b["name"] == "trace_ingest.synthetic"
    )
    print(f"  sacct trace ingestion: {rows_per_s:.0f} rows/s")
    profile = next(
        b for b in data["benchmarks"] if b["name"] == "engine_profile_levels.hpl_xsbench"
    )
    print(f"  profiling levels 1-3 (HPL, XSBench): {profile['min_s']:.3f} s, "
          f"{profile['extra']['engine_runs']} engine runs on "
          f"{profile['extra']['engine_plans']} plans")

    if args.compare is not None:
        with open(args.compare, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
        errors = validate_bench(baseline)
        if errors:
            for error in errors:
                print(f"{args.compare}: {error}", file=sys.stderr)
            return 1
        regressions, skipped = compare_bench(
            baseline, data, threshold=args.compare_threshold
        )
        for line in skipped:
            print(f"  compare skipped {line}")
        if regressions:
            for line in regressions:
                print(f"PERF REGRESSION {line}", file=sys.stderr)
            return 1
        print(f"  no perf regressions vs {args.compare} "
              f"(threshold {args.compare_threshold:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
