"""The memoized progress rate and baseline runs change no simulated number.

:meth:`RackCoSimulator._progress_rate` remembers, per tenant, the rate of its
last (phase profile, frozen background) pair, and :func:`baseline_run`
memoizes the interference-free engine run per (workload, local fraction,
testbed, seed).  Both store pure functions of their keys, so this suite
holds them to bit-identity against an uncached oracle, pins how much work
they save (so a change that defeats either cache fails here, not only in the
benchmark), and checks that a workload-keyed entry only ever serves the very
workload object it was built from.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest

from repro import telemetry
from repro.casestudies.scheduling import CoupledSchedulingStudy
from repro.config import SKYLAKE_EMULATION
from repro.config.units import GiB
from repro.fabric import (
    ClusterCoSimulator,
    ClusterFabric,
    FaultSchedule,
    RackCoSimulator,
    TenantSpec,
)
from repro.fabric import cosim
from repro.fabric.cosim import baseline_run
from repro.scheduler import ClusterSimulator, FabricCoupledProgress, make_policy
from repro.sim.perfmodel import PerformanceModel
from repro.workloads import build_workload

APPS = ("HPL", "XSBench", "Hypre")


def uncached_progress_rate(self, state, profile, background):
    """The progress-rate formula evaluated afresh on every query (oracle)."""
    return profile.unit_time_idle / self._unit_time(state, profile, background)


def coupled_leg():
    """A small fabric-coupled schedule: (job times, rack telemetry series)."""
    specs = [build_workload(name) for name in APPS]
    study = CoupledSchedulingStudy(
        n_racks=2, nodes_per_rack=2, policy="cluster-fabric",
        cluster_pool_gb=16.0, seed=0,
    )
    profiles, arrivals, workloads = study.job_stream(specs, copies=2, stagger=3.0)
    progress = FabricCoupledProgress(workloads=workloads, cluster_pool_gb=16.0, seed=0)
    outcome = ClusterSimulator(
        study._cluster(),
        make_policy("cluster-fabric", progress=progress),
        seed=0,
        progress=progress,
    ).run(profiles, arrivals=arrivals)
    racks = progress.cluster_simulator().rack_sims
    return (
        [(job.start_time, job.finish_time) for job in outcome.jobs],
        [sim.telemetry.series() for sim in racks],
    )


def chaos_cluster():
    """A seeded fault run on elastic pools: (summary, telemetry, blast radius)."""
    names = ("HPL", "Hypre", "BFS", "XSBench")
    specs = {name: build_workload(name) for name in names}
    tenants = [
        (rack, TenantSpec(
            name=f"r{rack}-t{slot}",
            workload=specs[names[(2 * rack + slot) % len(names)]],
            local_fraction=0.5,
            arrival=0.3 * slot,
        ))
        for rack in range(2)
        for slot in range(2)
    ]
    # Seed 8 lands a revoke, a shrink, a port kill and degrades on running
    # tenants, so every stall path feeds the rates under test.
    schedule = FaultSchedule.seeded(
        seed=8, horizon=8.0, n_events=6,
        kinds=("port-kill", "port-degrade", "lease-shrink", "lease-revoke"),
        n_racks=2, n_ports=2, tenants=[spec.name for _, spec in tenants],
        nbytes=GiB, mean_duration=2.0,
    )
    demand, largest = [0, 0], [0, 0]
    for rack, spec in tenants:
        demand[rack] += spec.lease_bytes
        largest[rack] = max(largest[rack], spec.lease_bytes)
    sim = ClusterCoSimulator(
        ClusterFabric(n_racks=2, nodes_per_rack=2, n_ports=2),
        rack_pool_bytes=[max(int(0.6 * d), big) for d, big in zip(demand, largest)],
        cluster_pool_bytes=int(0.15 * sum(demand)),
        epoch_seconds=1.5,
        seed=0,
        overcommit=True,
    )
    sim.inject_faults(schedule)
    for rack, spec in tenants:
        sim.admit(rack, spec, time=spec.arrival)
    summary = sim.run_to_completion()
    return (
        summary,
        [rack_sim.telemetry.series() for rack_sim in sim.rack_sims],
        sim.blast_radius(),
    )


@pytest.fixture()
def telemetry_on():
    telemetry.enable(reset=True)
    try:
        yield telemetry.registry()
    finally:
        telemetry.disable()
        telemetry.registry().reset()
        telemetry.tracer().reset()


class TestBitIdenticalToUncachedOracle:
    @pytest.mark.parametrize("scenario", [coupled_leg, chaos_cluster])
    def test_same_trajectory_as_uncached(self, scenario, monkeypatch):
        cached = scenario()
        monkeypatch.setattr(RackCoSimulator, "_progress_rate", uncached_progress_rate)
        assert scenario() == cached

    def test_chaos_scenario_exercises_the_fault_layer(self):
        summary, _, report = chaos_cluster()
        assert report.revocations > 0
        assert report.total_migrated_bytes > 0
        assert report.stalled_tenants
        assert all(t["lease_state"] == "granted" for t in summary["tenants"])


class TestWorkSaved:
    def test_perf_model_and_engine_run_counts(self, telemetry_on, monkeypatch):
        calls = []
        phase_time = PerformanceModel.phase_time

        def counting(self, inputs):
            calls.append(inputs)
            return phase_time(self, inputs)

        monkeypatch.setattr(PerformanceModel, "phase_time", counting)
        study = CoupledSchedulingStudy(
            n_racks=2, nodes_per_rack=2, policy="cluster-fabric",
            cluster_pool_gb=16.0, seed=0,
        )
        study.run(specs=[build_workload(name) for name in APPS], copies=2, stagger=3.0)
        # One baseline engine run per unique workload, shared by the job
        # profiles, every rack's tenants and every placement probe.
        assert telemetry_on.counter("engine.runs").value == len(APPS)
        assert telemetry_on.counter("fabric.profile.runs").value == len(APPS)
        # Uncached, this run evaluates the perf model over 4,000 times.
        evaluations = telemetry_on.counter("fabric.rates.evaluations").value
        assert 0 < evaluations < len(calls) <= 100


class TestWorkloadIdentity:
    """A workload-keyed entry serves only the object it was built from."""

    def test_baseline_memo_ignores_a_colliding_id(self, monkeypatch):
        impostor, fresh = build_workload("HPL"), build_workload("XSBench")
        planted = baseline_run(impostor)
        key = (id(fresh), 0.5, SKYLAKE_EMULATION, 0)
        monkeypatch.setitem(cosim._baselines, key, (impostor, planted))
        result = baseline_run(fresh, 0.5, SKYLAKE_EMULATION, 0)
        assert result is not planted
        assert result.workload == "XSBench"
        assert baseline_run(fresh) is result

    def test_profile_cache_ignores_a_colliding_id(self):
        impostor, fresh = build_workload("HPL"), build_workload("XSBench")
        sim = RackCoSimulator.incremental(n_nodes=2)
        sim.admit(TenantSpec(name="impostor", workload=impostor, local_fraction=0.5))
        sim._inc_cache[(id(fresh), 0.5)] = sim._inc_cache[(id(impostor), 0.5)]
        sim.admit(TenantSpec(name="fresh", workload=fresh, local_fraction=0.5))
        expected = sum(p.runtime for p in baseline_run(fresh).phases)
        assert sim.baseline_runtime_of("fresh") == expected
        assert sim.baseline_runtime_of("fresh") != sim.baseline_runtime_of("impostor")

    def test_memo_is_bounded(self, monkeypatch):
        memo = OrderedDict(
            (("planted", i), (None, None)) for i in range(cosim._BASELINE_MEMO_SIZE)
        )
        monkeypatch.setattr(cosim, "_baselines", memo)
        spec = build_workload("XSBench")
        result = baseline_run(spec)
        assert len(memo) == cosim._BASELINE_MEMO_SIZE
        assert ("planted", 0) not in memo  # least recently used goes first
        assert baseline_run(spec) is result
