"""The memoized progress rate and baseline runs change no simulated number.

:meth:`RackCoSimulator._progress_rate` remembers, per tenant, the rate of its
last (phase, frozen background) pair, and :func:`baseline_run` memoizes the
interference-free engine run per (workload, local fraction, testbed, seed).
Both store pure functions of their keys, so this suite holds them to
bit-identity against an uncached oracle, pins how much work they save (so a
change that defeats either cache fails here, not only in the benchmark), and
checks that a workload-keyed entry only ever serves the very workload object
it was built from.  Every number the tenants derive from the baseline run's
phases is held to the bits of the cached phase-profile derivation in
``oracles.py``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from racks import one_rack, run_rack
from repro import telemetry
from repro.casestudies.scheduling import CoupledSchedulingStudy
from repro.config import SKYLAKE_EMULATION
from repro.config.units import GiB
from repro.fabric import (
    ClusterCoSimulator,
    ClusterFabric,
    FaultSchedule,
    TenantSpec,
)
from repro.fabric import cosim
from repro.fabric.cosim import RackCoSimulator, baseline_run
from repro.scheduler import ClusterSimulator, FabricCoupledProgress, make_policy
from repro.sim.perfmodel import PerformanceModel
from repro.workloads import build_workload, workload_names

APPS = ("HPL", "XSBench", "Hypre")

#: One workload object per application, so the baseline memo serves repeats.
WORKLOADS = {name: build_workload(name) for name in workload_names()}


def uncached_progress_rate(self, state, background):
    """The progress-rate formula with both unit times priced afresh (oracle)."""
    index = state.phase_index
    return min(state.unit_time(index, 0.0) / state.unit_time(index, background), 1.0)


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
        for slot in range(2)
        for rack in range(2)
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

    @pytest.mark.parametrize(
        "scenario, expected",
        [
            # 3 baseline runs x 2 phases (6), 6 admitted jobs pricing the idle
            # unit time of their 2 phases (12), 22 rate evaluations: 40.
            (coupled_leg, 40),
            # 4 baseline runs x 2 phases (8), 4 admitted tenants x 2 phases
            # (8), 12 rate evaluations: 28.
            (chaos_cluster, 28),
        ],
    )
    def test_exact_perf_model_calls(self, scenario, expected, telemetry_on, monkeypatch):
        """Pricing per probe or per step, not per admitted phase, fails here."""
        calls = []
        phase_time = PerformanceModel.phase_time

        def counting(self, inputs):
            calls.append(inputs)
            return phase_time(self, inputs)

        monkeypatch.setattr(PerformanceModel, "phase_time", counting)
        monkeypatch.setattr(cosim, "_baselines", OrderedDict())
        scenario()
        phases = 2  # every workload in both scenarios has two phases
        baseline = phases * telemetry_on.counter("engine.runs").value
        admitted = phases * telemetry_on.counter("fabric.cosim.admitted").value
        evaluations = telemetry_on.counter("fabric.rates.evaluations").value
        assert len(calls) == baseline + admitted + evaluations == expected


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


def rack_run():
    """A staggered four-application rack on a tight two-port pool: outcomes."""
    names = ("Hypre", "HPL", "BFS", "XSBench")
    tenants = [
        TenantSpec(
            name=f"{name}-{i}", workload=WORKLOADS[name], local_fraction=0.5,
            arrival=2.0 * i,
        )
        for i, name in enumerate(names)
    ]
    leases = [spec.lease_bytes for spec in tenants]
    sim, _ = run_rack(
        tenants,
        pool_bytes=max(int(0.6 * sum(leases)), max(leases)),
        n_ports=2,
        port_capacity_scale=2.0,
        seed=1,
    )
    return [
        (t.name, t.start_time, t.finish_time, t.lease_state, t.baseline_runtime,
         t.mean_background_bandwidth)
        for t in (sim.outcome(spec.name) for spec in tenants)
    ]


class TestIdleFabricBound:
    """No tenant progresses faster than on an idle fabric."""

    @pytest.mark.parametrize("load, unclamped", [(0.85, 1.0051), (0.9, 1.0188)])
    def test_latency_bound_phase_is_clamped_at_one(self, load, unclamped):
        # The perf model prices XSBench's second phase (scale 1) slightly
        # faster under heavy background than idle; the rate must not follow.
        cluster = one_rack(nodes=1)
        cluster.admit(0, TenantSpec(name="xs", workload=WORKLOADS["XSBench"]))
        sim = cluster.rack_sim(0)
        state = sim.tenant_states["xs"]
        state.phase_index = 1
        background = load * sim.topology.link_of(0).data_capacity
        raw = state.unit_time(1, 0.0) / state.unit_time(1, background)
        assert raw == pytest.approx(unclamped, abs=1e-4)
        assert sim._progress_rate(state, background) == 1.0


class TestPhasesMatchTheProfileOracle:
    """Tenants reading the baseline run's phases get the bits of the cached
    phase-profile copies in ``oracles.py``."""

    @given(
        app=st.sampled_from(sorted(WORKLOADS)),
        local_fraction=st.sampled_from((0.25, 0.5, 0.75, 1.0)) | st.floats(0.25, 1.0),
        scale=st.sampled_from((1.0, 2.0, 4.0)),  # FabricTopology needs >= 1
        seed=st.integers(0, 3),
        backgrounds=st.lists(
            st.just(0.0) | st.floats(0.0, 100e9), min_size=1, max_size=4
        ),
    )
    def test_phase_numbers_match(self, app, local_fraction, scale, seed, backgrounds):
        spec = TenantSpec(name="t", workload=WORKLOADS[app], local_fraction=local_fraction)
        cluster = one_rack(nodes=2, port_capacity_scale=scale, seed=seed)
        sim = cluster.rack_sim(0)
        cache: dict = {}  # one oracle entry, built on node 0, serves node 1 too
        for node, name in enumerate(("t", "twin")):
            cluster.admit(0, replace(spec, name=name), node=node)
            state = sim.tenant_states[name]
            oracle = SimpleNamespace(spec=state.spec, node=node)
            oracles.profile_tenant(sim, oracle, cache)
            assert sim.baseline_runtime_of(name) == oracle.baseline_runtime
            assert sim.peak_offered_bandwidth(spec) == max(
                p.offered_bandwidth for p in oracle.phases
            )
            for index, profile in enumerate(oracle.phases):
                state.phase_index = index
                assert state.current_offered_bandwidth() == profile.offered_bandwidth
                assert state.unit_time_idle[index] == profile.unit_time_idle
                for background in backgrounds:
                    assert sim._progress_rate(state, background) == (
                        oracles.progress_rate(oracle, profile, background)
                    )
        assert len(cache) == 1
        assert baseline_run(spec.workload, local_fraction, seed=seed).total_runtime == (
            oracle.baseline_runtime
        )

    @pytest.mark.parametrize("scenario", [rack_run, coupled_leg, chaos_cluster])
    def test_same_finish_times_as_under_the_oracle(self, scenario, monkeypatch):
        expected = scenario()
        oracles.use_phase_profiles(monkeypatch)
        sim = one_rack(nodes=1)
        sim.admit(0, TenantSpec(name="probe", workload=WORKLOADS["HPL"]))
        assert isinstance(sim.tenant_states["probe"].phases[0], oracles.PhaseProfile)
        assert scenario() == expected
