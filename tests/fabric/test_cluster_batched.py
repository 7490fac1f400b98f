"""The batched cluster loop vs the per-rack lockstep oracle.

:meth:`ClusterCoSimulator.step` advances every rack through
``step_frozen`` and rolls all due racks over with one batched solve.  The
oracle (``oracles.lockstep``) advances each rack through its own
``RackCoSimulator.step`` and resolves each rack alone, through the scalar
reference solver unless a test asks for the library's.  Trajectories must
agree within solver tolerance (both solve paths land within ``TOLERANCE`` of
the fixed point, hence within ``2 * TOLERANCE`` of each other — a relative
rate disagreement of about ``AGREEMENT / remote_bandwidth``), and the
bookkeeping — epoch-skip counters, checkpoint fidelity, fault accounting —
must be indistinguishable.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from oracles import lockstep
from repro import telemetry
from repro.config.units import GiB
from repro.fabric import ClusterCoSimulator, ClusterFabric, TenantSpec, uniform_tenants
from repro.fabric.faults import FaultSchedule

#: Solver-equivalence bounds shared with ``test_solver_equivalence.py``:
#: each path lands within TOLERANCE (1e6 B/s) of the fixed point, so two
#: paths disagree by at most AGREEMENT in delivered bytes/s.
TOLERANCE = 1e6
AGREEMENT = 2 * TOLERANCE

#: Rate-space agreement bound: AGREEMENT in delivered bytes/s is
#: AGREEMENT / remote_bandwidth (~1e-4) in relative progress-rate terms.
RATE_RTOL = 1e-3


def build_cluster(oracle=False, scalar=True, n_racks=4, **kwargs):
    fabric = ClusterFabric(n_racks=n_racks, nodes_per_rack=4, n_ports=2)
    sim = ClusterCoSimulator(fabric, seed=0, **kwargs)
    return lockstep(sim, scalar=scalar) if oracle else sim


def populate(sim, spec, per_rack=2):
    tenants = uniform_tenants(spec, per_rack, local_fraction=0.5)
    for rack in range(sim.fabric.n_racks):
        for i, tenant in enumerate(tenants):
            sim.admit(rack, replace(tenant, name=f"r{rack}-{tenant.name}"), node=i)
    return sim


def trajectory(sim, steps=8):
    dt = sim.horizon() / 2
    samples = []
    for _ in range(steps):
        sim.step(dt)
        samples.append((sim.clock, dict(sim.progress_rates())))
    return samples


def assert_trajectories_close(a, b, rtol=RATE_RTOL):
    assert len(a) == len(b)
    for (clock_a, rates_a), (clock_b, rates_b) in zip(a, b):
        assert clock_a == pytest.approx(clock_b, rel=1e-9)
        assert set(rates_a) == set(rates_b)
        for name in rates_a:
            assert rates_a[name] == pytest.approx(rates_b[name], rel=rtol), name


def chaos_run(oracle, spec):
    """Three elastic racks of four tenants, under every fault kind, to completion.

    Each rack pool holds three of its four leases and the cluster pool two,
    so two racks spill a tenant and the third shrinks its co-tenants.
    """
    tenants = [
        TenantSpec(name=f"r{rack}-t{slot}", workload=spec, arrival=0.25 * (4 * rack + slot))
        for rack in range(3)
        for slot in range(4)
    ]
    lease = tenants[0].lease_bytes
    sim = build_cluster(
        oracle=oracle,
        n_racks=3,
        rack_pool_bytes=3 * lease,
        cluster_pool_bytes=2 * lease,
        epoch_seconds=1.5,
        overcommit=True,
    )
    sim.inject_faults(
        FaultSchedule.seeded(
            seed=5,
            horizon=12.0,
            n_events=10,
            kinds=("port-degrade", "port-kill", "lease-shrink", "lease-revoke"),
            n_racks=3,
            n_ports=2,
            tenants=[t.name for t in tenants],
            nbytes=GiB,
            mean_duration=2.0,
        )
    )
    for index, tenant in enumerate(tenants):
        sim.admit(index // 4, tenant, time=tenant.arrival)
    return sim.run_to_completion()


class TestEquivalence:
    def test_batched_matches_scalar_per_rack(self, xsbench_spec):
        """The acceptance test: batched loop vs the scalar per-rack oracle."""
        oracle = populate(build_cluster(oracle=True), xsbench_spec)
        batched = populate(build_cluster(), xsbench_spec)
        assert_trajectories_close(trajectory(oracle), trajectory(batched))
        # The oracle's rollovers really solved through the scalar reference,
        # not through the library's solver.
        assert oracle.scalar_solves > 0

    def test_batched_matches_vectorized_per_rack(self, xsbench_spec):
        """Same solver kernel, batched vs per-rack driving: near-identical."""
        per_rack = populate(build_cluster(oracle=True, scalar=False), xsbench_spec)
        batched = populate(build_cluster(), xsbench_spec)
        assert_trajectories_close(trajectory(per_rack), trajectory(batched))

    def test_run_to_completion_agrees(self, xsbench_spec):
        runtimes = {}
        for oracle in (True, False):
            sim = populate(build_cluster(oracle=oracle), xsbench_spec)
            summary = sim.run_to_completion()
            runtimes[oracle] = {t["name"]: t["runtime_s"] for t in summary["tenants"]}
        assert set(runtimes[True]) == set(runtimes[False])
        for name, runtime in runtimes[True].items():
            assert runtimes[False][name] == pytest.approx(runtime, rel=1e-3)

    def test_mid_epoch_churn_desyncs_and_recovers(self, xsbench_spec):
        """An admission mid-epoch restarts one rack's epoch off the cluster
        epoch; the batched loop must keep agreeing with the oracle, where
        that rack rolls over alone."""
        sims = {
            "per_rack": populate(build_cluster(oracle=True), xsbench_spec),
            "batched": populate(build_cluster(), xsbench_spec),
        }
        extra = uniform_tenants(xsbench_spec, 1, local_fraction=0.5)[0]
        trajectories = {}
        for label, sim in sims.items():
            samples = []
            dt = sim.horizon() / 3
            sim.step(dt)
            sim.admit(1, replace(extra, name="late-arrival"), node=2)
            for _ in range(8):
                sim.step(dt)
                samples.append((sim.clock, dict(sim.progress_rates())))
            trajectories[label] = samples
        assert_trajectories_close(trajectories["per_rack"], trajectories["batched"])

    def test_seeded_chaos_matches_per_rack(self, xsbench_spec):
        """Faults, elastic pools and spills through the batched loop.

        XSBench never saturates a port, so both solvers return the offered
        demand exactly and the two loops differ only in float rounding.
        """
        oracle = chaos_run(True, xsbench_spec)
        batched = chaos_run(False, xsbench_spec)
        faults = batched["faults"]
        assert faults["faults_injected"] == oracle["faults"]["faults_injected"] > 0
        assert faults["revocations"] == oracle["faults"]["revocations"] > 0
        assert faults["stalled_tenants"] == oracle["faults"]["stalled_tenants"]
        assert faults["total_stall_seconds"] == pytest.approx(
            oracle["faults"]["total_stall_seconds"], rel=1e-9
        )
        assert [
            (t["name"], t["lease_state"], t["spilled"]) for t in batched["tenants"]
        ] == [(t["name"], t["lease_state"], t["spilled"]) for t in oracle["tenants"]]
        for ours, theirs in zip(batched["tenants"], oracle["tenants"]):
            assert ours["runtime_s"] == pytest.approx(theirs["runtime_s"], rel=1e-9)
            assert ours["wait_s"] == pytest.approx(theirs["wait_s"], rel=1e-9, abs=1e-12)


class TestBookkeeping:
    def test_skip_counters_identical_across_paths(self, xsbench_spec):
        counts = {}
        for oracle in (True, False):
            telemetry.enable(reset=True)
            try:
                sim = populate(build_cluster(oracle=oracle), xsbench_spec)
                dt = sim.horizon() / 2
                for _ in range(6):
                    sim.step(dt)
                registry = telemetry.registry()
                counts[oracle] = {
                    name: registry.counter(name).value
                    for name in (
                        "fabric.cosim.epoch_rollovers",
                        "fabric.cosim.epoch_resolves",
                        "fabric.cosim.epoch_skips",
                    )
                }
            finally:
                telemetry.disable()
                telemetry.registry().reset()
                telemetry.tracer().reset()
        assert counts[True] == counts[False]

    def test_checkpoint_rollback_replays_batched_path(self, xsbench_spec):
        sim = populate(build_cluster(), xsbench_spec)
        dt = sim.horizon() / 2
        sim.step(dt)
        checkpoint = sim.checkpoint()
        first = trajectory(sim, steps=4)
        sim.rollover(checkpoint)
        second = trajectory(sim, steps=4)
        assert first == second
