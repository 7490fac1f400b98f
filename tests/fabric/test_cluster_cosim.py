"""Determinism, checkpointing and dirty-rack tracking of the cluster stepper.

Three properties the scheduler integration depends on:

* **Determinism** — two clusters built from the same seed and fed the same
  admissions produce bit-identical trajectories.
* **Checkpoint fidelity** — rolling back to a :meth:`ClusterCoSimulator.checkpoint`
  and re-stepping replays the exact same trajectory (no hidden state
  survives the rollback).
* **Dirty-rack tracking** — the epoch-skip optimisation only ever skips
  racks whose solver inputs did not change; any membership or offset change
  forces a re-solve, so trajectories are identical to those of racks that
  re-solve at every rollover (``oracles.resolve_every_rollover``).

The cluster's closed loop is held to the rack's own: a 1-rack cluster run to
completion agrees with ``oracles.rack_run_oracle`` on every tenant.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from oracles import rack_run_oracle, resolve_every_rollover
from racks import one_rack
from repro import telemetry
from repro.config.errors import FabricError
from repro.fabric import (
    ClusterCoSimulator,
    ClusterFabric,
    FaultEvent,
    FaultSchedule,
    TenantSpec,
    uniform_tenants,
)
from repro.fabric.cosim import baseline_run
from repro.workloads import build_workload

GiB = 1024**3


@pytest.fixture()
def telemetry_on():
    telemetry.enable(reset=True)
    try:
        yield telemetry
    finally:
        telemetry.disable()
        telemetry.registry().reset()
        telemetry.tracer().reset()


def build_cluster(
    n_racks=3,
    nodes_per_rack=4,
    seed=0,
    rack_pool_bytes=None,
    cluster_pool_bytes=None,
    **fabric_kwargs,
):
    fabric = ClusterFabric(
        n_racks=n_racks, nodes_per_rack=nodes_per_rack, n_ports=2, **fabric_kwargs
    )
    return ClusterCoSimulator(
        fabric,
        rack_pool_bytes=rack_pool_bytes,
        cluster_pool_bytes=cluster_pool_bytes,
        seed=seed,
    )


def spread_tenants(sim, spec, per_rack=2):
    """Admit ``per_rack`` tenants into every rack, round-robin over nodes."""
    tenants = uniform_tenants(spec, per_rack, local_fraction=0.5)
    for rack in range(sim.fabric.n_racks):
        for i, tenant in enumerate(tenants):
            sim.admit(rack, replace(tenant, name=f"r{rack}-{tenant.name}"), node=i)
    return sim


def trajectory(sim, steps=6):
    """(clock, sorted per-tenant rates) after each of ``steps`` even steps."""
    dt = sim.horizon() / 2
    samples = []
    for _ in range(steps):
        sim.step(dt)
        samples.append((sim.clock, tuple(sorted(sim.progress_rates().items()))))
    return samples


class TestDeterminism:
    def test_same_seed_same_trajectory(self, xsbench_spec):
        runs = []
        for _ in range(2):
            sim = spread_tenants(build_cluster(seed=7), xsbench_spec)
            runs.append(trajectory(sim))
        assert runs[0] == runs[1]

    def test_same_seed_same_summary(self, xsbench_spec):
        summaries = []
        for _ in range(2):
            sim = spread_tenants(build_cluster(seed=3), xsbench_spec)
            summaries.append(sim.run_to_completion())
        assert summaries[0] == summaries[1]


class TestCheckpoint:
    def test_rollback_replays_bit_identically(self, xsbench_spec):
        sim = spread_tenants(build_cluster(), xsbench_spec)
        sim.step(sim.horizon())
        checkpoint = sim.checkpoint()
        first = trajectory(sim)
        sim.rollover(checkpoint)
        assert sim.clock == checkpoint.clock
        second = trajectory(sim)
        assert first == second

    def test_rollback_restores_clock_and_rates(self, xsbench_spec):
        sim = spread_tenants(build_cluster(), xsbench_spec)
        checkpoint = sim.checkpoint()
        rates_before = sim.progress_rates()
        sim.step(sim.horizon() * 3)
        sim.rollover(checkpoint)
        assert sim.clock == checkpoint.clock
        assert sim.progress_rates() == rates_before

    def test_rollback_rejects_foreign_checkpoint(self, xsbench_spec):
        small = spread_tenants(build_cluster(n_racks=2), xsbench_spec)
        large = spread_tenants(build_cluster(n_racks=3), xsbench_spec)
        with pytest.raises(FabricError, match="rack count"):
            large.rollover(small.checkpoint())

    def test_refused_rollback_restores_no_rack(self, xsbench_spec):
        """A fault applied on rack 1 after the checkpoint makes its rack
        refuse the rollback; rack 0 must not have been restored before."""
        sim = spread_tenants(build_cluster(n_racks=2), xsbench_spec)
        sim.inject_faults(
            FaultSchedule((FaultEvent(time=3.0, kind="port-degrade", port=0, rack=1, scale=0.5),))
        )
        sim.step(1.0)
        checkpoint = sim.checkpoint()
        sim.step(3.0)
        with pytest.raises(FabricError, match="predates applied fault"):
            sim.rollover(checkpoint)
        assert [rack.clock for rack in sim.rack_sims] == [4.0, 4.0]
        assert sim.clock == 4.0


class TestDirtyRackTracking:
    def test_idle_racks_skip_resolves(self, xsbench_spec, telemetry_on):
        """Epochs with unchanged demand are served from the cached solve."""
        sim = spread_tenants(build_cluster(), xsbench_spec)
        for _ in range(6):
            sim.step(sim.horizon())
        skips = telemetry.registry().counter("fabric.cosim.epoch_skips").value
        assert skips > 0

    def test_membership_change_forces_resolve(self, xsbench_spec, telemetry_on):
        sim = spread_tenants(build_cluster(), xsbench_spec)
        for _ in range(3):
            sim.step(sim.horizon())
        resolves_before = telemetry.registry().counter(
            "fabric.cosim.epoch_resolves"
        ).value
        name = sim.tenant_names[0]
        rates_before = sim.progress_rates()
        sim.withdraw(name)
        sim.step(sim.horizon())
        resolves_after = telemetry.registry().counter(
            "fabric.cosim.epoch_resolves"
        ).value
        assert resolves_after > resolves_before
        # The departed tenant's co-runners must see the change, not a stale
        # cached solve: their rates may only improve once contention drops.
        rates_after = sim.progress_rates()
        assert name not in rates_after
        for tenant, rate in rates_after.items():
            assert rate >= rates_before[tenant] - 1e-12

    def test_skip_on_off_trajectories_identical(self, xsbench_spec):
        """The batched rollover's skip vs racks that re-solve every rollover."""
        runs, skips = [], []
        for reference in (False, True):
            telemetry.enable(reset=True)
            try:
                sim = build_cluster(seed=5)
                if reference:
                    resolve_every_rollover(sim.rack_sims)
                spread_tenants(sim, xsbench_spec)
                samples = trajectory(sim, steps=4)
                name = sim.tenant_names[0]
                sim.withdraw(name)
                samples += trajectory(sim, steps=4)
                runs.append(samples)
                registry = telemetry.registry()
                skips.append(registry.counter("fabric.cosim.epoch_skips").value)
            finally:
                telemetry.disable()
                telemetry.registry().reset()
                telemetry.tracer().reset()
        assert runs[0] == runs[1]
        assert skips[1] == 0 < skips[0]


class TestSpill:
    def test_oversubscribed_rack_spills_to_cluster_pool(self, xsbench_spec):
        lease_bytes = uniform_tenants(xsbench_spec, 1)[0].lease_bytes
        sim = build_cluster(
            n_racks=2,
            rack_pool_bytes=lease_bytes + 1,
            cluster_pool_bytes=8 * lease_bytes,
        )
        tenants = uniform_tenants(xsbench_spec, 3, local_fraction=0.5)
        for i, tenant in enumerate(tenants):
            sim.admit(0, tenant, node=i)
        assert not sim.is_spilled(tenants[0].name)
        assert sim.is_spilled(tenants[1].name)
        assert sim.is_spilled(tenants[2].name)
        assert sim.cluster_pool.leased_bytes == 2 * lease_bytes

    def test_withdraw_releases_cluster_pool_lease(self, xsbench_spec):
        lease_bytes = uniform_tenants(xsbench_spec, 1)[0].lease_bytes
        sim = build_cluster(
            n_racks=2,
            rack_pool_bytes=lease_bytes + 1,
            cluster_pool_bytes=8 * lease_bytes,
        )
        tenants = uniform_tenants(xsbench_spec, 2, local_fraction=0.5)
        for i, tenant in enumerate(tenants):
            sim.admit(0, tenant, node=i)
        assert sim.cluster_pool.leased_bytes == lease_bytes
        sim.withdraw(tenants[1].name)
        assert sim.cluster_pool.leased_bytes == 0
        assert not sim.is_spilled(tenants[1].name)

    def test_refused_admission_leases_nothing(self, xsbench_spec, telemetry_on):
        """A rack with no free node refuses a tenant that would spill before
        either pool leases it a byte."""
        sim = ClusterCoSimulator(
            ClusterFabric(n_racks=1, nodes_per_rack=1),
            rack_pool_bytes=1,
            cluster_pool_bytes=1 << 40,
        )
        first, second = (TenantSpec(name=name, workload=xsbench_spec) for name in "ab")
        sim.admit(0, first)
        pools = (sim.cluster_pool, sim.rack_sim(0).pool)
        before = [pool.sample(sim.clock) for pool in pools]
        spills = telemetry_on.registry().counter("fabric.cluster.spills")
        assert before[0].leased_bytes == first.lease_bytes > 0
        assert spills.value == 1
        with pytest.raises(FabricError, match="no free node"):
            sim.admit(0, second)
        assert [pool.sample(sim.clock) for pool in pools] == before
        assert spills.value == 1
        assert sim.tenant_names == ("a",)
        sim.withdraw("a")
        assert sim.cluster_pool.leased_bytes == 0

    def test_spilled_tenants_run_slower_than_local(self, xsbench_spec):
        """Uplink/spine background offsets must cost spilled tenants time."""
        lease_bytes = uniform_tenants(xsbench_spec, 1)[0].lease_bytes
        spilled = build_cluster(
            n_racks=2,
            rack_pool_bytes=lease_bytes + 1,
            cluster_pool_bytes=16 * lease_bytes,
        )
        local = build_cluster(n_racks=2)
        tenants = uniform_tenants(xsbench_spec, 3, local_fraction=0.5)
        for sim in (spilled, local):
            for i, tenant in enumerate(tenants):
                sim.admit(0, tenant, node=i)
        spilled_summary = spilled.run_to_completion()
        local_summary = local.run_to_completion()
        assert spilled_summary["spilled_tenants"] == 2
        assert local_summary["spilled_tenants"] == 0
        assert spilled_summary["makespan"] >= local_summary["makespan"]


class TestValidationAndSummary:
    def test_fabric_rejects_degenerate_shapes(self):
        with pytest.raises(FabricError, match="at least one rack"):
            ClusterFabric(n_racks=0, nodes_per_rack=4)
        with pytest.raises(FabricError, match="uplink_capacity_scale"):
            ClusterFabric(n_racks=2, nodes_per_rack=4, uplink_capacity_scale=0.5)

    def test_simulator_rejects_bad_pool_vector(self):
        fabric = ClusterFabric(n_racks=3, nodes_per_rack=4)
        with pytest.raises(FabricError, match="3 rack pool capacities"):
            ClusterCoSimulator(fabric, rack_pool_bytes=[1 * GiB])

    def test_simulator_rejects_non_positive_epoch(self):
        fabric = ClusterFabric(n_racks=2, nodes_per_rack=2)
        for epoch in (0.0, -1.0):
            with pytest.raises(FabricError, match="epoch_seconds must be positive"):
                ClusterCoSimulator(fabric, epoch_seconds=epoch)

    def test_admission_in_the_past_is_refused(self, xsbench_spec):
        sim = build_cluster(n_racks=1)
        first, second, third = uniform_tenants(xsbench_spec, 3)
        sim.admit(0, first, time=5.0)
        assert sim.clock == 5.0
        with pytest.raises(FabricError, match="in the past"):
            sim.admit(0, second, time=2.0)
        # A caller's clock that trails by rounding is not the past.
        sim.admit(0, third, time=5.0 - 1e-12)
        assert sim.tenant_names == (first.name, third.name)
        assert sim.clock == 5.0

    def test_run_to_completion_summary_shape(self, xsbench_spec):
        sim = spread_tenants(build_cluster(n_racks=2), xsbench_spec)
        summary = sim.run_to_completion()
        assert summary["n_racks"] == 2
        assert summary["makespan"] > 0
        assert summary["mean_slowdown"] >= 1.0
        assert len(summary["tenants"]) == 4
        for tenant in summary["tenants"]:
            assert tenant["lease_state"] == "granted"
            assert tenant["slowdown"] >= 1.0
        # Everything finished, so the cluster is empty again.
        assert sim.tenant_names == ()


class TestClosedLoopMatchesTheRack:
    """``run_to_completion(arrivals)`` admits each tenant at its arrival and
    frees its lease the moment it finishes, exactly as the rack's ``run()``."""

    @pytest.mark.parametrize(
        "mix, leases_fit, spacing",
        [
            (("XSBench",) * 3, 1, 0.6),
            (("BFS",) * 3, 1, 0.6),
            (("HPL",) * 3, 1, 0.6),
            (("XSBench", "BFS", "HPL", "XSBench"), 1, 0.6),
            (("HPL", "XSBench", "BFS", "HPL", "BFS"), 2, 0.3),
        ],
    )
    def test_one_rack_cluster_agrees_with_rack_run(self, mix, leases_fit, spacing):
        specs = {name: build_workload(name) for name in set(mix)}
        # Arrivals a fraction of a baseline apart: tenants queue for the
        # pool, and some finish before a later one arrives.
        stagger = spacing * max(
            baseline_run(spec).total_runtime for spec in specs.values()
        )
        tenants = [
            TenantSpec(name=f"{name}-{i}", workload=specs[name], arrival=i * stagger)
            for i, name in enumerate(mix)
        ]
        capacity = sum(sorted(t.lease_bytes for t in tenants)[-leases_fit:])
        epoch = stagger / 25.0
        rack = rack_run_oracle(
            one_rack(tenants, pool_bytes=capacity, epoch_seconds=epoch), tenants
        )
        cluster = ClusterCoSimulator(
            ClusterFabric(n_racks=1, nodes_per_rack=len(tenants)),
            rack_pool_bytes=capacity,
            epoch_seconds=epoch,
        )
        summary = cluster.run_to_completion([(0, spec) for spec in tenants])
        got = {t["name"]: t for t in summary["tenants"]}
        assert sorted(got) == sorted(t.name for t in tenants)
        outcomes = rack["outcomes"].values()
        assert any(outcome.wait_time > 0 for outcome in outcomes)
        for outcome in outcomes:
            # The rack releases a finished tenant's lease; the cluster
            # reports the lease its finished tenant held.
            assert outcome.lease_state == "released"
            assert got[outcome.name]["lease_state"] == "granted"
            assert got[outcome.name]["wait_s"] == pytest.approx(
                outcome.wait_time, rel=1e-12, abs=1e-12
            )
            assert got[outcome.name]["runtime_s"] == pytest.approx(
                outcome.runtime, rel=1e-12
            )
        assert summary["makespan"] == pytest.approx(rack["summary"]["makespan"], rel=1e-12)

    def test_arrivals_after_an_idle_gap_and_a_rejection(self):
        spec = build_workload("XSBench")
        gap = 2.0 * baseline_run(spec).total_runtime
        small = TenantSpec(name="small", workload=spec, pool_bytes=GiB)
        huge = TenantSpec(name="huge", workload=spec, arrival=1.0, pool_bytes=4 * GiB)
        late = TenantSpec(name="late", workload=spec, arrival=gap, pool_bytes=GiB)
        sim = ClusterCoSimulator(
            ClusterFabric(n_racks=2, nodes_per_rack=2), rack_pool_bytes=2 * GiB
        )
        summary = sim.run_to_completion([(1, late), (0, small), (0, huge)])
        got = {t["name"]: t for t in summary["tenants"]}
        assert got["huge"]["lease_state"] == "rejected"
        assert got["late"]["lease_state"] == "granted"
        assert got["late"]["wait_s"] == 0.0
        assert summary["makespan"] == pytest.approx(
            gap + baseline_run(spec).total_runtime, rel=1e-9
        )
