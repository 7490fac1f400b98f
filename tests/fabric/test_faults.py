"""The failure model's guarantees (docs/failure_model.md).

Four contracts: seeded schedules are pure functions of their seed (same seed,
bit-identical telemetry), the empty schedule is invisible (outputs identical
to a simulator that never saw the fault layer), revoke/shrink accounting
holds its invariants (leased bytes never negative, migration charged exactly
once), and checkpoints tolerate pending faults but refuse applied ones.
"""

import math

import pytest

from racks import on_rack, one_rack, run_rack
from repro.config.errors import FabricError
from repro.config.units import MiB
from repro.fabric import (
    DEFAULT_DRAIN_BYTES_PER_S,
    ClusterCoSimulator,
    ClusterFabric,
    FaultEvent,
    FaultSchedule,
    TenantSpec,
    parse_fault_spec,
)
from repro.fabric.cosim import RackCoSimulator
from repro.memory.objects import MemoryObject
from repro.trace.patterns import SequentialPattern
from repro.workloads.base import PhaseSpec, WorkloadSpec


def pool_hungry_spec(name="stream"):
    data = MemoryObject(name="data", size_bytes=256 * MiB, pattern=SequentialPattern())
    phases = (
        PhaseSpec(
            name="p1",
            flops=2e10,
            dram_bytes=60_000 * MiB,
            object_traffic={"data": 1.0},
            mlp=8.0,
        ),
    )
    return WorkloadSpec(
        name=name, input_label="t1", scale=1.0, objects=(data,), phases=phases
    )


def tenants(n, spec=None, stagger=0.0, **kwargs):
    spec = spec if spec is not None else pool_hungry_spec()
    return [
        TenantSpec(
            name=f"t{i}", workload=spec, local_fraction=0.5,
            arrival=i * stagger, **kwargs,
        )
        for i in range(n)
    ]


def kill_schedule(time=0.3, duration=0.2, port=0):
    return FaultSchedule(
        (FaultEvent(time=time, kind="port-kill", port=port, duration=duration),)
    )


#: Lease bytes whose give-back drains in 1 ms at the default drain rate.
SMALL_SHRINK = 4 * MiB


def drain_then_kill(duration=None):
    """t0 starts a 1 ms drain and its port 0 dies in the same instant."""
    return FaultSchedule(
        (
            FaultEvent(time=0.2, kind="lease-shrink", tenant="t0", nbytes=SMALL_SHRINK),
            FaultEvent(time=0.2, kind="port-kill", port=0, duration=duration),
        )
    )


def run_faulted(specs, schedule, drain_bytes_per_s=None, **kwargs):
    """``specs`` run to completion on their 1-rack cluster (seed 0) under
    ``schedule``: the rack and its summary."""
    sim = one_rack(specs, seed=0, **kwargs)
    sim.inject_faults(schedule, drain_bytes_per_s=drain_bytes_per_s)
    return sim, sim.run_to_completion(on_rack(specs))


def outcomes(sim, n):
    """The outcomes of tenants ``t0`` .. ``t<n-1>``, by name."""
    return {f"t{i}": sim.outcome(f"t{i}") for i in range(n)}


def one_tenant_per_port_cluster():
    sim = ClusterCoSimulator(ClusterFabric(n_racks=1, nodes_per_rack=2, n_ports=2), seed=0)
    for spec in tenants(2):
        sim.admit(0, spec)
    return sim


@pytest.fixture()
def cluster_steps(monkeypatch):
    """Every ``dt`` passed to :meth:`ClusterCoSimulator.step`, in order."""
    steps = []
    step = ClusterCoSimulator.step

    def counting_step(self, dt):
        steps.append(dt)
        return step(self, dt)

    monkeypatch.setattr(ClusterCoSimulator, "step", counting_step)
    return steps


class TestFaultEventValidation:
    def test_port_kinds_need_port(self):
        with pytest.raises(FabricError):
            FaultEvent(time=1.0, kind="port-kill")

    def test_lease_kinds_need_tenant(self):
        with pytest.raises(FabricError):
            FaultEvent(time=1.0, kind="lease-revoke")

    def test_unknown_kind(self):
        with pytest.raises(FabricError):
            FaultEvent(time=1.0, kind="meteor-strike")

    def test_negative_time(self):
        with pytest.raises(FabricError):
            FaultEvent(time=-1.0, kind="port-kill", port=0)

    def test_degrade_scale_range(self):
        with pytest.raises(FabricError):
            FaultEvent(time=1.0, kind="port-degrade", port=0, scale=1.5)


class TestParseFaultSpec:
    def test_round_trip(self):
        event = parse_fault_spec("port-kill@5.0:port=1,duration=2.5")
        assert event.kind == "port-kill"
        assert event.time == 5.0
        assert event.port == 1
        assert event.duration == 2.5

    def test_gb_is_gib(self):
        event = parse_fault_spec("pool-capacity-loss@1.0:gb=2")
        assert event.nbytes == 2 * 1024**3

    def test_tenant_key(self):
        event = parse_fault_spec("lease-revoke@3.0:tenant=t1")
        assert event.tenant == "t1"

    def test_malformed(self):
        for spec in ("port-kill", "port-kill@x:port=0", "port-kill@1.0:port"):
            with pytest.raises(FabricError):
                parse_fault_spec(spec)


class TestEmptyScheduleIsInvisible:
    def test_outputs_bit_identical_to_uninjected_run(self):
        plain_sim, plain = run_rack(tenants(3), seed=0)
        injected_sim, injected = run_faulted(tenants(3), FaultSchedule(()))
        assert injected["makespan"] == plain["makespan"]
        assert injected == plain
        assert outcomes(injected_sim, 3) == outcomes(plain_sim, 3)
        assert (
            injected_sim.rack_sim(0).telemetry.series()
            == plain_sim.rack_sim(0).telemetry.series()
        )
        assert "faults" not in plain

    def test_incremental_rates_identical(self):
        a = one_rack(nodes=2, epoch_seconds=0.5)
        b = one_rack(nodes=2, epoch_seconds=0.5)
        b.inject_faults(FaultSchedule(()))
        spec = pool_hungry_spec()
        for sim in (a, b):
            for i in range(2):
                sim.admit(0, TenantSpec(name=f"t{i}", workload=spec, local_fraction=0.5))
        for _ in range(5):
            assert a.step(0.7) == b.step(0.7)
        assert a.progress_rates() == b.progress_rates()
        assert a.horizon() == b.horizon()


class TestSeededDeterminism:
    def test_same_seed_same_schedule(self):
        kw = dict(seed=11, horizon=10.0, n_events=5, n_ports=2)
        assert FaultSchedule.seeded(**kw).events == FaultSchedule.seeded(**kw).events

    def test_different_seed_different_schedule(self):
        a = FaultSchedule.seeded(seed=1, horizon=10.0, n_events=5)
        b = FaultSchedule.seeded(seed=2, horizon=10.0, n_events=5)
        assert a.events != b.events

    def test_seeded_runs_bit_identical(self):
        def run():
            sim, summary = run_faulted(
                tenants(2),
                FaultSchedule.seeded(
                    seed=7, horizon=1.0, n_events=3,
                    kinds=("port-kill", "port-degrade"), n_ports=1,
                ),
            )
            return (
                summary["makespan"],
                outcomes(sim, 2),
                summary["faults"],
                sim.rack_sim(0).telemetry.series(),
            )

        assert run() == run()


class TestPortFaults:
    def test_kill_stalls_for_exactly_the_window(self):
        sim, _ = run_faulted(tenants(2), kill_schedule(time=0.3, duration=0.2))
        report = sim.blast_radius()
        assert report.faults_injected == 2  # kill + paired restore
        assert set(report.stalled_tenants) == {"t0", "t1"}
        assert report.total_stall_seconds == pytest.approx(0.4)

    def test_kill_extends_makespan_by_the_window(self):
        _, clean = run_rack(tenants(2), seed=0)
        _, faulted = run_faulted(tenants(2), kill_schedule(time=0.3, duration=0.2))
        assert faulted["makespan"] == pytest.approx(clean["makespan"] + 0.2)

    def test_degrade_slows_without_stalling(self):
        _, clean = run_rack(tenants(2), seed=0)
        sim, result = run_faulted(
            tenants(2),
            FaultSchedule(
                (FaultEvent(time=0.2, kind="port-degrade", port=0, scale=0.5,
                            duration=0.5),)
            ),
        )
        assert result["makespan"] > clean["makespan"]
        assert sim.blast_radius().total_stall_seconds == 0.0

    def test_debt_behind_killed_port_does_not_pin_the_horizon(self, cluster_steps):
        """A tenant behind a killed port owes its drain but cannot pay it.

        The port restore is a fault time and bounds the horizon anyway, so
        the stall must pass in epoch-sized steps, not debt-sized (1 ms) ones.
        """
        clean = one_tenant_per_port_cluster()
        before = {t["name"]: t["runtime_s"] for t in clean.run_to_completion()["tenants"]}
        kill = 2.0
        sim = one_tenant_per_port_cluster()
        sim.inject_faults(drain_then_kill(duration=kill))
        cluster_steps.clear()
        after = {t["name"]: t["runtime_s"] for t in sim.run_to_completion()["tenants"]}
        # One tenant per port: t0 loses exactly the kill window plus its drain.
        assert after["t0"] == pytest.approx(
            before["t0"] + kill + SMALL_SHRINK / DEFAULT_DRAIN_BYTES_PER_S, rel=1e-12
        )
        # t1 sees no background in either run, so only the cut points of
        # its steps, which the faults move, can change its runtime's last bit.
        for run in (clean, sim):
            assert not run.interference_for("t1").bandwidths.any()
        assert abs(after["t1"] - before["t1"]) <= 2 * math.ulp(before["t1"])
        assert len(cluster_steps) < 2 * after["t0"] / sim.epoch_seconds

    def test_seeded_kills_during_drains_keep_epoch_sized_steps(
        self, cluster_steps, monkeypatch
    ):
        """Seed 1 kills port 1 while t1 drains a 1 ms give-back.

        The old horizon rule (every owed debt bounds the step) is the oracle:
        it reaches the same runtimes, only in debt-sized steps.
        """

        def run():
            cluster_steps.clear()
            sim = one_tenant_per_port_cluster()
            sim.inject_faults(
                FaultSchedule.seeded(
                    seed=1, horizon=3.0, n_events=6,
                    kinds=("port-kill", "lease-shrink"), n_ports=2,
                    tenants=["t0", "t1"], nbytes=SMALL_SHRINK, mean_duration=1.0,
                )
            )
            summary = sim.run_to_completion()
            runtimes = {t["name"]: t["runtime_s"] for t in summary["tenants"]}
            return runtimes, len(cluster_steps), sim.epoch_seconds

        runtimes, steps, epoch = run()
        monkeypatch.setattr(
            RackCoSimulator,
            "_draining",
            lambda self, state: state.running and state.migration_debt > 0.0,
        )
        oracle, oracle_steps, _ = run()
        assert runtimes == pytest.approx(oracle, rel=1e-12)
        assert steps < 2 * max(runtimes.values()) / epoch < oracle_steps

    def test_debt_behind_a_port_that_never_returns_is_a_permanent_stall(self):
        """Debt nobody can pay is no progress: the loop stops, not spins, on a
        pool of exactly the leases and on an unbounded one."""
        rack, _ = run_faulted(tenants(2), drain_then_kill(), n_ports=2)
        finish = {name: o.finish_time for name, o in outcomes(rack, 2).items()}
        assert finish["t0"] is None and finish["t1"] is not None
        cluster = one_tenant_per_port_cluster()
        cluster.inject_faults(drain_then_kill())
        summary = cluster.run_to_completion()
        runtimes = {t["name"]: t["runtime_s"] for t in summary["tenants"]}
        assert runtimes["t0"] == 0.0 and runtimes["t1"] > 0.0
        assert summary["faults"]["stalled_tenants"] == ["t0"]

    def test_inject_twice_refused(self):
        sim = one_rack(tenants(1), seed=0)
        sim.inject_faults(kill_schedule())
        with pytest.raises(FabricError):
            sim.inject_faults(kill_schedule())

    @pytest.mark.parametrize("drain", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "make_sim",
        [lambda: one_rack(tenants(2), seed=0), one_tenant_per_port_cluster],
        ids=["rack", "cluster"],
    )
    def test_drain_rate_must_be_finite(self, make_sim, drain):
        """A NaN or infinite drain rate would price every give-back stall at 0 s."""
        with pytest.raises(FabricError, match="positive and finite"):
            make_sim().inject_faults(kill_schedule(), drain_bytes_per_s=drain)


class TestRevokeAndShrinkAccounting:
    def test_revoke_charges_migration_exactly_once(self):
        drain = 1e9
        sim, _ = run_faulted(
            tenants(2),
            FaultSchedule(
                (FaultEvent(time=0.4, kind="lease-revoke", tenant="t1"),)
            ),
            drain_bytes_per_s=drain,
        )
        impact = {t.name: t for t in sim.blast_radius().tenants}["t1"]
        lease_bytes = tenants(2)[1].lease_bytes
        assert impact.migrated_bytes == lease_bytes
        assert impact.stall_seconds == pytest.approx(lease_bytes / drain)
        assert impact.revocations == 1
        assert impact.readmission_latency is not None
        # The pool's reclaim log was drained exactly once.
        assert sim.rack_sim(0).pool.consume_reclaims() == ()

    def test_withdrawn_tenant_stays_in_the_blast_radius(self):
        sim = one_rack(nodes=2, seed=0)
        sim.inject_faults(
            FaultSchedule((FaultEvent(time=1.0, kind="lease-revoke", tenant="t1"),))
        )
        for spec in tenants(2):
            sim.admit(0, spec)
        sim.step(1.5)
        before = sim.blast_radius()
        sim.withdraw("t1", time=2.0)
        after = sim.blast_radius()
        assert before.revocations == after.revocations == 1
        assert after.faults_injected == 1
        assert [t.name for t in after.tenants] == ["t0", "t1"]
        assert after.tenants[1].revocations == 1
        assert after.tenants[1].stall_seconds >= before.tenants[1].stall_seconds > 0

    def test_revoked_tenant_keeps_original_start_time(self):
        sim, _ = run_faulted(
            tenants(2),
            FaultSchedule((FaultEvent(time=0.4, kind="lease-revoke", tenant="t1"),)),
        )
        outcome = sim.outcome("t1")
        assert outcome.wait_time == 0.0
        assert outcome.slowdown > 1.0

    def test_leased_bytes_never_negative_under_capacity_loss(self):
        sim, _ = run_faulted(
            tenants(3),
            FaultSchedule(
                (FaultEvent(time=0.4, kind="pool-capacity-loss",
                            nbytes=2 * tenants(1)[0].lease_bytes),)
            ),
        )
        pool = sim.rack_sim(0).pool
        assert pool.leased_bytes >= 0
        assert pool.leased_bytes <= pool.capacity_bytes

    def test_shrink_keeps_tenant_running(self):
        shrink = tenants(1)[0].lease_bytes // 4
        sim, summary = run_faulted(
            tenants(2),
            FaultSchedule(
                (FaultEvent(time=0.4, kind="lease-shrink", tenant="t0",
                            nbytes=shrink),)
            ),
        )
        impact = {t.name: t for t in sim.blast_radius().tenants}["t0"]
        assert impact.migrated_bytes == shrink
        assert impact.revocations == 0
        assert all(o.lease_state == "released" for o in outcomes(sim, 2).values())
        assert all(t["lease_state"] == "granted" for t in summary["tenants"])


class TestLeaseFaultsFollowTheirTenant:
    """A lease event acts on the rack hosting its tenant when it fires."""

    def cluster(self, event):
        """t0 on rack 0 and t1 on rack 1, under the one event ``event``."""
        sim = ClusterCoSimulator(ClusterFabric(n_racks=2, nodes_per_rack=2), seed=0)
        sim.inject_faults(FaultSchedule((event,)))
        t0, t1 = tenants(2)
        sim.admit(0, t0)
        sim.admit(1, t1)
        return sim

    def test_a_revoke_naming_another_rack_revokes_its_victim(self):
        sim = self.cluster(
            FaultEvent(time=0.4, kind="lease-revoke", rack=0, tenant="t1")
        )
        sim.step(0.5)
        report = sim.blast_radius()
        assert report.faults_injected == 1
        assert report.revocations == 1
        assert report.stalled_tenants == ("t1",)
        assert sim.rack_sim(1).tenant_states["t1"].revocations == 1

    def test_a_victim_no_rack_hosts_is_a_counted_no_op(self):
        sim = self.cluster(
            FaultEvent(time=0.4, kind="lease-revoke", rack=1, tenant="gone")
        )
        sim.step(0.5)
        report = sim.blast_radius()
        assert (report.faults_injected, report.revocations) == (1, 0)
        assert report.stalled_tenants == ()

    def test_an_event_naming_a_rack_the_cluster_lacks_stays_inert(self):
        sim = self.cluster(
            FaultEvent(time=0.4, kind="lease-revoke", rack=2, tenant="t1")
        )
        sim.step(0.5)
        report = sim.blast_radius()
        assert (report.faults_injected, report.revocations) == (0, 0)


class TestElasticOvercommit:
    def test_admission_by_shrinking(self):
        specs = tenants(2, stagger=0.3)
        lease = specs[0].lease_bytes
        capacity = int(1.5 * lease)
        sim, _ = run_rack(specs, pool_bytes=capacity, overcommit=True, seed=0)
        assert sim.rack_sim(0).pool.min_lease_fraction == 0.5
        report = sim.blast_radius()
        shrunk = {t.name: t for t in report.tenants}["t0"]
        # t0 gave back exactly the bytes t1 was missing, charged once.
        assert shrunk.migrated_bytes == lease - (capacity - lease)
        assert shrunk.stall_seconds > 0.0
        assert all(o.finish_time is not None for o in outcomes(sim, 2).values())

    def test_rigid_pool_queues_instead(self):
        specs = tenants(2, stagger=0.3)
        lease = specs[0].lease_bytes
        sim, _ = run_rack(specs, pool_bytes=int(1.5 * lease), seed=0)
        waits = {name: o.wait_time for name, o in outcomes(sim, 2).items()}
        assert waits["t1"] > 0.0  # waited for t0 to release

    def test_floor_respected(self):
        # Even full reclaim cannot fit a third full lease: it must queue.
        specs = tenants(3, stagger=0.3)
        lease = specs[0].lease_bytes
        sim = one_rack(specs, pool_bytes=2 * lease, overcommit=True, seed=0)
        sim.rack_sim(0).pool.min_lease_fraction = 0.9
        sim.run_to_completion(on_rack(specs))
        assert sim.rack_sim(0).pool.leased_bytes >= 0
        waits = {name: o.wait_time for name, o in outcomes(sim, 3).items()}
        assert waits["t2"] > 0.0

    def test_an_elastic_pool_reports_a_blast_radius_even_unharmed(self):
        """Racks and clusters share one rule: an armed schedule, an applied
        fault or an elastic pool gives the result a blast radius."""
        _, rack = run_rack(tenants(2), pool_bytes=1 << 40, overcommit=True, seed=0)
        assert rack["faults"]["faults_injected"] == 0

        def cluster(overcommit):
            sim = ClusterCoSimulator(
                ClusterFabric(n_racks=2, nodes_per_rack=2), seed=0, overcommit=overcommit
            )
            return sim.run_to_completion(list(enumerate(tenants(2))))

        assert cluster(True)["faults"]["stalled_tenants"] == []
        assert "faults" not in cluster(False)


class TestCheckpointContract:
    def _armed_sim(self):
        sim = one_rack(nodes=2, epoch_seconds=0.5)
        spec = pool_hungry_spec()
        for i in range(2):
            sim.admit(0, TenantSpec(name=f"t{i}", workload=spec, local_fraction=0.5))
        sim.inject_faults(kill_schedule(time=0.6, duration=0.2))
        return sim

    def test_rollback_with_pending_faults_is_bit_identical(self):
        sim = self._armed_sim()
        sim.step(0.2)
        checkpoint = sim.checkpoint()
        first = sim.step(0.2)  # stays below t=0.6: fault still pending
        rates_first = sim.progress_rates()
        sim.rollover(checkpoint)
        assert sim.step(0.2) == first
        assert sim.progress_rates() == rates_first

    def test_replay_across_pending_fault_is_deterministic(self):
        sim = self._armed_sim()
        sim.step(0.2)
        checkpoint = sim.checkpoint()
        first = sim.step(0.6)  # crosses t=0.6, applies the kill...
        with pytest.raises(FabricError):
            sim.rollover(checkpoint)  # ...so the checkpoint is dead
        # A fresh simulator replays the identical trajectory.
        again = self._armed_sim()
        again.step(0.2)
        assert again.step(0.6) == first

    def test_rollback_across_applied_fault_raises(self):
        sim = self._armed_sim()
        checkpoint = sim.checkpoint()
        sim.step(1.0)  # applies the kill at t=0.6
        with pytest.raises(FabricError):
            sim.rollover(checkpoint)


class TestSchedulerVisibility:
    def test_killed_port_reports_zero_rates_and_health(self):
        sim = one_rack(nodes=2, epoch_seconds=0.5)
        spec = pool_hungry_spec()
        for i in range(2):
            sim.admit(0, TenantSpec(name=f"t{i}", workload=spec, local_fraction=0.5))
        sim.inject_faults(
            FaultSchedule((FaultEvent(time=0.3, kind="port-kill", port=0),))
        )
        assert sim.rack_sim(0).port_health(0) == 1.0
        sim.step(0.5)
        assert sim.rack_sim(0).port_health(0) == 0.0
        assert all(rate == 0.0 for rate in sim.progress_rates().values())
