"""Tests for the rack co-simulation (a 1-rack cluster) and the
dynamic-interference feedback loop."""

import math

import numpy as np
import pytest

from racks import one_rack, run_rack
from repro.config.errors import FabricError
from repro.config.units import MiB
from repro.fabric import DynamicInterference, TenantSpec
from repro.fabric.pool import LEASE_REJECTED
from repro.interconnect.link import RemoteLink
from repro.config import SKYLAKE_EMULATION
from repro.memory.objects import MemoryObject
from repro.sim import ExecutionEngine, Platform
from repro.trace.patterns import SequentialPattern
from repro.workloads.base import PhaseSpec, WorkloadSpec


def bandwidth_hungry_spec(name="stream"):
    """A small synthetic tenant that streams most of its traffic from the pool."""
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


def tenants(n, spec=None, **kwargs):
    spec = spec if spec is not None else bandwidth_hungry_spec()
    return [
        TenantSpec(name=f"t{i}", workload=spec, local_fraction=0.5, **kwargs)
        for i in range(n)
    ]


class TestValidation:
    def test_needs_nodes(self):
        with pytest.raises(FabricError):
            one_rack([])

    def test_unique_names(self):
        spec = bandwidth_hungry_spec()
        duplicated = [
            TenantSpec(name="same", workload=spec),
            TenantSpec(name="same", workload=spec),
        ]
        with pytest.raises(FabricError):
            run_rack(duplicated)

    def test_more_tenants_than_nodes(self):
        with pytest.raises(FabricError):
            run_rack(tenants(3), nodes=2)

    def test_tenant_spec_validation(self):
        spec = bandwidth_hungry_spec()
        with pytest.raises(FabricError):
            TenantSpec(name="x", workload=spec, local_fraction=0.0)
        with pytest.raises(FabricError):
            TenantSpec(name="x", workload=spec, arrival=-1.0)
        with pytest.raises(FabricError):
            one_rack(tenants(1), epoch_seconds=0.0)


class TestEmergentInterference:
    def test_single_tenant_matches_baseline(self):
        sim, _ = run_rack(tenants(1))
        outcome = sim.outcome("t0")
        assert outcome.slowdown == pytest.approx(1.0, rel=1e-3)
        assert outcome.mean_background_bandwidth == 0.0

    def test_runtimes_degrade_monotonically_with_tenant_count(self):
        """The acceptance demo: >= 4 tenants on one port, emergent slowdown."""
        runtimes = []
        for n in (1, 2, 3, 4, 5, 6):
            _, summary = run_rack(tenants(n))
            runtimes.append(summary["mean_runtime"])
        assert all(b >= a - 1e-9 for a, b in zip(runtimes, runtimes[1:]))
        # Degradation is substantial and still strictly growing at 4+ tenants.
        assert runtimes[3] > runtimes[2] * 1.05
        assert runtimes[5] > runtimes[3] * 1.05
        assert runtimes[-1] > runtimes[0] * 1.5

    def test_co_runners_see_each_other(self):
        sim, _ = run_rack(tenants(3))
        for outcome in map(sim.outcome, ("t0", "t1", "t2")):
            assert outcome.mean_background_bandwidth > 0
            assert outcome.slowdown > 1.0

    def test_separate_ports_do_not_interfere(self):
        _, shared = run_rack(tenants(2), n_ports=1)
        _, isolated = run_rack(tenants(2), n_ports=2)
        assert isolated["mean_slowdown"] == pytest.approx(1.0, rel=1e-3)
        assert shared["mean_slowdown"] > isolated["mean_slowdown"]


class TestStretchedBaseline:
    """A tenant with its own ``baseline_runtime`` lasts as long as its job."""

    def test_alone_it_runs_its_own_baseline(self):
        spec = bandwidth_hungry_spec()
        engine = run_rack(tenants(1, spec))[0].outcome("t0").baseline_runtime
        sim, summary = run_rack(tenants(1, spec, baseline_runtime=3 * engine))
        outcome = sim.outcome("t0")
        assert outcome.baseline_runtime == 3 * engine
        assert outcome.runtime == pytest.approx(3 * engine, rel=1e-9)
        assert outcome.slowdown == pytest.approx(1.0, rel=1e-9)
        # The derived epoch reads the stretched baseline too.
        assert summary["epoch_seconds"] == pytest.approx(3 * engine / 40.0)

    def test_phases_keep_their_offered_bandwidth_and_rates(self):
        spec = bandwidth_hungry_spec()
        sim = one_rack(nodes=2)
        sim.admit(0, TenantSpec(name="engine", workload=spec), node=0)
        sim.admit(0, TenantSpec(name="job", workload=spec, baseline_runtime=1000.0), node=1)
        engine, job = sim.tenant_states["engine"], sim.tenant_states["job"]
        assert job.current_offered_bandwidth() == engine.current_offered_bandwidth()
        rates = sim.progress_rates()
        assert rates["job"] == rates["engine"]
        assert sim.rack_sim(0).baseline_runtime_of("job") == 1000.0
        assert sum(job.runtimes) == pytest.approx(1000.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(FabricError):
            TenantSpec(name="x", workload=bandwidth_hungry_spec(), baseline_runtime=0.0)


class TestPoolAdmission:
    def test_leases_never_exceed_capacity(self):
        spec = bandwidth_hungry_spec()
        lease = TenantSpec(name="x", workload=spec, local_fraction=0.5).lease_bytes
        capacity = 2 * lease + 1
        sim, summary = run_rack(tenants(5), pool_bytes=capacity)
        assert summary["max_leased_gb"] <= capacity / 1e9
        samples = sim.rack_sim(0).telemetry.leased_bytes
        assert max(samples) <= capacity

    def test_queued_tenants_run_after_release(self):
        spec = bandwidth_hungry_spec()
        lease = TenantSpec(name="x", workload=spec, local_fraction=0.5).lease_bytes
        sim, summary = run_rack(tenants(4), pool_bytes=2 * lease + 1)
        finished = [o for o in map(sim.outcome, ("t0", "t1", "t2", "t3")) if o.finish_time]
        waits = sorted(t.wait_time for t in finished)
        assert len(finished) == 4
        assert waits[0] == 0.0 and waits[1] == 0.0
        assert waits[2] > 0.0 and waits[3] > 0.0
        assert summary["makespan"] > max(t.runtime for t in finished)

    def test_oversized_tenant_rejected(self):
        spec = bandwidth_hungry_spec()
        lease = TenantSpec(name="x", workload=spec, local_fraction=0.5).lease_bytes
        sim, _ = run_rack(tenants(1), pool_bytes=lease // 2)
        outcome = sim.outcome("t0")
        assert outcome.lease_state == LEASE_REJECTED
        assert outcome.finish_time is None
        with pytest.raises(FabricError):
            sim.interference_for("t0")

    def test_capped_pool_trades_interference_for_waiting(self):
        spec = bandwidth_hungry_spec()
        lease = TenantSpec(name="x", workload=spec, local_fraction=0.5).lease_bytes
        _, all_at_once = run_rack(tenants(4))
        _, two_at_a_time = run_rack(tenants(4), pool_bytes=2 * lease + 1)
        assert two_at_a_time["mean_slowdown"] < all_at_once["mean_slowdown"]
        assert max(t["wait_s"] for t in two_at_a_time["tenants"]) > 0


class TestStaggeredArrivals:
    def test_staggered_arrivals(self):
        spec = bandwidth_hungry_spec()
        specs = [
            TenantSpec(name="early", workload=spec, local_fraction=0.5, arrival=0.0),
            TenantSpec(name="late", workload=spec, local_fraction=0.5, arrival=50.0),
        ]
        sim, _ = run_rack(specs)
        late = sim.outcome("late")
        assert late.start_time is not None and late.start_time >= 50.0
        assert sim.outcome("early").start_time == 0.0


class TestDynamicInterferenceAdapter:
    def test_validation(self):
        link = RemoteLink(SKYLAKE_EMULATION)
        with pytest.raises(FabricError):
            DynamicInterference([], [], link)
        with pytest.raises(FabricError):
            DynamicInterference([0.0, 0.0], [1.0, 1.0], link)
        with pytest.raises(FabricError):
            DynamicInterference([0.0, 1.0], [1.0, -1.0], link)

    def test_step_lookup(self):
        link = RemoteLink(SKYLAKE_EMULATION)
        dyn = DynamicInterference([0.0, 10.0, 20.0], [1e9, 2e9, 0.0], link)
        assert dyn.background_bandwidth(link, -5.0) == 1e9
        assert dyn.background_bandwidth(link, 0.0) == 1e9
        assert dyn.background_bandwidth(link, 10.0) == 2e9
        assert dyn.background_bandwidth(link, 15.0) == 2e9
        assert dyn.background_bandwidth(link, 99.0) == 0.0

    def test_loi_reporting(self):
        link = RemoteLink(SKYLAKE_EMULATION)
        bw = link.bandwidth_for_loi(30.0)
        dyn = DynamicInterference([0.0, 10.0], [bw, 0.0], link)
        assert dyn.mean_loi() == pytest.approx(15.0)
        assert dyn.peak_loi == pytest.approx(30.0)
        times, lois = dyn.loi_timeline()
        assert list(times) == [0.0, 10.0]
        assert lois[0] == pytest.approx(30.0)

    def test_feedback_into_engine_reproduces_cosim_slowdown(self):
        """Replaying the fabric-derived background through the ordinary engine
        yields the same runtime the co-simulation predicted."""
        spec = bandwidth_hungry_spec()
        sim, _ = run_rack(tenants(3, spec=spec))
        dyn = sim.interference_for("t0")
        platform = Platform.pooled(spec.footprint_bytes, 0.5)
        engine = ExecutionEngine(platform, seed=0)
        idle = engine.run(spec)
        replay = engine.run(spec, interference=dyn)
        assert replay.total_runtime > idle.total_runtime
        cosim_runtime = sim.outcome("t0").runtime
        assert replay.total_runtime == pytest.approx(cosim_runtime, rel=0.05)
        assert replay.interference_loi == pytest.approx(dyn.mean_loi())


class TestIncrementalStepping:
    """The scheduler-facing API: admit/withdraw/step/checkpoint/rollover."""

    def _incremental(self, n=3, epoch_seconds=None, **kwargs):
        return one_rack(nodes=n, epoch_seconds=epoch_seconds, **kwargs)

    def test_matches_batch_run(self):
        """Admitting everyone at t=0 and stepping to completion reproduces
        the closed loop exactly (same epochs, same backgrounds)."""
        specs = tenants(3)
        batch, summary = run_rack(specs)
        inc = self._incremental(3, epoch_seconds=summary["epoch_seconds"])
        for i, spec in enumerate(specs):
            lease = inc.admit(0, spec, node=i)
            assert lease.state == "granted"
        inc.step(summary["makespan"] * 2)
        for spec in specs:
            state = inc.tenant_states[spec.name]
            outcome = batch.outcome(spec.name)
            assert state.finish_time == pytest.approx(outcome.finish_time, abs=1e-9)

    def test_step_returns_baseline_seconds(self):
        spec = bandwidth_hungry_spec()
        inc = self._incremental(1)
        inc.admit(0, TenantSpec(name="solo", workload=spec, local_fraction=0.5))
        total = inc.rack_sim(0).baseline_runtime_of("solo")
        done = inc.step(total / 2)
        # Alone on the port: one wall second is one baseline second.
        assert done["solo"] == pytest.approx(total / 2, rel=1e-9)
        assert inc.clock == pytest.approx(total / 2)

    def test_horizon_bounds_epoch_and_rates_are_constant_within_it(self):
        """A dirty rack's horizon ends at its epoch end, where the rollover
        re-solves.  A clean rack's rollovers would skip their solve, so its
        horizon runs to the next rate change, past epoch ends that each still
        record their telemetry sample."""
        epoch = 0.2
        inc = self._incremental(2, epoch_seconds=epoch)
        rack = inc.rack_sim(0)
        for spec in tenants(2):
            inc.admit(0, spec)
        rack.set_background_offset(0, 1e9)  # an outside change: dirty
        assert 0 < rack.horizon() <= epoch
        inc.step(rack.horizon())  # the rollover there re-solves: clean
        start, samples = inc.clock, len(rack.telemetry)
        horizon = rack.horizon()
        assert horizon > epoch
        rates_before = inc.progress_rates()
        for fraction in (0.5, 1 - 1e-9):
            inc.step(start + horizon * fraction - inc.clock)
            assert inc.progress_rates() == rates_before
            crossed = math.floor(horizon * fraction / epoch)
            assert len(rack.telemetry) == samples + crossed
        assert crossed >= 2

    def test_tenant_states_is_a_read_only_live_view(self):
        inc = self._incremental(2)
        specs = tenants(2)
        inc.admit(0, specs[0])
        view = inc.rack_sim(0).tenant_states
        with pytest.raises(TypeError):
            view["intruder"] = view[specs[0].name]
        with pytest.raises(TypeError):
            del view[specs[0].name]
        inc.admit(0, specs[1])
        assert list(view) == [spec.name for spec in specs]
        inc.withdraw(specs[0].name)
        assert list(view) == [specs[1].name]

    def test_withdraw_releases_interference_and_pool(self):
        specs = tenants(2)
        inc = self._incremental(2)
        for spec in specs:
            inc.admit(0, spec)
        contended = inc.progress_rates()["t0"]
        inc.withdraw("t1")
        alone = inc.progress_rates()["t0"]
        assert alone > contended
        assert alone == pytest.approx(1.0, rel=1e-9)
        assert inc.rack_sim(0).pool.leased_bytes == specs[0].lease_bytes

    def test_withdraw_admits_queued_tenant(self):
        spec = bandwidth_hungry_spec()
        lease_bytes = TenantSpec(name="x", workload=spec, local_fraction=0.5).lease_bytes
        inc = self._incremental(2, pool_bytes=lease_bytes + 1)
        first = inc.admit(0, TenantSpec(name="a", workload=spec, local_fraction=0.5))
        second = inc.admit(0, TenantSpec(name="b", workload=spec, local_fraction=0.5))
        assert first.state == "granted" and second.state == "queued"
        assert "b" not in inc.progress_rates()
        inc.withdraw("a")
        assert second.state == "granted"
        assert "b" in inc.progress_rates()

    def test_checkpoint_rollover_is_deterministic(self):
        """The ISSUE's regression: re-stepping from a rolled-over checkpoint
        reproduces the speculative step bit for bit."""
        inc = self._incremental(3, epoch_seconds=0.05)
        for spec in tenants(3):
            inc.admit(0, spec)
        inc.step(0.1)
        checkpoint = inc.checkpoint()
        first = inc.step(0.7)
        first_states = {
            name: (s.phase_index, s.phase_elapsed, s.finish_time)
            for name, s in inc.tenant_states.items()
        }
        inc.rollover(checkpoint)
        assert inc.clock == checkpoint.clock
        second = inc.step(0.7)
        assert first == second
        second_states = {
            name: (s.phase_index, s.phase_elapsed, s.finish_time)
            for name, s in inc.tenant_states.items()
        }
        assert first_states == second_states

    def test_rollover_trims_recorded_timelines(self):
        inc = self._incremental(2, epoch_seconds=0.05)
        for spec in tenants(2):
            inc.admit(0, spec)
        telemetry = inc.rack_sim(0).telemetry
        checkpoint = inc.checkpoint()
        telemetry_len = len(telemetry.times)
        inc.step(0.5)
        assert len(telemetry.times) > telemetry_len
        inc.rollover(checkpoint)
        assert len(telemetry.times) == telemetry_len
        state = inc.tenant_states["t0"]
        assert len(state.background_times) == dict(checkpoint.racks[0].histories)["t0"]

    def test_checkpoint_invalidated_by_membership_change(self):
        specs = tenants(2)
        inc = self._incremental(2)
        inc.admit(0, specs[0])
        checkpoint = inc.checkpoint()
        inc.admit(0, specs[1])
        with pytest.raises(FabricError):
            inc.rollover(checkpoint)

    def test_admit_validation(self):
        spec = bandwidth_hungry_spec()
        inc = self._incremental(1)
        inc.admit(0, TenantSpec(name="a", workload=spec, local_fraction=0.5))
        with pytest.raises(FabricError):  # duplicate name
            inc.admit(0, TenantSpec(name="a", workload=spec, local_fraction=0.5))
        with pytest.raises(FabricError):  # no free node
            inc.admit(0, TenantSpec(name="b", workload=spec, local_fraction=0.5))
        with pytest.raises(FabricError):  # unknown tenant
            inc.withdraw("nope")
        with pytest.raises(FabricError):  # negative step
            inc.step(-1.0)

    def test_admit_in_the_past_rejected(self):
        spec = bandwidth_hungry_spec()
        inc = self._incremental(2)
        inc.admit(0, TenantSpec(name="a", workload=spec, local_fraction=0.5))
        inc.step(1.0)
        with pytest.raises(FabricError, match="in the past"):
            inc.admit(
                0, TenantSpec(name="b", workload=spec, local_fraction=0.5), time=0.5
            )


class TestResultReporting:
    def test_summary_structure(self):
        _, summary = run_rack(tenants(2))
        assert summary["makespan"] > 0
        assert len(summary["tenants"]) == 2
        row = summary["tenants"][0]
        assert {"name", "slowdown", "wait_s", "runtime_s", "lease_state"} <= set(row)

    def test_telemetry_series(self):
        sim, _ = run_rack(tenants(2))
        series = sim.rack_sim(0).telemetry.series()
        lengths = {len(v) for v in series.values()}
        assert len(lengths) == 1 and lengths.pop() > 0
        assert max(series["max_port_utilization"]) > 0
        assert all(np.diff(series["time"]) > 0)

    def test_unknown_tenant_lookup(self):
        sim, _ = run_rack(tenants(1))
        with pytest.raises(FabricError, match="no tenant named"):
            sim.outcome("nope")
