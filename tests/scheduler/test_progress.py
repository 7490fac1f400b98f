"""Tests for the progress models coupling the scheduler to the fabric."""

import numpy as np
import pytest

from repro.config.errors import SchedulingError
from repro.config.units import MiB
from repro.fabric.cosim import baseline_run
from repro.memory.objects import MemoryObject
from repro.scheduler import (
    Cluster,
    ClusterSimulator,
    FabricCoupledPlacement,
    FabricCoupledProgress,
    LeastLoadedPlacement,
    RandomPlacement,
    StaticCurveProgress,
    fabric_job_profile,
)
from repro.scheduler.job import Job, JobProfile
from repro.trace.patterns import SequentialPattern
from repro.workloads.base import PhaseSpec, WorkloadSpec


def stream_spec(name="stream", dram_mib=60_000):
    """A small synthetic workload streaming most traffic from the pool."""
    data = MemoryObject(name="data", size_bytes=256 * MiB, pattern=SequentialPattern())
    phases = (
        PhaseSpec(
            name="p1",
            flops=2e10,
            dram_bytes=dram_mib * MiB,
            object_traffic={"data": 1.0},
            mlp=8.0,
        ),
    )
    return WorkloadSpec(
        name=name, input_label="t1", scale=1.0, objects=(data,), phases=phases
    )


@pytest.fixture(scope="module")
def spec():
    return stream_spec()


@pytest.fixture(scope="module")
def profile(spec):
    return fabric_job_profile(spec, local_fraction=0.5)


def coupled_progress(spec, **kwargs):
    return FabricCoupledProgress(workloads={spec.name: spec}, **kwargs)


class TestStaticCurveProgress:
    def _profiles(self):
        from repro.profiler.level3 import SensitivityCurve

        curve = SensitivityCurve(
            workload="sensitive",
            config_label="50-50",
            loi_levels=(0.0, 50.0),
            runtimes=(100.0, 140.0),
        )
        sensitive = JobProfile(
            workload="sensitive",
            baseline_runtime=100.0,
            sensitivity=curve,
            induced_loi=5.0,
            pool_gb=10.0,
        )
        noisy = JobProfile(
            workload="noisy", baseline_runtime=100.0, induced_loi=45.0, pool_gb=10.0
        )
        return [sensitive, noisy, sensitive, noisy]

    def test_default_model_is_static_curve(self):
        simulator = ClusterSimulator(Cluster.build(), RandomPlacement())
        assert simulator.progress.name == "static-curve"

    def test_explicit_static_matches_default(self):
        profiles = self._profiles()
        default = ClusterSimulator(
            Cluster.build(n_racks=2, nodes_per_rack=2, pool_capacity_gb=500.0),
            RandomPlacement(),
            seed=3,
        ).run(profiles)
        explicit = ClusterSimulator(
            Cluster.build(n_racks=2, nodes_per_rack=2, pool_capacity_gb=500.0),
            RandomPlacement(),
            seed=3,
            progress=StaticCurveProgress(),
        ).run(profiles)
        for a, b in zip(default.jobs, explicit.jobs):
            assert a.finish_time == b.finish_time
        assert default.makespan == explicit.makespan

    def test_unbound_model_raises(self):
        with pytest.raises(SchedulingError):
            StaticCurveProgress().rates(0.0)


class TestFabricCoupledProgress:
    def test_a_job_lasts_its_own_baseline_not_its_workloads(self, spec):
        """A job whose measured runtime is ten times its workload's engine
        run runs ten times as long, alone on an idle fabric."""
        engine = baseline_run(spec).total_runtime
        profile = JobProfile(workload=spec.name, baseline_runtime=10 * engine, pool_gb=1.0)
        cluster = Cluster.build(n_racks=1, nodes_per_rack=1, pool_capacity_gb=64.0)
        outcome = ClusterSimulator(cluster, progress=coupled_progress(spec)).run([profile])
        job = outcome.jobs[0]
        assert job.finish_time - job.start_time == pytest.approx(10 * engine, rel=1e-6)

    def test_agrees_with_static_when_uncontended(self, spec, profile):
        """One job per rack: no port sharing, so both models price rate 1."""
        profiles = [profile] * 3

        def cluster():
            return Cluster.build(n_racks=3, nodes_per_rack=1, pool_capacity_gb=64.0)

        static = ClusterSimulator(
            cluster(), LeastLoadedPlacement(), seed=0, progress=StaticCurveProgress()
        ).run(profiles)
        coupled = ClusterSimulator(
            cluster(), LeastLoadedPlacement(), seed=0, progress=coupled_progress(spec)
        ).run(profiles)
        assert coupled.makespan == pytest.approx(static.makespan, rel=1e-9)
        for a, b in zip(static.jobs, coupled.jobs):
            assert b.finish_time == pytest.approx(a.finish_time, rel=1e-9)

    def test_diverges_from_static_under_pool_pressure(self, spec, profile):
        """Three tenants on one shared port: only the coupled model sees the
        emergent contention (the acceptance regression of the ISSUE)."""
        profiles = [profile] * 3

        def cluster():
            return Cluster.build(n_racks=1, nodes_per_rack=3, pool_capacity_gb=64.0)

        static = ClusterSimulator(
            cluster(), RandomPlacement(), seed=0, progress=StaticCurveProgress()
        ).run(profiles)
        coupled = ClusterSimulator(
            cluster(), RandomPlacement(), seed=0, progress=coupled_progress(spec)
        ).run(profiles)
        # The profiles carry no sensitivity curve, so the static proxy prices
        # every co-location at 1; the fabric resolves real port contention.
        assert static.mean_slowdown == pytest.approx(1.0)
        assert coupled.mean_slowdown > 1.2
        assert coupled.makespan > static.makespan * 1.2

    def test_matches_batch_rack_cosimulation(self, spec, profile):
        """Scheduling 3 identical jobs onto one rack reproduces the closed
        loop's makespan: same fabric, same epochs, same answer."""
        from fabric.racks import run_rack
        from repro.fabric import TenantSpec

        _, batch = run_rack(
            [
                TenantSpec(name=f"t{i}", workload=spec, local_fraction=0.5)
                for i in range(3)
            ]
        )
        cluster = Cluster.build(n_racks=1, nodes_per_rack=3, pool_capacity_gb=64.0)
        coupled = ClusterSimulator(
            cluster, RandomPlacement(), seed=0, progress=coupled_progress(spec)
        ).run([profile] * 3)
        assert coupled.makespan == pytest.approx(batch["makespan"], rel=1e-6)

    def test_isolated_ports_remove_the_divergence(self, spec, profile):
        """One pool port per node: emergent contention disappears again."""
        cluster = Cluster.build(n_racks=1, nodes_per_rack=3, pool_capacity_gb=64.0)
        coupled = ClusterSimulator(
            cluster,
            RandomPlacement(),
            seed=0,
            progress=coupled_progress(spec, ports_per_rack=3),
        ).run([profile] * 3)
        assert coupled.mean_slowdown == pytest.approx(1.0, rel=1e-6)

    def test_deterministic_given_seed(self, spec, profile):
        def once():
            cluster = Cluster.build(n_racks=2, nodes_per_rack=2, pool_capacity_gb=64.0)
            return ClusterSimulator(
                cluster, RandomPlacement(), seed=7, progress=coupled_progress(spec)
            ).run([profile] * 4)

        a, b = once(), once()
        for ja, jb in zip(a.jobs, b.jobs):
            assert ja.finish_time == jb.finish_time
        assert a.makespan == b.makespan

    def test_arrivals_resync_fabric_clocks(self, spec, profile):
        """A job arriving after an idle gap is coupled at the right time."""
        cluster = Cluster.build(n_racks=1, nodes_per_rack=2, pool_capacity_gb=64.0)
        baseline = baseline_run(spec, local_fraction=0.5).total_runtime
        late_arrival = baseline * 2.0
        outcome = ClusterSimulator(
            cluster, RandomPlacement(), seed=0, progress=coupled_progress(spec)
        ).run([profile] * 2, arrivals=[0.0, late_arrival])
        first, second = outcome.jobs
        # No overlap: both run alone and see no contention.
        assert first.finish_time == pytest.approx(baseline, rel=1e-6)
        assert second.start_time >= late_arrival
        assert second.slowdown == pytest.approx(1.0, rel=1e-6)

    def test_reports_read_the_shared_cluster(self, spec, profile):
        """Lease states, rack views and the wiring summary come from the one
        cluster co-simulation the progress model steps."""
        cluster = Cluster.build(n_racks=2, nodes_per_rack=2, pool_capacity_gb=64.0)
        progress = coupled_progress(spec)
        states = []
        rates = progress.rates

        def recording_rates(clock):
            states.extend(progress.lease_state_of(job) for job in cluster.running_jobs)
            return rates(clock)

        progress.rates = recording_rates
        ClusterSimulator(cluster, RandomPlacement(), seed=0, progress=progress).run(
            [profile] * 4
        )
        assert states and set(states) == {"granted"}
        sim = progress.cluster_simulator()
        assert progress.describe() == {
            rack.rack_id: sim.rack_sim(index).topology.describe()
            for index, rack in enumerate(cluster.racks)
        }
        for index, rack in enumerate(cluster.racks):
            assert progress.rack_simulator(rack) is sim.rack_sim(index)

    def test_a_port_that_never_returns_raises(self, spec, profile):
        """Zero rates for good: each event spans an epoch, yet the run stops."""
        from repro.fabric import FaultEvent, FaultSchedule

        kill = FaultSchedule((FaultEvent(time=0.1, kind="port-kill", port=0),))
        cluster = Cluster.build(n_racks=1, nodes_per_rack=1, pool_capacity_gb=64.0)
        simulator = ClusterSimulator(
            cluster, RandomPlacement(), seed=0,
            progress=coupled_progress(spec, fault_schedule=kill),
        )
        with pytest.raises(SchedulingError, match="no progress"):
            simulator.run([profile])

    def test_unresolvable_workload_raises(self):
        profile = JobProfile(workload="no-such-app", baseline_runtime=10.0, pool_gb=1.0)
        cluster = Cluster.build(n_racks=1, nodes_per_rack=1, pool_capacity_gb=64.0)
        simulator = ClusterSimulator(
            cluster, RandomPlacement(), seed=0, progress=FabricCoupledProgress()
        )
        with pytest.raises(SchedulingError):
            simulator.run([profile])

    def test_registry_workloads_resolve_by_name(self):
        """The paper's applications couple without an explicit mapping."""
        from repro.workloads.registry import build_workload

        spec = build_workload("XSBench", 1.0)
        profile = fabric_job_profile(spec, local_fraction=0.5)
        cluster = Cluster.build(n_racks=1, nodes_per_rack=2, pool_capacity_gb=2048.0)
        outcome = ClusterSimulator(
            cluster, RandomPlacement(), seed=0, progress=FabricCoupledProgress()
        ).run([profile] * 2)
        assert all(job.finished for job in outcome.jobs)
        assert outcome.mean_slowdown >= 1.0


class TestFabricCoupledPlacement:
    def test_prefers_the_calm_rack(self, spec, profile):
        """With one rack already loaded, the policy picks the idle one based
        on live fabric pressure, not submission-time hints."""
        progress = coupled_progress(spec)
        cluster = Cluster.build(n_racks=2, nodes_per_rack=2, pool_capacity_gb=64.0)
        progress.bind(cluster)
        busy = cluster.racks[0]
        first = Job(job_id=0, profile=profile)
        busy.place(first)
        first.start_time = 0.0
        progress.job_started(first, busy, 0.0)

        policy = FabricCoupledPlacement(progress=progress)
        rng = np.random.default_rng(0)
        chosen = policy.choose_rack(cluster, Job(job_id=1, profile=profile), rng)
        assert chosen is not None and chosen.rack_id == 1

    def test_falls_back_to_loi_without_progress_model(self, profile):
        cluster = Cluster.build(n_racks=2, nodes_per_rack=2, pool_capacity_gb=64.0)
        policy = FabricCoupledPlacement()
        rng = np.random.default_rng(0)
        assert policy.choose_rack(cluster, Job(job_id=0, profile=profile), rng) is not None

    def test_simulation_with_coupled_policy_and_progress(self, spec, profile):
        progress = coupled_progress(spec)
        cluster = Cluster.build(n_racks=2, nodes_per_rack=2, pool_capacity_gb=64.0)
        outcome = ClusterSimulator(
            cluster,
            FabricCoupledPlacement(progress=progress),
            seed=0,
            progress=progress,
        ).run([profile] * 3)
        assert all(job.finished for job in outcome.jobs)
        # Two jobs share a rack, one runs alone: the shared pair is slower.
        slowdowns = sorted(job.slowdown for job in outcome.jobs)
        assert slowdowns[0] == pytest.approx(1.0, rel=1e-3)
        assert slowdowns[-1] > 1.0


class TestCoupledSchedulingStudy:
    def test_static_and_coupled_schedules_differ_under_contention(self, spec):
        from repro.casestudies.scheduling import CoupledSchedulingStudy

        study = CoupledSchedulingStudy(
            n_racks=1, nodes_per_rack=3, pool_capacity_gb=64.0, seed=0
        )
        result = study.run(specs=[spec], copies=3)
        assert result.coupled.makespan > result.static.makespan
        assert result.max_finish_time_shift > 0
        summary = result.summary()
        assert {"static", "fabric_coupled", "makespan_delta"} <= set(summary)

    def test_no_rollover_left_pending_after_a_cluster_step(self, monkeypatch):
        """Staggered admissions restart their racks' epochs off the cluster
        epoch.  A rollover left pending at a step's end would cap the rack's
        horizon at 1e-12, and the scheduler would spend a whole event on a
        1e-9 s step that does no work just to trigger it.  Eight copies of
        each job keep the run above 50 steps now that a step runs from rate
        change to rate change."""
        from repro.casestudies.scheduling import CoupledSchedulingStudy
        from repro.fabric import ClusterCoSimulator
        from repro.workloads.registry import build_workload

        steps = []
        step = ClusterCoSimulator.step

        def checked_step(self, dt):
            done = step(self, dt)
            steps.append((dt, [i for i, rack in enumerate(self.rack_sims) if rack.epoch_due()]))
            return done

        monkeypatch.setattr(ClusterCoSimulator, "step", checked_step)
        study = CoupledSchedulingStudy(
            n_racks=2, nodes_per_rack=2, policy="cluster-fabric", cluster_pool_gb=64.0, seed=1
        )
        study.run(specs=[build_workload("HPL"), build_workload("XSBench")], copies=8, stagger=3.0)
        assert len(steps) > 50
        assert [s for s in steps if s[1]] == []
        assert [dt for dt, _ in steps if dt <= 1e-9] == []


class TestUnitsConvention:
    """Regression pin: scheduler-layer capacities are decimal GB end to end."""

    def test_fabric_job_profile_pool_gb_is_decimal(self, spec):
        from repro.config.units import bytes_to_gb

        profile = fabric_job_profile(spec, local_fraction=0.25)
        assert profile.pool_gb == pytest.approx(
            bytes_to_gb(spec.footprint_bytes * 0.75)
        )

    def test_tenant_lease_round_trips_pool_gb(self, spec, profile):
        # The GB->bytes conversion of the tenant lease must invert the
        # bytes->GB conversion of the profile, not mix in a binary unit.
        model = coupled_progress(spec)
        job = Job(job_id=1, profile=profile)
        tenant = model._tenant_spec(job, arrival=0.0)
        assert tenant.lease_bytes == int(round(profile.pool_gb * 1e9))
