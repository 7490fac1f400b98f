"""Tests for the co-location study and the cluster scheduling simulator."""

import numpy as np
import pytest

from repro.config.errors import SchedulingError
from repro.profiler.level3 import SensitivityCurve
from repro.scheduler.cluster import Cluster
from repro.scheduler.job import JobProfile
from repro.scheduler.policies import InterferenceAwarePlacement, RandomPlacement
from repro.scheduler.progress import StaticCurveProgress
from repro.scheduler.simulator import MAX_IDLE_EVENTS, ClusterSimulator, CoLocationStudy


def curve(loss_at_50=0.2, baseline=120.0, name="app"):
    return SensitivityCurve(
        workload=name,
        config_label="50-50",
        loi_levels=(0.0, 50.0),
        runtimes=(baseline, baseline * (1 + loss_at_50)),
    )


class TestCoLocationStudy:
    def test_zero_interference_returns_baseline(self):
        study = CoLocationStudy(120.0, curve(0.2))
        time = study.run_once(0.0, 0.0, np.random.default_rng(0))
        assert time == pytest.approx(120.0)

    def test_constant_interference_matches_slowdown(self):
        study = CoLocationStudy(120.0, curve(0.2))
        time = study.run_once(50.0, 50.0, np.random.default_rng(0))
        assert time == pytest.approx(120.0 * 1.2, rel=1e-6)

    def test_narrower_loi_range_is_faster_and_less_variable(self):
        study = CoLocationStudy(120.0, curve(0.25))
        outcomes = study.compare_policies(n_runs=60, seed=1)
        baseline = outcomes["baseline"]
        aware = outcomes["interference-aware"]
        assert aware.mean < baseline.mean
        assert aware.percentile(75) <= baseline.percentile(75)
        assert aware.variability <= baseline.variability + 1e-9

    def test_insensitive_workload_sees_no_benefit(self):
        study = CoLocationStudy(100.0, curve(0.0))
        outcomes = study.compare_policies(n_runs=20, seed=2)
        assert outcomes["baseline"].mean == pytest.approx(outcomes["interference-aware"].mean)

    def test_results_are_deterministic_given_seed(self):
        study = CoLocationStudy(100.0, curve(0.3))
        a = study.run_many(10, 0, 50, "baseline", seed=5)
        b = study.run_many(10, 0, 50, "baseline", seed=5)
        np.testing.assert_allclose(a.times, b.times)

    def test_five_number_summary(self):
        study = CoLocationStudy(100.0, curve(0.3))
        result = study.run_many(30, 0, 50, "baseline", seed=3)
        summary = result.five_number_summary()
        assert summary["min"] <= summary["q1"] <= summary["median"] <= summary["q3"] <= summary["max"]
        assert result.median == summary["median"]

    def test_validation(self):
        with pytest.raises(SchedulingError):
            CoLocationStudy(0.0, curve())
        with pytest.raises(SchedulingError):
            CoLocationStudy(10.0, curve(), interval=0.0)
        study = CoLocationStudy(10.0, curve())
        with pytest.raises(SchedulingError):
            study.run_once(30.0, 10.0, np.random.default_rng(0))
        with pytest.raises(SchedulingError):
            study.run_many(0, 0, 50, "x")


class TestClusterSimulator:
    def _profiles(self):
        sensitive = JobProfile(
            workload="sensitive",
            baseline_runtime=100.0,
            sensitivity=curve(0.4, 100.0, "sensitive"),
            induced_loi=5.0,
            pool_gb=10.0,
        )
        noisy = JobProfile(
            workload="noisy", baseline_runtime=100.0, induced_loi=45.0, pool_gb=10.0
        )
        return [sensitive, noisy, sensitive, noisy]

    def test_all_jobs_finish(self):
        cluster = Cluster.build(n_racks=2, nodes_per_rack=2, pool_capacity_gb=500.0)
        outcome = ClusterSimulator(cluster, RandomPlacement(), seed=0).run(self._profiles())
        assert all(job.finished for job in outcome.jobs)
        assert outcome.makespan > 0
        assert outcome.mean_slowdown >= 1.0

    def test_interference_aware_policy_reduces_slowdown(self):
        random_outcome = ClusterSimulator(
            Cluster.build(n_racks=2, nodes_per_rack=2, pool_capacity_gb=500.0),
            RandomPlacement(),
            seed=3,
        ).run(self._profiles())
        aware_outcome = ClusterSimulator(
            Cluster.build(n_racks=2, nodes_per_rack=2, pool_capacity_gb=500.0),
            InterferenceAwarePlacement(max_seen_loi=20.0),
            seed=3,
        ).run(self._profiles())
        assert aware_outcome.mean_slowdown <= random_outcome.mean_slowdown + 1e-9
        assert aware_outcome.p75_slowdown <= random_outcome.p75_slowdown + 1e-9

    def test_queueing_when_cluster_smaller_than_job_stream(self):
        cluster = Cluster.build(n_racks=1, nodes_per_rack=1, pool_capacity_gb=500.0)
        outcome = ClusterSimulator(cluster, RandomPlacement(), seed=0).run(self._profiles()[:3])
        assert all(job.finished for job in outcome.jobs)
        # Jobs ran one after another, so some had to wait.
        assert outcome.mean_wait > 0
        assert outcome.makespan >= 300.0 * 0.99

    def test_arrivals_are_respected(self):
        cluster = Cluster.build(n_racks=1, nodes_per_rack=2, pool_capacity_gb=500.0)
        profiles = self._profiles()[:2]
        outcome = ClusterSimulator(cluster, RandomPlacement(), seed=0).run(
            profiles, arrivals=[0.0, 50.0]
        )
        late_job = outcome.jobs[1]
        assert late_job.start_time >= 50.0

    def test_per_workload_slowdowns_grouping(self):
        cluster = Cluster.build(n_racks=2, nodes_per_rack=2, pool_capacity_gb=500.0)
        outcome = ClusterSimulator(cluster, RandomPlacement(), seed=1).run(self._profiles())
        grouped = outcome.per_workload_slowdowns()
        assert set(grouped) == {"sensitive", "noisy"}
        assert len(grouped["sensitive"]) == 2

    def test_validation(self):
        simulator = ClusterSimulator(Cluster.build(), RandomPlacement())
        with pytest.raises(SchedulingError):
            simulator.run([])
        with pytest.raises(SchedulingError):
            simulator.run(self._profiles(), arrivals=[0.0])


class FixedHorizonProgress(StaticCurveProgress):
    """Static rates, valid for ``step`` seconds at a time.

    ``rate`` overrides the rates for the first ``stall_events`` events, or for
    every event when ``stall_events`` is ``None``.
    """

    def __init__(self, step, rate=None, stall_events=None):
        super().__init__()
        self.step, self.rate, self.stall_events, self.events = step, rate, stall_events, 0

    def rates(self, clock):
        rates = super().rates(clock)
        stalled = self.stall_events is None or self.events < self.stall_events
        return dict.fromkeys(rates, self.rate) if self.rate is not None and stalled else rates

    def horizon(self, clock):
        self.events += 1
        return self.step


class TestTermination:
    def run_one_job(self, progress, runtime):
        cluster = Cluster.build(n_racks=1, nodes_per_rack=1, pool_capacity_gb=500.0)
        profile = JobProfile(workload="solo", baseline_runtime=runtime)
        return ClusterSimulator(cluster, RandomPlacement(), progress=progress).run([profile])

    def test_a_long_run_of_short_events_finishes(self):
        """150,000 events that each make progress: no fixed ceiling applies."""
        progress = FixedHorizonProgress(step=1e-3)
        outcome = self.run_one_job(progress, runtime=150.0)
        assert progress.events >= 149_999
        assert outcome.jobs[0].finish_time == pytest.approx(150.0, rel=1e-6)

    def test_a_stuck_progress_model_raises_early(self):
        """Zero rates and a vanishing horizon: only minimum steps, forever."""
        progress = FixedHorizonProgress(step=1e-12, rate=0.0)
        with pytest.raises(SchedulingError, match="no progress"):
            self.run_one_job(progress, runtime=1.0)
        # The first event starts the job; every later one is idle.
        assert progress.events == 1 + MAX_IDLE_EVENTS + 1

    def test_a_stall_with_long_horizons_raises(self):
        """Zero rates forever: each event spans a full horizon but is still idle."""
        progress = FixedHorizonProgress(step=1.0, rate=0.0)
        with pytest.raises(SchedulingError, match="no progress"):
            self.run_one_job(progress, runtime=1.0)
        assert progress.events == 1 + MAX_IDLE_EVENTS + 1

    def test_a_stall_that_clears_before_the_limit_finishes(self):
        """Zero rates for fewer than MAX_IDLE_EVENTS events, then progress."""
        progress = FixedHorizonProgress(step=1.0, rate=0.0, stall_events=MAX_IDLE_EVENTS // 2)
        outcome = self.run_one_job(progress, runtime=1.0)
        assert outcome.jobs[0].finish_time == pytest.approx(MAX_IDLE_EVENTS // 2 + 1.0)
