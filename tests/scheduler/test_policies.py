"""Tests for placement policies."""

import numpy as np
import pytest

from repro.config.errors import SchedulingError
from repro.profiler.level3 import SensitivityCurve
from repro.scheduler.cluster import Cluster
from repro.scheduler.job import Job, JobProfile
from repro.scheduler.policies import (
    POLICIES,
    InterferenceAwarePlacement,
    LeastLoadedPlacement,
    PoolAwarePlacement,
    RandomPlacement,
    make_policy,
)


def sensitive_profile(name="sensitive", induced=5.0):
    curve = SensitivityCurve(name, "50-50", (0.0, 50.0), (100.0, 130.0))
    return JobProfile(workload=name, baseline_runtime=100.0, sensitivity=curve,
                      induced_loi=induced, pool_gb=10.0)


def insensitive_profile(name="insensitive", induced=30.0):
    return JobProfile(workload=name, baseline_runtime=100.0, induced_loi=induced, pool_gb=10.0)


@pytest.fixture()
def cluster():
    return Cluster.build(n_racks=2, nodes_per_rack=2, pool_capacity_gb=1000.0)


def test_random_placement_picks_a_candidate(cluster, rng):
    policy = RandomPlacement()
    rack = policy.choose_rack(cluster, Job(0, insensitive_profile()), rng)
    assert rack in cluster.racks


def test_random_placement_returns_none_when_full(rng):
    cluster = Cluster.build(n_racks=1, nodes_per_rack=1)
    cluster.racks[0].place(Job(0, insensitive_profile()))
    assert RandomPlacement().choose_rack(cluster, Job(1, insensitive_profile()), rng) is None


@pytest.mark.parametrize("name", sorted(POLICIES))
@pytest.mark.parametrize("blocked_by", ["node", "pool"])
def test_every_policy_declines_without_candidates_before_drawing(name, blocked_by):
    """The simulator skips offers with no candidate rack; that is only safe
    because every built-in policy returns None before touching its RNG."""
    cluster = Cluster.build(n_racks=2, nodes_per_rack=1, pool_capacity_gb=20.0)
    if blocked_by == "node":
        for i, rack in enumerate(cluster.racks):
            rack.place(Job(i, insensitive_profile()))
        job = Job(9, insensitive_profile())
    else:
        job = Job(9, JobProfile(workload="big", baseline_runtime=10.0, pool_gb=50.0))
    assert cluster.candidate_racks(job) == []
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert make_policy(name).choose_rack(cluster, job, rng) is None
    assert rng.bit_generator.state == state


def test_least_loaded_prefers_quieter_rack(cluster, rng):
    noisy = Job(0, insensitive_profile(induced=40.0))
    cluster.racks[0].place(noisy)
    rack = LeastLoadedPlacement().choose_rack(cluster, Job(1, insensitive_profile()), rng)
    assert rack is cluster.racks[1]


def test_interference_aware_keeps_sensitive_jobs_away_from_noise(cluster, rng):
    policy = InterferenceAwarePlacement(max_seen_loi=20.0)
    # Rack 0 carries heavy interference.
    cluster.racks[0].place(Job(0, insensitive_profile(induced=45.0)))
    rack = policy.choose_rack(cluster, Job(1, sensitive_profile()), rng)
    assert rack is cluster.racks[1]


def test_interference_aware_protects_running_sensitive_jobs(cluster, rng):
    policy = InterferenceAwarePlacement(max_seen_loi=20.0)
    # A sensitive job runs alone on rack 0.
    cluster.racks[0].place(Job(0, sensitive_profile(induced=5.0)))
    # Rack 1 hosts moderate noise, still below the threshold for newcomers.
    cluster.racks[1].place(Job(1, insensitive_profile(induced=15.0)))
    noisy_newcomer = Job(2, insensitive_profile(induced=30.0))
    rack = policy.choose_rack(cluster, noisy_newcomer, rng)
    # Placing the noisy job next to the sensitive one would push it over the
    # limit, so the policy prefers rack 1 even though it is busier.
    assert rack is cluster.racks[1]


def test_interference_aware_strict_mode_waits(cluster, rng):
    policy = InterferenceAwarePlacement(max_seen_loi=10.0, strict=True)
    cluster.racks[0].place(Job(0, insensitive_profile(induced=45.0)))
    cluster.racks[1].place(Job(1, insensitive_profile(induced=45.0)))
    assert policy.choose_rack(cluster, Job(2, sensitive_profile()), rng) is None


def test_interference_aware_fallback_when_not_strict(cluster, rng):
    policy = InterferenceAwarePlacement(max_seen_loi=10.0, strict=False)
    cluster.racks[0].place(Job(0, insensitive_profile(induced=45.0)))
    cluster.racks[1].place(Job(1, insensitive_profile(induced=30.0)))
    rack = policy.choose_rack(cluster, Job(2, sensitive_profile()), rng)
    assert rack is cluster.racks[1]  # least-loaded fallback


def test_pool_aware_prefers_pool_capacity_headroom(cluster, rng):
    policy = PoolAwarePlacement(capacity_weight=1.0)
    # Rack 0's pool is nearly full.
    cluster.racks[0].pool_used_gb = 900.0
    rack = policy.choose_rack(cluster, Job(0, insensitive_profile()), rng)
    assert rack is cluster.racks[1]


def test_pool_aware_prefers_calm_port(cluster, rng):
    policy = PoolAwarePlacement(capacity_weight=0.0)
    # Rack 0's port runs hot, pools are equally empty.
    cluster.racks[0].place(Job(0, insensitive_profile(induced=45.0)))
    rack = policy.choose_rack(cluster, Job(1, insensitive_profile()), rng)
    assert rack is cluster.racks[1]


def test_pool_aware_avoids_hot_ports_until_forced(rng):
    cluster = Cluster.build(n_racks=2, nodes_per_rack=2, pool_capacity_gb=1000.0)
    policy = PoolAwarePlacement(max_port_utilization=0.5, capacity_weight=1.0)
    # Rack 1 has the emptier pool but a port already at 60% utilisation.
    cluster.racks[0].pool_used_gb = 500.0
    cluster.racks[1].place(Job(0, insensitive_profile(induced=60.0)))
    rack = policy.choose_rack(cluster, Job(1, insensitive_profile(induced=0.0)), rng)
    assert rack is cluster.racks[0]
    # When every port is hot the policy degrades to best-score placement
    # instead of stalling the job.
    cluster.racks[0].place(Job(2, insensitive_profile(induced=70.0)))
    rack = policy.choose_rack(cluster, Job(3, insensitive_profile(induced=0.0)), rng)
    assert rack is not None


def test_pool_aware_returns_none_when_nothing_fits(rng):
    cluster = Cluster.build(n_racks=1, nodes_per_rack=1)
    cluster.racks[0].place(Job(0, insensitive_profile()))
    policy = PoolAwarePlacement()
    assert policy.choose_rack(cluster, Job(1, insensitive_profile()), rng) is None


def test_pool_aware_validation():
    with pytest.raises(SchedulingError):
        PoolAwarePlacement(capacity_weight=1.5)
    with pytest.raises(SchedulingError):
        PoolAwarePlacement(max_port_utilization=0.0)


def test_make_policy_factory():
    assert isinstance(make_policy("random"), RandomPlacement)
    assert isinstance(make_policy("interference-aware", max_seen_loi=15.0), InterferenceAwarePlacement)
    assert isinstance(make_policy("pool-aware", capacity_weight=0.3), PoolAwarePlacement)
    with pytest.raises(SchedulingError):
        make_policy("fifo")
