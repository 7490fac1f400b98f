"""Tests for the rack/cluster topology."""

import pytest

from repro.config.errors import SchedulingError
from repro.scheduler.cluster import Cluster
from repro.scheduler.job import Job, JobProfile


def profile(name="app", runtime=100.0, induced=10.0, pool=64.0):
    return JobProfile(
        workload=name, baseline_runtime=runtime, induced_loi=induced, pool_gb=pool
    )


def test_cluster_build_topology():
    cluster = Cluster.build(n_racks=2, nodes_per_rack=4)
    assert cluster.n_nodes == 8
    assert cluster.free_nodes == 8
    assert len(cluster.racks) == 2
    node_ids = [n.node_id for rack in cluster.racks for n in rack.nodes]
    assert node_ids == list(range(8))


def test_cluster_build_validation():
    with pytest.raises(SchedulingError):
        Cluster.build(n_racks=0)


def test_place_and_release():
    cluster = Cluster.build(n_racks=1, nodes_per_rack=2, pool_capacity_gb=100.0)
    rack = cluster.racks[0]
    job = Job(job_id=0, profile=profile(pool=60.0))
    node = rack.place(job)
    assert node.busy
    assert job.assigned_rack == 0
    assert rack.pool_free_gb == pytest.approx(40.0)
    assert cluster.rack_of(job) is rack
    rack.release(job)
    assert not node.busy
    assert rack.pool_free_gb == pytest.approx(100.0)


def test_can_host_respects_nodes_and_pool():
    cluster = Cluster.build(n_racks=1, nodes_per_rack=1, pool_capacity_gb=100.0)
    rack = cluster.racks[0]
    rack.place(Job(job_id=0, profile=profile(pool=90.0)))
    # No free node left.
    assert not rack.can_host(Job(job_id=1, profile=profile(pool=1.0)))
    with pytest.raises(SchedulingError):
        rack.place(Job(job_id=2, profile=profile(pool=1.0)))


def test_pool_capacity_blocks_placement():
    cluster = Cluster.build(n_racks=1, nodes_per_rack=4, pool_capacity_gb=100.0)
    rack = cluster.racks[0]
    rack.place(Job(job_id=0, profile=profile(pool=80.0)))
    assert not rack.can_host(Job(job_id=1, profile=profile(pool=50.0)))
    assert rack.can_host(Job(job_id=2, profile=profile(pool=10.0)))


def test_aggregate_loi_sums_running_jobs():
    cluster = Cluster.build(n_racks=1, nodes_per_rack=3, pool_capacity_gb=1000.0)
    rack = cluster.racks[0]
    a = Job(job_id=0, profile=profile(induced=15.0))
    b = Job(job_id=1, profile=profile(induced=25.0))
    rack.place(a)
    rack.place(b)
    assert rack.aggregate_loi() == pytest.approx(40.0)
    assert rack.aggregate_loi(excluding=a) == pytest.approx(25.0)


def test_aggregate_loi_capped_at_100():
    cluster = Cluster.build(n_racks=1, nodes_per_rack=4, pool_capacity_gb=1000.0)
    rack = cluster.racks[0]
    for i in range(4):
        rack.place(Job(job_id=i, profile=profile(induced=40.0)))
    assert rack.aggregate_loi() == 100.0


def test_an_emptied_rack_leases_exactly_nothing():
    """Float subtraction used to leave 4.26e-14 GB behind, which refused a
    job sized to the whole pool."""
    cluster = Cluster.build(n_racks=1, nodes_per_rack=3, pool_capacity_gb=384.0)
    rack = cluster.racks[0]
    jobs = [Job(job_id=i, profile=profile(pool=gb)) for i, gb in enumerate((115.1, 107.7, 45.6))]
    for job in jobs:
        rack.place(job)
    for i in (0, 2, 1):
        rack.release(jobs[i])
    assert rack.pool_used_gb == 0.0
    assert rack.can_host(Job(job_id=3, profile=profile(pool=384.0)))
    assert cluster.placement_headroom_gb() == 384.0


def test_release_unknown_job_rejected():
    cluster = Cluster.build(n_racks=1, nodes_per_rack=1)
    with pytest.raises(SchedulingError):
        cluster.racks[0].release(Job(job_id=9, profile=profile()))


def test_rack_of_unplaced_job_rejected():
    cluster = Cluster.build()
    with pytest.raises(SchedulingError):
        cluster.rack_of(Job(job_id=0, profile=profile()))


def test_candidate_racks():
    cluster = Cluster.build(n_racks=2, nodes_per_rack=1, pool_capacity_gb=100.0)
    big = Job(job_id=0, profile=profile(pool=200.0))
    assert cluster.candidate_racks(big) == []
    small = Job(job_id=1, profile=profile(pool=10.0))
    assert len(cluster.candidate_racks(small)) == 2
