"""A rack's closed loop against the fixed-stride batch loop it replaced.

A rack is a 1-rack cluster, and ``run_to_completion`` admits a tenant at its
arrival time and grants a queued lease the moment the tenant it waited for
finishes.  The fixed-stride oracle (``oracles.fixed_stride_run``) does both
at the next epoch boundary, and the closed loop also re-solves the
contention the moment any tenant finishes, where the oracle waits for the
epoch end.  When identical tenants all arrive at t=0 on a pool that fits
them all, the two never disagree on an event time and finish times agree to
1e-12 relative (the loop steps from rate change to rate change, so it sums a
tenant's progress in fewer, longer pieces than the oracle's one per epoch);
otherwise the difference is pinned to exactly that quantization.
"""

from __future__ import annotations

import math

import pytest

from oracles import fixed_stride_run
from racks import one_rack, run_rack
from repro.fabric import TenantSpec, uniform_tenants
from repro.workloads.registry import build_workload


def run(tenants, **kwargs):
    """:func:`run_rack`, and each tenant's outcome in list order."""
    sim, summary = run_rack(tenants, **kwargs)
    return sim, summary, [sim.outcome(spec.name) for spec in tenants]


def next_boundary(time: float, epoch: float) -> float:
    return math.ceil(time / epoch) * epoch


def assert_same_times(tenant, times):
    """Start times exact, finish times to 1e-12 relative."""
    start, finish = times
    assert tenant.start_time == start
    assert tenant.finish_time == pytest.approx(finish, rel=1e-12)


@pytest.mark.parametrize("workload", ["XSBench", "Hypre", "BFS", "SuperLU"])
def test_matches_fixed_stride_when_all_arrive_at_zero(workload):
    tenants = uniform_tenants(build_workload(workload), 4)
    sim, _, outcomes = run(tenants)
    oracle, epochs = fixed_stride_run(one_rack(tenants), tenants)
    assert {t.name for t in outcomes} == set(oracle)
    for tenant in outcomes:
        assert_same_times(tenant, oracle[tenant.name])
    assert len(sim.rack_sim(0).telemetry) == epochs


def test_a_finish_re_solves_the_contention_at_once():
    """Mixed tenants at t=0: a finish restarts the epoch at that instant.

    The loop returns the finished tenant's lease and re-solves the contention
    the moment it finishes; the oracle keeps the stale background until the
    epoch ends.  The first tenants to finish match the oracle to 1e-12, and
    the bandwidth-hungry Hypre tenants left behind finish earlier than in the
    oracle, by less than one epoch.
    """
    tenants = [
        TenantSpec(name=f"{name}-{i}", workload=build_workload(name), local_fraction=0.5)
        for i, name in enumerate(["Hypre", "XSBench", "Hypre", "XSBench"])
    ]
    sim, summary, outcomes = run(tenants)
    oracle, _ = fixed_stride_run(one_rack(tenants), tenants)
    epoch = summary["epoch_seconds"]
    xsbench = [t for t in outcomes if t.workload == "XSBench"]
    hypre = [t for t in outcomes if t.workload == "Hypre"]
    for tenant in xsbench:
        assert_same_times(tenant, oracle[tenant.name])
    released = max(t.finish_time for t in xsbench)
    assert released < min(t.finish_time for t in hypre)
    # The re-solve records a sample off the oracle's fixed epoch grid.
    assert released in sim.rack_sim(0).telemetry.times
    assert not math.isclose(released / epoch, round(released / epoch))
    for tenant in hypre:
        oracle_start, oracle_finish = oracle[tenant.name]
        assert tenant.start_time == oracle_start == 0.0
        assert oracle_finish - epoch < tenant.finish_time < oracle_finish


def test_staggered_tenants_start_at_their_arrival():
    tenants = uniform_tenants(build_workload("XSBench"), 4, stagger=3.0)
    _, summary, outcomes = run(tenants)
    oracle, _ = fixed_stride_run(one_rack(tenants), tenants)
    epoch = summary["epoch_seconds"]
    for tenant in outcomes:
        oracle_start, oracle_finish = oracle[tenant.name]
        assert tenant.start_time == tenant.arrival
        assert oracle_start == pytest.approx(
            next_boundary(tenant.arrival, epoch), rel=1e-12
        )
        # Latency-bound XSBench barely feels its co-runners, so the earlier
        # start is the whole difference.
        assert tenant.runtime == pytest.approx(oracle_finish - oracle_start, rel=1e-5)
        if oracle_start > tenant.arrival:
            assert tenant.finish_time < oracle_finish


def test_queued_lease_is_granted_when_its_holder_finishes():
    tenants = uniform_tenants(build_workload("XSBench"), 4)
    two_leases = 2 * tenants[0].lease_bytes
    _, summary, outcomes = run(tenants, pool_bytes=two_leases)
    oracle, _ = fixed_stride_run(one_rack(tenants, pool_bytes=two_leases), tenants)
    first, queued = outcomes[:2], outcomes[2:]
    for tenant in first:
        assert_same_times(tenant, oracle[tenant.name])
    released = max(t.finish_time for t in first)
    for tenant in queued:
        oracle_start, oracle_finish = oracle[tenant.name]
        assert tenant.start_time == released
        assert oracle_start == pytest.approx(
            next_boundary(released, summary["epoch_seconds"]), rel=1e-12
        )
        assert tenant.runtime == pytest.approx(oracle_finish - oracle_start, rel=1e-12)
