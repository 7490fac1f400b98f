"""The scheduler event loop against its previous version, and its cost.

``oracles.rescan_run`` is the loop :class:`ClusterSimulator` used to run:
every event it rescanned the whole pending list, offered every arrived job
to the policy, checked capacity by scanning nodes and re-priced every
running job.  The library now offers a job only when some rack can host it,
keeps arrivals behind a cursor and caches static rates per rack.  Every
simulated number must be bit-identical, and the policy must see the same
calls minus the ones made with no candidate rack.
"""

from __future__ import annotations

import functools
import importlib.util
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import telemetry
from repro.casestudies.scheduling import SchedulingCaseStudy
from repro.config.errors import SchedulingError
from repro.profiler.level3 import SensitivityCurve
from repro.scheduler import progress as progress_module
from repro.scheduler.cluster import Cluster
from repro.scheduler.job import Job, JobProfile
from repro.scheduler.policies import (
    InterferenceAwarePlacement,
    LeastLoadedPlacement,
    PoolAwarePlacement,
    RandomPlacement,
)
from repro.scheduler.progress import StaticCurveProgress
from repro.scheduler.simulator import ClusterSimulator
from repro.workloads import build_workload

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load("scheduler_oracles", HERE / "oracles.py")

POLICIES = {
    "random": RandomPlacement,
    "least-loaded": LeastLoadedPlacement,
    "interference-aware": lambda: InterferenceAwarePlacement(strict=False),
    "interference-aware-strict": lambda: InterferenceAwarePlacement(strict=True),
    "pool-aware": PoolAwarePlacement,
}
NON_STRICT = ("random", "least-loaded", "interference-aware", "pool-aware")

COUNTERS = ("scheduler.events", "scheduler.jobs.started", "scheduler.jobs.finished")


@functools.lru_cache(maxsize=None)
def measured_curves() -> tuple:
    """Level-3 sensitivity curves of three paper applications (sensitive and not)."""
    study = SchedulingCaseStudy()
    return tuple(
        study.sensitivity_of(build_workload(name)) for name in ("Hypre", "BFS", "XSBench")
    )


def steep_curve(loss_at_50: float) -> SensitivityCurve:
    return SensitivityCurve(
        workload="steep",
        config_label="50-50",
        loi_levels=(0.0, 20.0, 50.0, 100.0),
        runtimes=(100.0, 100.0 + 40.0 * loss_at_50, 100.0 * (1 + loss_at_50), 100.0 * (1 + 2 * loss_at_50)),
    )


class Recording:
    """Wraps a policy and records ``(job, candidate racks, chosen rack)`` per call."""

    def __init__(self, policy) -> None:
        self.policy = policy
        self.name = policy.name
        self.calls: list[tuple] = []

    def choose_rack(self, cluster, job, rng):
        candidates = tuple(rack.rack_id for rack in cluster.candidate_racks(job))
        rack = self.policy.choose_rack(cluster, job, rng)
        self.calls.append((job.job_id, candidates, None if rack is None else rack.rack_id))
        return rack


@st.composite
def job_streams(draw):
    n_racks = draw(st.integers(1, 4))
    nodes = draw(st.integers(1, 8))
    capacity = draw(st.sampled_from([8.0, 24.0, 64.0]))
    curves = (None,) + measured_curves() + (steep_curve(0.3), steep_curve(0.8))
    n_jobs = draw(st.integers(1, 30))
    profiles = []
    for _ in range(n_jobs):
        # Some jobs need more pool than any rack has, some nearly all of it.
        pool = draw(
            st.one_of(
                st.floats(0.0, capacity / 2),
                st.floats(capacity / 2, capacity),
                st.floats(capacity, capacity * 2),
            )
        )
        profiles.append(
            JobProfile(
                workload="job",
                baseline_runtime=draw(st.floats(1.0, 300.0)),
                sensitivity=draw(st.sampled_from(curves)),
                induced_loi=draw(st.sampled_from([0.0, 0.0, 4.5, 12.5, 30.0, 45.0, 70.0])),
                pool_gb=pool,
            )
        )
    # Bursts of equal submit times, short gaps and idle gaps.
    gaps = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.1, 20.0), st.floats(500.0, 5000.0)),
            min_size=n_jobs,
            max_size=n_jobs,
        )
    )
    arrivals, clock = [], draw(st.sampled_from([0.0, 3.0]))
    for gap in gaps:
        clock += gap
        arrivals.append(clock)
    # Submit order need not be job order.
    arrivals = draw(st.permutations(arrivals))
    # Rates that also expire on a fixed horizon cut events between arrivals
    # and finishes, as an epoch-driven progress model does.
    horizon = draw(st.sampled_from([None, None, 13.0]))
    return n_racks, nodes, capacity, profiles, arrivals, draw(st.integers(0, 2**16)), horizon


def expiring(base, seconds):
    """A ``base`` progress model whose rates expire every ``seconds`` (None: never)."""

    class Expiring(base):
        def horizon(self, clock):
            return seconds

    return Expiring()


def _run_library(shape, policy, profiles, arrivals, seed, horizon):
    n_racks, nodes, capacity = shape
    cluster = Cluster.build(n_racks=n_racks, nodes_per_rack=nodes, pool_capacity_gb=capacity)
    recording = Recording(policy)
    progress = expiring(StaticCurveProgress, horizon)
    with telemetry.isolated(True) as registry:
        outcome = ClusterSimulator(cluster, recording, seed=seed, progress=progress).run(
            profiles, arrivals
        )
    return outcome, recording.calls, registry


def _run_oracle(shape, policy, profiles, arrivals, seed, horizon):
    cluster = oracles.scan_cluster(*shape)
    recording = Recording(policy)
    progress = expiring(oracles.RescanProgress, horizon)
    with telemetry.isolated(True) as registry:
        outcome = oracles.rescan_run(
            cluster, recording, profiles, arrivals, seed=seed, progress=progress
        )
    return outcome, recording.calls, registry


def _placements(outcome):
    return [
        (j.start_time, j.finish_time, j.assigned_rack, j.assigned_node) for j in outcome.jobs
    ]


@pytest.mark.parametrize("policy", sorted(POLICIES))
@given(case=job_streams())
def test_event_loop_matches_the_rescan_oracle(policy, case):
    n_racks, nodes, capacity, profiles, arrivals, seed, horizon = case
    shape = (n_racks, nodes, capacity)
    run = (profiles, arrivals, seed, horizon)
    new, new_calls, new_reg = _run_library(shape, POLICIES[policy](), *run)
    old, old_calls, old_reg = _run_oracle(shape, POLICIES[policy](), *run)

    assert _placements(new) == _placements(old)
    assert new.makespan == old.makespan
    for name in COUNTERS:
        assert new_reg.counter(name).value == old_reg.counter(name).value, name
    # The same decisions, minus the calls that had no rack to choose from.
    assert new_calls == [call for call in old_calls if call[1]]
    # Placement telemetry accounts for every call.
    assert new_reg.counter("scheduler.placement.offers").value == len(new_calls)
    assert new_reg.counter("scheduler.placement.declined").value == sum(
        1 for call in new_calls if call[2] is None
    )


def test_placement_counters_name_why_jobs_wait():
    """Two racks of one node: one job too big for any pool, one waiting for a node."""
    cluster = Cluster.build(n_racks=2, nodes_per_rack=1, pool_capacity_gb=10.0)
    profiles = [
        JobProfile(workload="a", baseline_runtime=10.0, pool_gb=1.0),
        JobProfile(workload="b", baseline_runtime=10.0, pool_gb=1.0),
        JobProfile(workload="big", baseline_runtime=10.0, pool_gb=50.0),
        JobProfile(workload="c", baseline_runtime=10.0, pool_gb=1.0),
    ]
    with telemetry.isolated(True) as registry:
        outcome = ClusterSimulator(cluster, RandomPlacement()).run(profiles)
    counts = {
        name: registry.counter(f"scheduler.placement.{name}").value
        for name in ("offers", "declined", "no_free_node", "no_pool_headroom")
    }
    # Event 1 places a and b; no node is left for big or c.  Event 2 (a and b
    # have finished) passes over big for pool headroom, places c, and its
    # retry pass passes over big again.  Event 3 passes over big a third
    # time; nothing runs and nothing arrives, so the run ends.
    assert counts == {"offers": 3, "declined": 0, "no_free_node": 2, "no_pool_headroom": 3}
    assert [j.finished for j in outcome.jobs] == [True, True, False, True]


def test_counters_are_published_when_a_run_fails():
    class Failing(RandomPlacement):
        def choose_rack(self, cluster, job, rng):
            if job.job_id == 2:
                raise RuntimeError("policy failure")
            return super().choose_rack(cluster, job, rng)

    cluster = Cluster.build(n_racks=1, nodes_per_rack=1, pool_capacity_gb=10.0)
    profiles = [JobProfile(workload="a", baseline_runtime=5.0)] * 3
    with telemetry.isolated(True) as registry:
        with pytest.raises(RuntimeError, match="policy failure"):
            ClusterSimulator(cluster, Failing()).run(profiles)
    assert registry.counter("scheduler.events").value == 3
    assert registry.counter("scheduler.jobs.started").value == 2
    assert registry.counter("scheduler.jobs.finished").value == 2
    assert registry.counter("scheduler.placement.offers").value == 3


# -- rack bookkeeping --------------------------------------------------------


def _profile(pool: float) -> JobProfile:
    return JobProfile(workload="app", baseline_runtime=10.0, pool_gb=pool)


def _rack_state(cluster):
    return [
        (
            rack.pool_used_gb,
            rack.free_node_count,
            [n.running for n in rack.nodes],
            rack.running_jobs,
        )
        for rack in cluster.racks
    ]


def test_place_rejects_a_node_of_another_rack():
    cluster = Cluster.build(n_racks=2, nodes_per_rack=2, pool_capacity_gb=100.0)
    rack0, rack1 = cluster.racks
    job = Job(job_id=0, profile=_profile(10.0))
    before = _rack_state(cluster)
    with pytest.raises(SchedulingError, match="not in rack 0"):
        rack0.place(job, node=rack1.nodes[0])
    assert _rack_state(cluster) == before
    assert job.assigned_rack is None and job.assigned_node is None


def test_place_rejects_a_busy_node_and_changes_nothing():
    cluster = Cluster.build(n_racks=1, nodes_per_rack=2, pool_capacity_gb=100.0)
    rack = cluster.racks[0]
    rack.place(Job(job_id=0, profile=_profile(10.0)), node=rack.nodes[0])
    job = Job(job_id=1, profile=_profile(10.0))
    before = _rack_state(cluster)
    with pytest.raises(SchedulingError, match="busy"):
        rack.place(job, node=rack.nodes[0])
    assert _rack_state(cluster) == before
    assert job.assigned_rack is None


@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 8)),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["place", "place-on", "release"]),
            st.integers(0, 31),
            st.integers(0, 31),
            st.floats(0.0, 40.0),
        ),
        max_size=60,
    ),
    probes=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=5),
)
def test_free_node_count_and_headroom_track_every_place_and_release(shape, ops, probes):
    n_racks, nodes = shape
    cluster = Cluster.build(n_racks=n_racks, nodes_per_rack=nodes, pool_capacity_gb=32.0)
    all_nodes = [node for rack in cluster.racks for node in rack.nodes]
    running: list[Job] = []
    for i, (op, a, b, pool) in enumerate(ops):
        rack = cluster.racks[a % n_racks]
        if op == "release" and running:
            job = running.pop(b % len(running))
            cluster.rack_of(job).release(job)
        elif op in ("place", "place-on"):
            job = Job(job_id=i, profile=_profile(pool))
            node = all_nodes[b % len(all_nodes)] if op == "place-on" else None
            before = _rack_state(cluster)
            try:
                rack.place(job, node=node)
            except SchedulingError:
                assert _rack_state(cluster) == before
            else:
                running.append(job)
        scanned = []
        for each in cluster.racks:
            assert each.free_node_count == len(each.free_nodes)
            # The kept running jobs are a node scan's, in node order.
            on_nodes = [n.running for n in each.nodes if n.running is not None]
            assert each.running_jobs == on_nodes
            scanned += on_nodes
        assert cluster.running_jobs == scanned
        assert cluster.free_nodes == sum(len(each.free_nodes) for each in cluster.racks)
        headroom = cluster.placement_headroom_gb()
        for pool_gb in probes:
            probe = Job(job_id=-1, profile=_profile(pool_gb))
            fits = headroom is not None and pool_gb <= headroom
            assert fits == (cluster.candidate_racks(probe) != [])


# -- cost guard --------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def bench_stream(n_jobs: int):
    """The synthetic job stream of ``tools/bench_perf.py``'s ``cluster_events`` rows."""
    return _load("bench_perf", REPO_ROOT / "tools" / "bench_perf.py")._synthetic_jobs(n_jobs)


@pytest.mark.parametrize("policy", NON_STRICT)
def test_event_cost_follows_what_changed_not_the_job_count(policy, monkeypatch):
    """4,000 jobs on 4x8 nodes: one policy call per job, bounded rate pricing.

    The previous loop offered every waiting job at every event and re-priced
    every running job at every event; on this stream and a 2-core host it
    made about 4.3 million random-policy calls and 155,000 rate evaluations
    in about 20 s.  A rate evaluation is one job priced by
    :func:`~repro.scheduler.progress.static_rates`; every job is priced at
    least once, after it starts.
    """
    profiles, arrivals = bench_stream(4000)
    evaluations = [0]
    static_rates = progress_module.static_rates

    def counted(rack):
        rates = static_rates(rack)
        evaluations[0] += len(rates)
        return rates

    monkeypatch.setattr(progress_module, "static_rates", counted)
    cluster = Cluster.build(n_racks=4, nodes_per_rack=8, pool_capacity_gb=64.0)
    recording = Recording(POLICIES[policy]())
    outcome = ClusterSimulator(cluster, recording, seed=0).run(profiles, arrivals)
    started = sum(1 for job in outcome.jobs if job.started)
    assert started == len(profiles)
    assert len(recording.calls) == started
    assert len(profiles) <= evaluations[0] <= 2 * len(profiles) * 8


# -- one-pass rack pricing ---------------------------------------------------


#: A curve whose slowdown is about 1e10 x LoI, so a rate keeps every bit of
#: the co-runner LoI it was priced at.
LINEAR_CURVE = SensitivityCurve(
    workload="linear", config_label="50-50", loi_levels=(0.0, 100.0), runtimes=(1.0, 1e12)
)


@given(
    nodes=st.integers(1, 16),
    jobs=st.lists(
        st.tuples(
            st.integers(0, 15),
            # Equal LoIs, LoIs that sum past 100, and LoIs whose sums round.
            st.one_of(
                st.sampled_from([0.0, 12.5, 12.5, 45.0, 70.0, 100.0]),
                st.floats(0.0, 100.0),
                st.integers(1, 700).map(lambda n: n / 97.0),
            ),
            st.integers(0, 6),
        ),
        max_size=16,
    ),
    released=st.lists(st.integers(0, 15), max_size=4),
)
@example(nodes=4, jobs=[(3, 45.0, 4), (1, 45.0, 5), (0, 45.0, 1), (2, 30.0, 2)], released=[])
@example(nodes=3, jobs=[(0, 0.1, 6), (1, 0.2, 6), (2, 0.3, 6)], released=[])
# A rack of curve-less jobs, whose co-runners sum past 100.
@example(nodes=4, jobs=[(0, 70.0, 0), (1, 45.0, 0), (2, 12.5, 0), (3, 100.0, 0)], released=[1])
# Signed zeros: a curve sees exactly 0.0 whichever zero its co-runners inject.
@example(nodes=4, jobs=[(0, -0.0, 6), (1, 0.0, 6), (2, -0.0, 0), (3, -0.0, 5)], released=[])
@example(nodes=3, jobs=[(0, 0.0, 0), (1, -0.0, 6), (2, 0.0, 6)], released=[])
def test_one_pass_rack_pricing_equals_static_rate_per_job(nodes, jobs, released):
    curves = (None,) + measured_curves() + (steep_curve(0.3), steep_curve(0.8), LINEAR_CURVE)
    cluster = Cluster.build(n_racks=1, nodes_per_rack=nodes, pool_capacity_gb=1e6)
    rack = cluster.racks[0]
    placed = []
    # Placed in draw order on the drawn nodes, so node order is not job order.
    for job_id, (slot, loi, curve) in enumerate(jobs):
        node = rack.nodes[slot % nodes]
        if node.busy:
            continue
        profile = JobProfile(
            workload="job", baseline_runtime=10.0, sensitivity=curves[curve], induced_loi=loi
        )
        job = Job(job_id=job_id, profile=profile)
        rack.place(job, node=node)
        placed.append(job)
    for index in released:
        if placed:
            rack.release(placed.pop(index % len(placed)))
    expected = {job.job_id: oracles.fold_rate(job, rack) for job in rack.running_jobs}
    assert {job.job_id: progress_module.static_rate(job, rack) for job in rack.running_jobs} == expected
    assert progress_module.static_rates(rack) == expected


def test_a_nan_arrival_is_rejected():
    """Arrivals sit behind a cursor over sorted submit times; NaN has no place in that order."""
    simulator = ClusterSimulator(Cluster.build(n_racks=1, nodes_per_rack=1), RandomPlacement())
    profiles = [JobProfile(workload="a", baseline_runtime=5.0)] * 2
    with pytest.raises(SchedulingError, match="NaN"):
        simulator.run(profiles, arrivals=[0.0, float("nan")])
