"""Stepping from rate change to rate change against epoch-by-epoch stepping.

A rack whose next rollover would skip its solve is *clean*: its chunks run
to its next rate change (a phase end, a drain end or a fault) and the epoch
ends they cross are recorded in place as the skipped rollovers they are.
``oracles.epoch_stepping`` stops every rack at every epoch end, as the fabric
used to.  The two must agree on every rollover, solve, rate evaluation,
telemetry sample and background-history point exactly, and on every time to
1e-12 relative, while the library takes no more steps.  Under the library,
every chunk also checks each rack's O(1) clean flag against a fresh
comparison of its demand signature, so a missed invalidation fails here.

A cluster stops at its own epoch end only while a recoupling has work and
counts the other epoch ends in place.  ``oracles.cluster_epoch_ends`` cuts a
chunk at every one of them, as the cluster loop used to; against it, the
cluster's steps that move the clock must match exactly too, and only the
``step_frozen`` chunks may fall.  Every scheme recouples at the same epoch
ends and counts the same cluster epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from racks import run_rack
from repro import telemetry
from repro.casestudies.scheduling import CoupledSchedulingStudy
from repro.config.units import GiB
from repro.fabric import (
    ClusterCoSimulator,
    ClusterFabric,
    FaultSchedule,
    TenantSpec,
)
from repro.fabric.cosim import RackCoSimulator
from repro.scheduler import ClusterSimulator, FabricCoupledProgress, make_policy
from repro.workloads import build_workload, workload_names

#: One workload object per application, so the baseline memo serves repeats.
WORKLOADS = {name: build_workload(name) for name in workload_names()}
APPS = sorted(WORKLOADS)

#: Counts every stepping scheme must reach exactly.
EXACT_COUNTS = (
    "fabric.cosim.epoch_rollovers",
    "fabric.cosim.epoch_resolves",
    "fabric.cosim.epoch_skips",
    "fabric.rates.evaluations",
    "fabric.solve.calls",
    "fabric.cluster.recouples",
    "fabric.cluster.epochs",
)
#: Counts the library may only lower.
STEP_COUNTS = ("fabric.cosim.step_calls", "fabric.cluster.step_calls")
#: Cluster steps that move the clock.  An admission that a rounding error
#: puts ahead of the clock steps the cluster less than 1e-15 s, which moves
#: nothing, so these steps are where the cluster stopped.
MOVING_STEPS = "moving cluster steps"


@dataclass(frozen=True)
class Oracle:
    """A reference stepping scheme and how the library must compare to it."""

    #: Installs the scheme on a ``MonkeyPatch``.
    install: Callable
    #: Counts the library must reach exactly.
    exact: tuple
    #: Counts the library may only lower.
    fewer: tuple


#: Every rack stops at every epoch end.
EPOCH_STEPPING = Oracle(oracles.epoch_stepping, EXACT_COUNTS, STEP_COUNTS)
#: The cluster cuts a chunk at every cluster epoch end.
CLUSTER_EPOCH_ENDS = Oracle(
    oracles.cluster_epoch_ends, EXACT_COUNTS + (MOVING_STEPS,), ("fabric.cosim.step_calls",)
)


@dataclass
class Observed:
    """What one scenario run left behind."""

    #: name -> (start, finish, wait, runtime); None where a tenant never ran.
    times: dict
    makespan: float
    #: Lease states, spill flags, revocations, faults injected: exact.
    exact: object
    counts: dict = field(default_factory=dict)
    #: Per rack: the telemetry timeline's columns.
    samples: list = field(default_factory=list)
    #: name -> (background times, background bandwidths)
    histories: dict = field(default_factory=dict)


def observe(scenario, oracle: Oracle | None = None) -> Observed:
    """Run ``scenario`` under the library's stepping or under ``oracle``'s."""
    histories: dict = {}
    moving = []
    with pytest.MonkeyPatch.context() as patch:
        if oracle is not None:
            oracle.install(patch)
        else:
            step_frozen = RackCoSimulator.step_frozen

            def checked_step_frozen(self, dt):
                assert self._clean == oracles.fresh_clean(self)
                done = step_frozen(self, dt)
                assert self._clean == oracles.fresh_clean(self)
                return done

            patch.setattr(RackCoSimulator, "step_frozen", checked_step_frozen)
        withdraw = RackCoSimulator.withdraw

        def recording_withdraw(self, name):
            state = self.tenant_states[name]
            histories[name] = (state.background_times, state.background_bandwidths)
            return withdraw(self, name)

        patch.setattr(RackCoSimulator, "withdraw", recording_withdraw)
        cluster_step = ClusterCoSimulator.step

        def recording_step(self, dt):
            if dt > 1e-15:
                moving.append(dt)
            return cluster_step(self, dt)

        patch.setattr(ClusterCoSimulator, "step", recording_step)
        telemetry.enable(reset=True)
        try:
            observed, rack_sims = scenario()
            registry = telemetry.registry()
            observed.counts = {
                name: registry.counter(name).value for name in EXACT_COUNTS + STEP_COUNTS
            }
            observed.counts[MOVING_STEPS] = len(moving)
        finally:
            telemetry.disable()
            telemetry.registry().reset()
            telemetry.tracer().reset()
    for rack in rack_sims:
        for name, state in rack.tenant_states.items():
            histories[name] = (state.background_times, state.background_bandwidths)
    observed.samples = [rack.telemetry.series() for rack in rack_sims]
    observed.histories = histories
    return observed


def assert_close(got, expected, absolute=0.0):
    if expected is None:
        assert got is None
    else:
        assert got == pytest.approx(expected, rel=1e-12, abs=absolute)


def assert_same_run(scenario, against=(EPOCH_STEPPING,)) -> tuple[Observed, ...]:
    """The library's run of ``scenario`` against each oracle's, in full.

    Returns the library's observations, then each oracle's.
    """
    library = observe(scenario)
    observed = [observe(scenario, oracle) for oracle in against]
    for oracle, expected in zip(against, observed):
        assert_matches(library, expected, oracle)
    return (library, *observed)


def assert_matches(library: Observed, oracle: Observed, scheme: Oracle) -> None:
    assert library.exact == oracle.exact
    assert set(library.times) == set(oracle.times)
    for name, (start, finish, wait, runtime) in oracle.times.items():
        got = library.times[name]
        assert_close(got[0], start)
        assert_close(got[1], finish)
        # Wait and runtime are differences of near-equal times.
        assert_close(got[2], wait, absolute=1e-9)
        assert_close(got[3], runtime, absolute=1e-9)
    assert_close(library.makespan, oracle.makespan)
    for name in scheme.exact:
        assert library.counts[name] == oracle.counts[name], name
    for name in scheme.fewer:
        assert library.counts[name] <= oracle.counts[name], name
    assert len(library.samples) == len(oracle.samples)
    for got, expected in zip(library.samples, oracle.samples):
        assert len(got["time"]) == len(expected["time"])
        for column, values in expected.items():
            assert_close(got[column], values)
    assert set(library.histories) == set(oracle.histories)
    for name, (times, bandwidths) in oracle.histories.items():
        got_times, got_bandwidths = library.histories[name]
        assert len(got_times) == len(times), name
        assert_close(got_times, times)
        assert_close(got_bandwidths, bandwidths)


def rack_run(apps, arrivals, pool_share, ports, seed):
    """A 1-rack run with staggered arrivals on a tight pool."""

    def scenario():
        tenants = [
            TenantSpec(
                name=f"{app}-{i}", workload=WORKLOADS[app], local_fraction=0.5,
                arrival=arrival,
            )
            for i, (app, arrival) in enumerate(zip(apps, arrivals))
        ]
        leases = [spec.lease_bytes for spec in tenants]
        sim, summary = run_rack(
            tenants,
            pool_bytes=max(int(pool_share * sum(leases)), max(leases)),
            n_ports=ports,
            seed=seed,
        )
        outcomes = [sim.outcome(spec.name) for spec in tenants]
        times = {
            t.name: (t.start_time, t.finish_time, t.wait_time, t.runtime)
            for t in outcomes
        }
        exact = [(t.name, t.lease_state) for t in outcomes]
        return Observed(times, summary["makespan"], exact), list(sim.rack_sims)

    return scenario


def cluster_run(n_racks, apps, arrivals, pool_share, seed, faults=None):
    """``run_to_completion`` on racks with a node per tenant that spill into
    a cluster pool; elastic, and under the schedule ``faults(tenant names)``
    builds, when ``faults`` is given."""

    def scenario():
        tenants = [
            (
                i % n_racks,
                TenantSpec(
                    name=f"r{i % n_racks}-{app}-{i}", workload=WORKLOADS[app],
                    local_fraction=0.5, arrival=arrival,
                ),
            )
            for i, (app, arrival) in enumerate(zip(apps, arrivals))
        ]
        demand = [0] * n_racks
        largest = [1] * n_racks
        for rack, spec in tenants:
            demand[rack] += spec.lease_bytes
            largest[rack] = max(largest[rack], spec.lease_bytes)
        sim = ClusterCoSimulator(
            ClusterFabric(
                n_racks=n_racks, nodes_per_rack=max(-(-len(apps) // n_racks), 2), n_ports=2
            ),
            rack_pool_bytes=[max(int(pool_share * d), big) for d, big in zip(demand, largest)],
            cluster_pool_bytes=max(int(0.3 * sum(demand)), 1),
            epoch_seconds=1.5,
            seed=seed,
            overcommit=faults is not None,
        )
        if faults is not None:
            sim.inject_faults(faults([spec.name for _, spec in tenants]))
        summary = sim.run_to_completion(tenants)
        outcomes = [sim.outcome(spec.name) for _, spec in tenants]
        times = {
            o.name: (o.start_time, o.finish_time, o.wait_time, o.runtime) for o in outcomes
        }
        report = sim.blast_radius()
        exact = (
            [(t["name"], t["lease_state"], t["spilled"]) for t in summary["tenants"]],
            report.faults_injected,
            [(impact.name, impact.revocations) for impact in report.tenants],
        )
        return Observed(times, summary["makespan"], exact), list(sim.rack_sims)

    return scenario


def coupled_leg(seed, copies):
    """The fabric-coupled scheduler on two two-node racks."""

    def scenario():
        specs = [WORKLOADS[name] for name in ("HPL", "XSBench", "Hypre")]
        study = CoupledSchedulingStudy(
            n_racks=2, nodes_per_rack=2, policy="cluster-fabric",
            cluster_pool_gb=16.0, seed=seed,
        )
        profiles, arrivals, workloads = study.job_stream(specs, copies=copies, stagger=3.0)
        progress = FabricCoupledProgress(workloads=workloads, cluster_pool_gb=16.0, seed=seed)
        outcome = ClusterSimulator(
            study._cluster(),
            make_policy("cluster-fabric", progress=progress),
            seed=seed,
            progress=progress,
        ).run(profiles, arrivals=arrivals)
        times = {
            job.job_id: (job.start_time, job.finish_time, job.wait_time, job.execution_time)
            for job in outcome.jobs
        }
        exact = [(job.job_id, job.assigned_rack, job.assigned_node) for job in outcome.jobs]
        racks = list(progress.cluster_simulator().rack_sims)
        return Observed(times, outcome.makespan, exact), racks

    return scenario


apps_and_arrivals = st.integers(2, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.sampled_from(APPS), min_size=n, max_size=n),
        st.lists(st.floats(0.0, 4.0), min_size=n, max_size=n),
    )
)


class TestSameRunAsEpochStepping:
    @given(
        mix=apps_and_arrivals,
        pool_share=st.floats(0.3, 1.0),
        ports=st.sampled_from((1, 2)),
        seed=st.integers(0, 2),
    )
    def test_rack_run(self, mix, pool_share, ports, seed):
        apps, arrivals = mix
        assert_same_run(rack_run(apps, arrivals, pool_share, ports, seed))

    @given(
        n_racks=st.integers(1, 4),
        mix=st.integers(2, 8).flatmap(
            lambda n: st.tuples(
                st.lists(st.sampled_from(APPS), min_size=n, max_size=n),
                st.lists(st.floats(0.0, 4.0), min_size=n, max_size=n),
            )
        ),
        pool_share=st.floats(0.3, 1.0),
        seed=st.integers(0, 2),
    )
    # Cutting at the epoch end at 3.0 s left the old loop's clock a rounding
    # error short of the arrivals there, so each admission stepped < 1e-15 s.
    @example(
        n_racks=1,
        mix=(["BFS"] * 6 + ["Hypre", "BFS"], [0.0, 0.0, 2.0, 3.0, 3.0, 3.0, 2.0, 3.0]),
        pool_share=1.0,
        seed=0,
    )
    def test_cluster_with_spills(self, n_racks, mix, pool_share, seed):
        apps, arrivals = mix
        assert_same_run(
            cluster_run(n_racks, apps, arrivals, pool_share, seed),
            (EPOCH_STEPPING, CLUSTER_EPOCH_ENDS),
        )

    @given(
        n_racks=st.integers(1, 3),
        mix=st.integers(2, 6).flatmap(
            lambda n: st.tuples(
                st.lists(st.sampled_from(APPS), min_size=n, max_size=n),
                st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n),
            )
        ),
        fault_seed=st.integers(0, 2**16),
        n_events=st.integers(1, 8),
    )
    # The racks' epochs start 1e-12 s apart, so r1-BFS-1's last phase ends
    # 1.0012e-12 s after r0-BFS-0's.  The library rounded that residue under
    # the 1e-12 s finish slack and finished it a step early; the cluster
    # epoch cuts left the oracle's at 1.0090e-12 s.
    @example(
        n_racks=2,
        mix=(["BFS", "BFS", "SuperLU", "SuperLU"], [1.0, 0.001, 0.0, 1e-12]),
        fault_seed=0,
        n_events=1,
    )
    def test_cluster_under_faults(self, n_racks, mix, fault_seed, n_events):
        apps, arrivals = mix

        def faults(names):
            return FaultSchedule.seeded(
                seed=fault_seed, horizon=10.0, n_events=n_events,
                kinds=("port-kill", "port-degrade", "lease-shrink", "lease-revoke"),
                n_racks=n_racks, n_ports=2, tenants=names, nbytes=GiB,
                mean_duration=2.0,
            )

        assert_same_run(
            cluster_run(n_racks, apps, arrivals, 0.6, 0, faults),
            (EPOCH_STEPPING, CLUSTER_EPOCH_ENDS),
        )

    @pytest.mark.parametrize("seed, copies", [(0, 2), (1, 1)])
    def test_coupled_scheduling_leg(self, seed, copies):
        library, epochs, cluster_epochs = assert_same_run(
            coupled_leg(seed, copies), (EPOCH_STEPPING, CLUSTER_EPOCH_ENDS)
        )
        assert library.counts["fabric.cluster.step_calls"] < (
            epochs.counts["fabric.cluster.step_calls"]
        )
        assert library.counts["fabric.cosim.step_calls"] < (
            cluster_epochs.counts["fabric.cosim.step_calls"]
        )


def seeded_faults(names):
    """A port kill, three degrades and two revokes in the first 10 s, and
    the four restores of the port faults."""
    return FaultSchedule.seeded(
        seed=2, horizon=10.0, n_events=6,
        kinds=("port-kill", "port-degrade", "lease-shrink", "lease-revoke"),
        n_racks=2, n_ports=2, tenants=names, nbytes=GiB, mean_duration=2.0,
    )


class TestPinnedStepCounts:
    """Exact step counts of two small runs, so a change that brings back a
    step per epoch end fails here, not only in the benchmark."""

    def test_seeded_chaos(self):
        observed = observe(
            cluster_run(
                2, ["Hypre", "BFS", "HPL", "XSBench"], [0.0, 0.5, 1.0, 1.5], 0.6, 0,
                seeded_faults,
            ),
        )
        assert observed.exact[0][0] == ("r0-HPL-2", "granted", True)
        # 126.3 s at 1.5 s epochs.  While r0-HPL-2 runs spilled, every
        # cluster epoch end may recouple, so it ends a step (32 do); the
        # other 44 steps end at arrivals, the 10 fault events, drain ends,
        # phase ends, the re-solves those dirty and finishes: 76.  The
        # closed loop fires a due fault before it steps; a loop that left it
        # to the next step took one more 1e-12 s step per fault event (86).
        # Chunks: each step is one chunk on each of the 2 racks, 2 x 76 =
        # 152.  The 52 cluster epoch ends crossed once nothing spills are
        # counted in place with the others (84); cutting a chunk at each of
        # them took 2 x 128 = 256.  Stepping epoch by epoch takes 236 steps
        # and 532 chunks.
        assert observed.counts["fabric.cluster.step_calls"] == 76
        assert observed.counts["fabric.cosim.step_calls"] == 152
        assert observed.counts["fabric.cluster.epochs"] == 84

    def test_coupled_leg(self):
        observed = observe(coupled_leg(0, 2))
        # Nothing spills, so no cluster epoch end ends a step or a chunk:
        # one step per scheduler event that moves the clock (arrivals,
        # finishes, phase ends and the re-solves they dirty): 23, each one
        # chunk on each of the 2 racks: 2 x 23 = 46.  The cluster's 107 epoch
        # ends in 122.2 s are counted in place; cutting a chunk at each of
        # them took 2 x 131 = 262.  Stepping epoch by epoch took 325 steps
        # and 654 chunks.
        assert observed.counts["fabric.cluster.step_calls"] == 23
        assert observed.counts["fabric.cosim.step_calls"] == 46
        assert observed.counts["fabric.cluster.epochs"] == 107
