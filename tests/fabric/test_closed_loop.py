"""The fabric's one closed loop against the two loops it replaced.

:meth:`ClusterCoSimulator.run_to_completion` is the fabric's one closed
loop, and a standalone rack is its 1-rack case.  ``oracles.rack_run_oracle``
and ``oracles.cluster_loop_oracle`` are the loops a rack's ``run()`` and the
cluster used to have of their own.

* A 1-rack cluster whose tenants are listed in arrival order is
  bit-identical to the rack oracle on every output both report: the tenant
  outcomes, the makespan, the means, the pool capacity, the peak leased
  bytes, the epoch, the telemetry, every interference timeline and the
  blast radius.  The cluster reads a finished tenant's lease as
  ``granted`` (the rack read ``released``) and withdraws each finished
  tenant, so tenants finishing in one instant cost one forced rollover
  each.  Listed out of arrival order, each tenant still takes the first
  free node when it arrives, where ``run()`` put tenant ``i`` on node
  ``i``.
* A cluster run equals its oracle to 1e-12 relative, except where the loop
  meant to change: a tenant is dated from its first lease grant (the oracle
  dated a revoked tenant from its re-grant), due faults fire before the loop
  steps (the oracle took a 1e-12 s step per fault), and a stranded tenant
  stays admitted, one whose lease is still queued reading ``rejected`` (the
  oracle withdrew them, reporting each lease as that left it).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from racks import on_rack, one_rack
from repro import telemetry
from repro.config.errors import FabricError
from repro.config.units import GiB
from repro.fabric import (
    ClusterCoSimulator,
    ClusterFabric,
    FaultEvent,
    FaultSchedule,
    TenantSpec,
    uniform_tenants,
)
from repro.workloads import build_workload, workload_names

#: One workload object per application, so the baseline memo serves repeats.
WORKLOADS = {name: build_workload(name) for name in workload_names()}
APPS = sorted(WORKLOADS)
FAULT_KINDS = ("port-kill", "port-degrade", "lease-shrink", "lease-revoke")


#: The top-level and tenant-row summary keys a rack's ``run()`` printed.
RACK_KEYS = (
    "makespan", "mean_slowdown", "mean_runtime", "pool_capacity_gb", "max_leased_gb",
    "epoch_seconds", "faults",
)
RACK_ROW_KEYS = (
    "name", "workload", "node", "lease_state", "lease_gb", "wait_s", "runtime_s",
    "baseline_s", "slowdown", "mean_background_gbs",
)


def run_outputs(outcomes, summary, series, interference_for) -> dict:
    """Every output of a rack run, in plain values compared with ``==``:
    the outcomes, the summary keys a rack printed (rows by name, a finished
    tenant's lease ``granted``), the telemetry series and the timelines."""
    rows = {}
    for row in summary["tenants"]:
        row = {key: row[key] for key in RACK_ROW_KEYS}
        if outcomes[row["name"]].finish_time is not None:
            row["lease_state"] = "granted"
        rows[row["name"]] = row
    timelines = {}
    for name in outcomes:
        try:
            timeline = interference_for(name)
        except (FabricError, KeyError):
            continue
        timelines[name] = (
            timeline.times.tolist(),
            timeline.bandwidths.tolist(),
            timeline.loi_timeline()[1].tolist(),
        )
    return {
        "outcomes": outcomes,
        "summary": {**{key: summary.get(key) for key in RACK_KEYS}, "tenants": rows},
        "telemetry": series,
        "timelines": timelines,
    }


def cluster_run(sim: ClusterCoSimulator, tenants) -> dict:
    """``run_outputs`` of ``tenants`` run to completion on the 1-rack ``sim``."""
    summary = sim.run_to_completion(on_rack(tenants))
    outcomes = {spec.name: sim.outcome(spec.name) for spec in tenants}
    return run_outputs(
        outcomes, summary, sim.rack_sim(0).telemetry.series(), sim.interference_for
    )


def oracle_run(sim: ClusterCoSimulator, tenants) -> dict:
    """``run_outputs`` of ``oracles.rack_run_oracle``."""
    oracle = oracles.rack_run_oracle(sim, tenants)
    return run_outputs(
        oracle["outcomes"], oracle["summary"], oracle["telemetry"],
        oracle["timelines"].__getitem__,
    )


def with_counters(run):
    """``run()`` and the rollover and re-solve counts it recorded."""
    telemetry.enable(reset=True)
    try:
        result = run()
        registry = telemetry.registry()
        return result, (
            registry.counter("fabric.cosim.epoch_rollovers").value,
            registry.counter("fabric.cosim.epoch_resolves").value,
        )
    finally:
        telemetry.disable()
        telemetry.registry().reset()
        telemetry.tracer().reset()


@st.composite
def rack_scenarios(draw):
    """A 1-rack factory: 2-5 tenants with unsorted arrivals on 1-2 ports, a
    tight or elastic pool, maybe an oversized lease, and maybe faults.
    ``build()`` returns the rack and its tenants."""
    n = draw(st.integers(2, 5))
    apps = draw(st.lists(st.sampled_from(APPS), min_size=n, max_size=n))
    arrivals = draw(st.lists(st.floats(0.0, 4.0), min_size=n, max_size=n))
    ports = draw(st.sampled_from((1, 2)))
    pool_share = draw(st.floats(0.3, 1.0))
    floor = draw(st.sampled_from((None, 0.5, 0.9)))  # elastic floor, if any
    oversized = draw(st.booleans())
    seed = draw(st.integers(0, 2))
    names = [f"t{i}" for i in range(n)]
    explicit = st.lists(
        st.one_of(
            st.builds(
                lambda time, port, duration: FaultEvent(
                    time=time, kind="port-kill", port=port, duration=duration
                ),
                st.floats(0.0, 10.0),
                st.integers(0, ports - 1),
                st.one_of(st.none(), st.floats(0.5, 3.0)),
            ),
            st.builds(
                lambda time, tenant: FaultEvent(
                    time=time, kind="lease-revoke", tenant=tenant
                ),
                st.floats(0.0, 10.0),
                st.sampled_from(names),
            ),
        ),
        max_size=3,
    ).map(lambda events: FaultSchedule(events) if events else None)
    seeded = st.integers(0, 2**16).map(
        lambda fault_seed: FaultSchedule.seeded(
            seed=fault_seed, horizon=10.0, n_events=4, kinds=FAULT_KINDS,
            n_racks=1, n_ports=ports, tenants=names, nbytes=GiB, mean_duration=2.0,
        )
    )
    schedule = draw(st.one_of(explicit, seeded))

    def build() -> tuple[ClusterCoSimulator, list[TenantSpec]]:
        tenants = [
            TenantSpec(name=name, workload=WORKLOADS[app], arrival=arrival)
            for name, app, arrival in zip(names, apps, arrivals)
        ]
        leases = [spec.lease_bytes for spec in tenants]
        capacity = max(int(pool_share * sum(leases)), max(leases))
        if oversized:
            tenants[-1] = TenantSpec(
                name=names[-1], workload=WORKLOADS[apps[-1]], arrival=arrivals[-1],
                pool_bytes=capacity + 1,
            )
        sim = one_rack(
            tenants, pool_bytes=capacity, n_ports=ports, seed=seed,
            overcommit=floor is not None,
        )
        if floor is not None:
            sim.rack_sim(0).pool.min_lease_fraction = floor
        if schedule is not None:
            sim.inject_faults(schedule)
        return sim, tenants

    return build


def cluster_case(n_racks, apps, arrivals, pool_share, fault_seed=None, n_events=0):
    """A cluster factory and its arrivals: racks with a node per tenant that
    spill into a cluster pool, elastic under a seeded schedule of all four
    fault kinds when ``fault_seed`` is given."""
    n = len(apps)
    tenants = [
        (
            i % n_racks,
            TenantSpec(
                name=f"r{i % n_racks}-{app}-{i}", workload=WORKLOADS[app], arrival=arrival
            ),
        )
        for i, (app, arrival) in enumerate(zip(apps, arrivals))
    ]
    demand = [0] * n_racks
    largest = [1] * n_racks
    for rack, spec in tenants:
        demand[rack] += spec.lease_bytes
        largest[rack] = max(largest[rack], spec.lease_bytes)

    def build() -> ClusterCoSimulator:
        sim = ClusterCoSimulator(
            ClusterFabric(n_racks=n_racks, nodes_per_rack=max(-(-n // n_racks), 2), n_ports=2),
            rack_pool_bytes=[max(int(pool_share * d), big) for d, big in zip(demand, largest)],
            cluster_pool_bytes=max(int(0.3 * sum(demand)), 1),
            epoch_seconds=1.5,
            overcommit=fault_seed is not None,
        )
        if fault_seed is not None:
            sim.inject_faults(
                FaultSchedule.seeded(
                    seed=fault_seed, horizon=10.0, n_events=n_events, kinds=FAULT_KINDS,
                    n_racks=n_racks, n_ports=2, tenants=[s.name for _, s in tenants],
                    nbytes=GiB, mean_duration=2.0,
                )
            )
        return sim

    return build, tenants


cluster_scenarios = st.integers(2, 8).flatmap(
    lambda n: st.builds(
        cluster_case,
        n_racks=st.integers(1, 4),
        apps=st.lists(st.sampled_from(APPS), min_size=n, max_size=n),
        arrivals=st.lists(st.floats(0.0, 4.0), min_size=n, max_size=n),
        pool_share=st.floats(0.3, 1.0),
        fault_seed=st.one_of(st.none(), st.integers(0, 2**16)),
        n_events=st.integers(1, 8),
    )
)


def assert_close(got, expected):
    if expected is None:
        assert got is None
    else:
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-9)


def assert_cluster_matches_oracle(build, arrivals) -> None:
    """``run_to_completion`` against ``oracles.cluster_loop_oracle``."""
    sim = build()
    summary = sim.run_to_completion(arrivals)
    expected, states = oracles.cluster_loop_oracle(build(), arrivals)
    exact = ("n_racks", "nodes_per_rack", "epoch_seconds", "spilled_tenants", "cluster_pool_gb")
    assert {key: summary[key] for key in exact} == {key: expected[key] for key in exact}
    assert_close(summary["makespan"], expected["makespan"])
    rows = {row["name"]: row for row in summary["tenants"]}
    assert [row["name"] for row in summary["tenants"]] == [
        row["name"] for row in expected["tenants"]
    ]
    slowdowns = []
    for old in expected["tenants"]:
        new, state = rows[old["name"]], states[old["name"]]
        for key in ("rack", "node", "spilled", "lease_state", "baseline_s"):
            assert new[key] == old[key], key
        if not state.finished:
            assert (new["runtime_s"], new["slowdown"]) == (0.0, 1.0)
            continue
        # Dated from the first grant; the oracle agrees unless it was revoked.
        wait = state.start_time - state.spec.arrival
        runtime = state.finish_time - state.start_time
        if state.first_granted_at is None:
            assert_close(old["wait_s"], wait)
            assert_close(old["runtime_s"], runtime)
        assert_close(new["wait_s"], wait)
        assert_close(new["runtime_s"], runtime)
        assert new["slowdown"] == pytest.approx(runtime / state.baseline_runtime, rel=1e-12)
        slowdowns.append(new["slowdown"])
    assert summary["mean_slowdown"] == pytest.approx(
        float(np.mean(slowdowns)) if slowdowns else 1.0, rel=1e-12
    )
    assert ("faults" in summary) == ("faults" in expected)
    if "faults" in summary:
        got, want = summary["faults"], expected["faults"]
        for key in ("faults_injected", "revocations", "stalled_tenants"):
            assert got[key] == want[key], key
        assert_close(got["total_stall_seconds"], want["total_stall_seconds"])
        for new, old in zip(got["tenants"], want["tenants"], strict=True):
            assert (new["name"], new["revocations"], new["migrated_gb"]) == (
                old["name"], old["revocations"], old["migrated_gb"]
            )
            for key in ("stall_seconds", "readmission_latency_s", "throughput_lost_baseline_s"):
                assert_close(new[key], old[key])


def by_arrival(tenants):
    return sorted(tenants, key=lambda spec: spec.arrival)


class TestOneRackIsBitIdenticalToTheRackOracle:
    @given(build=rack_scenarios())
    def test_every_output(self, build):
        """Tenants listed in arrival order, run with ``run()``'s epoch."""
        sim, tenants = build()
        tenants = by_arrival(tenants)
        assert cluster_run(sim, tenants) == oracle_run(build()[0], tenants)

    def test_simultaneous_finishes_roll_over_once_each(self):
        """Four identical tenants finish in one instant: the oracle released
        their leases under one forced rollover, the loop withdraws each."""
        tenants = uniform_tenants(WORKLOADS["XSBench"], 4)
        sim = one_rack(tenants)
        result, counts = with_counters(lambda: cluster_run(sim, tenants))
        oracle, oracle_counts = with_counters(lambda: oracle_run(one_rack(tenants), tenants))
        assert result == oracle
        assert len({o.finish_time for o in result["outcomes"].values()}) == 1
        assert counts == (48, 9)
        assert oracle_counts == (45, 6)
        # Every tenant finished and was withdrawn, so the rack is empty.
        assert dict(sim.tenant_states) == {}
        assert all(o.lease_state == "released" for o in result["outcomes"].values())

    def test_each_arrival_takes_the_first_free_node(self):
        """Listed out of arrival order on a 2-port rack: ``a`` arrives first
        and takes node 0 (port 0), ``b`` node 1 (port 1), and ``c``, arriving
        once both finished, node 0 again.  ``run()`` put tenant ``i`` on node
        ``i``, so ``b`` on port 0."""
        late = 200.0
        tenants = [
            TenantSpec(name="b", workload=WORKLOADS["XSBench"], arrival=10.0),
            TenantSpec(name="a", workload=WORKLOADS["XSBench"]),
            TenantSpec(name="c", workload=WORKLOADS["XSBench"], arrival=late),
        ]
        sim = one_rack(tenants, nodes=2, n_ports=2)
        summary = sim.run_to_completion(on_rack(tenants))
        assert {t["name"]: t["node"] for t in summary["tenants"]} == {"a": 0, "b": 1, "c": 0}
        ports = sim.rack_sim(0).topology
        assert [ports.port_of(sim.outcome(name).node) for name in "abc"] == [0, 1, 0]
        assert sim.outcome("b").finish_time < late
        assert sim.outcome("c").start_time == late

    def test_a_stranded_run_keeps_its_last_telemetry_row(self):
        """A port killed for good strands both tenants at t=5: they stay
        admitted, so no withdrawal rewrites the kill's telemetry row."""
        tenants = uniform_tenants(WORKLOADS["XSBench"], 2)
        schedule = FaultSchedule((FaultEvent(time=5.0, kind="port-kill", port=0),))

        def build():
            sim = one_rack(tenants)
            sim.inject_faults(schedule)
            return sim

        sim = build()
        result = cluster_run(sim, tenants)
        assert result == oracle_run(build(), tenants)
        series = sim.rack_sim(0).telemetry.series()
        assert series["time"][-1] == 5.0
        assert series["leased_gb"][-1] == pytest.approx(
            2 * tenants[0].lease_bytes / 1e9, rel=1e-12
        )
        assert series["active_tenants"][-1] == 2
        assert [o.finish_time for o in result["outcomes"].values()] == [None, None]
        assert sorted(sim.tenant_states) == [t.name for t in tenants]


class TestClusterRunMatchesItsOracle:
    @given(scenario=cluster_scenarios)
    def test_summary(self, scenario):
        assert_cluster_matches_oracle(*scenario)

    def test_a_revoked_tenant_is_dated_from_its_first_grant(self):
        """Revoked at 5 s and re-granted at once, t1 ran for 35.335 s from
        t=0, as the rack reports; the oracle dated it from the re-grant."""
        tenants = [TenantSpec(name=f"t{i}", workload=WORKLOADS["XSBench"]) for i in range(2)]
        lease = tenants[0].lease_bytes
        schedule = FaultSchedule((FaultEvent(time=5.0, kind="lease-revoke", tenant="t1"),))
        rack = one_rack(tenants, pool_bytes=2 * lease, epoch_seconds=0.5)
        rack.inject_faults(schedule, drain_bytes_per_s=1e9)
        expected = oracles.rack_run_oracle(rack, tenants)["outcomes"]["t1"]

        def build():
            sim = ClusterCoSimulator(
                ClusterFabric(n_racks=1, nodes_per_rack=2),
                rack_pool_bytes=2 * lease,
                epoch_seconds=0.5,
            )
            sim.inject_faults(schedule, drain_bytes_per_s=1e9)
            return sim

        arrivals = [(0, spec) for spec in tenants]
        got = {t["name"]: t for t in build().run_to_completion(arrivals)["tenants"]}
        oracle = {
            t["name"]: t for t in oracles.cluster_loop_oracle(build(), arrivals)[0]["tenants"]
        }
        assert expected.runtime == pytest.approx(35.335, abs=1e-3)
        assert got["t1"]["runtime_s"] == pytest.approx(expected.runtime, rel=1e-12)
        assert got["t1"]["wait_s"] == expected.wait_time == 0.0
        assert oracle["t1"]["runtime_s"] == pytest.approx(30.335, abs=1e-3)

    def test_due_faults_fire_before_the_loop_steps(self, monkeypatch):
        """The oracle left a due fault to its next step, whose horizon the
        fault floored at 1e-12 s: one such step per fault event."""
        steps = []
        step = ClusterCoSimulator.step

        def recording_step(self, dt):
            steps.append(dt)
            return step(self, dt)

        monkeypatch.setattr(ClusterCoSimulator, "step", recording_step)
        # The pinned chaos run of test_rate_change_stepping: a port kill,
        # three degrades and two revokes, and the four restores.
        build, arrivals = cluster_case(
            2, ["Hypre", "BFS", "HPL", "XSBench"], [0.0, 0.5, 1.0, 1.5], 0.6,
            fault_seed=2, n_events=6,
        )
        build().run_to_completion(arrivals)
        library = [dt for dt in steps if dt < 1e-9]
        steps.clear()
        oracles.cluster_loop_oracle(build(), arrivals)
        oracle = [dt for dt in steps if dt < 1e-9]
        assert library == []
        assert len(oracle) == 10  # the 6 drawn events and the 4 restores

    def test_a_stranded_tenant_stays_admitted_and_its_queued_lease_is_rejected(self):
        """t0 holds the one-lease pool behind a port killed for good at 5 s;
        t1 waits in the queue.  Nothing can run again: both stay admitted,
        t1 is rejected, and no withdrawal adds a telemetry row.  The oracle
        withdrew t0 first, which granted t1 a lease it never used."""
        tenants = [TenantSpec(name=f"t{i}", workload=WORKLOADS["XSBench"]) for i in range(2)]
        schedule = FaultSchedule((FaultEvent(time=5.0, kind="port-kill", port=0),))

        def build():
            sim = ClusterCoSimulator(
                ClusterFabric(n_racks=1, nodes_per_rack=2),
                rack_pool_bytes=tenants[0].lease_bytes,
            )
            sim.inject_faults(schedule)
            return sim

        arrivals = [(0, spec) for spec in tenants]
        sim = build()
        got = {t["name"]: t["lease_state"] for t in sim.run_to_completion(arrivals)["tenants"]}
        oracle = {
            t["name"]: t["lease_state"]
            for t in oracles.cluster_loop_oracle(build(), arrivals)[0]["tenants"]
        }
        assert got == {"t0": "granted", "t1": "rejected"}
        assert oracle == {"t0": "granted", "t1": "granted"}
        assert sim.tenant_names == ("t0", "t1")
        assert sim.interference_for("t0").times[-1] == 5.0
        with pytest.raises(FabricError, match="never ran"):
            sim.interference_for("t1")
        series = sim.rack_sim(0).telemetry.series()
        assert series["time"][-1] == 5.0
        assert (series["queue_depth"][-1], series["active_tenants"][-1]) == (1, 1)
