"""The four benchmark workloads, each one user flow of the repository.

Every flow splits into four steps so the harness can time them apart:

* ``inputs(seed, size)`` — benchmark-side input generation from the seed
  (excluded from every timing);
* ``build(inputs)`` — the study objects a user would construct (part of
  ``setup_s``);
* ``call(study, inputs)`` — the one public entry point that is timed
  (``wall_s``);
* ``check(result, inputs)`` — correctness checks plus the simulated
  statistics that feed the run digest and the shape counters.

Sizes are chosen so one call takes one to three seconds on a 2-core host and so
the amount of simulated work barely depends on the seed: the seed reorders
and perturbs the inputs, it does not change how many there are.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

#: The six paper applications (Table 2).
APPS = ("HPL", "Hypre", "NekRS", "BFS", "SuperLU", "XSBench")

#: Figure-9 capacity splits (local share of the footprint).
SPLITS = (0.75, 0.50, 0.25)

SIZES = {
    "trace_replay": {
        "full": {"jobs": 450, "interarrival_s": 20.0, "racks": 4, "nodes": 16},
        "tiny": {"jobs": 60, "interarrival_s": 120.0, "racks": 2, "nodes": 4},
    },
    "coupled_cluster": {
        "full": {"apps": APPS, "copies": 2, "racks": 12, "nodes": 4},
        "tiny": {"apps": ("HPL", "XSBench"), "copies": 1, "racks": 2, "nodes": 2},
    },
    "fabric_chaos": {
        "full": {"racks": 8, "tenants": 4, "faults": {"port-degrade": 8, "lease-shrink": 4, "lease-revoke": 4}},
        "tiny": {"racks": 2, "tenants": 2, "faults": {"port-degrade": 1, "lease-shrink": 1, "lease-revoke": 1}},
    },
    "profile_levels": {
        "full": {"apps": APPS},
        "tiny": {"apps": ("HPL", "XSBench")},
    },
}


@dataclass
class Outcome:
    """What :meth:`Flow.check` found out about one call."""

    attempted: int
    failed: int
    problems: list = field(default_factory=list)
    #: Counters showing the run exercised its layer (printed, not checked).
    shape: dict = field(default_factory=dict)
    #: Simulated statistics; identical across same-seed runs of one commit.
    stats: dict = field(default_factory=dict)

    @property
    def digest(self) -> str:
        text = json.dumps(self.stats, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _finished_times(jobs) -> list:
    return [[j.start_time, j.finish_time] for j in jobs]


class TraceReplay:
    """Capacity planning: a seeded ``sacct`` dump replayed with pool-aware placement."""

    name = "trace_replay"

    def inputs(self, seed: int, size: str) -> dict:
        from repro.data.slurm import synthesize_sacct_lines

        cfg = SIZES[self.name][size]
        lines = list(
            synthesize_sacct_lines(
                cfg["jobs"], seed=seed, mean_interarrival_s=cfg["interarrival_s"]
            )
        )
        return {"seed": seed, "cfg": cfg, "lines": lines}

    def build(self, inputs: dict):
        from repro.casestudies.trace_replay import TraceReplayStudy

        cfg = inputs["cfg"]
        return TraceReplayStudy(
            n_racks=cfg["racks"],
            nodes_per_rack=cfg["nodes"],
            pool_capacity_gb=384.0,
            policy="pool-aware",
            seed=inputs["seed"],
        )

    def call(self, study, inputs: dict):
        return study.run(inputs["lines"])

    def check(self, result, inputs: dict) -> Outcome:
        ingest = result.ingest
        attempted = ingest["jobs_yielded"]
        finished = sum(1 for j in result.outcome.jobs if j.finished)
        problems = []
        if not ingest["conserved"]:
            problems.append(f"ingest not conserved: {ingest}")
        if attempted != result.jobs_replayed + result.unplaceable_jobs:
            problems.append(
                f"{attempted} jobs ingested but {result.jobs_replayed} replayed "
                f"+ {result.unplaceable_jobs} unplaceable"
            )
        failed = attempted - finished - result.unplaceable_jobs
        if failed:
            problems.append(f"{failed} replayed jobs never finished")
        if problems:
            failed = attempted
        return Outcome(
            attempted=attempted,
            failed=failed,
            problems=problems,
            shape={
                "jobs_replayed": result.jobs_replayed,
                "mean_wait_s": result.outcome.mean_wait,
                "rows_read": ingest["rows_read"],
            },
            stats={
                "summary": result.summary(),
                "jobs": _finished_times(result.outcome.jobs),
            },
        )


class CoupledCluster:
    """Fabric-coupled scheduling: static leg vs ``cluster-fabric`` coupled leg."""

    name = "coupled_cluster"

    def inputs(self, seed: int, size: str) -> dict:
        # The job stream keeps the paper's application order; the seed drives
        # the engine's sampled access streams and the placement RNG.  A
        # shuffled order changes which jobs share a rack, and with it the
        # amount of fabric work by +-20%.
        return {"seed": seed, "cfg": SIZES[self.name][size]}

    def build(self, inputs: dict):
        from repro.casestudies.scheduling import CoupledSchedulingStudy
        from repro.workloads.registry import build_workload

        cfg = inputs["cfg"]
        study = CoupledSchedulingStudy(
            n_racks=cfg["racks"],
            nodes_per_rack=cfg["nodes"],
            policy="cluster-fabric",
            cluster_pool_gb=64.0,
            seed=inputs["seed"],
        )
        specs = [build_workload(name) for name in cfg["apps"]]
        return study, specs

    def call(self, study, inputs: dict):
        study, specs = study
        return study.run(specs=specs, copies=inputs["cfg"]["copies"], stagger=3.0)

    def check(self, result, inputs: dict) -> Outcome:
        legs = (result.static, result.coupled)
        attempted = sum(len(leg.jobs) for leg in legs)
        failed = sum(1 for leg in legs for j in leg.jobs if not j.finished)
        problems = [f"{failed} jobs never finished"] if failed else []
        return Outcome(
            attempted=attempted,
            failed=failed,
            problems=problems,
            shape={
                "jobs_per_leg": len(result.coupled.jobs),
                "mean_wait_s": result.coupled.mean_wait,
                "makespan_delta": result.makespan_delta,
            },
            stats={
                "summary": result.summary(),
                "static": _finished_times(result.static.jobs),
                "coupled": _finished_times(result.coupled.jobs),
            },
        )


class FabricChaos:
    """Fault injection on elastic rack pools with a cluster spill pool."""

    name = "fabric_chaos"

    def inputs(self, seed: int, size: str) -> dict:
        from repro.config.units import GiB
        from repro.fabric.faults import FaultSchedule

        cfg = SIZES[self.name][size]
        rng = np.random.default_rng(seed)
        # Rack r runs applications APPS[k..k+tenants) (cyclically) for an
        # offset k the seed shuffles over the racks: every seed runs the same
        # multiset of co-location mixes, so the total work hardly depends on
        # the seed.  A free draw of mixes moved it by +-15%.
        offsets = rng.permutation(cfg["racks"]) % len(APPS)
        tenants = []
        for rack, offset in enumerate(offsets):
            for slot in range(cfg["tenants"]):
                app = APPS[(offset + slot) % len(APPS)]
                tenants.append(
                    {
                        "rack": rack,
                        "name": f"r{rack}-t{slot}-{app}",
                        "app": app,
                        "arrival": float(rng.uniform(0.0, 2.0)),
                    }
                )
        rack_of = {t["name"]: t["rack"] for t in tenants}
        # The same number of faults of each kind on every seed, drawn by the
        # repository's seeded generator.  They fire well before the first
        # tenant could finish, so every event lands and the blast radius must
        # count all of them.  No port kills: a tenant that owes migration
        # debt behind a killed port pins every rack horizon to that debt
        # until the port is restored, which made some seeds five times
        # slower than others (thousands of 1 ms steps).
        events = []
        for kind, count in cfg["faults"].items():
            drawn = FaultSchedule.seeded(
                seed=int(rng.integers(2**32)),
                horizon=12.0,
                n_events=count,
                kinds=(kind,),
                n_racks=cfg["racks"],
                n_ports=2,
                tenants=list(rack_of),
                nbytes=GiB,
                mean_duration=4.0,
            )
            # The draw picks rack and victim independently; a lease fault
            # only acts in its victim's rack, so move it there.
            events += [
                replace(e, rack=rack_of[e.tenant]) if e.tenant else e for e in drawn.events
            ]
        schedule = FaultSchedule(events)
        return {"seed": seed, "cfg": cfg, "tenants": tenants, "schedule": schedule}

    def build(self, inputs: dict):
        from repro.fabric import ClusterCoSimulator, ClusterFabric, TenantSpec
        from repro.workloads.registry import build_all

        cfg = inputs["cfg"]
        specs = {spec.name: spec for spec in build_all(1.0)}
        tenants = [
            (t["rack"], TenantSpec(name=t["name"], workload=specs[t["app"]],
                                   local_fraction=0.5, arrival=t["arrival"]))
            for t in inputs["tenants"]
        ]
        demand = [0] * cfg["racks"]
        largest = [0] * cfg["racks"]
        for rack, spec in tenants:
            demand[rack] += spec.lease_bytes
            largest[rack] = max(largest[rack], spec.lease_bytes)
        sim = ClusterCoSimulator(
            ClusterFabric(n_racks=cfg["racks"], nodes_per_rack=cfg["tenants"], n_ports=2),
            # Overcommitted to 60% of demand, but never below one lease: a
            # request larger than the whole pool is rejected, not shrunk.
            rack_pool_bytes=[max(int(0.6 * d), big) for d, big in zip(demand, largest)],
            cluster_pool_bytes=int(0.15 * sum(demand)),
            # Fixed, so the seed-shuffled admission order cannot change it.
            epoch_seconds=1.5,
            seed=inputs["seed"],
            overcommit=True,
        )
        sim.inject_faults(inputs["schedule"])
        return sim, sorted(tenants, key=lambda item: item[1].arrival)

    def call(self, study, inputs: dict):
        sim, tenants = study
        for rack, spec in tenants:
            sim.admit(rack, spec, time=spec.arrival)
        return sim, sim.run_to_completion()

    def check(self, result, inputs: dict) -> Outcome:
        sim, summary = result
        tenants = summary["tenants"]
        attempted = len(inputs["tenants"])
        done = [t for t in tenants if t["lease_state"] == "granted" and math.isfinite(t["runtime_s"])]
        failed = attempted - len(done)
        problems = [f"{failed} tenants never finished"] if failed else []
        for index, rack_sim in enumerate(sim.rack_sims):
            peak = max(rack_sim.telemetry.leased_bytes, default=0)
            if peak > rack_sim.pool.capacity_bytes:
                problems.append(
                    f"rack {index} leased {peak} B > capacity {rack_sim.pool.capacity_bytes} B"
                )
        if sim.cluster_pool is not None and sim.cluster_pool.leased_bytes > sim.cluster_pool.capacity_bytes:
            problems.append("cluster pool leased bytes exceed its capacity")
        faults = summary["faults"]
        expected = len(inputs["schedule"])
        if faults["faults_injected"] != expected:
            problems.append(
                f"blast radius counts {faults['faults_injected']} faults, "
                f"schedule injected {expected}"
            )
        revokes = sum(1 for e in inputs["schedule"].events if e.kind == "lease-revoke")
        if faults["revocations"] > revokes:
            problems.append(f"{faults['revocations']} revocations from {revokes} revoke events")
        if problems:
            failed = attempted
        return Outcome(
            attempted=attempted,
            failed=failed,
            problems=problems,
            shape={
                "faults_injected": faults["faults_injected"],
                "spilled_tenants": summary["spilled_tenants"],
                "stalled_tenants": len(faults["stalled_tenants"]),
                "revocations": faults["revocations"],
                "makespan_s": summary["makespan"],
            },
            stats=summary,
        )


class ProfileLevels:
    """The paper's methodology: levels 1, 2 (three splits) and 3 per application."""

    name = "profile_levels"

    def inputs(self, seed: int, size: str) -> dict:
        return {"seed": seed, "cfg": SIZES[self.name][size]}

    def build(self, inputs: dict):
        from repro.profiler.profiler import MultiLevelProfiler
        from repro.workloads.registry import build_workload

        specs = [build_workload(name) for name in inputs["cfg"]["apps"]]
        return MultiLevelProfiler(seed=inputs["seed"]), specs

    def call(self, study, inputs: dict):
        profiler, specs = study
        return [
            (
                profiler.level1(spec),
                profiler.level2_sweep(spec, SPLITS),
                profiler.level3(spec, local_fraction=0.5),
            )
            for spec in specs
        ]

    def check(self, result, inputs: dict) -> Outcome:
        # One operation per (application, level, config) profile: its
        # ratios and its runtimes.
        profiles = {}
        for level1, level2, level3 in result:
            app = level1.workload
            profiles[f"{app}.l1"] = (
                [level1.prefetch.accuracy, level1.prefetch.coverage],
                [level1.total_runtime] + [p.runtime for p in level1.phases],
            )
            for label, profile in level2.items():
                profiles[f"{app}.l2.{label}"] = (
                    [profile.overall_remote_access_ratio]
                    + [
                        value
                        for p in profile.phases
                        for value in (
                            p.remote_access_ratio,
                            p.remote_capacity_ratio,
                            p.remote_bandwidth_ratio,
                        )
                    ],
                    [profile.run.total_runtime],
                )
            profiles[f"{app}.l3"] = (
                list(level3.sensitivity.relative_performance),
                list(level3.sensitivity.runtimes),
            )
        problems = []
        for key, (ratios, runtimes) in profiles.items():
            bad_ratios = [v for v in ratios if not 0.0 <= v <= 1.0]
            bad_runtimes = [v for v in runtimes if not (math.isfinite(v) and v > 0)]
            if bad_ratios or bad_runtimes:
                problems.append(f"{key}: ratios {bad_ratios} runtimes {bad_runtimes}")
        return Outcome(
            attempted=len(profiles),
            failed=len(problems),
            problems=problems,
            shape={"profiles": len(profiles), "applications": len(result)},
            stats=profiles,
        )


FLOWS = {flow.name: flow for flow in (TraceReplay(), CoupledCluster(), FabricChaos(), ProfileLevels())}
