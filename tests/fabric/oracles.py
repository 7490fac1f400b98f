"""Reference paths the fabric's one implementation of each concept is tested against.

The library keeps one solver, one cluster loop and one rack driver.  The
paths it used to ship next to them live on here, as differential oracles:

* :func:`solve_bisection` — the max-min fair split of each port that
  :meth:`FabricTopology.resolve` computes in one sorted walk, found here by
  bisecting on the port's water level;
* :func:`solve_scalar` — the damped fixed point the fabric solved port
  contention with before it had one exact rule.  Its answer depends on its
  damping wherever two nodes of a port are throttled, and its 10% floor
  lets eleven or more nodes take more than the port has, so it is an
  oracle only where its fixed point is unique;
* :func:`lockstep` — a cluster stepper that advances every rack through its
  own :meth:`RackCoSimulator.step`, so each rack rolls its epochs over and
  resolves them alone (through :func:`solve_bisection` unless told
  otherwise);
* :func:`resolve_every_rollover` — racks that re-solve at every epoch
  rollover instead of skipping a solve whose inputs did not change;
* :func:`epoch_stepping` — racks that stop at every epoch end, clean or
  dirty, where the library runs a clean rack's chunk to its next rate change
  and records the skipped rollovers it crosses in place;
* :func:`cluster_epoch_ends` — the cluster loop
  :meth:`ClusterCoSimulator.step` had of its own before it ran
  :func:`~repro.fabric.cosim.step_racks`: it cuts a chunk at every cluster
  epoch end, with its own elapsed-time counter, where the library stops
  there only while a recoupling has work and counts the other epoch ends in
  place;
* :func:`fixed_stride_run` — the rack's fixed-stride batch loop, which admits
  arrivals and grants queued leases only at epoch boundaries;
* :func:`rack_run_oracle` and :func:`cluster_loop_oracle` — the two closed
  loops a standalone rack's ``run()`` and
  :meth:`ClusterCoSimulator.run_to_completion` ran before the fabric had
  one: the rack stepped itself, kept its finished tenants and released
  their leases under one forced rollover, and the cluster dated a tenant
  from its latest lease grant and withdrew the tenants it stranded;
* :class:`PhaseProfile`, :func:`profile_tenant` and :func:`unit_time` — a
  tenant's reference phases as a cached copy of the baseline run, each phase
  carrying its idle unit time priced once per cache, where the library reads
  :func:`~repro.fabric.cosim.baseline_run`'s phases directly;
  :func:`use_phase_profiles` runs the co-simulator on them;
* :func:`ends_within_fraction` — the phase-end slack test
  ``cosim._ends_within`` made in :class:`fractions.Fraction` arithmetic,
  where the library cross-multiplies the floats' integer ratios.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Optional

import numpy as np

from repro.config.errors import FabricError
from repro.fabric import ClusterCoSimulator
from repro.fabric.cosim import RackCoSimulator, _TenantState, baseline_run, roll_over
from repro.fabric.pool import (
    LEASE_GRANTED,
    LEASE_QUEUED,
    LEASE_REJECTED,
    LEASE_REVOKED,
)
from repro.sim.perfmodel import PerformanceModel, PhaseInputs
from repro.telemetry import metrics

#: Most iterations an oracle loop takes before it gives up.
MAX_EPOCHS = 200_000


def solve_bisection(topology, demands: Mapping[int, float]) -> dict[int, float]:
    """:meth:`FabricTopology.resolve` by bisection on each port's water level.

    A port whose link-clipped demands fit its data capacity delivers them.
    Otherwise the level ``L`` solves ``sum(min(d, L)) == capacity``; the sum
    grows with ``L``, so halving ``[0, max(d)]`` a hundred times pins ``L``
    to the float, and every node gets ``min(d, L)``.
    """
    offers = {n: topology._node_demand(n, demands) for n in demands}
    delivered = {}
    for port in {topology.port_of(n) for n in offers}:
        nodes = [n for n in offers if topology.port_of(n) == port]
        capacity = topology.ports[port].data_capacity
        level = math.inf
        if math.fsum(offers[n] for n in nodes) > capacity:
            low, high = 0.0, max(offers[n] for n in nodes)
            for _ in range(100):
                mid = 0.5 * (low + high)
                if math.fsum(min(offers[n], mid) for n in nodes) > capacity:
                    high = mid
                else:
                    low = mid
            level = low
        for n in nodes:
            delivered[n] = min(offers[n], level)
    return {n: delivered[n] for n in demands}


#: :func:`solve_scalar`'s damping backoff: every ``BACKOFF_WINDOW``
#: iterations it checks whether the residual at least halved
#: (``BACKOFF_IMPROVEMENT``) since the previous window and, if not, halves
#: the fraction of the old value it keeps.
BACKOFF_WINDOW = 8
BACKOFF_IMPROVEMENT = 0.5


@dataclass(frozen=True)
class ScalarSolve:
    """What :func:`solve_scalar` computed, and whether it converged."""

    delivered: dict[int, float]
    converged: bool


def solve_scalar(
    topology,
    demands: Mapping[int, float],
    iterations: int = 64,
    tolerance: float = 1e6,
) -> ScalarSolve:
    """The damped fixed point, one node at a time.

    Each iteration moves every node a damping fraction of the way to
    ``min(demand, available)``, where ``available`` is
    :meth:`RemoteLink.share`'s: the port's capacity minus what the node's
    co-runners deliver, never below ``MIN_SHARE`` of it and never above the
    node link.  The damping starts at one over the largest number of nodes
    on one port and backs off toward 1 when the residual stalls.  It stops
    when no node moves by ``tolerance`` bytes/s, or after ``iterations``.
    """
    max_sharing = max(
        (
            sum(1 for other in demands if topology.port_of(other) == topology.port_of(node))
            for node in demands
        ),
        default=1,
    )
    rate = 1.0 / max_sharing
    delivered = {n: topology._node_demand(n, demands) for n in demands}
    window_residual: Optional[float] = None
    for used in range(1, max(int(iterations), 1) + 1):
        max_delta = 0.0
        updated: dict[int, float] = {}
        for node in delivered:
            offered = topology._node_demand(node, demands)
            background = sum(
                delivered[other]
                for other in topology.nodes_on_port(topology.port_of(node))
                if other != node and other in delivered
            )
            share = topology.link_of(node).share(offered, background)
            target = min(offered, share.available_bandwidth)
            new_value = delivered[node] + rate * (target - delivered[node])
            max_delta = max(max_delta, abs(new_value - delivered[node]))
            updated[node] = new_value
        delivered = updated
        if max_delta < tolerance:
            return ScalarSolve(delivered=delivered, converged=True)
        if used % BACKOFF_WINDOW == 0:
            if window_residual is not None and max_delta > BACKOFF_IMPROVEMENT * window_residual:
                rate = 1.0 - 0.5 * (1.0 - rate)
            window_residual = max_delta
    return ScalarSolve(delivered=delivered, converged=False)


def lockstep(cluster, scalar: bool = True):
    """Make ``cluster`` step every rack through its own ``RackCoSimulator.step``.

    Racks advance in chunks bounded by the cluster epoch and by the next
    fault of their one feed, which the cluster fires; each rack sub-chunks
    at its own epoch ends and rolls itself over with a solve of its own.
    With ``scalar`` those solves go through :func:`solve_bisection`, and
    ``cluster.scalar_solves`` counts them, so a test can prove the oracle did
    not quietly run the library's solver.
    Call it before the first admission (admissions solve too).  Returns
    ``cluster``.
    """
    if scalar:
        cluster.scalar_solves = 0

        def resolve(topology, demands):
            cluster.scalar_solves += 1
            return solve_bisection(topology, demands)

        for topology in cluster.fabric.racks:
            topology.resolve = types.MethodType(resolve, topology)
    cluster.step = types.MethodType(_lockstep_step, cluster)
    return cluster


def _lockstep_step(self, dt: float) -> dict[str, float]:
    lockstep = self._lockstep
    done = {name: 0.0 for name in self.tenant_names}
    remaining = float(dt)
    while remaining > 1e-15:
        lockstep.apply_due_faults()
        chunk = min(remaining, max(self._epoch_end - self.clock, 0.0))
        if lockstep.next_fault is not None:
            chunk = min(chunk, max(lockstep.next_fault - self.clock, 0.0))
        if chunk > 0:
            # Each rack steps the chunk alone from its start, on the clock
            # they share, with the feed set aside: the cluster fires faults.
            start, nxt = self.clock, lockstep.next_fault
            lockstep.next_fault = None
            for sim in self.rack_sims:
                lockstep.clock = start
                for name, amount in sim.step(chunk).items():
                    done[name] = done.get(name, 0.0) + amount
            lockstep.next_fault = nxt
            remaining -= chunk
        if self.clock >= self._epoch_end - 1e-12:
            self._epoch_end += self.epoch_seconds
            self._recouple()
    return done


def resolve_every_rollover(racks):
    """Make every epoch rollover of ``racks`` re-solve the contention.

    The library skips a rollover's solve when the rack's demands, external
    offsets and port health are unchanged since its last solve, and a rack
    in that state (clean) does not even stop at its epoch ends: it records
    the skipped rollovers in place.  Here each rack forgets that signature
    whenever a rollover collects its demands, so nothing can match, and
    stays dirty after every rollover, so every epoch end is a stop and
    every rollover re-solves — the behaviour the skip must be
    indistinguishable from.  Works on standalone racks and on a cluster's
    ``rack_sims`` alike.  Returns ``racks``.
    """
    for rack in racks:

        def collect(rack=rack, collect=rack._epoch_demands):
            rack._solve_key = None
            return collect()

        def complete(running, demands, rack=rack, complete=rack._complete_rollover):
            complete(running, demands)
            rack._clean = False

        rack._epoch_demands = collect
        rack._complete_rollover = complete
    return racks


def epoch_stepping(monkeypatch) -> None:
    """Step every co-simulator from epoch end to epoch end until the test ends.

    Every rack's chunk ends at its epoch end (or next fault), its horizon at
    the epoch end too, and :meth:`RackCoSimulator.step_frozen` refuses to
    cross one, so every rollover — skipped or not — happens in
    :func:`~repro.fabric.cosim.roll_over` at a step boundary.  A cluster's
    horizon always ends at the next cluster epoch end.  Same simulated
    numbers as the library up to float accumulation, in more steps.
    """
    monkeypatch.setattr(RackCoSimulator, "_chunk_bound", _epoch_chunk_bound)
    monkeypatch.setattr(RackCoSimulator, "horizon", _epoch_horizon)
    monkeypatch.setattr(RackCoSimulator, "step_frozen", _epoch_step_frozen)
    monkeypatch.setattr(ClusterCoSimulator, "horizon", _epoch_cluster_horizon)


def _epoch_chunk_bound(self) -> float:
    epoch = self._lockstep.epoch
    if epoch is None:
        return math.inf
    return max(epoch - self._epoch_elapsed, 0.0)


def _epoch_horizon(self) -> float:
    epoch = self._lockstep.epoch
    if epoch is None:
        raise FabricError("the co-simulation has no epoch length yet")
    bound = max(epoch - self._epoch_elapsed, 1e-12)
    nxt = self._lockstep.next_fault
    if nxt is not None:
        bound = min(bound, max(nxt - self.clock, 1e-12))
    for state in self._states.values():
        if self._draining(state):
            bound = min(bound, max(state.migration_debt, 1e-12))
    for name, rate in self.progress_rates().items():
        if rate > 0:
            state = self._states[name]
            remaining = state.phases[state.phase_index].runtime - state.phase_elapsed
            bound = min(bound, max(remaining, 0.0) / rate)
    return max(bound, 1e-12)


def _epoch_step_frozen(self, dt: float) -> dict[str, float]:
    if dt < 0:
        raise FabricError("cannot step the co-simulation backwards")
    registry = metrics()
    registry.counter("fabric.cosim.step_calls").inc()
    registry.counter("fabric.cosim.stepped_seconds").inc(dt)
    done = {name: 0.0 for name in self._states}
    epoch = self._lockstep.epoch
    if dt <= 1e-15 or epoch is None:
        return done
    if dt > max(epoch - self._epoch_elapsed, 0.0) + 1e-12:
        raise FabricError("step_frozen cannot cross an epoch boundary")
    for state in [s for s in self._states.values() if s.running]:
        avail = self._fault_chunk_available(state, dt)
        if avail <= 0.0:
            continue
        before = state.completed_baseline_seconds
        used = self._advance(state, self._backgrounds.get(state.node, 0.0), avail)
        done[state.spec.name] += state.completed_baseline_seconds - before
        if used is not None and state.finish_time is None:
            state.finish_time = self.clock + (dt - avail) + used
    for state in self._states.values():
        if (
            state.revoked_at is not None
            and state.readmit_latency is None
            and not state.finished
            and not state.running
        ):
            self._record_stall(state, dt)
    self._epoch_elapsed += dt
    return done


def _epoch_cluster_horizon(self) -> float:
    if self.epoch_seconds is None:
        raise FabricError("the cluster has no epoch length yet")
    bound = max(self._epoch_end - self.clock, 1e-12)
    for sim in self.rack_sims:
        if any(state.running for state in sim.tenant_states.values()):
            bound = min(bound, sim.horizon())
    return max(bound, 1e-12)


def cluster_epoch_ends(monkeypatch) -> None:
    """Cut every cluster step at every cluster epoch end until the test ends.

    Each cluster keeps its own time into the epoch, summed chunk by chunk
    from its first epoch on and reset at each epoch end, where it counts
    ``fabric.cluster.epochs`` and recouples, whether or not a recoupling has
    work.  Its horizon reads that counter.  Same simulated numbers as the
    library up to float accumulation, in more chunks.  Cluster checkpoints
    do not carry the counter.
    """
    monkeypatch.setattr(ClusterCoSimulator, "step", _every_epoch_step)
    monkeypatch.setattr(ClusterCoSimulator, "horizon", _every_epoch_horizon)


def _every_epoch_step(self, dt: float) -> dict[str, float]:
    if dt < 0:
        raise FabricError("cannot step the cluster backwards")
    metrics().counter("fabric.cluster.step_calls").inc()
    done: dict[str, float] = {name: 0.0 for name in self.tenant_names}
    epoch = self.epoch_seconds
    elapsed = self.__dict__.get("_oracle_elapsed", 0.0)
    end = self.clock + dt
    remaining = float(dt)
    while remaining > 1e-15:
        self._lockstep.apply_due_faults()
        chunk = min([remaining] + [sim._chunk_bound() for sim in self.rack_sims])
        if self._lockstep.next_fault is not None:
            chunk = min(chunk, max(self._lockstep.next_fault - self.clock, 0.0))
        if epoch is not None:
            chunk = min(chunk, max(epoch - elapsed, 0.0))
        if chunk > 0:
            for sim in self.rack_sims:
                for name, amount in sim.step_frozen(chunk).items():
                    if amount:
                        done[name] = done.get(name, 0.0) + amount
            self._lockstep.clock += chunk
            if epoch is not None:
                elapsed += chunk
        roll_over(self.rack_sims, self.fabric.resolve_racks)
        if epoch is not None and elapsed >= epoch - 1e-12:
            metrics().counter("fabric.cluster.epochs").inc()
            elapsed = 0.0
            self._recouple()
        remaining = end - self.clock
    self._oracle_elapsed = elapsed
    return done


def _every_epoch_horizon(self) -> float:
    if self.epoch_seconds is None:
        raise FabricError("the cluster has no epoch length yet")
    epoch_end = max(self.epoch_seconds - self.__dict__.get("_oracle_elapsed", 0.0), 1e-12)
    bound = epoch_end if self._spilled or self._offset_nodes else math.inf
    for sim in self.rack_sims:
        if any(state.running for state in sim.tenant_states.values()):
            bound = min(bound, sim.horizon())
    return epoch_end if bound == math.inf else max(bound, 1e-12)


def fresh_clean(rack: RackCoSimulator) -> bool:
    """Whether ``rack``'s next rollover would skip its solve, worked out afresh.

    The definition the rack's O(1) clean flag caches: a solve happened, no
    revoked tenant waits for its lease, and the demand signature a rollover
    would build now equals the last solve's.  With no revoked tenant the
    signature's own revoked-lease retry does nothing, so this changes no state.
    """
    if rack._solve_key is None:
        return False
    if any(
        (s.revoked_at is not None and s.readmit_latency is None)
        or (s.lease.state == LEASE_REVOKED and not s.finished)
        for s in rack.tenant_states.values()
    ):
        return False
    return rack._epoch_demands()[2] == rack._solve_key


def fixed_stride_run(sim: ClusterCoSimulator, tenants) -> tuple[dict, int]:
    """Run ``tenants`` on the 1-rack cluster ``sim`` with the fixed-stride
    batch loop.

    Every iteration is one epoch: arrivals that came due are admitted at its
    start, the contention is solved once, every running tenant advances one
    epoch, and a finished tenant's lease returns at the epoch's end, so a
    queued tenant starts at the next boundary.  Tenant ``i`` runs on node
    ``i``.  Returns ``({name: (start, finish)}, epochs recorded)``; only
    fault-free, non-elastic runs.
    """
    rack = sim.rack_sim(0)
    states = [rack._new_tenant(spec, i) for i, spec in enumerate(tenants)]
    epoch = sim.epoch_seconds
    if epoch is None:
        epoch = max(max(s.baseline_runtime for s in states) / 40.0, 1e-6)
    clock = 0.0
    epochs = 0
    for _ in range(MAX_EPOCHS):
        for state in states:
            if state.lease is None and state.spec.arrival <= clock:
                state.lease = rack.pool.request(
                    state.spec.name, state.spec.lease_bytes, time=clock
                )
        running = [s for s in states if s.running]
        if not running:
            future = [
                s.spec.arrival for s in states if s.lease is None and s.spec.arrival > clock
            ]
            if future:
                clock = min(future)
                continue
            for state in states:
                if state.lease is not None and state.lease.state == LEASE_QUEUED:
                    rack.pool.release(state.lease, time=clock)
                    state.lease.state = LEASE_REJECTED
            break
        demands = {s.node: s.current_offered_bandwidth() for s in running}
        delivered = rack.topology.resolve(demands)
        epochs += 1
        end = clock + epoch
        for state in running:
            background = rack.topology.background_for(state.node, delivered)
            used = rack._advance(state, background, epoch)
            if used is not None:
                state.finish_time = clock + used
                rack.pool.release(state.lease, time=end)
        clock = end
    else:
        raise AssertionError("fixed-stride oracle did not terminate")
    times = {
        s.spec.name: (s.lease.granted_at if s.lease is not None else None, s.finish_time)
        for s in states
    }
    return times, epochs


def rack_run_oracle(sim: ClusterCoSimulator, tenants) -> dict:
    """Run ``tenants`` on the 1-rack cluster ``sim`` with the closed loop a
    standalone rack's ``run()`` had before the fabric had one.

    The rack steps itself and rolls over alone.  With no epoch length set,
    ~1/40 of the longest baseline among ``tenants`` sets it.  Each tenant is
    admitted on the first free node at its arrival.  Finished tenants stay
    admitted, so no node is reused: their leases are released in place,
    with one forced rollover for all of them.  Whoever is still queued once
    nothing runs, arrives or fires is rejected.

    Returns plain values: each tenant's ``outcome``, the ``summary`` that
    ``run()`` printed (rows in list order, a finished lease ``released``,
    the means taken in release order), the ``telemetry`` series and every
    interference ``timeline``.
    """
    rack = sim.rack_sim(0)
    lockstep = rack._lockstep
    if lockstep.epoch is None:
        runtimes = [
            spec.baseline_runtime or rack._baseline(spec).total_runtime for spec in tenants
        ]
        lockstep.epoch = max(max(runtimes, default=0.0) / 40.0, 1e-6)
    pending = sorted(tenants, key=lambda spec: spec.arrival)
    released: list[str] = []
    max_leased = 0
    for _ in range(MAX_EPOCHS):
        lockstep.apply_due_faults()
        while pending and pending[0].arrival <= rack.clock + 1e-12:
            spec = pending.pop(0)
            if spec.arrival > rack.clock:
                rack.step(spec.arrival - rack.clock)
            rack.admit(spec)
        max_leased = max(max_leased, rack.pool.leased_bytes)
        states = list(rack.tenant_states.values())
        finished = [s for s in states if s.finished and s.lease.state == LEASE_GRANTED]
        for state in finished:
            rack.pool.release(state.lease, time=rack.clock)
            released.append(state.spec.name)
        if finished:
            roll_over((rack,), rack._solve_alone, force=True)
        if not pending and states and all(s.finished for s in states):
            break
        targets = [pending[0].arrival] if pending else []
        if lockstep.next_fault is not None:
            targets.append(lockstep.next_fault)
        future = [t for t in targets if t > rack.clock + 1e-12]
        if rack.progressing():
            dt = rack.horizon()
            if future:
                dt = min(dt, min(future) - rack.clock)
            rack.step(dt)
        elif future:
            rack.step(min(future) - rack.clock)
        else:
            for state in states:
                if state.lease.state == LEASE_QUEUED and not state.finished:
                    rack.pool.release(state.lease, time=rack.clock)
                    state.lease.state = LEASE_REJECTED
            break
    else:
        raise AssertionError("rack run oracle did not terminate")
    outcomes = {spec.name: rack.tenant_states[spec.name].outcome() for spec in tenants}
    done = [outcomes[name] for name in released]
    summary = {
        "makespan": max((o.finish_time for o in done), default=0.0),
        "mean_slowdown": float(np.mean([o.slowdown for o in done])) if done else 1.0,
        "mean_runtime": float(np.mean([o.runtime for o in done])) if done else 0.0,
        "pool_capacity_gb": rack.pool.capacity_bytes / 1e9,
        "max_leased_gb": max_leased / 1e9,
        "epoch_seconds": lockstep.epoch,
        "tenants": [
            {
                "name": o.name,
                "workload": o.workload,
                "node": o.node,
                "lease_state": o.lease_state,
                "lease_gb": o.lease_bytes / 1e9,
                "wait_s": o.wait_time,
                "runtime_s": o.runtime,
                "baseline_s": o.baseline_runtime,
                "slowdown": o.slowdown,
                "mean_background_gbs": o.mean_background_bandwidth / 1e9,
            }
            for o in outcomes.values()
        ],
    }
    if lockstep.reports_faults:
        summary["faults"] = lockstep.blast_radius().summary()
    return {
        "outcomes": outcomes,
        "summary": summary,
        "telemetry": rack.telemetry.series(),
        "timelines": {
            name: state.interference()
            for name, state in rack.tenant_states.items()
            if state.background_times
        },
    }


def cluster_loop_oracle(sim: ClusterCoSimulator, arrivals=()) -> tuple[dict, dict]:
    """Run ``sim`` to completion with the closed loop the cluster had of its own.

    Arrivals are admitted at their exact times and finished tenants are
    withdrawn as they finish, but due faults wait for the next step (whose
    horizon a due fault floors at 1e-12 s), a tenant is dated from its
    latest lease grant, and the tenants left once nothing runs are withdrawn
    with their lease state as it stands.  Returns the summary and each
    reported tenant's state, by name.
    """
    pending = sorted(arrivals, key=lambda item: item[1].arrival)
    rows: list[dict] = []
    finished_slowdowns: list[float] = []
    states: dict = {}

    def record(name: str, rack: int) -> None:
        state = sim.rack_sims[rack].tenant_states[name]
        states[name] = state
        lease = state.lease
        row = {
            "name": name,
            "rack": rack,
            "node": state.node,
            "spilled": sim.is_spilled(name),
            "lease_state": LEASE_GRANTED if state.finished else lease.state,
            "wait_s": lease.wait_time if state.finished else 0.0,
            "runtime_s": 0.0,
            "baseline_s": state.baseline_runtime,
            "slowdown": 1.0,
        }
        if state.finished:
            row["runtime_s"] = state.finish_time - lease.granted_at
            if row["runtime_s"] > 0 and state.baseline_runtime > 0:
                row["slowdown"] = row["runtime_s"] / state.baseline_runtime
            finished_slowdowns.append(row["slowdown"])
        rows.append(row)

    for _ in range(MAX_EPOCHS):
        while pending and pending[0][1].arrival <= sim.clock + 1e-12:
            rack, spec = pending.pop(0)
            sim.admit(rack, spec, time=spec.arrival)
        finished: list[str] = []
        running = 0
        for name, state in sim.tenant_states.items():
            if state.finished:
                finished.append(name)
            elif state.running:
                running += 1
        for name in finished:
            record(name, sim.rack_of(name))
            sim.withdraw(name)
        if not sim.tenant_names and not pending:
            break
        if finished:
            continue
        stuck = running == 0 or (
            sim._lockstep.next_fault is None
            and not any(rack.progressing() for rack in sim.rack_sims)
        )
        if stuck and not pending:
            for name in sim.tenant_names:
                record(name, sim.rack_of(name))
                sim.withdraw(name)
            break
        dt = pending[0][1].arrival - sim.clock if pending else math.inf
        sim.step(dt if stuck else min(sim.horizon(), dt))
    else:
        raise AssertionError("cluster loop oracle did not terminate")
    summary = {
        "makespan": max(
            (s.finish_time for s in states.values() if s.finished), default=0.0
        ),
        "mean_slowdown": (
            float(np.mean(finished_slowdowns)) if finished_slowdowns else 1.0
        ),
        "n_racks": sim.fabric.n_racks,
        "nodes_per_rack": sim.fabric.nodes_per_rack,
        "epoch_seconds": sim.epoch_seconds,
        "spilled_tenants": sum(1 for row in rows if row["spilled"]),
        "cluster_pool_gb": (
            sim.cluster_pool.capacity_bytes / 1e9 if sim.cluster_pool is not None else 0.0
        ),
        "tenants": sorted(rows, key=lambda row: (row["rack"], row["name"])),
    }
    if sim._lockstep.reports_faults:
        summary["faults"] = sim.blast_radius().summary()
    return summary, states


@dataclass(frozen=True)
class PhaseProfile:
    """Interference-free reference behaviour of one phase of one tenant."""

    runtime: float
    flops: float
    local_bytes: float
    remote_bytes: float
    coverage: float
    mlp: float
    unit_time_idle: float

    @property
    def offered_bandwidth(self) -> float:
        """Pool bandwidth the phase demands when running at full speed, bytes/s."""
        return self.remote_bytes / max(self.runtime, 1e-12)


def profile_tenant(sim: RackCoSimulator, state, cache: dict) -> None:
    """Give ``state`` its phase profiles, built once per ``cache``.

    ``state`` needs only ``spec`` and ``node``; this sets its ``perf``,
    ``phases`` and ``baseline_runtime``.  Tenants sharing the same workload
    object and local fraction share one entry, whose idle unit times were
    priced on the port link of the first tenant that built it.  An entry hits
    only for the very workload object it was built from.
    """
    spec = state.spec
    state.perf = PerformanceModel(sim.testbed, sim.topology.link_of(state.node))
    key = (id(spec.workload), spec.local_fraction)
    entry = cache.get(key)
    if entry is None or entry[0] is not spec.workload:
        result = baseline_run(spec.workload, spec.local_fraction, sim.testbed, sim.seed)
        profiles = []
        for phase_spec, phase in zip(spec.workload.phases, result.phases):
            profile = PhaseProfile(
                runtime=phase.runtime,
                flops=phase.flops,
                local_bytes=phase.local_bytes,
                remote_bytes=phase.remote_bytes,
                coverage=phase.prefetch_coverage,
                mlp=phase_spec.mlp,
                unit_time_idle=1.0,
            )
            profiles.append(
                replace(profile, unit_time_idle=unit_time(state, profile, 0.0))
            )
        entry = cache[key] = (spec.workload, tuple(profiles))
    state.phases = entry[1]
    state.baseline_runtime = float(sum(p.runtime for p in state.phases))


def unit_time(state, profile: PhaseProfile, background: float) -> float:
    """Wall time for one baseline-second of a phase under ``background``."""
    runtime = max(profile.runtime, 1e-12)
    inputs = PhaseInputs(
        flops=profile.flops / runtime,
        local_demand_bytes=profile.local_bytes / runtime,
        remote_demand_bytes=profile.remote_bytes / runtime,
        prefetch_coverage=profile.coverage,
        mlp=profile.mlp,
        background_bandwidth=background,
    )
    return max(state.perf.phase_time(inputs).runtime, 1e-12)


def progress_rate(state, profile: PhaseProfile, background: float) -> float:
    """A phase's progress rate under ``background``, priced afresh and
    clamped at the idle fabric's 1."""
    return min(profile.unit_time_idle / unit_time(state, profile, background), 1.0)


def use_phase_profiles(monkeypatch) -> None:
    """Run every co-simulator on phase profiles until the test ends.

    Each new tenant's phases are replaced by profiles from its simulator's
    own cache (a cluster's racks have identical ports, so sharing one across
    them priced the same bits), and the idle unit times the tenant priced
    itself go unused.  Rates are priced afresh on every query.
    """
    new_tenant = RackCoSimulator._new_tenant

    def _new_tenant(self, spec, node):
        state = new_tenant(self, spec, node)
        profile_tenant(self, state, self.__dict__.setdefault("_oracle_profiles", {}))
        return state

    def _progress_rate(self, state, background):
        return progress_rate(state, state.phases[state.phase_index], background)

    def peak_offered_bandwidth(self, spec):
        probe = types.SimpleNamespace(spec=spec, node=0)
        profile_tenant(self, probe, self.__dict__.setdefault("_oracle_profiles", {}))
        return max((p.offered_bandwidth for p in probe.phases), default=0.0)

    def current_offered_bandwidth(self):
        if self.phase_index >= len(self.phases):
            return 0.0
        return self.phases[self.phase_index].offered_bandwidth

    monkeypatch.setattr(RackCoSimulator, "_new_tenant", _new_tenant)
    monkeypatch.setattr(RackCoSimulator, "_progress_rate", _progress_rate)
    monkeypatch.setattr(RackCoSimulator, "peak_offered_bandwidth", peak_offered_bandwidth)
    monkeypatch.setattr(
        _TenantState, "current_offered_bandwidth", current_offered_bandwidth
    )


def ends_within_fraction(
    runtime: float, elapsed: float, rate: float, dt: float, used: float
) -> bool:
    """Whether a phase with ``runtime - elapsed`` baseline-seconds left, run at
    ``rate``, ends within 1e-12 s of the ``dt - used`` wall-seconds left.

    Floats decide past ~500 s of phase and chunk; below that the residue
    decides exactly, in :class:`~fractions.Fraction` arithmetic.
    """
    if runtime / rate + dt > 500.0:
        return (runtime - elapsed) / rate <= (dt - used) + 1e-12
    left = Fraction(dt) - Fraction(used) + Fraction(1e-12)
    return Fraction(runtime) - Fraction(elapsed) <= left * Fraction(rate)
