"""Reference paths the fabric's one implementation of each concept is tested against.

The library keeps one solver, one cluster loop and one rack driver.  The
paths it used to ship next to them live on here, as differential oracles:

* :func:`solve_scalar` — the pure-Python damped fixed point that
  :func:`repro.fabric.solver.solve_fixed_point` computes on flat arrays;
* :func:`lockstep` — a cluster stepper that advances every rack through its
  own :meth:`RackCoSimulator.step`, so each rack rolls its epochs over and
  resolves them alone (through :func:`solve_scalar` unless told otherwise);
* :func:`resolve_every_rollover` — racks that re-solve at every epoch
  rollover instead of skipping a solve whose inputs did not change;
* :func:`fixed_stride_run` — the rack's fixed-stride batch loop, which admits
  arrivals and grants queued leases only at epoch boundaries.
"""

from __future__ import annotations

import types
from typing import Mapping, Optional

from repro.fabric import SolveDiagnostics
from repro.fabric.cosim import RackCoSimulator, _TenantState
from repro.fabric.pool import LEASE_QUEUED, LEASE_REJECTED
from repro.fabric.solver import BACKOFF_IMPROVEMENT, BACKOFF_WINDOW


def solve_scalar(
    topology,
    demands: Mapping[int, float],
    iterations: int = 64,
    damping: Optional[float] = None,
    tolerance: float = 1e6,
) -> SolveDiagnostics:
    """:meth:`FabricTopology.resolve_detailed`, one node at a time.

    Same default damping (one over the largest port sharing degree) and the
    same adaptive damping backoff as the NumPy kernel; the two rules must
    never drift, or the equivalence suite loses its meaning.  Emits neither
    the non-convergence warning nor telemetry.
    """
    if damping is None:
        max_sharing = max(
            (
                sum(1 for other in demands if topology.port_of(other) == topology.port_of(node))
                for node in demands
            ),
            default=1,
        )
        damping = 1.0 / max(max_sharing, 1)
    rate = damping
    delivered = {n: topology._node_demand(n, demands) for n in demands}
    max_delta = 0.0
    converged = False
    used = 0
    window_residual: Optional[float] = None
    for _ in range(max(int(iterations), 1)):
        used += 1
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
            converged = True
            break
        if used % BACKOFF_WINDOW == 0:
            if window_residual is not None and max_delta > BACKOFF_IMPROVEMENT * window_residual:
                rate = 1.0 - 0.5 * (1.0 - rate)
            window_residual = max_delta
    return SolveDiagnostics(
        delivered=delivered,
        iterations=used,
        converged=converged,
        residual=max_delta,
        damping=damping,
    )


def lockstep(cluster, scalar: bool = True):
    """Make ``cluster`` step every rack through its own ``RackCoSimulator.step``.

    Racks advance in chunks bounded by the cluster epoch only; each rack
    sub-chunks at its own epoch ends and fault times and rolls itself over
    with a solve of its own.  With ``scalar`` those solves go through
    :func:`solve_scalar`, and ``cluster.scalar_solves`` counts them, so a
    test can prove the oracle did not quietly run the library's solver.
    Call it before the first admission (admissions solve too).  Returns
    ``cluster``.
    """
    if scalar:
        cluster.scalar_solves = 0

        def resolve(topology, demands, *args, **kwargs):
            cluster.scalar_solves += 1
            return solve_scalar(topology, demands, *args, **kwargs).delivered

        for topology in cluster.fabric.racks:
            topology.resolve = types.MethodType(resolve, topology)
    cluster.step = types.MethodType(_lockstep_step, cluster)
    return cluster


def _lockstep_step(self, dt: float) -> dict[str, float]:
    done = {name: 0.0 for name in self._tenant_rack}
    remaining = float(dt)
    while remaining > 1e-15:
        if self._epoch is None:
            for sim in self.rack_sims:
                sim.step(remaining)
            self._clock += remaining
            return done
        chunk = min(remaining, max(self._epoch - self._epoch_elapsed, 0.0))
        if chunk > 0:
            for sim in self.rack_sims:
                for name, amount in sim.step(chunk).items():
                    done[name] = done.get(name, 0.0) + amount
            self._clock += chunk
            self._epoch_elapsed += chunk
            remaining -= chunk
        if self._epoch_elapsed >= self._epoch - 1e-12:
            self._epoch_elapsed = 0.0
            self._recouple()
    return done


def resolve_every_rollover(racks):
    """Make every epoch rollover of ``racks`` re-solve the contention.

    The library skips a rollover's solve when the rack's demands, external
    offsets and port health are unchanged since its last solve.  Here each
    rack forgets that signature whenever a rollover collects its demands, so
    nothing can match and every rollover re-solves — the behaviour the skip
    must be indistinguishable from.  Works on standalone racks and on a
    cluster's ``rack_sims`` alike.  Returns ``racks``.
    """
    for rack in racks:

        def collect(rack=rack, collect=rack._epoch_demands):
            rack._inc_solve_key = None
            return collect()

        rack._epoch_demands = collect
    return racks


def fixed_stride_run(sim: RackCoSimulator) -> tuple[dict, int]:
    """Run ``sim``'s tenants with the fixed-stride batch loop.

    Every iteration is one epoch: arrivals that came due are admitted at its
    start, the contention is solved once, every running tenant advances one
    epoch, and a finished tenant's lease returns at the epoch's end, so a
    queued tenant starts at the next boundary.  Returns ``({name: (start,
    finish)}, epochs recorded)``; only fault-free, non-elastic runs.
    """
    states = [_TenantState(spec, node=i) for i, spec in enumerate(sim.tenants)]
    cache: dict = {}
    for state in states:
        sim._profile_tenant(state, cache)
    epoch = sim._epoch_seconds
    if epoch is None:
        epoch = max(max(s.baseline_runtime for s in states) / 40.0, 1e-6)
    clock = 0.0
    epochs = 0
    for _ in range(sim.MAX_EPOCHS):
        for state in states:
            if state.lease is None and state.spec.arrival <= clock:
                state.lease = sim.pool.request(
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
                    sim.pool.release(state.lease, time=clock)
                    state.lease.state = LEASE_REJECTED
            break
        demands = {s.node: s.current_offered_bandwidth() for s in running}
        delivered = sim.topology.resolve(demands)
        epochs += 1
        end = clock + epoch
        for state in running:
            background = sim.topology.background_for(state.node, delivered)
            used = sim._advance(state, background, epoch)
            if used is not None:
                state.finish_time = clock + used
                sim.pool.release(state.lease, time=end)
        clock = end
    else:
        raise AssertionError("fixed-stride oracle did not terminate")
    times = {
        s.spec.name: (s.lease.granted_at if s.lease is not None else None, s.finish_time)
        for s in states
    }
    return times, epochs
