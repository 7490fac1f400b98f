"""Fabric topology: per-node links feeding shared memory-pool ports.

Every compute node reaches the rack's memory pool through its own node link
(bounded by the testbed's per-node sustainable remote bandwidth) into one of a
small number of shared **pool ports**.  A port is where interference becomes
emergent: its utilisation is computed from *all* concurrent tenants' offered
bandwidth demands, and the contention-induced waiting time comes from the same
:mod:`repro.interconnect.queueing` models the single-node simulator uses
(Section 3.2's M/M/1 explanation of why contention keeps growing past counter
saturation).

The topology is stateless: callers pass the current per-node demand map and
get back background bandwidth, utilisation and link shares.  Each rack of a
:class:`~repro.fabric.cluster.ClusterCoSimulator` drives it epoch by epoch, and
placement policies reuse the same resolution to *project* the pressure a
prospective tenant would add (statelessness is what makes such what-if
queries free of side effects).

Units: all demands, backgrounds and delivered values are **bytes/s of data
payload**; protocol overhead is applied inside the
:class:`~repro.interconnect.link.RemoteLink` when traffic and Levels of
Interference are derived.  Node indices are rack-local (0-based), matching
the tenant→node mapping of the co-simulator.

Statelessness also carries the failure model: the topology itself is never
mutated by faults.  A killed or degraded pool port
(``docs/failure_model.md``) lives entirely in the co-simulator's port-scale
map — killed ports drop their nodes from the demand vector, degraded ports
re-enter the resolution as extra background traffic — so once the fault is
lifted the very next resolve is indistinguishable from a never-faulted one
(the recovery contract: no residual topology state).
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from ..config.errors import FabricError
from ..config.testbed import SKYLAKE_EMULATION, TestbedConfig
from ..interconnect.link import LinkShare, RemoteLink
from ..interconnect.queueing import QueueingModel
from ..telemetry import metrics, trace_span
from .solver import solve_fixed_point


class FabricConvergenceWarning(RuntimeWarning):
    """The damped fixed-point solver exhausted its iteration budget."""


@dataclass(frozen=True)
class SolveDiagnostics:
    """What one fixed-point contention resolution actually did.

    Attributes
    ----------
    delivered:
        Resolved per-node delivered bandwidth, bytes/s (the solver's answer).
    iterations:
        Fixed-point iterations executed before convergence (or the budget).
    converged:
        Whether the final update moved every node by less than the tolerance.
    residual:
        The last iteration's largest per-node update, bytes/s — 0 exactly
        when no node moved, below the tolerance when ``converged``.
    damping:
        The damping factor actually used (derived from the sharing degree
        when the caller did not pass one).
    """

    delivered: dict[int, float]
    iterations: int
    converged: bool
    residual: float
    damping: float


class FabricTopology:
    """Rack fabric: ``n_nodes`` node links feeding ``n_ports`` shared pool ports.

    Parameters
    ----------
    n_nodes:
        Number of compute nodes in the rack.
    n_ports:
        Number of pool-side fabric ports; nodes are assigned round-robin
        (node ``i`` uses port ``i % n_ports``).  One port shared by every node
        is the paper's emulation setup scaled out.
    testbed:
        Platform description providing the per-node link bandwidth, latency
        and the port's peak traffic / protocol overhead.
    port_capacity_scale:
        Multiplier (>= 1) on the testbed's peak link traffic for each pool
        port — a real pool port is often provisioned wider than one node link.
    queueing:
        Contention model shared by all ports (defaults to the link's M/M/1).
    """

    def __init__(
        self,
        n_nodes: int,
        n_ports: int = 1,
        testbed: TestbedConfig = SKYLAKE_EMULATION,
        port_capacity_scale: float = 1.0,
        queueing: QueueingModel | None = None,
    ) -> None:
        if n_nodes <= 0:
            raise FabricError("a fabric needs at least one node")
        if n_ports <= 0:
            raise FabricError("a fabric needs at least one pool port")
        if port_capacity_scale < 1.0:
            raise FabricError("port_capacity_scale must be >= 1")
        self.n_nodes = int(n_nodes)
        self.n_ports = int(n_ports)
        self.testbed = testbed
        port_testbed = (
            testbed
            if port_capacity_scale == 1.0
            else replace(
                testbed, link_peak_traffic=testbed.link_peak_traffic * port_capacity_scale
            )
        )
        #: One shared link model per pool port.
        self.ports: tuple[RemoteLink, ...] = tuple(
            RemoteLink(port_testbed, queueing) for _ in range(self.n_ports)
        )

    # -- wiring --------------------------------------------------------------------

    def port_of(self, node: int) -> int:
        """Index of the pool port node ``node`` is wired to."""
        if not 0 <= node < self.n_nodes:
            raise FabricError(f"node {node} is not part of this {self.n_nodes}-node fabric")
        return node % self.n_ports

    def nodes_on_port(self, port: int) -> tuple[int, ...]:
        """All nodes sharing pool port ``port``."""
        if not 0 <= port < self.n_ports:
            raise FabricError(f"port {port} does not exist (fabric has {self.n_ports})")
        return tuple(n for n in range(self.n_nodes) if n % self.n_ports == port)

    def link_of(self, node: int) -> RemoteLink:
        """The shared link model behind node ``node``'s pool port."""
        return self.ports[self.port_of(node)]

    # -- demand resolution ------------------------------------------------------------

    def _node_demand(self, node: int, demands: Mapping[int, float]) -> float:
        """One node's offered pool bandwidth, clipped to its node link."""
        return min(max(float(demands.get(node, 0.0)), 0.0), self.testbed.remote_bandwidth)

    def offered_on_port(self, port: int, demands: Mapping[int, float]) -> float:
        """Total data bandwidth offered to ``port`` by all its nodes, bytes/s."""
        return sum(self._node_demand(n, demands) for n in self.nodes_on_port(port))

    def background_for(self, node: int, demands: Mapping[int, float]) -> float:
        """Bandwidth a node's co-runners offer on its shared port, bytes/s.

        This is what the node experiences as *background interference*: the sum
        of every other tenant's demand on the same pool port, each clipped to
        what its own node link can carry.
        """
        port = self.port_of(node)
        return sum(
            self._node_demand(n, demands)
            for n in self.nodes_on_port(port)
            if n != node
        )

    def resolve(
        self,
        demands: Mapping[int, float],
        iterations: int = 64,
        damping: float | None = None,
        tolerance: float = 1e6,
    ) -> dict[int, float]:
        """Delivered bandwidth per node under mutual port contention, bytes/s.

        Convenience wrapper over :meth:`resolve_detailed` for callers that
        only want the allocation; the full convergence diagnostics (and the
        non-convergence warning) live there.
        """
        return self.resolve_detailed(demands, iterations, damping, tolerance).delivered

    def resolve_detailed(
        self,
        demands: Mapping[int, float],
        iterations: int = 64,
        damping: float | None = None,
        tolerance: float = 1e6,
    ) -> SolveDiagnostics:
        """Resolve port contention and report what the solver did.

        Every node's delivered bandwidth depends on how much its co-runners
        actually move (not on what they merely ask for: a throttled co-runner
        stops eating capacity it cannot use), so the allocation is resolved
        with a damped fixed point.  Symmetric overload converges to a fair
        share of the port's data capacity, which is how real coherent fabrics
        behave under saturation.  This is :func:`solve_racks` on a batch of
        one rack; see there for the damping rule, the tolerance and the
        non-convergence warning.
        """
        return solve_racks((self,), (demands,), iterations, damping, tolerance).racks[0]

    def share_for(self, node: int, demands: Mapping[int, float]) -> LinkShare:
        """Resolve port contention from one node's perspective.

        The node's own demand competes with the background from its
        co-runners; the returned :class:`LinkShare` carries the available
        bandwidth, total port utilisation and queueing delay.
        """
        link = self.link_of(node)
        return link.share(
            self._node_demand(node, demands), self.background_for(node, demands)
        )

    def port_utilization(self, port: int, demands: Mapping[int, float]) -> float:
        """Utilisation of a pool port under the given demands (can exceed 1)."""
        return self.ports[port].utilization(self.offered_on_port(port, demands))

    def port_waiting_time(self, port: int, demands: Mapping[int, float]) -> float:
        """Queueing delay at a pool port under the given demands, seconds."""
        link = self.ports[port]
        return link.latency_under_load(self.offered_on_port(port, demands)) - link.idle_latency

    def describe(self) -> dict:
        """Summary of the fabric wiring."""
        return {
            "n_nodes": self.n_nodes,
            "n_ports": self.n_ports,
            "node_bandwidth_gbs": self.testbed.remote_bandwidth / 1e9,
            "port_data_capacity_gbs": self.ports[0].data_capacity / 1e9,
            "port_map": {node: self.port_of(node) for node in range(self.n_nodes)},
        }


@dataclass(frozen=True)
class ClusterSolve:
    """One batched contention resolution across racks.

    ``racks[i]`` is rack ``i``'s :class:`SolveDiagnostics`.  The batch-level
    fields aggregate: ``iterations`` is the batch's shared global count,
    ``converged`` requires every rack to have converged, ``residual`` is the
    largest per-rack residual.
    """

    racks: tuple[SolveDiagnostics, ...]
    iterations: int
    converged: bool
    residual: float

    @property
    def delivered(self) -> tuple[dict[int, float], ...]:
        """Per-rack delivered-bandwidth maps (rack-local node -> bytes/s)."""
        return tuple(diag.delivered for diag in self.racks)


def solve_racks(
    racks: Sequence[FabricTopology],
    demands: Sequence[Mapping[int, float]],
    iterations: int = 64,
    damping: float | None = None,
    tolerance: float = 1e6,
) -> ClusterSolve:
    """Resolve several racks' port contention in one batched fixed-point solve.

    ``demands[i]`` is ``racks[i]``'s demand map (rack-local node -> offered
    bytes/s).  Racks are independent sub-problems (each node contends only on
    its own rack's ports), so all racks flatten into one array and a single
    :func:`~repro.fabric.solver.solve_fixed_point` call.  Both
    :meth:`FabricTopology.resolve_detailed` (one rack) and
    :meth:`ClusterFabric.resolve_racks <repro.fabric.cluster.ClusterFabric.
    resolve_racks>` (many) are this function.

    A node's update direction couples to the sum of its co-runners' values,
    so the iteration map has a slope of about ``-(k - 1)`` for ``k`` nodes
    sharing a port; each rack's default damping of ``1/k`` for its largest
    sharing degree cancels that slope and makes the iteration contract (an
    explicit ``damping`` overrides it for every rack).  ``tolerance`` is the
    convergence threshold in bytes/s (1 MB/s by default — far below any
    bandwidth that matters here).

    The batch iterates until *every* rack converges, so each rack reports the
    batch's iteration count and already-converged racks keep contracting
    toward the same fixed point (their values stay within solver tolerance of
    an early-stopped solve of their own).  A batch in which some rack
    exhausts the budget emits one :class:`FabricConvergenceWarning` and adds
    the number of such racks to the ``fabric.solve.nonconverged`` counter,
    so silent non-convergence cannot skew results unnoticed.
    """
    if len(demands) != len(racks):
        raise FabricError(f"expected {len(racks)} demand maps, got {len(demands)}")
    if damping is not None and not 0.0 < damping <= 1.0:
        raise FabricError("damping must be in (0, 1]")
    offered: list[float] = []
    port_index: list[int] = []
    capacity: list[float] = []
    node_bandwidth: list[float] = []
    damping_arr: list[float] = []
    rack_dampings: list[float] = []
    slices: list[tuple[int, int]] = []
    port_offset = 0
    for rack, rack_demands in zip(racks, demands):
        ports = [rack.port_of(node) for node in rack_demands]
        max_sharing = max(Counter(ports).values(), default=1)
        rack_damping = damping if damping is not None else 1.0 / max_sharing
        start = len(offered)
        offered.extend(rack._node_demand(node, rack_demands) for node in rack_demands)
        port_index.extend(port_offset + port for port in ports)
        # All ports of one rack are built identically.
        capacity.extend([rack.ports[0].data_capacity] * len(ports))
        node_bandwidth.extend([rack.ports[0].node_bandwidth] * len(ports))
        damping_arr.extend([rack_damping] * len(ports))
        rack_dampings.append(rack_damping)
        slices.append((start, len(offered)))
        port_offset += rack.n_ports
    with trace_span("fabric.solve", racks=len(racks), nodes=len(offered)):
        result = solve_fixed_point(
            np.asarray(offered),
            np.asarray(port_index, dtype=np.intp),
            capacity=np.asarray(capacity),
            node_bandwidth=np.asarray(node_bandwidth),
            min_share=RemoteLink.MIN_SHARE,
            damping=np.asarray(damping_arr),
            iterations=iterations,
            tolerance=tolerance,
        )
    registry = metrics()
    registry.counter("fabric.solve.calls").inc()
    registry.histogram("fabric.solve.iterations").observe(result.iterations)
    diagnostics = []
    for rack_demands, rack_damping, (start, stop) in zip(demands, rack_dampings, slices):
        residual = float(result.delta[start:stop].max()) if stop > start else 0.0
        diagnostics.append(
            SolveDiagnostics(
                delivered=dict(zip(rack_demands, result.delivered[start:stop].tolist())),
                iterations=result.iterations,
                converged=result.converged or residual < tolerance,
                residual=residual,
                damping=rack_damping,
            )
        )
    nonconverged = sum(1 for diag in diagnostics if not diag.converged)
    if nonconverged:
        registry.counter("fabric.solve.nonconverged").inc(nonconverged)
        warnings.warn(
            f"contention solve did not converge on {nonconverged} rack(s) within "
            f"{result.iterations} iterations (worst residual {result.residual:.3g} "
            f"bytes/s, tolerance {tolerance:.3g}); results reflect the last iterate",
            FabricConvergenceWarning,
            stacklevel=3,
        )
    return ClusterSolve(
        racks=tuple(diagnostics),
        iterations=result.iterations,
        converged=result.converged,
        residual=result.residual,
    )
