"""Fabric topology: per-node links feeding shared memory-pool ports.

Every compute node reaches the rack's memory pool through its own node link
(bounded by the testbed's per-node sustainable remote bandwidth) into one of a
small number of shared **pool ports**.  A port is where interference becomes
emergent: its utilisation is computed from *all* concurrent tenants' offered
bandwidth demands, the contention-induced waiting time comes from the same
:mod:`repro.interconnect.queueing` models the single-node simulator uses
(Section 3.2's M/M/1 explanation of why contention keeps growing past counter
saturation), and its data capacity is split max-min fair among the demands
(:meth:`FabricTopology.resolve`).

The topology is stateless: callers pass the current per-node demand map and
get back delivered bandwidth, background and utilisation.  Each rack of a
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

import math
from dataclasses import replace
from typing import Mapping, Sequence

from ..config.errors import FabricError
from ..config.testbed import SKYLAKE_EMULATION, TestbedConfig
from ..interconnect.link import RemoteLink
from ..interconnect.queueing import QueueingModel
from ..telemetry import metrics, trace_span


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

    def resolve(self, demands: Mapping[int, float]) -> dict[int, float]:
        """Delivered bandwidth per node under port contention, bytes/s.

        Each port's data capacity is split max-min fair among its nodes'
        demands, each clipped to its node link: a node offering at most the
        port's :func:`water_level` gets its demand, and every node offering
        more gets that level.  So every node gets at least ``min(demand,
        C / k)`` on a port of capacity ``C`` shared by ``k`` nodes, and no
        port delivers more than its capacity.  This is :func:`solve_racks`
        on a batch of one rack.
        """
        return solve_racks((self,), (demands,))[0]

    # The same solve under a second name, kept because
    # ``perfbench/layers.py`` times the solver layer through both names.
    resolve_detailed = resolve

    def _max_min_shares(self, demands: Mapping[int, float]) -> dict[int, float]:
        """This rack's solve: every port's capacity split max-min fair."""
        offers: dict[int, tuple[int, float]] = {}
        by_port: dict[int, list[float]] = {}
        for node in demands:
            port = self.port_of(node)
            offer = self._node_demand(node, demands)
            offers[node] = (port, offer)
            by_port.setdefault(port, []).append(offer)
        levels = {
            port: water_level(sorted(values), self.ports[port].data_capacity)
            for port, values in by_port.items()
        }
        return {node: min(offer, levels[port]) for node, (port, offer) in offers.items()}

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


def water_level(offers: Sequence[float], capacity: float) -> float:
    """The max-min fair level of one port, or ``math.inf`` when every offer fits.

    ``offers`` are the port's link-clipped demands in ascending order.  Each
    offer at or below the returned level is delivered in full and each offer
    above it gets the level, which splits ``capacity`` max-min fair (water
    filling; Bertsekas & Gallager, *Data Networks*, 2nd ed., §6.5.2).  The
    walk gives the smallest offer its demand while it is at most an equal
    share of what is left, and the first offer above that share sets the
    level for itself and every larger one.
    """
    if math.fsum(offers) <= capacity:
        return math.inf
    left, level = capacity, 0.0
    for remaining, offer in zip(range(len(offers), 0, -1), offers):
        # The level never falls along the walk; the max keeps rounding from
        # letting it, so no throttled node gets less than a delivered offer.
        level = max(level, left / remaining)
        if offer > level:
            return level
        left -= offer
    return math.inf


def solve_racks(
    racks: Sequence[FabricTopology], demands: Sequence[Mapping[int, float]]
) -> tuple[dict[int, float], ...]:
    """Resolve several racks' port contention: one delivered map per rack.

    ``demands[i]`` is ``racks[i]``'s demand map (rack-local node -> offered
    bytes/s).  Racks are independent (each node contends only on its own
    rack's ports), so each is solved on its own and its answer is the same
    alone or in any batch.  Both :meth:`FabricTopology.resolve` (one rack)
    and :meth:`ClusterFabric.resolve_racks <repro.fabric.cluster.
    ClusterFabric.resolve_racks>` (many) are this function, which records
    one ``fabric.solve`` span and one ``fabric.solve.calls`` count per call.
    """
    if len(demands) != len(racks):
        raise FabricError(f"expected {len(racks)} demand maps, got {len(demands)}")
    with trace_span("fabric.solve", racks=len(racks), nodes=sum(map(len, demands))):
        delivered = tuple(
            rack._max_min_shares(rack_demands) for rack, rack_demands in zip(racks, demands)
        )
    metrics().counter("fabric.solve.calls").inc()
    return delivered
