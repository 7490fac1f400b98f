"""Rack-scale cluster topology with shared memory pools (Figure 2).

The paper's target architecture gives every node a fixed node-local memory and
lets all nodes of a rack share one fabric-attached memory pool.  Interference
therefore has rack scope: jobs on different nodes of the same rack disturb
each other through the shared pool link, jobs in different racks do not.

This module tracks *capacity* (nodes and pool GB) and the static LoI proxy
(:meth:`Rack.aggregate_loi`).  When the fabric is coupled in
(:mod:`repro.scheduler.progress`), each :class:`Rack` is mirrored by one rack
of a :class:`~repro.fabric.cluster.ClusterCoSimulator`: the rack-local position of a
node in :attr:`Rack.nodes` is the fabric node index its job's tenant runs on,
and ``pool_capacity_gb`` bounds the mirrored pool's lease capacity.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional

from ..config.errors import SchedulingError
from .job import Job


@dataclass
class Node:
    """One compute node of a rack."""

    node_id: int
    rack_id: int
    local_memory_gb: float
    running: Optional[Job] = None

    @property
    def busy(self) -> bool:
        """Whether a job currently occupies the node (no node sharing in HPC)."""
        return self.running is not None


@dataclass
class Rack:
    """A rack: nodes plus one shared memory pool.

    :meth:`place` and :meth:`release` keep ``free_node_count`` and the
    running jobs in node order, so capacity checks, co-runner sums and
    releases cost no scan over the nodes.  Occupy and vacate nodes only
    through those two methods.  ``pool_used_gb`` is the running jobs'
    share of the pool; it reads exactly 0 once the last job has left.
    """

    rack_id: int
    nodes: list[Node]
    pool_capacity_gb: float
    pool_used_gb: float = 0.0
    free_node_count: int = field(init=False, repr=False, compare=False)
    #: Positions in ``nodes`` of the busy nodes, ascending; ``_running``
    #: holds their jobs in the same order.
    _busy_at: list[int] = field(init=False, repr=False, compare=False)
    _running: list[Job] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._busy_at = [i for i, n in enumerate(self.nodes) if n.busy]
        self._running = [self.nodes[i].running for i in self._busy_at]
        self.free_node_count = len(self.nodes) - len(self._busy_at)

    @property
    def free_nodes(self) -> list[Node]:
        """Nodes without a running job."""
        return [n for n in self.nodes if not n.busy]

    @property
    def running_jobs(self) -> list[Job]:
        """Jobs currently running in the rack, in node order.

        A snapshot: callers may release jobs while they iterate over it.
        """
        return list(self._running)

    @property
    def pool_free_gb(self) -> float:
        """Unused pool capacity."""
        return self.pool_capacity_gb - self.pool_used_gb

    def aggregate_loi(self, excluding: Optional[Job] = None) -> float:
        """Total LoI injected on the rack's pool link by running jobs.

        This is the interference a (prospective or running) job would see from
        its co-runners; the paper measures individual contributions with the
        interference coefficient / induced LoI and schedulers sum them, in
        node order.
        """
        total = 0.0
        for job in self._running:
            if excluding is not None and job.job_id == excluding.job_id:
                continue
            total += job.profile.induced_loi
        return min(total, 100.0)

    def can_host(self, job: Job) -> bool:
        """Whether the rack has a free node and enough pool capacity for ``job``."""
        return self.free_node_count > 0 and job.profile.pool_gb <= self.pool_free_gb

    def place(self, job: Job, node: Optional[Node] = None) -> Node:
        """Place a job on a node of this rack and reserve its pool share.

        ``node`` defaults to the first free node.  A node of another rack or a
        busy node raises :class:`SchedulingError` and changes nothing.
        """
        if not self.can_host(job):
            raise SchedulingError(
                f"rack {self.rack_id} cannot host job {job.job_id}"
            )
        if node is None:
            position = next(i for i, n in enumerate(self.nodes) if not n.busy)
        else:
            position = next((i for i, n in enumerate(self.nodes) if n is node), None)
            if position is None:
                raise SchedulingError(
                    f"node {node.node_id} is not in rack {self.rack_id}"
                )
            if node.busy:
                raise SchedulingError(f"node {node.node_id} is busy")
        node = self.nodes[position]
        node.running = job
        job.assigned_node = node.node_id
        job.assigned_rack = self.rack_id
        self.pool_used_gb += job.profile.pool_gb
        self.free_node_count -= 1
        k = bisect_left(self._busy_at, position)
        self._busy_at.insert(k, position)
        self._running.insert(k, job)
        return node

    def release(self, job: Job) -> None:
        """Remove a finished job from its node and release its pool share."""
        k = next((k for k, j in enumerate(self._running) if j.job_id == job.job_id), None)
        if k is None:
            raise SchedulingError(
                f"job {job.job_id} is not running in rack {self.rack_id}"
            )
        position = self._busy_at.pop(k)
        del self._running[k]
        self.nodes[position].running = None
        self.free_node_count += 1
        if self._running:
            self.pool_used_gb = max(self.pool_used_gb - job.profile.pool_gb, 0.0)
        else:
            # Float subtraction can leave a residue that would refuse a job
            # sized to the whole pool.
            self.pool_used_gb = 0.0


@dataclass
class Cluster:
    """A cluster of identical racks sharing nothing across rack boundaries."""

    racks: list[Rack]

    @classmethod
    def build(
        cls,
        n_racks: int = 2,
        nodes_per_rack: int = 16,
        local_memory_gb: float = 256.0,
        pool_capacity_gb: float = 2048.0,
    ) -> "Cluster":
        """Construct a homogeneous cluster (defaults echo Figure 2's sketch)."""
        if n_racks <= 0 or nodes_per_rack <= 0:
            raise SchedulingError("cluster needs at least one rack and one node per rack")
        racks = []
        node_id = 0
        for rack_id in range(n_racks):
            nodes = []
            for _ in range(nodes_per_rack):
                nodes.append(Node(node_id=node_id, rack_id=rack_id, local_memory_gb=local_memory_gb))
                node_id += 1
            racks.append(Rack(rack_id=rack_id, nodes=nodes, pool_capacity_gb=pool_capacity_gb))
        return cls(racks=racks)

    @property
    def n_nodes(self) -> int:
        """Total node count."""
        return sum(len(r.nodes) for r in self.racks)

    @property
    def free_nodes(self) -> int:
        """Number of idle nodes."""
        return sum(r.free_node_count for r in self.racks)

    @property
    def running_jobs(self) -> list[Job]:
        """All jobs currently running anywhere in the cluster, rack by rack."""
        jobs: list[Job] = []
        for rack in self.racks:
            jobs += rack._running
        return jobs

    def rack_of(self, job: Job) -> Rack:
        """The rack a running job was placed in."""
        if job.assigned_rack is None:
            raise SchedulingError(f"job {job.job_id} has not been placed")
        return self.racks[job.assigned_rack]

    def candidate_racks(self, job: Job) -> list[Rack]:
        """Racks that could host ``job`` right now."""
        return [rack for rack in self.racks if rack.can_host(job)]

    def placement_headroom_gb(self) -> Optional[float]:
        """Largest pool headroom among racks with a free node.

        None when every node is busy.  Some rack can host a job exactly when
        its ``pool_gb`` is at most this value, i.e. when
        :meth:`candidate_racks` is non-empty.
        """
        headroom = None
        for rack in self.racks:
            if rack.free_node_count > 0:
                free = rack.pool_free_gb
                if headroom is None or free > headroom:
                    headroom = free
        return headroom
