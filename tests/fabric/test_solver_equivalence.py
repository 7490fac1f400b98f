"""The fabric's one contention rule, pinned by properties and two oracles.

Every pool port's data capacity is split max-min fair among its nodes'
link-clipped demands (:meth:`FabricTopology.resolve`, and
:meth:`ClusterFabric.resolve_racks` for many racks).  The properties below
state what that rule guarantees on random racks of 1-64 nodes on 1-4 ports,
with zero, tiny, equal and over-link demands.  Two oracles in
``tests/fabric/oracles.py`` compute the same split another way:

* ``solve_bisection`` bisects on each port's water level; the two agree
  within 1 B/s everywhere;
* ``solve_scalar`` is the damped fixed point the fabric used before.  It
  agrees within 1 MB/s wherever its path leaves it no choice: every port's
  demands fit, or every node offering on a port offers the same and at
  most ten share it.  On any other contended port every split that fills
  the port is one of its fixed points, and it stops at none of max-min's.

The incremental stepper's dirty-epoch skip is held to
``oracles.resolve_every_rollover`` here too.  ``HYPOTHESIS_PROFILE=nightly``
raises the example budget (see ``tests/conftest.py``).
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import resolve_every_rollover, solve_bisection, solve_scalar
from repro import telemetry
from repro.config.errors import FabricError
from repro.fabric import ClusterFabric, FabricTopology

#: Relative slack on sums of delivered bandwidth (float rounding only).
REL = 1e-12
#: Largest disagreement with the bisection oracle, bytes/s.
BISECTION_AGREEMENT = 1.0
#: Largest disagreement with the damped iteration, bytes/s.  The iteration
#: runs to a 1 kB/s update (:data:`SCALAR_RUN`), so where its fixed point is
#: unique it lands far closer to it than this.
SCALAR_AGREEMENT = 1e6
SCALAR_RUN = {"iterations": 2_000, "tolerance": 1e3}

GBs = 1e9
PROBE = FabricTopology(n_nodes=1)
LINK = PROBE.testbed.remote_bandwidth
CAPACITY = PROBE.ports[0].data_capacity


def offers():
    """Strategy: one node's demand, bytes/s — zero, tiny, ordinary or over the link."""
    return st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=1e3),
        st.floats(min_value=0.0, max_value=LINK),
        st.floats(min_value=LINK, max_value=3 * LINK),
        st.sampled_from([LINK, CAPACITY / 2, CAPACITY / 3, CAPACITY / 10]),
    )


@st.composite
def rack_demands(draw, n_nodes: int):
    """One rack's demand map: every node, or a shuffled subset, offers;
    either each its own demand or all the same one."""
    nodes = draw(st.permutations(range(n_nodes)))
    nodes = nodes[: draw(st.integers(min_value=1, max_value=n_nodes))]
    if draw(st.booleans()):
        shared = draw(offers())
        return {node: shared for node in nodes}
    return {node: draw(offers()) for node in nodes}


@st.composite
def racks(draw, max_nodes: int = 64):
    """Strategy: (topology, demands) on 1-``max_nodes`` nodes and 1-4 ports."""
    n_nodes = draw(st.integers(min_value=1, max_value=max_nodes))
    n_ports = draw(st.integers(min_value=1, max_value=min(4, n_nodes)))
    return FabricTopology(n_nodes=n_nodes, n_ports=n_ports), draw(rack_demands(n_nodes))


def ports(topology, demands, delivered):
    """Per port: [(clipped demand, delivered)] of its nodes, and its capacity."""
    by_port: dict[int, list] = {}
    for node, offer in demands.items():
        clipped = topology._node_demand(node, {node: offer})
        by_port.setdefault(topology.port_of(node), []).append((clipped, delivered[node]))
    return [(pairs, topology.ports[port].data_capacity) for port, pairs in by_port.items()]


# -- what the rule guarantees ---------------------------------------------------------


@given(rack=racks())
def test_no_port_delivers_more_than_its_capacity(rack):
    topology, demands = rack
    delivered = topology.resolve(demands)
    for pairs, capacity in ports(topology, demands, delivered):
        assert math.fsum(d for _, d in pairs) <= capacity * (1 + REL)


@given(rack=racks())
def test_every_node_gets_between_zero_and_its_clipped_demand(rack):
    topology, demands = rack
    delivered = topology.resolve(demands)
    assert list(delivered) == list(demands)
    for pairs, _ in ports(topology, demands, delivered):
        for clipped, got in pairs:
            assert 0.0 <= got <= clipped


@given(rack=racks())
def test_an_undersubscribed_port_delivers_every_demand(rack):
    topology, demands = rack
    delivered = topology.resolve(demands)
    for pairs, capacity in ports(topology, demands, delivered):
        if math.fsum(clipped for clipped, _ in pairs) <= capacity:
            assert all(got == clipped for clipped, got in pairs)


@given(rack=racks())
def test_an_oversubscribed_port_is_full_and_throttles_to_one_level(rack):
    topology, demands = rack
    delivered = topology.resolve(demands)
    for pairs, capacity in ports(topology, demands, delivered):
        if math.fsum(clipped for clipped, _ in pairs) > capacity:
            assert math.fsum(got for _, got in pairs) == pytest.approx(capacity, rel=REL)
            largest = max(got for _, got in pairs)
            for clipped, got in pairs:
                if got < clipped:
                    assert got == largest


@given(rack=racks(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_node_order_changes_no_result(rack, seed):
    topology, demands = rack
    nodes = list(demands)
    random.Random(seed).shuffle(nodes)
    shuffled = {node: demands[node] for node in nodes}
    assert topology.resolve(shuffled) == topology.resolve(demands)


@st.composite
def batches(draw):
    """Strategy: a cluster, its per-rack demand maps and a batch order."""
    nodes = draw(st.integers(min_value=1, max_value=64))
    n_ports = draw(st.integers(min_value=1, max_value=min(4, nodes)))
    n_racks = draw(st.integers(min_value=1, max_value=6))
    fabric = ClusterFabric(n_racks=n_racks, nodes_per_rack=nodes, n_ports=n_ports)
    demands = [draw(rack_demands(nodes)) for _ in range(n_racks)]
    order = draw(st.permutations(range(n_racks)))
    order = order[: draw(st.integers(min_value=1, max_value=n_racks))]
    return fabric, demands, order


@given(batch=batches())
def test_a_rack_solves_the_same_alone_or_in_any_batch(batch):
    fabric, demands, order = batch
    everyone = fabric.resolve_all(demands)
    subset = fabric.resolve_racks(order, [demands[i] for i in order])
    assert len(everyone) == fabric.n_racks and len(subset) == len(order)
    for index, delivered in zip(order, subset):
        alone = fabric.racks[index].resolve(demands[index])
        assert delivered == alone == everyone[index]


def test_an_empty_rack_keeps_its_slot_in_a_batch():
    fabric = ClusterFabric(n_racks=3, nodes_per_rack=4)
    demands = [{0: 10 * GBs}, {}, {1: 5 * GBs, 2: 5 * GBs}]
    delivered = fabric.resolve_all(demands)
    assert delivered == ({0: 10 * GBs}, {}, {1: 5 * GBs, 2: 5 * GBs})


def test_a_batch_needs_one_demand_map_per_rack():
    fabric = ClusterFabric(n_racks=3, nodes_per_rack=4)
    with pytest.raises(FabricError):
        fabric.resolve_all([{0: GBs}])
    with pytest.raises(FabricError):
        fabric.resolve_racks([0, 1], [{0: GBs}])


def test_a_batch_rejects_a_rack_outside_the_cluster():
    fabric = ClusterFabric(n_racks=3, nodes_per_rack=4)
    with pytest.raises(FabricError):
        fabric.resolve_racks([3], [{0: GBs}])


# -- the two oracles --------------------------------------------------------------------


def assert_delivered_close(a, b, limit):
    assert list(a) == list(b)
    worst = max((abs(a[n] - b[n]) for n in a), default=0.0)
    assert worst <= limit, f"solve paths disagree by {worst:.3g} bytes/s"


@given(rack=racks())
def test_matches_the_bisection_oracle(rack):
    topology, demands = rack
    assert_delivered_close(
        topology.resolve(demands), solve_bisection(topology, demands), BISECTION_AGREEMENT
    )


def iteration_ends_at_max_min(topology, demands) -> bool:
    """Whether the damped iteration must end where max-min does.

    On a port whose demands exceed its capacity, every split that fills the
    port without giving a node more than it offers is a fixed point of the
    iteration, so where it stops depends on its path: from the demands
    themselves it takes the same amount off every node that offers
    anything, not max-min's split.  Two kinds of port leave it no choice:
    one whose demands fit (its only fixed point is the demands), and one
    whose nodes all offer the same, at most ten of them (its path stays
    symmetric and ends at ``C / k``, above the iteration's 10% floor).
    """
    for pairs, capacity in ports(topology, demands, topology.resolve(demands)):
        offering = {clipped for clipped, _ in pairs if clipped > 0}
        fits = math.fsum(clipped for clipped, _ in pairs) <= capacity
        equal = len(offering) == 1 and sum(1 for c, _ in pairs if c > 0) <= 10
        if not (fits or equal):
            return False
    return True


@given(rack=racks(max_nodes=16))
def test_matches_the_damped_iteration_where_it_must_end_at_max_min(rack):
    topology, demands = rack
    assume(iteration_ends_at_max_min(topology, demands))
    reference = solve_scalar(topology, demands, **SCALAR_RUN)
    assert reference.converged
    assert_delivered_close(topology.resolve(demands), reference.delivered, SCALAR_AGREEMENT)


def test_the_damped_iteration_ends_elsewhere_on_a_contended_port():
    """Why the iteration is an oracle only where its path is fixed: 25 and
    34 GB/s on one 56.7 GB/s port.  Max-min keeps the smaller demand whole
    (it is below an equal half); the iteration takes 1.17 GB/s off both."""
    topology = FabricTopology(n_nodes=2, n_ports=1)
    capacity = topology.ports[0].data_capacity
    demands = {0: 25 * GBs, 1: 34 * GBs}
    delivered = topology.resolve(demands)
    assert delivered[0] == 25 * GBs
    assert delivered[1] == pytest.approx(capacity - 25 * GBs, rel=REL)
    reference = solve_scalar(topology, demands, **SCALAR_RUN)
    assert reference.converged
    excess = 59 * GBs - capacity
    assert reference.delivered[0] == pytest.approx(25 * GBs - excess / 2, rel=1e-6)
    assert reference.delivered[1] == pytest.approx(34 * GBs - excess / 2, rel=1e-6)


@given(
    n_ports=st.integers(min_value=1, max_value=4),
    per_port=st.integers(min_value=1, max_value=10),
    offer=offers(),
)
def test_matches_the_damped_iteration_on_equal_demands(n_ports, per_port, offer):
    """k <= 10 equal demands per port: the iteration's one symmetric fixed
    point is ``min(demand, C / k)``, which max-min also gives."""
    topology = FabricTopology(n_nodes=n_ports * per_port, n_ports=n_ports)
    demands = {node: offer for node in range(topology.n_nodes)}
    reference = solve_scalar(topology, demands, **SCALAR_RUN)
    assert reference.converged
    assert_delivered_close(topology.resolve(demands), reference.delivered, SCALAR_AGREEMENT)


# -- incremental stepper: dirty-epoch skip equivalence --------------------------------


@settings(max_examples=10)
@given(seed=st.integers(min_value=0, max_value=2**16), churn=st.integers(0, 3))
def test_incremental_skip_equivalence_under_churn(seed, churn, xsbench_spec):
    """Same admissions/withdrawals, the library's skip vs a rack that re-solves
    every rollover: bit-identical trajectories."""
    from dataclasses import replace

    from racks import one_rack
    from repro.fabric import uniform_tenants

    rng = np.random.default_rng(seed)
    tenants = uniform_tenants(xsbench_spec, 3, local_fraction=0.5)
    plan = []  # (step index, action)
    for i in range(churn):
        plan.append((int(rng.integers(0, 8)), i))
    trajectories, skips = [], []
    for reference in (False, True):
        telemetry.enable(reset=True)
        try:
            sim = one_rack(nodes=4, seed=0)
            if reference:
                resolve_every_rollover(sim.rack_sims)
            for tenant in tenants:
                sim.admit(0, replace(tenant, arrival=0.0))
            dt = sim.rack_sim(0).baseline_runtime_of(tenants[0].name) / 40
            withdrawn = set()
            samples = []
            for step in range(8):
                for when, which in plan:
                    name = tenants[which % len(tenants)].name
                    if when == step and name not in withdrawn and name in sim.tenant_states:
                        sim.withdraw(name)
                        withdrawn.add(name)
                sim.step(dt)
                samples.append((sim.clock, tuple(sorted(sim.progress_rates().items()))))
            trajectories.append(samples)
            skips.append(telemetry.registry().counter("fabric.cosim.epoch_skips").value)
        finally:
            telemetry.disable()
            telemetry.registry().reset()
            telemetry.tracer().reset()
    assert trajectories[0] == trajectories[1]
    assert skips[1] == 0 < skips[0]


# -- nightly scale ----------------------------------------------------------------------


@pytest.mark.slow
@given(rack=racks())
@settings(max_examples=400)
def test_matches_the_bisection_oracle_high_budget(rack):
    """Nightly-scale single-rack differential sweep (higher example budget)."""
    topology, demands = rack
    assert_delivered_close(
        topology.resolve(demands), solve_bisection(topology, demands), BISECTION_AGREEMENT
    )


@pytest.mark.slow
def test_hundred_rack_sweep_equivalence():
    """100 racks x 16 nodes on 2 ports in one call: each rack's answer is
    its answer alone and the bisection oracle's."""
    fabric = ClusterFabric(n_racks=100, nodes_per_rack=16, n_ports=2)
    rng = np.random.default_rng(7)
    demands = [
        {n: float(rng.uniform(0, 25 * GBs)) for n in range(16)} for _ in range(100)
    ]
    batched = fabric.resolve_all(demands)
    for rack, rack_demands, delivered in zip(fabric.racks, demands, batched):
        assert delivered == rack.resolve(rack_demands)
        assert_delivered_close(
            delivered, solve_bisection(rack, rack_demands), BISECTION_AGREEMENT
        )
