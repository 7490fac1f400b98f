"""Differential suite holding the NumPy solver to the scalar reference.

The pure-Python fixed point (``oracles.solve_scalar``) is the ground truth;
the single-rack solve (:meth:`FabricTopology.resolve_detailed`), the batched
multi-rack solve (:meth:`ClusterFabric.resolve_all`) and the incremental
stepper's dirty-epoch skip (held to ``oracles.resolve_every_rollover``) are
all *optimisations* of it and must stay within solver tolerance of what it
computes — including when the fixed point does **not** converge, where both
must report the same diagnostics (and the library path a
:class:`FabricConvergenceWarning`).

Property-based (hypothesis) where the input space is wide — random demand
matrices, random tenant churn — with seeded NumPy fallbacks for the
engine-backed co-simulation scenarios.  ``HYPOTHESIS_PROFILE=nightly``
raises the example budget (see ``tests/conftest.py``).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import resolve_every_rollover, solve_scalar
from repro import telemetry
from repro.fabric import (
    ClusterFabric,
    FabricConvergenceWarning,
    FabricTopology,
    solve_fixed_point,
)

#: Solver convergence tolerance used throughout, bytes/s.
TOLERANCE = 1e6
#: Allowed disagreement between two solver paths: both are within TOLERANCE
#: of the fixed point, so they are within 2*TOLERANCE of each other.
AGREEMENT = 2 * TOLERANCE

GBs = 1e9


def demand_maps(max_nodes: int = 12):
    """Strategy: one rack's demand map (node -> offered bytes/s)."""
    return st.integers(min_value=1, max_value=max_nodes).flatmap(
        lambda n: st.lists(
            st.floats(min_value=0.0, max_value=30 * GBs, allow_nan=False),
            min_size=n,
            max_size=n,
        ).map(lambda values: dict(enumerate(values)))
    )


def assert_delivered_close(a, b, limit=AGREEMENT):
    assert set(a) == set(b)
    worst = max((abs(a[n] - b[n]) for n in a), default=0.0)
    assert worst <= limit, f"solver paths disagree by {worst:.3g} bytes/s"


# -- single-rack: scalar vs vectorized ------------------------------------------------


@given(demands=demand_maps(), n_ports=st.integers(min_value=1, max_value=4))
def test_vectorized_matches_scalar_single_rack(demands, n_ports):
    topology = FabricTopology(n_nodes=len(demands), n_ports=min(n_ports, len(demands)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FabricConvergenceWarning)
        scalar = solve_scalar(topology, demands)
        vector = topology.resolve_detailed(demands)
    assert_delivered_close(scalar.delivered, vector.delivered)
    assert scalar.converged == vector.converged
    assert scalar.damping == vector.damping
    assert abs(scalar.iterations - vector.iterations) <= 1


@given(demands=demand_maps())
def test_both_solvers_bound_delivery_by_demand(demands):
    """Neither path may deliver more than a node offered (after link clipping)."""
    topology = FabricTopology(n_nodes=len(demands), n_ports=1)
    limit = topology.testbed.remote_bandwidth
    for solve in (solve_scalar, FabricTopology.resolve_detailed):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FabricConvergenceWarning)
            diag = solve(topology, demands)
        for node, delivered in diag.delivered.items():
            assert 0.0 <= delivered <= min(demands[node], limit) + TOLERANCE


@given(demand=st.floats(min_value=0.0, max_value=1 * GBs, allow_nan=False))
def test_both_solvers_deliver_in_full_when_undersubscribed(demand):
    """A lone, small demand is delivered as offered by both paths."""
    topology = FabricTopology(n_nodes=4, n_ports=4)
    for solve in (solve_scalar, FabricTopology.resolve_detailed):
        diag = solve(topology, {0: demand})
        assert diag.converged
        assert abs(diag.delivered[0] - demand) <= TOLERANCE


# -- batched multi-rack: resolve_all --------------------------------------------------


@given(
    racks=st.lists(
        st.lists(
            st.floats(min_value=0.0, max_value=30 * GBs, allow_nan=False),
            min_size=4,
            max_size=4,
        ),
        min_size=1,
        max_size=6,
    )
)
def test_batched_matches_scalar_per_rack(racks):
    fabric = ClusterFabric(n_racks=len(racks), nodes_per_rack=4, n_ports=2)
    demands = [dict(enumerate(values)) for values in racks]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FabricConvergenceWarning)
        scalar = [solve_scalar(rack, d) for rack, d in zip(fabric.racks, demands)]
        batched = fabric.resolve_all(demands)
    assert len(scalar) == len(batched.racks) == len(racks)
    for ref, fast in zip(scalar, batched.racks):
        assert_delivered_close(ref.delivered, fast.delivered)
        # A batched solve keeps iterating converged racks; every rack that
        # converged alone must still be converged in the batch.
        if ref.converged:
            assert fast.converged


def test_batched_empty_racks_keep_their_slot():
    """Racks with no demand still get a (trivial) diagnostics entry."""
    fabric = ClusterFabric(n_racks=3, nodes_per_rack=4)
    demands = [{0: 10 * GBs}, {}, {1: 5 * GBs, 2: 5 * GBs}]
    solve = fabric.resolve_all(demands)
    assert len(solve.racks) == 3
    assert solve.racks[1].delivered == {}
    assert solve.racks[1].converged
    reference = [solve_scalar(rack, d) for rack, d in zip(fabric.racks, demands)]
    for ref, fast in zip(reference, solve.racks):
        assert_delivered_close(ref.delivered, fast.delivered)


# -- non-convergence: same diagnostics, same warning ----------------------------------


@pytest.mark.parametrize("solver", ["scalar", "vectorized"])
def test_nonconvergence_surfaces_warning_and_diagnostics(solver):
    """Both report an exhausted budget; only the library path warns."""
    topology = FabricTopology(n_nodes=8, n_ports=1)
    demands = {n: topology.testbed.remote_bandwidth for n in range(8)}
    if solver == "scalar":
        with warnings.catch_warnings():
            warnings.simplefilter("error", FabricConvergenceWarning)
            diag = solve_scalar(topology, demands, iterations=2)
    else:
        with pytest.warns(FabricConvergenceWarning):
            diag = topology.resolve_detailed(demands, iterations=2)
    assert not diag.converged
    assert diag.iterations == 2
    assert diag.residual > TOLERANCE


def test_nonconvergence_diagnostics_agree_across_solvers():
    topology = FabricTopology(n_nodes=8, n_ports=1)
    demands = {n: topology.testbed.remote_bandwidth for n in range(8)}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FabricConvergenceWarning)
        diags = {
            "scalar": solve_scalar(topology, demands, iterations=2),
            "vectorized": topology.resolve_detailed(demands, iterations=2),
        }
    assert diags["scalar"].iterations == diags["vectorized"].iterations
    assert diags["scalar"].converged == diags["vectorized"].converged
    assert_delivered_close(diags["scalar"].delivered, diags["vectorized"].delivered)
    assert np.isclose(
        diags["scalar"].residual, diags["vectorized"].residual, rtol=1e-6, atol=1.0
    )


def test_batched_nonconvergence_warns_once_with_rack_count():
    fabric = ClusterFabric(n_racks=3, nodes_per_rack=8, n_ports=1)
    bandwidth = fabric.testbed.remote_bandwidth
    demands = [{n: bandwidth for n in range(8)} for _ in range(3)]
    with pytest.warns(FabricConvergenceWarning, match="3 rack"):
        solve = fabric.resolve_all(demands, iterations=2)
    assert not solve.converged
    assert all(not rack.converged for rack in solve.racks)


# -- solve_fixed_point kernel ---------------------------------------------------------


def test_solve_fixed_point_empty_input():
    result = solve_fixed_point(
        np.array([]),
        np.array([], dtype=np.intp),
        capacity=1.0,
        node_bandwidth=1.0,
        min_share=0.1,
        damping=0.5,
        iterations=64,
        tolerance=TOLERANCE,
    )
    assert result.converged
    assert result.delivered.size == 0


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


@pytest.mark.slow
@given(demands=demand_maps(max_nodes=16))
@settings(max_examples=400)
def test_vectorized_matches_scalar_high_budget(demands):
    """Nightly-scale single-rack differential sweep (higher example budget)."""
    topology = FabricTopology(n_nodes=len(demands), n_ports=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FabricConvergenceWarning)
        scalar = solve_scalar(topology, demands)
        vector = topology.resolve_detailed(demands)
    assert_delivered_close(scalar.delivered, vector.delivered)
    assert scalar.converged == vector.converged


@pytest.mark.slow
def test_hundred_rack_sweep_equivalence_and_speedup():
    """The acceptance sweep: 100 racks, vectorized >= 5x scalar, same answer."""
    import time

    fabric = ClusterFabric(n_racks=100, nodes_per_rack=16, n_ports=2)
    rng = np.random.default_rng(7)
    demands = [
        {n: float(rng.uniform(0, 25 * GBs)) for n in range(16)} for _ in range(100)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FabricConvergenceWarning)
        start = time.perf_counter()
        scalar = [solve_scalar(rack, d) for rack, d in zip(fabric.racks, demands)]
        scalar_wall = time.perf_counter() - start
        start = time.perf_counter()
        batched = fabric.resolve_all(demands)
        vector_wall = time.perf_counter() - start
    for ref, fast in zip(scalar, batched.racks):
        assert_delivered_close(ref.delivered, fast.delivered)
    assert scalar_wall / vector_wall >= 5.0, (
        f"vectorized sweep only {scalar_wall / vector_wall:.1f}x faster"
    )
