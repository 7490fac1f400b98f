"""Tests for solver diagnostics, the convergence warning and fabric telemetry."""

import warnings

import pytest

from racks import run_rack
from repro import telemetry
from repro.config.errors import FabricError
from repro.fabric import (
    FabricConvergenceWarning,
    FabricTopology,
    MemoryPool,
    SolveDiagnostics,
    uniform_tenants,
)
from repro.fabric.cosim import RackTelemetry
from repro.workloads import build_workload

GB = 10**9


@pytest.fixture()
def telemetry_on():
    telemetry.enable(reset=True)
    try:
        yield telemetry
    finally:
        telemetry.disable()
        telemetry.registry().reset()
        telemetry.tracer().reset()


class TestSolveDiagnostics:
    def test_uncontended_solve_converges(self):
        topo = FabricTopology(n_nodes=2, n_ports=2)  # one node per port
        diag = topo.resolve_detailed({0: 1 * GB, 1: 1 * GB})
        assert isinstance(diag, SolveDiagnostics)
        assert diag.converged
        assert diag.iterations >= 1
        assert diag.residual < 1e6
        assert diag.delivered == topo.resolve({0: 1 * GB, 1: 1 * GB})

    def test_empty_demands_converge_trivially(self):
        diag = FabricTopology(n_nodes=2).resolve_detailed({})
        assert diag.converged and diag.delivered == {}

    def test_contended_solve_reports_iterations(self):
        topo = FabricTopology(n_nodes=4, n_ports=1)
        bw = topo.testbed.remote_bandwidth
        diag = topo.resolve_detailed({n: bw for n in range(4)})
        assert diag.converged
        assert diag.iterations > 1
        assert diag.damping == pytest.approx(0.25)

    def test_nonconvergence_warns_and_reports(self):
        topo = FabricTopology(n_nodes=4, n_ports=1)
        bw = topo.testbed.remote_bandwidth
        demands = {n: bw for n in range(4)}
        # Undamped updates on a 4-way shared port oscillate; a two-iteration
        # budget cannot converge and must say so instead of staying silent.
        with pytest.warns(FabricConvergenceWarning):
            diag = topo.resolve_detailed(demands, iterations=2, damping=1.0)
        assert not diag.converged
        assert diag.iterations == 2
        assert diag.residual >= 1e6

    def test_resolve_wrapper_propagates_warning(self):
        topo = FabricTopology(n_nodes=4, n_ports=1)
        bw = topo.testbed.remote_bandwidth
        with pytest.warns(FabricConvergenceWarning):
            topo.resolve({n: bw for n in range(4)}, iterations=2, damping=1.0)

    def test_converged_solve_does_not_warn(self):
        topo = FabricTopology(n_nodes=2, n_ports=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", FabricConvergenceWarning)
            topo.resolve_detailed({0: 1 * GB})

    def test_invalid_damping_rejected(self):
        topo = FabricTopology(n_nodes=2)
        with pytest.raises(FabricError):
            topo.resolve_detailed({0: 1 * GB}, damping=0.0)
        with pytest.raises(FabricError):
            topo.resolve_detailed({0: 1 * GB}, damping=1.5)


class TestSolverTelemetry:
    def test_counters_and_histogram(self, telemetry_on):
        topo = FabricTopology(n_nodes=4, n_ports=1)
        bw = topo.testbed.remote_bandwidth
        demands = {n: bw for n in range(4)}
        topo.resolve_detailed(demands)
        with pytest.warns(FabricConvergenceWarning):
            topo.resolve_detailed(demands, iterations=2, damping=1.0)
        registry = telemetry.registry()
        assert registry.counter("fabric.solve.calls").value == 2
        assert registry.counter("fabric.solve.nonconverged").value == 1
        assert registry.histogram("fabric.solve.iterations").count == 2
        spans = [s.name for s in telemetry.tracer().spans]
        assert spans.count("fabric.solve") == 2

    def test_pool_admission_counters(self, telemetry_on):
        pool = MemoryPool(capacity_bytes=10 * GB)
        granted = pool.request("a", 6 * GB, time=0.0)
        queued = pool.request("b", 6 * GB, time=1.0)
        rejected = pool.request("c", 100 * GB, time=2.0)
        registry = telemetry.registry()
        assert registry.counter("fabric.pool.granted").value == 1
        assert registry.counter("fabric.pool.queued").value == 1
        assert registry.counter("fabric.pool.rejected").value == 1
        # Releasing the grant admits the queued lease: released 1, granted 2.
        pool.release(granted, time=3.0)
        assert registry.counter("fabric.pool.released").value == 1
        assert registry.counter("fabric.pool.granted").value == 2
        pool.release(queued, time=4.0)
        assert rejected is not None


class TestRackTelemetryAdapter:
    def test_series_shape_unchanged(self):
        rack = RackTelemetry()
        assert len(rack) == 0
        series = rack.series()
        assert set(series) == {
            "time",
            "leased_gb",
            "queue_depth",
            "active_tenants",
            "max_port_utilization",
            "max_port_waiting_ns",
        }

    def test_record_feeds_registry_gauges(self, telemetry_on):
        spec = build_workload("XSBench")
        tenants = uniform_tenants(spec, 2, local_fraction=0.5)
        sim, _ = run_rack(tenants)
        timeline = sim.rack_sim(0).telemetry
        assert len(timeline) > 0
        assert len(timeline.times) == len(timeline.leased_bytes)
        registry = telemetry.registry()
        assert registry.counter("fabric.cosim.epoch_rollovers").value > 0
        assert registry.counter("fabric.solve.calls").value > 0
        assert "fabric.pool.leased_bytes" in registry
        assert registry.histogram("fabric.port.utilization").count > 0

    def test_timeline_records_even_when_disabled(self):
        telemetry.disable()
        spec = build_workload("XSBench")
        tenants = uniform_tenants(spec, 2, local_fraction=0.5)
        sim, _ = run_rack(tenants)
        # The timeline is simulation output, not optional observability.
        assert len(sim.rack_sim(0).telemetry) > 0
        assert sim.rack_sim(0).telemetry.series()["time"]
