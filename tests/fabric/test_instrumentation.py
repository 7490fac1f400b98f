"""Tests for the fabric's telemetry: solve and pool counters, rack timelines."""

import pytest

from racks import run_rack
from repro import telemetry
from repro.fabric import ClusterFabric, MemoryPool, uniform_tenants
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


class TestSolverTelemetry:
    def test_one_count_and_span_per_solve_call(self, telemetry_on):
        """A batch of racks is one solve call, however many racks it holds."""
        fabric = ClusterFabric(n_racks=3, nodes_per_rack=4, n_ports=2)
        bw = fabric.testbed.remote_bandwidth
        fabric.resolve_all([{n: bw for n in range(4)}] * 3)
        fabric.racks[0].resolve({0: bw})
        fabric.racks[1].resolve_detailed({0: bw, 1: bw})
        assert telemetry.registry().counter("fabric.solve.calls").value == 3
        spans = [s for s in telemetry.tracer().spans if s.name == "fabric.solve"]
        assert [(s.attrs["racks"], s.attrs["nodes"]) for s in spans] == [
            (3, 12),
            (1, 1),
            (1, 2),
        ]

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
