"""Tests for the cache hierarchy model and counter-derived metrics."""

import pytest

from repro.cache import events
from repro.cache.events import CounterSet
from repro.cache.hierarchy import CacheHierarchyModel
from repro.config import SKYLAKE_EMULATION


@pytest.fixture(scope="module")
def model():
    return CacheHierarchyModel(SKYLAKE_EMULATION)


class TestCounterSet:
    def test_add_get_and_merge(self):
        a = CounterSet()
        a.add("x", 1.0)
        a.add("x", 2.0)
        b = CounterSet({"x": 10.0, "y": 5.0})
        merged = a.merged(b)
        assert merged["x"] == 13.0
        assert merged["y"] == 5.0
        assert a["x"] == 3.0  # original unchanged

    def test_set_and_contains(self):
        c = CounterSet()
        c.set("z", 7.0)
        assert "z" in c and c.get("z") == 7.0
        assert c.get("missing", 1.5) == 1.5
        assert c["missing"] == 0.0

    def test_update_from_and_as_dict(self):
        c = CounterSet()
        c.update_from({"a": 1.0, "b": 2.0})
        c.update_from({"a": 1.0})
        assert c.as_dict() == {"a": 2.0, "b": 2.0}
        assert sorted(c) == ["a", "b"]


class TestStatsFromFraction:
    def test_traffic_accounting(self, model):
        stats = model.stats_from_fraction(
            demand_dram_bytes=64 * 1_000_000, stream_fraction=0.7, write_fraction=0.2
        )
        assert stats.demand_dram_lines == pytest.approx(1_000_000)
        assert stats.covered_fraction == pytest.approx(0.7, abs=0.02)
        assert stats.counters[events.L2_LINES_IN] == pytest.approx(
            stats.demand_dram_lines + stats.useless_prefetch_lines
        )
        assert stats.counters[events.OFFCORE_L3_MISS] == stats.counters[events.L2_LINES_IN]

    def test_prefetch_disabled_override(self, model):
        stats = model.stats_from_fraction(
            demand_dram_bytes=64 * 1_000_000, stream_fraction=0.9, prefetch_enabled=False
        )
        assert stats.covered_fraction == 0.0
        assert stats.counters[events.PF_L2_DATA_RD] == 0.0
        assert stats.useless_prefetch_lines == 0.0

    def test_accuracy_hint_round_trip_through_counters(self, model):
        stats = model.stats_from_fraction(
            demand_dram_bytes=64 * 2_000_000,
            stream_fraction=0.6,
            accuracy_hint=0.75,
        )
        derived = CacheHierarchyModel.accuracy_from_counters(stats.counters)
        assert derived == pytest.approx(0.75, abs=0.05)
        coverage = CacheHierarchyModel.coverage_from_counters(stats.counters)
        assert coverage == pytest.approx(stats.covered_fraction, abs=0.05)

    def test_excess_traffic_fraction(self, model):
        stats = model.stats_from_fraction(
            demand_dram_bytes=64 * 1_000_000, stream_fraction=0.5, accuracy_hint=0.5
        )
        assert stats.excess_traffic_fraction == pytest.approx(0.5, rel=0.1)
        assert stats.total_dram_lines > stats.demand_dram_lines

    def test_zero_traffic(self, model):
        stats = model.stats_from_fraction(demand_dram_bytes=0.0, stream_fraction=0.9)
        assert stats.demand_dram_lines == 0
        assert stats.excess_traffic_fraction == 0.0

    def test_all_streaming_covers_nearly_every_line(self, model):
        stats = model.stats_from_fraction(demand_dram_bytes=64 * 1_000_000, stream_fraction=1.0)
        assert stats.demand_dram_lines == pytest.approx(1_000_000)
        assert stats.covered_fraction > 0.99
        assert stats.accuracy > 0.9

    def test_no_streaming_issues_no_prefetches(self, model):
        stats = model.stats_from_fraction(demand_dram_bytes=64 * 1_000_000, stream_fraction=0.0)
        assert stats.covered_fraction == 0.0
        assert stats.counters[events.PF_L2_DATA_RD] + stats.counters[events.PF_L2_RFO] == 0.0
        assert stats.counters[events.L2_LINES_IN] == stats.demand_dram_lines

    def test_coverage_grows_with_stream_fraction(self, model):
        covered = [
            model.stats_from_fraction(64 * 1_000_000, fraction).covered_fraction
            for fraction in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert all(b > a for a, b in zip(covered, covered[1:]))

    def test_prefetch_enabled_override_on_a_disabled_testbed(self):
        model = CacheHierarchyModel(SKYLAKE_EMULATION.with_prefetching(False))
        off = model.stats_from_fraction(64 * 1_000_000, stream_fraction=0.7)
        on = model.stats_from_fraction(64 * 1_000_000, stream_fraction=0.7, prefetch_enabled=True)
        assert off.covered_fraction == 0.0
        assert on.covered_fraction == pytest.approx(0.7, abs=0.02)

    def test_counters_reproduce_the_model_metrics(self, model):
        stats = model.stats_from_fraction(64 * 1_000_000, stream_fraction=0.4)
        assert CacheHierarchyModel.accuracy_from_counters(stats.counters) == pytest.approx(
            stats.accuracy
        )
        assert CacheHierarchyModel.coverage_from_counters(stats.counters) == pytest.approx(
            stats.covered_fraction
        )

    def test_write_fraction_splits_rfo_counters(self, model):
        stats = model.stats_from_fraction(
            64 * 1_000_000, stream_fraction=0.8, write_fraction=0.25
        )
        issued = stats.counters[events.PF_L2_DATA_RD] + stats.counters[events.PF_L2_RFO]
        assert stats.counters[events.PF_L2_RFO] == pytest.approx(0.25 * issued, rel=1e-3)


class TestDerivedMetricEdgeCases:
    def test_accuracy_with_no_prefetches(self):
        counters = CounterSet({events.PF_L2_DATA_RD: 0.0, events.PF_L2_RFO: 0.0})
        assert CacheHierarchyModel.accuracy_from_counters(counters) == 0.0

    def test_coverage_with_no_fills(self):
        counters = CounterSet({events.L2_LINES_IN: 0.0})
        assert CacheHierarchyModel.coverage_from_counters(counters) == 0.0
