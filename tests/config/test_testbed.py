"""Tests for the testbed (platform) configuration."""

import pytest

from repro.config import ConfigurationError, SKYLAKE_EMULATION, TestbedConfig, small_testbed
from repro.config.testbed import CacheLevelConfig, PrefetcherConfig


class TestDefaults:
    def test_paper_platform_numbers(self):
        d = SKYLAKE_EMULATION.describe()
        assert d["local_bandwidth_gbs"] == pytest.approx(73.0)
        assert d["remote_bandwidth_gbs"] == pytest.approx(34.0)
        assert d["local_latency_ns"] == pytest.approx(111.0)
        assert d["remote_latency_ns"] == pytest.approx(202.0)
        assert d["link_peak_traffic_gbs"] == pytest.approx(85.0)

    def test_remote_is_slower_than_local(self):
        assert SKYLAKE_EMULATION.remote_bandwidth < SKYLAKE_EMULATION.local_bandwidth
        assert SKYLAKE_EMULATION.remote_latency > SKYLAKE_EMULATION.local_latency

    def test_aggregate_bandwidth_exceeds_local(self):
        # The paper's "misconception" point: an extra tier adds bandwidth.
        assert SKYLAKE_EMULATION.aggregate_bandwidth > SKYLAKE_EMULATION.local_bandwidth

    def test_bandwidth_ratio_remote(self):
        expected = 34.0 / (73.0 + 34.0)
        assert SKYLAKE_EMULATION.bandwidth_ratio_remote == pytest.approx(expected)

    def test_machine_balance_positive(self):
        assert SKYLAKE_EMULATION.machine_balance > 1.0

    def test_cache_levels_ordered(self):
        sizes = [lvl.capacity_bytes for lvl in SKYLAKE_EMULATION.cache_levels]
        assert sizes == sorted(sizes)
        assert SKYLAKE_EMULATION.llc.name == "L3"
        assert SKYLAKE_EMULATION.l2.name == "L2"


class TestValidation:
    def test_rejects_remote_faster_than_local(self):
        with pytest.raises(ConfigurationError):
            TestbedConfig(local_bandwidth=10e9, remote_bandwidth=20e9)

    def test_rejects_remote_latency_below_local(self):
        with pytest.raises(ConfigurationError):
            TestbedConfig(local_latency=200e-9, remote_latency=100e-9)

    def test_rejects_nonpositive_flops(self):
        with pytest.raises(ConfigurationError):
            TestbedConfig(peak_flops=0.0)

    def test_rejects_bad_protocol_overhead(self):
        with pytest.raises(ConfigurationError):
            TestbedConfig(link_protocol_overhead=0.5)

    def test_cache_level_geometry_validation(self):
        with pytest.raises(ConfigurationError):
            CacheLevelConfig("L1", 0, 8)
        with pytest.raises(ConfigurationError):
            CacheLevelConfig("L1", 32 * 1024, 8, line_bytes=48)
        with pytest.raises(ConfigurationError):
            CacheLevelConfig("L1", 1000, 8)  # not a multiple of assoc*line

    def test_cache_level_derived_counts(self):
        level = CacheLevelConfig("L2", 1 << 20, 16)
        assert level.n_sets == (1 << 20) // (16 * 64)
        assert level.n_lines == (1 << 20) // 64


class TestPrefetcherConfig:
    def test_disabled_copy(self):
        config = PrefetcherConfig(enabled=True, degree=8)
        off = config.disabled()
        assert off.enabled is False
        assert off.degree == config.degree
        assert config.enabled is True  # original untouched

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            PrefetcherConfig(degree=0)
        with pytest.raises(ConfigurationError):
            PrefetcherConfig(detection_window=0)

    def test_with_prefetching_toggle(self):
        off = SKYLAKE_EMULATION.with_prefetching(False)
        assert off.prefetcher.enabled is False
        assert SKYLAKE_EMULATION.prefetcher.enabled is True


def test_small_testbed_preserves_ratios():
    small = small_testbed()
    assert small.local_bandwidth == SKYLAKE_EMULATION.local_bandwidth
    assert small.llc.capacity_bytes < SKYLAKE_EMULATION.llc.capacity_bytes


def test_small_testbed_rejects_bad_scale():
    with pytest.raises(ConfigurationError):
        small_testbed(0.0)
    with pytest.raises(ConfigurationError):
        small_testbed(2.0)
