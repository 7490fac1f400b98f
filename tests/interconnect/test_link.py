"""Tests for the remote link model."""

import pytest

from repro.config import ConfigurationError, SKYLAKE_EMULATION, TestbedConfig
from repro.interconnect.link import RemoteLink
from repro.interconnect.queueing import LinearQueueingModel


@pytest.fixture(scope="module")
def link():
    return RemoteLink(SKYLAKE_EMULATION)


class TestCapacitiesAndTraffic:
    def test_data_capacity_from_overhead(self, link):
        expected = SKYLAKE_EMULATION.link_peak_traffic / SKYLAKE_EMULATION.link_protocol_overhead
        assert link.data_capacity == pytest.approx(expected)
        assert link.data_capacity > link.node_bandwidth

    def test_measured_traffic_saturates_at_peak(self, link):
        below = link.measured_traffic(10e9)
        at = link.measured_traffic(200e9)
        assert below == pytest.approx(10e9 * link.protocol_overhead)
        assert at == pytest.approx(link.peak_traffic)

    def test_utilization_can_exceed_one_when_oversubscribed(self, link):
        assert link.utilization(10e9) < 1.0
        assert link.utilization(100e9) > 1.0

    def test_raw_traffic_adds_protocol_overhead(self, link):
        assert link.raw_traffic(12e9) == pytest.approx(12e9 * link.protocol_overhead)
        assert link.raw_traffic(-1e9) == 0.0

    def test_measured_traffic_of_no_load_is_zero(self, link):
        assert link.measured_traffic(0.0) == 0.0
        assert link.measured_traffic(-5e9) == 0.0

    def test_measured_traffic_is_monotone_and_capped(self, link):
        loads = [0.0, 5e9, 20e9, link.data_capacity, 2 * link.data_capacity, 500e9]
        measured = [link.measured_traffic(bw) for bw in loads]
        assert all(b >= a for a, b in zip(measured, measured[1:]))
        assert max(measured) == pytest.approx(link.peak_traffic)
        # The counter reaches the peak exactly when the data capacity is offered.
        assert link.measured_traffic(link.data_capacity) == pytest.approx(link.peak_traffic)

    def test_utilization_is_linear_in_offered_load(self, link):
        assert link.utilization(0.0) == 0.0
        assert link.utilization(30e9) == pytest.approx(2 * link.utilization(15e9))
        assert link.utilization(link.data_capacity) == pytest.approx(1.0)

    def test_loi_round_trip(self, link):
        for loi in (10.0, 25.0, 50.0, 100.0):
            bandwidth = link.bandwidth_for_loi(loi)
            assert link.loi(bandwidth) == pytest.approx(loi, rel=1e-6)

    def test_loi_capped_at_capacity(self, link):
        assert link.loi(10 * link.data_capacity) == pytest.approx(100.0)

    def test_negative_loi_rejected(self, link):
        with pytest.raises(ConfigurationError):
            link.bandwidth_for_loi(-1.0)


class TestShare:
    def test_uncontended_share_delivers_offered(self, link):
        share = link.share(10e9, 0.0)
        assert share.delivered_bandwidth == pytest.approx(10e9)
        assert share.available_bandwidth == pytest.approx(link.node_bandwidth)
        assert share.latency >= link.idle_latency
        assert share.slowdown == pytest.approx(1.0)

    def test_background_reduces_available_bandwidth(self, link):
        idle = link.share(0.0, 0.0).available_bandwidth
        loaded = link.share(0.0, 40e9).available_bandwidth
        assert loaded < idle

    def test_available_bandwidth_never_below_min_share(self, link):
        swamped = link.share(0.0, 10 * link.data_capacity)
        assert swamped.available_bandwidth >= RemoteLink.MIN_SHARE * link.data_capacity - 1e-6

    def test_latency_grows_with_background(self, link):
        light = link.share(5e9, 0.0).latency
        heavy = link.share(5e9, 50e9).latency
        assert heavy > light

    def test_queueing_delay_reported(self, link):
        share = link.share(20e9, 30e9)
        assert share.queueing_delay > 0
        assert share.latency == pytest.approx(link.idle_latency + share.queueing_delay)

    def test_zero_offered_slowdown_is_one(self, link):
        assert link.share(0.0, 0.0).slowdown == 1.0

    def test_latency_under_load_monotone(self, link):
        latencies = [link.latency_under_load(bw) for bw in (0.0, 10e9, 30e9, 60e9)]
        assert all(b >= a for a, b in zip(latencies, latencies[1:]))


class TestConstruction:
    def test_custom_queueing_model(self):
        link = RemoteLink(SKYLAKE_EMULATION, queueing=LinearQueueingModel(slope=0.0))
        share = link.share(10e9, 50e9)
        assert share.queueing_delay == 0.0

    def test_rejects_peak_below_node_bandwidth(self):
        bad = TestbedConfig(link_peak_traffic=10e9, link_protocol_overhead=1.0)
        with pytest.raises(ConfigurationError):
            RemoteLink(bad)
