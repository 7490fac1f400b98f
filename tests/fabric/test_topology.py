"""Tests for the fabric topology and its contention resolution."""

import math
import warnings

import pytest

from repro.config.errors import FabricError
from repro.fabric import FabricTopology
from repro.fabric.topology import water_level

GB = 10**9


class TestWiring:
    def test_round_robin_port_assignment(self):
        topo = FabricTopology(n_nodes=6, n_ports=2)
        assert [topo.port_of(n) for n in range(6)] == [0, 1, 0, 1, 0, 1]
        assert topo.nodes_on_port(0) == (0, 2, 4)
        assert topo.nodes_on_port(1) == (1, 3, 5)

    def test_invalid_geometry(self):
        with pytest.raises(FabricError):
            FabricTopology(n_nodes=0)
        with pytest.raises(FabricError):
            FabricTopology(n_nodes=2, n_ports=0)
        with pytest.raises(FabricError):
            FabricTopology(n_nodes=2, port_capacity_scale=0.5)

    def test_out_of_range_lookups(self):
        topo = FabricTopology(n_nodes=2)
        with pytest.raises(FabricError):
            topo.port_of(2)
        with pytest.raises(FabricError):
            topo.nodes_on_port(1)

    def test_port_capacity_scale_widens_ports(self):
        narrow = FabricTopology(n_nodes=2)
        wide = FabricTopology(n_nodes=2, port_capacity_scale=2.0)
        assert wide.ports[0].data_capacity == pytest.approx(
            2.0 * narrow.ports[0].data_capacity
        )

    def test_describe(self):
        info = FabricTopology(n_nodes=4, n_ports=2).describe()
        assert info["n_nodes"] == 4
        assert info["n_ports"] == 2
        assert info["port_map"] == {0: 0, 1: 1, 2: 0, 3: 1}


class TestBackgroundAndUtilisation:
    def test_background_sums_co_runners_only(self):
        topo = FabricTopology(n_nodes=3, n_ports=1)
        demands = {0: 10 * GB, 1: 5 * GB, 2: 3 * GB}
        assert topo.background_for(0, demands) == pytest.approx(8 * GB)
        assert topo.background_for(2, demands) == pytest.approx(15 * GB)

    def test_background_excludes_other_ports(self):
        topo = FabricTopology(n_nodes=4, n_ports=2)
        demands = {0: 10 * GB, 1: 20 * GB, 2: 5 * GB, 3: 7 * GB}
        # Node 0 shares port 0 with node 2 only.
        assert topo.background_for(0, demands) == pytest.approx(5 * GB)

    def test_demand_clipped_to_node_link(self):
        topo = FabricTopology(n_nodes=2, n_ports=1)
        node_bw = topo.testbed.remote_bandwidth
        demands = {0: 10 * node_bw, 1: 0.0}
        assert topo.background_for(1, demands) == pytest.approx(node_bw)

    def test_port_utilization_grows_with_tenants(self):
        topo = FabricTopology(n_nodes=6, n_ports=1)
        utils = [
            topo.port_utilization(0, {i: 10 * GB for i in range(n)})
            for n in range(1, 7)
        ]
        assert all(b > a for a, b in zip(utils, utils[1:]))

    def test_port_waiting_time_nonnegative_and_monotone(self):
        topo = FabricTopology(n_nodes=6, n_ports=1)
        waits = [
            topo.port_waiting_time(0, {i: 10 * GB for i in range(n)})
            for n in range(1, 7)
        ]
        assert all(w >= 0 for w in waits)
        assert all(b >= a - 1e-15 for a, b in zip(waits, waits[1:]))


class TestResolve:
    def test_symmetric_overload_converges_to_fair_share(self):
        topo = FabricTopology(n_nodes=16, n_ports=1)
        capacity = topo.ports[0].data_capacity
        for n in (3, 4, 5, 8, 11, 16):
            delivered = topo.resolve({i: 28 * GB for i in range(n)})
            for value in delivered.values():
                assert value == pytest.approx(capacity / n, rel=1e-12)

    def test_underloaded_port_delivers_full_demand(self):
        topo = FabricTopology(n_nodes=2, n_ports=1)
        delivered = topo.resolve({0: 5 * GB, 1: 5 * GB})
        assert delivered == {0: 5 * GB, 1: 5 * GB}

    def test_resolve_per_port_independence(self):
        topo = FabricTopology(n_nodes=4, n_ports=2)
        # Port 0 (nodes 0 and 2) is overloaded, port 1 (nodes 1 and 3) idle-ish.
        delivered = topo.resolve(
            {0: 30 * GB, 2: 30 * GB, 1: 2 * GB, 3: 2 * GB}
        )
        assert delivered[1] == 2 * GB
        assert delivered[3] == 2 * GB
        assert delivered[0] < 30 * GB

    @pytest.mark.parametrize("n", [8, 11, 12, 16])
    def test_total_delivered_bounded_by_capacity(self, n):
        topo = FabricTopology(n_nodes=n, n_ports=1)
        capacity = topo.ports[0].data_capacity
        delivered = topo.resolve({i: topo.testbed.remote_bandwidth for i in range(n)})
        assert sum(delivered.values()) <= capacity * (1 + 1e-12)

    def test_small_offer_is_not_throttled_below_its_fair_share(self):
        topo = FabricTopology(n_nodes=3, n_ports=1)
        capacity = topo.ports[0].data_capacity
        # The 0.9 C offer is clipped to the node link, 0.6 C.
        delivered = topo.resolve({0: 0.2 * capacity, 1: 0.6 * capacity, 2: 0.9 * capacity})
        assert delivered[0] == pytest.approx(0.2 * capacity, rel=1e-12)
        assert delivered[1] == pytest.approx(0.4 * capacity, rel=1e-12)
        assert delivered[2] == pytest.approx(0.4 * capacity, rel=1e-12)

    def test_unknown_node_rejected(self):
        with pytest.raises(FabricError):
            FabricTopology(n_nodes=2).resolve({2: GB})

    def test_empty_demands_resolve_to_empty(self):
        topo = FabricTopology(n_nodes=2)
        assert topo.resolve({}) == {}
        assert topo.resolve_detailed({}) == {}

    def test_resolve_detailed_gives_the_resolve_answer(self):
        topo = FabricTopology(n_nodes=4, n_ports=1)
        demands = {0: 2 * GB, 1: 20 * GB, 2: 28 * GB, 3: 28 * GB}
        assert topo.resolve_detailed(demands) == topo.resolve(demands)

    def test_negative_demand_delivers_nothing(self):
        topo = FabricTopology(n_nodes=2, n_ports=1)
        assert topo.resolve({0: -5 * GB, 1: 5 * GB}) == {0: 0.0, 1: 5 * GB}

    def test_sixteen_full_links_per_port_fill_it_without_a_warning(self):
        topo = FabricTopology(n_nodes=32, n_ports=2)
        bw = topo.testbed.remote_bandwidth
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            delivered = topo.resolve({n: bw for n in range(32)})
        for port in range(2):
            capacity = topo.ports[port].data_capacity
            on_port = [delivered[n] for n in topo.nodes_on_port(port)]
            assert math.fsum(on_port) == pytest.approx(capacity, rel=1e-12)
            assert set(on_port) == {on_port[0]}


class TestWaterLevel:
    def test_offers_that_fit_have_no_level(self):
        assert water_level([], 10.0) == math.inf
        assert water_level([1.0, 2.0, 7.0], 10.0) == math.inf

    def test_equal_offers_split_the_port_equally(self):
        assert water_level([5.0] * 4, 10.0) == 2.5

    def test_an_offer_below_an_equal_share_is_kept_whole(self):
        # 1 is below an equal third of 10, so the other two split the 9 left.
        assert water_level([1.0, 6.0, 6.0], 10.0) == 4.5
