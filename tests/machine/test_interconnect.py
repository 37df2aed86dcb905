"""Buses, point-to-point links, routing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import (
    BusInterconnect,
    NoInterconnect,
    PointToPointInterconnect,
    grid_links,
)


class TestBus:
    def test_broadcast_reaches_everything(self):
        bus = BusInterconnect(bus_count=2)
        assert bus.broadcast
        assert bus.reachable(0, 3)
        assert bus.route(0, 3) == [0, 3]
        assert bus.hop_distance(0, 3) == 1

    def test_route_to_self(self):
        bus = BusInterconnect(bus_count=1)
        assert bus.route(2, 2) == [2]

    def test_channel_pool(self):
        assert BusInterconnect(bus_count=4).channel_resources() == {"bus": 4}

    def test_hop_channel_is_the_bus(self):
        assert BusInterconnect(bus_count=2).channel_for_hop(0, 1) == "bus"

    def test_zero_buses_rejected(self):
        with pytest.raises(ValueError):
            BusInterconnect(bus_count=0)


class TestPointToPoint:
    @pytest.fixture
    def square(self):
        """The paper's 2x2 grid: 0-1, 0-2, 1-3, 2-3."""
        return PointToPointInterconnect(grid_links(2, 2))

    def test_not_broadcast(self, square):
        assert not square.broadcast

    def test_neighbors_reachable_one_hop(self, square):
        assert square.reachable(0, 1)
        assert square.reachable(0, 2)
        assert not square.reachable(0, 3)  # diagonal

    def test_diagonal_routes_in_two_hops(self, square):
        route = square.route(0, 3)
        assert len(route) == 3
        assert route[0] == 0 and route[-1] == 3
        assert route[1] in (1, 2)

    def test_hop_distance(self, square):
        assert square.hop_distance(0, 1) == 1
        assert square.hop_distance(0, 3) == 2
        assert square.hop_distance(2, 2) == 0

    def test_channel_pools_one_per_link(self, square):
        pools = square.channel_resources()
        assert len(pools) == 4
        assert all(capacity == 1 for capacity in pools.values())

    def test_channel_for_hop_is_direction_agnostic(self, square):
        assert square.channel_for_hop(0, 1) == square.channel_for_hop(1, 0)

    def test_channel_for_missing_link_raises(self, square):
        with pytest.raises(ValueError):
            square.channel_for_hop(0, 3)

    def test_unroutable_pair_raises(self):
        fabric = PointToPointInterconnect([(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            fabric.route(0, 3)

    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            PointToPointInterconnect([(1, 1)])

    def test_duplicate_links_deduplicated(self):
        fabric = PointToPointInterconnect([(0, 1), (1, 0)])
        assert len(fabric.links) == 1

    def test_empty_fabric_rejected(self):
        with pytest.raises(ValueError):
            PointToPointInterconnect([])


class TestGridLinks:
    def test_two_by_two(self):
        links = set(grid_links(2, 2))
        assert links == {(0, 1), (0, 2), (1, 3), (2, 3)}

    def test_one_by_three_chain(self):
        assert set(grid_links(1, 3)) == {(0, 1), (1, 2)}

    def test_three_by_three_count(self):
        # 3x3 mesh: 2*3 horizontal + 3*2 vertical = 12 links.
        assert len(grid_links(3, 3)) == 12


class TestNoInterconnect:
    def test_only_self_reachable(self):
        fabric = NoInterconnect()
        assert fabric.reachable(0, 0)
        assert not fabric.reachable(0, 1)

    def test_cross_route_raises(self):
        with pytest.raises(ValueError):
            NoInterconnect().route(0, 1)

    def test_no_channels(self):
        assert NoInterconnect().channel_resources() == {}

    def test_hop_channel_raises(self):
        with pytest.raises(ValueError):
            NoInterconnect().channel_for_hop(0, 1)


def _networkx_route(links, src, dst):
    """``nx.shortest_path`` over the fabric's links (None: no route),
    the routing the point-to-point fabric used to delegate to."""
    import networkx as nx

    graph = nx.Graph()
    for a, b in links:
        graph.add_edge(a, b)
    if src == dst:
        return [src]
    try:
        return nx.shortest_path(graph, src, dst)
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None


def _route_or_none(fabric, src, dst):
    try:
        return fabric.route(src, dst)
    except ValueError:
        return None


class TestRouteMatchesNetworkx:
    """``route`` is a port of networkx's bidirectional BFS: among equally
    short paths it must pick the very one ``nx.shortest_path`` picks
    (copy plans, and so every compile on a point-to-point machine,
    depend on it)."""

    def _point_to_point_presets(self):
        from repro.machine import ring_machine
        from repro.machine.presets import STANDARD_PRESETS
        from repro.machine.units import PAPER_GRID_MIX

        machines = [make() for make in STANDARD_PRESETS.values()]
        machines += [ring_machine(n, PAPER_GRID_MIX) for n in range(3, 9)]
        return [
            machine for machine in machines
            if isinstance(machine.interconnect, PointToPointInterconnect)
        ]

    def test_every_pair_on_every_preset(self):
        machines = self._point_to_point_presets()
        assert any(m.n_clusters == 4 for m in machines)  # the 2x2 grid
        for machine in machines:
            fabric = machine.interconnect
            for src in machine.cluster_indices:
                for dst in machine.cluster_indices:
                    assert fabric.route(src, dst) == _networkx_route(
                        fabric.links, src, dst
                    ), (machine.name, src, dst)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=0, max_value=7),
            ).filter(lambda link: link[0] != link[1]),
            min_size=1,
            max_size=14,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_random_link_lists(self, links):
        fabric = PointToPointInterconnect(links)
        for src in range(8):
            for dst in range(8):
                want = _networkx_route(fabric.links, src, dst)
                assert _route_or_none(fabric, src, dst) == want
                if want is None:
                    with pytest.raises(ValueError, match="no point-to-point"):
                        fabric.route(src, dst)

    def test_disconnected_pair_raises(self):
        fabric = PointToPointInterconnect([(0, 1), (2, 3)])
        assert _networkx_route(fabric.links, 0, 3) is None
        with pytest.raises(ValueError, match="no point-to-point route"):
            fabric.route(0, 3)
        with pytest.raises(ValueError):
            fabric.route(0, 5)  # a cluster with no link at all
