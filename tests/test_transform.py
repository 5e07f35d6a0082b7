"""Tests for the extended-graph transformation (Figures 2 and 3)."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro import build_extended_network
from repro.core.transform import ExtEdgeKind, ExtNodeKind
from repro.exceptions import TransformError
from repro.scenarios import diamond_network, figure1_network


class TestBookkeeping:
    """Paper, Section 3: N + M + J nodes and 2M + 2J edges."""

    @pytest.mark.parametrize("factory", [diamond_network, figure1_network])
    def test_counts(self, factory):
        net = factory()
        used = {e for c in net.commodities for e in c.edges}
        ext = build_extended_network(net)
        n, m, j = net.physical.num_nodes, len(used), net.num_commodities
        assert ext.num_nodes == n + m + j
        assert ext.num_edges == 2 * m + 2 * j

    def test_unused_physical_links_get_no_bandwidth_node(self):
        net = diamond_network()
        net.physical.add_server("spare", 5.0)
        net.physical.add_link("spare", "sink", 5.0)
        net.physical.add_link("src", "spare", 5.0)
        ext = build_extended_network(net)
        names = {node.name for node in ext.nodes}
        assert "bw:spare->sink" not in names


class TestStructure:
    def test_bandwidth_node_capacity_is_link_bandwidth(self, diamond_ext):
        for node in diamond_ext.nodes:
            if node.kind is ExtNodeKind.BANDWIDTH:
                link = diamond_ext.stream_network.physical.link(*node.physical_link)
                assert node.capacity == pytest.approx(link.bandwidth)

    def test_dummy_nodes_are_unconstrained(self, diamond_ext):
        for node in diamond_ext.nodes:
            if node.kind is ExtNodeKind.DUMMY_SOURCE:
                assert node.capacity == float("inf")

    def test_sinks_are_unconstrained(self, diamond_ext):
        for node in diamond_ext.nodes:
            if node.kind is ExtNodeKind.SINK:
                assert node.capacity == float("inf")

    def test_every_used_link_becomes_two_edges(self, figure1_ext):
        processing = [
            e for e in figure1_ext.edges if e.kind is ExtEdgeKind.PROCESSING
        ]
        transfer = [e for e in figure1_ext.edges if e.kind is ExtEdgeKind.TRANSFER]
        assert len(processing) == len(transfer)
        for edge in processing:
            bw_node = figure1_ext.nodes[edge.head]
            assert bw_node.kind is ExtNodeKind.BANDWIDTH
            assert bw_node.physical_link == edge.physical_link

    def test_each_commodity_has_both_dummy_links(self, figure1_ext):
        for view in figure1_ext.commodities:
            input_edge = figure1_ext.edges[view.input_edge]
            diff_edge = figure1_ext.edges[view.difference_edge]
            assert input_edge.kind is ExtEdgeKind.DUMMY_INPUT
            assert diff_edge.kind is ExtEdgeKind.DUMMY_DIFFERENCE
            assert input_edge.tail == view.dummy
            assert input_edge.head == view.source
            assert diff_edge.tail == view.dummy
            assert diff_edge.head == view.sink


class TestParameters:
    def test_processing_edge_inherits_cost_and_gain(self, figure1_ext):
        net = figure1_ext.stream_network
        for view in figure1_ext.commodities:
            commodity = net.commodity(view.name)
            for edge_idx in view.edge_indices:
                edge = figure1_ext.edges[edge_idx]
                j = view.index
                if edge.kind is ExtEdgeKind.PROCESSING:
                    tail, head = edge.physical_link
                    if (tail, head) in commodity.costs:
                        assert figure1_ext.cost[j, edge_idx] == pytest.approx(
                            commodity.cost(tail, head)
                        )
                        assert figure1_ext.gain[j, edge_idx] == pytest.approx(
                            commodity.gain(tail, head)
                        )

    def test_transfer_edges_are_unit_cost_unit_gain(self, figure1_ext):
        for view in figure1_ext.commodities:
            j = view.index
            for edge_idx in view.edge_indices:
                edge = figure1_ext.edges[edge_idx]
                if edge.kind in (ExtEdgeKind.TRANSFER, ExtEdgeKind.DUMMY_INPUT,
                                 ExtEdgeKind.DUMMY_DIFFERENCE):
                    assert figure1_ext.cost[j, edge_idx] == 1.0
                    assert figure1_ext.gain[j, edge_idx] == 1.0

    def test_disallowed_edges_masked(self, figure1_ext):
        for view in figure1_ext.commodities:
            j = view.index
            allowed = set(view.edge_indices)
            for e in range(figure1_ext.num_edges):
                assert figure1_ext.allowed[j, e] == (e in allowed)

    def test_lam_vector(self, figure1_ext):
        np.testing.assert_allclose(figure1_ext.commodity_max_rates, [15.0, 12.0])


class TestTopology:
    def test_commodity_subgraphs_are_dags_with_valid_topo_order(self, figure1_ext):
        for view in figure1_ext.commodities:
            graph = nx.DiGraph()
            for e in view.edge_indices:
                graph.add_edge(
                    figure1_ext.edge_tail[e], figure1_ext.edge_head[e]
                )
            assert nx.is_directed_acyclic_graph(graph)
            position = {n: i for i, n in enumerate(view.topo_order)}
            for e in view.edge_indices:
                assert (
                    position[figure1_ext.edge_tail[e]]
                    < position[figure1_ext.edge_head[e]]
                )

    def test_dummy_is_first_in_topo_order(self, figure1_ext):
        for view in figure1_ext.commodities:
            assert view.topo_order[0] == view.dummy

    def test_adjacency_lists_consistent(self, figure1_ext):
        for e, edge in enumerate(figure1_ext.edges):
            assert e in figure1_ext.out_edges[edge.tail]
            assert e in figure1_ext.in_edges[edge.head]


class TestHelpers:
    def test_node_index_roundtrip(self, diamond_ext):
        for node in diamond_ext.nodes:
            assert diamond_ext.node_index(node.name) == node.index

    def test_node_index_unknown(self, diamond_ext):
        with pytest.raises(TransformError):
            diamond_ext.node_index("nope")

    def test_commodity_view_lookup(self, diamond_ext):
        assert diamond_ext.commodity_view("diamond").name == "diamond"
        with pytest.raises(TransformError):
            diamond_ext.commodity_view("nope")

    def test_describe_mentions_counts(self, diamond_ext):
        text = diamond_ext.describe()
        assert str(diamond_ext.num_nodes) in text
        assert "bandwidth" in text

    def test_to_networkx(self, diamond_ext):
        graph = diamond_ext.to_networkx()
        assert graph.number_of_nodes() == diamond_ext.num_nodes
        assert graph.number_of_edges() == diamond_ext.num_edges
