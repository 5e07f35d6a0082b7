"""Tests for the blocked-set / tag-propagation machinery (eq. (18))."""

from __future__ import annotations

import numpy as np

from repro.core.blocking import (
    compute_all_blocked_sets,
    compute_blocked_sets_scalar,
    improper_links,
    node_tags,
)
from repro.core.marginals import (
    CostModel,
    all_marginal_costs,
    edge_marginals,
    link_cost_derivative,
)
from repro.core.routing import (
    resource_usage,
    solve_traffic,
    uniform_routing,
)


def marginal_context(ext, routing, eps=0.2):
    cost_model = CostModel(eps=eps)
    traffic = solve_traffic(ext, routing)
    edge_usage, node_usage = resource_usage(ext, routing, traffic)
    dadf = link_cost_derivative(ext, cost_model, edge_usage, node_usage)
    dadr_all = all_marginal_costs(ext, routing, dadf)
    contexts = []
    for view in ext.commodities:
        dadr = dadr_all[view.index]
        delta = edge_marginals(ext, view.index, dadf, dadr)
        contexts.append((dadr, delta))
    return traffic, contexts


class TestImproperLinks:
    def test_no_improper_links_on_descending_marginals(self, diamond_ext):
        """With an interior routing on the diamond, dA/dr strictly decreases
        toward the sink, so no link points 'uphill'."""
        routing = uniform_routing(diamond_ext)
        traffic, contexts = marginal_context(diamond_ext, routing)
        dadr, delta = contexts[0]
        improper = improper_links(
            diamond_ext, 0, routing, traffic, dadr, delta, eta=0.04
        )
        assert not improper.any()

    def test_zero_phi_links_never_improper(self, figure1_ext):
        routing = uniform_routing(figure1_ext)
        routing.phi[0] *= 0.0
        # rebuild a valid routing with some zero fractions: all mass on the
        # first out-edge at every node
        for view in figure1_ext.commodities:
            j = view.index
            for node in view.node_indices:
                if node == view.sink:
                    continue
                out = figure1_ext.commodity_out_edges[j][node]
                if out:
                    routing.phi[j, out] = 0.0
                    routing.phi[j, out[0]] = 1.0
        traffic, contexts = marginal_context(figure1_ext, routing)
        for view in figure1_ext.commodities:
            dadr, delta = contexts[view.index]
            improper = improper_links(
                figure1_ext, view.index, routing, traffic, dadr, delta, eta=0.04
            )
            phi = routing.phi[view.index]
            assert not improper[phi <= 1e-12].any()

    def test_synthetic_uphill_link_detected(self, diamond_ext):
        """Force an inverted marginal landscape and check eq. (18) fires."""
        routing = uniform_routing(diamond_ext)
        traffic = solve_traffic(diamond_ext, routing)
        view = diamond_ext.commodities[0]
        dadr = np.zeros(diamond_ext.num_nodes)
        delta = np.zeros(diamond_ext.num_edges)
        # pick a flow-carrying edge out of the source and invert its ends
        edge = diamond_ext.commodity_out_edges[0][view.source][0]
        tail, head = diamond_ext.edge_tail[edge], diamond_ext.edge_head[edge]
        dadr[tail] = 1.0
        dadr[head] = 2.0  # downstream looks *more* expensive
        delta[edge] = 1.0  # tiny spread => phi >= threshold
        improper = improper_links(
            diamond_ext, 0, routing, traffic, dadr, delta, eta=0.04
        )
        assert improper[edge]

    def test_large_spread_escapes_blocking(self, diamond_ext):
        """If eta/t * (delta - dadr) exceeds phi, the link can be zeroed this
        iteration and is not improper."""
        routing = uniform_routing(diamond_ext)
        traffic = solve_traffic(diamond_ext, routing)
        view = diamond_ext.commodities[0]
        dadr = np.zeros(diamond_ext.num_nodes)
        delta = np.zeros(diamond_ext.num_edges)
        edge = diamond_ext.commodity_out_edges[0][view.source][0]
        tail, head = diamond_ext.edge_tail[edge], diamond_ext.edge_head[edge]
        dadr[tail] = 1.0
        dadr[head] = 2.0
        delta[edge] = 1e9  # enormous spread => threshold above phi
        improper = improper_links(
            diamond_ext, 0, routing, traffic, dadr, delta, eta=0.04
        )
        assert not improper[edge]


class TestTagPropagation:
    def test_tags_flood_upstream_of_improper_link(self, figure1_ext):
        routing = uniform_routing(figure1_ext)
        view = figure1_ext.commodities[0]
        j = view.index
        # mark an edge deep in the commodity DAG as improper
        interior_edges = [
            e
            for e in view.edge_indices
            if figure1_ext.edge_tail[e] != view.dummy
            and figure1_ext.edge_head[e] != view.sink
        ]
        target = interior_edges[len(interior_edges) // 2]
        improper = np.zeros(figure1_ext.num_edges, dtype=bool)
        improper[target] = True
        tags = node_tags(figure1_ext, j, routing, improper)
        tail = figure1_ext.edge_tail[target]
        assert tags[tail]
        # every node with a positive-phi path to `tail` must be tagged
        position = {n: i for i, n in enumerate(view.topo_order)}
        for node in view.node_indices:
            if node == view.sink:
                continue
            if position[node] < position[tail]:
                reachable = _reaches(figure1_ext, j, routing, node, tail)
                if reachable:
                    assert tags[node], figure1_ext.nodes[node].name

    def test_no_improper_no_tags(self, figure1_ext):
        routing = uniform_routing(figure1_ext)
        improper = np.zeros(figure1_ext.num_edges, dtype=bool)
        for view in figure1_ext.commodities:
            tags = node_tags(figure1_ext, view.index, routing, improper)
            assert not tags.any()


def _reaches(ext, j, routing, start, goal):
    """Positive-phi reachability inside one commodity subgraph."""
    stack, seen = [start], set()
    while stack:
        node = stack.pop()
        if node == goal:
            return True
        if node in seen:
            continue
        seen.add(node)
        for e in ext.commodity_out_edges[j][node]:
            if routing.phi[j, e] > 1e-12:
                stack.append(ext.edge_head[e])
    return False


class TestBlockedSets:
    def test_only_zero_phi_edges_blocked(self, figure1_ext):
        routing = uniform_routing(figure1_ext)
        traffic, contexts = marginal_context(figure1_ext, routing)
        for view in figure1_ext.commodities:
            dadr, delta = contexts[view.index]
            blocked = compute_blocked_sets_scalar(
                figure1_ext, view.index, routing, traffic, dadr, delta, eta=0.04
            )
            phi = routing.phi[view.index]
            assert not blocked[phi > 1e-12].any()

    def test_blocked_edges_point_to_tagged_heads(self, diamond_ext):
        routing = uniform_routing(diamond_ext)
        traffic = solve_traffic(diamond_ext, routing)
        view = diamond_ext.commodities[0]
        # make one edge zero-phi and force its head tagged via synthetic
        # marginals with an improper link out of that head
        src = view.source
        out = diamond_ext.commodity_out_edges[0][src]
        zero_edge, keep_edge = out[0], out[1]
        routing.phi[0, zero_edge] = 0.0
        routing.phi[0, keep_edge] = 1.0
        head = diamond_ext.edge_head[zero_edge]
        downstream = diamond_ext.commodity_out_edges[0][head][0]
        dadr = np.zeros(diamond_ext.num_nodes)
        delta = np.zeros(diamond_ext.num_edges)
        dadr[diamond_ext.edge_tail[downstream]] = 1.0
        dadr[diamond_ext.edge_head[downstream]] = 2.0
        delta[downstream] = 1.0
        # ensure the improper edge carries flow
        routing.phi[0, downstream] = 1.0
        blocked = compute_blocked_sets_scalar(
            diamond_ext, 0, routing, traffic, dadr, delta, eta=0.04
        )
        assert blocked[zero_edge]
        assert not blocked[keep_edge]

    def test_zero_phi_links_carry_no_tags(self, diamond_ext):
        """A tag floods upstream only across flow-carrying links, in the
        scalar walk and in the engine alike."""
        ext = diamond_ext
        view = ext.commodities[0]
        routing = uniform_routing(ext)
        phi = routing.phi[0]
        zero_edge, keep_edge = ext.commodity_out_edges[0][view.source]
        phi[zero_edge], phi[keep_edge] = 0.0, 1.0
        phi[view.input_edge], phi[view.difference_edge] = 0.0, 1.0
        # marginals that fall strictly toward the sink in source-equivalent
        # units (g * dA/dr = longest path to the sink), so no link is uphill
        # ... except the single out-link of zero_edge's head, made improper
        height = np.zeros(ext.num_nodes)
        for node in reversed(view.topo_order):
            out = ext.commodity_out_edges[0][node]
            if out:
                height[node] = 1.0 + max(height[ext.edge_head[e]] for e in out)
        dadr = height / ext.node_potentials[0]
        tagged = ext.edge_head[zero_edge]
        dadr[tagged] = 0.0
        delta = np.zeros(ext.num_edges)
        traffic = np.ones((1, ext.num_nodes))  # every tail can move flow

        improper = improper_links(ext, 0, routing, traffic, dadr, delta, eta=0.04)
        assert np.flatnonzero(improper).tolist() == ext.commodity_out_edges[0][tagged]
        tags = node_tags(ext, 0, routing, improper)
        assert tags[tagged] and not tags[view.source]
        for blocked in (
            compute_blocked_sets_scalar(ext, 0, routing, traffic, dadr, delta, 0.04),
            compute_all_blocked_sets(
                ext, routing, traffic, dadr[None, :], delta[None, :], 0.04
            )[0],
        ):
            assert blocked[zero_edge]
            # the source reaches the tag only over zero_edge, which carries
            # nothing: the source stays untagged and its input link free
            assert not blocked[view.input_edge]
