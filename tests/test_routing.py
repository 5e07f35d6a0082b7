"""Tests for routing state, flow balance with gains, and resource usage."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_extended_network
from repro.core.routing import (
    RoutingState,
    admitted_rates,
    commodity_edge_flows,
    external_inputs,
    feasibility_report,
    initial_routing,
    physical_link_flows,
    require_feasible,
    resource_usage,
    solve_traffic,
    solve_traffic_linear,
    uniform_routing,
    validate_routing,
)
from repro.core.routing import solve_traffic_scalar, utilization_profile
from repro.exceptions import InfeasibleError, RoutingError
from repro.scenarios import diamond_network, random_stream_network
from repro.scenarios import RandomNetworkSpec, scenario, scenario_names


class TestInitialRouting:
    def test_valid_and_sheds_everything(self, diamond_ext):
        routing = initial_routing(diamond_ext)
        validate_routing(diamond_ext, routing)
        for view in diamond_ext.commodities:
            assert routing.phi[view.index, view.difference_edge] == 1.0
            assert routing.phi[view.index, view.input_edge] == 0.0
            assert routing.admitted_fraction(diamond_ext, view.index) == 0.0

    def test_strictly_feasible(self, diamond_ext):
        routing = initial_routing(diamond_ext)
        report = feasibility_report(diamond_ext, routing)
        assert report.feasible
        assert report.max_utilization == pytest.approx(0.0)

    def test_admitted_rates_zero(self, diamond_ext):
        routing = initial_routing(diamond_ext)
        np.testing.assert_allclose(admitted_rates(diamond_ext, routing), 0.0)


def _node_loop_routing(ext, shed_everything):
    """The start routing as a walk over every commodity's nodes."""
    phi = np.zeros((ext.num_commodities, ext.num_edges), dtype=float)
    for view in ext.commodities:
        j = view.index
        for node in view.node_indices:
            if node == view.sink:
                continue
            out = ext.commodity_out_edges[j][node]
            if not out:
                continue
            if shed_everything and node == view.dummy:
                phi[j, view.difference_edge] = 1.0
            else:
                phi[j, out] = 1.0 / len(out)
    return phi


class TestStartRoutingsMatchTheNodeLoop:
    """The one-pass start routings equal the per-node walk bit for bit."""

    @pytest.mark.parametrize("name", scenario_names())
    def test_catalog_scenario(self, name):
        spec = scenario(name)
        ext = build_extended_network(spec.topology.build(spec.seed))
        for build, shed in ((initial_routing, True), (uniform_routing, False)):
            assert np.array_equal(build(ext).phi, _node_loop_routing(ext, shed))


class TestUniformRouting:
    def test_valid(self, figure1_ext):
        validate_routing(figure1_ext, uniform_routing(figure1_ext))

    def test_dummy_splits_between_input_and_difference(self, diamond_ext):
        routing = uniform_routing(diamond_ext)
        view = diamond_ext.commodities[0]
        assert routing.phi[0, view.input_edge] == pytest.approx(0.5)
        assert routing.phi[0, view.difference_edge] == pytest.approx(0.5)


class TestValidateRouting:
    def test_rejects_bad_shape(self, diamond_ext):
        with pytest.raises(RoutingError, match="shape"):
            validate_routing(diamond_ext, RoutingState(np.zeros((1, 3))))

    def test_rejects_negative(self, diamond_ext):
        routing = initial_routing(diamond_ext)
        routing.phi[0, 0] = -0.1
        with pytest.raises(RoutingError, match="negative"):
            validate_routing(diamond_ext, routing)

    def test_rejects_off_graph(self, figure1_ext):
        routing = initial_routing(figure1_ext)
        forbidden = int(np.nonzero(~figure1_ext.allowed[0])[0][0])
        routing.phi[0, forbidden] = 0.5
        with pytest.raises(RoutingError):
            validate_routing(figure1_ext, routing)

    def test_rejects_non_stochastic(self, diamond_ext):
        routing = initial_routing(diamond_ext)
        view = diamond_ext.commodities[0]
        routing.phi[0, view.difference_edge] = 0.7
        with pytest.raises(RoutingError, match="sum"):
            validate_routing(diamond_ext, routing)


class TestTrafficSolver:
    def test_external_inputs(self, diamond_ext):
        r = external_inputs(diamond_ext)
        view = diamond_ext.commodities[0]
        assert r[0, view.dummy] == pytest.approx(view.max_rate)
        assert r.sum() == pytest.approx(view.max_rate)

    def test_shed_everything_traffic(self, diamond_ext):
        routing = initial_routing(diamond_ext)
        t = solve_traffic(diamond_ext, routing)
        view = diamond_ext.commodities[0]
        assert t[0, view.dummy] == pytest.approx(view.max_rate)
        assert t[0, view.source] == pytest.approx(0.0)
        # everything arrives at the sink via the difference link
        assert t[0, view.sink] == pytest.approx(view.max_rate)

    def test_gain_scaling_along_chain(self):
        """One unit at the source becomes gain-product units downstream."""
        net = diamond_network(gain_top=2.0, gain_bottom=2.0, max_rate=8.0,
                              top_capacity=100.0, bottom_capacity=100.0)
        ext = build_extended_network(net)
        routing = uniform_routing(ext)
        view = ext.commodities[0]
        # force full admission, all through 'top'
        routing.phi[0, view.input_edge] = 1.0
        routing.phi[0, view.difference_edge] = 0.0
        src = view.source
        for e in ext.commodity_out_edges[0][src]:
            head_name = ext.nodes[ext.edge_head[e]].name
            routing.phi[0, e] = 1.0 if "top" in head_name else 0.0
        t = solve_traffic(ext, routing)
        top = ext.node_index("top")
        assert t[0, top] == pytest.approx(8.0 * 2.0)
        assert t[0, view.sink] == pytest.approx(16.0)  # top->sink gain 1

    def test_matches_linear_solver_on_fixtures(
        self, diamond_ext, figure1_ext, small_random_ext
    ):
        for ext in (diamond_ext, figure1_ext, small_random_ext):
            routing = uniform_routing(ext)
            np.testing.assert_allclose(
                solve_traffic(ext, routing),
                solve_traffic_linear(ext, routing),
                atol=1e-9,
            )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_linear_solver_on_random_phi(self, seed):
        # hypothesis cannot take fixtures; rebuild the small net each time
        ext = build_extended_network(diamond_network())
        rng = np.random.default_rng(seed)
        routing = uniform_routing(ext)
        for view in ext.commodities:
            j = view.index
            for node in view.node_indices:
                if node == view.sink:
                    continue
                out = ext.commodity_out_edges[j][node]
                if not out:
                    continue
                weights = rng.random(len(out)) + 1e-9
                routing.phi[j, out] = weights / weights.sum()
        validate_routing(ext, routing)
        np.testing.assert_allclose(
            solve_traffic(ext, routing),
            solve_traffic_linear(ext, routing),
            atol=1e-9,
        )


def _randomize_phi(ext, rng):
    """A valid routing with random fractions on every decision node."""
    routing = uniform_routing(ext)
    for view in ext.commodities:
        j = view.index
        for node in view.node_indices:
            if node == view.sink:
                continue
            out = ext.commodity_out_edges[j][node]
            if not out:
                continue
            weights = rng.random(len(out)) + 1e-9
            routing.phi[j, out] = weights / weights.sum()
    validate_routing(ext, routing)
    return routing


class TestVectorizedTrafficSolver:
    """The per-level scatter solve must reproduce the scalar recursion
    bit-for-bit (the sync/distributed equivalence rests on this)."""

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_bitwise_matches_scalar_on_random_phi(self, seed):
        ext = build_extended_network(diamond_network())
        routing = _randomize_phi(ext, np.random.default_rng(seed))
        fast = solve_traffic(ext, routing)
        slow = solve_traffic_scalar(ext, routing)
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("net_seed", [1, 5, 9, 23])
    def test_bitwise_matches_scalar_on_random_dags(self, net_seed):
        spec = RandomNetworkSpec(
            num_nodes=18,
            num_commodities=2,
            depth_range=(3, 5),
            layer_width_range=(2, 4),
        )
        ext = build_extended_network(random_stream_network(spec, seed=net_seed))
        rng = np.random.default_rng(net_seed + 100)
        for _ in range(5):
            routing = _randomize_phi(ext, rng)
            fast = solve_traffic(ext, routing)
            assert np.array_equal(fast, solve_traffic_scalar(ext, routing))
            np.testing.assert_allclose(
                fast, solve_traffic_linear(ext, routing), atol=1e-9
            )


class TestUtilizationProfile:
    def test_infinite_capacity_counts_as_idle(self):
        util = utilization_profile(
            np.array([5.0, 2.0]), np.array([np.inf, 4.0])
        )
        np.testing.assert_allclose(util, [0.0, 0.5])

    def test_zero_capacity_no_warning(self):
        """Regression: zero-capacity nodes used to trip a divide-by-zero."""
        import warnings

        usage = np.array([0.0, 3.0, 1.0])
        capacity = np.array([0.0, 0.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            util = utilization_profile(usage, capacity)
        assert util[0] == 0.0  # idle node: no load, no violation
        assert util[1] == np.inf  # loaded node with no capacity
        assert util[2] == pytest.approx(0.5)


class TestResourceUsage:
    def test_hand_computed_diamond(self):
        net = diamond_network(max_rate=10.0, top_capacity=100.0,
                              bottom_capacity=100.0, cost=2.0)
        ext = build_extended_network(net)
        routing = uniform_routing(ext)
        view = ext.commodities[0]
        routing.phi[0, view.input_edge] = 1.0
        routing.phi[0, view.difference_edge] = 0.0
        __, node_usage = resource_usage(ext, routing)
        src = view.source
        # src processes 10 units at cost 2 => 20 resource units
        assert node_usage[src] == pytest.approx(20.0)
        # each middle server gets 5 units (uniform split), cost 2 => 10 each
        top = ext.node_index("top")
        assert node_usage[top] == pytest.approx(10.0)

    def test_edge_usage_sums_to_node_usage(self, figure1_ext):
        routing = uniform_routing(figure1_ext)
        edge_usage, node_usage = resource_usage(figure1_ext, routing)
        recomputed = np.zeros_like(node_usage)
        np.add.at(recomputed, figure1_ext.edge_tail, edge_usage)
        np.testing.assert_allclose(node_usage, recomputed)

    def test_commodity_edge_flows_shape(self, figure1_ext):
        flows = commodity_edge_flows(figure1_ext, uniform_routing(figure1_ext))
        assert flows.shape == (figure1_ext.num_commodities, figure1_ext.num_edges)
        assert np.all(flows >= 0)


class TestFeasibility:
    def test_overload_detected(self):
        net = diamond_network(top_capacity=1.0, bottom_capacity=1.0,
                              source_capacity=5.0, max_rate=30.0)
        ext = build_extended_network(net)
        routing = uniform_routing(ext)
        view = ext.commodities[0]
        routing.phi[0, view.input_edge] = 1.0
        routing.phi[0, view.difference_edge] = 0.0
        report = feasibility_report(ext, routing)
        assert not report.feasible
        assert report.max_utilization > 1.0
        with pytest.raises(InfeasibleError):
            require_feasible(ext, routing)

    def test_utilization_zero_for_infinite_capacity(self, diamond_ext):
        report = feasibility_report(diamond_ext, initial_routing(diamond_ext))
        for view in diamond_ext.commodities:
            assert report.utilization[view.dummy] == 0.0


class TestPhysicalLinkFlows:
    def test_wire_rates_match_bandwidth_usage(self):
        net = diamond_network(max_rate=10.0, top_capacity=100.0, bottom_capacity=100.0)
        ext = build_extended_network(net)
        routing = uniform_routing(ext)
        view = ext.commodities[0]
        routing.phi[0, view.input_edge] = 1.0
        routing.phi[0, view.difference_edge] = 0.0
        flows = physical_link_flows(ext, routing)
        assert flows[("src", "top")] == pytest.approx(5.0)
        assert flows[("top", "sink")] == pytest.approx(5.0)
        assert flows[("src", "bottom")] == pytest.approx(5.0)

    def test_empty_when_everything_shed(self, diamond_ext):
        flows = physical_link_flows(diamond_ext, initial_routing(diamond_ext))
        assert all(v == pytest.approx(0.0) for v in flows.values())
