"""Tests for the cost model and marginal-cost recursions (eqs. (8)-(13)).

The decisive check is numerical: the analytic gradient ``dA/dphi`` (eq. (10),
built from eqs. (9) and (11)) must match central finite differences of the
total cost ``A(phi)`` -- this exercises the whole derivative chain including
gains, penalty derivatives, and the dummy-link utility-loss derivative.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import build_extended_network
from repro.core.gradient import GradientAlgorithm, GradientConfig
from repro.core.marginals import (
    CostModel,
    all_marginal_costs,
    edge_marginals,
    evaluate_cost,
    link_cost_derivative,
    optimality_residual,
    phi_gradient,
)
from repro.core.penalty import InverseBarrier
from repro.core.routing import (
    initial_routing,
    resource_usage,
    solve_traffic,
    uniform_routing,
    validate_routing,
)
from repro.core.utility import LogUtility
from repro.scenarios import diamond_network, figure1_network


def interior_routing(ext, seed=0):
    """A strictly interior random routing (all allowed fractions positive)."""
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
            weights = rng.random(len(out)) + 0.2
            routing.phi[j, out] = weights / weights.sum()
    validate_routing(ext, routing)
    return routing


class TestEvaluateCost:
    def test_shed_everything_cost_is_full_utility_loss(self, diamond_ext, cost_model):
        routing = initial_routing(diamond_ext)
        breakdown = evaluate_cost(diamond_ext, routing, cost_model)
        view = diamond_ext.commodities[0]
        expected_loss = float(
            view.utility.value(view.max_rate) - view.utility.value(0.0)
        )
        assert breakdown.utility_loss == pytest.approx(expected_loss)
        assert breakdown.utility == pytest.approx(0.0)
        assert breakdown.penalty == pytest.approx(0.0)  # nothing uses resources
        assert breakdown.total == pytest.approx(expected_loss)

    def test_utility_plus_loss_is_constant(self, figure1_ext, cost_model):
        """Y + U == sum_j U_j(lambda_j) for any routing (eq. (1) rearranged)."""
        offered = sum(
            float(v.utility.value(v.max_rate)) for v in figure1_ext.commodities
        )
        for seed in range(3):
            routing = interior_routing(figure1_ext, seed)
            breakdown = evaluate_cost(figure1_ext, routing, cost_model)
            assert breakdown.utility + breakdown.utility_loss == pytest.approx(
                offered, rel=1e-9
            )

    def test_admitted_and_shed_sum_to_offered(self, figure1_ext, cost_model):
        routing = interior_routing(figure1_ext, 1)
        breakdown = evaluate_cost(figure1_ext, routing, cost_model)
        np.testing.assert_allclose(
            breakdown.admitted + breakdown.shed,
            figure1_ext.commodity_max_rates,
            rtol=1e-9,
        )


class TestLinkCostDerivative:
    def test_difference_edge_uses_marginal_utility(self, diamond_ext, cost_model):
        routing = interior_routing(diamond_ext)
        traffic = solve_traffic(diamond_ext, routing)
        edge_usage, node_usage = resource_usage(diamond_ext, routing, traffic)
        dadf = link_cost_derivative(diamond_ext, cost_model, edge_usage, node_usage)
        view = diamond_ext.commodities[0]
        shed = edge_usage[view.difference_edge]
        expected = float(view.utility.derivative(view.max_rate - shed))
        assert dadf[view.difference_edge] == pytest.approx(expected)

    def test_regular_edges_use_penalty_derivative(self, diamond_ext, cost_model):
        routing = interior_routing(diamond_ext)
        traffic = solve_traffic(diamond_ext, routing)
        edge_usage, node_usage = resource_usage(diamond_ext, routing, traffic)
        dadf = link_cost_derivative(diamond_ext, cost_model, edge_usage, node_usage)
        barrier = InverseBarrier()
        for edge in diamond_ext.edges:
            if diamond_ext.is_difference_edge[edge.index]:
                continue
            tail_cap = diamond_ext.capacity[edge.tail]
            expected = cost_model.eps * float(
                barrier.derivative(node_usage[edge.tail], tail_cap)
            )
            assert dadf[edge.index] == pytest.approx(expected)

    def test_dummy_input_edge_is_free(self, diamond_ext, cost_model):
        routing = interior_routing(diamond_ext)
        traffic = solve_traffic(diamond_ext, routing)
        edge_usage, node_usage = resource_usage(diamond_ext, routing, traffic)
        dadf = link_cost_derivative(diamond_ext, cost_model, edge_usage, node_usage)
        view = diamond_ext.commodities[0]
        assert dadf[view.input_edge] == 0.0


class TestMarginalCostRecursion:
    def test_sink_boundary_condition(self, figure1_ext, cost_model):
        routing = interior_routing(figure1_ext)
        traffic = solve_traffic(figure1_ext, routing)
        edge_usage, node_usage = resource_usage(figure1_ext, routing, traffic)
        dadf = link_cost_derivative(figure1_ext, cost_model, edge_usage, node_usage)
        dadr_all = all_marginal_costs(figure1_ext, routing, dadf)
        for view in figure1_ext.commodities:
            dadr = dadr_all[view.index]
            assert dadr[view.sink] == 0.0

    def test_dadr_is_phi_average_of_edge_marginals(self, figure1_ext, cost_model):
        routing = interior_routing(figure1_ext)
        traffic = solve_traffic(figure1_ext, routing)
        edge_usage, node_usage = resource_usage(figure1_ext, routing, traffic)
        dadf = link_cost_derivative(figure1_ext, cost_model, edge_usage, node_usage)
        dadr_all = all_marginal_costs(figure1_ext, routing, dadf)
        for view in figure1_ext.commodities:
            j = view.index
            dadr = dadr_all[j]
            delta = edge_marginals(figure1_ext, j, dadf, dadr)
            for node in view.node_indices:
                if node == view.sink:
                    continue
                out = figure1_ext.commodity_out_edges[j][node]
                expected = sum(routing.phi[j, e] * delta[e] for e in out)
                assert dadr[node] == pytest.approx(expected, rel=1e-9)

    def test_all_marginal_costs_shape(self, figure1_ext, cost_model):
        routing = interior_routing(figure1_ext)
        traffic = solve_traffic(figure1_ext, routing)
        edge_usage, node_usage = resource_usage(figure1_ext, routing, traffic)
        dadf = link_cost_derivative(figure1_ext, cost_model, edge_usage, node_usage)
        dadr = all_marginal_costs(figure1_ext, routing, dadf)
        assert dadr.shape == (figure1_ext.num_commodities, figure1_ext.num_nodes)


class TestGradientAgainstFiniteDifferences:
    """Eq. (10) must match numerical differentiation of A(phi)."""

    @pytest.mark.parametrize("factory,seed", [
        (diamond_network, 0),
        (diamond_network, 3),
        (figure1_network, 1),
    ])
    def test_phi_gradient_matches_fd(self, factory, seed):
        ext = build_extended_network(factory())
        cost_model = CostModel(eps=0.2)
        routing = interior_routing(ext, seed)
        analytic = phi_gradient(ext, routing, cost_model=cost_model)

        def cost_at(phi):
            from repro.core.routing import RoutingState

            return evaluate_cost(ext, RoutingState(phi), cost_model).total

        rng = np.random.default_rng(seed)
        checked = 0
        h = 1e-6
        for view in ext.commodities:
            j = view.index
            candidates = [e for e in view.edge_indices]
            rng.shuffle(candidates)
            for e in candidates[:6]:
                # perturb phi[j, e] holding other fractions fixed; the
                # analytic partial derivative treats coordinates as free
                plus = routing.phi.copy()
                plus[j, e] += h
                minus = routing.phi.copy()
                minus[j, e] -= h
                fd = (cost_at(plus) - cost_at(minus)) / (2 * h)
                scale = max(1.0, abs(fd))
                assert analytic[j, e] == pytest.approx(fd, abs=2e-4 * scale), (
                    f"commodity {j}, edge {e}"
                )
                checked += 1
        assert checked > 0


class TestOptimalityResidual:
    def test_small_at_converged_solution(self, diamond_ext):
        config = GradientConfig(eta=0.05, max_iterations=4000)
        result = GradientAlgorithm(diamond_ext, config).run()
        report = optimality_residual(
            diamond_ext, result.solution.routing, config.cost_model
        )
        assert report.sufficient_residual <= 1e-4
        assert report.equal_residual <= 0.01

    def test_large_at_bad_routing(self):
        # Route everything through one saturated path while the other is idle:
        # the marginal-cost spread must be visible in the residual.
        net = diamond_network(top_capacity=2.0, bottom_capacity=100.0,
                              max_rate=20.0)
        ext = build_extended_network(net)
        routing = uniform_routing(ext)
        view = ext.commodities[0]
        routing.phi[0, view.input_edge] = 0.9
        routing.phi[0, view.difference_edge] = 0.1
        src = view.source
        for e in ext.commodity_out_edges[0][src]:
            head_name = ext.nodes[ext.edge_head[e]].name
            routing.phi[0, e] = 0.95 if "top" in head_name else 0.05
        report = optimality_residual(ext, routing)
        assert report.equal_residual > 0.1

    def test_satisfied_helper(self, diamond_ext):
        config = GradientConfig(eta=0.05, max_iterations=4000)
        result = GradientAlgorithm(diamond_ext, config).run()
        report = optimality_residual(
            diamond_ext, result.solution.routing, config.cost_model
        )
        assert report.satisfied(tol=0.05)


class TestNonlinearUtilities:
    def test_log_utility_cost_chain(self):
        net = diamond_network(utility=LogUtility(weight=5.0), max_rate=10.0,
                              top_capacity=100.0, bottom_capacity=100.0)
        ext = build_extended_network(net)
        cost_model = CostModel(eps=0.1)
        routing = interior_routing(ext, 2)
        analytic = phi_gradient(ext, routing, cost_model=cost_model)
        view = ext.commodities[0]
        # derivative along the difference edge must reflect U'(lam - shed)
        traffic = solve_traffic(ext, routing)
        edge_usage, node_usage = resource_usage(ext, routing, traffic)
        dadf = link_cost_derivative(ext, cost_model, edge_usage, node_usage)
        shed = edge_usage[view.difference_edge]
        assert dadf[view.difference_edge] == pytest.approx(
            5.0 / (1.0 + (view.max_rate - shed))
        )
        assert np.all(np.isfinite(analytic))
