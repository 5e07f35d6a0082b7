"""Tests for the centralized optimal solvers (LP, Frank-Wolfe, arc flows)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import minimize

from repro import build_extended_network
from repro.core.optimal import (
    arc_flows_to_routing,
    build_arc_flow_problem,
    solve_concave,
    solve_lp,
    solve_optimal,
)
from repro.core.routing import (
    admitted_rates,
    feasibility_report,
    solve_traffic,
    validate_routing,
)
from repro.core.utility import LinearUtility, LogUtility, SqrtUtility
from repro.exceptions import SolverError
from repro.scenarios import diamond_network


class TestArcFlowProblem:
    def test_variable_count(self, diamond_ext):
        problem = build_arc_flow_problem(diamond_ext)
        expected = sum(len(v.edge_indices) for v in diamond_ext.commodities)
        assert problem.num_vars == expected

    def test_conservation_rows_cover_non_sink_nodes(self, diamond_ext):
        problem = build_arc_flow_problem(diamond_ext)
        expected_rows = sum(
            len(v.node_indices) - 1 for v in diamond_ext.commodities
        )
        assert problem.a_eq.shape[0] == expected_rows

    def test_rhs_carries_offered_rates(self, diamond_ext):
        problem = build_arc_flow_problem(diamond_ext)
        lam = diamond_ext.commodity_max_rates
        assert problem.b_eq.sum() == pytest.approx(lam.sum())

    def test_capacity_scale_bounds(self, diamond_ext):
        full = build_arc_flow_problem(diamond_ext, capacity_scale=1.0)
        scaled = build_arc_flow_problem(diamond_ext, capacity_scale=0.5)
        np.testing.assert_allclose(scaled.b_ub, 0.5 * full.b_ub)

    def test_rejects_bad_scale(self, diamond_ext):
        with pytest.raises(SolverError):
            build_arc_flow_problem(diamond_ext, capacity_scale=0.0)


class TestLP:
    def test_diamond_hand_optimum(self):
        """min(max_rate, (top+bottom)/cost, src/cost) = min(30, 20, 100) = 20."""
        ext = build_extended_network(diamond_network())
        solution = solve_lp(ext)
        assert solution.utility == pytest.approx(20.0, rel=1e-9)
        assert solution.admitted[0] == pytest.approx(20.0, rel=1e-9)

    def test_diamond_rate_limited(self):
        ext = build_extended_network(diamond_network(max_rate=5.0))
        assert solve_lp(ext).utility == pytest.approx(5.0, rel=1e-9)

    def test_diamond_source_limited(self):
        ext = build_extended_network(diamond_network(source_capacity=8.0))
        # src pays cost 1 per unit across both out-edges: total a <= 8
        assert solve_lp(ext).utility == pytest.approx(8.0, rel=1e-9)

    def test_bandwidth_limited(self):
        """With expansion gain 2, wire rate doubles after processing, so the
        post-source bandwidth (not compute) binds."""
        net = diamond_network(
            gain_top=2.0,
            gain_bottom=2.0,
            bandwidth=10.0,
            top_capacity=1000.0,
            bottom_capacity=1000.0,
            source_capacity=1000.0,
            max_rate=50.0,
        )
        ext = build_extended_network(net)
        # each src->mid wire carries 2a/2 = a units => a <= 10 per path side;
        # two parallel paths => a <= 10 + 10 = 20... but src->mid bandwidth
        # binds at 10 per link with flow a/2*2 = a per link? Each link carries
        # gain * (a/2) = a. So a <= 10.
        assert solve_lp(ext).utility == pytest.approx(10.0, rel=1e-6)

    def test_weighted_linear_objective(self):
        net = diamond_network(utility=LinearUtility(weight=3.0))
        ext = build_extended_network(net)
        assert solve_lp(ext).utility == pytest.approx(60.0, rel=1e-9)

    def test_rejects_nonlinear(self):
        net = diamond_network(utility=LogUtility())
        ext = build_extended_network(net)
        with pytest.raises(SolverError, match="non-linear"):
            solve_lp(ext)

    def test_figure1_full_admission(self, figure1_ext):
        solution = solve_lp(figure1_ext)
        np.testing.assert_allclose(
            solution.admitted, figure1_ext.commodity_max_rates, rtol=1e-9
        )

    def test_node_usage_respects_capacity(self, figure4_ext):
        solution = solve_lp(figure4_ext)
        node_usage = solution.extras["node_usage"]
        finite = np.isfinite(figure4_ext.capacity)
        assert np.all(
            node_usage[finite] <= figure4_ext.capacity[finite] * (1 + 1e-7)
        )


class TestConcave:
    def concave_ext(self):
        return build_extended_network(
            diamond_network(utility=LogUtility(weight=10.0))
        )

    def test_frank_wolfe_matches_slsqp(self):
        ext = self.concave_ext()
        fw = solve_concave(ext)

        problem = build_arc_flow_problem(ext)
        cols = problem.admitted_columns

        def negative_utility(y):
            total = 0.0
            for view in ext.commodities:
                total += float(view.utility.value(max(y[cols[view.index]], 0.0)))
            return -total

        res = minimize(
            negative_utility,
            x0=np.zeros(problem.num_vars),
            method="SLSQP",
            constraints=[
                {"type": "eq", "fun": lambda y: problem.a_eq @ y - problem.b_eq},
                {"type": "ineq", "fun": lambda y: problem.b_ub - problem.a_ub @ y},
            ],
            bounds=[(0, None)] * problem.num_vars,
            options={"maxiter": 300, "ftol": 1e-10},
        )
        assert res.success
        assert fw.utility == pytest.approx(-res.fun, rel=1e-4)

    def test_log_utility_still_admits_maximum_when_unconstrained(self):
        net = diamond_network(
            utility=LogUtility(),
            top_capacity=1000.0,
            bottom_capacity=1000.0,
            source_capacity=1000.0,
            max_rate=10.0,
        )
        ext = build_extended_network(net)
        solution = solve_concave(ext)
        # increasing utility + no binding constraint => admit everything
        assert solution.admitted[0] == pytest.approx(10.0, rel=1e-3)

    def test_dispatcher(self):
        linear_ext = build_extended_network(diamond_network())
        assert solve_optimal(linear_ext).method == "lp"
        concave_ext = self.concave_ext()
        assert solve_optimal(concave_ext).method == "frank-wolfe"

    def test_sqrt_utility(self):
        net = diamond_network(utility=SqrtUtility(weight=4.0))
        ext = build_extended_network(net)
        solution = solve_concave(ext)
        assert solution.admitted[0] == pytest.approx(20.0, rel=1e-2)


class TestArcFlowsToRouting:
    def test_roundtrip_reproduces_admitted_rates(self, figure1_ext):
        lp = solve_lp(figure1_ext)
        routing = arc_flows_to_routing(figure1_ext, lp.extras["arc_flows"])
        validate_routing(figure1_ext, routing)
        traffic = solve_traffic(figure1_ext, routing)
        recovered = admitted_rates(figure1_ext, routing, traffic)
        np.testing.assert_allclose(recovered, lp.admitted, rtol=1e-6, atol=1e-9)

    def test_roundtrip_feasible(self, diamond_ext):
        lp = solve_lp(diamond_ext)
        routing = arc_flows_to_routing(diamond_ext, lp.extras["arc_flows"])
        report = feasibility_report(diamond_ext, routing)
        assert report.feasible

    def test_idle_nodes_get_default_fractions(self, diamond_ext):
        flows = np.zeros((diamond_ext.num_commodities, diamond_ext.num_edges))
        routing = arc_flows_to_routing(diamond_ext, flows)
        validate_routing(diamond_ext, routing)
        view = diamond_ext.commodities[0]
        assert routing.phi[0, view.difference_edge] == 1.0


class TestSolutionObject:
    def test_lp_solution_reports(self, diamond_ext):
        solution = solve_lp(diamond_ext)
        assert solution.method == "lp"
        assert "diamond" in solution.admitted_by_name
        assert np.isnan(solution.cost)
        text = solution.summary()
        assert "lp" in text
        assert "admitted" in text
