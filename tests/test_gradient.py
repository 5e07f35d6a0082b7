"""Tests for the distributed gradient algorithm (synchronous engine)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import build_extended_network
from repro.core.gradient import (
    GradientAlgorithm,
    GradientConfig,
    IterationRecord,
    apply_gamma_at_node,
    apply_gamma_batch,
)
from repro.core.optimal import arc_flows_to_routing, solve_lp
from repro.core.state import ModelState
from repro.core.routing import (
    initial_routing,
    feasibility_report,
    validate_routing,
)
from repro.core.utility import LogUtility
from repro.scenarios import (
    diamond_network,
    random_stream_network,
)
from repro.scenarios import RandomNetworkSpec


class TestConfig:
    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ValueError):
            GradientConfig(eta=0.0)

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            GradientConfig(max_iterations=0)

    def test_defaults_match_paper(self):
        config = GradientConfig()
        assert config.eta == pytest.approx(0.04)
        assert config.cost_model.eps == pytest.approx(0.2)


class TestGammaKernel:
    def test_preserves_simplex(self, rng):
        phi = np.zeros(6)
        out = [0, 1, 2]
        phi[out] = [0.5, 0.3, 0.2]
        delta = np.array([3.0, 1.0, 2.0, 0, 0, 0])
        apply_gamma_at_node(phi, 10.0, out, delta, None, eta=0.1, traffic_tol=1e-12)
        assert phi[out].sum() == pytest.approx(1.0)
        assert np.all(phi >= 0)

    def test_moves_mass_to_cheapest_edge(self):
        phi = np.zeros(3)
        out = [0, 1, 2]
        phi[out] = [1 / 3, 1 / 3, 1 / 3]
        delta = np.array([5.0, 1.0, 3.0])
        apply_gamma_at_node(phi, 1.0, out, delta, None, eta=0.01, traffic_tol=1e-12)
        assert phi[1] > 1 / 3
        assert phi[0] < 1 / 3
        assert phi[2] < 1 / 3
        # more expensive edges shrink more (eq. (16): Delta proportional to a)
        assert (1 / 3 - phi[0]) > (1 / 3 - phi[2])

    def test_reduction_capped_at_current_fraction(self):
        phi = np.zeros(2)
        out = [0, 1]
        phi[out] = [0.1, 0.9]
        delta = np.array([100.0, 1.0])
        apply_gamma_at_node(phi, 0.01, out, delta, None, eta=10.0, traffic_tol=1e-12)
        assert phi[0] == pytest.approx(0.0)
        assert phi[1] == pytest.approx(1.0)

    def test_idle_node_jumps_to_best(self):
        phi = np.zeros(3)
        out = [0, 1, 2]
        phi[out] = [0.6, 0.2, 0.2]
        delta = np.array([5.0, 1.0, 3.0])
        apply_gamma_at_node(phi, 0.0, out, delta, None, eta=0.04, traffic_tol=1e-12)
        np.testing.assert_allclose(phi[out], [0.0, 1.0, 0.0])

    def test_blocked_edges_stay_zero(self):
        phi = np.zeros(3)
        out = [0, 1, 2]
        phi[out] = [0.5, 0.5, 0.0]
        delta = np.array([5.0, 4.0, 0.1])  # blocked edge is 'cheapest'
        blocked = np.array([False, False, True])
        apply_gamma_at_node(phi, 1.0, out, delta, blocked, eta=0.1, traffic_tol=1e-12)
        assert phi[2] == 0.0
        assert phi[1] > 0.5  # mass went to the best *eligible* edge

    def test_small_eta_small_steps(self):
        phi_small = np.zeros(2)
        phi_big = np.zeros(2)
        out = [0, 1]
        for p in (phi_small, phi_big):
            p[out] = [0.5, 0.5]
        delta = np.array([2.0, 1.0])
        apply_gamma_at_node(phi_small, 1.0, out, delta, None, 0.01, 1e-12)
        apply_gamma_at_node(phi_big, 1.0, out, delta, None, 0.2, 1e-12)
        assert (0.5 - phi_small[0]) < (0.5 - phi_big[0])

    def test_renormalization_excludes_blocked_edges(self):
        """Regression: the drift renormalization used to rescale *all*
        out-edges, including blocked ones.  Eq. (14) freezes blocked edges at
        their current value, so a blocked edge carrying residual mass (e.g.
        a fraction just under the zero tolerance) must come out untouched
        and only the eligible fractions may absorb the correction."""
        residual = 4e-3
        phi = np.zeros(3)
        out = [0, 1, 2]
        # deliberately off the simplex so the renormalization fires
        phi[out] = [0.5, 0.49, residual]
        blocked = np.array([False, False, True])
        delta = np.array([5.0, 1.0, 0.5])
        apply_gamma_at_node(phi, 1.0, out, delta, blocked, eta=0.1, traffic_tol=1e-12)
        assert phi[2] == residual  # frozen bit-exactly
        # eligible mass renormalized to exactly the remaining budget
        assert phi[0] + phi[1] == pytest.approx(1.0 - residual, abs=1e-12)
        assert phi[out].sum() == pytest.approx(1.0, abs=1e-12)


class TestConvergence:
    def test_diamond_reaches_penalized_optimum(self, diamond_ext):
        result = GradientAlgorithm(
            diamond_ext, GradientConfig(eta=0.05, max_iterations=4000)
        ).run()
        lp = solve_lp(diamond_ext)
        assert result.converged
        # the barrier keeps headroom: expect >= 93% of the true optimum
        assert result.solution.utility >= 0.93 * lp.utility
        assert result.solution.utility <= lp.utility + 1e-6

    def test_unconstrained_instance_hits_exact_optimum(self, figure1_ext):
        result = GradientAlgorithm(
            figure1_ext, GradientConfig(eta=0.05, max_iterations=4000)
        ).run()
        lp = solve_lp(figure1_ext)
        # figure-1 capacities don't bind; full admission is optimal
        assert result.solution.utility == pytest.approx(lp.utility, rel=1e-6)
        np.testing.assert_allclose(
            result.solution.admitted, figure1_ext.commodity_max_rates, rtol=1e-6
        )

    def test_cost_decreases_monotonically_for_small_eta(self, diamond_ext):
        config = GradientConfig(eta=0.01, max_iterations=600)
        result = GradientAlgorithm(diamond_ext, config).run()
        costs = result.costs
        assert np.all(np.diff(costs) <= 1e-9 * np.maximum(1.0, np.abs(costs[:-1])))

    def test_final_routing_is_valid_and_feasible(self, figure1_ext):
        result = GradientAlgorithm(
            figure1_ext, GradientConfig(eta=0.05, max_iterations=3000)
        ).run()
        validate_routing(figure1_ext, result.solution.routing)
        report = feasibility_report(figure1_ext, result.solution.routing)
        assert report.feasible

    def test_admission_never_exceeds_offered(self, figure1_ext):
        result = GradientAlgorithm(
            figure1_ext, GradientConfig(eta=0.05, max_iterations=500)
        ).run()
        for record in result.history:
            lam = figure1_ext.commodity_max_rates
            assert np.all(record.admitted <= lam * (1 + 1e-9))
            assert np.all(record.admitted >= -1e-9)

    def test_utility_trajectory_reaches_plateau_monotonically(self, diamond_ext):
        result = GradientAlgorithm(
            diamond_ext, GradientConfig(eta=0.02, max_iterations=3000)
        ).run()
        utilities = result.utilities
        # paper: "the total throughput improves monotonically"
        slack = 1e-6 * max(1.0, float(np.max(utilities)))
        assert np.all(np.diff(utilities) >= -slack)

    def test_concave_utility_instance(self):
        net = diamond_network(utility=LogUtility(weight=10.0))
        ext = build_extended_network(net)
        result = GradientAlgorithm(
            ext, GradientConfig(eta=0.05, max_iterations=4000)
        ).run()
        assert result.solution.utility > 0
        assert result.solution.admitted[0] > 0

    def test_warm_start_from_lp_stays_near_optimal(self, diamond_ext):
        lp = solve_lp(diamond_ext, capacity_scale=0.9)
        routing = arc_flows_to_routing(diamond_ext, lp.extras["arc_flows"])
        validate_routing(diamond_ext, routing)
        config = GradientConfig(eta=0.02, max_iterations=800)
        result = GradientAlgorithm(diamond_ext, config).run(routing=routing)
        assert result.solution.utility >= 0.95 * lp.utility

    def test_without_blocking_still_converges_on_dags(self, diamond_ext):
        """Commodity subgraphs are DAGs, so blocking is a safety net, not a
        correctness requirement here."""
        result = GradientAlgorithm(
            diamond_ext,
            GradientConfig(eta=0.05, max_iterations=4000, use_blocking=False),
        ).run()
        lp = solve_lp(diamond_ext)
        assert result.solution.utility >= 0.93 * lp.utility


class TestRunMechanics:
    def test_history_records_and_callback(self, diamond_ext):
        seen = []
        config = GradientConfig(eta=0.05, max_iterations=50, record_every=10)
        GradientAlgorithm(diamond_ext, config).run(
            callback=lambda it, rec: seen.append(it)
        )
        assert seen[0] == 0
        assert all(it % 10 == 0 or it == 50 for it in seen)

    def test_step_returns_new_object(self, diamond_ext):
        algo = GradientAlgorithm(diamond_ext, GradientConfig(eta=0.05))
        routing = initial_routing(diamond_ext)
        stepped = algo.step(routing)
        assert stepped is not routing
        assert not np.array_equal(stepped.phi, routing.phi)

    def test_first_step_admits_traffic(self, diamond_ext):
        """From the shed-all start, the first Gamma application must start
        admitting (marginal utility 1 beats idle-network congestion ~0)."""
        algo = GradientAlgorithm(diamond_ext, GradientConfig(eta=0.05))
        stepped = algo.step(initial_routing(diamond_ext))
        view = diamond_ext.commodities[0]
        assert stepped.phi[0, view.input_edge] > 0

    def test_run_respects_max_iterations(self, diamond_ext):
        config = GradientConfig(eta=1e-6, max_iterations=7, tolerance=0.0, patience=10**9)
        result = GradientAlgorithm(diamond_ext, config).run()
        assert result.iterations == 7
        assert not result.converged

    def test_invalid_start_rejected(self, diamond_ext):
        from repro.core.routing import RoutingState
        from repro.exceptions import RoutingError

        bad = RoutingState(np.zeros_like(initial_routing(diamond_ext).phi))
        with pytest.raises(RoutingError):
            GradientAlgorithm(diamond_ext).run(routing=bad)

    def test_optimality_helper(self, diamond_ext):
        algo = GradientAlgorithm(diamond_ext, GradientConfig(eta=0.05, max_iterations=3000))
        result = algo.run()
        report = algo.optimality(result.solution.routing)
        assert report.sufficient_residual < 1e-3

    def test_optimality_accepts_cached_context(self, diamond_ext):
        algo = GradientAlgorithm(diamond_ext, GradientConfig(eta=0.05))
        routing = initial_routing(diamond_ext)
        context = algo.compute_context(routing)
        with_cache = algo.optimality(routing, context=context)
        without = algo.optimality(routing)
        assert with_cache.sufficient_residual == without.sufficient_residual
        assert with_cache.equal_residual == without.equal_residual


class TestVectorizedStep:
    """The batched step must be bit-identical to the scalar reference path
    (which is itself what the message-passing agents execute)."""

    @pytest.mark.parametrize("use_blocking", [True, False])
    def test_step_matches_reference_on_figure1(self, figure1_ext, use_blocking):
        algo = GradientAlgorithm(
            figure1_ext, GradientConfig(eta=0.05, use_blocking=use_blocking)
        )
        fast = initial_routing(figure1_ext)
        slow = initial_routing(figure1_ext)
        for _ in range(120):
            fast = algo.step(fast)
            slow = algo.step_reference(slow)
            assert np.array_equal(fast.phi, slow.phi)

    @pytest.mark.parametrize("net_seed", [2, 7, 11])
    def test_step_matches_reference_on_random_dags(self, net_seed):
        spec = RandomNetworkSpec(
            num_nodes=16,
            num_commodities=2,
            depth_range=(3, 4),
            layer_width_range=(2, 3),
        )
        ext = build_extended_network(random_stream_network(spec, seed=net_seed))
        algo = GradientAlgorithm(ext, GradientConfig(eta=0.04))
        fast = initial_routing(ext)
        slow = initial_routing(ext)
        for _ in range(80):
            fast = algo.step(fast)
            slow = algo.step_reference(slow)
            assert np.array_equal(fast.phi, slow.phi)

    def test_batch_kernel_matches_scalar_kernel(self, request):
        """Drive the two kernels directly on identical random inputs.

        Each row meets, one round each, every case the row logic has to get
        right: random deltas, an exact tie at the minimum (the first cell
        wins), all-equal deltas, every delta +inf, every edge blocked, an
        idle node, and fractions drifted off 1 (the renormalization).  The
        wide instance adds rows of 10 cells, past the 8 terms where numpy's
        own reductions stop adding left to right.
        """
        for fixture in ("figure4_ext", "small_random_ext", "wide_random_ext"):
            ext = request.getfixturevalue(fixture)
            for shift in range(7):
                self._check_batch_matches_scalar(ext, shift, f"{fixture}, round {shift}")

    @staticmethod
    def _check_batch_matches_scalar(ext, shift, name):
        rng = np.random.default_rng(42 + shift)
        state = ModelState.of(ext)
        J, E, V = ext.num_commodities, ext.num_edges, ext.num_nodes
        for j in range(J):
            # commodity j's rows carry flat ids (j*V + v, j*E + e): the
            # kernel runs on (J, E) / (J, V) tables filled in row j only
            plan = state.block(j, j + 1).gamma_plan
            if plan is None:
                continue
            nodes = plan.nodes - j * V
            phi = np.zeros((J, E))
            for node in nodes:
                out = ext.commodity_out_edges[j][node]
                w = rng.random(len(out)) + 1e-9
                phi[j, out] = w / w.sum()
            traffic = np.zeros((J, V))
            delta = np.zeros((J, E))
            blocked = np.zeros((J, E), dtype=bool)
            traffic[j] = rng.random(V) * 10.0
            delta[j] = rng.random(E) * 5.0
            blocked[j] = rng.random(E) < 0.15
            for k, node in enumerate(nodes):
                out = ext.commodity_out_edges[j][node]
                case = (k + shift) % 7
                if case == 1:
                    delta[j, out[-1]] = delta[j, out[0]] = delta[j, out].min()
                elif case == 2:
                    delta[j, out] = 1.5
                elif case == 3:
                    delta[j, out] = np.inf
                elif case == 4:
                    blocked[j, out] = True
                elif case == 5:
                    traffic[j, node] = 0.0
                elif case == 6:
                    phi[j, out] *= 1.0 + 1e-9
            # the kernel has a separate path for "nothing blocked"
            for mask in (blocked, None):
                phi_batch, phi_scalar = phi.copy(), phi.copy()
                # both kernels form inf - inf on the all-+inf rows
                with np.errstate(invalid="ignore"):
                    apply_gamma_batch(
                        phi_batch.reshape(-1),
                        plan,
                        traffic.reshape(-1),
                        delta.reshape(-1),
                        None if mask is None else mask.reshape(-1),
                        0.08,
                        1e-12,
                    )
                    for node in nodes:
                        apply_gamma_at_node(
                            phi_scalar[j],
                            traffic[j, node],
                            ext.commodity_out_edges[j][node],
                            delta[j],
                            None if mask is None else mask[j],
                            0.08,
                            1e-12,
                        )
                assert np.array_equal(phi_batch, phi_scalar), (
                    f"{name}, commodity {j}, blocked={mask is not None}"
                )


class TestIterationCache:
    def test_flow_balance_solved_once_per_iteration(self, diamond_ext, monkeypatch):
        """The whole point of the IterationContext: an N-iteration run solves
        eq. (3) exactly N + 1 times (once per routing state, including the
        start), no matter how many consumers read the result."""
        from repro.core.state import ModelState

        calls = {"n": 0}
        real = ModelState.forward_sweep

        def counting(state, phi):
            calls["n"] += 1
            return real(state, phi)

        # every flow solve -- the engine's and solve_traffic's -- is one
        # forward sweep
        monkeypatch.setattr(ModelState, "forward_sweep", counting)

        iterations = 9
        config = GradientConfig(
            eta=1e-6, max_iterations=iterations, tolerance=0.0, patience=10**9
        )
        result = GradientAlgorithm(diamond_ext, config).run()
        assert result.iterations == iterations
        assert calls["n"] == iterations + 1

    def test_record_handles_zero_capacity_node(self):
        """Regression: a zero-capacity node made the trajectory record
        divide by zero (``0/0 -> nan`` silently poisoned
        ``max_utilization``).  Capacities are validated positive at model
        build time but can be zeroed afterwards to model a drained host, so
        mutate a freshly built instance, not a shared fixture."""
        import warnings

        from repro.core.routing import uniform_routing

        ext = build_extended_network(diamond_network())
        algo = GradientAlgorithm(ext, GradientConfig(eta=0.01))
        idle_ctx = algo.compute_context(initial_routing(ext))
        busy_ctx = algo.compute_context(uniform_routing(ext))
        ext.capacity[ext.node_index("top")] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            idle_rec = IterationRecord.from_context(0, idle_ctx, ext.capacity)
            busy_rec = IterationRecord.from_context(0, busy_ctx, ext.capacity)
        # shed-everything routing leaves the drained node idle: no violation
        assert idle_rec.max_utilization == 0.0
        # uniform routing pushes flow through it: infinite, never nan
        assert busy_rec.max_utilization == np.inf
