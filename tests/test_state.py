"""The commodity-major engine: kernels, blocks, bit-identity with the scalar walks."""

import numpy as np
import pytest

from repro import GradientConfig
from repro.core.blocking import (
    compute_all_blocked_sets,
    compute_blocked_sets_scalar,
    improper_links,
)
from repro.core.context import build_iteration_context
from repro.core.marginals import (
    CostModel,
    edge_marginals,
    link_cost_derivative,
    marginal_cost_to_destination_scalar,
)
from repro.core.routing import (
    external_inputs,
    external_inputs_rows,
    resource_usage_scalar,
    solve_traffic_scalar,
)
from repro.core.state import ModelState, use_array_core
from repro.validate import DifferentialOracle
from repro.validate.strategies import random_routing

ETA = 0.04


def converged_routing(ext, iterations=60):
    """A non-trivial routing state: a short gradient run's final iterate."""
    from repro.core.gradient import GradientAlgorithm

    algo = GradientAlgorithm(ext, GradientConfig(max_iterations=iterations))
    return algo.run().solution.routing


def scalar_marginals(ext, routing, dadf):
    """Stacked ``(J, V)`` dA/dr and ``(J, E)`` delta from the scalar walks."""
    dadr = np.stack(
        [
            marginal_cost_to_destination_scalar(ext, j, routing, dadf)
            for j in range(ext.num_commodities)
        ]
    )
    delta = np.stack(
        [edge_marginals(ext, j, dadf, dadr[j]) for j in range(ext.num_commodities)]
    )
    return dadr, delta


def blocking_state(ext, seed=0):
    """A routing with zero fractions, and marginals drawn at random.

    Every branch node drops one out-edge to zero, so flooded tags find edges
    to block.  ``dA/dr`` is random except at the sinks, where it keeps its
    boundary value 0: no link into a sink is uphill, so every improper
    cell lies past reverse level 0 and the flood must skip level 0.
    """
    rng = np.random.default_rng(seed)
    routing = random_routing(ext, seed)
    for view in ext.commodities:
        j = view.index
        for node in view.node_indices:
            out = ext.commodity_out_edges[j][node]
            if node != view.sink and len(out) >= 2:
                routing.phi[j, out[rng.integers(len(out))]] = 0.0
                routing.phi[j, out] /= routing.phi[j, out].sum()
    traffic = solve_traffic_scalar(ext, routing)
    dadr = rng.random((ext.num_commodities, ext.num_nodes))
    dadr[np.arange(ext.num_commodities), [v.sink for v in ext.commodities]] = 0.0
    delta = rng.random((ext.num_commodities, ext.num_edges))
    return routing, traffic, dadr, delta


class TestCoreSelection:
    def test_default_is_array(self):
        assert use_array_core()

    def test_state_cached_by_identity(self, figure4_ext):
        assert ModelState.of(figure4_ext) is ModelState.of(figure4_ext)


class TestKernelBitIdentity:
    """Engine kernels vs the paper-literal scalar walks, bit for bit."""

    @pytest.fixture(params=["figure4_ext", "small_random_ext", "wide_random_ext"])
    def ext(self, request):
        return request.getfixturevalue(request.param)

    def _references(self, ext):
        """Everything the scalar walks compute, for two routing states.

        A converged iterate leaves most fractions at zero -- at most 3
        nonzero terms in any sum, even on the wide instance -- so a random
        interior routing rides along to fill every term of every row.
        """
        out = []
        for routing in (converged_routing(ext), random_routing(ext, seed=0)):
            traffic = solve_traffic_scalar(ext, routing)
            edge_usage, node_usage = resource_usage_scalar(ext, routing, traffic)
            dadf = link_cost_derivative(ext, CostModel(), edge_usage, node_usage)
            dadr, delta = scalar_marginals(ext, routing, dadf)
            out.append((routing, traffic, edge_usage, node_usage, dadf, dadr, delta))
        return out

    def test_forward_wave(self, ext):
        state = ModelState.of(ext)
        for routing, traffic, edge_usage, node_usage, *_ in self._references(ext):
            phi = state.edge_cells(routing.phi, state.forward)
            t, tp = state.forward_sweep(phi)
            assert np.array_equal(t, state.node_slots(traffic, state.forward))
            assert np.array_equal(state.node_table(t, state.forward), traffic)
            eu, nu = state.usage_sweep(tp)
            assert np.array_equal(eu, edge_usage)
            assert np.array_equal(nu, node_usage)
            rows = np.arange(ext.num_commodities)
            assert np.array_equal(
                state.admitted(t, phi),
                traffic[rows, ext.commodity_dummies]
                * routing.phi[rows, ext.commodity_input_edges],
            )

    def test_usage(self, ext):
        for routing, traffic, edge_usage, node_usage, *_ in self._references(ext):
            eu, nu = ModelState.of(ext).resource_usage(
                routing.phi.reshape(-1), traffic.reshape(-1)
            )
            assert np.array_equal(eu, edge_usage)
            assert np.array_equal(nu, node_usage)

    def test_reverse_wave(self, ext):
        state = ModelState.of(ext)
        for routing, _t, _eu, _nu, dadf, dadr, delta in self._references(ext):
            phi = state.edge_cells(routing.phi, state.reverse)
            got, got_delta = state.reverse_sweep(phi, dadf)
            assert np.array_equal(got, state.node_slots(dadr, state.reverse))
            assert np.array_equal(state.node_table(got, state.reverse), dadr)
            assert np.array_equal(got_delta, state.edge_cells(delta, state.reverse))

    def _assert_blocked_sets_tile(self, ext, routing, traffic, dadr, delta):
        """Full-width and per-commodity blocked sets equal the scalar rows."""
        state = ModelState.of(ext)
        expected = np.stack(
            [
                compute_blocked_sets_scalar(
                    ext, j, routing, traffic, dadr[j], delta[j], ETA
                )
                for j in range(ext.num_commodities)
            ]
        )
        got = compute_all_blocked_sets(ext, routing, traffic, dadr, delta, ETA)
        assert np.array_equal(got, expected)
        blocked = np.zeros_like(expected)
        for j in range(ext.num_commodities):
            any_blocked = state.blocked_sets_block(
                blocked.reshape(-1),
                routing.phi.reshape(-1),
                traffic.reshape(-1),
                dadr.reshape(-1),
                delta.reshape(-1),
                ETA,
                j,
                j + 1,
            )
            assert any_blocked == bool(expected[j].any())
        assert np.array_equal(blocked, expected)
        return expected

    def test_block_kernels_tile_the_full_sweep(self, ext):
        state = ModelState.of(ext)
        J = ext.num_commodities
        for routing, traffic, edge_usage, _nu, dadf, dadr, delta in self._references(
            ext
        ):
            phi_flat = routing.phi.reshape(-1)
            # forward, one commodity at a time
            t = external_inputs(ext)
            for j in range(J):
                t[j : j + 1] = external_inputs_rows(ext, j, j + 1)
                state.solve_traffic_block(t.reshape(-1), phi_flat, j, j + 1)
            assert np.array_equal(t, traffic)
            # usage as the sharded backends compute it: one full-width call
            # on the master over the traffic rows the blocks wrote
            got_usage, _ = state.resource_usage(phi_flat, t.reshape(-1))
            assert np.array_equal(got_usage, edge_usage)
            # reverse and edge marginals, per-commodity rows
            got = np.zeros_like(dadr)
            got_delta = np.zeros_like(delta)
            for j in range(J):
                state.marginal_costs_block(got.reshape(-1), phi_flat, dadf, j, j + 1)
                state.edge_marginals_block(
                    got_delta.reshape(-1), dadf, got.reshape(-1), j, j + 1
                )
            assert np.array_equal(got, dadr)
            assert np.array_equal(got_delta[ext.allowed], delta[ext.allowed])
            # blocked sets, per commodity and full width
            self._assert_blocked_sets_tile(ext, routing, traffic, dadr, got_delta)

        # a state that blocks, with its first improper cell past level 0
        routing, traffic, dadr, delta = blocking_state(ext)
        improper = np.stack(
            [
                improper_links(ext, j, routing, traffic, dadr[j], delta[j], ETA)
                for j in range(J)
            ]
        ).reshape(-1)[state.cell_edges]
        assert improper.any()
        assert state.block(0, J).cell_level[improper].min() > 0
        expected = self._assert_blocked_sets_tile(ext, routing, traffic, dadr, delta)
        assert expected.any()

    def test_context_delta_matches_on_allowed_cells(self, ext):
        routing = converged_routing(ext)
        ctx = build_iteration_context(ext, routing, CostModel())
        traffic = solve_traffic_scalar(ext, routing)
        edge_usage, node_usage = resource_usage_scalar(ext, routing, traffic)
        dadf = link_cost_derivative(ext, CostModel(), edge_usage, node_usage)
        _dadr, delta = scalar_marginals(ext, routing, dadf)
        assert np.array_equal(ctx.traffic, traffic)
        assert np.array_equal(ctx.edge_usage, edge_usage)
        mask = ext.allowed
        assert np.array_equal(ctx.delta[mask], delta[mask])


def test_wide_fixture_has_pairwise_width_rows(wide_random_ext):
    """The wide fixture must keep rows of >= 8 terms in every sweep."""
    state = ModelState.of(wide_random_ext)
    for levels in (state.forward_levels, state.reverse_levels):
        assert max(np.bincount(lv.rows).max() for lv in levels) >= 8
    assert np.bincount(state.gamma_plan.cell_rows).max() >= 8


class TestCellResidentEngine:
    """The serial engine iterates on cell vectors and builds a dense table
    only when a caller reads it."""

    def _algo(self, ext):
        from repro.core.gradient import GradientAlgorithm

        return GradientAlgorithm(ext, GradientConfig(eta=ETA))

    def test_advance_builds_no_dense_table(self, small_random_ext, monkeypatch):
        from repro.core.routing import RoutingState, initial_routing

        ext = small_random_ext
        algo = self._algo(ext)
        start = RoutingState(initial_routing(ext).phi.copy())
        state = ModelState.of(ext)
        built = []
        for name in ("edge_table", "node_table"):
            real = getattr(ModelState, name)

            def spy(self, *args, _real=real, _name=name):
                built.append(_name)
                return _real(self, *args)

            monkeypatch.setattr(ModelState, name, spy)
        routing, context = algo.backend.advance(start, None, 12)
        assert built == []
        # the tables appear on first read, once
        assert routing.phi is routing.phi
        assert context.traffic is context.traffic
        assert context.delta is context.delta
        assert context.dadr is context.dadr
        assert built == ["edge_table", "node_table", "edge_table", "node_table"]
        assert state.num_cells < ext.num_commodities * ext.num_edges

    def test_an_edit_of_a_read_phi_is_what_the_next_step_sees(self, small_random_ext):
        from repro.core.routing import RoutingState, initial_routing

        ext = small_random_ext
        algo = self._algo(ext)
        routing = initial_routing(ext)
        context = algo.compute_context(routing)
        for _ in range(20):
            routing = algo.step(routing, context=context)
            context = algo.compute_context(routing)
        # admit half of what the dummies shed: a valid routing, moved
        phi = routing.phi
        rows = np.arange(ext.num_commodities)
        phi[rows, ext.commodity_input_edges] += (
            0.5 * phi[rows, ext.commodity_difference_edges]
        )
        phi[rows, ext.commodity_difference_edges] *= 0.5
        dense = RoutingState(phi.copy())
        # a stale context, built before the edit, and a fresh one
        assert np.array_equal(
            algo.step(routing, context=context).phi,
            algo.step(dense, context=context).phi,
        )
        assert np.array_equal(algo.step(routing).phi, algo.step(dense).phi)
        edited = algo.compute_context(routing)
        assert edited.breakdown.utility == algo.compute_context(dense).breakdown.utility
        assert edited.breakdown.utility != context.breakdown.utility

    def test_dense_views_equal_the_per_equation_functions(self, ext_any):
        from repro.core.context import derive_marginals
        from repro.core.marginals import all_marginal_costs, evaluate_cost
        from repro.core.routing import resource_usage, solve_traffic

        ext = ext_any
        algo = self._algo(ext)
        for routing in (converged_routing(ext), random_routing(ext, seed=3)):
            # an engine-built routing, and a dense one
            for routing in (algo.step(routing), routing):
                ctx = algo.compute_context(routing)
                traffic = solve_traffic(ext, routing)
                assert np.array_equal(ctx.traffic, traffic)
                usage = resource_usage(ext, routing)
                assert np.array_equal(ctx.edge_usage, usage[0])
                assert np.array_equal(ctx.node_usage, usage[1])
                assert np.array_equal(resource_usage(ext, routing, traffic)[1], usage[1])
                cost = evaluate_cost(ext, routing, CostModel())
                assert (cost.utility, cost.total) == (
                    ctx.breakdown.utility, ctx.breakdown.total
                )
                assert np.array_equal(ctx.breakdown.admitted, cost.admitted)
                dadr = all_marginal_costs(ext, routing, ctx.dadf)
                assert np.array_equal(ctx.dadr, dadr)
                delta = ModelState.of(ext).edge_marginals_dense(
                    ctx.dadf, dadr.reshape(-1)
                )
                assert np.array_equal(ctx.delta, delta)
                for got, want in zip(derive_marginals(ext, routing, ctx.dadf), (dadr, delta)):
                    assert np.array_equal(got, want)
                blocked = compute_all_blocked_sets(
                    ext, routing, ctx.traffic, ctx.dadr, ctx.delta, ETA
                )
                expected = np.stack(
                    [
                        compute_blocked_sets_scalar(
                            ext, j, routing, traffic, dadr[j], delta[j], ETA
                        )
                        for j in range(ext.num_commodities)
                    ]
                )
                assert np.array_equal(blocked, expected)

    @pytest.fixture(params=["figure4_ext", "wide_random_ext"])
    def ext_any(self, request):
        return request.getfixturevalue(request.param)


class TestEndToEndIdentity:
    def test_compare_reference_oracle(self):
        from repro.scenarios import paper_figure4_network

        report = DifferentialOracle().compare_reference(
            paper_figure4_network(seed=7),
            iterations=120,
            config=GradientConfig(max_iterations=120),
        )
        assert report.bit_identical
        assert report.passed
        assert report.extras["diverged_at"] is None

    def test_compare_reference_on_the_250_rung_with_blocking(self, monkeypatch):
        """The 250 x 8 scale-ladder rung, run past the onset of blocking:
        eta 0.16 first blocks at iteration 113."""
        from repro.scenarios import RandomNetworkSpec, random_stream_network

        network = random_stream_network(
            RandomNetworkSpec(
                num_nodes=250,
                num_commodities=8,
                depth_range=(4, 6),
                layer_width_range=(7, 9),
                extra_edge_probability=0.1,
            ),
            seed=29,
        )
        blocked = []
        real = ModelState.blocked_sweep

        def spy(self, *args):
            result = real(self, *args)
            blocked.append(result is not None)
            return result

        monkeypatch.setattr(ModelState, "blocked_sweep", spy)
        report = DifferentialOracle().compare_reference(
            network, iterations=200, config=GradientConfig(eta=0.16, max_iterations=200)
        )
        assert report.bit_identical, report.extras
        assert sum(blocked) >= 40

    def test_compare_reference_flags_a_divergent_step(self, monkeypatch):
        from repro.core.gradient import GradientAlgorithm
        from repro.scenarios import figure1_network

        real = GradientAlgorithm.step_reference

        def drifting(self, routing, eta=None):
            new = real(self, routing, eta)
            new.phi *= 1.0 + 1e-15  # a few ulps on every nonzero fraction
            return new

        monkeypatch.setattr(GradientAlgorithm, "step_reference", drifting)
        report = DifferentialOracle().compare_reference(figure1_network(), iterations=5)
        assert not report.bit_identical
        assert not report.passed
        assert report.extras["diverged_at"] == 1

    def test_step_reference_never_builds_the_engine(self):
        from repro.core.gradient import GradientAlgorithm
        from repro.core.routing import initial_routing
        from repro.core.transform import build_extended_network
        from repro.scenarios import figure1_network

        ext = build_extended_network(figure1_network())
        algo = GradientAlgorithm(ext, GradientConfig())
        routing = initial_routing(ext)
        for _ in range(3):
            routing = algo.step_reference(routing)
        assert getattr(ext, "_model_state", None) is None


class TestSparseInstanceProperties:
    """Engine bit-identity with the scalar walks, fuzzed over the sparse
    large-J family."""

    def test_cores_bit_identical_across_sparse_instances(self):
        import os

        from hypothesis import given, settings

        from repro.core.transform import build_extended_network
        from repro.validate.strategies import random_routing, sparse_instances

        # the 250/400-node tiers ride only under the dev profile (20
        # examples); ci's 100-example sweep stays on the small tiers
        dev = os.environ.get("HYPOTHESIS_PROFILE", "dev") == "dev"
        strategy = sparse_instances(max_tier=None if dev else 3)

        @given(strategy)
        @settings(deadline=None)
        def check(drawn):
            network, seed, _tier = drawn
            ext = build_extended_network(network)
            routing = random_routing(ext, seed)
            ctx = build_iteration_context(ext, routing, CostModel())
            traffic = solve_traffic_scalar(ext, routing)
            edge_usage, node_usage = resource_usage_scalar(ext, routing, traffic)
            dadf = link_cost_derivative(ext, CostModel(), edge_usage, node_usage)
            dadr, delta = scalar_marginals(ext, routing, dadf)
            assert np.array_equal(ctx.traffic, traffic)
            assert np.array_equal(ctx.edge_usage, edge_usage)
            assert np.array_equal(ctx.node_usage, node_usage)
            assert np.array_equal(ctx.dadr, dadr)
            mask = ext.allowed
            assert np.array_equal(ctx.delta[mask], delta[mask])

        check()


class TestApiModule:
    def test_curated_surface_importable(self):
        import repro.api as api

        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_unknown_attribute_raises(self):
        import repro.api as api

        with pytest.raises(AttributeError):
            api.does_not_exist
