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
        for routing, traffic, *_ in self._references(ext):
            t = external_inputs(ext)
            ModelState.of(ext).solve_traffic_into(
                t.reshape(-1), routing.phi.reshape(-1)
            )
            assert np.array_equal(t, traffic)

    def test_usage(self, ext):
        for routing, traffic, edge_usage, node_usage, *_ in self._references(ext):
            eu, nu = ModelState.of(ext).resource_usage(
                routing.phi.reshape(-1), traffic.reshape(-1)
            )
            assert np.array_equal(eu, edge_usage)
            assert np.array_equal(nu, node_usage)

    def test_reverse_wave(self, ext):
        for routing, _t, _eu, _nu, dadf, dadr, _d in self._references(ext):
            got = ModelState.of(ext).marginal_costs(routing.phi.reshape(-1), dadf)
            assert np.array_equal(got, dadr)

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
