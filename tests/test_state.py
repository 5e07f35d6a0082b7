"""The commodity-major array core: selection, kernels, blocks, bit-identity."""

import numpy as np
import pytest

from repro import GradientConfig, solve
from repro.core.context import build_iteration_context
from repro.core.marginals import CostModel, all_marginal_costs, link_cost_derivative
from repro.core.routing import (
    external_inputs,
    external_inputs_rows,
    resource_usage,
    solve_traffic,
)
from repro.core.state import (
    MODEL_CORE_ENV,
    MODEL_CORE_NAMES,
    ModelState,
    active_core,
    use_array_core,
)
from repro.validate import compare_cores
from repro.validate.strategies import random_routing


def converged_routing(ext, iterations=60):
    """A non-trivial routing state: a short gradient run's final iterate."""
    from repro.core.gradient import GradientAlgorithm

    algo = GradientAlgorithm(ext, GradientConfig(max_iterations=iterations))
    return algo.run().solution.routing


class TestCoreSelection:
    def test_default_is_array(self, monkeypatch):
        monkeypatch.delenv(MODEL_CORE_ENV, raising=False)
        assert active_core() == "array"
        assert use_array_core()

    def test_object_opt_out(self, monkeypatch):
        monkeypatch.setenv(MODEL_CORE_ENV, "object")
        assert active_core() == "object"
        assert not use_array_core()

    def test_unknown_core_rejected(self, monkeypatch):
        monkeypatch.setenv(MODEL_CORE_ENV, "vector")
        with pytest.raises(ValueError, match="vector"):
            active_core()

    def test_names_constant(self):
        assert MODEL_CORE_NAMES == ("array", "object")

    def test_state_cached_by_identity(self, figure4_ext):
        assert ModelState.of(figure4_ext) is ModelState.of(figure4_ext)


class TestKernelBitIdentity:
    """Array kernels vs the per-commodity object walks, bit for bit."""

    @pytest.fixture(params=["figure4_ext", "small_random_ext", "wide_random_ext"])
    def ext(self, request):
        return request.getfixturevalue(request.param)

    def _references(self, ext, monkeypatch):
        """Everything the object core computes, for two routing states.

        A converged iterate leaves most fractions at zero -- at most 3
        nonzero terms in any sum, even on the wide instance -- so a random
        interior routing rides along to fill every term of every row.
        """
        out = []
        for routing in (converged_routing(ext), random_routing(ext, seed=0)):
            monkeypatch.setenv(MODEL_CORE_ENV, "object")
            traffic = solve_traffic(ext, routing)
            edge_usage, node_usage = resource_usage(ext, routing, traffic)
            dadf = link_cost_derivative(ext, CostModel(), edge_usage, node_usage)
            dadr = all_marginal_costs(ext, routing, dadf)
            monkeypatch.delenv(MODEL_CORE_ENV)
            out.append((routing, traffic, edge_usage, node_usage, dadf, dadr))
        return out

    def test_forward_wave(self, ext, monkeypatch):
        for routing, traffic, *_ in self._references(ext, monkeypatch):
            t = external_inputs(ext)
            ModelState.of(ext).solve_traffic_into(
                t.reshape(-1), routing.phi.reshape(-1)
            )
            assert np.array_equal(t, traffic)

    def test_usage(self, ext, monkeypatch):
        for routing, traffic, edge_usage, node_usage, *_ in self._references(
            ext, monkeypatch
        ):
            eu, nu = ModelState.of(ext).resource_usage(
                routing.phi.reshape(-1), traffic.reshape(-1)
            )
            assert np.array_equal(eu, edge_usage)
            assert np.array_equal(nu, node_usage)

    def test_reverse_wave(self, ext, monkeypatch):
        for routing, _t, _eu, _nu, dadf, dadr in self._references(ext, monkeypatch):
            got = ModelState.of(ext).marginal_costs(routing.phi.reshape(-1), dadf)
            assert np.array_equal(got, dadr)

    def test_block_kernels_tile_the_full_sweep(self, ext, monkeypatch):
        state = ModelState.of(ext)
        J = ext.num_commodities
        for routing, traffic, edge_usage, _nu, dadf, dadr in self._references(
            ext, monkeypatch
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
            # reverse, per-commodity rows
            got = np.zeros_like(dadr)
            for j in range(J):
                state.marginal_costs_block(got.reshape(-1), phi_flat, dadf, j, j + 1)
            assert np.array_equal(got, dadr)

    def test_context_delta_matches_on_allowed_cells(self, ext, monkeypatch):
        routing = converged_routing(ext)
        ctx_array = build_iteration_context(ext, routing, CostModel())
        monkeypatch.setenv(MODEL_CORE_ENV, "object")
        ctx_object = build_iteration_context(ext, routing, CostModel())
        assert np.array_equal(ctx_array.traffic, ctx_object.traffic)
        assert np.array_equal(ctx_array.edge_usage, ctx_object.edge_usage)
        mask = ext.allowed
        assert np.array_equal(ctx_array.delta[mask], ctx_object.delta[mask])


def test_wide_fixture_has_pairwise_width_rows(wide_random_ext):
    """The wide fixture must keep rows of >= 8 terms in every sweep."""
    state = ModelState.of(wide_random_ext)
    for levels in (state.forward_levels, state.reverse_levels):
        assert max(np.bincount(lv.rows).max() for lv in levels) >= 8
    assert np.bincount(wide_random_ext.merged_gamma_plan.cell_rows).max() >= 8


class TestEndToEndIdentity:
    def test_solve_is_core_independent(self, monkeypatch):
        from repro.scenarios import paper_figure4_network

        net = paper_figure4_network(seed=7)
        cfg = GradientConfig(max_iterations=120)
        monkeypatch.delenv(MODEL_CORE_ENV, raising=False)
        via_array = solve(net, config=cfg, full_result=True)
        monkeypatch.setenv(MODEL_CORE_ENV, "object")
        via_object = solve(net, config=cfg, full_result=True)
        assert np.array_equal(
            via_array.solution.routing.phi, via_object.solution.routing.phi
        )
        assert np.array_equal(via_array.utilities, via_object.utilities)

    def test_compare_cores_oracle(self):
        from repro.scenarios import paper_figure4_network

        report = compare_cores(
            paper_figure4_network(seed=7),
            config=GradientConfig(max_iterations=120),
        )
        assert report.bit_identical
        assert report.passed


class TestSparseInstanceProperties:
    """Array-core bit-identity fuzzed over the sparse large-J family."""

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
            ctx_array = build_iteration_context(ext, routing, CostModel())
            os.environ[MODEL_CORE_ENV] = "object"
            try:
                ctx_object = build_iteration_context(ext, routing, CostModel())
            finally:
                del os.environ[MODEL_CORE_ENV]
            assert np.array_equal(ctx_array.traffic, ctx_object.traffic)
            assert np.array_equal(ctx_array.edge_usage, ctx_object.edge_usage)
            assert np.array_equal(ctx_array.dadr, ctx_object.dadr)
            mask = ext.allowed
            assert np.array_equal(ctx_array.delta[mask], ctx_object.delta[mask])

        check()


class TestApiModule:
    def test_curated_surface_importable(self):
        import repro.api as api

        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_deprecated_hot_state_warns_and_forwards(self):
        import repro.api as api
        from repro.core.routing import solve_traffic as real

        with pytest.warns(DeprecationWarning, match="solve_traffic"):
            shim = api.solve_traffic
        assert shim is real

    def test_unknown_attribute_raises(self):
        import repro.api as api

        with pytest.raises(AttributeError):
            api.does_not_exist

    def test_dir_lists_deprecated_names(self):
        import repro.api as api

        listing = dir(api)
        assert "ModelState" in listing and "resource_usage" in listing
