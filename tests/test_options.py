"""The unified SolveOptions surface: round-trip law, equivalence, conflicts."""

import numpy as np
import pytest

from repro import GradientConfig, SolveOptions, solve
from repro.exceptions import ModelError
from repro.online import OnlineOrchestrator
from repro.scenarios import paper_figure4_network


@pytest.fixture(scope="module")
def fig4_network():
    return paper_figure4_network(seed=7)


class TestRoundTrip:
    def test_from_kwargs_of_to_kwargs_is_identity(self):
        opts = SolveOptions(
            method="gradient",
            config=GradientConfig(max_iterations=50),
            workers=2,
            backend=None,
            staleness=4,
            validate="strict",
            full_result=True,
        )
        assert SolveOptions.from_kwargs(**opts.to_kwargs()) == opts

    def test_defaults_round_trip(self):
        opts = SolveOptions()
        assert SolveOptions.from_kwargs(**opts.to_kwargs()) == opts

    def test_unknown_kwargs_rejected(self):
        with pytest.raises(TypeError, match="eta"):
            SolveOptions.from_kwargs(eta=0.04)

    def test_replace_is_frozen_safe(self):
        opts = SolveOptions(workers=2)
        other = opts.replace(workers=4, staleness=2)
        assert opts.workers == 2
        assert other.workers == 4 and other.staleness == 2
        with pytest.raises(Exception):
            opts.workers = 8  # frozen


class TestSolveEquivalence:
    def test_options_matches_kwargs_bitwise(self, fig4_network):
        cfg = GradientConfig(max_iterations=80)
        opts = SolveOptions(config=cfg, full_result=True)
        via_options = solve(fig4_network, options=opts)
        via_kwargs = solve(fig4_network, **opts.to_kwargs())
        assert np.array_equal(
            via_options.solution.routing.phi, via_kwargs.solution.routing.phi
        )
        assert np.array_equal(
            via_options.solution.admitted, via_kwargs.solution.admitted
        )

    def test_options_plus_kwargs_is_an_error(self, fig4_network):
        opts = SolveOptions(config=GradientConfig(max_iterations=10))
        with pytest.raises(TypeError, match="options="):
            solve(fig4_network, options=opts, workers=2)
        with pytest.raises(TypeError, match="options="):
            solve(fig4_network, options=opts, method="gradient")

    def test_options_must_be_solve_options(self, fig4_network):
        with pytest.raises(TypeError, match="SolveOptions"):
            solve(fig4_network, options={"method": "gradient"})


class TestOrchestratorOptions:
    def test_options_accepted(self, fig4_network):
        cfg = GradientConfig(max_iterations=40)
        orch = OnlineOrchestrator(
            fig4_network, [], options=SolveOptions(config=cfg)
        )
        baseline = OnlineOrchestrator(fig4_network, [], config=cfg)
        a = orch.run(30)
        b = baseline.run(30)
        assert np.array_equal(
            a.solution.routing.phi, b.solution.routing.phi
        )

    def test_options_conflicts_with_aliases(self, fig4_network):
        opts = SolveOptions(config=GradientConfig(max_iterations=10))
        with pytest.raises(ModelError, match="not both"):
            OnlineOrchestrator(
                fig4_network, [], options=opts, config=GradientConfig()
            )

    def test_workers_rejected(self, fig4_network):
        """The orchestrator steps one iteration at a time, so a worker pool,
        which only runs multi-iteration batches, would never start."""
        with pytest.raises(ModelError, match="pool"):
            OnlineOrchestrator(fig4_network, [], options=SolveOptions(workers=2))

    def test_non_gradient_options_rejected(self, fig4_network):
        with pytest.raises(ModelError, match="gradient"):
            OnlineOrchestrator(
                fig4_network, [], options=SolveOptions(method="backpressure")
            )
