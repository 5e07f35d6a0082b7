"""Tests for the RunResult protocol and the unified solve() entry point."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro import (
    BackpressureConfig,
    GradientConfig,
    Instrumentation,
    OptimalResult,
    RunResult,
    Solution,
    solve,
)
from repro.io import result_to_dict
from repro.online import DemandChange, OnlineOrchestrator
from repro.scenarios import diamond_network


def _gradient():
    return solve(
        diamond_network(),
        config=GradientConfig(eta=0.05, max_iterations=60),
        full_result=True,
    )


def _distributed():
    return solve(
        diamond_network(),
        method="distributed",
        config=GradientConfig(eta=0.05, max_iterations=12, record_every=4),
        full_result=True,
    )


def _backpressure():
    return solve(
        diamond_network(),
        method="backpressure",
        config=BackpressureConfig(max_iterations=400, record_every=50),
        full_result=True,
    )


def _optimal():
    return solve(diamond_network(), method="optimal", full_result=True)


def _online():
    network = diamond_network()
    commodity = network.commodities[0]
    events = [
        DemandChange(
            at_iteration=30,
            commodity=commodity.name,
            new_rate=0.5 * commodity.max_rate,
        )
    ]
    return OnlineOrchestrator(
        network, events, GradientConfig(eta=0.05), record_every=10
    ).run(80)


_FACTORIES = {
    "gradient": _gradient,
    "distributed": _distributed,
    "backpressure": _backpressure,
    "online": _online,
    "optimal": _optimal,
}


@pytest.fixture(scope="module", params=sorted(_FACTORIES))
def any_result(request):
    return _FACTORIES[request.param]()


class TestRunResultProtocol:
    """One behavioural contract across all five result types."""

    def test_satisfies_protocol(self, any_result):
        assert isinstance(any_result, RunResult)

    def test_trajectory_arrays_aligned(self, any_result):
        n = len(any_result.history)
        assert n >= 1
        assert len(any_result.utilities) == n
        assert len(any_result.costs) == n
        assert len(any_result.recorded_iterations) == n

    def test_recorded_iterations_monotone(self, any_result):
        its = np.asarray(any_result.recorded_iterations)
        assert np.all(np.diff(its) >= 0)

    def test_final_utility_is_float(self, any_result):
        value = any_result.final_utility
        assert isinstance(value, float)
        assert np.isfinite(value)

    def test_solution_attached(self, any_result):
        solution = any_result.solution
        assert solution is not None
        assert solution.utility == pytest.approx(any_result.final_utility)

    def test_result_to_dict_is_json_safe(self, any_result):
        doc = result_to_dict(any_result, run="protocol-test")
        text = json.dumps(doc)  # must not hit NaN or numpy types
        parsed = json.loads(text)
        assert parsed["schema"] == "repro.result/1"
        assert parsed["context"] == {"run": "protocol-test"}
        assert len(parsed["trajectory"]["iterations"]) == len(any_result.history)


class TestOptimalResult:
    def test_single_point_history(self):
        result = _optimal()
        assert isinstance(result, OptimalResult)
        assert result.converged is True
        assert len(result.history) == 1
        assert result.utilities[0] == pytest.approx(result.final_utility)


class TestSolveAPI:
    def test_default_returns_solution(self):
        solution = solve(diamond_network(), config=GradientConfig(max_iterations=30))
        assert isinstance(solution, Solution)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            solve(diamond_network(), method="magic")

    def test_wrong_config_class(self):
        with pytest.raises(TypeError, match="BackpressureConfig"):
            solve(diamond_network(), method="backpressure", config=GradientConfig())
        with pytest.raises(TypeError, match="GradientConfig"):
            solve(diamond_network(), config=BackpressureConfig())

    def test_optimal_takes_no_config(self):
        with pytest.raises(TypeError, match="no config"):
            solve(diamond_network(), method="optimal", config=GradientConfig())

    def test_unknown_kwarg(self):
        with pytest.raises(TypeError, match="bogus"):
            solve(diamond_network(), bogus=3)

    def test_instrumentation_threads_through(self):
        inst = Instrumentation()
        solve(
            diamond_network(),
            config=GradientConfig(max_iterations=25),
            instrumentation=inst,
        )
        assert inst.registry.counter("flow_solves").value == 26
        assert inst.registry.gauge("final_utility").value is not None


class TestDeprecatedResultNames:
    def test_online_iterations_alias_warns(self):
        result = _online()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with pytest.raises(DeprecationWarning):
                result.iterations
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            assert np.array_equal(result.iterations, result.recorded_iterations)
