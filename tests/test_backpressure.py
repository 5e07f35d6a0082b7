"""Tests for the back-pressure baseline (potential balancing, [6])."""

from __future__ import annotations

import numpy as np
import pytest

from repro import build_extended_network
from repro.core.backpressure import (
    BackpressureAlgorithm,
    BackpressureConfig,
    BackpressureResult,
)
from repro.core.optimal import solve_lp
from repro.scenarios import diamond_network


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"buffer_cap": 0.0},
            {"slot_length": 0.0},
            {"max_iterations": 0},
            {"record_every": 0},
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            BackpressureConfig(**kwargs)


class TestDynamics:
    def test_delivered_rates_bounded_by_offered(self, diamond_ext):
        config = BackpressureConfig(max_iterations=2000, record_every=100)
        result = BackpressureAlgorithm(diamond_ext, config).run()
        lam = diamond_ext.commodity_max_rates
        assert np.all(result.average_rates <= lam + 1e-9)
        assert np.all(result.average_rates >= 0)

    def test_utility_rises_over_time(self, diamond_ext):
        config = BackpressureConfig(max_iterations=5000, record_every=100)
        result = BackpressureAlgorithm(diamond_ext, config).run()
        utilities = result.utilities
        # time-averaged throughput climbs through the transient
        assert utilities[-1] > utilities[0]
        # and is near-monotone after warmup (cumulative averages smooth it)
        later = utilities[len(utilities) // 4 :]
        assert np.all(np.diff(later) >= -0.02 * max(1.0, float(later.max())))

    def test_converges_near_optimum_on_diamond(self, diamond_ext):
        lp = solve_lp(diamond_ext)
        config = BackpressureConfig(
            max_iterations=60000, record_every=1000, buffer_cap=500.0
        )
        result = BackpressureAlgorithm(diamond_ext, config).run()
        assert result.utility >= 0.93 * lp.utility

    def test_converges_near_optimum_on_figure1(self, figure1_ext):
        lp = solve_lp(figure1_ext)
        config = BackpressureConfig(
            max_iterations=60000, record_every=1000, buffer_cap=500.0
        )
        result = BackpressureAlgorithm(figure1_ext, config).run()
        assert result.utility >= 0.90 * lp.utility

    def test_slower_than_gradient(self, small_random_ext):
        """The Figure-4 ordering: on a congested multi-commodity instance the
        gradient algorithm needs several times fewer iterations than
        back-pressure (the full-scale comparison lives in the benchmarks)."""
        from repro.core.gradient import GradientAlgorithm, GradientConfig

        lp = solve_lp(small_random_ext)
        target = 0.9 * lp.utility

        grad = GradientAlgorithm(
            small_random_ext, GradientConfig(eta=0.04, max_iterations=3000)
        ).run()
        grad_hit = next(
            rec.iteration for rec in grad.history if rec.utility >= target
        )

        config = BackpressureConfig(
            max_iterations=10000, record_every=200, buffer_cap=500.0
        )
        bp = BackpressureAlgorithm(small_random_ext, config).run()
        bp_hit = next(
            (rec.iteration for rec in bp.history if rec.utility >= target), None
        )
        assert bp_hit is not None
        assert bp_hit > 3 * grad_hit

    def test_queues_never_negative(self, figure1_ext):
        """Run a short horizon and check the record's total queue is sane."""
        config = BackpressureConfig(max_iterations=500, record_every=50)
        result = BackpressureAlgorithm(figure1_ext, config).run()
        for record in result.history:
            assert record.total_queue >= 0.0

    def test_source_buffers_respect_cap(self, diamond_ext):
        """Total queue mass is bounded by cap * (nodes x commodities)."""
        cap = 50.0
        config = BackpressureConfig(
            max_iterations=3000, record_every=100, buffer_cap=cap
        )
        result = BackpressureAlgorithm(diamond_ext, config).run()
        bound = cap * diamond_ext.num_nodes * diamond_ext.num_commodities
        for record in result.history:
            assert record.total_queue <= bound * 2.0  # gains may inflate interiors

    def test_messages_per_iteration_constant(self, figure1_ext):
        algo = BackpressureAlgorithm(figure1_ext)
        # one buffer-level exchange per directed neighbour pair, both ways
        assert algo.messages_per_iteration > 0
        assert algo.messages_per_iteration == 2 * len(
            {
                (int(t), int(h))
                for t, h in zip(algo.pair_tail, algo.pair_head)
            }
        )

    def test_deterministic(self, diamond_ext):
        config = BackpressureConfig(max_iterations=1000, record_every=100)
        r1 = BackpressureAlgorithm(diamond_ext, config).run()
        r2 = BackpressureAlgorithm(diamond_ext, config).run()
        np.testing.assert_array_equal(r1.utilities, r2.utilities)

    def test_respects_node_capacity_per_slot(self):
        """Heavily overloaded single-path net: per-slot served flow at the
        bottleneck cannot exceed its budget, so the delivered rate is capped
        by capacity/cost."""
        net = diamond_network(
            top_capacity=4.0,
            bottom_capacity=4.0,
            source_capacity=1000.0,
            max_rate=100.0,
            cost=2.0,
        )
        ext = build_extended_network(net)
        config = BackpressureConfig(max_iterations=20000, record_every=1000)
        result = BackpressureAlgorithm(ext, config).run()
        # mid nodes forward at most 4/2 = 2 each => delivered <= 4; the
        # source processes at most 1000/2 = 500, irrelevant
        assert result.average_rates[0] <= 4.0 + 1e-6


class TestResultObject:
    def test_history_shapes(self, diamond_ext):
        config = BackpressureConfig(max_iterations=1000, record_every=250)
        result = BackpressureAlgorithm(diamond_ext, config).run()
        assert isinstance(result, BackpressureResult)
        assert result.recorded_iterations[-1] == 1000
        assert len(result.utilities) == len(result.history)
        assert result.iterations == 1000
