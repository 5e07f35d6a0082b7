"""Tests for the epoch-versioned delta core (:mod:`repro.core.delta`).

The contract under test: applying a compiled delta is **bit-identical** to
rebuilding the extended network from scratch (down to every vectorization
plan), epochs advance by exactly one per event, and the worker pool
survives an epoch refresh without restarting a worker.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro import build_extended_network
from repro.core.commodity import Commodity
from repro.core.delta import (
    apply_delta,
    apply_scalar_patch,
    build_index_maps,
    carry_routing,
    compile_event,
    diff_extended_networks,
)
from repro.core.gradient import GradientAlgorithm, GradientConfig
from repro.core.routing import initial_routing, validate_routing
from repro.exceptions import ModelError
from repro.online import (
    CapacityChange,
    CommodityArrival,
    CommodityDeparture,
    DemandChange,
    LinkFailure,
    NodeFailure,
    apply_event,
)
from repro.online import rebuild as rebuild_module
from repro.parallel.backend import ParallelBackend
from repro.validate import DifferentialOracle
from repro.validate.strategies import event_sequences
from repro.scenarios import ChurnSpec, churn_network, churn_trace, figure1_network


def _interior_node(network):
    sources = {c.source for c in network.commodities}
    sinks = {c.sink for c in network.commodities}
    nodes = sorted(
        {n for c in network.commodities for n in c.potentials} - sources - sinks
    )
    return nodes[0]


def _one_event(kind):
    """``(network, [event])`` exercising exactly one event class."""
    net = churn_network(num_nodes=20, num_commodities=3, seed=5)
    first = net.commodities[0]
    if kind == "demand":
        return net, [DemandChange(5, commodity=first.name,
                                  new_rate=first.max_rate * 1.3)]
    if kind == "capacity":
        node = net.physical.processing_nodes()[0]
        return net, [CapacityChange(5, node=node.name,
                                    new_capacity=node.capacity * 0.8)]
    if kind == "link_failure":
        return net, [LinkFailure(5, link=first.edges[len(first.edges) // 2])]
    if kind == "node_failure":
        return net, [NodeFailure(5, node=_interior_node(net))]
    if kind == "departure":
        return net, [CommodityDeparture(5, commodity=first.name)]
    if kind == "arrival":
        # depart first, then bring the same session back
        base = apply_event(net, CommodityDeparture(1, commodity=first.name)).network
        return base, [CommodityArrival(5, commodity=first)]
    raise AssertionError(kind)


EVENT_KINDS = [
    "demand", "capacity", "link_failure", "node_failure", "departure", "arrival",
]


class TestEpochSemantics:
    def test_fresh_build_starts_at_epoch_zero(self):
        assert build_extended_network(figure1_network()).epoch == 0

    def test_scalar_delta_mutates_in_place(self):
        net = figure1_network()
        ext = build_extended_network(net)
        plans = ext.flow_plans  # force the lazy plans
        delta = compile_event(ext, DemandChange(1, commodity="S1", new_rate=20.0))
        assert not delta.structural
        applied = apply_delta(ext, delta)
        assert applied.ext is ext
        assert ext.epoch == 1
        assert applied.maps.identity
        # the vectorization plans survive untouched
        assert ext.flow_plans is plans
        j = ext.commodity_view("S1").index
        assert ext.lam[j] == pytest.approx(20.0)

    def test_structural_delta_leaves_base_epoch_usable(self):
        net = figure1_network()
        ext = build_extended_network(net)
        delta = compile_event(ext, LinkFailure(1, link=("server2", "server4")))
        assert delta.structural
        applied = apply_delta(ext, delta)
        assert applied.ext is not ext
        assert ext.epoch == 0  # base epoch untouched
        assert applied.ext.epoch == 1
        # the old epoch still validates its own routings
        validate_routing(ext, initial_routing(ext))

    def test_stale_delta_rejected(self):
        ext = build_extended_network(figure1_network())
        delta = compile_event(ext, DemandChange(1, commodity="S1", new_rate=20.0))
        apply_delta(ext, delta)  # epoch is now 1
        with pytest.raises(ModelError, match="stale delta"):
            apply_delta(ext, delta)

    def test_scalar_patch_is_idempotent(self):
        ext = build_extended_network(figure1_network())
        delta = compile_event(ext, CapacityChange(1, node="server3",
                                                  new_capacity=7.0))
        assert delta.scalar is not None
        apply_scalar_patch(ext, delta.scalar)
        snapshot = ext.capacity.copy()
        apply_scalar_patch(ext, delta.scalar)
        np.testing.assert_array_equal(ext.capacity, snapshot)
        assert ext.epoch == 2  # epochs still advance per application


class TestBitIdentityPerEvent:
    """Acceptance bar: delta apply == from-scratch rebuild, per event class."""

    @pytest.mark.parametrize("kind", EVENT_KINDS)
    def test_compare_rebuild_agrees(self, kind):
        network, events = _one_event(kind)
        report = DifferentialOracle().compare_rebuild(
            network, events, gradient_steps=3
        )
        assert report.passed, report.summary()
        (step,) = report.steps
        assert step.epoch == 1
        assert step.routing_identical and step.routing_valid

    @pytest.mark.parametrize("kind", EVENT_KINDS)
    def test_diff_is_empty_including_plans(self, kind):
        network, events = _one_event(kind)
        ext = build_extended_network(network)
        applied = apply_delta(ext, compile_event(ext, events[0]))
        reference = build_extended_network(
            apply_event(network, events[0]).network, require_connected=False
        )
        diffs = diff_extended_networks(applied.ext, reference, compare_plans=True)
        assert diffs == [], diffs


class TestCarryRouting:
    def test_scalar_delta_carries_verbatim(self):
        net = figure1_network()
        ext = build_extended_network(net)
        routing = GradientAlgorithm(
            ext, GradientConfig(eta=0.05, max_iterations=200)
        ).run().solution.routing
        delta = compile_event(ext, DemandChange(1, commodity="S1", new_rate=20.0))
        applied = apply_delta(ext, delta)
        carried = carry_routing(ext, routing, applied.ext, applied.maps)
        np.testing.assert_array_equal(carried.phi, routing.phi)

    def test_structural_delta_yields_valid_routing(self):
        net = churn_network(num_nodes=20, num_commodities=3, seed=5)
        ext = build_extended_network(net)
        routing = initial_routing(ext)
        delta = compile_event(ext, NodeFailure(1, node=_interior_node(net)))
        applied = apply_delta(ext, delta)
        carried = carry_routing(ext, routing, applied.ext, applied.maps)
        validate_routing(applied.ext, carried)


class TestChurnSoak:
    """Satellite 4: a long mixed timeline, checked step by step."""

    def test_soak_fifty_mixed_events(self):
        net = churn_network(num_nodes=24, num_commodities=4, seed=3)
        events = churn_trace(net, ChurnSpec(num_events=50), seed=11)
        assert len(events) == 50
        assert len({type(e).__name__ for e in events}) >= 4  # genuinely mixed

        ext = build_extended_network(net)
        routing = initial_routing(ext)
        epochs = [ext.epoch]
        for event in events:
            delta = compile_event(ext, event)
            applied = apply_delta(ext, delta)
            routing = carry_routing(ext, routing, applied.ext, applied.maps)
            validate_routing(applied.ext, routing)  # feasible at every epoch
            ext = applied.ext
            epochs.append(ext.epoch)
        assert epochs == list(range(51))  # strictly monotone, +1 per event

        # and the oracle agrees the whole trace is bit-identical
        report = DifferentialOracle().compare_rebuild(net, events)
        assert report.passed, report.summary()


class TestEventSequenceProperty:
    @settings(max_examples=10, deadline=None)
    @given(pair=event_sequences(max_events=4))
    def test_rebuild_oracle_agrees_on_random_sequences(self, pair):
        network, events = pair
        report = DifferentialOracle().compare_rebuild(network, events)
        assert report.passed, report.summary()


class TestPoolSurvival:
    """Acceptance bar: an event does not tear down the worker pool."""

    def test_refresh_keeps_pool_and_matches_serial(self):
        """A refreshed pool computes the batches a pool bound fresh to the
        new epoch computes, bit for bit, without restarting a worker."""
        net = churn_network(num_nodes=20, num_commodities=3, seed=5)
        events = [
            DemandChange(1, commodity=net.commodities[0].name, new_rate=25.0),
            LinkFailure(2, link=net.commodities[1].edges[1]),
            CommodityDeparture(3, commodity=net.commodities[2].name),
        ]
        config = GradientConfig(eta=0.02)
        ext = build_extended_network(net)
        with ParallelBackend(workers=2, staleness=4) as backend:
            algo = GradientAlgorithm(ext, config, backend=backend)
            routing, _ = backend.advance(initial_routing(ext), None, 5)
            pool = backend._pool
            assert pool is not None
            pids = {p.pid for p in pool._processes.values()}

            for event in events:
                applied = apply_delta(ext, compile_event(ext, event))
                routing = carry_routing(ext, routing, applied.ext, applied.maps)
                algo.refresh(applied)
                ext = applied.ext

                with ParallelBackend(workers=2, staleness=4) as fresh:
                    fresh.bind(ext, config)
                    want, _ = fresh.advance(routing, None, 5)
                routing, _ = backend.advance(routing, None, 5)
                np.testing.assert_array_equal(routing.phi, want.phi)

                assert backend._pool is pool  # never torn down
                assert {p.pid for p in pool._processes.values()} == pids

    def test_scalar_refresh_republishes_no_segments(self):
        net = churn_network(num_nodes=20, num_commodities=3, seed=5)
        ext = build_extended_network(net)
        with ParallelBackend(workers=2, staleness=4) as backend:
            algo = GradientAlgorithm(ext, GradientConfig(eta=0.02), backend=backend)
            routing, _ = backend.advance(initial_routing(ext), None, 5)
            specs_before = dict(backend._shm.specs)
            delta = compile_event(
                ext, DemandChange(1, commodity=net.commodities[0].name,
                                  new_rate=30.0)
            )
            applied = apply_delta(ext, delta)
            algo.refresh(applied)
            # a scalar epoch ships a few-byte patch: every shm block survives
            assert dict(backend._shm.specs) == specs_before
            # and the pool still computes on the new epoch
            backend.advance(routing, None, 5)


class TestRebuildErrorHandling:
    """Satellites 1+2: only expected errors are swallowed."""

    def test_unexpected_error_propagates(self, monkeypatch):
        net = figure1_network()

        def boom(*args, **kwargs):
            raise RuntimeError("not a validation problem")

        monkeypatch.setattr(rebuild_module.Commodity, "from_subgraph", boom)
        with pytest.raises(RuntimeError, match="not a validation problem"):
            apply_event(net, LinkFailure(1, link=("server2", "server4")))

    def test_unservable_demand_change_is_model_error(self, monkeypatch):
        net = figure1_network()
        monkeypatch.setattr(
            rebuild_module, "_rebuild_commodity", lambda *a, **k: None
        )
        with pytest.raises(ModelError, match="unservable"):
            apply_event(net, DemandChange(1, commodity="S1", new_rate=9.0))


class TestSharing:
    """Satellite 3: untouched commodities are carried as the same objects."""

    def test_demand_change_shares_other_commodities(self):
        net = figure1_network()
        result = apply_event(
            net, DemandChange(1, commodity="S1", new_rate=20.0)
        )
        assert result.network.commodity("S2") is net.commodity("S2")
        assert result.network.commodity("S1") is not net.commodity("S1")

    def test_capacity_change_shares_every_commodity(self):
        net = figure1_network()
        result = apply_event(
            net, CapacityChange(1, node="server3", new_capacity=9.0)
        )
        for old, new in zip(net.commodities, result.network.commodities):
            assert new is old

    def test_failure_rebuilds_only_touched(self):
        net = figure1_network()
        # server2 is on S1's subgraph only
        result = apply_event(net, NodeFailure(1, node="server2"))
        assert result.network.commodity("S2") is net.commodity("S2")
        assert result.network.commodity("S1") is not net.commodity("S1")

    def test_splice_carries_clean_plans_by_reference(self):
        # the structural fast path must *remap* clean commodities' plans,
        # not rebuild them: the index-free plan arrays (gains, valid) are
        # shared with the old epoch's plans.  Pins the fast path actually
        # firing -- a silently broken index map degrades every splice to
        # full re-derivation (correct but O(problem), see _splice_maps).
        net = churn_network(num_nodes=20, num_commodities=3, seed=5)
        ext = build_extended_network(net)
        ext.flow_plans
        ext.gamma_plans
        gone = net.commodities[-1].name
        applied = apply_delta(
            ext, compile_event(ext, CommodityDeparture(1, commodity=gone))
        )
        assert applied.ext._flow_plans is not None
        assert applied.ext._gamma_plans is not None
        for view in applied.ext.commodities:
            jo = ext.commodity_view(view.name).index
            assert applied.ext._flow_plans[view.index].gains is (
                ext._flow_plans[jo].gains
            )
            assert applied.ext._gamma_plans[view.index].valid is (
                ext._gamma_plans[jo].valid
            )


class TestIndexMaps:
    def test_identity_between_equal_builds(self):
        net = figure1_network()
        a, b = build_extended_network(net), build_extended_network(net)
        assert build_index_maps(a, b).identity

    def test_departed_commodity_maps_to_minus_one(self):
        net = churn_network(num_nodes=20, num_commodities=3, seed=5)
        ext = build_extended_network(net)
        gone = net.commodities[1].name
        applied = apply_delta(
            ext, compile_event(ext, CommodityDeparture(1, commodity=gone))
        )
        j = ext.commodity_view(gone).index
        assert applied.maps.commodity_map[j] == -1
        survivors = np.delete(np.arange(ext.num_commodities), j)
        assert np.all(applied.maps.commodity_map[survivors] >= 0)
