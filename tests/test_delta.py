"""Tests for the epoch-versioned delta core (:mod:`repro.core.delta`).

The contract under test: applying a compiled delta is **bit-identical** to
rebuilding the extended network from scratch (down to every compiled
array), epochs advance by exactly one per event, a scalar event is a value
copy, and a worker pool restarted on the new epoch matches one bound fresh
to it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro import build_extended_network
from repro.core.commodity import Commodity, StreamNetwork
from repro.core.delta import (
    apply_delta,
    apply_scalar_patch,
    build_index_maps,
    carry_routing,
    compile_event,
    diff_extended_networks,
)
from repro.core import delta as delta_module
from repro.core.gradient import GradientAlgorithm, GradientConfig
from repro.core.network import PhysicalNetwork
from repro.core.routing import initial_routing, validate_routing
from repro.core.state import ModelState
from repro.exceptions import ModelError
from repro.io import network_to_dict
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
from repro.scenarios import (
    ChurnSpec,
    churn_network,
    churn_trace,
    figure1_network,
    scenario,
)


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
        state = ModelState.of(ext)
        delta = compile_event(ext, DemandChange(1, commodity="S1", new_rate=20.0))
        assert not delta.structural
        applied = apply_delta(ext, delta)
        assert applied.ext is ext
        assert ext.epoch == 1
        assert applied.maps.identity
        # the compiled form depends on the topology only: it survives
        assert ModelState.of(ext) is state
        j = ext.commodity_view("S1").index
        assert ext.commodity_max_rates[j] == pytest.approx(20.0)

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


class TestEngineOnSplicedEpochs:
    """``compare_reference`` only sees from-scratch networks, but a spliced
    epoch's levels come from remapped topological orders: hold the engine
    to the scalar walks there too."""

    def test_steps_match_reference_after_every_splice(self):
        compiled = scenario("churn-smoke-20").compile()
        ext = build_extended_network(compiled.network)
        algo = GradientAlgorithm(ext, GradientConfig())
        routing = initial_routing(ext)
        for _ in range(30):  # put traffic inside the network first
            routing = algo.step(routing)
        spliced = 0
        for event in compiled.events:
            applied = apply_delta(ext, compile_event(ext, event))
            routing = carry_routing(ext, routing, applied.ext, applied.maps)
            ext = applied.ext
            if not applied.structural:
                continue
            spliced += 1
            algo = GradientAlgorithm(ext, GradientConfig())
            reference = routing
            for k in range(3):
                routing = algo.step(routing)
                reference = algo.step_reference(reference)
                assert np.array_equal(routing.phi, reference.phi), (
                    f"{type(event).__name__} at epoch {ext.epoch}, step {k}"
                )
        assert spliced == 5


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


class TestPoolRestart:
    """An epoch change closes the worker pool; the next batch restarts it."""

    def test_refresh_restarts_pool_and_matches_fresh_pool(self):
        """The restarted pool computes the batches a pool bound fresh to the
        new epoch computes, bit for bit."""
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
            assert backend._pool is not None

            for event in events:
                applied = apply_delta(ext, compile_event(ext, event))
                routing = carry_routing(ext, routing, applied.ext, applied.maps)
                algo.refresh(applied)
                ext = applied.ext
                assert backend._pool is None  # the old epoch's pool is gone

                with ParallelBackend(workers=2, staleness=4) as fresh:
                    fresh.bind(ext, config)
                    want, _ = fresh.advance(routing, None, 5)
                routing, _ = backend.advance(routing, None, 5)
                np.testing.assert_array_equal(routing.phi, want.phi)


class TestRebuildErrorHandling:
    """Satellites 1+2: only expected errors are swallowed."""

    def test_unexpected_error_propagates(self, monkeypatch):
        net = figure1_network()

        def boom(*args, **kwargs):
            raise RuntimeError("not a validation problem")

        monkeypatch.setattr(rebuild_module.Commodity, "from_subgraph", boom)
        with pytest.raises(RuntimeError, match="not a validation problem"):
            apply_event(net, LinkFailure(1, link=("server2", "server4")))


def _readd_physical(physical, capacities):
    """The physical network re-added node by node and link by link."""
    new = PhysicalNetwork()
    for node in physical.nodes.values():
        if node.is_sink:
            new.add_sink(node.name)
        else:
            new.add_server(node.name, capacities.get(node.name, node.capacity))
    for link in physical.links.values():
        new.add_link(link.tail, link.head, link.bandwidth)
    return new


_SCALAR_NETWORKS = {
    "figure1": figure1_network,
    "churn-20x3": lambda: churn_network(num_nodes=20, num_commodities=3, seed=5),
    "serve-mix-120": lambda: scenario("serve-mix-120").compile().network,
}


class TestScalarValueCopy:
    """A scalar event copies values; it re-derives no commodity."""

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan")])
    def test_with_max_rate_rejects_non_positive_rate(self, rate):
        commodity = figure1_network().commodity("S1")
        with pytest.raises(ModelError, match="max_rate"):
            commodity.with_max_rate(rate)

    @pytest.mark.parametrize("name", sorted(_SCALAR_NETWORKS))
    def test_demand_change_matches_rederivation(self, name):
        net = _SCALAR_NETWORKS[name]()
        target = net.commodities[-1]
        result = apply_event(
            net, DemandChange(1, commodity=target.name, new_rate=7.25)
        )
        rederived = Commodity.from_subgraph(
            name=target.name,
            source=target.source,
            sink=target.sink,
            max_rate=7.25,
            edges=target.edges,
            potentials=target.potentials,
            costs=target.costs,
            utility=target.utility,
            prune=True,
        )
        want = StreamNetwork(
            physical=net.physical,
            commodities=[
                rederived if c is target else c for c in net.commodities
            ],
        )
        assert network_to_dict(result.network) == network_to_dict(want)
        copied = result.network.commodity(target.name)
        assert copied.max_rate == 7.25 and target.max_rate != 7.25
        assert copied.edges is target.edges  # the DAG is shared, not rebuilt

    @pytest.mark.parametrize("name", sorted(_SCALAR_NETWORKS))
    def test_capacity_change_matches_physical_rebuild(self, name):
        net = _SCALAR_NETWORKS[name]()
        node = _interior_node(net)
        result = apply_event(net, CapacityChange(1, node=node, new_capacity=3.5))
        want = StreamNetwork(
            physical=_readd_physical(net.physical, {node: 3.5}),
            commodities=list(net.commodities),
        )
        assert network_to_dict(result.network) == network_to_dict(want)
        assert net.physical.node(node).capacity != 3.5  # input untouched


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

    def test_departure_rederives_no_commodity(self, monkeypatch):
        # the structural fast path must *remap* the clean commodities' rows,
        # not re-derive them.  Pins the fast path actually firing -- a
        # silently broken index map degrades every splice to full
        # re-derivation (correct but O(problem), see _splice_maps).
        net = churn_network(num_nodes=20, num_commodities=3, seed=5)
        ext = build_extended_network(net)
        gone = net.commodities[-1].name
        delta = compile_event(ext, CommodityDeparture(1, commodity=gone))
        derived = []
        real = delta_module._fill_commodity_row

        def spy(j, commodity, *args):
            derived.append(commodity.name)
            return real(j, commodity, *args)

        monkeypatch.setattr(delta_module, "_fill_commodity_row", spy)
        applied = apply_delta(ext, delta)
        assert derived == []
        reference = build_extended_network(delta.network, require_connected=False)
        assert diff_extended_networks(
            applied.ext, reference, compare_plans=True
        ) == []


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
