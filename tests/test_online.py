"""Tests for the online re-optimisation module (events, rebuild, recovery)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import build_extended_network
from repro.core.gradient import GradientAlgorithm, GradientConfig
from repro.core.routing import (
    feasibility_report,
    initial_routing,
    validate_routing,
)
from repro.exceptions import ModelError
from repro.online import (
    CapacityChange,
    CommodityArrival,
    CommodityDeparture,
    DemandChange,
    LinkFailure,
    NodeFailure,
    OnlineOrchestrator,
    apply_event,
    emergency_shed,
    remap_routing,
)
from repro.scenarios import diamond_network, figure1_network


class TestEventValidation:
    def test_negative_iteration(self):
        with pytest.raises(ModelError):
            DemandChange(at_iteration=-1, commodity="c", new_rate=1.0)

    def test_demand_change_requires_fields(self):
        with pytest.raises(ModelError):
            DemandChange(at_iteration=0, commodity="", new_rate=1.0)
        with pytest.raises(ModelError):
            DemandChange(at_iteration=0, commodity="c", new_rate=0.0)

    def test_link_failure_requires_link(self):
        with pytest.raises(ModelError):
            LinkFailure(at_iteration=0, link=("", "b"))

    def test_capacity_change_requires_positive(self):
        with pytest.raises(ModelError):
            CapacityChange(at_iteration=0, node="n", new_capacity=0.0)


class TestApplyEvent:
    def test_demand_change(self):
        net = figure1_network()
        result = apply_event(
            net, DemandChange(at_iteration=1, commodity="S1", new_rate=99.0)
        )
        assert result.network.commodity("S1").max_rate == pytest.approx(99.0)
        assert result.network.commodity("S2").max_rate == pytest.approx(12.0)
        assert not result.dropped_commodities
        # original untouched
        assert net.commodity("S1").max_rate == pytest.approx(15.0)

    def test_demand_change_unknown_commodity(self):
        with pytest.raises(ModelError):
            apply_event(
                figure1_network(),
                DemandChange(at_iteration=1, commodity="nope", new_rate=1.0),
            )

    def test_capacity_change(self):
        net = figure1_network()
        result = apply_event(
            net, CapacityChange(at_iteration=1, node="server3", new_capacity=7.0)
        )
        assert result.network.physical.node("server3").capacity == pytest.approx(7.0)

    def test_capacity_change_rejects_sink(self):
        with pytest.raises(ModelError):
            apply_event(
                figure1_network(),
                CapacityChange(at_iteration=1, node="sink1", new_capacity=5.0),
            )

    def test_link_failure_prunes_edges(self):
        net = figure1_network()
        result = apply_event(
            net, LinkFailure(at_iteration=1, link=("server2", "server4"))
        )
        s1 = result.network.commodity("S1")
        assert ("server2", "server4") not in s1.edges
        assert not result.dropped_commodities  # alternate paths exist

    def test_link_failure_drops_stranded_commodity(self):
        net = figure1_network()
        # S2's chain is 7 -> 3 -> 5 -> 8 -> sink2; cutting 3->5 strands it
        result = apply_event(
            net, LinkFailure(at_iteration=1, link=("server3", "server5"))
        )
        assert result.dropped_commodities == ["S2"]
        names = [c.name for c in result.network.commodities]
        assert names == ["S1"]

    def test_node_failure(self):
        net = figure1_network()
        result = apply_event(net, NodeFailure(at_iteration=1, node="server2"))
        s1 = result.network.commodity("S1")
        assert all("server2" not in edge for edge in s1.edges)
        # S1 still reaches sink1 via server3
        assert not result.dropped_commodities

    def test_node_failure_unknown(self):
        with pytest.raises(ModelError):
            apply_event(figure1_network(), NodeFailure(at_iteration=1, node="x"))

    def test_event_stranding_everything_rejected(self):
        net = diamond_network()
        with pytest.raises(ModelError):
            apply_event(net, NodeFailure(at_iteration=1, node="src"))

    def test_departure_removes_commodity(self):
        net = figure1_network()
        result = apply_event(
            net, CommodityDeparture(at_iteration=1, commodity="S2")
        )
        assert [c.name for c in result.network.commodities] == ["S1"]
        # an intentional departure is not a loss; dropped stays empty
        assert result.dropped_commodities == []
        assert net.num_commodities == 2  # input untouched

    def test_departure_unknown_commodity(self):
        with pytest.raises(ModelError):
            apply_event(
                figure1_network(),
                CommodityDeparture(at_iteration=1, commodity="nope"),
            )

    def test_last_departure_rejected(self):
        net = diamond_network()
        (only,) = [c.name for c in net.commodities]
        with pytest.raises(ModelError):
            apply_event(net, CommodityDeparture(at_iteration=1, commodity=only))

    def test_arrival_round_trip(self):
        net = figure1_network()
        s2 = net.commodity("S2")
        smaller = apply_event(
            net, CommodityDeparture(at_iteration=1, commodity="S2")
        ).network
        back = apply_event(
            smaller, CommodityArrival(at_iteration=2, commodity=s2)
        ).network
        assert sorted(c.name for c in back.commodities) == ["S1", "S2"]
        assert back.commodity("S2") is s2  # shared, not copied

    def test_arrival_duplicate_name_rejected(self):
        net = figure1_network()
        with pytest.raises(ModelError):
            apply_event(
                net,
                CommodityArrival(at_iteration=1, commodity=net.commodity("S1")),
            )

    def test_event_constructor_validation(self):
        with pytest.raises(ModelError):
            CommodityArrival(at_iteration=1, commodity=None)
        with pytest.raises(ModelError):
            CommodityDeparture(at_iteration=1, commodity="")


class TestRemapRouting:
    def test_identity_when_topology_unchanged(self):
        net = figure1_network()
        ext = build_extended_network(net)
        result = GradientAlgorithm(
            ext, GradientConfig(eta=0.05, max_iterations=500)
        ).run()
        rebuilt = apply_event(
            net, DemandChange(at_iteration=1, commodity="S1", new_rate=20.0)
        )
        new_ext = build_extended_network(rebuilt.network)
        carried = remap_routing(ext, result.solution.routing, new_ext)
        validate_routing(new_ext, carried)
        # identical edge structure => identical fractions
        np.testing.assert_allclose(
            np.sort(carried.phi[carried.phi > 0]),
            np.sort(result.solution.routing.phi[result.solution.routing.phi > 0]),
            rtol=1e-9,
        )

    def test_redistributes_after_link_failure(self):
        net = figure1_network()
        ext = build_extended_network(net)
        result = GradientAlgorithm(
            ext, GradientConfig(eta=0.05, max_iterations=800)
        ).run()
        rebuilt = apply_event(
            net, LinkFailure(at_iteration=1, link=("server2", "server4"))
        )
        new_ext = build_extended_network(rebuilt.network, require_connected=False)
        carried = remap_routing(ext, result.solution.routing, new_ext)
        validate_routing(new_ext, carried)

    def test_fresh_nodes_get_default(self):
        """A node whose out-mass entirely vanished falls back to defaults."""
        net = figure1_network()
        ext = build_extended_network(net)
        routing = initial_routing(ext)
        rebuilt = apply_event(
            net, LinkFailure(at_iteration=1, link=("server3", "server5"))
        )
        new_ext = build_extended_network(rebuilt.network, require_connected=False)
        carried = remap_routing(ext, routing, new_ext)
        validate_routing(new_ext, carried)


class TestEmergencyShed:
    def test_no_change_when_feasible(self, diamond_ext):
        routing = initial_routing(diamond_ext)
        shed = emergency_shed(diamond_ext, routing)
        np.testing.assert_array_equal(shed.phi, routing.phi)

    def test_restores_feasibility(self):
        net = diamond_network(top_capacity=3.0, bottom_capacity=3.0,
                              source_capacity=100.0, max_rate=30.0)
        ext = build_extended_network(net)
        routing = initial_routing(ext)
        view = ext.commodities[0]
        routing.phi[0, view.input_edge] = 1.0  # wildly oversubscribed
        routing.phi[0, view.difference_edge] = 0.0
        shed = emergency_shed(ext, routing, utilization_target=0.98)
        report = feasibility_report(ext, shed)
        assert report.max_utilization <= 0.981
        assert shed.phi[0, view.input_edge] < 1.0
        validate_routing(ext, shed)

    def test_interior_split_preserved(self):
        net = diamond_network(top_capacity=3.0, bottom_capacity=3.0,
                              source_capacity=100.0, max_rate=30.0)
        ext = build_extended_network(net)
        routing = initial_routing(ext)
        view = ext.commodities[0]
        routing.phi[0, view.input_edge] = 1.0
        routing.phi[0, view.difference_edge] = 0.0
        src = view.source
        out = ext.commodity_out_edges[0][src]
        routing.phi[0, out[0]], routing.phi[0, out[1]] = 0.7, 0.3
        shed = emergency_shed(ext, routing)
        assert shed.phi[0, out[0]] == pytest.approx(0.7)
        assert shed.phi[0, out[1]] == pytest.approx(0.3)

    def test_rejects_bad_target(self, diamond_ext):
        with pytest.raises(ModelError):
            emergency_shed(diamond_ext, initial_routing(diamond_ext), 0.0)


class TestOrchestrator:
    def test_rejects_simultaneous_events(self):
        net = figure1_network()
        events = [
            DemandChange(at_iteration=5, commodity="S1", new_rate=20.0),
            DemandChange(at_iteration=5, commodity="S2", new_rate=20.0),
        ]
        with pytest.raises(ModelError):
            OnlineOrchestrator(net, events)

    def test_rejects_zero_iterations(self):
        orch = OnlineOrchestrator(figure1_network(), [])
        with pytest.raises(ModelError):
            orch.run(0)

    def test_quiet_run_matches_plain_gradient(self):
        net = figure1_network()
        orch = OnlineOrchestrator(net, [], GradientConfig(eta=0.05))
        result = orch.run(600)
        ext = build_extended_network(net)
        plain = GradientAlgorithm(
            ext,
            GradientConfig(eta=0.05, max_iterations=600, tolerance=0.0,
                           patience=10**9),
        ).run()
        assert result.final_utility == pytest.approx(
            plain.history[-1].utility, rel=1e-9
        )

    def test_demand_surge_recovery(self):
        net = figure1_network()
        events = [DemandChange(at_iteration=400, commodity="S1", new_rate=30.0)]
        result = OnlineOrchestrator(net, events, GradientConfig(eta=0.05)).run(1200)
        (report,) = result.recoveries
        assert report.new_optimal_utility > report.pre_event_utility
        assert report.iterations_to_95 is not None
        assert result.final_utility >= 0.95 * report.new_optimal_utility

    def test_link_failure_drops_and_recovers(self):
        net = figure1_network()
        events = [LinkFailure(at_iteration=400, link=("server3", "server5"))]
        result = OnlineOrchestrator(net, events, GradientConfig(eta=0.05)).run(1200)
        (report,) = result.recoveries
        assert report.dropped_commodities == ["S2"]
        assert report.new_optimal_utility < report.pre_event_utility
        assert result.final_utility >= 0.95 * report.new_optimal_utility

    def test_warm_start_no_worse_than_cold(self):
        net = figure1_network()
        events = [NodeFailure(at_iteration=500, node="server2")]
        warm = OnlineOrchestrator(
            net, events, GradientConfig(eta=0.05), warm_start=True
        ).run(1500)
        cold = OnlineOrchestrator(
            net, events, GradientConfig(eta=0.05), warm_start=False
        ).run(1500)
        (warm_report,) = warm.recoveries
        (cold_report,) = cold.recoveries
        assert warm_report.iterations_to_95 is not None
        assert cold_report.iterations_to_95 is not None
        assert warm_report.iterations_to_95 <= cold_report.iterations_to_95

    def test_records_carry_event_labels(self):
        net = figure1_network()
        events = [CapacityChange(at_iteration=100, node="server3", new_capacity=10.0)]
        result = OnlineOrchestrator(net, events, GradientConfig(eta=0.05)).run(300)
        labels = [r.event for r in result.records if r.event]
        assert labels == ["CapacityChange"]

    def test_incremental_matches_legacy_bitwise(self):
        """The delta path is an optimisation, not a different algorithm:
        the whole timeline must land on the exact same utility."""
        net = figure1_network()
        events = [
            DemandChange(at_iteration=150, commodity="S1", new_rate=25.0),
            CapacityChange(at_iteration=300, node="server3", new_capacity=9.0),
            LinkFailure(at_iteration=450, link=("server2", "server4")),
        ]
        fast = OnlineOrchestrator(
            net, events, GradientConfig(eta=0.05), incremental=True
        ).run(600)
        slow = OnlineOrchestrator(
            net, events, GradientConfig(eta=0.05), incremental=False
        ).run(600)
        assert fast.final_utility == slow.final_utility  # bit-identical
        for a, b in zip(fast.records, slow.records):
            assert a.utility == b.utility

    def test_incremental_reports_epochs(self):
        net = figure1_network()
        events = [
            DemandChange(at_iteration=50, commodity="S1", new_rate=25.0),
            LinkFailure(at_iteration=100, link=("server2", "server4")),
        ]
        result = OnlineOrchestrator(
            net, events, GradientConfig(eta=0.05), incremental=True
        ).run(200)
        assert [r.epoch for r in result.recoveries] == [1, 2]
