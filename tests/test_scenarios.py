"""Tests for the declarative scenario layer (``repro.scenarios``)."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ModelError
from repro.online import OnlineOrchestrator
from repro.scenarios import (
    ChurnSpec,
    DemandSpec,
    FailureSpec,
    FatTreeSpec,
    IspSpec,
    PlacementSpec,
    ScenarioSpec,
    TopologySpec,
    churn_network,
    churn_trace,
    fat_tree_network,
    fat_tree_requests,
    isp_network,
    isp_requests,
    register_scenario,
    scenario,
    scenario_names,
    scenario_summaries,
)


def combo_spec() -> ScenarioSpec:
    """A spec exercising every component slot at small size."""
    return ScenarioSpec(
        name="combo",
        topology=TopologySpec("fat-tree", {"k": 4, "num_streams": 2}),
        demand=DemandSpec("diurnal", {"num_samples": 4, "iteration_gap": 8}),
        failures=FailureSpec("correlated", {"num_bursts": 1, "cluster_size": 2}),
        placement=PlacementSpec("joint", {"rounds": 1}),
        seed=3,
    )


class TestSpecRoundTrip:
    def test_json_round_trip_exact(self):
        spec = combo_spec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_dict_round_trip_and_hash(self):
        spec = combo_spec()
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert hash(clone) == hash(spec)
        assert json.dumps(spec.to_dict()) == json.dumps(clone.to_dict())

    def test_param_order_is_canonical(self):
        a = TopologySpec("fat-tree", {"k": 4, "num_streams": 2})
        b = TopologySpec("fat-tree", {"num_streams": 2, "k": 4})
        assert a == b
        assert hash(a) == hash(b)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ModelError):
            TopologySpec("mesh")
        with pytest.raises(ModelError):
            DemandSpec("sawtooth")
        with pytest.raises(ModelError):
            FailureSpec("meteor")
        with pytest.raises(ModelError):
            PlacementSpec("oracle")

    def test_unknown_field_rejected(self):
        doc = combo_spec().to_dict()
        doc["surprise"] = 1
        with pytest.raises(ModelError):
            ScenarioSpec.from_dict(doc)

    def test_with_seed(self):
        spec = combo_spec()
        reseeded = spec.with_seed(9)
        assert reseeded.seed == 9
        assert reseeded.topology == spec.topology
        assert spec.seed == 3  # frozen: original untouched


class TestCompileDeterminism:
    def test_timeline_byte_identical(self):
        spec = ScenarioSpec(
            name="det",
            topology=TopologySpec(
                "churn-random", {"num_nodes": 20, "num_commodities": 4}
            ),
            demand=DemandSpec("churn", {"num_events": 12}),
            seed=17,
        )
        a = spec.compile()
        b = spec.compile()
        assert repr(a.events) == repr(b.events)
        assert len(a.network.physical.links) == len(b.network.physical.links)

    def test_seed_changes_timeline(self):
        spec = ScenarioSpec(
            name="det",
            topology=TopologySpec(
                "churn-random", {"num_nodes": 20, "num_commodities": 4}
            ),
            demand=DemandSpec("churn", {"num_events": 12}),
            seed=17,
        )
        assert repr(spec.compile().events) != repr(
            spec.with_seed(18).compile().events
        )

    def test_churn_parity_with_legacy_generators(self):
        # the spec path must reproduce the legacy two-step generation
        # bit-for-bit (network at seed, trace at seed + 1) -- the committed
        # benchmark baselines depend on it
        spec = ScenarioSpec(
            name="parity",
            topology=TopologySpec(
                "churn-random", {"num_nodes": 20, "num_commodities": 4}
            ),
            demand=DemandSpec("churn", {"num_events": 12}),
            seed=17,
        )
        compiled = spec.compile()
        network = churn_network(num_nodes=20, num_commodities=4, seed=17)
        events = churn_trace(network, ChurnSpec(num_events=12), seed=18)
        assert repr(compiled.events) == repr(events)

    def test_compiled_horizon_clears_last_event(self):
        compiled = scenario("churn-smoke-20").compile()
        assert compiled.events
        assert compiled.horizon() > max(e.at_iteration for e in compiled.events)


class TestFatTreeInvariants:
    def test_strata_counts(self):
        physical, requests, placements = fat_tree_requests(
            FatTreeSpec(k=4, num_streams=2), seed=0
        )
        names = set(physical.nodes)
        hosts = {n for n in names if n.startswith("h")}
        edges = {n for n in names if n.startswith("e")}
        aggs = {n for n in names if n.startswith("a")}
        cores = {n for n in names if n.startswith("c")}
        sinks = {n for n in names if n.startswith("sink")}
        assert len(hosts) == 16  # k^3/4
        assert len(edges) == len(aggs) == 8  # k * k/2
        assert len(cores) == 4  # (k/2)^2
        assert len(sinks) == 2
        assert names == hosts | edges | aggs | cores | sinks

    def test_degrees(self):
        physical, __, __ = fat_tree_requests(FatTreeSpec(k=4, num_streams=1), seed=0)
        # every host uplinks to exactly one edge switch
        for name in physical.nodes:
            if name.startswith("h"):
                up = [
                    link.head
                    for link in physical.out_links(name)
                    if link.head.startswith("e")
                ]
                assert len(up) == 1
            if name.startswith("c"):
                # each core reaches one aggregation switch per pod
                down = {
                    link.head
                    for link in physical.out_links(name)
                    if link.head.startswith("a")
                }
                assert len(down) == 4

    def test_cross_pod_distance_is_six_hops(self):
        physical, __, __ = fat_tree_requests(FatTreeSpec(k=4, num_streams=1), seed=0)
        dist = {"h0_0": 0}
        frontier = ["h0_0"]
        while frontier:
            nxt = []
            for u in frontier:
                for link in physical.out_links(u):
                    if link.head not in dist:
                        dist[link.head] = dist[u] + 1
                        nxt.append(link.head)
            frontier = nxt
        assert dist["h1_0"] == 6  # up edge/agg/core, down agg/edge/host

    def test_network_materializes_and_validates(self):
        network = fat_tree_network(FatTreeSpec(k=4, num_streams=2), seed=1)
        assert len(network.commodities) == 2
        for commodity in network.commodities:
            # 7 chain stages then the sink: the longest source->sink path
            # in the commodity DAG has exactly 8 nodes
            order = commodity.topological_order()
            assert order[0] == commodity.source
            longest = {node: 1 for node in commodity.nodes}
            for tail, head in sorted(
                commodity.edges, key=lambda e: order.index(e[0])
            ):
                longest[head] = max(longest[head], longest[tail] + 1)
            assert max(longest.values()) == 8


class TestIspInvariants:
    def test_router_count_and_edge_budget(self):
        spec = IspSpec(num_routers=16, attachment=2, num_streams=2)
        physical, requests, __ = isp_requests(spec, seed=0)
        routers = [n for n in physical.nodes if n.startswith("r")]
        assert len(routers) == 16
        router_links = [
            (t, h)
            for t, h in physical.links
            if t.startswith("r") and h.startswith("r")
        ]
        # BA(n, m) has m*(n-m) undirected edges; both directions are added
        assert len(router_links) == 2 * 2 * (16 - 2)

    def test_connected(self):
        physical, __, __ = isp_requests(IspSpec(num_routers=16), seed=0)
        routers = {n for n in physical.nodes if n.startswith("r")}
        seen = {"r0"}
        frontier = ["r0"]
        while frontier:
            nxt = []
            for u in frontier:
                for link in physical.out_links(u):
                    if link.head in routers and link.head not in seen:
                        seen.add(link.head)
                        nxt.append(link.head)
            frontier = nxt
        assert seen == routers

    def test_exact_hop_strata(self):
        spec = IspSpec(num_routers=16, num_streams=2)
        physical, requests, placements = isp_requests(spec, seed=0)
        adj = {n: [] for n in physical.nodes if n.startswith("r")}
        for t, h in physical.links:
            if t.startswith("r") and h.startswith("r"):
                adj[t].append(h)

        def bfs(start):
            dist = {start: 0}
            frontier = [start]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in adj[u]:
                        if v not in dist:
                            dist[v] = dist[u] + 1
                            nxt.append(v)
                frontier = nxt
            return dist

        for request in requests:
            layers = placements[request.name]
            dist = bfs(request.source)
            for level, task in enumerate(request.tasks):
                for host in layers[task.name]:
                    assert dist[host] == level
        lo, hi = spec.chain_range
        for request in requests:
            assert lo + 1 <= len(request.tasks) <= hi + 1

    def test_network_materializes_and_validates(self):
        network = isp_network(IspSpec(num_routers=16, num_streams=2), seed=3)
        assert len(network.commodities) == 2


class TestTimelineReplay:
    """Compiled timelines must replay through the orchestrator unchanged."""

    def _run(self, spec: ScenarioSpec):
        compiled = spec.compile()
        orchestrator = OnlineOrchestrator(compiled.network, compiled.events)
        result = orchestrator.run(compiled.horizon())
        assert len(result.recoveries) == len(compiled.events)
        return result

    def test_diurnal(self):
        self._run(
            ScenarioSpec(
                name="d",
                topology=TopologySpec(
                    "churn-random", {"num_nodes": 20, "num_commodities": 4}
                ),
                demand=DemandSpec(
                    "diurnal", {"num_samples": 4, "iteration_gap": 8}
                ),
                seed=5,
            )
        )

    def test_flash_crowd(self):
        self._run(
            ScenarioSpec(
                name="f",
                topology=TopologySpec(
                    "churn-random", {"num_nodes": 20, "num_commodities": 4}
                ),
                demand=DemandSpec(
                    "flash-crowd",
                    {"num_samples": 5, "spike_sample": 1, "iteration_gap": 8},
                ),
                seed=5,
            )
        )

    def test_correlated_failures_merge_with_demand(self):
        result = self._run(
            ScenarioSpec(
                name="c",
                topology=TopologySpec(
                    "churn-random", {"num_nodes": 20, "num_commodities": 4}
                ),
                demand=DemandSpec(
                    "diurnal", {"num_samples": 3, "iteration_gap": 8}
                ),
                failures=FailureSpec(
                    "correlated",
                    {"num_bursts": 1, "cluster_size": 2, "start_iteration": 40},
                ),
                seed=5,
            )
        )
        assert result.final_utility > 0

    def test_orchestrator_from_scenario(self):
        orchestrator = OnlineOrchestrator.from_scenario("churn-smoke-20")
        compiled = scenario("churn-smoke-20").compile()
        result = orchestrator.run(compiled.horizon())
        assert len(result.recoveries) == len(compiled.events)

    def test_orchestrator_from_scenario_rejects_junk(self):
        with pytest.raises(ModelError):
            OnlineOrchestrator.from_scenario(42)


class TestRegistry:
    def test_unknown_name_lists_catalog(self):
        with pytest.raises(ModelError, match="churn-120"):
            scenario("definitely-not-a-scenario")

    def test_seed_override(self):
        assert scenario("churn-120").seed == 17
        assert scenario("churn-120", seed=99).seed == 99

    def test_register_requires_overwrite(self):
        spec = combo_spec()
        name = "test-registry-entry"
        try:
            register_scenario(name, spec, "a test entry")
            assert name in scenario_names()
            with pytest.raises(ModelError):
                register_scenario(name, spec, "again")
            register_scenario(name, spec.with_seed(4), "again", overwrite=True)
            assert scenario(name).seed == 4
        finally:
            from repro.scenarios import registry

            registry._CATALOG.pop(name, None)
            registry._DESCRIPTIONS.pop(name, None)

    def test_summaries_shape(self):
        rows = scenario_summaries()
        assert len(rows) >= 20
        for row in rows:
            assert set(row) == {
                "name",
                "description",
                "topology",
                "demand",
                "failures",
                "placement",
                "seed",
            }

    def test_smoke_entries_compile(self):
        for name in ("churn-smoke-20", "serve-demo-24", "flash-crowd-30"):
            compiled = scenario(name).compile()
            assert compiled.events


class TestHypothesisStrategy:
    def test_scenario_specs_strategy_round_trips(self):
        from hypothesis import given, settings
        from repro.validate.strategies import scenario_specs

        @given(scenario_specs())
        @settings(max_examples=10, deadline=None)
        def check(spec):
            assert ScenarioSpec.from_json(spec.to_json()) == spec

        check()
