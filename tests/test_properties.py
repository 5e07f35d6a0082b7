"""Cross-module property-based tests (hypothesis).

These encode the structural invariants the whole system rests on, checked
over randomised routings, workloads, and events rather than hand-picked
cases.  The generators live in :mod:`repro.validate.strategies` so the CI
fuzz sweep and the differential oracle draw from the same distribution;
example counts are governed by the profiles registered in ``conftest.py``
(``HYPOTHESIS_PROFILE=ci`` for the thorough sweep).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import build_extended_network
from repro.core.gradient import GradientAlgorithm, GradientConfig
from repro.core.marginals import CostModel, evaluate_cost
from repro.core.routing import (
    admitted_rates,
    commodity_edge_flows,
    feasibility_report,
    resource_usage,
    solve_traffic,
    validate_routing,
)
from repro.io import network_to_dict
from repro.online import LinkFailure, apply_event, carry_routing, emergency_shed
from repro.validate.strategies import (
    named_extended_network,
    network_names,
    random_routing,
    seeds,
    small_random_spec,
)
from repro.scenarios import diamond_network, figure1_network, random_stream_network


class TestFlowConservation:
    """Eq. (7): gain-aware conservation at every interior node, for any phi."""

    @given(seed=seeds(), name=network_names())
    def test_conservation_holds(self, seed, name):
        ext = named_extended_network(name)
        routing = random_routing(ext, seed)
        traffic = solve_traffic(ext, routing)
        flows = commodity_edge_flows(ext, routing, traffic)
        for view in ext.commodities:
            j = view.index
            for node in view.node_indices:
                if node == view.sink:
                    continue
                outflow = sum(
                    flows[j, e] for e in ext.commodity_out_edges[j][node]
                )
                inflow = sum(
                    ext.gain[j, e] * flows[j, e]
                    for e in ext.in_edges[node]
                    if ext.allowed[j, e]
                )
                external = view.max_rate if node == view.dummy else 0.0
                assert outflow == pytest.approx(inflow + external, abs=1e-9)

    @given(seed=seeds())
    def test_traffic_scales_linearly_with_phi_split(self, seed):
        """Admitted rate equals lambda times the input fraction."""
        ext = named_extended_network("figure1")
        routing = random_routing(ext, seed)
        admitted = admitted_rates(ext, routing)
        for view in ext.commodities:
            expected = view.max_rate * routing.phi[view.index, view.input_edge]
            assert admitted[view.index] == pytest.approx(expected, abs=1e-9)


class TestObjectiveIdentities:
    @given(seed=seeds(), eps=st.floats(0.01, 1.0))
    def test_utility_plus_loss_is_offered_value(self, seed, eps):
        ext = named_extended_network("figure1")
        routing = random_routing(ext, seed)
        breakdown = evaluate_cost(ext, routing, CostModel(eps=eps))
        offered = sum(
            float(v.utility.value(v.max_rate)) for v in ext.commodities
        )
        assert breakdown.utility + breakdown.utility_loss == pytest.approx(
            offered, rel=1e-9
        )

    @given(seed=seeds())
    def test_cost_nonnegative_and_finite(self, seed):
        ext = named_extended_network("diamond")
        routing = random_routing(ext, seed)
        breakdown = evaluate_cost(ext, routing, CostModel(eps=0.2))
        assert np.isfinite(breakdown.total)
        assert breakdown.utility_loss >= -1e-9
        assert breakdown.penalty >= -1e-9


class TestGammaInvariants:
    @given(seed=seeds(), eta=st.floats(0.001, 0.3))
    def test_step_preserves_validity_and_boundedness(self, seed, eta):
        ext = named_extended_network("diamond")
        algo = GradientAlgorithm(ext, GradientConfig(eta=eta))
        routing = random_routing(ext, seed)
        for __ in range(3):
            routing = algo.step(routing)
            validate_routing(ext, routing)
            admitted = admitted_rates(ext, routing)
            assert np.all(admitted <= ext.commodity_max_rates + 1e-9)
            assert np.all(admitted >= -1e-9)


class TestOnlineInvariants:
    @given(
        seed=seeds(),
        link_index=st.integers(0, 13),
    )
    def test_remap_after_any_single_link_failure_is_valid(self, seed, link_index):
        network = figure1_network()
        links = sorted(network.physical.links)
        link = links[link_index % len(links)]
        ext = named_extended_network("figure1")
        routing = random_routing(ext, seed)
        try:
            rebuilt = apply_event(network, LinkFailure(at_iteration=1, link=link))
        except Exception:
            return  # event stranded everything; nothing to check
        new_ext = build_extended_network(rebuilt.network, require_connected=False)
        carried = carry_routing(ext, routing, new_ext)
        validate_routing(new_ext, carried)

    @given(seed=seeds(), target=st.floats(0.3, 1.0))
    def test_emergency_shed_meets_any_target(self, seed, target):
        ext = build_extended_network(
            diamond_network(top_capacity=3.0, bottom_capacity=3.0,
                            source_capacity=100.0, max_rate=30.0)
        )
        routing = random_routing(ext, seed)
        shed = emergency_shed(ext, routing, utilization_target=target)
        report = feasibility_report(ext, shed)
        assert report.max_utilization <= target * (1 + 1e-6) + 1e-9
        validate_routing(ext, shed)


class TestUsageMonotonicity:
    @given(seed=seeds(), bump=st.floats(0.01, 0.5))
    def test_admitting_more_never_reduces_usage(self, seed, bump):
        """Shifting dummy mass from the difference link to the input link
        weakly increases resource usage at every node."""
        ext = named_extended_network("diamond")
        routing = random_routing(ext, seed)
        view = ext.commodities[0]
        phi_in = routing.phi[0, view.input_edge]
        room = 1.0 - phi_in
        more = routing.copy()
        more.phi[0, view.input_edge] = phi_in + bump * room
        more.phi[0, view.difference_edge] = 1.0 - (phi_in + bump * room)
        __, base_usage = resource_usage(ext, routing)
        __, more_usage = resource_usage(ext, more)
        finite = np.isfinite(ext.capacity)
        assert np.all(more_usage[finite] >= base_usage[finite] - 1e-9)


class TestSeedDeterminism:
    """``random_stream_network`` is a pure function of (spec, seed)."""

    @given(seed=st.integers(0, 10**4))
    def test_same_seed_same_network(self, seed):
        spec = small_random_spec()
        a = random_stream_network(spec, seed=seed)
        b = random_stream_network(spec, seed=seed)
        assert network_to_dict(a) == network_to_dict(b)

    def test_different_seeds_differ(self):
        spec = small_random_spec()
        docs = {
            str(network_to_dict(random_stream_network(spec, seed=s)))
            for s in range(8)
        }
        assert len(docs) > 1
