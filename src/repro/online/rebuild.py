"""Apply network events to the stream network, and shed load after them.

Two jobs:

* :func:`apply_event` -- produce a *new* :class:`StreamNetwork` reflecting a
  demand change, capacity change, link/node failure, or commodity
  arrival/departure.  Commodities whose sink becomes unreachable are dropped
  (and reported): their traffic simply cannot be served any more.  Commodity
  objects untouched by the event are *shared* with the input network, which
  is what lets the delta compiler (:mod:`repro.core.delta`) detect the dirty
  set by object identity.  The routing state crosses the event through
  :func:`repro.core.delta.carry_routing`.
* :func:`emergency_shed` -- after a capacity-reducing event the carried
  routing may oversubscribe surviving nodes.  This scales every commodity's
  admission down (moving the surplus onto the dummy difference link -- the
  transformation's built-in load-shedding path) until the hard capacities
  hold again, by one closed-form admission factor.  This is the
  "load shedding on failure" reflex a production system would wire to the
  same mechanism; the serve session also uses it, restricted to the
  commodities at over-capacity nodes, to project a refined routing back
  onto capacity before publishing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.commodity import Commodity, StreamNetwork
from repro.core.network import NodeKind, PhysicalNetwork
from repro.core.routing import RoutingState, feasibility_report, solve_traffic
from repro.core.transform import ExtendedNetwork
from repro.exceptions import ModelError, ValidationError
from repro.online.events import (
    CapacityChange,
    CommodityArrival,
    CommodityDeparture,
    DemandChange,
    LinkFailure,
    NetworkEvent,
    NodeFailure,
)

Edge = Tuple[str, str]

__all__ = [
    "RebuildResult",
    "apply_event",
    "apply_scalar_overrides",
    "emergency_shed",
]


class RebuildResult:
    """Outcome of applying one event: the new model plus what was lost."""

    def __init__(
        self, network: StreamNetwork, dropped_commodities: List[str]
    ) -> None:
        self.network = network
        self.dropped_commodities = dropped_commodities


def _copy_physical(
    source: PhysicalNetwork,
    drop_nodes: Optional[set] = None,
    drop_links: Optional[set] = None,
) -> PhysicalNetwork:
    drop_nodes = drop_nodes or set()
    drop_links = drop_links or set()
    new = PhysicalNetwork()
    for node in source.nodes.values():
        if node.name in drop_nodes:
            continue
        if node.kind is NodeKind.SINK:
            new.add_sink(node.name)
        else:
            new.add_server(node.name, node.capacity)
    for link in source.links.values():
        if link.key in drop_links:
            continue
        if link.tail in drop_nodes or link.head in drop_nodes:
            continue
        new.add_link(link.tail, link.head, link.bandwidth)
    return new


def _rebuild_commodity(
    commodity: Commodity, physical: PhysicalNetwork
) -> Optional[Commodity]:
    """Re-derive a commodity on a (possibly reduced) physical network.

    Returns ``None`` when the sink is no longer reachable from the source
    (or the reduced subgraph is otherwise unservable).  Only the expected
    :class:`ValidationError` is treated as "commodity lost"; anything else
    is a real bug and propagates.
    """
    surviving = [e for e in commodity.edges if physical.has_link(*e)]
    if commodity.source not in physical.nodes or commodity.sink not in physical.nodes:
        return None
    try:
        return Commodity.from_subgraph(
            name=commodity.name,
            source=commodity.source,
            sink=commodity.sink,
            max_rate=commodity.max_rate,
            edges=surviving,
            potentials={
                n: commodity.potentials[n]
                for e in surviving
                for n in e
            },
            costs={e: commodity.costs[e] for e in surviving},
            utility=commodity.utility,
            prune=True,
        )
    except ValidationError:
        return None


def apply_scalar_overrides(
    network: StreamNetwork,
    rates: Optional[Dict[str, float]] = None,
    capacities: Optional[Dict[str, float]] = None,
) -> StreamNetwork:
    """The post-run network for a run of scalar events, in one pass.

    Equivalent to chaining the corresponding :class:`DemandChange` /
    :class:`CapacityChange` events with last-write-wins values: scalar
    events cannot change topology, so only the final value per target
    matters.  A new rate is a value copy of its commodity
    (:meth:`~repro.core.commodity.Commodity.with_max_rate`) and a new
    capacity one replaced node on a copy of the physical network; every
    other object is shared and nothing is re-derived.  Both scalar
    branches of :func:`apply_event` and the delta compiler's scalar runs
    (:func:`repro.core.delta.compile_scalar_run`) come through here.

    Raises :class:`~repro.exceptions.ModelError` on unknown names and sink
    capacity changes.
    """
    rates = rates or {}
    capacities = capacities or {}
    for name in rates:
        network.commodity(name)  # raises on unknown name
    physical = network.physical
    if capacities:
        physical = physical.copy()
        for node, capacity in capacities.items():
            physical.set_capacity(node, capacity)  # raises on unknown/sink
    commodities = [
        c.with_max_rate(rates[c.name]) if c.name in rates else c
        for c in network.commodities
    ]
    return StreamNetwork(physical=physical, commodities=commodities)


def apply_event(network: StreamNetwork, event: NetworkEvent) -> RebuildResult:
    """Return the post-event model; never mutates the input network.

    Commodities the event does not touch are carried over as the *same*
    objects (no deep copy, no re-derivation): a ``DemandChange`` copies
    only its target at the new rate, a ``CapacityChange`` shares every
    commodity (commodities do not reference node capacities), failures
    rebuild only the commodities whose subgraph contains the failed
    element.  The delta compiler keys its dirty-set detection off exactly
    this sharing.
    """
    if isinstance(event, DemandChange):
        rates = {event.commodity: event.new_rate}
        return RebuildResult(apply_scalar_overrides(network, rates=rates), [])

    if isinstance(event, CapacityChange):
        capacities = {event.node: event.new_capacity}
        return RebuildResult(
            apply_scalar_overrides(network, capacities=capacities), []
        )

    if isinstance(event, CommodityArrival):
        arriving = event.commodity
        if arriving is None:  # pragma: no cover - rejected by the event itself
            raise ModelError("CommodityArrival needs a Commodity")
        if any(c.name == arriving.name for c in network.commodities):
            raise ModelError(f"duplicate commodity {arriving.name!r}")
        if any(c.sink == arriving.sink for c in network.commodities):
            raise ModelError(
                f"sink {arriving.sink!r} already serves another commodity "
                "(paper, Section 2: one sink per commodity)"
            )
        arriving.validate_against(network.physical)
        return RebuildResult(
            StreamNetwork(
                physical=network.physical,
                commodities=list(network.commodities) + [arriving],
            ),
            [],
        )

    if isinstance(event, CommodityDeparture):
        network.commodity(event.commodity)  # raises on unknown name
        remaining = [c for c in network.commodities if c.name != event.commodity]
        if not remaining:
            raise ModelError("last commodity departed; nothing to run")
        return RebuildResult(
            StreamNetwork(physical=network.physical, commodities=remaining), []
        )

    if isinstance(event, LinkFailure):
        if not network.physical.has_link(*event.link):
            raise ModelError(f"unknown link {event.link!r}")
        physical = _copy_physical(network.physical, drop_links={event.link})
        dirty = {c.name for c in network.commodities if event.link in c.edges}
    elif isinstance(event, NodeFailure):
        if event.node not in network.physical.nodes:
            raise ModelError(f"unknown node {event.node!r}")
        if network.physical.node(event.node).is_sink:
            raise ModelError("modelling sink failure is not supported")
        physical = _copy_physical(network.physical, drop_nodes={event.node})
        dirty = {c.name for c in network.commodities if event.node in c.potentials}
    else:
        raise ModelError(f"unknown event type {type(event).__name__}")

    commodities = []
    dropped: List[str] = []
    for commodity in network.commodities:
        if commodity.name not in dirty:
            commodities.append(commodity)
            continue
        fresh = _rebuild_commodity(commodity, physical)
        if fresh is None:
            dropped.append(commodity.name)
        else:
            commodities.append(fresh)
    if not commodities:
        raise ModelError("event disconnected every commodity; nothing to run")
    return RebuildResult(
        StreamNetwork(physical=physical, commodities=commodities), dropped
    )


def emergency_shed(
    ext: ExtendedNetwork,
    routing: RoutingState,
    utilization_target: float = 0.98,
    bisection_steps: int = 40,
    *,
    overloaded_only: bool = False,
    tolerance: float = 0.0,
) -> RoutingState:
    """Scale admissions down until no node exceeds ``utilization_target``.

    Each commodity's dummy splits ``(phi_in, phi_diff)``; we scale every
    ``phi_in`` by a common factor ``s`` in ``[0, 1]`` (surplus goes to the
    difference link).  Interior routing fractions are untouched, so the
    relative path split survives -- and with the fractions fixed, every
    node's load is *linear* in ``s``, so the largest feasible scale is
    simply ``utilization_target / peak``: one feasibility report, no
    search.  ``bisection_steps`` bounds the fallback search kept for the
    (numerically pathological) case where the closed-form scale still
    verifies infeasible.

    ``overloaded_only`` scales only the commodities with traffic at a node
    above the target; the rest keep their admission.  Every node above the
    target then carries scaled commodities only, so the same closed form
    still lands the peak on the target.  ``tolerance`` is the relative slack
    over the target that still counts as met, which absorbs the rounding of
    a scale aimed exactly at the target (the serve session's projection
    back onto capacity, ``utilization_target=1.0``).
    """
    if not 0.0 < utilization_target <= 1.0:
        raise ModelError("utilization_target must be in (0, 1]")

    base = routing.copy()
    limit = utilization_target * (1.0 + tolerance)
    shed = ext.commodities

    def with_admission_scale(scale: float) -> RoutingState:
        scaled = base.copy()
        for view in shed:
            j = view.index
            admit = base.phi[j, view.input_edge] * scale
            scaled.phi[j, view.input_edge] = admit
            scaled.phi[j, view.difference_edge] = 1.0 - admit
        return scaled

    def peak_utilization(candidate: RoutingState) -> float:
        return feasibility_report(ext, candidate).max_utilization

    traffic = solve_traffic(ext, base)
    report = feasibility_report(ext, base, traffic)
    peak = report.max_utilization
    if peak <= limit:
        return base
    if overloaded_only:
        over = report.utilization > utilization_target
        crossing = (traffic[:, over] > 0.0).any(axis=1)
        shed = [view for view in ext.commodities if crossing[view.index]]
    hi = min(1.0, utilization_target / peak)
    candidate = with_admission_scale(hi)
    if peak_utilization(candidate) <= limit:
        return candidate
    lo = 0.0
    for __ in range(bisection_steps):
        mid = 0.5 * (lo + hi)
        if peak_utilization(with_admission_scale(mid)) <= limit:
            lo = mid
        else:
            hi = mid
    return with_admission_scale(lo)
