"""Delta compilation: incremental, epoch-versioned model updates.

The paper's algorithm is explicitly built to "adapt to changes" in demand
and capacity (Section V); what changes between two consecutive problem
instances is almost always tiny compared to the instance itself.  This
module turns a :class:`~repro.online.events.NetworkEvent` into a
:class:`ProblemDelta` -- a compiled patch against a concrete epoch of an
:class:`~repro.core.transform.ExtendedNetwork` -- and applies it without
recompiling the world:

* **Scalar deltas** (``DemandChange``, ``CapacityChange``) touch only
  capacity/rate arrays.  They are applied *in place*: the extended network
  keeps its identity, its cached :class:`~repro.core.state.ModelState`
  (which reads no capacity or rate) survives untouched, and the epoch
  counter bumps by one.
* **Structural deltas** (``LinkFailure``, ``NodeFailure``,
  ``CommodityArrival``, ``CommodityDeparture``) change the node/edge
  layout.  They produce a *new* ``ExtendedNetwork`` whose layout is built
  through the exact skeleton code path of
  :func:`~repro.core.transform.build_extended_network` -- so the result is
  bit-identical to a from-scratch rebuild -- but only the *dirty*
  commodities (those the event actually touched, detected by object
  identity on the shared :class:`~repro.core.commodity.Commodity` objects)
  pay for re-derivation.  Untouched commodities' cost/gain/allowed rows
  and topological orders are *remapped* onto the new index space with
  vectorized gathers.  No compiled form is carried across: the new
  network's :class:`~repro.core.state.ModelState`, the one compiled form,
  compiles from scratch in one vectorized pass on first use, which costs
  less than remapping per-commodity structures would.

Index stability is what makes the remap sound: extended nodes are keyed by
name and extended edges by ``(kind, physical link)`` or ``(kind, commodity
name)``, and events only delete from or append to the layout, so the
surviving indices stay in relative order.  When an event *does* permute
the order (a dirty commodity was the first user of a link), the affected
commodity falls back to full re-derivation -- correctness never depends on
the fast path.

:func:`carry_routing` moves a :class:`~repro.core.routing.RoutingState`
across a delta at the array level: fully surviving commodities copy their
rows verbatim, partially surviving ones renormalise per node, and nodes
with no surviving mass keep the shed-everything default -- the result is
always a valid routing decision on the new epoch.

Verification: ``repro.validate.DifferentialOracle.compare_rebuild`` replays
an event sequence through both this module and from-scratch rebuilds and
asserts bit-identity at every step (see docs/online.md).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.commodity import StreamNetwork
from repro.core.routing import RoutingState, initial_routing
from repro.core.state import GammaPlan, ModelState, Wave
from repro.core.transform import (
    ExtEdge,
    ExtEdgeKind,
    ExtNode,
    ExtSkeleton,
    ExtendedNetwork,
    _build_skeleton,
    _check_bookkeeping,
    _fill_commodity_row,
)
from repro.exceptions import ModelError

__all__ = [
    "ScalarPatch",
    "ProblemDelta",
    "IndexMaps",
    "AppliedDelta",
    "compile_event",
    "compile_scalar_run",
    "apply_delta",
    "apply_scalar_patch",
    "build_index_maps",
    "carry_routing",
    "diff_extended_networks",
]


@dataclass(frozen=True)
class ScalarPatch:
    """In-place array updates for events that keep the layout intact.

    Both entries are absolute values (not increments), so applying a patch
    twice is idempotent.
    """

    # (extended node index, new capacity)
    node_capacity: Tuple[Tuple[int, float], ...] = ()
    # (commodity index, new offered rate lambda_j)
    commodity_rate: Tuple[Tuple[int, float], ...] = ()


@dataclass(frozen=True)
class IndexMaps:
    """Old-index -> new-index translation tables across one delta.

    Entries are ``-1`` where the old element did not survive.  ``identity``
    is True when nothing moved (same sizes, every element maps to itself),
    which lets consumers skip the remap entirely.
    """

    node_map: np.ndarray  # (V_old,) -> new node index or -1
    edge_map: np.ndarray  # (E_old,) -> new edge index or -1
    commodity_map: np.ndarray  # (J_old,) -> new commodity index or -1
    identity: bool


@dataclass(frozen=True)
class ProblemDelta:
    """A compiled event: everything needed to advance one epoch.

    Compiled against a specific ``base_epoch``; applying it to any other
    epoch raises (the patch's indices would be meaningless).
    """

    base_epoch: int
    event: Any  # the NetworkEvent this delta compiles
    network: StreamNetwork  # the post-event stream network
    dropped_commodities: Tuple[str, ...]
    dirty_commodities: Tuple[str, ...]  # names needing re-derivation
    scalar: Optional[ScalarPatch] = None  # set iff the layout is unchanged

    @property
    def structural(self) -> bool:
        return self.scalar is None


@dataclass(frozen=True)
class AppliedDelta:
    """Result of :func:`apply_delta`: the new epoch plus translation maps."""

    ext: ExtendedNetwork
    delta: ProblemDelta
    maps: IndexMaps
    structural: bool

    @property
    def dropped_commodities(self) -> Tuple[str, ...]:
        return self.delta.dropped_commodities


def _identity_maps(ext: ExtendedNetwork) -> IndexMaps:
    return IndexMaps(
        node_map=np.arange(ext.num_nodes, dtype=np.intp),
        edge_map=np.arange(ext.num_edges, dtype=np.intp),
        commodity_map=np.arange(ext.num_commodities, dtype=np.intp),
        identity=True,
    )


def _edge_key(edge: ExtEdge, views: List[Any]) -> Tuple[str, Any]:
    if edge.kind in (ExtEdgeKind.PROCESSING, ExtEdgeKind.TRANSFER):
        return (edge.kind.value, edge.physical_link)
    return (edge.kind.value, views[edge.commodity].name)


def _key_tables(
    nodes: List[ExtNode], edges: List[ExtEdge], views: List[Any]
) -> Tuple[Dict[str, int], Dict[Tuple[str, Any], int]]:
    node_pos = {n.name: n.index for n in nodes}
    edge_pos = {_edge_key(e, views): e.index for e in edges}
    return node_pos, edge_pos


def build_index_maps(old: ExtendedNetwork, new: ExtendedNetwork) -> IndexMaps:
    """Translate ``old`` indices into ``new`` via the stable element keys.

    Nodes are keyed by name; processing/transfer edges by their physical
    link, dummy edges by their owning commodity's name.  Works between any
    two extended networks over related stream networks -- in particular
    between consecutive epochs, however they were built.
    """
    new_node_pos, new_edge_pos = _key_tables(new.nodes, new.edges, new.commodities)
    node_map = np.fromiter(
        (new_node_pos.get(n.name, -1) for n in old.nodes),
        dtype=np.intp,
        count=old.num_nodes,
    )
    edge_map = np.fromiter(
        (new_edge_pos.get(_edge_key(e, old.commodities), -1) for e in old.edges),
        dtype=np.intp,
        count=old.num_edges,
    )
    new_commodity_pos = {c.name: c.index for c in new.commodities}
    commodity_map = np.fromiter(
        (new_commodity_pos.get(c.name, -1) for c in old.commodities),
        dtype=np.intp,
        count=old.num_commodities,
    )
    identity = (
        old.num_nodes == new.num_nodes
        and old.num_edges == new.num_edges
        and old.num_commodities == new.num_commodities
        and bool(np.all(node_map == np.arange(old.num_nodes)))
        and bool(np.all(edge_map == np.arange(old.num_edges)))
        and bool(np.all(commodity_map == np.arange(old.num_commodities)))
    )
    return IndexMaps(
        node_map=node_map,
        edge_map=edge_map,
        commodity_map=commodity_map,
        identity=identity,
    )


def compile_event(ext: ExtendedNetwork, event: Any) -> ProblemDelta:
    """Compile ``event`` into a delta against ``ext``'s current epoch.

    A scalar event (``DemandChange``, ``CapacityChange``) is a run of one
    for :func:`compile_scalar_run`.  A structural event delegates the
    stream-network surgery to :func:`repro.online.rebuild.apply_event` and
    detects the dirty commodity set by object identity: ``apply_event``
    shares every commodity object the event does not touch.
    """
    # local imports: repro.online imports this module at load time
    from repro.online.events import CapacityChange, DemandChange
    from repro.online.rebuild import apply_event

    if isinstance(event, (DemandChange, CapacityChange)):
        return compile_scalar_run(ext, [event], event)
    result = apply_event(ext.stream_network, event)
    old_ids = {id(c) for c in ext.stream_network.commodities}
    dirty = tuple(
        c.name for c in result.network.commodities if id(c) not in old_ids
    )
    return ProblemDelta(
        base_epoch=ext.epoch,
        event=event,
        network=result.network,
        dropped_commodities=tuple(result.dropped_commodities),
        dirty_commodities=dirty,
    )


def compile_scalar_run(
    ext: ExtendedNetwork, events: Sequence[Any], label: Any
) -> ProblemDelta:
    """One scalar delta for a run of ``DemandChange``/``CapacityChange``.

    The run's values merge last-write-wins into one
    :class:`ScalarPatch` -- its entries are absolute, so the merged patch
    leaves the model exactly where applying the run one event at a time
    would -- and the post-run stream network is a value copy
    (:func:`repro.online.rebuild.apply_scalar_overrides`).  Unknown names
    and sink capacities raise :class:`~repro.exceptions.ModelError`.
    ``label`` becomes the delta's ``event``.
    """
    from repro.online.events import DemandChange
    from repro.online.rebuild import apply_scalar_overrides

    rates: Dict[str, float] = {}
    capacities: Dict[str, float] = {}
    for event in events:
        if isinstance(event, DemandChange):
            rates[event.commodity] = event.new_rate
        else:
            capacities[event.node] = event.new_capacity
    network = apply_scalar_overrides(
        ext.stream_network, rates=rates, capacities=capacities
    )
    patch = ScalarPatch(
        node_capacity=tuple(
            sorted((ext.node_index(node), cap) for node, cap in capacities.items())
        ),
        commodity_rate=tuple(
            sorted(
                (ext.commodity_view(name).index, rate)
                for name, rate in rates.items()
            )
        ),
    )
    return ProblemDelta(
        base_epoch=ext.epoch,
        event=label,
        network=network,
        dropped_commodities=(),
        dirty_commodities=(),
        scalar=patch,
    )


def apply_scalar_patch(
    ext: ExtendedNetwork,
    patch: ScalarPatch,
    network: Optional[StreamNetwork] = None,
) -> None:
    """Mutate ``ext`` in place per ``patch`` and bump its epoch.

    Every derived structure that does not depend on capacities or offered
    rates (the ``ModelState``, potentials, out-edge lists) survives
    untouched; the two lazy caches that do depend on them are invalidated.

    The patched vectors are *reallocated*, not written through: consumers
    cache loop-invariant derivations keyed on array identity (e.g. the
    penalty's ``_prepared`` tables), and "same object, new values" would
    silently serve them stale state.  A new epoch is a new array.
    """
    if patch.node_capacity:
        ext.capacity = ext.capacity.copy()
        for idx, cap in patch.node_capacity:
            ext.nodes[idx] = replace(ext.nodes[idx], capacity=cap)
            ext.capacity[idx] = cap
    if patch.commodity_rate:
        ext.commodity_max_rates = ext.commodity_max_rates.copy()
        for j, rate in patch.commodity_rate:
            ext.commodities[j].max_rate = rate
            ext.commodity_max_rates[j] = rate
    if patch.commodity_rate:
        # external inputs scale with lambda; utility-at-max is U_j(lambda_j)
        ext._external_inputs_template = None
        ext._utility_at_max = None
    if network is not None:
        ext.stream_network = network
    ext.epoch += 1


def apply_delta(ext: ExtendedNetwork, delta: ProblemDelta) -> AppliedDelta:
    """Advance ``ext`` one epoch per ``delta``.

    Scalar deltas mutate ``ext`` in place and return it; structural deltas
    return a freshly spliced network (``ext`` itself is left at its old
    epoch and remains usable, e.g. as the remap source for routing state).
    """
    if delta.base_epoch != ext.epoch:
        raise ModelError(
            f"stale delta: compiled against epoch {delta.base_epoch}, "
            f"but the network is at epoch {ext.epoch}"
        )
    if delta.scalar is not None:
        apply_scalar_patch(ext, delta.scalar, delta.network)
        return AppliedDelta(
            ext=ext, delta=delta, maps=_identity_maps(ext), structural=False
        )
    new_ext, maps = _splice(ext, delta)
    return AppliedDelta(ext=new_ext, delta=delta, maps=maps, structural=True)


def _splice_maps(
    old: ExtendedNetwork, skeleton: "ExtSkeleton"
) -> Tuple[np.ndarray, np.ndarray]:
    """Old-index -> new-index node/edge maps against a freshly built skeleton.

    The edge translation walks the two skeletons' link/commodity tables
    directly -- ``O(M + J)`` dict hops, no per-edge key tuples.  Every
    network carries its skeleton: both
    :func:`~repro.core.transform.build_extended_network` and :func:`_splice`
    set it.
    """
    # NB: skeleton.name_to_index covers only the physical nodes (it is built
    # before the bandwidth/dummy blocks are laid out); the remap needs every
    # extended node
    new_node_pos = {n.name: n.index for n in skeleton.nodes}
    node_map = np.fromiter(
        (new_node_pos.get(n.name, -1) for n in old.nodes),
        dtype=np.intp,
        count=old.num_nodes,
    )

    old_skel = old._skeleton
    edge_map = np.full(old.num_edges, -1, dtype=np.intp)
    for link, old_idx in old_skel.processing_edge_of.items():
        new_idx = skeleton.processing_edge_of.get(link)
        if new_idx is not None:
            edge_map[old_idx] = new_idx
    for link, old_idx in old_skel.transfer_edge_of.items():
        new_idx = skeleton.transfer_edge_of.get(link)
        if new_idx is not None:
            edge_map[old_idx] = new_idx
    new_views = {v.name: v for v in skeleton.views}
    for old_view in old_skel.views:
        new_view = new_views.get(old_view.name)
        if new_view is not None:
            edge_map[old_view.input_edge] = new_view.input_edge
            edge_map[old_view.difference_edge] = new_view.difference_edge
    return node_map, edge_map


def _splice(
    old: ExtendedNetwork, delta: ProblemDelta
) -> Tuple[ExtendedNetwork, IndexMaps]:
    """Build the post-event extended network, re-deriving only dirty rows."""
    network = delta.network
    skeleton = _build_skeleton(network)
    num_edges = len(skeleton.edges)
    num_commodities = len(skeleton.views)
    cost = np.zeros((num_commodities, num_edges), dtype=float)
    gain = np.ones((num_commodities, num_edges), dtype=float)
    allowed = np.zeros((num_commodities, num_edges), dtype=bool)

    # old -> new translation via the stable keys, against the new skeleton
    node_map, edge_map = _splice_maps(old, skeleton)
    new_commodity_pos = {v.name: v.index for v in skeleton.views}
    commodity_map = np.fromiter(
        (new_commodity_pos.get(c.name, -1) for c in old.commodities),
        dtype=np.intp,
        count=old.num_commodities,
    )

    dirty = set(delta.dirty_commodities)
    old_views = {c.name: c for c in old.commodities}
    for j, commodity in enumerate(network.commodities):
        view = skeleton.views[j]
        old_view = old_views.get(commodity.name)
        if commodity.name in dirty or old_view is None:
            _fill_commodity_row(j, commodity, skeleton, cost, gain, allowed)
            continue
        old_edges = np.asarray(old_view.edge_indices, dtype=np.intp)
        old_nodes = np.asarray(old_view.node_indices, dtype=np.intp)
        mapped_edges = edge_map[old_edges]
        mapped_nodes = node_map[old_nodes]
        monotone = (
            bool(np.all(mapped_edges >= 0))
            and bool(np.all(mapped_nodes >= 0))
            and bool(np.all(np.diff(mapped_edges) > 0))
            and bool(np.all(np.diff(mapped_nodes) > 0))
        )
        if not monotone:
            # the event permuted this commodity's index neighbourhood (e.g.
            # the first user of a shared link changed); re-derive instead of
            # remapping -- rare, and correct either way
            _fill_commodity_row(j, commodity, skeleton, cost, gain, allowed)
            continue
        jo = old_view.index
        cost[j, mapped_edges] = old.cost[jo, old_edges]
        gain[j, mapped_edges] = old.gain[jo, old_edges]
        allowed[j, mapped_edges] = True
        view.edge_indices = mapped_edges.tolist()
        view.node_indices = mapped_nodes.tolist()
        view.topo_order = node_map[
            np.asarray(old_view.topo_order, dtype=np.intp)
        ].tolist()

    new_ext = ExtendedNetwork(
        nodes=skeleton.nodes,
        edges=skeleton.edges,
        commodities=skeleton.views,
        cost=cost,
        gain=gain,
        allowed=allowed,
        stream_network=network,
    )
    _check_bookkeeping(
        new_ext,
        network.physical.num_nodes,
        len(skeleton.used_links),
        num_commodities,
    )
    new_ext.epoch = old.epoch + 1
    new_ext._skeleton = skeleton

    maps = IndexMaps(
        node_map=node_map,
        edge_map=edge_map,
        commodity_map=commodity_map,
        identity=False,
    )
    return new_ext, maps


def carry_routing(
    old_ext: ExtendedNetwork,
    old_routing: RoutingState,
    new_ext: ExtendedNetwork,
    maps: Optional[IndexMaps] = None,
) -> RoutingState:
    """Translate a routing state across a delta at the array level.

    Fully surviving commodities copy their rows verbatim; partially
    surviving ones scatter what survived and renormalise per node (nodes
    with no surviving mass keep the shed-everything default of
    :func:`~repro.core.routing.initial_routing`).  The result is always a
    valid routing decision on ``new_ext``.
    """
    if maps is None:
        maps = build_index_maps(old_ext, new_ext)
    if maps.identity:
        return old_routing.copy()
    routing = initial_routing(new_ext)

    old_views = {c.name: c for c in old_ext.commodities}
    for view in new_ext.commodities:
        old_view = old_views.get(view.name)
        if old_view is None:
            continue  # newly arrived commodity: shed-everything default
        jo, jn = old_view.index, view.index
        old_edges = np.asarray(old_view.edge_indices, dtype=np.intp)
        mapped = maps.edge_map[old_edges]
        survived = mapped >= 0
        new_edges = np.asarray(view.edge_indices, dtype=np.intp)
        if bool(survived.all()) and mapped.size == new_edges.size:
            # layout survived wholesale: the old row is already a valid
            # distribution over exactly these edges -- copy it verbatim
            routing.phi[jn, mapped] = old_routing.phi[jo, old_edges]
            continue
        carried_row = np.zeros(new_ext.num_edges, dtype=float)
        carried_row[mapped[survived]] = old_routing.phi[jo, old_edges[survived]]
        out_lists = new_ext.commodity_out_edges[jn]
        for node in view.node_indices:
            if node == view.sink:
                continue
            out = out_lists[node]
            if not out:
                continue
            carried = carried_row[out]
            total = float(carried.sum())
            if total > 1e-12:
                routing.phi[jn, out] = carried / total
    return routing


def _diff_arrays(label: str, a: np.ndarray, b: np.ndarray, out: List[str]) -> None:
    if a.shape != b.shape:
        out.append(f"{label}: shape {a.shape} != {b.shape}")
    elif not np.array_equal(a, b):
        out.append(f"{label}: values differ")


def diff_extended_networks(
    a: ExtendedNetwork, b: ExtendedNetwork, compare_plans: bool = False
) -> List[str]:
    """Exact (bitwise) structural comparison; returns human-readable diffs.

    Empty list means the two networks are indistinguishable to every
    consumer: same nodes/edges/views, same arrays, and (with
    ``compare_plans``) the same compiled form -- every
    :class:`~repro.core.state.ModelState` array (cell list, waves and
    their level bounds, the cell layout's maps, both Gamma plans,
    ``gamma_starts``), built on both networks if it was not already.
    Epochs are deliberately
    not compared -- a spliced network and a from-scratch rebuild of the
    same instance legitimately disagree there.
    """
    diffs: List[str] = []
    if [(n.index, n.name, n.kind, n.capacity, n.physical_link) for n in a.nodes] != [
        (n.index, n.name, n.kind, n.capacity, n.physical_link) for n in b.nodes
    ]:
        diffs.append("nodes differ")
    if [
        (e.index, e.tail, e.head, e.kind, e.physical_link, e.commodity)
        for e in a.edges
    ] != [
        (e.index, e.tail, e.head, e.kind, e.physical_link, e.commodity)
        for e in b.edges
    ]:
        diffs.append("edges differ")
    for va, vb in zip(a.commodities, b.commodities):
        if (
            va.index,
            va.name,
            va.source,
            va.sink,
            va.dummy,
            va.input_edge,
            va.difference_edge,
            va.max_rate,
        ) != (
            vb.index,
            vb.name,
            vb.source,
            vb.sink,
            vb.dummy,
            vb.input_edge,
            vb.difference_edge,
            vb.max_rate,
        ):
            diffs.append(f"commodity view {va.name!r}/{vb.name!r} differs")
        if va.edge_indices != vb.edge_indices:
            diffs.append(f"commodity {va.name!r}: edge_indices differ")
        if va.node_indices != vb.node_indices:
            diffs.append(f"commodity {va.name!r}: node_indices differ")
        if va.topo_order != vb.topo_order:
            diffs.append(f"commodity {va.name!r}: topo_order differs")
    if a.num_commodities != b.num_commodities:
        diffs.append(
            f"commodity count {a.num_commodities} != {b.num_commodities}"
        )
    _diff_arrays("capacity", a.capacity, b.capacity, diffs)
    _diff_arrays(
        "commodity_max_rates", a.commodity_max_rates, b.commodity_max_rates, diffs
    )
    _diff_arrays("cost", a.cost, b.cost, diffs)
    _diff_arrays("gain", a.gain, b.gain, diffs)
    _diff_arrays("allowed", a.allowed, b.allowed, diffs)
    _diff_arrays("node_potentials", a.node_potentials, b.node_potentials, diffs)
    if a.out_edges != b.out_edges or a.in_edges != b.in_edges:
        diffs.append("adjacency lists differ")
    if a.commodity_out_edges != b.commodity_out_edges:
        diffs.append("commodity out-edge lists differ")
    if diffs or not compare_plans:
        return diffs

    sa, sb = ModelState.of(a), ModelState.of(b)
    for name in (
        "cell_raw", "cell_edges", "cell_tails", "cell_heads", "cell_cost",
        "cell_gain", "cell_g_tail", "cell_g_head", "cell_starts", "gamma_starts",
        "cell_forward", "cell_reverse", "forward_phi", "reverse_traffic_slots",
        "input_entries", "dummy_slots",
    ):
        _diff_arrays(f"state.{name}", getattr(sa, name), getattr(sb, name), diffs)
    for plan in ("gamma_plan", "gamma_cells"):
        for f in fields(GammaPlan):
            _diff_arrays(
                f"state.{plan}.{f.name}",
                getattr(getattr(sa, plan), f.name),
                getattr(getattr(sb, plan), f.name),
                diffs,
            )
    # a level is a slice of its wave's arrays: the arrays and the slice
    # bounds cover it
    for wave in ("forward", "reverse"):
        wa, wb = getattr(sa, wave), getattr(sb, wave)
        for f in fields(Wave):
            if f.name != "levels":
                _diff_arrays(
                    f"state.{wave}.{f.name}",
                    getattr(wa, f.name),
                    getattr(wb, f.name),
                    diffs,
                )
        bounds_a = [(lv.start, lv.stop, lv.slot) for lv in wa.levels]
        bounds_b = [(lv.start, lv.stop, lv.slot) for lv in wb.levels]
        if bounds_a != bounds_b:
            diffs.append(f"state.{wave}: level bounds differ")
    return diffs
