"""Random stream-network generators, including the paper's Figure-4 workload.

Section 6 of the paper evaluates on "a synthetic (random) network containing
40 nodes, and 3 source and sink pairs", with

* link capacities and node computing capacities ~ U[1, 100],
* node potentials ``g_n(j)`` ~ U[1, 10] (gains ``beta = g_head / g_tail``),
* resource consumption parameters ``c`` ~ U[1, 5],
* utility = total throughput (linear).

The paper does not specify the random graph construction or the offered
rates ``lambda_j``.  We generate each commodity as a *layered DAG* -- the
shape task-chain placement produces (Figure 1) and the only structure
consistent with the paper's standing assumptions ("the subgraphs
corresponding to individual streams are DAGs", "a server is assigned to
process at most one task for each commodity").  Offered rates default to
U[10, 50]; large enough that capacities bind and admission control is
active.  Both choices are recorded in DESIGN.md/EXPERIMENTS.md.

All generation is deterministic given ``seed``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.core.commodity import Commodity, StreamNetwork
from repro.core.network import PhysicalNetwork
from repro.core.utility import LinearUtility, UtilityFunction
from repro.exceptions import ModelError

Edge = Tuple[str, str]

__all__ = ["RandomNetworkSpec", "random_stream_network", "paper_figure4_network"]


class RandomNetworkSpec:
    """Knobs of the random generator (defaults follow the paper's Figure 4)."""

    def __init__(
        self,
        num_nodes: int = 40,
        num_commodities: int = 3,
        depth_range: Tuple[int, int] = (4, 6),
        layer_width_range: Tuple[int, int] = (3, 5),
        capacity_range: Tuple[float, float] = (1.0, 100.0),
        potential_range: Tuple[float, float] = (1.0, 10.0),
        cost_range: Tuple[float, float] = (1.0, 5.0),
        rate_range: Tuple[float, float] = (10.0, 50.0),
        extra_edge_probability: float = 0.3,
        utility_factory: Optional[Callable[[int], UtilityFunction]] = None,
    ) -> None:
        if num_commodities < 1:
            raise ModelError("need at least one commodity")
        min_needed = num_commodities * 2 + num_commodities  # sources+sinks+slack
        if num_nodes < min_needed:
            raise ModelError(
                f"num_nodes={num_nodes} too small for {num_commodities} commodities"
            )
        self.num_nodes = num_nodes
        self.num_commodities = num_commodities
        self.depth_range = depth_range
        self.layer_width_range = layer_width_range
        self.capacity_range = capacity_range
        self.potential_range = potential_range
        self.cost_range = cost_range
        self.rate_range = rate_range
        self.extra_edge_probability = extra_edge_probability
        self.utility_factory = utility_factory or (lambda j: LinearUtility())


def random_stream_network(
    spec: Optional[RandomNetworkSpec] = None,
    seed: int = 0,
    max_attempts: int = 50,
) -> StreamNetwork:
    """Generate a random, connected, validated :class:`StreamNetwork`.

    Deterministic given ``(spec, seed)``.  Construction can occasionally
    yield a disconnected union graph (commodity subgraphs that never touch);
    such draws are rejected and regenerated from a derived sub-seed, so the
    result is still a pure function of the seed.
    """
    spec = spec or RandomNetworkSpec()
    for attempt in range(max_attempts):
        rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
        network = _attempt_generation(spec, rng)
        if network is not None:
            return network
    raise ModelError(
        f"failed to generate a connected network in {max_attempts} attempts "
        f"(seed={seed}); loosen the spec"
    )


def _assign_layers(
    spec: RandomNetworkSpec,
    rng: np.random.Generator,
    processing_names: Sequence[str],
    sources: Sequence[str],
) -> Optional[List[List[List[str]]]]:
    """Assign processing nodes to each commodity's interior layers.

    Two properties are enforced by construction (both required for a valid
    paper-style instance):

    * **coverage** -- every processing node lands in at least one commodity's
      layer, so the union graph has no isolated nodes;
    * **sharing** -- surplus layer slots are filled with nodes already used
      by *other* commodities (never twice within one commodity, honouring
      "a server is assigned at most one task per commodity"), which couples
      the commodities' resource usage and glues the union graph together.
    """
    num_j = len(sources)
    interior: List[List[List[str]]] = []
    priority_slots: List[Tuple[int, int]] = []  # first slot of each layer
    extra_slots: List[Tuple[int, int]] = []
    for j in range(num_j):
        depth = int(rng.integers(spec.depth_range[0], spec.depth_range[1] + 1))
        layers: List[List[str]] = []
        for layer_idx in range(depth - 1):
            width = int(
                rng.integers(spec.layer_width_range[0], spec.layer_width_range[1] + 1)
            )
            layers.append([])
            priority_slots.append((j, layer_idx))
            extra_slots.extend([(j, layer_idx)] * (width - 1))
        interior.append(layers)

    rng.shuffle(priority_slots)
    rng.shuffle(extra_slots)
    slots = priority_slots + extra_slots

    member_of: List[set] = [set(s) for s in ([src] for src in sources)]
    unassigned = [n for n in processing_names if n not in sources]
    rng.shuffle(unassigned)

    # phase 1: coverage -- place every node somewhere
    slot_cursor = 0
    for node in unassigned:
        placed = False
        while slot_cursor < len(slots):
            j, layer_idx = slots[slot_cursor]
            slot_cursor += 1
            if node not in member_of[j]:
                interior[j][layer_idx].append(node)
                member_of[j].add(node)
                placed = True
                break
        if not placed:  # slots exhausted: append to a random interior layer
            candidates = [
                (j, layer_idx)
                for j in range(num_j)
                for layer_idx in range(len(interior[j]))
                if node not in member_of[j]
            ]
            if not candidates:
                return None
            j, layer_idx = candidates[int(rng.integers(len(candidates)))]
            interior[j][layer_idx].append(node)
            member_of[j].add(node)

    # phase 2: sharing -- fill the remaining slots from other commodities
    used = [n for n in processing_names]
    for j, layer_idx in slots[slot_cursor:]:
        candidates = [n for n in used if n not in member_of[j]]
        if not candidates:
            continue
        node = candidates[int(rng.integers(len(candidates)))]
        interior[j][layer_idx].append(node)
        member_of[j].add(node)

    # connectivity guarantee: the "overlap graph" on commodities (edge iff
    # two commodities share a node) must be connected, otherwise the union
    # graph falls apart.  Merge components by planting a node of one
    # commodity into an interior layer of another.
    overlap = nx.Graph()
    overlap.add_nodes_from(range(num_j))
    for a in range(num_j):
        for b in range(a + 1, num_j):
            if member_of[a] & member_of[b]:
                overlap.add_edge(a, b)
    components = [sorted(c) for c in nx.connected_components(overlap)]
    while len(components) > 1:
        a = components[0][0]
        b = components[1][0]
        candidates = [n for n in sorted(member_of[b]) if n not in member_of[a]]
        if not candidates or not interior[a]:
            return None
        node = candidates[int(rng.integers(len(candidates)))]
        layer_idx = int(rng.integers(len(interior[a])))
        interior[a][layer_idx].append(node)
        member_of[a].add(node)
        merged = components[0] + components[1]
        components = [merged] + components[2:]

    # every interior layer must be non-empty (priority slots usually ensure
    # this; tiny node pools can defeat them)
    for layers in interior:
        if any(not layer for layer in layers):
            return None
    return interior


def _attempt_generation(
    spec: RandomNetworkSpec, rng: np.random.Generator
) -> Optional[StreamNetwork]:
    num_sinks = spec.num_commodities
    num_processing = spec.num_nodes - num_sinks
    processing_names = [f"n{i}" for i in range(num_processing)]
    sink_names = [f"sink{j}" for j in range(spec.num_commodities)]

    physical = PhysicalNetwork()
    lo_c, hi_c = spec.capacity_range
    for name in processing_names:
        physical.add_server(name, capacity=float(rng.uniform(lo_c, hi_c)))
    for name in sink_names:
        physical.add_sink(name)

    # sources: distinct processing nodes, one per commodity
    source_indices = rng.choice(num_processing, size=spec.num_commodities, replace=False)
    sources = [processing_names[i] for i in source_indices]

    commodity_layers = _assign_layers(spec, rng, processing_names, sources)
    if commodity_layers is None:
        return None
    for j in range(spec.num_commodities):
        commodity_layers[j] = (
            [[sources[j]]] + commodity_layers[j] + [[sink_names[j]]]
        )

    # per-commodity edges between consecutive layers
    commodity_edges: List[List[Edge]] = []
    link_bandwidth: Dict[Edge, float] = {}
    for layers in commodity_layers:
        edges: List[Edge] = []
        for depth in range(len(layers) - 1):
            tails, heads = layers[depth], layers[depth + 1]
            # guarantee coverage: every tail gets >= 1 out-edge, every head
            # >= 1 in-edge, then sprinkle extras
            for t_idx, tail in enumerate(tails):
                head = heads[t_idx % len(heads)]
                edges.append((tail, head))
            for h_idx, head in enumerate(heads):
                tail = tails[h_idx % len(tails)]
                edges.append((tail, head))
            for tail in tails:
                for head in heads:
                    if rng.random() < spec.extra_edge_probability:
                        edges.append((tail, head))
        edges = list(dict.fromkeys(edges))
        commodity_edges.append(edges)
        for edge in edges:
            if edge not in link_bandwidth:
                link_bandwidth[edge] = float(rng.uniform(lo_c, hi_c))

    for (tail, head), bandwidth in link_bandwidth.items():
        physical.add_link(tail, head, bandwidth)

    stream_network = StreamNetwork(physical=physical)
    lo_g, hi_g = spec.potential_range
    lo_r, hi_r = spec.cost_range
    lo_l, hi_l = spec.rate_range
    for j in range(spec.num_commodities):
        edges = commodity_edges[j]
        # sorted so the draw order (hence the instance) is process independent
        nodes = sorted({n for e in edges for n in e})
        potentials = {n: float(rng.uniform(lo_g, hi_g)) for n in nodes}
        costs = {e: float(rng.uniform(lo_r, hi_r)) for e in edges}
        commodity = Commodity.from_subgraph(
            name=f"stream{j}",
            source=sources[j],
            sink=sink_names[j],
            max_rate=float(rng.uniform(lo_l, hi_l)),
            edges=edges,
            potentials=potentials,
            costs=costs,
            utility=spec.utility_factory(j),
            prune=True,
        )
        stream_network.add_commodity(commodity)

    try:
        stream_network.validate()
    except Exception:
        return None
    return stream_network


def paper_figure4_network(seed: int = 7) -> StreamNetwork:
    """The Figure-4 workload: 40 nodes, 3 commodities, the paper's parameter
    distributions, throughput utility.

    The default seed is fixed so EXPERIMENTS.md numbers are reproducible;
    pass another seed for replicates.
    """
    spec = RandomNetworkSpec(
        num_nodes=40,
        num_commodities=3,
        capacity_range=(1.0, 100.0),
        potential_range=(1.0, 10.0),
        cost_range=(1.0, 5.0),
        rate_range=(10.0, 50.0),
        utility_factory=lambda j: LinearUtility(),
    )
    return random_stream_network(spec, seed=seed)
