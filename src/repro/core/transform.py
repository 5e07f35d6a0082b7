"""Extended-graph transformation (paper Section 3, Figures 2 and 3).

Two transformations turn the original joint problem into a pure routing
problem on a new graph ``G' = (V, L)``:

**Bandwidth nodes** (Figure 2).  Every physical link ``(i, k)`` used by some
commodity becomes a *bandwidth node* ``n_ik`` with resource budget
``C_{n_ik} = B_ik`` plus two edges ``(i, n_ik)`` and ``(n_ik, k)``.  Moving one
unit of flow across the bandwidth node costs one unit of its resource and is
gain free (``c = 1``, ``beta = 1``); the processing edge ``(i, n_ik)``
inherits the original ``c_ik(j)`` and ``beta_ik(j)``.  After this step the
only resource constraints left are per *node*.

**Dummy nodes** (Figure 3).  Every commodity ``j`` gets a dummy super-source
``s̄_j`` of infinite capacity, a *dummy input link* ``(s̄_j, s_j)`` and a
*dummy difference link* ``(s̄_j, j)`` straight to the sink.  Traffic arrives
at ``s̄_j`` at the fixed offered rate ``lambda_j``; the fraction routed over
the input link is the admitted rate ``a_j``, the remainder ``lambda_j - a_j``
is shed over the difference link at utility-loss cost
``Y(x) = U_j(lambda_j) - U_j(lambda_j - x)`` (eq. (1)).  Admission control is
thereby *exactly* a routing decision at ``s̄_j``.

Bookkeeping check (paper, Section 3): a graph with ``N`` nodes, ``M`` edges
and ``J`` commodities yields ``N + M + J`` nodes and ``2M + 2J`` edges.

This module builds the graph and its per-commodity tables only.  The
iterative solvers run on one compiled form of it,
:class:`repro.core.state.ModelState`, which compiles on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional, Tuple

import networkx as nx
import numpy as np

from repro.core.commodity import StreamNetwork
from repro.core.network import NodeKind
from repro.core.utility import UtilityFunction
from repro.exceptions import TransformError

Edge = Tuple[str, str]

__all__ = [
    "ExtNodeKind",
    "ExtEdgeKind",
    "ExtendedNetwork",
    "ExtSkeleton",
    "build_extended_network",
]


class ExtNodeKind(Enum):
    PROCESSING = "processing"
    SINK = "sink"
    BANDWIDTH = "bandwidth"
    DUMMY_SOURCE = "dummy_source"


class ExtEdgeKind(Enum):
    PROCESSING = "processing"  # (i, n_ik): consumes compute at i
    TRANSFER = "transfer"  # (n_ik, k): consumes bandwidth at n_ik
    DUMMY_INPUT = "dummy_input"  # (s̄_j, s_j): admits traffic
    DUMMY_DIFFERENCE = "dummy_difference"  # (s̄_j, j): sheds traffic


@dataclass(frozen=True)
class ExtNode:
    """A node of the extended graph ``G'``."""

    index: int
    name: str
    kind: ExtNodeKind
    capacity: float
    # For BANDWIDTH nodes: the physical link it represents.
    physical_link: Optional[Edge] = None


@dataclass(frozen=True)
class ExtEdge:
    """An edge of the extended graph ``G'``."""

    index: int
    tail: int
    head: int
    kind: ExtEdgeKind
    # For PROCESSING/TRANSFER edges: the physical link they derive from.
    physical_link: Optional[Edge] = None
    # For DUMMY_* edges: the owning commodity index.
    commodity: Optional[int] = None


@dataclass
class CommodityView:
    """Per-commodity arrays and orderings over the extended graph."""

    index: int
    name: str
    source: int  # extended index of the physical source s_j
    sink: int  # extended index of the sink j
    dummy: int  # extended index of the dummy super-source s̄_j
    input_edge: int  # index of (s̄_j, s_j)
    difference_edge: int  # index of (s̄_j, j)
    max_rate: float  # lambda_j
    utility: UtilityFunction
    edge_indices: List[int] = field(default_factory=list)  # allowed edges, incl. dummy
    node_indices: List[int] = field(default_factory=list)  # touched nodes
    topo_order: List[int] = field(default_factory=list)  # nodes, sources first


class ExtendedNetwork:
    """The transformed routing problem: single per-node resource constraints.

    Attributes
    ----------
    nodes, edges:
        Lists of :class:`ExtNode` / :class:`ExtEdge` (index == position).
    capacity:
        ``(V,)`` float array of node budgets (``inf`` for sinks and dummies).
    cost, gain:
        ``(J, E)`` float arrays: ``cost[j, e] = c_e(j)``, ``gain[j, e] =
        beta_e(j)``; zero / one respectively on edges not allowed for ``j``.
    allowed:
        ``(J, E)`` bool array: may commodity ``j`` use edge ``e``?
    out_edges, in_edges:
        Per-node lists of edge indices.
    commodities:
        List of :class:`CommodityView`.
    """

    def __init__(
        self,
        nodes: List[ExtNode],
        edges: List[ExtEdge],
        commodities: List[CommodityView],
        cost: np.ndarray,
        gain: np.ndarray,
        allowed: np.ndarray,
        stream_network: StreamNetwork,
    ) -> None:
        self.nodes = nodes
        self.edges = edges
        self.commodities = commodities
        self.cost = cost
        self.gain = gain
        self.allowed = allowed
        self.stream_network = stream_network

        self.num_nodes = len(nodes)
        self.num_edges = len(edges)
        self.num_commodities = len(commodities)

        # model version number: 0 for a from-scratch build, bumped by one
        # for every event applied through the delta path (repro.core.delta).
        # Scalar deltas bump it in place; structural deltas produce a new
        # ExtendedNetwork carrying ``old.epoch + 1``.
        self.epoch = 0

        self.capacity = np.array([n.capacity for n in nodes], dtype=float)
        self.edge_tail = np.array([e.tail for e in edges], dtype=int)
        self.edge_head = np.array([e.head for e in edges], dtype=int)

        self.out_edges: List[List[int]] = [[] for _ in range(self.num_nodes)]
        self.in_edges: List[List[int]] = [[] for _ in range(self.num_nodes)]
        for e in edges:
            self.out_edges[e.tail].append(e.index)
            self.in_edges[e.head].append(e.index)

        self.name_to_index: Dict[str, int] = {n.name: n.index for n in nodes}

        # (E,) bool: is this edge the dummy difference link of some commodity?
        self.is_difference_edge = np.array(
            [e.kind is ExtEdgeKind.DUMMY_DIFFERENCE for e in edges], dtype=bool
        )
        # difference-edge index -> commodity index (or -1)
        self.difference_edge_commodity = np.full(self.num_edges, -1, dtype=int)
        for c in commodities:
            self.difference_edge_commodity[c.difference_edge] = c.index

        # per-commodity special indices as arrays (hot paths index with these
        # instead of looping over the commodity views)
        self.commodity_dummies = np.array(
            [c.dummy for c in commodities], dtype=np.intp
        )
        self.commodity_input_edges = np.array(
            [c.input_edge for c in commodities], dtype=np.intp
        )
        self.commodity_difference_edges = np.array(
            [c.difference_edge for c in commodities], dtype=np.intp
        )
        self.commodity_max_rates = np.array(
            [c.max_rate for c in commodities], dtype=float
        )

        # per-commodity out-edge lists restricted to the allowed subgraph
        self.commodity_out_edges: List[List[List[int]]] = []
        for c in commodities:
            per_node: List[List[int]] = [[] for _ in range(self.num_nodes)]
            for e_idx in c.edge_indices:
                per_node[edges[e_idx].tail].append(e_idx)
            self.commodity_out_edges.append(per_node)

        # node potentials g_i(j): cumulative gain from the dummy source to
        # node i (well defined by Property 1; the dummy difference link is a
        # shed shortcut priced in lambda-units and is exempt).  Used wherever
        # marginal costs must be compared in *source-equivalent* units.
        self.node_potentials = self._compute_node_potentials()

        # the canonical layout this network was built from; set by
        # build_extended_network and the delta splicer.  The splicer reads
        # it to translate old indices into the new layout through the
        # skeleton's own link/commodity tables instead of re-deriving a
        # per-edge key for every old edge (see repro.core.delta._splice).
        self._skeleton: Optional["ExtSkeleton"] = None

        # lazy caches filled in by the hot paths (routing / marginals /
        # blocking); declared here so the attributes are part of the type.
        # _linear_utility_weights uses False as its "not computed" sentinel
        # because the computed value may legitimately be None (non-linear).
        self._external_inputs_template: Optional[np.ndarray] = None
        self._commodity_rows: Optional[np.ndarray] = None
        self._utility_at_max: Optional[np.ndarray] = None
        self._linear_utility_weights: Any = False
        # the compiled form every kernel runs (repro.core.state.ModelState),
        # built on first use: many consumers never iterate
        self._model_state: Any = None

    @property
    def merged_gamma_plan(self) -> Any:
        """``ModelState.of(self).gamma_plan``, under the name perfbench reads."""
        from repro.core.state import ModelState

        return ModelState.of(self).gamma_plan

    def _compute_node_potentials(self) -> np.ndarray:
        g = np.ones((self.num_commodities, self.num_nodes), dtype=float)
        for view in self.commodities:
            j = view.index
            for node in view.topo_order:
                for e in self.commodity_out_edges[j][node]:
                    if e == view.difference_edge:
                        continue
                    g[j, self.edge_head[e]] = g[j, node] * self.gain[j, e]
        return g

    # -- delta API (implemented in repro.core.delta; imported lazily to keep
    # the transform layer importable on its own) -----------------------------------
    def compile_delta(self, event: Any) -> "Any":
        """Compile a network event into a :class:`repro.core.delta.ProblemDelta`."""
        from repro.core.delta import compile_event

        return compile_event(self, event)

    def apply_delta(self, delta: Any) -> "Any":
        """Apply a compiled delta, advancing one epoch.

        Returns a :class:`repro.core.delta.AppliedDelta`; scalar deltas
        mutate this network in place, structural deltas return a spliced
        successor (this object stays valid at its old epoch).
        """
        from repro.core.delta import apply_delta

        return apply_delta(self, delta)

    # -- helpers -------------------------------------------------------------------
    def node_index(self, name: str) -> int:
        try:
            return self.name_to_index[name]
        except KeyError:
            raise TransformError(f"unknown extended node {name!r}") from None

    def commodity_view(self, name: str) -> CommodityView:
        for c in self.commodities:
            if c.name == name:
                return c
        raise TransformError(f"unknown commodity {name!r}")

    def to_networkx(self) -> "nx.DiGraph":
        graph = nx.DiGraph()
        for n in self.nodes:
            graph.add_node(n.index, name=n.name, kind=n.kind.value, capacity=n.capacity)
        for e in self.edges:
            graph.add_edge(e.tail, e.head, index=e.index, kind=e.kind.value)
        return graph

    def describe(self) -> str:
        """Human-readable summary, including the paper's size bookkeeping."""
        kinds: Dict[str, int] = {}
        for n in self.nodes:
            kinds[n.kind.value] = kinds.get(n.kind.value, 0) + 1
        lines = [
            f"ExtendedNetwork: {self.num_nodes} nodes, {self.num_edges} edges, "
            f"{self.num_commodities} commodities",
            f"  node kinds: {kinds}",
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"ExtendedNetwork(V={self.num_nodes}, L={self.num_edges}, "
            f"J={self.num_commodities})"
        )


@dataclass
class ExtSkeleton:
    """Steps 1-3 of the transformation: the canonical node/edge layout.

    The layout is a pure function of the stream network: physical nodes in
    insertion order, one bandwidth node per used link in first-use order,
    one dummy source per commodity in commodity order; edges are the two
    replacements of each used link followed by the two dummy links of each
    commodity.  Both :func:`build_extended_network` and the delta splicer
    (:mod:`repro.core.delta`) lay out their networks through this single
    code path, which is what makes an incrementally spliced network
    bit-identical to a from-scratch rebuild.  The views carry only the
    direct fields; ``edge_indices``/``node_indices``/``topo_order`` are
    filled later (:func:`_fill_commodity_row` or the delta remap).
    """

    nodes: List[ExtNode]
    edges: List[ExtEdge]
    views: List[CommodityView]
    used_links: List[Edge]
    processing_edge_of: Dict[Edge, int]
    transfer_edge_of: Dict[Edge, int]
    name_to_index: Dict[str, int]


def _build_skeleton(stream_network: StreamNetwork) -> ExtSkeleton:
    physical = stream_network.physical

    used_links: List[Edge] = []
    seen = set()
    for commodity in stream_network.commodities:
        for edge in commodity.edges:
            if edge not in seen:
                seen.add(edge)
                used_links.append(edge)
    if not used_links:
        raise TransformError("no commodity uses any physical link")

    nodes: List[ExtNode] = []
    edges: List[ExtEdge] = []

    def add_node(
        name: str,
        kind: ExtNodeKind,
        capacity: float,
        physical_link: Optional[Edge] = None,
    ) -> int:
        idx = len(nodes)
        nodes.append(ExtNode(idx, name, kind, capacity, physical_link))
        return idx

    def add_edge(
        tail: int,
        head: int,
        kind: ExtEdgeKind,
        physical_link: Optional[Edge] = None,
        commodity: Optional[int] = None,
    ) -> int:
        idx = len(edges)
        edges.append(ExtEdge(idx, tail, head, kind, physical_link, commodity))
        return idx

    # 1. physical nodes
    for node in physical.nodes.values():
        kind = ExtNodeKind.SINK if node.kind is NodeKind.SINK else ExtNodeKind.PROCESSING
        add_node(node.name, kind, node.capacity)
    name_to_index = {n.name: n.index for n in nodes}

    # 2. bandwidth nodes + the two edges replacing each used physical link
    processing_edge_of: Dict[Edge, int] = {}
    transfer_edge_of: Dict[Edge, int] = {}
    for (tail_name, head_name) in used_links:
        link = physical.link(tail_name, head_name)
        bw_idx = add_node(
            f"bw:{tail_name}->{head_name}",
            ExtNodeKind.BANDWIDTH,
            link.bandwidth,
            physical_link=(tail_name, head_name),
        )
        processing_edge_of[(tail_name, head_name)] = add_edge(
            name_to_index[tail_name],
            bw_idx,
            ExtEdgeKind.PROCESSING,
            physical_link=(tail_name, head_name),
        )
        transfer_edge_of[(tail_name, head_name)] = add_edge(
            bw_idx,
            name_to_index[head_name],
            ExtEdgeKind.TRANSFER,
            physical_link=(tail_name, head_name),
        )

    # 3. dummy nodes and links per commodity
    views: List[CommodityView] = []
    for j, commodity in enumerate(stream_network.commodities):
        dummy_idx = add_node(
            f"dummy:{commodity.name}", ExtNodeKind.DUMMY_SOURCE, float("inf")
        )
        source_idx = name_to_index[commodity.source]
        sink_idx = name_to_index[commodity.sink]
        input_edge = add_edge(dummy_idx, source_idx, ExtEdgeKind.DUMMY_INPUT, commodity=j)
        difference_edge = add_edge(
            dummy_idx, sink_idx, ExtEdgeKind.DUMMY_DIFFERENCE, commodity=j
        )
        views.append(
            CommodityView(
                index=j,
                name=commodity.name,
                source=source_idx,
                sink=sink_idx,
                dummy=dummy_idx,
                input_edge=input_edge,
                difference_edge=difference_edge,
                max_rate=commodity.max_rate,
                utility=commodity.utility,
            )
        )

    return ExtSkeleton(
        nodes=nodes,
        edges=edges,
        views=views,
        used_links=used_links,
        processing_edge_of=processing_edge_of,
        transfer_edge_of=transfer_edge_of,
        name_to_index=name_to_index,
    )


def _fill_commodity_row(
    j: int,
    commodity: Any,
    skeleton: ExtSkeleton,
    cost: np.ndarray,
    gain: np.ndarray,
    allowed: np.ndarray,
) -> None:
    """Fill row ``j`` of cost/gain/allowed and derive the view's graph fields.

    This is the per-commodity half of the transformation: the cost/gain
    tables, the sorted allowed edge set, the DAG check, and the topological
    order.  It is the expensive (networkx) part the delta path skips for
    untouched commodities.
    """
    view = skeleton.views[j]
    edges = skeleton.edges
    edge_indices: List[int] = []
    for (tail_name, head_name) in commodity.edges:
        pe = skeleton.processing_edge_of[(tail_name, head_name)]
        te = skeleton.transfer_edge_of[(tail_name, head_name)]
        cost[j, pe] = commodity.cost(tail_name, head_name)
        gain[j, pe] = commodity.gain(tail_name, head_name)
        allowed[j, pe] = True
        cost[j, te] = 1.0  # bandwidth node: one unit of bandwidth per unit flow
        gain[j, te] = 1.0
        allowed[j, te] = True
        edge_indices.extend((pe, te))
    for e in (view.input_edge, view.difference_edge):
        cost[j, e] = 1.0
        gain[j, e] = 1.0
        allowed[j, e] = True
        edge_indices.append(e)
    view.edge_indices = sorted(edge_indices)

    subgraph = nx.DiGraph()
    for e_idx in view.edge_indices:
        subgraph.add_edge(edges[e_idx].tail, edges[e_idx].head)
    if not nx.is_directed_acyclic_graph(subgraph):
        raise TransformError(
            f"commodity {commodity.name!r}: extended subgraph is not a DAG"
        )
    view.node_indices = sorted(subgraph.nodes())
    view.topo_order = list(nx.topological_sort(subgraph))


def _check_bookkeeping(
    extended: ExtendedNetwork, n_phys: int, m_used: int, j_count: int
) -> None:
    """The paper's size check: ``N + M + J`` nodes and ``2M + 2J`` edges."""
    if extended.num_nodes != n_phys + m_used + j_count:
        raise TransformError("extended node count violates the paper's bookkeeping")
    if extended.num_edges != 2 * m_used + 2 * j_count:
        raise TransformError("extended edge count violates the paper's bookkeeping")


def build_extended_network(
    stream_network: StreamNetwork, require_connected: bool = True
) -> ExtendedNetwork:
    """Apply both transformations of Section 3 to a :class:`StreamNetwork`.

    Only physical links actually used by some commodity (``E = union E_j``)
    receive bandwidth nodes; unused links cannot carry flow in any solution.
    ``require_connected=False`` permits post-failure topologies that have
    split into islands (see :mod:`repro.online`).
    """
    stream_network.validate(require_connected=require_connected)
    skeleton = _build_skeleton(stream_network)

    num_edges = len(skeleton.edges)
    num_commodities = len(skeleton.views)
    cost = np.zeros((num_commodities, num_edges), dtype=float)
    gain = np.ones((num_commodities, num_edges), dtype=float)
    allowed = np.zeros((num_commodities, num_edges), dtype=bool)

    for j, commodity in enumerate(stream_network.commodities):
        _fill_commodity_row(j, commodity, skeleton, cost, gain, allowed)

    extended = ExtendedNetwork(
        nodes=skeleton.nodes,
        edges=skeleton.edges,
        commodities=skeleton.views,
        cost=cost,
        gain=gain,
        allowed=allowed,
        stream_network=stream_network,
    )
    _check_bookkeeping(
        extended,
        stream_network.physical.num_nodes,
        len(skeleton.used_links),
        num_commodities,
    )
    extended._skeleton = skeleton
    return extended
