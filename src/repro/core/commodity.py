"""Commodities: streams, task chains, per-commodity DAGs, gains, and costs.

The paper's Section 2:

* each commodity ``j`` has a unique source ``s_j`` (a processing node), a
  unique sink ``j``, and a maximum offered rate ``lambda_j``;
* the commodity's operators are placed on servers, inducing a directed
  acyclic subgraph ``G_j = (N_j, E_j)`` of the physical graph;
* processing one unit of ``j`` at node ``i`` toward ``k`` consumes
  ``c_ik(j)`` compute at ``i`` and emits ``beta_ik(j)`` units downstream;
* Property 1 requires the product of gains along any source->node path to be
  path independent, which is equivalent to the existence of node potentials
  ``g_n(j)`` with ``beta_ik(j) = g_k(j) / g_i(j)`` and ``g_{s_j}(j) = 1``.

Commodities here store the potentials ``g`` directly (gains are derived),
making Property 1 true by construction; :func:`validate_property1` checks a
user-supplied per-edge gain table for consistency instead.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import networkx as nx

from repro.core.network import PhysicalNetwork
from repro.core.utility import LinearUtility, UtilityFunction
from repro.exceptions import ModelError, ValidationError

Edge = Tuple[str, str]

__all__ = [
    "Task",
    "Commodity",
    "StreamNetwork",
    "validate_property1",
    "potentials_from_gains",
]


@dataclass(frozen=True)
class Task:
    """A stream operator: per-unit compute ``cost`` and output ``gain``.

    ``gain < 1`` models shrinking operators (filters, aggregation);
    ``gain > 1`` models expanding operators (decryption, joins, decompression).
    """

    name: str
    cost: float
    gain: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("task name must be non-empty")
        if not self.cost > 0:
            raise ValidationError(f"task {self.name!r} needs cost > 0, got {self.cost}")
        if not self.gain > 0:
            raise ValidationError(f"task {self.name!r} needs gain > 0, got {self.gain}")


class Commodity:
    """One stream commodity: source, sink, offered rate, utility, DAG, costs.

    Parameters
    ----------
    name:
        Identifier, unique within a :class:`StreamNetwork`.
    source, sink:
        Names of the source (processing) node and sink node.
    max_rate:
        The maximum generation rate ``lambda_j`` at the source.
    utility:
        Increasing concave :class:`~repro.core.utility.UtilityFunction` of the
        admitted rate; defaults to throughput (:class:`LinearUtility`).
    edges:
        The allowed edge set ``E_j`` (must form a DAG containing a
        source->sink path).
    potentials:
        Node potentials ``g_n(j) > 0``; gains are ``beta = g[head]/g[tail]``.
        Normalised internally so ``g[source] == 1`` (the paper's convention);
        normalisation leaves every gain unchanged.
    costs:
        Per-edge compute cost ``c_ik(j) > 0``.
    """

    def __init__(
        self,
        name: str,
        source: str,
        sink: str,
        max_rate: float,
        edges: Iterable[Edge],
        potentials: Mapping[str, float],
        costs: Mapping[Edge, float],
        utility: Optional[UtilityFunction] = None,
    ) -> None:
        if not name:
            raise ValidationError("commodity name must be non-empty")
        if source == sink:
            raise ValidationError(f"commodity {name!r}: source equals sink")
        if not max_rate > 0:
            raise ValidationError(
                f"commodity {name!r}: max_rate must be > 0, got {max_rate}"
            )
        self.name = name
        self.source = source
        self.sink = sink
        self.max_rate = float(max_rate)
        self.utility: UtilityFunction = utility or LinearUtility()
        self.edges: List[Edge] = list(dict.fromkeys(edges))
        if not self.edges:
            raise ValidationError(f"commodity {name!r}: empty edge set")

        nodes = {n for e in self.edges for n in e}
        missing = nodes - set(potentials)
        if missing:
            raise ValidationError(
                f"commodity {name!r}: missing potentials for {sorted(missing)}"
            )
        if source not in nodes or sink not in nodes:
            raise ValidationError(
                f"commodity {name!r}: source/sink not covered by edge set"
            )
        for n in nodes:
            if not potentials[n] > 0:
                raise ValidationError(
                    f"commodity {name!r}: potential of {n!r} must be > 0"
                )
        norm = float(potentials[source])
        self.potentials: Dict[str, float] = {
            n: float(potentials[n]) / norm for n in nodes
        }

        missing_costs = set(self.edges) - set(costs)
        if missing_costs:
            raise ValidationError(
                f"commodity {name!r}: missing costs for {sorted(missing_costs)}"
            )
        for e in self.edges:
            if not costs[e] > 0:
                raise ValidationError(f"commodity {name!r}: cost of {e} must be > 0")
        self.costs: Dict[Edge, float] = {e: float(costs[e]) for e in self.edges}

        self._check_dag_and_reachability()

    def with_max_rate(self, rate: float) -> "Commodity":
        """This commodity at offered rate ``rate``, as a value copy.

        The copy shares the DAG, potentials and costs: a rate change moves
        no edge, so nothing is re-derived.
        """
        if not rate > 0:
            raise ValidationError(
                f"commodity {self.name!r}: max_rate must be > 0, got {rate}"
            )
        clone = copy.copy(self)
        clone.max_rate = float(rate)
        return clone

    # -- derived quantities ------------------------------------------------------
    def gain(self, tail: str, head: str) -> float:
        """The shrinkage/expansion factor ``beta_ik(j) = g_k / g_i``."""
        if (tail, head) not in self.costs:
            raise ModelError(
                f"commodity {self.name!r} has no edge ({tail!r}, {head!r})"
            )
        return self.potentials[head] / self.potentials[tail]

    def cost(self, tail: str, head: str) -> float:
        """Per-unit compute cost ``c_ik(j)`` of edge ``(tail, head)``."""
        try:
            return self.costs[(tail, head)]
        except KeyError:
            raise ModelError(
                f"commodity {self.name!r} has no edge ({tail!r}, {head!r})"
            ) from None

    @property
    def nodes(self) -> List[str]:
        seen: Dict[str, None] = {}
        for tail, head in self.edges:
            seen.setdefault(tail)
            seen.setdefault(head)
        return list(seen)

    def subgraph(self) -> "nx.DiGraph":
        """The commodity DAG ``G_j`` with ``gain``/``cost`` edge attributes."""
        graph = nx.DiGraph()
        graph.add_nodes_from(self.nodes)
        for tail, head in self.edges:
            graph.add_edge(
                tail, head, gain=self.gain(tail, head), cost=self.cost(tail, head)
            )
        return graph

    def topological_order(self) -> List[str]:
        """Nodes of ``G_j`` in a topological order (source first)."""
        return list(nx.topological_sort(self.subgraph()))

    # -- validation ----------------------------------------------------------------
    def _check_dag_and_reachability(self) -> None:
        graph = nx.DiGraph(self.edges)
        if not nx.is_directed_acyclic_graph(graph):
            raise ValidationError(
                f"commodity {self.name!r}: edge set is not a DAG "
                f"(paper assumes per-stream DAGs)"
            )
        if not nx.has_path(graph, self.source, self.sink):
            raise ValidationError(
                f"commodity {self.name!r}: sink unreachable from source"
            )
        # every edge should lie on some source->sink path; dangling edges can
        # never carry useful flow and usually indicate a modelling bug.
        reach_from_src = nx.descendants(graph, self.source) | {self.source}
        reach_to_sink = nx.ancestors(graph, self.sink) | {self.sink}
        useful = reach_from_src & reach_to_sink
        dangling = [
            e for e in self.edges if e[0] not in useful or e[1] not in useful
        ]
        if dangling:
            raise ValidationError(
                f"commodity {self.name!r}: edges not on any source->sink path: "
                f"{dangling}; prune them (see Commodity.pruned)"
            )

    def validate_against(self, network: PhysicalNetwork) -> None:
        """Check this commodity is realisable on ``network``."""
        for tail, head in self.edges:
            if not network.has_link(tail, head):
                raise ValidationError(
                    f"commodity {self.name!r} uses edge ({tail!r}, {head!r}) "
                    f"absent from the physical network"
                )
        if network.node(self.source).is_sink:
            raise ValidationError(
                f"commodity {self.name!r}: source {self.source!r} is a sink node"
            )
        if not network.node(self.sink).is_sink:
            raise ValidationError(
                f"commodity {self.name!r}: sink {self.sink!r} is not a sink node"
            )
        for tail, head in self.edges:
            if network.node(tail).is_sink:
                raise ValidationError(
                    f"commodity {self.name!r}: sink {tail!r} cannot process"
                )

    # -- constructors ---------------------------------------------------------------
    @classmethod
    def from_subgraph(
        cls,
        name: str,
        source: str,
        sink: str,
        max_rate: float,
        edges: Iterable[Edge],
        potentials: Mapping[str, float],
        costs: Mapping[Edge, float],
        utility: Optional[UtilityFunction] = None,
        prune: bool = False,
    ) -> "Commodity":
        """Build from an explicit edge set; optionally prune dangling edges."""
        edges = list(dict.fromkeys(edges))
        if prune:
            graph = nx.DiGraph(edges)
            if source not in graph or sink not in graph or not nx.has_path(
                graph, source, sink
            ):
                raise ValidationError(
                    f"commodity {name!r}: sink unreachable from source"
                )
            useful = (nx.descendants(graph, source) | {source}) & (
                nx.ancestors(graph, sink) | {sink}
            )
            edges = [e for e in edges if e[0] in useful and e[1] in useful]
        return cls(
            name=name,
            source=source,
            sink=sink,
            max_rate=max_rate,
            edges=edges,
            potentials=potentials,
            costs=costs,
            utility=utility,
        )

    @classmethod
    def from_task_chain(
        cls,
        name: str,
        network: PhysicalNetwork,
        tasks: Sequence[Task],
        placement: Mapping[str, Iterable[str]],
        source: str,
        sink: str,
        max_rate: float,
        utility: Optional[UtilityFunction] = None,
    ) -> "Commodity":
        """Build a commodity from a task chain and a task->servers placement.

        This mirrors the paper's Figure-1 construction: tasks ``T_1 .. T_m``
        must be completed in order; ``placement[task.name]`` lists the servers
        hosting each task (a task may be replicated on several servers); the
        source hosts ``T_1``; results of ``T_m`` are shipped to ``sink``.
        Node ``i`` hosting ``T_l`` has, for each layer-``l+1`` host ``k``
        physically linked from ``i``, an edge with ``cost = T_l.cost`` and
        ``gain = T_l.gain``.  Hosts not reachable on any full chain are
        pruned, as in the paper's example.
        """
        if not tasks:
            raise ValidationError(f"commodity {name!r}: empty task chain")
        layers: List[List[str]] = []
        for task in tasks:
            hosts = list(dict.fromkeys(placement.get(task.name, ())))
            if not hosts:
                raise ValidationError(
                    f"commodity {name!r}: task {task.name!r} has no placement"
                )
            layers.append(hosts)
        if layers[0] != [source]:
            raise ValidationError(
                f"commodity {name!r}: first task must be placed exactly on the "
                f"source {source!r}, got {layers[0]}"
            )
        layers.append([sink])

        edges: List[Edge] = []
        costs: Dict[Edge, float] = {}
        potentials: Dict[str, float] = {}
        cumulative_gain = 1.0
        for depth, task in enumerate(tasks):
            for host in layers[depth]:
                potentials[host] = cumulative_gain
            for tail in layers[depth]:
                for head in layers[depth + 1]:
                    if network.has_link(tail, head):
                        edge = (tail, head)
                        edges.append(edge)
                        costs[edge] = task.cost
            cumulative_gain *= task.gain
        potentials[sink] = cumulative_gain

        if not edges:
            raise ValidationError(
                f"commodity {name!r}: placement induces no usable edges"
            )
        commodity = cls.from_subgraph(
            name=name,
            source=source,
            sink=sink,
            max_rate=max_rate,
            edges=edges,
            potentials=potentials,
            costs=costs,
            utility=utility,
            prune=True,
        )
        commodity.validate_against(network)
        return commodity

    def __repr__(self) -> str:
        return (
            f"Commodity({self.name!r}, {self.source!r}->{self.sink!r}, "
            f"lambda={self.max_rate}, |E_j|={len(self.edges)})"
        )


@dataclass
class StreamNetwork:
    """The complete problem instance: physical network plus commodities.

    This is the main user-facing model object; hand it to
    :func:`repro.solve` or to the algorithm classes.
    """

    physical: PhysicalNetwork
    commodities: List[Commodity] = field(default_factory=list)

    def add_commodity(self, commodity: Commodity) -> Commodity:
        if any(c.name == commodity.name for c in self.commodities):
            raise ModelError(f"duplicate commodity {commodity.name!r}")
        commodity.validate_against(self.physical)
        self.commodities.append(commodity)
        return commodity

    def commodity(self, name: str) -> Commodity:
        for c in self.commodities:
            if c.name == name:
                return c
        raise ModelError(f"unknown commodity {name!r}")

    @property
    def num_commodities(self) -> int:
        return len(self.commodities)

    def validate(self, require_connected: bool = True) -> None:
        """Validate the physical layer and every commodity against it.

        ``require_connected=False`` skips the weak-connectivity check of the
        physical graph; used after failure events, which may legitimately
        split the system into independent islands that each keep operating.
        """
        if require_connected:
            self.physical.validate()
        else:
            if not self.physical.nodes:
                raise ValidationError("network has no nodes")
        if not self.commodities:
            raise ValidationError("stream network has no commodities")
        sinks_used = [c.sink for c in self.commodities]
        if len(set(sinks_used)) != len(sinks_used):
            raise ValidationError(
                "each commodity must have a unique sink node (paper, Section 2)"
            )
        for c in self.commodities:
            c.validate_against(self.physical)

    def __repr__(self) -> str:
        return (
            f"StreamNetwork(nodes={self.physical.num_nodes}, "
            f"links={self.physical.num_links}, commodities={self.num_commodities})"
        )


def validate_property1(
    edges: Iterable[Edge], gains: Mapping[Edge, float], rel_tol: float = 1e-9
) -> Dict[str, float]:
    """Check Property 1 for a user-supplied per-edge gain table.

    Property 1 (paper, Section 2) demands the product of gains along any two
    paths with common endpoints be equal.  That holds iff ``log(gain)`` is a
    potential difference; we recover potentials by BFS over the weakly
    connected components and verify every edge agrees.

    Returns the recovered potentials (one arbitrary node per component pinned
    to 1.0).  Raises :class:`ValidationError` if Property 1 fails.
    """
    edges = list(edges)
    graph = nx.Graph()
    directed: Dict[Edge, float] = {}
    for (tail, head) in edges:
        if (tail, head) not in gains:
            raise ValidationError(f"missing gain for edge ({tail!r}, {head!r})")
        g = float(gains[(tail, head)])
        if not g > 0:
            raise ValidationError(f"gain of ({tail!r}, {head!r}) must be > 0")
        directed[(tail, head)] = g
        graph.add_edge(tail, head)

    potentials: Dict[str, float] = {}
    for component in nx.connected_components(graph):
        root = min(component)
        potentials[root] = 1.0
        for parent, child in nx.bfs_edges(graph, root):
            if (parent, child) in directed:
                potentials[child] = potentials[parent] * directed[(parent, child)]
            else:
                potentials[child] = potentials[parent] / directed[(child, parent)]

    for (tail, head), g in directed.items():
        implied = potentials[head] / potentials[tail]
        if not math.isclose(implied, g, rel_tol=rel_tol):
            raise ValidationError(
                f"Property 1 violated at edge ({tail!r}, {head!r}): "
                f"gain {g} but path-consistent value is {implied}"
            )
    return potentials


def potentials_from_gains(
    edges: Iterable[Edge], gains: Mapping[Edge, float]
) -> Dict[str, float]:
    """Alias of :func:`validate_property1` emphasising the returned potentials."""
    return validate_property1(edges, gains)
