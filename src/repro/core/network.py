"""Physical stream-processing network model.

Section 2 of the paper models the substrate as a capacitated directed graph
``G0 = (N0, E0)``:

* ``N0`` splits into processing nodes ``P`` (servers and sources -- sources
  can process) and sinks ``J`` (receive only);
* every processing node ``u`` has a computing budget ``C_u``;
* every directed link ``(i, k)`` has a bandwidth ``B_ik``.

This module holds that physical layer only.  Commodities (streams, task
chains, gains, utilities) live in :mod:`repro.core.commodity`; the combined
model in :class:`repro.core.network.StreamNetwork` is assembled there too via
a thin wrapper re-exported from this module for convenience.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, List, Tuple

import networkx as nx

from repro.exceptions import ModelError, ValidationError

__all__ = ["NodeKind", "Node", "Link", "PhysicalNetwork"]


class NodeKind(Enum):
    """Role of a physical node.  Sources are ordinary processing nodes."""

    PROCESSING = "processing"
    SINK = "sink"


@dataclass(frozen=True)
class Node:
    """A physical node: a server (with compute budget) or a sink.

    Sinks only receive data (paper, Section 2); their ``capacity`` is stored
    as ``inf`` because they never consume compute.
    """

    name: str
    kind: NodeKind
    capacity: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValidationError("node name must be non-empty")
        if self.kind is NodeKind.PROCESSING:
            if not self.capacity > 0:
                raise ValidationError(
                    f"processing node {self.name!r} needs capacity > 0, "
                    f"got {self.capacity}"
                )
        elif self.capacity != float("inf"):
            raise ValidationError(
                f"sink {self.name!r} does not process; capacity must be inf"
            )

    @property
    def is_sink(self) -> bool:
        return self.kind is NodeKind.SINK


@dataclass(frozen=True)
class Link:
    """A directed physical link with finite bandwidth ``B_ik``."""

    tail: str
    head: str
    bandwidth: float

    def __post_init__(self) -> None:
        if self.tail == self.head:
            raise ValidationError(f"self-loop link at {self.tail!r} not allowed")
        if not self.bandwidth > 0:
            raise ValidationError(
                f"link ({self.tail!r}, {self.head!r}) needs bandwidth > 0, "
                f"got {self.bandwidth}"
            )

    @property
    def key(self) -> Tuple[str, str]:
        return (self.tail, self.head)


class PhysicalNetwork:
    """The capacitated directed graph ``G0 = (N0, E0)`` of the paper.

    Build incrementally with :meth:`add_server`, :meth:`add_sink` and
    :meth:`add_link`, then call :meth:`validate`.

    Example
    -------
    >>> net = PhysicalNetwork()
    >>> net.add_server("s1", capacity=10.0)
    >>> net.add_sink("d1")
    >>> net.add_link("s1", "d1", bandwidth=5.0)
    >>> net.validate()
    """

    def __init__(self) -> None:
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[Tuple[str, str], Link] = {}

    # -- construction ----------------------------------------------------------
    def add_server(self, name: str, capacity: float) -> Node:
        """Add a processing node with compute budget ``capacity``."""
        return self._add_node(Node(name, NodeKind.PROCESSING, float(capacity)))

    def add_sink(self, name: str) -> Node:
        """Add a sink node (receives data, never processes)."""
        return self._add_node(Node(name, NodeKind.SINK, float("inf")))

    def _add_node(self, node: Node) -> Node:
        if node.name in self._nodes:
            raise ModelError(f"duplicate node {node.name!r}")
        self._nodes[node.name] = node
        return node

    def add_link(self, tail: str, head: str, bandwidth: float) -> Link:
        """Add a directed link ``tail -> head`` with the given bandwidth."""
        for endpoint in (tail, head):
            if endpoint not in self._nodes:
                raise ModelError(f"link endpoint {endpoint!r} is not a known node")
        if self._nodes[tail].is_sink:
            raise ModelError(f"sink {tail!r} cannot originate a link")
        link = Link(tail, head, float(bandwidth))
        if link.key in self._links:
            raise ModelError(f"duplicate link {link.key!r}")
        self._links[link.key] = link
        return link

    def set_capacity(self, name: str, capacity: float) -> None:
        """Give processing node ``name`` the compute budget ``capacity``."""
        if self.node(name).is_sink:
            raise ModelError("sinks have no capacity to change")
        self._nodes[name] = Node(name, NodeKind.PROCESSING, float(capacity))

    # -- accessors -------------------------------------------------------------
    @property
    def nodes(self) -> Dict[str, Node]:
        return dict(self._nodes)

    @property
    def links(self) -> Dict[Tuple[str, str], Link]:
        return dict(self._links)

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise ModelError(f"unknown node {name!r}") from None

    def link(self, tail: str, head: str) -> Link:
        try:
            return self._links[(tail, head)]
        except KeyError:
            raise ModelError(f"unknown link ({tail!r}, {head!r})") from None

    def has_link(self, tail: str, head: str) -> bool:
        return (tail, head) in self._links

    def processing_nodes(self) -> List[Node]:
        return [n for n in self._nodes.values() if not n.is_sink]

    def sinks(self) -> List[Node]:
        return [n for n in self._nodes.values() if n.is_sink]

    def out_links(self, name: str) -> List[Link]:
        return [l for l in self._links.values() if l.tail == name]

    def in_links(self, name: str) -> List[Link]:
        return [l for l in self._links.values() if l.head == name]

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_links(self) -> int:
        return len(self._links)

    # -- validation & export ---------------------------------------------------
    def validate(self) -> None:
        """Check structural sanity: non-empty, weakly connected, sinks sink-like.

        Graph ``G`` "is assumed to be connected" in the paper; we enforce weak
        connectivity, which is what a meaningful instance needs.
        """
        if not self._nodes:
            raise ValidationError("network has no nodes")
        if not self._links:
            raise ValidationError("network has no links")
        graph = self.to_networkx()
        if not nx.is_weakly_connected(graph):
            raise ValidationError("network graph is not (weakly) connected")

    def to_networkx(self) -> "nx.DiGraph":
        """Export as a :class:`networkx.DiGraph` with capacity attributes."""
        graph = nx.DiGraph()
        for node in self._nodes.values():
            graph.add_node(node.name, kind=node.kind.value, capacity=node.capacity)
        for link in self._links.values():
            graph.add_edge(link.tail, link.head, bandwidth=link.bandwidth)
        return graph

    def copy(self) -> "PhysicalNetwork":
        """Return a deep, independent copy of this network."""
        clone = PhysicalNetwork()
        clone._nodes = dict(self._nodes)
        clone._links = dict(self._links)
        return clone

    def __repr__(self) -> str:
        return (
            f"PhysicalNetwork(nodes={self.num_nodes}, links={self.num_links}, "
            f"sinks={len(self.sinks())})"
        )


def weakly_connected(nodes: Iterable[str], edges: Iterable[Tuple[str, str]]) -> bool:
    """Convenience: is the graph on ``nodes`` with ``edges`` weakly connected?"""
    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    if graph.number_of_nodes() == 0:
        return False
    return nx.is_weakly_connected(graph)
