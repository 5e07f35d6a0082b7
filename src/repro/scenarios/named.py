"""Named end-to-end paper instances.

* :func:`figure1_network` -- the paper's running example (Figure 1): 8
  servers, two streams with overlapping placements on servers 3 and 5.
* :func:`sensor_fusion_network` -- an environmental-monitoring workload from
  the paper's motivation: shrinking filter/aggregate pipelines, log
  utilities (fair sharing across sensor fields).
* :func:`financial_pipeline_network` -- a market-data workload: an expanding
  decrypt stage (gain > 1) followed by parse and aggregate stages, mixing a
  latency-critical capped utility with a throughput utility.

Each returns a validated :class:`~repro.core.commodity.StreamNetwork`.
"""

from __future__ import annotations

from typing import List

from repro.core.commodity import Commodity, StreamNetwork, Task
from repro.core.network import PhysicalNetwork
from repro.core.utility import CappedLinearUtility, LinearUtility, LogUtility

__all__ = [
    "figure1_network",
    "sensor_fusion_network",
    "financial_pipeline_network",
]


def figure1_network(
    capacity: float = 50.0,
    bandwidth: float = 40.0,
    rate_s1: float = 15.0,
    rate_s2: float = 12.0,
) -> StreamNetwork:
    """The paper's Figure-1 example, built through the task-chain API.

    Stream S1 runs tasks A, B, C, D; stream S2 runs G, E, F, H.  The task
    placement is the paper's: ``T1={A}, T2={B}, T3={B,E}, T4={C}, T5={C,F},
    T6={D}, T7={G}, T8={H}`` -- servers 3 and 5 are shared between the
    streams, creating the resource coupling the algorithms must resolve.
    """
    physical = PhysicalNetwork()
    for i in range(1, 9):
        physical.add_server(f"server{i}", capacity)
    physical.add_sink("sink1")
    physical.add_sink("sink2")

    links: List[tuple] = [
        # stream S1's lattice
        ("server1", "server2"),
        ("server1", "server3"),
        ("server2", "server4"),
        ("server2", "server5"),
        ("server3", "server4"),
        ("server3", "server5"),
        ("server4", "server6"),
        ("server5", "server6"),
        ("server6", "sink1"),
        # stream S2's chain (3 -> 5 shared with S1's lattice)
        ("server7", "server3"),
        ("server5", "server8"),
        ("server8", "sink2"),
    ]
    for tail, head in links:
        physical.add_link(tail, head, bandwidth)

    s1_tasks = [
        Task("A", cost=1.0, gain=0.8),  # light filter
        Task("B", cost=2.0, gain=0.6),  # aggregation shrinks the stream
        Task("C", cost=1.5, gain=1.2),  # annotation expands it a little
        Task("D", cost=1.0, gain=1.0),  # final formatting
    ]
    s1_placement = {
        "A": ["server1"],
        "B": ["server2", "server3"],
        "C": ["server4", "server5"],
        "D": ["server6"],
    }
    s2_tasks = [
        Task("G", cost=1.0, gain=1.5),  # decryption expands
        Task("E", cost=2.5, gain=0.5),  # heavy filtering
        Task("F", cost=1.0, gain=0.9),
        Task("H", cost=0.5, gain=1.0),
    ]
    s2_placement = {
        "G": ["server7"],
        "E": ["server3"],
        "F": ["server5"],
        "H": ["server8"],
    }

    network = StreamNetwork(physical=physical)
    network.add_commodity(
        Commodity.from_task_chain(
            name="S1",
            network=physical,
            tasks=s1_tasks,
            placement=s1_placement,
            source="server1",
            sink="sink1",
            max_rate=rate_s1,
            utility=LinearUtility(),
        )
    )
    network.add_commodity(
        Commodity.from_task_chain(
            name="S2",
            network=physical,
            tasks=s2_tasks,
            placement=s2_placement,
            source="server7",
            sink="sink2",
            max_rate=rate_s2,
            utility=LinearUtility(),
        )
    )
    network.validate()
    return network


def sensor_fusion_network(num_fields: int = 3) -> StreamNetwork:
    """Environmental monitoring: ``num_fields`` sensor fields feed a shared
    two-tier aggregation fabric; log utilities favour fair admission.

    Fields are deliberately *asymmetric*: field ``f``'s aggregation costs
    grow with ``f`` (denser sensors need more cleanup per unit), so a pure
    throughput objective starves the expensive fields at the congested
    aggregator tier while the default log utilities keep every field alive.
    """
    if not 1 <= num_fields <= 4:
        raise ValueError("num_fields must be between 1 and 4")
    physical = PhysicalNetwork()
    gateways = []
    for f in range(num_fields):
        name = f"gateway{f}"
        physical.add_server(name, capacity=30.0)
        gateways.append(name)
    aggregators = ["agg0", "agg1"]
    for name in aggregators:
        physical.add_server(name, capacity=30.0)
    physical.add_server("fusion", capacity=80.0)
    sinks = []
    for f in range(num_fields):
        sink = f"ops{f}"
        physical.add_sink(sink)
        sinks.append(sink)

    for gateway in gateways:
        for agg in aggregators:
            physical.add_link(gateway, agg, bandwidth=25.0)
    for agg in aggregators:
        physical.add_link(agg, "fusion", bandwidth=40.0)
    for sink in sinks:
        physical.add_link("fusion", sink, bandwidth=30.0)

    network = StreamNetwork(physical=physical)
    for f in range(num_fields):
        tasks = [
            Task("denoise", cost=1.0, gain=0.7),
            Task("aggregate", cost=1.0 + 1.5 * f, gain=0.4),
            Task("fuse", cost=1.5, gain=0.9),
        ]
        placement = {
            "denoise": [gateways[f]],
            "aggregate": aggregators,
            "fuse": ["fusion"],
        }
        network.add_commodity(
            Commodity.from_task_chain(
                name=f"field{f}",
                network=physical,
                tasks=tasks,
                placement=placement,
                source=gateways[f],
                sink=sinks[f],
                max_rate=25.0,
                utility=LogUtility(weight=10.0),
            )
        )
    network.validate()
    return network


def financial_pipeline_network() -> StreamNetwork:
    """Market-data processing with an expanding decrypt stage.

    Two streams: ``ticker`` (latency-critical; capped utility saturating at
    its target rate) and ``depth`` (bulk order-book updates; throughput
    utility).  The decrypt stage expands data 1.6x, so bandwidth *after* the
    first hop is the scarce resource -- exercising the regime where flow
    conservation genuinely fails.
    """
    physical = PhysicalNetwork()
    physical.add_server("ingest_a", capacity=40.0)
    physical.add_server("ingest_b", capacity=40.0)
    for name in ("decode0", "decode1"):
        physical.add_server(name, capacity=50.0)
    physical.add_server("analytics", capacity=70.0)
    physical.add_sink("traders")
    physical.add_sink("risk")

    for ingest in ("ingest_a", "ingest_b"):
        for decode in ("decode0", "decode1"):
            physical.add_link(ingest, decode, bandwidth=35.0)
    for decode in ("decode0", "decode1"):
        physical.add_link(decode, "analytics", bandwidth=30.0)
    physical.add_link("analytics", "traders", bandwidth=25.0)
    physical.add_link("analytics", "risk", bandwidth=25.0)

    decrypt = Task("decrypt", cost=1.2, gain=1.6)
    parse = Task("parse", cost=2.0, gain=0.8)
    aggregate = Task("aggregate", cost=1.0, gain=0.5)

    network = StreamNetwork(physical=physical)
    network.add_commodity(
        Commodity.from_task_chain(
            name="ticker",
            network=physical,
            tasks=[decrypt, parse, aggregate],
            placement={
                "decrypt": ["ingest_a"],
                "parse": ["decode0", "decode1"],
                "aggregate": ["analytics"],
            },
            source="ingest_a",
            sink="traders",
            max_rate=20.0,
            utility=CappedLinearUtility(cap=8.0, weight=5.0),
        )
    )
    network.add_commodity(
        Commodity.from_task_chain(
            name="depth",
            network=physical,
            tasks=[decrypt, parse, aggregate],
            placement={
                "decrypt": ["ingest_b"],
                "parse": ["decode0", "decode1"],
                "aggregate": ["analytics"],
            },
            source="ingest_b",
            sink="risk",
            max_rate=30.0,
            utility=LinearUtility(weight=1.0),
        )
    )
    network.validate()
    return network
