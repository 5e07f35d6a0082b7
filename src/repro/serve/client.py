"""``repro.serve.client``: blocking client and churn-replay load driver.

:class:`ServeClient` is a small synchronous client for the
``repro.serve/1`` protocol -- one socket, newline-delimited JSON, optional
pipelining (write ``N`` requests, then read ``N`` responses in order).
Pipelining is what makes a single connection fast against a batching
server: a strictly request-response client pays one whole batch (apply,
refine, audit, publish) per event, while with a pipeline of 16 the events
that queue during one batch share the next.

:func:`replay_trace` is the load driver: it replays a
:func:`repro.scenarios.churn_trace` event timeline against a live daemon,
records one latency sample per event (enqueue to response), and reports
sustained events/sec plus latency quantiles -- the numbers
``benchmarks/bench_serve.py`` gates and ``BENCH_SERVE.json`` records.

Run it from the command line against a running daemon (the driver fetches
the model from ``hello`` and generates a deterministic trace against it)::

    python -m repro.serve.client --port 7471 --events 200 --pipeline 16

or replay a named scenario's compiled timeline against a daemon started
with the same scenario (``repro serve --scenario serve-diurnal-30``)::

    python -m repro.serve.client --port 7471 --scenario serve-diurnal-30
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.exceptions import ServeError
from repro.serve import protocol

__all__ = ["ServeClient", "ReplayReport", "replay_trace", "main"]


class ServeClient:
    """A blocking ``repro.serve/1`` client over one TCP connection."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, timeout: float = 60.0
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        # pipelined requests are many small writes: without TCP_NODELAY,
        # Nagle holds them back waiting for a delayed ACK the batching
        # server only sends ~40 ms later, fragmenting every batch
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._sock.makefile("rb")
        self._next_id = 0

    # -- plumbing -----------------------------------------------------------------

    def send(self, op: str, **payload: Any) -> int:
        """Write one request; returns its id (read later, in order)."""
        self._next_id += 1
        request_id = self._next_id
        self._sock.sendall(protocol.encode_request(op, id=request_id, **payload))
        return request_id

    def read(self) -> Dict[str, Any]:
        """Read the next response line (in request order)."""
        line = self._file.readline()
        if not line:
            raise ServeError("server closed the connection")
        return protocol.decode_response(line)

    def request(self, op: str, **payload: Any) -> Dict[str, Any]:
        """One strict request/response round-trip."""
        self.send(op, **payload)
        return self.read()

    # -- the ops ------------------------------------------------------------------

    def hello(self) -> Dict[str, Any]:
        return self.request("hello")

    def stats(self) -> Dict[str, Any]:
        return self.request("stats")

    def admit(self, commodity: Dict[str, Any]) -> Dict[str, Any]:
        """Request admission of a new session (``commodity``: the spec dict
        of :func:`repro.io.commodity_to_dict`)."""
        return self.request("admit", commodity=commodity)

    def depart(self, commodity: str) -> Dict[str, Any]:
        return self.request("depart", commodity=commodity)

    def demand(self, commodity: str, rate: float) -> Dict[str, Any]:
        return self.request("demand", commodity=commodity, rate=rate)

    def capacity(self, node: str, capacity: float) -> Dict[str, Any]:
        return self.request("capacity", node=node, capacity=capacity)

    def link_down(self, tail: str, head: str) -> Dict[str, Any]:
        return self.request("link_down", link=[tail, head])

    def node_down(self, node: str) -> Dict[str, Any]:
        return self.request("node_down", node=node)

    def shutdown(self) -> Dict[str, Any]:
        return self.request("shutdown")

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an already-sorted sample (0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values))))
    return sorted_values[rank]


@dataclass
class ReplayReport:
    """What one load-driver run measured."""

    events: int = 0
    accepted: int = 0
    rejected: int = 0
    errors: int = 0
    elapsed_seconds: float = 0.0
    latencies: List[float] = field(default_factory=list)
    final_epoch: int = 0
    max_staleness: int = 0  # max(current_epoch - answered epoch) observed

    @property
    def events_per_second(self) -> float:
        return self.events / self.elapsed_seconds if self.elapsed_seconds else 0.0

    @property
    def p50_ms(self) -> float:
        return 1e3 * _quantile(sorted(self.latencies), 0.50)

    @property
    def p99_ms(self) -> float:
        return 1e3 * _quantile(sorted(self.latencies), 0.99)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": "repro.serve.replay/1",
            "events": self.events,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "errors": self.errors,
            "elapsed_seconds": self.elapsed_seconds,
            "events_per_second": self.events_per_second,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "final_epoch": self.final_epoch,
            "max_staleness": self.max_staleness,
        }


def replay_trace(
    client: ServeClient,
    events: Sequence[Any],
    pipeline: int = 16,
    on_response: Optional[Any] = None,
) -> ReplayReport:
    """Replay an event timeline, pipelined ``pipeline`` requests deep.

    Each event's latency is measured from the moment its request hits the
    socket to the moment its response is read; with pipelining those
    windows overlap, which is exactly how a real fan-in of independent
    clients loads the daemon.
    """
    if pipeline < 1:
        raise ServeError("pipeline must be >= 1")
    report = ReplayReport()
    started = time.perf_counter()
    in_flight: List[float] = []

    def drain_one() -> None:
        sent_at = in_flight.pop(0)
        response = client.read()
        report.latencies.append(time.perf_counter() - sent_at)
        report.events += 1
        if not response.get("ok"):
            report.errors += 1
        elif response.get("decision") == "reject":
            report.rejected += 1
        else:
            report.accepted += 1
        answered = response.get("epoch")
        current = response.get("current_epoch")
        if isinstance(answered, int):
            report.final_epoch = max(report.final_epoch, answered)
            if isinstance(current, int):
                report.max_staleness = max(
                    report.max_staleness, current - answered
                )
        if on_response is not None:
            on_response(response)

    for event in events:
        op, payload = protocol.event_to_request(event)
        in_flight.append(time.perf_counter())
        client.send(op, **payload)
        while len(in_flight) >= pipeline:
            drain_one()
    while in_flight:
        drain_one()
    report.elapsed_seconds = time.perf_counter() - started
    return report


def _generate_trace(model: Dict[str, Any], num_events: int, seed: int):
    """A deterministic churn trace against the server's own model."""
    from repro.io import network_from_dict
    from repro.scenarios import ChurnSpec, churn_trace

    network = network_from_dict(model)
    return churn_trace(network, ChurnSpec(num_events=num_events), seed=seed)


def _scenario_trace(name: str, seed: Optional[int]):
    """The compiled event timeline of a named scenario.

    Replays correctly against a daemon started with ``repro serve
    --scenario <name>`` (same seed): both sides compile the same spec, so
    the trace references exactly the commodities/nodes the server holds.
    """
    from repro.scenarios import scenario

    return scenario(name, seed=seed).compile().events


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.serve.client",
        description="Load driver: replay a generated churn trace against a "
        "running repro serve daemon and report throughput/latency.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--events", type=int, default=200)
    parser.add_argument("--pipeline", type=int, default=16)
    parser.add_argument(
        "--seed", type=int, default=None,
        help="trace seed (default: 0, or the scenario's pinned seed)",
    )
    parser.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="replay the named scenario's compiled trace instead of a "
        "generated churn trace (start the daemon with "
        "'repro serve --scenario NAME' so the models match; "
        "--events is ignored)",
    )
    parser.add_argument(
        "--shutdown", action="store_true",
        help="send a shutdown (drain) request after the replay",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the replay report as a JSON document",
    )
    args = parser.parse_args(argv)

    with ServeClient(args.host, args.port) as client:
        hello = client.hello()
        if args.scenario is not None:
            events = _scenario_trace(args.scenario, args.seed)
        else:
            events = _generate_trace(
                hello["model"], args.events, args.seed or 0
            )
        report = replay_trace(client, events, pipeline=args.pipeline)
        stats = client.stats()
        if args.shutdown:
            client.shutdown()

    if args.json:
        doc = report.to_dict()
        doc["server_stats"] = stats.get("stats", {})
        print(json.dumps(doc, indent=2))
    else:
        print(
            f"replayed {report.events} events in "
            f"{report.elapsed_seconds:.2f}s: "
            f"{report.events_per_second:.1f} events/s, "
            f"p50 {report.p50_ms:.1f} ms, p99 {report.p99_ms:.1f} ms, "
            f"{report.accepted} admitted / {report.rejected} rejected / "
            f"{report.errors} errors, final epoch {report.final_epoch}"
        )
    return 0 if report.errors == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
