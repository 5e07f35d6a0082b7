"""The serve workloads: ``python -m repro serve`` as a separate process under load.

The daemon runs with its default configuration on a pinned catalog network.
One run is:

1. **set-up** -- spawn the daemon ``SETUP_SPAWNS`` times and time each spawn
   to its readiness line (which includes the 200-iteration warm-up); the
   last daemon serves the run;
2. **closed loop** -- one connection, pipeline depth 32, over the first part
   of the trace.  It drains and reads ``stats`` and ``hello`` at
   ``CHECKPOINTS`` fixed points, so the published utility and the model it
   was published for are known exactly; those pauses are not timed;
3. **open loop** -- a trace seeded by ``--seed`` that continues from the
   model the closed loop leaves, sent on a fixed schedule at the workload's
   offered rate on one connection, while a second connection reads
   ``stats`` at ``STATS_RATE``.
   The sender is the main thread and one reader thread serves both
   connections: two threads, two connections.

The LP optimum of every checkpoint model is solved after the load is over.
With ``--trace 1`` the closed loop's batches are replayed offline
(:mod:`replay`) for the per-stage split.
"""

from __future__ import annotations

import json
import os
import select
import selectors
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np
from common import (
    ROOT,
    WORK,
    BenchError,
    child_env,
    lp_optima,
    median,
    percentile,
    tail_percentile,
)

from repro.io import save_network
from repro.online.rebuild import apply_event
from repro.scenarios import SERVE_WEIGHTS, ChurnSpec, churn_trace, scenario
from repro.serve import protocol


@dataclass(frozen=True)
class ServeWorkload:
    scenario: str  # catalog entry whose (pinned-seed) network is served
    weights: Dict[str, float]  # churn-trace event mix
    closed_rate: float  # nominal closed-loop ev/s: sizes the closed phase
    offered_rate: float  # open-loop ev/s, ~40% of the measured closed rate


WORKLOADS = {
    "serve-mix-120": ServeWorkload(
        scenario="serve-mix-120",
        weights=dict(SERVE_WEIGHTS),
        closed_rate=600.0,
        offered_rate=250.0,
    ),
    # not in BENCHMARK.json: the daemon fails its capacity audit on about
    # one run in ten, and the open-loop latencies spread 0.3-0.5 between
    # runs (perfbench/README.md, "Findings").  The catalog's own churn-120
    # mix collapses to one commodity within a few hundred events; arrivals
    # drawn twice as often as departures keep the model populated.  Capacity
    # events are left out: their downward drift tripled the audit failures.
    "serve-session-churn-120": ServeWorkload(
        scenario="churn-120",
        weights={"demand": 2.0, "arrival": 2.0, "departure": 1.0},
        closed_rate=240.0,
        offered_rate=100.0,
    ),
}

SETUP_SPAWNS = 3
PIPELINE = 32
CHECKPOINTS = 4
CLOSED_SHARE = 0.4  # of --seconds, at the nominal closed rate
STATS_RATE = 50.0  # stats reads per second during the open loop
# the open loop is not open if the sender stalls: beyond these the run is
# reported invalid
MAX_LATENESS_MS = 250.0
MAX_LATENESS_P99_MS = 25.0
READY_TIMEOUT = 120.0


class Connection:
    """One blocking ``repro.serve/1`` connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rb")

    def read(self) -> Dict:
        line = self.file.readline()
        if not line:
            raise BenchError("daemon closed the connection")
        return json.loads(line)

    def request(self, op: str, **payload) -> Dict:
        self.sock.sendall(protocol.encode_request(op, id=op, **payload))
        return self.read()

    def close(self) -> None:
        self.file.close()
        self.sock.close()


class Daemon:
    """``python -m repro serve MODEL`` as a child process."""

    def __init__(self, model_path) -> None:
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(model_path)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        )
        self.peak_rss_mb = 0.0
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        self.ready_s = time.perf_counter() - start
        if "listening on" not in line:
            self.kill()
            raise BenchError(f"daemon did not become ready: {line!r}")
        # "repro.serve/1 listening on HOST:PORT (...)"
        self.port = int(line.split()[3].rsplit(":", 1)[1])

    def shutdown(self) -> None:
        """Drain the daemon, reap it, and record its peak RSS."""
        conn = Connection(self.port)
        try:
            ack = conn.request("shutdown")
        finally:
            conn.close()
        if not ack.get("ok"):
            raise BenchError(f"shutdown refused: {ack}")
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.peak_rss_mb = usage.ru_maxrss / 1024.0
                self.proc.stdout.close()
                return
            time.sleep(0.01)
        self.kill()
        raise BenchError("daemon did not exit after shutdown")

    def kill(self) -> None:
        if self.proc.returncode is None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self.proc.stdout.close()


def closed_loop(port: int, lines: List[bytes], checkpoints: List[int]):
    """Pipelined replay; returns (seconds, responses, checkpoint reads)."""
    conn = Connection(port)
    responses: List[Optional[Dict]] = [None] * len(lines)
    reads = []
    elapsed = 0.0
    lo = 0
    try:
        for hi in checkpoints:
            start = time.perf_counter()
            pending = lo
            for i in range(lo, hi):
                conn.sock.sendall(lines[i])
                while i + 1 - pending >= PIPELINE:
                    responses[pending] = conn.read()
                    pending += 1
            while pending < hi:
                responses[pending] = conn.read()
                pending += 1
            elapsed += time.perf_counter() - start
            reads.append((conn.request("stats"), conn.request("hello")["model"]))
            lo = hi
    finally:
        conn.close()
    return elapsed, responses, reads


def open_loop(port: int, lines: List[bytes], offsets: List[float]):
    """Scheduled sender plus one reader thread over two connections.

    ``offsets[k]`` is when ``lines[k]`` is due, in seconds from the start.
    """
    events = Connection(port)
    reads = Connection(port)
    n = len(lines)
    duration = offsets[-1]
    n_stats = max(1, int(duration * STATS_RATE))
    start = time.perf_counter() + 0.05
    schedule = sorted(
        [(start + offsets[k], 0, k) for k in range(n)]
        + [(start + k / STATS_RATE, 1, k) for k in range(n_stats)]
    )
    due = {0: [0.0] * n, 1: [0.0] * n_stats}
    for t, kind, k in schedule:
        due[kind][k] = t
    received = {0: [None] * n, 1: [None] * n_stats}
    docs = {0: [None] * n, 1: [None] * n_stats}
    first_id = json.loads(lines[0])["id"] if n else 0
    stop = threading.Event()

    def reader() -> None:
        sel = selectors.DefaultSelector()
        sel.register(events.sock, selectors.EVENT_READ, 0)
        sel.register(reads.sock, selectors.EVENT_READ, 1)
        buffers = {0: b"", 1: b""}
        left = n + n_stats
        try:
            while left and not stop.is_set():
                for key, _ in sel.select(timeout=0.5):
                    data = key.fileobj.recv(1 << 16)
                    now = time.perf_counter()
                    if not data:
                        return
                    *complete, buffers[key.data] = (buffers[key.data] + data).split(b"\n")
                    for raw in complete:
                        doc = json.loads(raw)
                        k = doc["id"] - first_id if key.data == 0 else doc["id"]
                        received[key.data][k] = now
                        docs[key.data][k] = doc
                        left -= 1
        finally:
            sel.close()

    thread = threading.Thread(target=reader, name="perfbench-reader")
    thread.start()
    lateness = []
    try:
        for t, kind, k in schedule:
            now = time.perf_counter()
            if t > now:
                time.sleep(t - now)
            sent = time.perf_counter()
            if kind == 0:
                lateness.append(sent - t)
                events.sock.sendall(lines[k])
            else:
                reads.sock.sendall(protocol.encode_request("stats", id=k))
        thread.join(timeout=duration + 60.0)
    finally:
        stop.set()
        thread.join(timeout=5.0)
        events.close()
        reads.close()
    if thread.is_alive():
        raise BenchError("open-loop reader did not finish")
    return due, received, docs, lateness


def _event_failed(doc: Optional[Dict]) -> bool:
    return doc is None or not doc.get("ok")


def _failures(closed, opened, reads) -> Dict[str, int]:
    """Failed requests by phase and reason (error type, or the stats flag)."""
    counts: Counter = Counter()
    for phase, docs in (("closed", closed), ("open", opened), ("stats", reads)):
        for doc in docs:
            if doc is None:
                counts[f"{phase}:no-response"] += 1
            elif not doc.get("ok"):
                counts[f"{phase}:{doc.get('error', {}).get('type')}"] += 1
            elif phase == "stats" and not (doc.get("validated") and doc.get("healthy")):
                counts["stats:unvalidated-or-unhealthy"] += 1
    return dict(counts)


def run(workload: str, seed: int, seconds: int, trace: bool) -> Dict:
    spec = WORKLOADS[workload]
    catalog = scenario(spec.scenario)
    network = catalog.compile().network
    n_closed = int(round(CLOSED_SHARE * seconds * spec.closed_rate))
    n_open = int(round((1.0 - CLOSED_SHARE) * seconds * spec.offered_rate))
    # the closed-loop trace is pinned (the catalog's trace seed, network
    # seed + 1): between traces of this length utility_ratio moves by
    # 0.2-0.4, so a seeded closed loop would measure the trace, not the code.
    # The open-loop trace continues from the model the closed loop leaves,
    # seeded by --seed, on a fixed schedule: jittering the arrival times
    # moved the p99 by more than a different trace did.
    events = churn_trace(
        network, ChurnSpec(num_events=n_closed, weights=dict(spec.weights)),
        seed=catalog.seed + 1,
    )
    shadow = network
    for event in events:
        shadow = apply_event(shadow, event).network
    events += churn_trace(
        shadow, ChurnSpec(num_events=n_open, weights=dict(spec.weights)), seed=seed
    )
    offsets = (np.arange(1, n_open + 1) / spec.offered_rate).tolist()
    lines = []
    for i, event in enumerate(events):
        op, payload = protocol.event_to_request(event)
        lines.append(protocol.encode_request(op, id=i, **payload))
    WORK.mkdir(exist_ok=True)
    model_path = WORK / f"{workload}.json"
    save_network(network, model_path)
    checkpoints = [
        round(n_closed * (k + 1) / CHECKPOINTS) for k in range(CHECKPOINTS)
    ]

    setup_times = []
    daemon = None
    try:
        for spawn in range(SETUP_SPAWNS):
            daemon = Daemon(model_path)
            setup_times.append(daemon.ready_s)
            if spawn + 1 < SETUP_SPAWNS:
                daemon.shutdown()
        closed_s, closed_docs, cp_reads = closed_loop(
            daemon.port, lines[:n_closed], checkpoints
        )
        due, received, docs, lateness = open_loop(
            daemon.port, lines[n_closed:], offsets
        )
        daemon.shutdown()
    finally:
        if daemon is not None:
            daemon.kill()

    optima = lp_optima(
        [model for _, model in cp_reads],
        [f"{workload}/trace-seed={catalog.seed + 1}/checkpoint={k}"
         for k in range(CHECKPOINTS)],
    )
    ratios = [stats["utility"] / opt for (stats, _), opt in zip(cp_reads, optima)]

    ev_latency = [
        r - d for d, r, doc in zip(due[0], received[0], docs[0])
        if r is not None and not _event_failed(doc)
    ]
    read_latency = [r - d for d, r in zip(due[1], received[1]) if r is not None]
    failures = _failures(closed_docs, docs[0], docs[1] + [s for s, _ in cp_reads])
    failed = sum(failures.values())
    attempted = len(lines) + len(docs[1]) + len(cp_reads)

    tail = tail_percentile(len(ev_latency))
    read_tail = tail_percentile(len(read_latency))
    late_tail = tail_percentile(len(lateness))
    lateness_max = 1e3 * max(lateness)
    lateness_p99 = 1e3 * percentile(lateness, late_tail)
    sender_ok = lateness_max <= MAX_LATENESS_MS and lateness_p99 <= MAX_LATENESS_P99_MS
    events_per_s = n_closed / closed_s
    notes = {
        "network": spec.scenario,
        "trace_events": len(events),
        "closed_events": n_closed,
        "open_events": n_open,
        "offered_rate": spec.offered_rate,
        "stats_rate": STATS_RATE,
        "events_per_s": events_per_s,
        "latency_percentile": tail,
        "read_percentile": read_tail,
        "read_p_ms": 1e3 * percentile(read_latency, read_tail),
        "lateness_max_ms": lateness_max,
        "lateness_p99_ms": lateness_p99,
        "sender_within_bound": sender_ok,
        "failures": failures,
        "checkpoint_ratios": ratios,
        "lp_optima": optima,
        "kinds": dict(Counter(type(event).__name__ for event in events)),
    }
    result = dict(attempted=attempted, failed=failed, notes=notes, valid=sender_ok)
    if not trace:
        result["metrics"] = {
            "setup_s": median(setup_times),
            "work_s": closed_s,
            "p50_ms": 1e3 * median(ev_latency),
            "p99_ms": 1e3 * percentile(ev_latency, tail),
            "utility_ratio": sum(ratios) / len(ratios),
            "peak_rss_mb": daemon.peak_rss_mb,
        }
        return result

    from replay import replay_split

    layer, mismatches, batches = replay_split(
        model_path, lines[:n_closed], closed_docs
    )
    result["attempted"] += batches
    result["failed"] += mismatches
    notes["replay_mismatches"] = mismatches
    layer["serve.outside_session_ms"] = (
        1e3 * closed_s / batches - layer["serve.session_ms"]
    )
    layer["serve.read_p99_ms"] = notes["read_p_ms"]
    layer["load.lateness_max_ms"] = lateness_max
    layer["load.lateness_p99_ms"] = lateness_p99
    result["metrics"] = layer
    return result

