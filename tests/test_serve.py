"""The serve daemon: protocol, coalescing, staleness, failure containment.

Pins the contracts docs/serving.md promises:

* wire schema round-trips (and junk costs one ``bad_request``, not the
  server),
* a burst of scalar events coalesces into ONE ``ProblemDelta`` / one epoch
  bump, bit-equivalent to applying the run one event at a time,
* event responses are composed after their own batch publishes, so the
  answered epoch trails the live model by at most the one in-flight batch,
* an optimizer crash turns into 503-style ``unavailable`` responses -- for
  the crashing batch AND everything after it -- never a hang, while reads
  keep serving the last good epoch,
* a full request queue answers ``overloaded`` (429) immediately,
* ``shutdown`` drains: every already-accepted request is answered before
  the socket closes,
* group commit: the optimizer takes everything queued the moment it is
  free (up to ``max_batch``), with no batch timer,
* a refine that overshoots capacity is projected back onto it, so the
  epoch still publishes.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.delta import apply_delta, compile_event
from repro.core.gradient import GradientConfig
from repro.core.marginals import CostModel
from repro.core.transform import build_extended_network
from repro.exceptions import ModelError, ServeError, ServeRequestError
from repro.obs import NULL_INSTRUMENTATION, Instrumentation
from repro.online.events import (
    CapacityChange,
    CommodityDeparture,
    DemandChange,
)
from repro.online.orchestrator import OnlineOrchestrator
from repro.online.rebuild import apply_event, apply_scalar_overrides
from repro.options import SolveOptions
from repro.parallel import ParallelBackend, SerialBackend
from repro.serve import (
    BatchQueue,
    ServeConfig,
    ServeSession,
    ServerThread,
    merge_scalar_run,
    plan_batch,
    protocol,
)
from repro.serve.batching import PendingEvent
from repro.serve.client import ServeClient, replay_trace
from repro.scenarios import (
    SERVE_WEIGHTS,
    ChurnSpec,
    churn_network,
    churn_trace,
    figure1_network,
    scenario,
)


def small_network():
    return churn_network(num_nodes=16, num_commodities=3, seed=5)


def quick_config(**overrides):
    base = dict(
        max_batch=16,
        refine_iterations=2,
        warmup_iterations=20,
        validate_epochs=True,
    )
    base.update(overrides)
    return ServeConfig(**base)


class GatedSession:
    """A real session whose first batch blocks until :meth:`release`.

    Records the events of every batch the daemon cuts, in order, so a test
    can hold the optimizer busy, queue requests behind it, and see how the
    next batches are cut.
    """

    def __init__(self, network):
        self.session = ServeSession(
            network, refine_iterations=2, warmup_iterations=20
        )
        self.batches = []
        self._gate = threading.Event()
        self._process = self.session.process_batch
        self.session.process_batch = self._gated

    def _gated(self, events):
        self.batches.append(list(events))
        if len(self.batches) == 1:
            self._gate.wait(timeout=30)
        return self._process(events)

    def release(self):
        self._gate.set()

    def wait_for_batches(self, count):
        wait_until(lambda: len(self.batches) >= count)


def wait_until(condition, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def rates(batch):
    return [event.new_rate for event in batch]


# ---------------------------------------------------------------- protocol


class TestProtocol:
    def test_request_round_trip(self):
        line = protocol.encode_request("demand", id=7, commodity="c1", rate=3.5)
        request = protocol.parse_request(line)
        assert request.op == "demand"
        assert request.id == 7
        assert request.payload == {"commodity": "c1", "rate": 3.5}
        assert request.is_event

    def test_event_round_trip_covers_every_kind(self):
        network = small_network()
        events = churn_trace(network, ChurnSpec(num_events=60), seed=1)
        kinds = {type(e).__name__ for e in events}
        assert len(kinds) >= 4  # the trace actually exercises the mix
        for event in events:
            op, payload = protocol.event_to_request(event)
            request = protocol.parse_request(
                protocol.encode_request(op, id=1, **payload)
            )
            rebuilt = protocol.request_to_event(request, at_iteration=0)
            assert type(rebuilt) is type(event)
            op2, payload2 = protocol.event_to_request(rebuilt)
            assert (op2, payload2) == (op, payload)

    def test_response_round_trip(self):
        line = protocol.encode_response(3, "demand", decision="admit", epoch=9)
        doc = protocol.decode_response(line)
        assert doc["schema"] == protocol.SERVE_SCHEMA
        assert doc["ok"] is True
        assert (doc["id"], doc["epoch"]) == (3, 9)

    def test_error_response_carries_http_idiom_code(self):
        doc = protocol.decode_response(
            protocol.error_response(4, "demand", "overloaded", "queue full")
        )
        assert doc["ok"] is False
        assert doc["error"]["code"] == 429
        assert doc["error"]["type"] == "overloaded"

    @pytest.mark.parametrize(
        "line",
        [
            b"not json\n",
            b"[1, 2]\n",
            b'{"op": "launch_missiles"}\n',
            b'{"id": 1}\n',
        ],
    )
    def test_junk_raises_request_error(self, line):
        with pytest.raises(ServeRequestError):
            protocol.parse_request(line)

    def test_bad_event_fields_raise(self):
        request = protocol.parse_request(b'{"op": "demand", "commodity": "c1"}\n')
        with pytest.raises(ServeRequestError):
            protocol.request_to_event(request)


# --------------------------------------------------------------- coalescing


class TestCoalescing:
    def test_plan_batch_groups_scalar_runs(self):
        d = DemandChange(at_iteration=0, commodity="c", new_rate=1.0)
        c = CapacityChange(at_iteration=0, node="n", new_capacity=1.0)
        s = CommodityDeparture(at_iteration=0, commodity="c")
        units = plan_batch([d, c, d, s, c, c, s])
        assert [len(u) for u in units] == [3, 1, 2, 1]
        assert units[1] == [s] and units[3] == [s]

    def test_scalar_run_merges_into_one_delta(self):
        network = small_network()
        ext = build_extended_network(network)
        names = [c.name for c in network.commodities]
        nodes = [
            n for n, node in network.physical.nodes.items() if not node.is_sink
        ]
        events = [
            DemandChange(at_iteration=0, commodity=names[0], new_rate=4.0),
            CapacityChange(at_iteration=0, node=nodes[0], new_capacity=9.0),
            DemandChange(at_iteration=0, commodity=names[1], new_rate=2.5),
            # last write wins on a repeated target
            DemandChange(at_iteration=0, commodity=names[0], new_rate=5.0),
        ]
        base = ext.epoch
        delta = merge_scalar_run(ext, events)
        assert delta.base_epoch == base
        assert delta.scalar is not None

        # one delta, one epoch bump (the scalar path patches in place)...
        merged = apply_delta(ext, delta).ext
        assert merged.epoch == base + 1

        # ...bit-equivalent to chaining the events one at a time
        chained = build_extended_network(network)
        for event in events:
            chained = apply_delta(chained, compile_event(chained, event)).ext
        assert chained.epoch == base + len(events)
        np.testing.assert_array_equal(merged.capacity, chained.capacity)
        for view_m, view_c in zip(merged.commodities, chained.commodities):
            assert view_m.max_rate == view_c.max_rate

    def test_merge_rejects_structural_and_empty(self):
        network = small_network()
        ext = build_extended_network(network)
        with pytest.raises(ServeError):
            merge_scalar_run(ext, [])
        with pytest.raises(ServeError):
            merge_scalar_run(
                ext,
                [
                    DemandChange(at_iteration=0, commodity="x", new_rate=1.0),
                    CommodityDeparture(at_iteration=0, commodity="x"),
                ],
            )

    def test_merge_unknown_name_raises_model_error(self):
        network = small_network()
        ext = build_extended_network(network)
        with pytest.raises(ModelError):
            merge_scalar_run(
                ext,
                [
                    DemandChange(at_iteration=0, commodity="nope", new_rate=1.0),
                    DemandChange(at_iteration=0, commodity="nope2", new_rate=1.0),
                ],
            )

    def test_session_bumps_epoch_once_per_scalar_burst(self):
        network = small_network()
        session = ServeSession(
            network, refine_iterations=2, warmup_iterations=20
        )
        session.warmup()
        names = [c.name for c in network.commodities]
        burst = [
            DemandChange(at_iteration=0, commodity=name, new_rate=3.0)
            for name in names
        ]
        before = session.current_epoch()
        outcomes, snapshot = session.process_batch(burst)
        assert session.current_epoch() == before + 1  # N events, ONE epoch
        assert all(o.accepted for o in outcomes)
        assert snapshot.epoch == before + 1
        assert snapshot.validation is not None and snapshot.validation.passed
        session.close()


class TestApplyScalarOverrides:
    def test_matches_chained_apply_event(self):
        network = small_network()
        names = [c.name for c in network.commodities]
        nodes = [
            n for n, node in network.physical.nodes.items() if not node.is_sink
        ]
        rates = {names[0]: 6.0, names[2]: 1.5}
        capacities = {nodes[0]: 11.0, nodes[3]: 2.0}
        merged = apply_scalar_overrides(network, rates, capacities)

        chained = network
        for name, rate in rates.items():
            chained = apply_event(
                chained,
                DemandChange(at_iteration=0, commodity=name, new_rate=rate),
            ).network
        for node, cap in capacities.items():
            chained = apply_event(
                chained,
                CapacityChange(at_iteration=0, node=node, new_capacity=cap),
            ).network

        for node in merged.physical.nodes:
            assert merged.physical.node(node).capacity == pytest.approx(
                chained.physical.node(node).capacity
            )
        for cm, cc in zip(merged.commodities, chained.commodities):
            assert cm.name == cc.name
            assert cm.max_rate == pytest.approx(cc.max_rate)
        # untouched commodities are shared, not copied (delta dirty-set keys
        # off object identity)
        untouched = [
            i for i, c in enumerate(network.commodities) if c.name not in rates
        ]
        for i in untouched:
            assert merged.commodities[i] is network.commodities[i]

    def test_validates_names_and_sinks(self):
        network = small_network()
        sink = next(
            n for n, node in network.physical.nodes.items() if node.is_sink
        )
        with pytest.raises(ModelError):
            apply_scalar_overrides(network, rates={"nope": 1.0})
        with pytest.raises(ModelError):
            apply_scalar_overrides(network, capacities={"nope": 1.0})
        with pytest.raises(ModelError):
            apply_scalar_overrides(network, capacities={sink: 1.0})


# ------------------------------------------------------------------ daemon


class TestServer:
    def test_hello_stats_and_admission_flow(self):
        network = small_network()
        names = [c.name for c in network.commodities]
        with ServerThread(network, config=quick_config()) as port:
            with ServeClient("127.0.0.1", port) as client:
                hello = client.hello()
                assert hello["ok"] is True
                assert hello["server"]["max_batch"] == 16
                assert {c["name"] for c in hello["model"]["commodities"]} == set(
                    names
                )

                response = client.demand(names[0], 2.5)
                assert response["ok"] is True
                assert response["decision"] == "admit"
                assert response["epoch"] >= 1

                rejected = client.demand("no-such-commodity", 2.5)
                assert rejected["ok"] is True
                assert rejected["decision"] == "reject"
                assert "no-such-commodity" in rejected["reason"]

                stats = client.stats()
                assert stats["healthy"] is True
                assert stats["validated"] is True
                assert stats["stats"]["events_accepted"] >= 1
                assert stats["stats"]["events_rejected"] >= 1

    def test_bad_line_costs_one_response_not_the_server(self):
        with ServerThread(small_network(), config=quick_config()) as port:
            with ServeClient("127.0.0.1", port) as client:
                client._sock.sendall(b'{"op": "demand", "id": 99}\n')
                doc = client.read()
                assert doc["ok"] is False
                assert doc["error"]["code"] == 400
                assert doc["id"] == 99
                client._sock.sendall(b"garbage that is not json\n")
                doc = client.read()
                assert doc["ok"] is False
                assert doc["error"]["code"] == 400
                # the connection survived both
                assert client.stats()["ok"] is True

    def test_pipelined_burst_coalesces_and_bounds_staleness(self):
        network = small_network()
        events = churn_trace(network, ChurnSpec(num_events=40), seed=3)
        with ServerThread(network, config=quick_config()) as port:
            with ServeClient("127.0.0.1", port) as client:
                report = replay_trace(client, events, pipeline=8)
                stats = client.stats()
        assert report.events == 40
        assert report.errors == 0
        # coalescing: far fewer epochs than events
        batches = stats["stats"]["batches"]
        assert batches < 40
        assert report.final_epoch >= 1
        # the publish-based staleness bound: an answered epoch trails the
        # live model by at most the one batch in flight
        assert report.max_staleness <= 1
        assert stats["stats"]["validation_failures"] == 0

    def test_backpressure_answers_overloaded(self):
        network = small_network()
        name = network.commodities[0].name
        gated = GatedSession(network)
        thread = ServerThread(
            network, config=quick_config(max_batch=2, queue_limit=2),
            session=gated.session,
        )
        port = thread.start()
        try:
            with ServeClient("127.0.0.1", port) as client:
                ids = [client.send("demand", commodity=name, rate=2.0)
                       for __ in range(12)]
                # all twelve are read while the optimizer holds its first
                # batch, so nothing is answered and the bound of two holds
                wait_until(lambda: thread.server.stats["requests_total"] >= 12)
                gated.release()
                docs = [client.read() for __ in ids]
        finally:
            gated.release()
            thread.stop()
        codes = [doc["error"]["code"] for doc in docs if not doc["ok"]]
        assert codes == [429] * 10  # the queue bound talked back at once
        assert all(doc["ok"] for doc in docs[:2])

    def test_optimizer_crash_is_503_not_a_hang(self):
        network = small_network()
        session = ServeSession(
            network, refine_iterations=2, warmup_iterations=20
        )

        calls = {"n": 0}
        real = session.process_batch

        def explode(events):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("boom")
            return real(events)

        session.process_batch = explode
        name = network.commodities[0].name
        with ServerThread(
            network, config=quick_config(), session=session
        ) as port:
            with ServeClient("127.0.0.1", port) as client:
                assert client.demand(name, 2.0)["ok"] is True  # batch 1 lands
                crashed = client.demand(name, 3.0)  # batch 2 crashes
                assert crashed["ok"] is False
                assert crashed["error"]["code"] == 503
                assert "boom" in crashed["error"]["message"]
                # subsequent events answer 503 immediately, no hang
                after = client.demand(name, 4.0)
                assert after["ok"] is False
                assert after["error"]["code"] == 503
                # reads keep serving the last good epoch
                stats = client.stats()
                assert stats["ok"] is True
                assert stats["healthy"] is False
                assert stats["epoch"] >= 1

    def test_shutdown_drains_cleanly(self):
        network = small_network()
        name = network.commodities[0].name
        thread = ServerThread(network, config=quick_config())
        port = thread.start()
        with ServeClient("127.0.0.1", port) as client:
            ids = [client.send("demand", commodity=name, rate=2.0)
                   for __ in range(5)]
            client.send("shutdown")
            answered = [client.read() for __ in ids]
            ack = client.read()
        # every accepted event was answered before the socket closed
        assert all(doc["op"] == "demand" for doc in answered)
        assert all(doc["ok"] for doc in answered)
        assert ack["op"] == "shutdown" and ack["ok"] is True
        assert ack["stats"]["events_accepted"] >= 5
        # the listener is gone
        thread._thread.join(timeout=10)
        assert not thread._thread.is_alive()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", port), timeout=0.5).close()

    def test_draining_server_rejects_new_events(self):
        network = small_network()
        name = network.commodities[0].name
        gated = GatedSession(network)
        thread = ServerThread(
            network, config=quick_config(), session=gated.session
        )
        port = thread.start()
        try:
            with ServeClient("127.0.0.1", port) as client:
                client.send("demand", commodity=name, rate=2.0)
                # the optimizer holds the event, so the drain below races
                # the optimizer, not the socket
                gated.wait_for_batches(1)
                drainer = threading.Thread(target=thread.stop)
                drainer.start()
                wait_until(lambda: thread.server._draining)
                client.send("demand", commodity=name, rate=3.0)
                wait_until(lambda: thread.server.stats["requests_total"] >= 2)
                gated.release()
                in_flight = client.read()  # the in-flight event still answers
                refused = client.read()
                drainer.join(timeout=30)
        finally:
            gated.release()
            thread.stop()
        assert in_flight["ok"] is True
        assert refused["ok"] is False
        assert refused["error"]["code"] == 503
        assert "draining" in refused["error"]["message"]


class TestGroupCommit:
    def test_collect_takes_what_is_queued_up_to_the_cap(self):
        async def cut_three_batches():
            queue = BatchQueue()
            for k in range(5):
                assert queue.try_put(
                    PendingEvent(request=k, event=None, future=None)
                )
            return [
                [pending.request for pending in await queue.collect(2)]
                for __ in range(3)
            ]

        assert asyncio.run(cut_three_batches()) == [[0, 1], [2, 3], [4]]

    def test_next_batch_takes_everything_queued_while_busy(self):
        network = small_network()
        name = network.commodities[0].name
        gated = GatedSession(network)
        thread = ServerThread(
            network, config=quick_config(), session=gated.session
        )
        port = thread.start()
        try:
            with ServeClient("127.0.0.1", port) as client:
                client.send("demand", commodity=name, rate=2.0)  # A
                gated.wait_for_batches(1)  # an idle daemon cuts A at once
                client.send("demand", commodity=name, rate=3.0)  # B
                # longer than any batch timer would hold B's batch open
                time.sleep(0.05)
                client.send("demand", commodity=name, rate=4.0)  # C
                wait_until(lambda: thread.server.stats["requests_total"] >= 3)
                gated.release()
                docs = [client.read() for __ in range(3)]
        finally:
            gated.release()
            thread.stop()
        assert all(doc["ok"] for doc in docs)
        assert [rates(batch) for batch in gated.batches] == [[2.0], [3.0, 4.0]]
        # B and C shared one published epoch
        assert docs[1]["seq"] == docs[2]["seq"] == docs[0]["seq"] + 1

    def test_stage_stamps_count_every_event(self):
        network = small_network()
        name = network.commodities[0].name
        inst = Instrumentation()
        thread = ServerThread(network, config=quick_config(), instrumentation=inst)
        port = thread.start()
        try:
            with ServeClient("127.0.0.1", port) as client:
                ids = [client.send("demand", commodity=name, rate=2.0 + k)
                       for k in range(6)]
                docs = [client.read() for __ in ids]
        finally:
            thread.stop()
        assert all(doc["ok"] for doc in docs)
        for stage in ("queue_wait", "session", "write"):
            histogram = inst.registry.histogram(f"serve.stage.{stage}.seconds")
            assert histogram.count == len(ids), stage
            assert min(histogram.samples) >= 0.0
        assert inst.registry.histogram("serve.request.seconds").count == len(ids)

    def test_stage_stamps_are_off_without_instrumentation(self):
        network = small_network()
        name = network.commodities[0].name
        thread = ServerThread(network, config=quick_config())
        port = thread.start()
        try:
            with ServeClient("127.0.0.1", port) as client:
                assert client.demand(name, 2.0)["ok"] is True
            server = thread.server
        finally:
            thread.stop()
        assert server.inst is NULL_INSTRUMENTATION
        assert len(server._answered_at) == 0  # no stamp was taken


# ------------------------------------------------- orchestrator epoch API


class TestOrchestratorEpoch:
    def test_current_epoch_accessor(self):
        net = figure1_network()
        events = [DemandChange(at_iteration=40, commodity="S1", new_rate=22.0)]
        orch = OnlineOrchestrator(net, events)
        assert orch.current_epoch() == 0  # nothing ran yet
        orch.run(120)
        assert orch.current_epoch() >= 1  # the event bumped the live epoch


# ----------------------------------------------------------- serve session


class TestSessionPolicies:
    def test_rejects_bad_knobs(self):
        network = small_network()
        with pytest.raises(ServeError):
            ServeSession(network, refine_iterations=0)
        with pytest.raises(ServeError):
            ServeSession(network, warmup_iterations=0)

    def test_rejects_a_worker_pool(self):
        """A live model runs the serial engine: a pool would hold one epoch
        and restart on every published one."""
        network = small_network()
        for options in (
            SolveOptions(workers=2, staleness=4),
            SolveOptions(staleness=4),
            SolveOptions(backend=ParallelBackend(workers=2, staleness=4)),
        ):
            with pytest.raises(ServeError, match="serial engine"):
                ServeSession(network, options)
        session = ServeSession(network, SolveOptions(workers=1))
        assert type(session.backend) is SerialBackend

    def test_closed_session_refuses_batches(self):
        network = small_network()
        session = ServeSession(
            network, refine_iterations=2, warmup_iterations=20
        )
        session.warmup()
        session.close()
        with pytest.raises(ServeError):
            session.process_batch(
                [DemandChange(at_iteration=0, commodity="x", new_rate=1.0)]
            )

    def test_every_published_epoch_is_audited(self):
        network = small_network()
        session = ServeSession(
            network, refine_iterations=2, warmup_iterations=20
        )
        snapshot = session.warmup()
        assert snapshot.validation is not None and snapshot.validation.passed
        events = churn_trace(network, ChurnSpec(num_events=12), seed=9)
        for start in range(0, len(events), 4):
            __, snap = session.process_batch(events[start:start + 4])
            assert snap.validation is not None and snap.validation.passed
        session.close()


# ------------------------------------------------ feasible-by-construction


class TestFeasiblePublish:
    """A refine that overshoots capacity is projected back, then published.

    The safeguarded barrier is finite past 0.99 C, so the penalised optimum
    can sit beyond C and the refine walks there.  Both instances below fail
    the audit's capacity check without the projection.
    """

    @staticmethod
    def serve_mix(eps=0.2, **knobs):
        catalog = scenario("serve-mix-120")
        network = catalog.compile().network
        inst = Instrumentation()
        options = SolveOptions(
            method="gradient",
            config=GradientConfig(eta=0.04, cost_model=CostModel(eps=eps)),
        )
        session = ServeSession(network, options, instrumentation=inst, **knobs)
        return catalog, network, session, inst

    @staticmethod
    def projections(inst):
        return inst.registry.counter("serve.post_refine_sheds").value

    def test_warmup_overshoot_is_projected_onto_capacity(self):
        __, __, session, inst = self.serve_mix(eps=0.01)
        try:
            snapshot = session.warmup()  # ends at 1.0114 x C unprojected
        finally:
            session.close()
        assert snapshot.validation.passed
        assert snapshot.max_utilization == pytest.approx(1.0, abs=1e-9)
        assert self.projections(inst) == 1

    def test_refine_overshoot_is_projected_onto_capacity(self):
        catalog, network, session, inst = self.serve_mix(refine_iterations=128)
        # the first 288 events of the serve benchmark's pinned closed loop
        events = churn_trace(
            network,
            ChurnSpec(num_events=288, weights=dict(SERVE_WEIGHTS)),
            seed=catalog.seed + 1,
        )
        snapshots = []
        try:
            session.warmup()
            for start in range(0, len(events), 32):
                __, snapshot = session.process_batch(events[start:start + 32])
                snapshots.append(snapshot)
        finally:
            session.close()
        assert all(snap.validation.passed for snap in snapshots)
        assert max(snap.max_utilization for snap in snapshots[:-1]) < 0.98
        # the batch starting at event 256 refines node n50 to 1.0041 x C
        assert snapshots[-1].epoch == 28
        assert snapshots[-1].max_utilization == pytest.approx(1.0, abs=1e-9)
        assert self.projections(inst) == 1
