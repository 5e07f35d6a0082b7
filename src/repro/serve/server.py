"""``repro.serve``: the admission-control daemon.

:class:`AdmissionServer` is an asyncio TCP server speaking ``repro.serve/1``
(:mod:`repro.serve.protocol`).  The request path never computes: read ops
are answered straight from the latest published :class:`~repro.serve.
session.EpochSnapshot`, and event ops are enqueued into a bounded
:class:`~repro.serve.batching.BatchQueue`.  A single background *optimizer
task* group-commits them: the moment it is free it takes everything queued
(up to ``max_batch``) and pushes that batch through :meth:`ServeSession.
process_batch` on a dedicated worker thread (numpy releases the GIL, so the
event loop keeps answering while the model re-optimises).  Connections
pipeline freely -- responses are written strictly in request order per
connection.

Failure containment:

* a malformed line costs one ``bad_request`` response, never the server;
* a full queue costs an immediate ``overloaded`` (429) response --
  backpressure, not buffering;
* an epoch that fails the invariant audit is **not published**: its batch
  gets ``unavailable`` (503) responses while reads keep the last good
  epoch and the daemon keeps serving;
* a crash of the optimizer task marks the daemon faulted: every in-flight
  and subsequent event request gets an immediate 503 instead of a hang,
  and reads keep working.

Graceful shutdown (the ``shutdown`` op or :meth:`AdmissionServer.drain`)
stops the listener, flushes every already-enqueued request through the
optimizer, answers it, then closes the session.

:class:`ServerThread` embeds the daemon in a plain thread for tests,
benchmarks, and examples.
"""

from __future__ import annotations

import asyncio
import gc
import json
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.exceptions import ServeError, ServeRequestError
from repro.io import network_to_dict
from repro.obs.instrumentation import NULL_INSTRUMENTATION
from repro.online.events import (
    CommodityArrival,
    CommodityDeparture,
    DemandChange,
)
from repro.serve import protocol
from repro.serve.batching import BatchQueue, PendingEvent
from repro.serve.session import ServeSession

__all__ = ["ServeConfig", "AdmissionServer", "ServerThread"]


@dataclass(frozen=True)
class ServeConfig:
    """Deployment knobs of the daemon (see docs/serving.md)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: ephemeral, the bound port lands in server.port
    max_batch: int = 64  # events per batch cap
    queue_limit: int = 1024  # pending (unanswered) event requests
    refine_iterations: int = 8  # gradient steps per published epoch
    warmup_iterations: int = 200  # initial convergence before serving
    validate_epochs: bool = True  # InvariantChecker audit before publish
    min_admit_rate: float = 0.0  # revert arrivals admitted below this rate

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ServeError("max_batch must be >= 1")
        if self.queue_limit < 1:
            raise ServeError("queue_limit must be >= 1")


class AdmissionServer:
    """The daemon: one live session, one optimizer task, many connections."""

    def __init__(
        self,
        network: Any,
        config: Optional[ServeConfig] = None,
        options: Any = None,
        instrumentation: Any = None,
        session: Optional[ServeSession] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.inst = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        self.network = network
        self.session = session or ServeSession(
            network,
            options,
            refine_iterations=self.config.refine_iterations,
            warmup_iterations=self.config.warmup_iterations,
            validate_epochs=self.config.validate_epochs,
            min_admit_rate=self.config.min_admit_rate,
            instrumentation=self.inst,
        )
        self.port: Optional[int] = None
        self.stats: Dict[str, int] = {
            "requests_total": 0,
            "events_accepted": 0,
            "events_rejected": 0,
            "overloaded": 0,
            "bad_requests": 0,
            "unavailable": 0,
            "batches": 0,
            "validation_failures": 0,
        }
        self._queue = BatchQueue(limit=self.config.queue_limit)
        self._server: Optional[asyncio.AbstractServer] = None
        self._optimizer: Optional[asyncio.Task] = None
        # one dedicated thread: batches are strictly ordered, and the model
        # is single-writer by design
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-opt"
        )
        self._fault: Optional[BaseException] = None
        self._gc_frozen = False
        self._draining = False
        self._writers: set = set()
        self._closed = asyncio.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # instrumented runs only: when each batched event was answered, read
        # back by its connection's write loop for the write stage
        self._answered_at: "weakref.WeakKeyDictionary[asyncio.Future, float]" = (
            weakref.WeakKeyDictionary()
        )

    # -- lifecycle ----------------------------------------------------------------

    async def start(self) -> int:
        """Warm the model up, bind the socket, start the optimizer task."""
        self._loop = asyncio.get_running_loop()
        if self.session.snapshot is None:
            await self._loop.run_in_executor(
                self._executor, self.session.warmup
            )
        # GC policy: everything alive after warm-up (the model, the event
        # loop) is long-lived; freezing it out of the collector removes
        # multi-10 ms gen-2 pauses from the publish loop.  drain() reverses
        # this, so embedded servers do not pin the heap.
        gc.collect()
        gc.freeze()
        self._gc_frozen = True
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._optimizer = asyncio.ensure_future(self._optimizer_loop())
        self.inst.event("serve.start", host=self.config.host, port=self.port)
        return self.port

    async def wait_closed(self) -> None:
        await self._closed.wait()

    async def drain(self) -> None:
        """Graceful shutdown: answer everything enqueued, then stop."""
        if self._draining:
            await self._closed.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        # flush: the optimizer keeps draining batches until nothing pends
        while self._queue.pending > 0 and self._fault is None:
            await asyncio.sleep(0.002)
        if self._optimizer is not None:
            self._optimizer.cancel()
            try:
                await self._optimizer
            except (asyncio.CancelledError, Exception):
                pass
        if self._server is not None:
            await self._server.wait_closed()
        # close surviving client transports while the loop is still alive:
        # transport close flushes buffered responses then sends FIN, so a
        # client that raced the shutdown sees EOF instead of a socket that
        # silently outlives the daemon thread
        for writer in list(self._writers):
            writer.close()
        self.session.close()
        self._executor.shutdown(wait=False)
        if self._gc_frozen:
            gc.unfreeze()
            self._gc_frozen = False
        self.inst.event("serve.drained", **{k: v for k, v in self.stats.items()})
        self._closed.set()

    # -- the optimizer task -------------------------------------------------------

    async def _optimizer_loop(self) -> None:
        # group commit: while one batch optimises the next one queues, and
        # the moment the optimizer is free it takes all of it (up to the cap)
        try:
            while self._fault is None:
                batch = await self._queue.collect(self.config.max_batch)
                await self._process_batch(batch)
        finally:
            if self._fault is not None:
                self._fail_batch(
                    self._queue.drain_nowait(),
                    f"optimizer crashed: {self._fault!r}",
                )

    async def _process_batch(self, batch: List[PendingEvent]) -> None:
        assert self._loop is not None
        cut = time.monotonic()
        if self.inst.enabled:
            for pending in batch:
                self._observe_stage("queue_wait", cut - pending.enqueued_at)
        events = [p.event for p in batch]
        try:
            outcomes, snapshot = await self._loop.run_in_executor(
                self._executor, self.session.process_batch, events
            )
        except ServeError as exc:
            # the epoch failed its invariant audit: not published; the
            # batch is answered 503, the daemon keeps serving reads from
            # the last good epoch and stays up for the next batch
            self.stats["validation_failures"] += 1
            self._fail_batch(batch, str(exc))
            return
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # optimizer crash: fault the daemon
            self._fault = exc
            self.inst.event("serve.fault", error=repr(exc))
            self._fail_batch(batch, f"optimizer crashed: {exc!r}")
            # anything already enqueued is answered by the optimizer loop's
            # teardown -- 503, never a hang
            return
        self.stats["batches"] += 1
        now = time.monotonic()
        for pending, outcome in zip(batch, outcomes):
            self.stats[
                "events_accepted" if outcome.accepted else "events_rejected"
            ] += 1
            if self.inst.enabled:
                # request = queue_wait + session: enqueue to the published
                # epoch reaching the event loop
                self.inst.registry.histogram("serve.request.seconds").observe(
                    now - pending.enqueued_at
                )
                self._observe_stage("session", now - cut)
                self._answered_at[pending.future] = now
            if not pending.future.done():
                pending.future.set_result(
                    self._event_response(pending.request, outcome, snapshot)
                )
        self._queue.task_done(len(batch))

    def _observe_stage(self, stage: str, seconds: float) -> None:
        self.inst.registry.histogram(f"serve.stage.{stage}.seconds").observe(
            seconds
        )

    def _fail_batch(self, batch: List[PendingEvent], message: str) -> None:
        self.stats["unavailable"] += len(batch)
        for pending in batch:
            if not pending.future.done():
                pending.future.set_result(
                    protocol.error_response(
                        pending.request.id, pending.request.op,
                        "unavailable", message,
                    )
                )
        self._queue.task_done(len(batch))

    # -- response composition -----------------------------------------------------

    def _event_response(
        self, request: protocol.Request, outcome: Any, snapshot: Any
    ) -> bytes:
        fields: Dict[str, Any] = {
            "decision": "admit" if outcome.accepted else "reject",
            "epoch": snapshot.epoch,
            "seq": snapshot.seq,
            "current_epoch": self.session.current_epoch(),
            "utility": snapshot.utility,
        }
        if not outcome.accepted:
            fields["reason"] = outcome.error
        if outcome.dropped_commodities:
            fields["dropped_commodities"] = list(outcome.dropped_commodities)
        name = self._event_commodity(outcome.event)
        if name is not None:
            fields["commodity"] = name
            if name in snapshot.admitted:
                fields["admitted_rate"] = snapshot.admitted[name]
        return protocol.encode_response(request.id, request.op, **fields)

    @staticmethod
    def _event_commodity(event: Any) -> Optional[str]:
        if isinstance(event, CommodityArrival) and event.commodity is not None:
            return event.commodity.name
        if isinstance(event, (CommodityDeparture, DemandChange)):
            return event.commodity
        return None

    def _read_response(self, request: protocol.Request) -> bytes:
        snapshot = self.session.snapshot
        if snapshot is None:
            return protocol.error_response(
                request.id, request.op, "unavailable", "no epoch published yet"
            )
        fields: Dict[str, Any] = {
            "epoch": snapshot.epoch,
            "seq": snapshot.seq,
            "current_epoch": self.session.current_epoch(),
            "utility": snapshot.utility,
        }
        if request.op == "hello":
            fields["server"] = {
                "max_batch": self.config.max_batch,
                "queue_limit": self.config.queue_limit,
                "refine_iterations": self.config.refine_iterations,
                "validate_epochs": self.config.validate_epochs,
            }
            fields["model"] = network_to_dict(self.session.ext.stream_network)
        else:  # stats
            fields["max_utilization"] = snapshot.max_utilization
            fields["admitted"] = snapshot.admitted
            fields["pending"] = self._queue.pending
            fields["healthy"] = self._fault is None
            fields["draining"] = self._draining
            fields["stats"] = dict(self.stats)
            fields["validated"] = snapshot.validation is not None and bool(
                snapshot.validation.passed
            )
        return protocol.encode_response(request.id, request.op, **fields)

    # -- connection handling ------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        slots: "asyncio.Queue[Optional[asyncio.Future]]" = asyncio.Queue()
        writer_task = asyncio.ensure_future(self._write_loop(slots, writer))
        assert self._loop is not None
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, ValueError):
                    # ValueError: the stream limit (MAX_LINE_BYTES) blew up
                    break
                except asyncio.CancelledError:
                    # loop teardown mid-read (drain with the client still
                    # connected): end the task quietly, the finally below
                    # closes the transport
                    break
                if not line:
                    break
                if line.strip() == b"":
                    continue
                self.stats["requests_total"] += 1
                slot: asyncio.Future = self._loop.create_future()
                await slots.put(slot)
                if self._dispatch(line, slot):
                    break  # shutdown requested: stop reading this connection
        finally:
            self._writers.discard(writer)
            # teardown must not leak a CancelledError out of the task: the
            # streams connection callback would log it as an error when the
            # loop shuts down mid-close (e.g. right after a shutdown ack)
            try:
                await slots.put(None)
                await writer_task
            except (Exception, asyncio.CancelledError):
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _write_loop(
        self, slots: "asyncio.Queue[Optional[asyncio.Future]]",
        writer: asyncio.StreamWriter,
    ) -> None:
        """Write responses strictly in request order for this connection."""
        while True:
            slot = await slots.get()
            if slot is None:
                return
            data = await slot
            if self.inst.enabled:
                answered = self._answered_at.pop(slot, None)
                if answered is not None:
                    self._observe_stage("write", time.monotonic() - answered)
            try:
                writer.write(data)
                await writer.drain()
            except (ConnectionError, OSError):
                return

    def _dispatch(self, line: bytes, slot: asyncio.Future) -> bool:
        """Route one request line; returns True when the connection should
        stop reading (shutdown)."""
        try:
            request = protocol.parse_request(line)
        except ServeRequestError as exc:
            self.stats["bad_requests"] += 1
            slot.set_result(
                protocol.error_response(
                    _best_effort_id(line), "?", "bad_request", str(exc)
                )
            )
            return False

        if request.op in protocol.READ_OPS:
            slot.set_result(self._read_response(request))
            return False

        if request.op == "shutdown":
            asyncio.ensure_future(self._shutdown_and_ack(request, slot))
            return True

        # event op
        try:
            event = protocol.request_to_event(
                request, at_iteration=self.session.current_epoch()
            )
        except ServeRequestError as exc:
            self.stats["bad_requests"] += 1
            slot.set_result(
                protocol.error_response(
                    request.id, request.op, "bad_request", str(exc)
                )
            )
            return False
        if self._fault is not None:
            self.stats["unavailable"] += 1
            slot.set_result(
                protocol.error_response(
                    request.id, request.op, "unavailable",
                    f"optimizer is down: {self._fault!r}",
                )
            )
            return False
        if self._draining:
            self.stats["unavailable"] += 1
            slot.set_result(
                protocol.error_response(
                    request.id, request.op, "unavailable", "server is draining"
                )
            )
            return False
        pending = PendingEvent(
            request=request, event=event, future=slot,
            enqueued_at=time.monotonic(),
        )
        if not self._queue.try_put(pending):
            self.stats["overloaded"] += 1
            slot.set_result(
                protocol.error_response(
                    request.id, request.op, "overloaded",
                    f"request queue is full ({self.config.queue_limit} pending)",
                )
            )
        return False

    async def _shutdown_and_ack(
        self, request: protocol.Request, slot: asyncio.Future
    ) -> None:
        await self.drain()
        snapshot = self.session.snapshot
        slot.set_result(
            protocol.encode_response(
                request.id, "shutdown",
                epoch=snapshot.epoch if snapshot else 0,
                stats=dict(self.stats),
            )
        )


def _best_effort_id(line: bytes) -> Any:
    """Pull a request id out of a line that failed strict parsing."""
    try:
        doc = json.loads(line)
        if isinstance(doc, dict):
            return doc.get("id")
    except Exception:
        pass
    return None


class ServerThread:
    """Run an :class:`AdmissionServer` on a background thread.

    The embedding used by the tests, the serving benchmark, and
    ``examples/serve_demo.py``::

        with ServerThread(network) as port:
            with ServeClient("127.0.0.1", port) as client:
                client.demand("c1", 4.0)

    ``start()`` blocks until the daemon finished warm-up and bound its
    port; ``stop()`` drains gracefully.
    """

    def __init__(
        self,
        network: Any,
        config: Optional[ServeConfig] = None,
        options: Any = None,
        instrumentation: Any = None,
        session: Optional[ServeSession] = None,
    ) -> None:
        self._kwargs = dict(
            network=network, config=config, options=options,
            instrumentation=instrumentation, session=session,
        )
        self.server: Optional[AdmissionServer] = None
        self.port: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._startup_error: Optional[BaseException] = None

    def start(self, timeout: float = 120.0) -> int:
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ServeError("serve thread failed to start in time")
        if self._startup_error is not None:
            raise ServeError(
                f"serve thread failed to start: {self._startup_error!r}"
            )
        assert self.port is not None
        return self.port

    def _run(self) -> None:
        async def main() -> None:
            try:
                self.server = AdmissionServer(**self._kwargs)
                self._loop = asyncio.get_running_loop()
                self.port = await self.server.start()
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                raise
            self._ready.set()
            await self.server.wait_closed()

        try:
            asyncio.run(main())
        except Exception:
            # startup errors are re-raised in start(); late crashes leave
            # their trace in server.stats / the fault flag
            pass

    def stop(self, timeout: float = 60.0) -> None:
        if (
            self._thread is None
            or self._loop is None
            or self.server is None
            or not self._thread.is_alive()
        ):
            return
        try:
            future = asyncio.run_coroutine_threadsafe(
                self.server.drain(), self._loop
            )
            future.result(timeout=timeout)
        except Exception:
            pass
        self._thread.join(timeout)

    def __enter__(self) -> int:
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
