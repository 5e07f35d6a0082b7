"""Group-commit coalescing: many requests, few epochs.

The daemon's throughput story is that an event does **not** cost an epoch.
Requests that queue while the optimizer works on one batch are drained
together as the next one, and every maximal run of *scalar* events
(``demand`` / ``capacity`` -- the paper's Section V adaptation case, and
the bulk of any realistic churn mix) is merged into **one**
:class:`~repro.core.delta.ProblemDelta` whose :class:`~repro.core.delta.
ScalarPatch` carries the last-write-wins union of the run.
``ScalarPatch`` entries are absolute values, so the merge is exact:
applying the merged patch leaves the model bit-identical to applying the
run one event at a time, while bumping the epoch once instead of N times
(pinned in ``tests/test_serve.py``).

Structural events (admit/depart/failures) change the layout and therefore
keep one delta each -- their splice cost is the floor the delta core
already pays (see docs/online.md).

:class:`BatchQueue` is the asyncio side: a bounded queue whose
:meth:`~BatchQueue.collect` waits for the first pending event, then takes
whatever else is already queued, up to the batch size cap.  There is no
timer: a busy optimizer is what lets a batch grow, and an idle one
dispatches the first event at once.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, List, Sequence

from repro.core.delta import ProblemDelta, compile_scalar_run
from repro.exceptions import ServeError
from repro.online.events import CapacityChange, DemandChange, NetworkEvent

__all__ = ["PendingEvent", "BatchQueue", "plan_batch", "merge_scalar_run"]

_SCALAR_EVENTS = (DemandChange, CapacityChange)


def _is_scalar(event: NetworkEvent) -> bool:
    return isinstance(event, _SCALAR_EVENTS)


def plan_batch(events: Sequence[NetworkEvent]) -> List[List[NetworkEvent]]:
    """Group a batch into apply units: maximal scalar runs, lone structurals.

    Order is preserved -- a scalar run never merges *across* a structural
    event, because the structural splice changes the index space the
    scalar patch compiles against.
    """
    units: List[List[NetworkEvent]] = []
    run: List[NetworkEvent] = []
    for event in events:
        if _is_scalar(event):
            run.append(event)
            continue
        if run:
            units.append(run)
            run = []
        units.append([event])
    if run:
        units.append(run)
    return units


def merge_scalar_run(ext: Any, events: Sequence[NetworkEvent]) -> ProblemDelta:
    """One :class:`ProblemDelta` for a run of scalar events against ``ext``.

    The patch entries merge last-write-wins
    (:func:`~repro.core.delta.compile_scalar_run`, the path a lone scalar
    event compiles through too).  Unknown commodity/node names raise
    :class:`~repro.exceptions.ModelError`, as compiling the events one at a
    time would.
    """
    if not events:
        raise ServeError("merge_scalar_run needs at least one event")
    for event in events:
        if not _is_scalar(event):
            raise ServeError(
                f"merge_scalar_run got a structural {type(event).__name__}"
            )
    return compile_scalar_run(ext, events, tuple(events))


@dataclass
class PendingEvent:
    """One enqueued event request awaiting its batch's published epoch."""

    request: Any  # protocol.Request
    event: NetworkEvent
    future: "asyncio.Future[Any]"
    enqueued_at: float = 0.0


@dataclass
class BatchQueue:
    """Bounded request queue with group-commit batch collection.

    ``limit`` bounds the number of *pending* (enqueued but unanswered)
    event requests; :meth:`try_put` refuses beyond it, which the server
    turns into 429-style ``overloaded`` responses -- backpressure the
    client sees instead of unbounded buffering it doesn't.
    """

    limit: int = 1024
    _queue: "asyncio.Queue[PendingEvent]" = field(
        default_factory=asyncio.Queue
    )
    _pending: int = 0

    @property
    def pending(self) -> int:
        """Enqueued-but-unanswered event requests (backpressure gauge)."""
        return self._pending

    def try_put(self, item: PendingEvent) -> bool:
        """Enqueue unless the pending bound is hit; never blocks."""
        if self._pending >= self.limit:
            return False
        self._pending += 1
        self._queue.put_nowait(item)
        return True

    def task_done(self, count: int = 1) -> None:
        """The server answered ``count`` previously enqueued requests."""
        self._pending = max(0, self._pending - count)

    async def collect(self, max_batch: int) -> List[PendingEvent]:
        """One batch: wait for the first item, then take what else is queued.

        Returns between 1 and ``max_batch`` items, in arrival order.  Only
        the wait for the first item suspends, so a cancelled call holds
        nothing: every item is either in the returned batch or still queued.
        """
        batch = [await self._queue.get()]
        while len(batch) < max_batch and not self._queue.empty():
            batch.append(self._queue.get_nowait())
        return batch

    def drain_nowait(self) -> List[PendingEvent]:
        """Everything currently queued, without waiting (shutdown path)."""
        items: List[PendingEvent] = []
        while not self._queue.empty():
            items.append(self._queue.get_nowait())
        return items
