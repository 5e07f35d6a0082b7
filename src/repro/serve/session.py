"""The live model a serve daemon owns: epochs in, snapshots out.

:class:`ServeSession` wraps the delta core (:mod:`repro.core.delta`), the
serial engine (:class:`~repro.parallel.SerialBackend`, which runs the
warm-up and every refine), and the invariant checker
(:mod:`repro.validate`) into the publish loop the daemon drives:

1. a drained batch of online events is applied through
   :func:`~repro.serve.batching.plan_batch` -- scalar runs become one
   merged :class:`~repro.core.delta.ProblemDelta`, structural events one
   each -- with routing carried across every epoch
   (:func:`~repro.core.delta.carry_routing`) and one ``emergency_shed``
   per drained batch (mid-batch routing is never read),
2. the gradient engine *refines* the carried state for a bounded number of
   iterations (the background re-optimisation -- warm starts mean a few
   iterations recover most of the utility, see docs/online.md),
3. the result is audited by :class:`~repro.validate.InvariantChecker`; a
   routing that fails the audit's ``capacity`` check is first projected
   back onto eq. (6) and audited again, and only an audit that passes is
   **published** as an immutable :class:`EpochSnapshot` via a single
   attribute store -- atomic under the GIL, so the asyncio thread answering
   requests never sees a torn epoch.

Requests are answered from the latest published snapshot; the staleness
bound is structural: at most the one batch currently being optimised can be
newer than what a reader sees (``current_epoch - snapshot.epoch <= 1``
whenever the optimizer is healthy; pinned in ``tests/test_serve.py``).

The session is transport-agnostic and synchronous -- the asyncio server
calls :meth:`process_batch` from an executor thread; everything here also
works standalone for tests and offline replay.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.commodity import StreamNetwork
from repro.core.delta import apply_delta, carry_routing, compile_event
from repro.core.gradient import GradientAlgorithm, GradientConfig
from repro.core.context import IterationContext
from repro.core.routing import initial_routing, utilization_profile
from repro.core.solution import Solution, build_solution
from repro.core.transform import build_extended_network
from repro.exceptions import ModelError, ServeError
from repro.obs.instrumentation import NULL_INSTRUMENTATION
from repro.online.events import CommodityArrival, CommodityDeparture, NetworkEvent
from repro.online.rebuild import emergency_shed
from repro.parallel.backend import SerialBackend
from repro.serve.batching import merge_scalar_run, plan_batch
from repro.validate import InvariantChecker, Tolerances, ValidationReport

__all__ = [
    "SERVE_CHECKS",
    "SHED_BISECTION_STEPS",
    "EventOutcome",
    "EpochSnapshot",
    "ServeSession",
]

# the per-epoch audit: every structural invariant of the paper's catalog.
# monotonicity needs an iterate history an online epoch does not have, and
# duality_gap solves an LP per audit -- far too slow for a per-batch publish
# loop (InvariantChecker runs it for offline forensics).
SERVE_CHECKS = ("routing", "conservation", "capacity", "admission", "dummy")

# bisection steps of every shed: fewer than the offline default (40), since
# the serving path trades shed precision (2^-16 on the admission scale) for
# a bounded publish latency, and the audit still gates every epoch
SHED_BISECTION_STEPS = 16


@dataclass(frozen=True)
class EventOutcome:
    """What happened to one event inside a batch."""

    event: NetworkEvent
    accepted: bool
    epoch: int  # model epoch after this event's apply unit (0 if rejected)
    error: Optional[str] = None
    dropped_commodities: Tuple[str, ...] = ()


@dataclass(frozen=True)
class EpochSnapshot:
    """One published, validated, converged-enough epoch.

    Immutable by construction: readers hold a reference and never see later
    mutation; a new epoch is a new snapshot object.
    """

    epoch: int
    seq: int  # publish sequence number (epochs can skip on rejected batches)
    utility: float
    max_utilization: float
    admitted: Dict[str, float]
    solution: Solution
    validation: Optional[ValidationReport]
    batch_size: int
    refine_iterations: int
    published_at: float = field(default_factory=time.monotonic)


class ServeSession:
    """The daemon's live model: apply batches, refine, validate, publish."""

    def __init__(
        self,
        network: StreamNetwork,
        options: Any = None,
        *,
        refine_iterations: int = 8,
        warmup_iterations: int = 200,
        validate_epochs: bool = True,
        min_admit_rate: float = 0.0,
        instrumentation: Any = None,
    ) -> None:
        if refine_iterations < 1:
            raise ServeError("refine_iterations must be >= 1")
        if warmup_iterations < 1:
            raise ServeError("warmup_iterations must be >= 1")
        inst = instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        self.inst = inst

        config: Optional[GradientConfig] = None
        if options is not None:
            from repro.options import SolveOptions

            if not isinstance(options, SolveOptions):
                raise ServeError(
                    f"options= takes a SolveOptions, got {type(options).__name__}"
                )
            if options.method != "gradient":
                raise ServeError(
                    "the serve session drives the gradient method; "
                    f"got options.method={options.method!r}"
                )
            if (
                options.workers not in (None, 1)
                or options.staleness is not None
                or options.backend is not None
            ):
                raise ServeError(
                    "the serve session runs the serial engine; drop "
                    "workers=/staleness=/backend= (a worker pool would "
                    "restart on every published epoch)"
                )
            config = options.config
        self.config = config or GradientConfig()

        self.ext = build_extended_network(network)
        self.backend = SerialBackend()
        self.algo = GradientAlgorithm(self.ext, self.config, backend=self.backend)
        self.routing = initial_routing(self.ext)
        # the refine's last context, which describes self.routing until the
        # routing is replaced (a delta, a shed or a projection)
        self._context: Optional[IterationContext] = None

        self.refine_iterations = refine_iterations
        self.warmup_iterations = warmup_iterations
        self.validate_epochs = validate_epochs
        self.min_admit_rate = min_admit_rate

        self._snapshot: Optional[EpochSnapshot] = None
        self._seq = 0
        self._refined_total = 0
        self._lock = threading.Lock()  # one process_batch at a time
        self._closed = False

    # -- read side (any thread) --------------------------------------------------

    @property
    def snapshot(self) -> Optional[EpochSnapshot]:
        """The latest published epoch (``None`` before :meth:`warmup`)."""
        return self._snapshot

    def current_epoch(self) -> int:
        """The live model's epoch (may lead the published snapshot by the
        one batch currently being optimised)."""
        return int(self.ext.epoch)

    # -- write side (the optimizer thread) ---------------------------------------

    def warmup(self) -> EpochSnapshot:
        """Converge the initial model and publish epoch 0."""
        with self._lock:
            with self.inst.phase("serve.warmup"):
                self._refine(self.warmup_iterations)
                return self._publish(batch_size=0)

    def process_batch(
        self, events: Sequence[NetworkEvent]
    ) -> Tuple[List[EventOutcome], EpochSnapshot]:
        """Apply one drained batch, refine, validate, publish.

        Every event gets an :class:`EventOutcome` in request order;
        infeasible events are rejected individually (the rest of the batch
        still lands).  Raises :class:`~repro.exceptions.ServeError` only
        when the *published epoch itself* would be invalid -- the server
        turns that into 503s for the batch while reads keep the last good
        snapshot.
        """
        with self._lock:
            if self._closed:
                raise ServeError("session is closed")
            outcomes = self._apply_events(events)
            with self.inst.phase("serve.refine"):
                self._refine(self.refine_iterations)
            outcomes = self._enforce_min_admit(outcomes)
            snapshot = self._publish(batch_size=len(events))
            return outcomes, snapshot

    # -- internals ----------------------------------------------------------------

    def _apply_events(
        self, events: Sequence[NetworkEvent]
    ) -> List[EventOutcome]:
        outcomes: Dict[int, EventOutcome] = {}
        applied_any = False
        for unit in plan_batch(events):
            try:
                if len(unit) > 1:
                    delta = merge_scalar_run(self.ext, unit)
                    self.inst.count("serve.events_coalesced", len(unit))
                else:
                    delta = compile_event(self.ext, unit[0])
            except ModelError:
                if len(unit) > 1:
                    # one bad event in a merged run: degrade to per-event
                    # applies so its neighbours still land
                    for event in unit:
                        outcomes[id(event)] = self._apply_single(event)
                    continue
                outcomes[id(unit[0])] = self._rejected(unit[0])
                continue
            self._apply_delta(delta)
            applied_any = True
            for event in unit:
                outcomes[id(event)] = EventOutcome(
                    event=event,
                    accepted=True,
                    epoch=self.current_epoch(),
                    dropped_commodities=tuple(delta.dropped_commodities),
                )
        # one shed per batch, not per unit: mid-batch routing is never read,
        # so hard capacities only need to hold before the refine/publish
        # step (the audit's capacity check pins this)
        if applied_any:
            self._shed()
        return [outcomes[id(event)] for event in events]

    def _shed(self) -> None:
        self.routing = emergency_shed(
            self.ext, self.routing, bisection_steps=SHED_BISECTION_STEPS
        )

    def _apply_single(self, event: NetworkEvent) -> EventOutcome:
        try:
            delta = compile_event(self.ext, event)
        except ModelError:
            return self._rejected(event)
        self._apply_delta(delta)
        return EventOutcome(
            event=event,
            accepted=True,
            epoch=self.current_epoch(),
            dropped_commodities=tuple(delta.dropped_commodities),
        )

    def _rejected(self, event: NetworkEvent) -> EventOutcome:
        exc = sys.exc_info()[1]
        self.inst.count("serve.events_rejected")
        return EventOutcome(
            event=event, accepted=False, epoch=0, error=str(exc)
        )

    def _apply_delta(self, delta: Any) -> None:
        old_ext = self.ext
        with self.inst.phase("serve.apply"):
            applied = apply_delta(self.ext, delta)
            self.ext = applied.ext
            self.routing = carry_routing(
                old_ext, self.routing, self.ext, applied.maps
            )
            self.algo.refresh(applied)
        self.inst.count("serve.deltas_applied")
        self.inst.count(
            "serve.deltas_structural" if applied.structural
            else "serve.deltas_scalar"
        )
        self.inst.gauge("serve.epoch", float(self.ext.epoch))

    def _refine(self, iterations: int) -> None:
        self.routing, self._context = self.backend.advance(
            self.routing, None, iterations, eta=self.config.eta
        )
        self._refined_total += iterations
        self.inst.count("serve.refine_iterations", iterations)

    def _enforce_min_admit(
        self, outcomes: List[EventOutcome]
    ) -> List[EventOutcome]:
        """Admission policy: revert arrivals the optimizer starved.

        With ``min_admit_rate > 0`` an accepted arrival whose admitted rate
        after refinement is still below the bar is *reverted* (a departure
        is applied) and reported as a rejection -- admission control with
        teeth, not just bookkeeping.
        """
        if self.min_admit_rate <= 0.0:
            return outcomes
        breakdown_admitted = self._admitted_by_name()
        out: List[EventOutcome] = []
        reverted = False
        for outcome in outcomes:
            event = outcome.event
            if (
                outcome.accepted
                and isinstance(event, CommodityArrival)
                and event.commodity is not None
                and breakdown_admitted.get(event.commodity.name, 0.0)
                < self.min_admit_rate
            ):
                name = event.commodity.name
                try:
                    self._apply_delta(
                        compile_event(
                            self.ext,
                            CommodityDeparture(at_iteration=0, commodity=name),
                        )
                    )
                except ModelError:
                    out.append(outcome)  # cannot revert: keep the admit
                    continue
                reverted = True
                self.inst.count("serve.admits_reverted")
                out.append(
                    EventOutcome(
                        event=event,
                        accepted=False,
                        epoch=0,
                        error=(
                            f"admitted rate below min_admit_rate="
                            f"{self.min_admit_rate:g}"
                        ),
                    )
                )
            else:
                out.append(outcome)
        if reverted:
            self._shed()
            self._refine(self.refine_iterations)
        return out

    def _admitted_by_name(self) -> Dict[str, float]:
        solution = build_solution(
            self.ext, self.routing, self.config.cost_model,
            method="gradient-serve",
        )
        return solution.admitted_by_name

    def _audited_solution(self) -> Tuple[Solution, Optional[ValidationReport]]:
        # the refine's final context already holds the routing's flow
        # solve and usage; after a projection they are computed afresh
        context = self._context
        traffic = usage = None
        if context is not None and context.routing is self.routing:
            traffic = context.traffic
            usage = context.edge_usage, context.node_usage
        solution = build_solution(
            self.ext,
            self.routing,
            self.config.cost_model,
            method="gradient-serve",
            iterations=self._refined_total,
            traffic=traffic,
            usage=usage,
        )
        if not self.validate_epochs:
            return solution, None
        checker = InvariantChecker(
            self.ext, checks=SERVE_CHECKS, instrumentation=self.inst
        )
        return solution, checker.check_solution(solution)

    def _project(self) -> None:
        """Pull a refined routing that broke eq. (6) back onto capacity.

        The safeguarded barrier (:mod:`repro.core.penalty`) is finite past
        0.99 C, so the penalised optimum can lie beyond C and the refine
        walks to it.  Load is linear in the admission scale, so scaling the
        commodities at over-capacity nodes by 1 / peak lands the peak on C
        in one step; every other commodity keeps its admission.
        """
        self.routing = emergency_shed(
            self.ext, self.routing,
            utilization_target=1.0,
            bisection_steps=SHED_BISECTION_STEPS,
            overloaded_only=True,
            tolerance=Tolerances().capacity,
        )
        self.inst.count("serve.post_refine_sheds")

    def _publish(self, batch_size: int) -> EpochSnapshot:
        with self.inst.phase("serve.publish"):
            solution, report = self._audited_solution()
            if report is not None and "capacity" in report.failed_names:
                self._project()
                solution, report = self._audited_solution()
            if report is not None and not report.passed:
                self.inst.count("serve.epoch_validation_failures")
                failed = ", ".join(report.failed_names)
                raise ServeError(
                    f"epoch {self.current_epoch()} failed validation "
                    f"({failed}); not published"
                )
            self._seq += 1
            utilization = utilization_profile(
                solution.extras["node_usage"], self.ext.capacity
            )
            snapshot = EpochSnapshot(
                epoch=self.current_epoch(),
                seq=self._seq,
                utility=solution.utility,
                max_utilization=float(utilization.max()),
                admitted=solution.admitted_by_name,
                solution=solution,
                validation=report,
                batch_size=batch_size,
                refine_iterations=self._refined_total,
            )
        self._snapshot = snapshot
        self.inst.count("serve.epochs_published")
        self.inst.gauge("serve.published_epoch", float(snapshot.epoch))
        self.inst.gauge("serve.utility", snapshot.utility)
        if self.inst.enabled:
            self.inst.registry.histogram("serve.batch_size").observe(
                float(batch_size)
            )
            self.inst.event(
                "serve.publish",
                epoch=snapshot.epoch,
                seq=snapshot.seq,
                utility=snapshot.utility,
                batch_size=batch_size,
            )
        return snapshot

    def close(self) -> None:
        """Refuse further batches (idempotent); reads keep the last snapshot."""
        with self._lock:
            self._closed = True
