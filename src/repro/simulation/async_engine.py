"""Barrier-free asynchronous execution of the paper's gradient protocol.

The synchronous runner (:mod:`repro.simulation.runner`) drives the three
Section-5 phases to completion, one global phase barrier at a time.  The
paper's deployment story, however, is truly distributed per-node agents --
the regime the decentralized mapping papers of Asaduzzaman & Maheswaran
set the bar for: progress and convergence under *delayed, lost, and
reordered* messages, with no coordinator anywhere.  This module stresses
exactly that claim:

* :class:`AsyncNodeAgent` reacts to **individual message deliveries**.  It
  holds the last-known value from every neighbour (stamped with the
  sender's ``seq``/``epoch``, see :mod:`repro.simulation.messages`) and
  advances its own routing fractions ``phi`` whenever its neighbourhood
  view is *fresh enough* under the **bounded-staleness rule**: node ``i``
  at local epoch ``e`` may run a local iteration once every downstream
  marginal report and every upstream forecast carries an epoch stamp
  ``>= max(0, e - staleness)``.  This is the same contract the worker
  pool's bounded-staleness batches carry (``ParallelBackend(staleness=K)``,
  drift gated at :data:`repro.validate.STALENESS_DRIFT_RTOL`), executed
  here at per-message granularity.  A local iteration recomputes eq. (15)'s
  per-edge marginals and eqs. (9)-(11)'s node marginal from the stale
  view, applies the *same* node-local ``Gamma`` kernel as every other
  engine (:func:`repro.core.gradient.apply_gamma_at_node`), refreshes
  eq. (3) traffic / eqs. (4)-(5) usage, and publishes the new values.

* :class:`FaultyChannel` injects per-link integer delay distributions,
  drop probability, duplication, and delay spikes, all drawn from one
  seeded generator -- the same seed replays the same trace bit for bit
  (the chaos soak pins hash-identical final iterates).  Reordering needs
  no knob: unequal delays reorder deliveries on their own.

* **Loss recovery** is sender-retransmit driven by local timers: every
  agent schedules a :class:`~repro.simulation.messages.TickMessage` to
  itself; an agent whose epoch has not advanced since its last tick
  re-publishes its current state with ``retransmit=True``, and any
  receiver of a retransmit answers with its own current values on the
  reverse link.  Under any schedule in which every link eventually
  delivers, the slowest node can therefore always make progress -- there
  is no deadlock by construction, and the engine raises
  :class:`~repro.exceptions.SimulationError` with a per-node diagnosis if
  the queue ever drains with agents still short of their target.

Liveness and skew
-----------------
The bounded-staleness rule never deadlocks: the globally *slowest* node
always has every neighbour at an epoch at least its own, so once their
latest publications arrive (eventual delivery) its freshness predicate is
satisfied.  Conversely a node more than ``staleness`` epochs ahead of a
neighbour it depends on cannot advance, so the epoch skew between
*dependent* nodes is bounded by ``staleness + 1`` -- bounded asynchrony in
the Bertsekas--Tsitsiklis sense, which is what keeps the drift of the
async iterates inside the :data:`~repro.validate.oracle.STALENESS_DRIFT_RTOL`
bound that :meth:`repro.validate.DifferentialOracle.compare_async` gates.

Determinism
-----------
The event queue orders by ``(time, sequence)``; the channel consumes its
generator in send order; agents iterate insertion-ordered dicts.  Same
network + seed + fault spec => the same trajectory, message for message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.context import IterationContext
from repro.core.gradient import GradientConfig, IterationRecord, apply_gamma_at_node
from repro.core.result import RunResultMixin
from repro.core.routing import RoutingState, initial_routing, utilization_profile
from repro.core.solution import Solution, build_solution
from repro.core.transform import ExtendedNetwork
from repro.exceptions import ProtocolError, SimulationError
from repro.obs.instrumentation import NULL_INSTRUMENTATION
from repro.simulation.agent import CommodityPort, NodeAgent, _PHI_POSITIVE_TOL
from repro.simulation.engine import EventEngine
from repro.simulation.messages import (
    ASYNC_STAMP_BYTES,
    ForecastMessage,
    MarginalCostMessage,
    Message,
    RoutingSignalMessage,
    TickMessage,
)
from repro.simulation.metrics import AsyncRunMetrics, ChannelMetrics

__all__ = [
    "FaultSpec",
    "FaultyChannel",
    "AsyncEventEngine",
    "AsyncPort",
    "AsyncNodeAgent",
    "AsyncRunResult",
    "AsyncGradientRun",
    "DEFAULT_STALENESS",
    "DEFAULT_TICK_INTERVAL",
]

# default bound of the freshness rule: a node may run on neighbour values
# up to this many epochs older than its own counter.  2 keeps dependent
# neighbours within 3 epochs of each other while leaving enough slack that
# delay jitter rarely stalls anyone.
DEFAULT_STALENESS = 2

# default local-timer period in simulated ticks; long enough that healthy
# links never trigger a retransmit (base latency is a few ticks), short
# enough that a lost publication is repaired quickly
DEFAULT_TICK_INTERVAL = 8


# ------------------------------------------------------------------ fault layer
@dataclass(frozen=True)
class FaultSpec:
    """Per-link fault parameters (probabilities per message send).

    ``delay_min``/``delay_max`` bound the uniform integer per-hop latency;
    with probability ``spike_prob`` a further ``spike_delay`` ticks are
    added (the "delay spike" of the chaos trace).  ``drop`` loses the
    message entirely; ``duplicate`` delivers a second copy at an
    independently drawn latency.  ``drop`` must stay below 1 so every link
    eventually delivers -- the liveness precondition of the protocol.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    delay_min: int = 1
    delay_max: int = 1
    spike_prob: float = 0.0
    spike_delay: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop < 1.0:
            raise SimulationError(
                f"drop probability must be in [0, 1) for eventual delivery, "
                f"got {self.drop}"
            )
        if not 0.0 <= self.duplicate <= 1.0:
            raise SimulationError(f"duplicate probability invalid: {self.duplicate}")
        if not 1 <= self.delay_min <= self.delay_max:
            raise SimulationError(
                f"need 1 <= delay_min <= delay_max, got "
                f"[{self.delay_min}, {self.delay_max}]"
            )
        if self.spike_delay < 0 or not 0.0 <= self.spike_prob <= 1.0:
            raise SimulationError("invalid delay-spike parameters")


PERFECT_LINK = FaultSpec()


class FaultyChannel:
    """Seeded per-link fault injector: delay, loss, duplication, reordering.

    One :func:`numpy.random.default_rng` generator drives every draw, in
    send order -- the engine's delivery order is itself deterministic, so
    one seed replays one fault trace exactly.  ``links`` overrides the
    default spec for specific ``(sender, target)`` pairs; ``until_tick``
    (optional) turns the channel *perfect* from that simulated tick on,
    which is how the chaos soak builds a fault window followed by
    quiescence.
    """

    def __init__(
        self,
        default: FaultSpec = PERFECT_LINK,
        links: Optional[Mapping[Tuple[int, int], FaultSpec]] = None,
        seed: int = 0,
        until_tick: Optional[int] = None,
    ):
        self.default = default
        self.links = dict(links or {})
        self.seed = seed
        self.until_tick = until_tick
        self.rng = np.random.default_rng(seed)
        self.metrics = ChannelMetrics()

    def spec_for(self, sender: int, target: int) -> FaultSpec:
        return self.links.get((sender, target), self.default)

    def plan(self, sender: int, target: int, now: int) -> List[int]:
        """The delivery delays (ticks) for one message; empty = dropped."""
        spec = self.spec_for(sender, target)
        self.metrics.attempts += 1
        if self.until_tick is not None and now >= self.until_tick:
            spec = PERFECT_LINK
        if spec is PERFECT_LINK:
            self.metrics.delivered += 1
            return [1]
        rng = self.rng
        if spec.drop > 0.0 and rng.random() < spec.drop:
            self.metrics.dropped += 1
            return []
        delays = [self._draw_delay(spec)]
        if spec.duplicate > 0.0 and rng.random() < spec.duplicate:
            self.metrics.duplicated += 1
            delays.append(self._draw_delay(spec))
        self.metrics.delivered += len(delays)
        return delays

    def _draw_delay(self, spec: FaultSpec) -> int:
        delay = int(self.rng.integers(spec.delay_min, spec.delay_max + 1))
        if spec.spike_prob > 0.0 and self.rng.random() < spec.spike_prob:
            delay += spec.spike_delay
            self.metrics.delayed += 1
        elif delay > spec.delay_min:
            self.metrics.delayed += 1
        return delay


class AsyncEventEngine(EventEngine):
    """The deterministic event engine with a fault layer on every send.

    Protocol sends route through the :class:`FaultyChannel` (when one is
    installed): each surviving copy is scheduled at its drawn latency, so
    loss, duplication, and reordering all emerge at the queue level while
    the queue itself stays deterministic.  Local timers bypass the channel
    via :meth:`schedule_local` -- a node's own clock does not traverse the
    network.
    """

    def __init__(
        self,
        channel: Optional[FaultyChannel] = None,
        hop_latency: int = 1,
        on_send: Optional[Callable] = None,
    ):
        super().__init__(hop_latency=hop_latency, on_send=on_send)
        self.channel = channel

    def send(self, target: int, message: Message, delay: Optional[int] = None) -> None:
        if self.channel is None or delay is not None:
            super().send(target, message, delay)
            return
        if target not in self._agents:
            raise SimulationError(f"no agent registered for node {target}")
        self.metrics.on_send(message)
        if self.on_send is not None:
            self.on_send(message)
        for copy_delay in self.channel.plan(message.sender, target, self.now):
            self._deliver_later(target, message, copy_delay)

    def schedule_local(self, node: int, message: Message, delay: int) -> None:
        """Schedule a node-local timer: no channel, no message accounting."""
        if node not in self._agents:
            raise SimulationError(f"no agent registered for node {node}")
        self._deliver_later(node, message, delay)


# ------------------------------------------------------------------ async agent
@dataclass
class AsyncPort(CommodityPort):
    """A commodity port plus the last-known stamped neighbour state."""

    # downstream marginal reports: head -> last value / tag / stamps
    dadr_in: Dict[int, float] = field(default_factory=dict)
    tag_in: Dict[int, bool] = field(default_factory=dict)
    dadr_stamp: Dict[int, int] = field(default_factory=dict)
    dadr_seq: Dict[int, int] = field(default_factory=dict)
    # upstream forecasts: tail -> last gain-scaled inflow / stamps
    inflow_in: Dict[int, float] = field(default_factory=dict)
    inflow_stamp: Dict[int, int] = field(default_factory=dict)
    inflow_seq: Dict[int, int] = field(default_factory=dict)


class AsyncNodeAgent(NodeAgent):
    """A node agent that iterates on message deliveries, not phase barriers."""

    PORT_CLS = AsyncPort

    def __init__(
        self,
        ext: ExtendedNetwork,
        node: int,
        cost_model,
        eta: float,
        traffic_tol: float,
        use_blocking: bool = True,
        staleness: int = DEFAULT_STALENESS,
        tick_interval: int = DEFAULT_TICK_INTERVAL,
    ):
        if staleness < 0:
            raise SimulationError(f"staleness must be >= 0, got {staleness}")
        super().__init__(
            ext, node, cost_model, eta, traffic_tol, use_blocking=use_blocking
        )
        self.staleness = staleness
        self.tick_interval = tick_interval
        self.epoch = 0
        self.target = 0
        self.done = False
        self._seq = 0
        self._last_tick_epoch = -1
        self.retransmits = 0
        self.ticks = 0
        # runner hook, called as on_advance(node, new_epoch) after each
        # local iteration -- how the runner tracks progress in O(1)
        self.on_advance: Optional[Callable[[int, int], None]] = None

    # -- lifecycle -----------------------------------------------------------------
    def start(self, engine: AsyncEventEngine, target_epochs: int) -> None:
        """Bootstrap: publish the epoch-0 view and arm the local timer.

        The epoch-0 values are honest local knowledge: zero marginals and
        tags, traffic equal to the locally offered load (eq. (3) with an
        empty inflow view).  Correct values propagate as neighbours'
        publications arrive -- no global wave is needed to seed the run.
        """
        if target_epochs < 1:
            raise SimulationError("target_epochs must be >= 1")
        self.target = target_epochs
        for port in self.ports.values():
            port.dadr = 0.0
            port.tag = False
            port.traffic = port.max_rate
        self._refresh_usage()
        self._publish(engine)
        if self.tick_interval:
            engine.schedule_local(
                self.node,
                TickMessage(sender=self.node, commodity=-1),
                self.tick_interval,
            )

    # -- freshness / local iteration -------------------------------------------------
    def _ready(self) -> bool:
        """The bounded-staleness predicate over every port's input set."""
        if self.done:
            return False
        horizon = max(0, self.epoch - self.staleness)
        for port in self.ports.values():
            if not port.is_sink:
                dadr_stamp = port.dadr_stamp
                for head in port.out_heads:
                    if dadr_stamp.get(head, -1) < horizon:
                        return False
            inflow_stamp = port.inflow_stamp
            for tail in port.in_tails:
                if inflow_stamp.get(tail, -1) < horizon:
                    return False
        return True

    def stalled_on(self) -> List[str]:
        """Human-readable list of the inputs blocking this agent (diagnosis)."""
        horizon = max(0, self.epoch - self.staleness)
        missing: List[str] = []
        for j, port in self.ports.items():
            if not port.is_sink:
                for head in port.out_heads:
                    if port.dadr_stamp.get(head, -1) < horizon:
                        missing.append(f"dadr[j={j}] from node {head}")
            for tail in port.in_tails:
                if port.inflow_stamp.get(tail, -1) < horizon:
                    missing.append(f"forecast[j={j}] from node {tail}")
        return missing

    def _local_iteration(self) -> None:
        """One barrier-free iteration from the last-known neighbour view.

        Mirrors the synchronous phase order -- marginals (eqs. (9)-(11),
        (15), (18)) from the current ``phi``/traffic, then the ``Gamma``
        update through the shared node-local kernel, then eq. (3) traffic
        and eqs. (4)-(5) usage under the new routing.
        """
        ext = self.ext
        for j, port in self.ports.items():
            if port.is_sink:
                port.dadr = 0.0
                port.tag = False
                continue
            phi_row = self.phi[j]
            dadr = 0.0
            for e, head in zip(port.out_edges, port.out_heads):
                dadf = self._link_cost_derivative(port, e)
                delta = dadf * ext.cost[j, e] + ext.gain[j, e] * port.dadr_in.get(
                    head, 0.0
                )
                port.delta[e] = delta
                dadr += phi_row[e] * delta
            port.dadr = dadr
            port.tag = self._loop_tag(port, dadr)

        for j, port in self.ports.items():
            if port.is_sink or len(port.out_edges) < 2:
                continue
            delta = np.zeros(ext.num_edges, dtype=float)
            for e in port.out_edges:
                delta[e] = port.delta[e]
            blocked = None
            if self.use_blocking:
                blocked = np.zeros(ext.num_edges, dtype=bool)
                phi_row = self.phi[j]
                for e, head in zip(port.out_edges, port.out_heads):
                    if phi_row[e] <= _PHI_POSITIVE_TOL and port.tag_in.get(
                        head, False
                    ):
                        blocked[e] = True
            apply_gamma_at_node(
                self.phi[j],
                port.traffic,
                port.out_edges,
                delta,
                blocked,
                self.eta,
                self.traffic_tol,
            )

        for port in self.ports.values():
            inflow = 0.0
            for tail in port.in_tails:
                inflow += port.inflow_in.get(tail, 0.0)
            port.traffic = port.max_rate + inflow  # eq. (3)
        self._refresh_usage()

    def _loop_tag(self, port: AsyncPort, dadr: float) -> bool:
        """Eq. (18) from the last-known downstream view (see sync agent)."""
        g = self.ext.node_potentials[port.commodity]
        phi_row = self.phi[port.commodity]
        for e, head in zip(port.out_edges, port.out_heads):
            frac = phi_row[e]
            if frac <= _PHI_POSITIVE_TOL:
                continue
            if port.tag_in.get(head, False):
                return True
            if g[self.node] * dadr > g[head] * port.dadr_in.get(head, 0.0):
                continue
            if port.traffic <= 0.0:
                continue
            threshold = (self.eta / port.traffic) * (port.delta[e] - dadr)
            if frac >= threshold:
                return True
        return False

    def _refresh_usage(self) -> None:
        """Eqs. (4)-(5) over every port (async: no phase-completion gate)."""
        usage = 0.0
        for j, port in self.ports.items():
            if port.is_sink:
                continue
            phi_row = self.phi[j]
            for e in port.out_edges:
                usage += port.traffic * phi_row[e] * float(self.ext.cost[j, e])
        self.usage = usage

    # -- publication -----------------------------------------------------------------
    def _publish(
        self,
        engine: AsyncEventEngine,
        retransmit: bool = False,
        only_to: Optional[int] = None,
    ) -> None:
        """Send this node's current stamped view to its neighbours.

        ``only_to`` restricts the publication to one neighbour (the reply
        path of the retransmit protocol); otherwise every in-tail gets the
        marginal report and every out-head a forecast per allowed edge --
        inactive edges included, so a receiver's last-known inflow decays
        when an edge deactivates.
        """
        node = self.node
        for j, port in self.ports.items():
            phi_row = self.phi[j]
            for tail in port.in_tails:
                if only_to is not None and tail != only_to:
                    continue
                self._seq += 1
                engine.send(
                    tail,
                    MarginalCostMessage(
                        sender=node,
                        commodity=j,
                        seq=self._seq,
                        epoch=self.epoch,
                        retransmit=retransmit,
                        value=port.dadr,
                        tagged=port.tag,
                    ),
                )
            if port.is_sink:
                continue
            for e, head in zip(port.out_edges, port.out_heads):
                if only_to is not None and head != only_to:
                    continue
                self._seq += 1
                engine.send(
                    head,
                    ForecastMessage(
                        sender=node,
                        commodity=j,
                        seq=self._seq,
                        epoch=self.epoch,
                        retransmit=retransmit,
                        flow=port.traffic * phi_row[e] * float(self.ext.gain[j, e]),
                    ),
                )

    # -- message handling ------------------------------------------------------------
    def on_message(self, message: Message, engine: EventEngine) -> None:  # type: ignore[override]
        if isinstance(message, TickMessage):
            self._on_tick(engine)
            return
        port = self.ports.get(message.commodity)
        if port is None:
            raise ProtocolError(
                f"node {self.node} got a message for commodity "
                f"{message.commodity} it does not carry"
            )
        assert isinstance(port, AsyncPort)
        sender = message.sender
        if isinstance(message, MarginalCostMessage):
            if sender not in port.out_heads:
                raise ProtocolError(
                    f"marginal cost from non-neighbour {sender} at node {self.node}"
                )
            # last-writer-wins on the sender's sequence number: duplicates
            # and reordered stragglers fall through here
            if message.seq > port.dadr_seq.get(sender, -1):
                port.dadr_seq[sender] = message.seq
                port.dadr_in[sender] = message.value
                port.tag_in[sender] = message.tagged
                port.dadr_stamp[sender] = message.epoch
        elif isinstance(message, ForecastMessage):
            if sender not in port.in_tails:
                raise ProtocolError(
                    f"forecast from non-upstream {sender} at node {self.node}"
                )
            if message.seq > port.inflow_seq.get(sender, -1):
                port.inflow_seq[sender] = message.seq
                port.inflow_in[sender] = message.flow
                port.inflow_stamp[sender] = message.epoch
        elif isinstance(message, RoutingSignalMessage):
            # the async protocol folds the active bit into zero-flow
            # forecasts; a stray signal is validated but carries no news
            if sender not in port.in_tails:
                raise ProtocolError(
                    f"routing signal from non-upstream {sender} at node {self.node}"
                )
        else:
            raise ProtocolError(f"unknown message type {type(message).__name__}")
        if message.retransmit:
            # answer a stall-triggered resend with our own current state on
            # the reverse link, so a node whose publication was lost can
            # refresh the stalled neighbour (and vice versa)
            self._publish(engine, only_to=sender)  # type: ignore[arg-type]
        self._advance(engine)  # type: ignore[arg-type]

    def _on_tick(self, engine: AsyncEventEngine) -> None:
        if self.done:
            return
        self.ticks += 1
        if self.epoch == self._last_tick_epoch:
            # no progress since the previous tick: assume a publication (ours
            # or a neighbour's) was lost and re-send our stamped state
            self.retransmits += 1
            self._publish(engine, retransmit=True)
        self._last_tick_epoch = self.epoch
        if self.tick_interval:
            engine.schedule_local(
                self.node,
                TickMessage(sender=self.node, commodity=-1),
                self.tick_interval,
            )

    def _advance(self, engine: AsyncEventEngine) -> None:
        while self._ready():
            self._local_iteration()
            self.epoch += 1
            if self.epoch >= self.target:
                self.done = True
            self._publish(engine)
            if self.on_advance is not None:
                self.on_advance(self.node, self.epoch)


# ------------------------------------------------------------------ run driver
@dataclass
class AsyncRunResult(RunResultMixin):
    """Outcome of a barrier-free run: solution, trajectory, async metrics.

    Implements the :class:`~repro.core.result.RunResult` protocol with the
    same record type as the synchronous engines, so every consumer
    (analysis, CLI ``--json``, the oracle) reads it unchanged; ``metrics``
    adds what only an asynchronous execution can measure -- epoch skew,
    retransmissions, and the fault counters of the channel.
    """

    solution: Solution
    iterations: int
    history: List[IterationRecord]
    metrics: AsyncRunMetrics = field(default_factory=AsyncRunMetrics)


class AsyncGradientRun:
    """Run the gradient protocol with no global barrier anywhere.

    The constructor mirrors :class:`~repro.simulation.runner.DistributedGradientRun`
    (same config object, same backend-for-snapshots contract) plus the
    async knobs: ``staleness`` (the freshness bound), ``faults`` (a
    :class:`FaultSpec` or ``None`` for a perfect network), ``seed`` (the
    channel's fault trace), and ``tick_interval`` (the local retransmit
    timer; ``0`` disables recovery -- only sensible on a lossless
    channel).
    """

    def __init__(
        self,
        ext: ExtendedNetwork,
        config: Optional[GradientConfig] = None,
        staleness: int = DEFAULT_STALENESS,
        faults: Optional[FaultSpec] = None,
        links: Optional[Mapping[Tuple[int, int], FaultSpec]] = None,
        seed: int = 0,
        fault_until_tick: Optional[int] = None,
        tick_interval: int = DEFAULT_TICK_INTERVAL,
        instrumentation=None,
        backend=None,
    ):
        self.ext = ext
        self.config = config or GradientConfig()
        self.staleness = staleness
        self.inst = (
            instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        )
        if backend is None:
            from repro.parallel.backend import SerialBackend

            backend = SerialBackend()
        self.backend = backend
        backend.bind(self.ext, self.config)

        channel: Optional[FaultyChannel] = None
        if faults is not None or links:
            channel = FaultyChannel(
                default=faults if faults is not None else PERFECT_LINK,
                links=links,
                seed=seed,
                until_tick=fault_until_tick,
            )
        self.engine = AsyncEventEngine(channel=channel)
        self.agents: List[AsyncNodeAgent] = []
        for node in range(ext.num_nodes):
            agent = AsyncNodeAgent(
                ext,
                node,
                cost_model=self.config.cost_model,
                eta=self.config.eta,
                traffic_tol=self.config.traffic_tol,
                use_blocking=self.config.use_blocking,
                staleness=staleness,
                tick_interval=tick_interval,
            )
            self.engine.register(node, agent)
            self.agents.append(agent)

        # O(1) progress tracking: epoch histogram + min/max pointers
        self._epochs = np.zeros(ext.num_nodes, dtype=np.int64)
        self._at_min = ext.num_nodes
        self._min_epoch = 0
        self._max_epoch = 0
        self.max_skew = 0
        for agent in self.agents:
            agent.on_advance = self._on_advance

    # -- progress accounting ---------------------------------------------------------
    def _on_advance(self, node: int, epoch: int) -> None:
        self._epochs[node] = epoch
        if epoch > self._max_epoch:
            self._max_epoch = epoch
        if epoch - 1 == self._min_epoch:
            self._at_min -= 1
            if self._at_min == 0:
                self._min_epoch = int(self._epochs.min())
                self._at_min = int((self._epochs == self._min_epoch).sum())
        skew = self._max_epoch - self._min_epoch
        if skew > self.max_skew:
            self.max_skew = skew
        if self.inst.enabled:
            self.inst.event(
                "async.advance", node=node, epoch=epoch, tick=self.engine.now
            )

    @property
    def min_epoch(self) -> int:
        return self._min_epoch

    # -- state import/export ----------------------------------------------------------
    def load_routing(self, routing: RoutingState) -> None:
        for agent in self.agents:
            agent.load_routing(routing.phi)

    def export_routing(self) -> RoutingState:
        phi = np.zeros((self.ext.num_commodities, self.ext.num_edges), dtype=float)
        for agent in self.agents:
            agent.export_routing(phi)
        return RoutingState(phi)

    # -- full run ----------------------------------------------------------------------
    def run(
        self,
        epochs: int,
        routing: Optional[RoutingState] = None,
        record_every: int = 1,
        validate=False,
    ) -> AsyncRunResult:
        """Drive every agent to ``epochs`` local iterations, barrier-free.

        The trajectory is sampled whenever the *slowest* agent crosses a
        multiple of ``record_every``: the engine pauses (the simulation
        pauses -- the protocol has no barrier), the mixed-epoch routing
        state is snapshotted and evaluated, and delivery resumes.  The
        final record always exists and describes the state after every
        agent reached its target and the queue drained.
        """
        if epochs < 1:
            raise SimulationError("epochs must be >= 1")
        if routing is None:
            routing = initial_routing(self.ext)
        self.load_routing(routing)

        inst = self.inst
        engine = self.engine
        with inst.phase("async.bootstrap"):
            for agent in self.agents:
                agent.start(engine, epochs)

        history: List[IterationRecord] = []
        context: Optional[IterationContext] = None
        checkpoints = [
            m for m in range(record_every, epochs, record_every)
        ] + [epochs]
        rounds = 0
        for checkpoint in checkpoints:
            with inst.phase("async.segment", checkpoint=checkpoint):
                rounds += engine.run_until(
                    lambda: self._min_epoch >= checkpoint
                )
            if self._min_epoch < checkpoint:
                self._raise_deadlock(checkpoint)
            snapshot = self.export_routing()
            context = self.backend.build_context(
                snapshot, instrumentation=inst, with_derivatives=False
            )
            record = self._record(checkpoint, context)
            history.append(record)
            if inst.enabled:
                inst.iteration(
                    checkpoint,
                    cost=record.cost,
                    utility=record.utility,
                    max_utilization=record.max_utilization,
                )

        # drain stragglers (duplicates, late retransmit replies) so the
        # queue is empty and the trace is complete; done agents only ever
        # answer retransmits, so this terminates
        rounds += engine.run_until_idle()

        assert context is not None
        solution = build_solution(
            self.ext,
            context.routing,
            self.config.cost_model,
            method="gradient-async",
            iterations=epochs,
            traffic=context.traffic,
        )
        metrics = self._collect_metrics(epochs, rounds)
        if inst.enabled:
            inst.gauge("final_utility", solution.utility)
            inst.gauge("async.max_skew", float(metrics.max_skew))
            inst.gauge(
                "async.messages_per_node_epoch", metrics.messages_per_node_epoch
            )
            inst.count("async.retransmits", metrics.retransmits)
            inst.count("async.ticks", metrics.ticks)
            ch = metrics.channel
            inst.count("async.channel.dropped", ch.dropped)
            inst.count("async.channel.duplicated", ch.duplicated)
            inst.count("async.channel.delayed", ch.delayed)
        result = AsyncRunResult(
            solution=solution,
            iterations=epochs,
            history=history,
            metrics=metrics,
        )
        if validate:
            from repro.validate import attach_validation

            attach_validation(result, self.ext, mode=validate, instrumentation=inst)
        return result

    def _collect_metrics(self, epochs: int, rounds: int) -> AsyncRunMetrics:
        engine = self.engine
        channel = engine.channel.metrics if engine.channel else ChannelMetrics()
        messages = engine.metrics.messages_total
        metrics = AsyncRunMetrics(
            epochs=epochs,
            messages=messages,
            bytes=engine.metrics.bytes_total + messages * ASYNC_STAMP_BYTES,
            rounds=rounds,
            max_skew=self.max_skew,
            retransmits=sum(agent.retransmits for agent in self.agents),
            ticks=sum(agent.ticks for agent in self.agents),
            channel=channel,
        )
        if self.agents and epochs:
            metrics.messages_per_node_epoch = messages / (
                len(self.agents) * epochs
            )
        return metrics

    def _raise_deadlock(self, checkpoint: int) -> None:
        stuck = [
            agent
            for agent in self.agents
            if agent.epoch < checkpoint and not agent.done
        ]
        detail = "; ".join(
            f"node {agent.node}@epoch {agent.epoch} waiting on "
            f"[{', '.join(agent.stalled_on()) or 'nothing (timer disabled?)'}]"
            for agent in stuck[:5]
        )
        raise SimulationError(
            f"async deadlock: queue drained with {len(stuck)} agent(s) below "
            f"epoch {checkpoint} -- {detail}"
        )

    def _record(self, iteration: int, context: IterationContext) -> IterationRecord:
        breakdown = context.breakdown
        util = utilization_profile(context.node_usage, self.ext.capacity)
        return IterationRecord(
            iteration=iteration,
            cost=breakdown.total,
            utility=breakdown.utility,
            max_utilization=float(util.max()) if util.size else 0.0,
            admitted=breakdown.admitted.copy(),
        )
