"""Demand traces: slot-level arrival processes and event-timeline shapes.

Two layers live here:

* **slot traces** -- the original "bursty and unpredictable" arrival
  generators (Section 1 of the paper): :func:`constant_trace`,
  :func:`poisson_trace`, :func:`onoff_trace`, :func:`mmpp_trace`, plus the
  new non-stationary :func:`diurnal_trace` and :func:`flash_crowd_trace`
  profiles.  All return slotted *volume* arrays (data units per slot) and
  feed the :class:`~repro.core.admission.AdmissionController` examples.
* **event timelines** -- :func:`diurnal_events` and
  :func:`flash_crowd_events` compile the same demand shapes into
  shadow-validated :class:`~repro.online.events.DemandChange` timelines
  replayable through :class:`repro.online.OnlineOrchestrator` and the
  serve daemon -- the ``diurnal`` / ``flash-crowd`` demand kinds of
  :class:`repro.scenarios.ScenarioSpec`.

Everything is deterministic given a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.commodity import StreamNetwork
from repro.exceptions import ModelError
from repro.online.events import DemandChange, NetworkEvent
from repro.online.rebuild import apply_event

__all__ = [
    "constant_trace",
    "poisson_trace",
    "onoff_trace",
    "mmpp_trace",
    "diurnal_trace",
    "flash_crowd_trace",
    "TraceStats",
    "trace_stats",
    "diurnal_rate",
    "diurnal_events",
    "flash_crowd_events",
]


def constant_trace(rate: float, num_slots: int) -> np.ndarray:
    """Deterministic fluid arrivals: ``rate`` units every slot."""
    if rate < 0:
        raise ModelError("rate must be >= 0")
    if num_slots < 1:
        raise ModelError("num_slots must be >= 1")
    return np.full(num_slots, float(rate))


def poisson_trace(rate: float, num_slots: int, seed: int = 0) -> np.ndarray:
    """Poisson arrivals with mean ``rate`` per slot."""
    if rate < 0:
        raise ModelError("rate must be >= 0")
    if num_slots < 1:
        raise ModelError("num_slots must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.poisson(rate, size=num_slots).astype(float)


def onoff_trace(
    peak_rate: float,
    num_slots: int,
    on_probability: float = 0.3,
    mean_burst_length: float = 5.0,
    seed: int = 0,
) -> np.ndarray:
    """Markovian on/off bursts: ``peak_rate`` while ON, silence while OFF.

    ``on_probability`` sets the stationary ON fraction, so the long-run mean
    rate is ``peak_rate * on_probability``.
    """
    if peak_rate < 0:
        raise ModelError("peak_rate must be >= 0")
    if not 0.0 < on_probability < 1.0:
        raise ModelError("on_probability must be in (0, 1)")
    if mean_burst_length <= 0:
        raise ModelError("mean_burst_length must be > 0")
    rng = np.random.default_rng(seed)
    p_off = 1.0 / mean_burst_length  # ON -> OFF
    p_on = p_off * on_probability / (1.0 - on_probability)  # OFF -> ON
    trace = np.zeros(num_slots)
    on = rng.random() < on_probability
    for t in range(num_slots):
        trace[t] = peak_rate if on else 0.0
        if on:
            on = rng.random() >= p_off
        else:
            on = rng.random() < p_on
    return trace


def mmpp_trace(
    rates: Optional[np.ndarray] = None,
    num_slots: int = 1000,
    mean_state_length: float = 20.0,
    seed: int = 0,
) -> np.ndarray:
    """Markov-modulated Poisson process with uniform state switching.

    ``rates`` lists the Poisson intensity of each modulating state (defaults
    to a calm/normal/spike profile).  State holding times are geometric with
    the given mean.
    """
    if rates is None:
        rates = np.array([2.0, 10.0, 40.0])
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 1 or rates.size == 0 or np.any(rates < 0):
        raise ModelError("rates must be a non-empty 1-D non-negative array")
    if mean_state_length <= 1:
        raise ModelError("mean_state_length must be > 1")
    rng = np.random.default_rng(seed)
    switch_probability = 1.0 / mean_state_length
    trace = np.empty(num_slots)
    state = int(rng.integers(rates.size))
    for t in range(num_slots):
        trace[t] = rng.poisson(rates[state])
        if rng.random() < switch_probability:
            state = int(rng.integers(rates.size))
    return trace


@dataclass
class TraceStats:
    mean: float
    peak: float
    burstiness: float  # peak / mean (1.0 for constant traces)
    coefficient_of_variation: float


def trace_stats(trace: np.ndarray) -> TraceStats:
    """Summary statistics used by the admission-control examples."""
    trace = np.asarray(trace, dtype=float)
    if trace.size == 0:
        raise ModelError("empty trace")
    mean = float(trace.mean())
    peak = float(trace.max())
    std = float(trace.std())
    return TraceStats(
        mean=mean,
        peak=peak,
        burstiness=peak / mean if mean > 0 else float("inf"),
        coefficient_of_variation=std / mean if mean > 0 else float("inf"),
    )

def diurnal_rate(
    t: float,
    period: float,
    amplitude: float,
    phase: float = 0.0,
) -> float:
    """The diurnal multiplier at time ``t``: ``1 + amplitude*sin(...)``.

    ``period`` is the full day length in the same unit as ``t``;
    ``amplitude`` in [0, 1) keeps the multiplier strictly positive.
    """
    if period <= 0:
        raise ModelError("period must be > 0")
    if not 0.0 <= amplitude < 1.0:
        raise ModelError("amplitude must be in [0, 1)")
    return 1.0 + amplitude * math.sin(2.0 * math.pi * (t / period + phase))


def diurnal_trace(
    base_rate: float,
    num_slots: int,
    period: float = 96.0,
    amplitude: float = 0.6,
    noise: float = 0.1,
    seed: int = 0,
) -> np.ndarray:
    """A sinusoidal day/night arrival curve with multiplicative noise.

    The mean rate swings between ``base_rate*(1-amplitude)`` and
    ``base_rate*(1+amplitude)`` over each ``period`` slots; per-slot noise
    is lognormal-ish (clipped normal multiplier) so the curve stays
    non-negative.
    """
    if base_rate < 0:
        raise ModelError("base_rate must be >= 0")
    if num_slots < 1:
        raise ModelError("num_slots must be >= 1")
    if noise < 0:
        raise ModelError("noise must be >= 0")
    if period <= 0:
        raise ModelError("period must be > 0")
    if not 0.0 <= amplitude < 1.0:
        raise ModelError("amplitude must be in [0, 1)")
    rng = np.random.default_rng(seed)
    t = np.arange(num_slots, dtype=float)
    curve = 1.0 + amplitude * np.sin(2.0 * np.pi * t / period)
    jitter = np.clip(1.0 + noise * rng.standard_normal(num_slots), 0.0, None)
    return base_rate * curve * jitter


def flash_crowd_trace(
    base_rate: float,
    num_slots: int,
    spike_at: int,
    spike_factor: float = 4.0,
    decay: float = 0.85,
    noise: float = 0.1,
    seed: int = 0,
) -> np.ndarray:
    """A flash crowd: steady arrivals, then a sudden spike decaying back.

    At slot ``spike_at`` the rate jumps to ``base_rate*spike_factor`` and
    decays geometrically (factor ``decay`` per slot) back toward the base.
    """
    if base_rate < 0:
        raise ModelError("base_rate must be >= 0")
    if num_slots < 1:
        raise ModelError("num_slots must be >= 1")
    if not 0 <= spike_at < num_slots:
        raise ModelError("spike_at must be inside the trace")
    if spike_factor < 1.0:
        raise ModelError("spike_factor must be >= 1")
    if not 0.0 < decay < 1.0:
        raise ModelError("decay must be in (0, 1)")
    rng = np.random.default_rng(seed)
    t = np.arange(num_slots, dtype=float)
    excess = np.zeros(num_slots)
    after = t >= spike_at
    excess[after] = (spike_factor - 1.0) * decay ** (t[after] - spike_at)
    jitter = np.clip(1.0 + noise * rng.standard_normal(num_slots), 0.0, None)
    return base_rate * (1.0 + excess) * jitter


def _demand_events_from_multipliers(
    network: StreamNetwork,
    multipliers: Sequence[Sequence[float]],
    iteration_gap: int,
    floor: float,
) -> List[NetworkEvent]:
    """Compile per-sample rate multipliers into a replayable timeline.

    ``multipliers[s][j]`` scales commodity ``j``'s *original* max rate at
    sample ``s``.  Each sample occupies ``iteration_gap`` iterations; the
    J commodities of a sample get consecutive iterations (the orchestrator
    applies one event per iteration).  Every event is applied to a shadow
    network first, so the timeline replays without raising.
    """
    if iteration_gap < len(network.commodities) + 1:
        raise ModelError(
            "iteration_gap must exceed the commodity count so per-sample "
            "events get distinct iterations"
        )
    base_rates = {c.name: c.max_rate for c in network.commodities}
    names = [c.name for c in network.commodities]
    shadow = network
    events: List[NetworkEvent] = []
    for s, row in enumerate(multipliers):
        if len(row) != len(names):
            raise ModelError("one multiplier per commodity per sample")
        start = (s + 1) * iteration_gap
        alive = {c.name for c in shadow.commodities}
        offset = 0
        for name, mult in zip(names, row):
            if name not in alive:
                continue  # departed in some upstream composition; skip
            candidate = DemandChange(
                at_iteration=start + offset,
                commodity=name,
                new_rate=max(base_rates[name] * float(mult), floor),
            )
            result = apply_event(shadow, candidate)
            shadow = result.network
            events.append(candidate)
            offset += 1
    return events


def diurnal_events(
    network: StreamNetwork,
    num_samples: int = 12,
    period_samples: float = 8.0,
    amplitude: float = 0.6,
    iteration_gap: int = 20,
    stagger: bool = True,
    floor: float = 1e-6,
) -> List[NetworkEvent]:
    """A diurnal :class:`DemandChange` timeline for ``network``.

    Each commodity's max rate follows ``base * diurnal_rate(s, ...)``
    sampled at ``num_samples`` points; with ``stagger`` the commodities get
    evenly spaced phase offsets, so peaks do not all collide (streams in
    different timezones).  Deterministic: no randomness at all.
    """
    if num_samples < 1:
        raise ModelError("num_samples must be >= 1")
    n = len(network.commodities)
    rows = [
        [
            diurnal_rate(
                float(s),
                period_samples,
                amplitude,
                phase=(j / n if stagger else 0.0),
            )
            for j in range(n)
        ]
        for s in range(num_samples)
    ]
    return _demand_events_from_multipliers(network, rows, iteration_gap, floor)


def flash_crowd_events(
    network: StreamNetwork,
    num_samples: int = 10,
    spike_sample: int = 3,
    spike_factor: float = 4.0,
    decay: float = 0.6,
    hot_commodities: int = 1,
    iteration_gap: int = 20,
    floor: float = 1e-6,
) -> List[NetworkEvent]:
    """A flash-crowd :class:`DemandChange` timeline for ``network``.

    The first ``hot_commodities`` streams spike to ``spike_factor``x their
    base rate at ``spike_sample`` and decay geometrically back; the rest
    hold their base rate (their events are elided -- no-op changes would
    just burn orchestrator iterations).  Deterministic.
    """
    if num_samples < 1:
        raise ModelError("num_samples must be >= 1")
    if not 0 <= spike_sample < num_samples:
        raise ModelError("spike_sample must be inside the sample range")
    if spike_factor < 1.0:
        raise ModelError("spike_factor must be >= 1")
    if not 0.0 < decay < 1.0:
        raise ModelError("decay must be in (0, 1)")
    n = len(network.commodities)
    hot = max(1, min(hot_commodities, n))
    rows: List[List[float]] = []
    for s in range(num_samples):
        if s < spike_sample:
            rows.append([1.0] * n)
            continue
        mult = 1.0 + (spike_factor - 1.0) * decay ** (s - spike_sample)
        rows.append([mult if j < hot else 1.0 for j in range(n)])
    # elide exact no-ops by compiling only rows that change something
    events = _demand_events_from_multipliers(network, rows, iteration_gap, floor)
    base = {c.name: c.max_rate for c in network.commodities}
    return [
        e
        for e in events
        if not (
            isinstance(e, DemandChange)
            and abs(e.new_rate - base[e.commodity]) < 1e-12
        )
    ]
