"""Tests for the observability subsystem (repro.obs)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.gradient import GradientAlgorithm, GradientConfig
from repro.obs import (
    NULL_INSTRUMENTATION,
    NULL_SPAN,
    EventLog,
    Instrumentation,
    MetricsRegistry,
    chrome_trace,
    metrics_document,
    write_chrome_trace,
    write_metrics_json,
)


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("msgs").inc()
        reg.counter("msgs").inc(4)
        assert reg.counter("msgs").value == 5.0

    def test_counter_is_monotone(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("msgs").inc(-1)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        assert reg.gauge("u").value is None
        reg.gauge("u").set(1.0)
        reg.gauge("u").set(7.5)
        assert reg.gauge("u").value == 7.5

    def test_histogram_summary_and_percentiles(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat")
        for v in [5.0, 1.0, 3.0, 2.0, 4.0]:
            hist.observe(v)
        summary = hist.summary()
        assert summary["count"] == 5
        assert summary["min"] == 1.0 and summary["max"] == 5.0
        assert summary["p50"] == 3.0
        assert hist.percentile(0) == 1.0
        assert hist.percentile(100) == 5.0

    def test_empty_histogram(self):
        reg = MetricsRegistry()
        assert reg.histogram("empty").summary() == {"count": 0}
        with pytest.raises(ValueError):
            reg.histogram("empty").percentile(50)

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_as_dict_sections_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc(2)
        reg.gauge("g").set(1.0)
        reg.histogram("h").observe(0.5)
        doc = reg.as_dict()
        assert list(doc) == ["counters", "gauges", "histograms"]
        assert list(doc["counters"]) == ["a", "b"]
        assert doc["gauges"]["g"] == 1.0
        assert doc["histograms"]["h"]["count"] == 1


class TestEventLog:
    def test_add_and_filter(self):
        log = EventLog()
        log.add("phase", "gamma", ts=0.1, dur=0.05)
        log.add("iteration", "iteration", ts=0.2, iteration=3)
        assert len(log) == 2
        phases = log.of_kind("phase")
        assert len(phases) == 1 and phases[0].name == "gamma"
        dicts = log.as_dicts()
        assert dicts[1]["data"]["iteration"] == 3


class TestInstrumentation:
    def test_phase_span_feeds_event_and_histogram(self):
        inst = Instrumentation()
        with inst.phase("gamma", iteration=1):
            pass
        events = inst.events.of_kind("phase")
        assert len(events) == 1
        assert events[0].name == "gamma" and events[0].dur >= 0.0
        assert inst.registry.histogram("phase.gamma.seconds").count == 1

    def test_messages_accounting(self):
        inst = Instrumentation()
        inst.messages("forecast", messages=10, bytes=240, rounds=3)
        inst.messages("forecast", messages=5, bytes=120, rounds=2)
        reg = inst.registry
        assert reg.counter("messages_total").value == 15
        assert reg.counter("bytes_total").value == 360
        assert reg.counter("messages.forecast").value == 15
        assert reg.histogram("rounds.forecast").samples == [3.0, 2.0]

    def test_metrics_document_schema(self):
        inst = Instrumentation()
        inst.count("flow_solves")
        inst.gauge("final_utility", 12.5)
        with inst.phase("iteration"):
            pass
        doc = metrics_document(inst, model="m.json")
        assert doc["schema"] == "repro.metrics/1"
        assert doc["context"] == {"model": "m.json"}
        assert doc["counters"]["flow_solves"] == 1.0
        assert doc["gauges"]["final_utility"] == 12.5
        assert "events" in doc
        assert "events" not in metrics_document(inst, include_events=False)

    def test_null_instrumentation_is_inert(self):
        inst = NULL_INSTRUMENTATION
        assert inst.enabled is False
        assert inst.phase("x") is NULL_SPAN
        with inst.phase("x"):
            pass
        inst.iteration(1, cost=2.0)
        inst.messages("p", messages=1, bytes=8, rounds=1)
        inst.count("c")
        inst.gauge("g", 1.0)
        inst.event("e")
        assert inst.registry is None and inst.events is None


class TestExporters:
    def test_metrics_json_round_trips(self, tmp_path):
        inst = Instrumentation()
        inst.count("flow_solves", 3)
        inst.gauge("np_scalar", np.float64(1.5))
        path = tmp_path / "m.json"
        write_metrics_json(inst, path, run="test")
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro.metrics/1"
        assert doc["counters"]["flow_solves"] == 3.0

    def test_chrome_trace_structure(self, tmp_path):
        inst = Instrumentation()
        with inst.phase("flow_solve"):
            pass
        inst.iteration(0, cost=1.0, utility=np.float64(2.0))
        inst.event("milestone", detail="ok")
        doc = chrome_trace(inst)
        assert "traceEvents" in doc
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in metas)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == 1 and slices[0]["name"] == "flow_solve"
        assert slices[0]["dur"] >= 0.0  # microseconds
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert all(e["s"] == "t" for e in instants)
        # file form must be parseable JSON (numpy payloads coerced)
        path = tmp_path / "t.json"
        write_chrome_trace(inst, path)
        assert json.loads(path.read_text())["traceEvents"]


class TestOverheadContract:
    """Instrumentation is read-only: same work, same numbers, bit for bit."""

    def _count_solves(self, monkeypatch):
        from repro.core.state import ModelState

        calls = {"n": 0}
        real = ModelState.forward_sweep

        def counting(state, phi):
            calls["n"] += 1
            return real(state, phi)

        # every flow solve -- the engine's and solve_traffic's -- is one
        # forward sweep
        monkeypatch.setattr(ModelState, "forward_sweep", counting)
        return calls

    def test_no_extra_flow_solves_when_enabled(self, diamond_ext, monkeypatch):
        calls = self._count_solves(monkeypatch)
        config = GradientConfig(
            eta=1e-6, max_iterations=7, tolerance=0.0, patience=10**9
        )
        GradientAlgorithm(diamond_ext, config).run()
        bare = calls["n"]

        calls["n"] = 0
        inst = Instrumentation()
        GradientAlgorithm(diamond_ext, config).run(instrumentation=inst)
        assert calls["n"] == bare
        assert inst.registry.counter("flow_solves").value == bare

    def test_iterates_bit_identical_with_instrumentation(self, diamond_ext):
        config = GradientConfig(eta=0.05, max_iterations=40)
        bare = GradientAlgorithm(diamond_ext, config).run()
        instrumented = GradientAlgorithm(diamond_ext, config).run(
            instrumentation=Instrumentation()
        )
        assert np.array_equal(
            bare.solution.routing.phi, instrumented.solution.routing.phi
        )
        assert bare.solution.utility == instrumented.solution.utility
