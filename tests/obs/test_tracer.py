"""Tracer and Telemetry behavior under a deterministic manual clock."""

import sys
import threading

import pytest

from repro.obs.metrics import NOOP_COUNTER, NOOP_GAUGE, NOOP_HISTOGRAM
from repro.obs.telemetry import NOOP, Telemetry
from repro.obs.tracer import NOOP_SPAN, Tracer
from repro.service.clock import ManualClock


@pytest.fixture()
def clock():
    return ManualClock(1_000.0)


@pytest.fixture()
def telemetry(clock):
    return Telemetry(clock=clock)


class TestSpans:
    def test_span_duration_is_exact_under_a_manual_clock(
        self, telemetry, clock
    ):
        with telemetry.span("op.query") as span:
            clock.advance(2.5)  # ms
        assert span.duration_us == 2_500.0
        assert telemetry.histogram("span.op.query").count == 1
        assert telemetry.histogram("span.op.query").quantile(
            0.5
        ) == pytest.approx(2_500.0, rel=0.02)

    def test_spans_nest_into_a_tree(self, telemetry, clock):
        with telemetry.span("outer") as outer:
            clock.advance(1.0)
            with telemetry.span("inner") as inner:
                clock.advance(1.0)
            clock.advance(1.0)
        assert outer.children == [inner]
        assert inner.children == []
        assert outer.duration_us == 3_000.0
        assert inner.duration_us == 1_000.0
        tree = outer.to_dict()
        assert tree["name"] == "outer"
        assert tree["children"][0]["name"] == "inner"

    def test_span_stacks_are_per_thread(self, telemetry, clock):
        # A span opened on another thread must not become a child of
        # this thread's active span.
        with telemetry.span("main-root") as root:
            worker_spans = []

            def work():
                with telemetry.span("worker-root") as span:
                    worker_spans.append(span)

            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        assert worker_spans[0] not in root.children
        assert telemetry.histogram("span.main-root").count == 1
        assert telemetry.histogram("span.worker-root").count == 1

    def test_span_closes_even_when_the_body_raises(self, telemetry, clock):
        with pytest.raises(RuntimeError):
            with telemetry.span("fails"):
                clock.advance(1.0)
                raise RuntimeError("boom")
        assert telemetry.histogram("span.fails").count == 1

    def test_each_span_name_looks_its_histogram_up_once(self, clock):
        made = []

        def factory(name):
            made.append(name)
            return Telemetry(clock=clock).histogram(name)

        tracer = Tracer(clock, factory)
        for _ in range(3):
            for name in ("a", "b"):
                with tracer.span(name):
                    clock.advance(1.0)
        assert made == ["span.a", "span.b"]

    def test_first_spans_of_a_name_on_many_threads_all_count(
        self, telemetry
    ):
        """Threads racing on names no span has used yet: every duration
        lands in the one histogram the telemetry holds for the name."""
        threads, per_thread = 6, 2_000
        start = threading.Barrier(threads)

        def work():
            start.wait()
            for i in range(per_thread):
                with telemetry.span(f"race.{i % 7}"):
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        counts = telemetry.snapshot()["histograms"]
        assert sum(
            counts[f"span.race.{k}"]["count"] for k in range(7)
        ) == threads * per_thread


class TestTelemetryRegistry:
    def test_instruments_are_cached_by_name(self, telemetry):
        assert telemetry.counter("a") is telemetry.counter("a")
        assert telemetry.gauge("g") is telemetry.gauge("g")
        assert telemetry.histogram("h") is telemetry.histogram("h")

    def test_snapshot_schema(self, telemetry, clock):
        telemetry.counter("reqs").inc(3)
        telemetry.gauge("depth").set(7.0)
        with telemetry.span("op"):
            clock.advance(1.0)
        snap = telemetry.snapshot()
        assert snap["enabled"] is True
        assert snap["counters"] == {"reqs": 3}
        assert snap["gauges"] == {"depth": 7.0}
        entry = snap["histograms"]["span.op"]
        assert entry["unit"] == "us"
        assert entry["count"] == 1
        assert entry["p50"] == pytest.approx(1_000.0, rel=0.02)

    def test_empty_histogram_snapshot_has_no_infinities(self, telemetry):
        telemetry.histogram("quiet")
        entry = telemetry.snapshot()["histograms"]["quiet"]
        assert entry == {"unit": "us", "count": 0}


class TestDisabledTelemetry:
    def test_noop_hands_out_shared_noop_instruments(self):
        assert NOOP.enabled is False
        assert NOOP.counter("x") is NOOP_COUNTER
        assert NOOP.gauge("x") is NOOP_GAUGE
        assert NOOP.histogram("x") is NOOP_HISTOGRAM
        assert NOOP.span("x") is NOOP_SPAN
        assert NOOP.tracer is None
        assert NOOP.clock is None

    def test_disabled_snapshot_is_empty(self):
        NOOP.counter("x").inc()
        snap = NOOP.snapshot()
        assert snap == {
            "enabled": False,
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_noop_span_is_a_working_context_manager(self):
        with NOOP.span("anything") as span:
            pass
        assert span.duration_us == 0.0

    def test_default_enabled_telemetry_uses_a_monotonic_clock(self):
        from repro.service.clock import MonotonicClock

        telemetry = Telemetry()
        assert isinstance(telemetry.clock, MonotonicClock)
        with telemetry.span("real"):
            pass
        assert telemetry.histogram("span.real").count == 1
