"""Nested spans with monotonic timing.

A :class:`Tracer` hands out :class:`Span` context managers.  Spans nest
per-thread (a thread-local stack), so the server's ``server.op.ingest``
span can contain a ``store.record_batch`` child and the trace tree
reflects the real call structure.  Timing always goes through the
injected :class:`~repro.service.clock.Clock`, never a direct read of
the ``time`` module; the OBS001 analysis rule enforces that discipline
across all of ``repro``.

On exit every span feeds its duration (microseconds) into a
:class:`~repro.obs.metrics.LatencyHistogram` named ``span.<name>``, so
percentile latency per operation is always available from the same
snapshot that carries counters and gauges.  The tracer looks each
name's histogram up once, so an exit costs a clock read and an append.
A finished span is kept only by its caller and its parent's
``children``; the tracer retains none.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.obs.metrics import LatencyHistogram
    from repro.service.clock import Clock


class Span:
    """One timed, possibly nested, unit of work.

    Use as a context manager::

        with tracer.span("server.op.quantile"):
            ...

    ``duration_us`` is only meaningful after the span has closed.
    """

    __slots__ = ("name", "start_ms", "end_ms", "children", "_tracer")

    def __init__(self, name: str, tracer: "Tracer") -> None:
        self.name = name
        self._tracer = tracer
        self.start_ms = 0.0
        self.end_ms = 0.0
        self.children: list["Span"] = []

    @property
    def duration_us(self) -> float:
        return (self.end_ms - self.start_ms) * 1000.0

    def __enter__(self) -> "Span":
        self._tracer._enter(self)
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self._tracer._exit(self)

    def to_dict(self) -> dict:
        """Plain-data rendering of this span subtree."""
        return {
            "name": self.name,
            "duration_us": self.duration_us,
            "children": [child.to_dict() for child in self.children],
        }


class _Stacks(threading.local):
    """Each thread's stack of open spans, innermost last."""

    def __init__(self) -> None:
        self.stack: list[Span] = []


class Tracer:
    """Produces nested spans and records their durations.

    *histogram_factory* maps a histogram name to the latency histogram
    a duration lands in; :class:`~repro.obs.telemetry.Telemetry` wires
    in its own ``histogram``, called once per span name with
    ``"span." + name``, so span timings and manual histograms live in
    one namespace.
    """

    def __init__(
        self,
        clock: "Clock",
        histogram_factory: Callable[[str], "LatencyHistogram"],
    ) -> None:
        self._clock = clock
        self._histogram_factory = histogram_factory
        # span name -> its histogram; a racing first lookup stores the
        # factory's one instance twice
        self._histograms: dict[str, "LatencyHistogram"] = {}
        self._local = _Stacks()

    def span(self, name: str) -> Span:
        return Span(name, self)

    # -- span lifecycle (called by Span.__enter__/__exit__) ------------

    def _enter(self, span: Span) -> None:
        stack = self._local.stack
        if stack:
            stack[-1].children.append(span)
        stack.append(span)
        span.start_ms = self._clock.now_ms()

    def _exit(self, span: Span) -> None:
        span.end_ms = self._clock.now_ms()
        stack = self._local.stack
        if stack and stack[-1] is span:
            stack.pop()
        histogram = self._histograms.get(span.name)
        if histogram is None:
            histogram = self._histograms[span.name] = (
                self._histogram_factory("span." + span.name)
            )
        histogram.record_us((span.end_ms - span.start_ms) * 1000.0)


class _NoopSpan:
    """Span stand-in for disabled telemetry: enters, exits, times nothing."""

    __slots__ = ()
    name = "noop"
    duration_us = 0.0
    children: list = []

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        pass

    def to_dict(self) -> dict:
        return {"name": "noop", "duration_us": 0.0, "children": []}


NOOP_SPAN = _NoopSpan()
