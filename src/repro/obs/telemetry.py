"""The `Telemetry` container: one handle to all instruments.

Every instrumented layer takes an optional ``telemetry`` argument.  Pass
a shared :class:`Telemetry` to collect; pass :data:`NOOP` (or construct
with ``enabled=False``) to turn the whole layer into no-ops.  Either
way the server's instrument calls are per batch, never per value
(pinned by ``tests/obs/test_call_counts.py``).

Instruments are created lazily on first use and then cached by name, so
``telemetry.counter("server.shed_requests").inc()`` is cheap at steady
state.  The clock is injectable for deterministic tests (a
:class:`~repro.service.clock.ManualClock` makes span durations exact);
production defaults to :class:`~repro.service.clock.MonotonicClock`,
which is immune to wall-clock adjustments.

Import-cycle note: ``repro.obs`` is imported by ``repro.service``
modules, so this module must not import ``repro.service`` at top level.
The clock classes are pulled in lazily, and only when telemetry is
actually enabled — the :data:`NOOP` singleton never touches them.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Optional, Union

from repro.obs.metrics import (
    NOOP_COUNTER,
    NOOP_GAUGE,
    NOOP_HISTOGRAM,
    Counter,
    Gauge,
    LatencyHistogram,
    NoopCounter,
    NoopGauge,
    NoopHistogram,
)
from repro.obs.tracer import NOOP_SPAN, Span, Tracer, _NoopSpan

if TYPE_CHECKING:
    from repro.service.clock import Clock


class Telemetry:
    """Named registry of counters, gauges, latency histograms and spans.

    Thread-safe: instruments may be created and updated from the
    server's handler threads, the drain thread, and ingest workers
    concurrently.  Snapshots (:meth:`snapshot`) are plain dicts fit for
    the canonical-JSON and Prometheus exporters in
    :mod:`repro.obs.export`.
    """

    def __init__(
        self,
        clock: Optional["Clock"] = None,
        enabled: bool = True,
    ) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, LatencyHistogram] = {}
        self._tracer: Optional[Tracer] = None
        self._clock: Optional["Clock"] = None
        if enabled:
            if clock is None:
                # Deferred import: repro.service imports repro.obs, so a
                # top-level import here would be circular.
                from repro.service.clock import MonotonicClock

                clock = MonotonicClock()
            self._clock = clock
            self._tracer = Tracer(clock, self.histogram)

    @property
    def clock(self) -> Optional["Clock"]:
        """The clock timings flow through (``None`` when disabled)."""
        return self._clock

    def counter(self, name: str) -> Union[Counter, NoopCounter]:
        if not self.enabled:
            return NOOP_COUNTER
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Union[Gauge, NoopGauge]:
        if not self.enabled:
            return NOOP_GAUGE
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(self, name: str) -> Union[LatencyHistogram, NoopHistogram]:
        if not self.enabled:
            return NOOP_HISTOGRAM
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = LatencyHistogram(name)
            return instrument

    def span(self, name: str) -> Union[Span, _NoopSpan]:
        """A context manager timing one unit of work (see ``Tracer``)."""
        if self._tracer is None:
            return NOOP_SPAN
        return self._tracer.span(name)

    @property
    def tracer(self) -> Optional[Tracer]:
        return self._tracer

    def snapshot(self) -> dict:
        """Point-in-time plain-data view of every instrument.

        Schema::

            {"enabled": bool,
             "counters": {name: int},
             "gauges": {name: float},
             "histograms": {name: {"count": n, "unit": "us",
                                   "min": ..., "max": ...,
                                   "p50": ..., "p90": ..., "p99": ...}}}

        Empty histograms report only their count, so a snapshot never
        contains non-finite floats and always survives canonical-JSON
        encoding.
        """
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        snap: dict = {
            "enabled": self.enabled,
            "counters": {c.name: c.value for c in counters},
            "gauges": {g.name: g.value for g in gauges},
            "histograms": {},
        }
        for histogram in histograms:
            entry: dict = {"unit": "us"}
            entry.update(histogram.summary())
            snap["histograms"][histogram.name] = entry
        return snap


#: Shared disabled instance: every instrument it hands out is a no-op.
NOOP = Telemetry(enabled=False)
