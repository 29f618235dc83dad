"""The miniature stream-processing engine ("mini-Flink").

This is the substrate standing in for Apache Flink in the paper's
accuracy experiments.  It reproduces exactly the semantics those
experiments depend on:

* events are processed in **arrival order** but windowed by **event
  time** (Sec 2.5);
* a watermark strategy declares event-time progress; a window fires
  once the watermark passes its end (plus any allowed lateness);
* events belonging to an already-fired window are **dropped and
  counted** — the paper's late-data policy (Sec 2.6).

Two execution paths are provided with identical semantics (and a test
asserting so): a general per-event pipeline supporting map/filter/keyed
streams and all window types, and :func:`run_tumbling_batch`, a
vectorised executor for the tumbling-window case every experiment uses.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Iterator

import numpy as np

from repro.data.streams import EventBatch
from repro.errors import PipelineError
from repro.obs.telemetry import NOOP, Telemetry
from repro.streaming.events import Event, events_from_batch
from repro.streaming.operators import AggregateFunction
from repro.streaming.time import (
    AscendingTimestampsWatermarks,
    WatermarkStrategy,
)
from repro.streaming.windows import (
    SessionWindows,
    WindowAssigner,
    WindowSpan,
)


@dataclass(frozen=True)
class WindowResult:
    """One fired window pane."""

    key: Hashable
    window: WindowSpan
    result: Any
    event_count: int


@dataclass
class ExecutionReport:
    """Everything a windowed execution produced.

    ``dropped_late`` counts events discarded because their window had
    already fired — the quantity the Sec 4.6 experiment manipulates.
    """

    results: list[WindowResult] = field(default_factory=list)
    total_events: int = 0
    dropped_late: int = 0
    late_events: list[Event] = field(default_factory=list)

    @property
    def loss_fraction(self) -> float:
        """Fraction of all events dropped as late."""
        if self.total_events == 0:
            return 0.0
        return self.dropped_late / self.total_events


class StreamEnvironment:
    """Entry point building :class:`DataStream` pipelines."""

    def from_events(self, events: Iterable[Event]) -> "DataStream":
        return DataStream(lambda: iter(events))

    def from_batch(
        self, batch: EventBatch, key: Hashable = None
    ) -> "DataStream":
        return DataStream(lambda: events_from_batch(batch, key))


class DataStream:
    """A lazily-transformed stream of events."""

    def __init__(self, source: Callable[[], Iterator[Event]]) -> None:
        self._source = source

    def __iter__(self) -> Iterator[Event]:
        return self._source()

    def map(self, fn: Callable[[Event], Event]) -> "DataStream":
        """Transform each event (must return an :class:`Event`)."""
        source = self._source
        return DataStream(lambda: map(fn, source()))

    def map_values(self, fn: Callable[[float], float]) -> "DataStream":
        """Transform only the value, keeping timestamps and key."""
        source = self._source
        return DataStream(
            lambda: (
                Event(fn(e.value), e.event_time, e.arrival_time, e.key)
                for e in source()
            )
        )

    def filter(self, predicate: Callable[[Event], bool]) -> "DataStream":
        source = self._source
        return DataStream(lambda: filter(predicate, source()))

    def union(self, other: "DataStream") -> "DataStream":
        """Interleave two streams by arrival time (merged source)."""
        source_a, source_b = self._source, other._source
        return DataStream(
            lambda: iter(
                sorted(
                    itertools.chain(source_a(), source_b()),
                    key=lambda e: e.arrival_time,
                )
            )
        )

    def key_by(self, key_fn: Callable[[Event], Hashable]) -> "KeyedStream":
        source = self._source
        return KeyedStream(
            lambda: (e.with_key(key_fn(e)) for e in source())
        )

    def window(self, assigner: WindowAssigner) -> "WindowedStream":
        return WindowedStream(self._source, assigner)

    def count_window(self, size: int) -> "CountWindowedStream":
        """Sequence-based windows of *size* events per key (Sec 2.5:
        "a sequence-based window of length 10 would group the next 10
        events")."""
        return CountWindowedStream(self._source, size)


class KeyedStream(DataStream):
    """A stream whose events carry partition keys."""

    def window(self, assigner: WindowAssigner) -> "WindowedStream":
        return WindowedStream(self._source, assigner)

    def count_window(self, size: int) -> "CountWindowedStream":
        return CountWindowedStream(self._source, size)


class WindowedStream:
    """A windowed stream awaiting an aggregate function."""

    def __init__(
        self,
        source: Callable[[], Iterator[Event]],
        assigner: WindowAssigner,
    ) -> None:
        self._source = source
        self._assigner = assigner

    def aggregate(
        self,
        aggregator: AggregateFunction,
        watermarks: WatermarkStrategy | None = None,
        allowed_lateness_ms: float = 0.0,
        collect_late: bool = False,
        time_characteristic: str = "event",
        *,
        telemetry: Telemetry | None = None,
    ) -> ExecutionReport:
        """Run the pipeline and fire every window.

        A pane fires once the watermark passes ``window.end +
        allowed_lateness_ms``; the single firing includes any late
        events that arrived within the lateness horizon (equivalent to
        Flink's final updated emission).  Later events for that window
        are dropped into ``report.dropped_late``.  The run advances a
        :meth:`~WatermarkStrategy.fresh` copy of *watermarks*, never the
        caller's object.

        *time_characteristic* selects the Sec 2.5 grouping semantics:
        ``"event"`` groups by generation time (the paper's choice, and
        the only mode in which late events exist); ``"ingestion"``
        groups by arrival time, which is trivially in order, so nothing
        is ever late — but windows no longer reflect when events
        actually happened.

        *telemetry* (keyword-only) is an optional :mod:`repro.obs`
        sink: each pane firing is timed under the
        ``streaming.window_emit`` span and counted in
        ``streaming.windows_emitted``.
        """
        if aggregator is None:
            raise PipelineError("window aggregation needs an aggregator")
        if time_characteristic not in ("event", "ingestion"):
            raise PipelineError(
                f"unknown time characteristic {time_characteristic!r}; "
                f"expected 'event' or 'ingestion'"
            )
        use_ingestion = time_characteristic == "ingestion"
        telemetry = telemetry if telemetry is not None else NOOP
        watermarks = (watermarks or AscendingTimestampsWatermarks()).fresh()
        merging = isinstance(self._assigner, SessionWindows)
        report = ExecutionReport()
        panes: dict[tuple[Hashable, WindowSpan], Any] = {}
        counts: dict[tuple[Hashable, WindowSpan], int] = {}
        heap: list[tuple[float, int, Hashable, WindowSpan]] = []
        seq = itertools.count()

        def open_pane(key: Hashable, window: WindowSpan) -> None:
            panes[(key, window)] = aggregator.create_accumulator()
            counts[(key, window)] = 0
            heapq.heappush(
                heap,
                (window.end + allowed_lateness_ms, next(seq), key, window),
            )

        def fire_ready(watermark: float) -> None:
            while heap and heap[0][0] <= watermark:
                _fire_time, _seq, key, window = heapq.heappop(heap)
                self._emit(
                    report, panes, counts, aggregator, key, window,
                    telemetry,
                )

        for event in self._source():
            report.total_events += 1
            timestamp = (
                event.arrival_time if use_ingestion else event.event_time
            )
            watermark_before = watermarks.current_watermark
            assigned = self._assigner.assign(timestamp)
            for window in assigned:
                if window.end + allowed_lateness_ms <= watermark_before:
                    report.dropped_late += 1
                    if collect_late:
                        report.late_events.append(event)
                    continue
                if merging:
                    window = self._merge_sessions(
                        panes, counts, heap, seq, aggregator,
                        event.key, window, allowed_lateness_ms,
                    )
                if (event.key, window) not in panes:
                    open_pane(event.key, window)
                panes[(event.key, window)] = aggregator.add(
                    panes[(event.key, window)], event.value
                )
                counts[(event.key, window)] += 1
            fire_ready(watermarks.on_event(timestamp))

        # End of stream: flush everything still open, in end-time order.
        while heap:
            _fire_time, _seq, key, window = heapq.heappop(heap)
            self._emit(
                report, panes, counts, aggregator, key, window, telemetry
            )
        return report

    def _emit(
        self,
        report: ExecutionReport,
        panes: dict,
        counts: dict,
        aggregator: AggregateFunction,
        key: Hashable,
        window: WindowSpan,
        telemetry: Telemetry = NOOP,
    ) -> None:
        accumulator = panes.pop((key, window), None)
        if accumulator is None:  # stale heap entry from session merging
            return
        with telemetry.span("streaming.window_emit"):
            result = aggregator.get_result(accumulator)
        telemetry.counter("streaming.windows_emitted").inc()
        report.results.append(
            WindowResult(
                key=key,
                window=window,
                result=result,
                event_count=counts.pop((key, window)),
            )
        )

    def _merge_sessions(
        self,
        panes: dict,
        counts: dict,
        heap: list,
        seq: Iterator[int],
        aggregator: AggregateFunction,
        key: Hashable,
        window: WindowSpan,
        allowed_lateness_ms: float,
    ) -> WindowSpan:
        """Merge *window* with any open session it touches for *key*."""
        touching = [
            (k, w)
            for (k, w) in panes
            if k == key and w.intersects(window)
        ]
        if not touching:
            return window
        merged_span = window
        merged_acc = aggregator.create_accumulator()
        merged_count = 0
        for k, w in touching:
            merged_span = merged_span.cover(w)
            merged_acc = aggregator.merge(merged_acc, panes.pop((k, w)))
            merged_count += counts.pop((k, w))
        panes[(key, merged_span)] = merged_acc
        counts[(key, merged_span)] = merged_count
        heapq.heappush(
            heap,
            (merged_span.end + allowed_lateness_ms, next(seq), key,
             merged_span),
        )
        return merged_span


class CountWindowedStream:
    """Sequence-based tumbling windows: every *size* arrivals of a key
    form one group, independent of time.

    There is no lateness in sequence windows — every event extends its
    key's current group — so the report's ``dropped_late`` is always 0.
    The emitted ``WindowSpan`` carries *sequence* coordinates: window
    ``i`` of a key spans ``[i * size, (i + 1) * size)``.
    """

    def __init__(
        self, source: Callable[[], Iterator[Event]], size: int
    ) -> None:
        if size < 1:
            raise PipelineError(
                f"count window size must be >= 1, got {size!r}"
            )
        self._source = source
        self._size = int(size)

    def aggregate(self, aggregator: AggregateFunction) -> ExecutionReport:
        if aggregator is None:
            raise PipelineError("window aggregation needs an aggregator")
        report = ExecutionReport()
        panes: dict[Hashable, Any] = {}
        counts: dict[Hashable, int] = {}
        emitted: dict[Hashable, int] = {}

        def emit(key: Hashable) -> None:
            index = emitted.get(key, 0)
            span = WindowSpan(
                float(index * self._size),
                float((index + 1) * self._size),
            )
            report.results.append(
                WindowResult(
                    key=key,
                    window=span,
                    result=aggregator.get_result(panes.pop(key)),
                    event_count=counts.pop(key),
                )
            )
            emitted[key] = index + 1

        for event in self._source():
            report.total_events += 1
            key = event.key
            if key not in panes:
                panes[key] = aggregator.create_accumulator()
                counts[key] = 0
            panes[key] = aggregator.add(panes[key], event.value)
            counts[key] += 1
            if counts[key] == self._size:
                emit(key)
        # Flush partial trailing windows.
        for key in list(panes):
            emit(key)
        return report


def tumbling_assignment(
    batch: EventBatch,
    window_size_ms: float,
    out_of_orderness_ms: float = 0.0,
    allowed_lateness_ms: float = 0.0,
) -> tuple[EventBatch, np.ndarray, np.ndarray]:
    """Window assignment + late-drop decision for a tumbling execution.

    Returns ``(ordered, window_ids, late)``: the batch replayed in
    arrival order, each event's tumbling window id, and the boolean
    late mask (watermark had passed the window's end plus lateness
    before the event arrived).  Every tumbling executor — sequential,
    sharded-parallel, ground-truth — derives its drop policy from this
    one function, which is what makes their drop counts identical by
    construction.
    """
    ordered = batch.in_arrival_order()
    event_times = ordered.event_times
    if event_times.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return ordered, empty, np.zeros(0, dtype=bool)
    running_max = np.maximum.accumulate(event_times)
    watermark_before = np.concatenate(([-np.inf], running_max[:-1]))
    watermark_before = watermark_before - out_of_orderness_ms
    window_ids = np.floor(event_times / window_size_ms).astype(np.int64)
    window_ends = (window_ids + 1) * window_size_ms
    late = watermark_before >= window_ends + allowed_lateness_ms
    return ordered, window_ids, late


def run_tumbling_batch(
    batch: EventBatch,
    window_size_ms: float,
    aggregator: AggregateFunction,
    out_of_orderness_ms: float = 0.0,
    allowed_lateness_ms: float = 0.0,
    parallelism: int = 1,
    *,
    telemetry: Telemetry | None = None,
) -> ExecutionReport:
    """Vectorised tumbling-window execution of a column batch.

    Semantics match :meth:`WindowedStream.aggregate` with a
    :class:`BoundedOutOfOrdernessWatermarks` strategy (bound 0 =
    ascending watermarks): events are replayed in arrival order, the
    watermark is the running maximum event time minus the bound, and an
    event is late iff the watermark had already passed its window's end
    plus the allowed lateness *before* the event arrived.

    This is the executor the accuracy experiments use: the late/kept
    decision and window assignment are pure numpy, and each window's
    surviving values are fed to the aggregator with one
    ``add_batch`` call.

    *parallelism* > 1 models Flink's partitioned execution: each
    window's events are scattered round-robin over that many task-local
    accumulators, which are merged when the window fires.  This is
    exactly the distributed pattern mergeability (Sec 2.4) exists for;
    results are identical for order-insensitive aggregators and
    statistically equivalent for the randomized sketches.
    """
    telemetry = telemetry if telemetry is not None else NOOP
    ordered, window_ids, late = tumbling_assignment(
        batch, window_size_ms, out_of_orderness_ms, allowed_lateness_ms
    )
    n = ordered.event_times.size
    report = ExecutionReport(total_events=int(n))
    if n == 0:
        return report
    report.dropped_late = int(late.sum())
    if late.all():
        return report

    if parallelism < 1:
        raise PipelineError(
            f"parallelism must be >= 1, got {parallelism!r}"
        )
    kept_values = ordered.values[~late]
    kept_ids = window_ids[~late]
    for window_id in np.unique(kept_ids):
        values = kept_values[kept_ids == window_id]
        # The span times one full pane firing — aggregate + result —
        # landing in the "span.streaming.window_emit" histogram.
        with telemetry.span("streaming.window_emit"):
            if parallelism == 1:
                accumulator = aggregator.create_accumulator()
                accumulator = aggregator.add_batch(accumulator, values)
            else:
                # Scatter over task-local accumulators, then merge — the
                # partition/pre-aggregate/combine plan of a parallel SPE.
                partials = []
                for task in range(parallelism):
                    partial = aggregator.create_accumulator()
                    partial = aggregator.add_batch(
                        partial, values[task::parallelism]
                    )
                    partials.append(partial)
                accumulator = partials[0]
                for partial in partials[1:]:
                    accumulator = aggregator.merge(accumulator, partial)
            result = aggregator.get_result(accumulator)
        telemetry.counter("streaming.windows_emitted").inc()
        span = WindowSpan(
            float(window_id) * window_size_ms,
            float(window_id + 1) * window_size_ms,
        )
        report.results.append(
            WindowResult(
                key=None,
                window=span,
                result=result,
                event_count=int(values.size),
            )
        )
    report.results.sort(key=lambda r: r.window.start)
    return report


def run_sliding_batch(
    batch: EventBatch,
    window_size_ms: float,
    slide_ms: float,
    aggregator: AggregateFunction,
    out_of_orderness_ms: float = 0.0,
) -> ExecutionReport:
    """Pane-sliced sliding-window execution (stream slicing).

    Sliding windows overlap, so naive execution adds every event to
    ``size / slide`` separate accumulators.  Mergeable aggregators
    enable *slicing*: each event lands in exactly one ``slide_ms`` pane
    and each window's result is the merge of its ``size / slide``
    panes — the optimisation that makes mergeability (Sec 2.4) matter
    even inside a single machine.

    Requires ``window_size_ms`` to be a multiple of ``slide_ms``.  Late
    events are dropped against their *pane* (the earliest window end
    that covers them), a slightly conservative variant of per-window
    dropping; on in-order streams the two coincide exactly.
    """
    if slide_ms <= 0 or window_size_ms <= 0:
        raise PipelineError(
            f"size and slide must be positive, got "
            f"{window_size_ms!r}/{slide_ms!r}"
        )
    panes_per_window = window_size_ms / slide_ms
    if abs(panes_per_window - round(panes_per_window)) > 1e-9:
        raise PipelineError(
            "window_size_ms must be a multiple of slide_ms for pane "
            "slicing"
        )
    panes_per_window = int(round(panes_per_window))

    ordered = batch.in_arrival_order()
    event_times = ordered.event_times
    n = event_times.size
    report = ExecutionReport(total_events=int(n))
    if n == 0:
        return report

    running_max = np.maximum.accumulate(event_times)
    watermark_before = np.concatenate(([-np.inf], running_max[:-1]))
    watermark_before = watermark_before - out_of_orderness_ms
    pane_ids = np.floor(event_times / slide_ms).astype(np.int64)
    pane_ends = (pane_ids + 1) * slide_ms
    late = watermark_before >= pane_ends
    report.dropped_late = int(late.sum())
    if late.all():
        return report

    kept_values = ordered.values[~late]
    kept_ids = pane_ids[~late]
    panes: dict[int, Any] = {}
    pane_counts: dict[int, int] = {}
    for pane_id in np.unique(kept_ids):
        values = kept_values[kept_ids == pane_id]
        accumulator = aggregator.create_accumulator()
        panes[int(pane_id)] = aggregator.add_batch(accumulator, values)
        pane_counts[int(pane_id)] = int(values.size)

    first_pane = min(panes)
    last_pane = max(panes)
    # Every window overlapping a non-empty pane fires.
    for start_pane in range(
        first_pane - panes_per_window + 1, last_pane + 1
    ):
        member_panes = [
            p for p in range(start_pane, start_pane + panes_per_window)
            if p in panes
        ]
        if not member_panes:
            continue
        merged = aggregator.create_accumulator()
        for pane_id in member_panes:
            merged = aggregator.merge(merged, panes[pane_id])
        span = WindowSpan(
            start_pane * slide_ms,
            start_pane * slide_ms + window_size_ms,
        )
        report.results.append(
            WindowResult(
                key=None,
                window=span,
                result=aggregator.get_result(merged),
                event_count=sum(pane_counts[p] for p in member_panes),
            )
        )
    report.results.sort(key=lambda r: r.window.start)
    return report


def window_values(
    batch: EventBatch,
    window_size_ms: float,
    out_of_orderness_ms: float = 0.0,
    allowed_lateness_ms: float = 0.0,
) -> dict[WindowSpan, np.ndarray]:
    """The surviving raw values of each tumbling window.

    Companion to :func:`run_tumbling_batch` used to compute ground-truth
    quantiles per window under the *same* late-drop policy.
    """
    ordered, window_ids, late = tumbling_assignment(
        batch, window_size_ms, out_of_orderness_ms, allowed_lateness_ms
    )
    if ordered.event_times.size == 0:
        return {}
    kept_values = ordered.values[~late]
    kept_ids = window_ids[~late]
    out: dict[WindowSpan, np.ndarray] = {}
    for window_id in np.unique(kept_ids):
        span = WindowSpan(
            float(window_id) * window_size_ms,
            float(window_id + 1) * window_size_ms,
        )
        out[span] = np.sort(kept_values[kept_ids == window_id])
    return out
