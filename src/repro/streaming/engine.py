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

There is one executor, :meth:`WindowedStream.aggregate`, and it works by
column: which events land in which window, which are dropped late and
the order values reach the aggregator are functions of the stream's
timestamps alone, so they are computed on arrays and each pane is
folded by a single ``add_batch``.  :func:`run_tumbling_batch` names the
tumbling pipeline every experiment runs; it is not a second executor.
:func:`tumbling_assignment` and :func:`window_values` are the
independent reference the engine is checked against and never calls.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Iterable, Iterator

import numpy as np

from repro.data.streams import EventBatch
from repro.errors import PipelineError
from repro.obs.telemetry import NOOP, Telemetry
from repro.streaming.events import Event, EventColumns, events_from_batch
from repro.streaming.operators import AggregateFunction
from repro.streaming.time import (
    AscendingTimestampsWatermarks,
    BoundedOutOfOrdernessWatermarks,
    WatermarkStrategy,
)
from repro.streaming.windows import (
    SessionWindows,
    TumblingEventTimeWindows,
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
        return DataStream(
            lambda: events_from_batch(batch, key),
            lambda: EventColumns.from_batch(batch, key),
        )


class DataStream:
    """A lazily-transformed stream of events.

    *source* yields it as :class:`Event` objects for the transformations
    and their callbacks; *columns* yields it as :class:`EventColumns`
    for the window executor — one pass over *source*, unless the stream
    is an untransformed batch whose arrays serve as they are.
    """

    def __init__(
        self,
        source: Callable[[], Iterator[Event]],
        columns: Callable[[], EventColumns] | None = None,
    ) -> None:
        self._source = source
        self._columns = columns or (
            lambda: EventColumns.from_events(source())
        )

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
        return WindowedStream(self._columns, assigner)

    def count_window(self, size: int) -> "CountWindowedStream":
        """Sequence-based windows of *size* events per key (Sec 2.5:
        "a sequence-based window of length 10 would group the next 10
        events")."""
        return CountWindowedStream(self._columns, size)


class KeyedStream(DataStream):
    """A stream whose events carry partition keys."""


class WindowedStream:
    """A windowed stream awaiting an aggregate function."""

    def __init__(
        self,
        columns: Callable[[], EventColumns],
        assigner: WindowAssigner,
    ) -> None:
        self._columns = columns
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
        allowed_lateness_ms`` (the rest at end of stream); the single
        firing includes any late events that arrived within the
        lateness horizon (equivalent to Flink's final updated
        emission).  An event none of whose windows accepts it — each had
        already fired by the watermark the event met on arrival — is
        dropped, once, into ``report.dropped_late``; one that is late
        for some of its sliding windows and kept by others is not a drop.
        *watermarks* is only read, never advanced, so one strategy
        object can configure any number of runs.

        ``report.results`` is in firing order: ascending ``end +
        allowed_lateness_ms``, ties by the arrival position of the
        pane's first event.  A pane's surviving values reach the
        aggregator in arrival order, as one ``add_batch``.

        *time_characteristic* selects the Sec 2.5 grouping semantics:
        ``"event"`` groups by generation time (the paper's choice, and
        the only mode in which late events exist); ``"ingestion"``
        groups by arrival time, which is trivially in order, so nothing
        is ever late — but windows no longer reflect when events
        actually happened.

        *telemetry* (keyword-only) is an optional :mod:`repro.obs`
        sink: each pane firing — fold and result — is timed under the
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
        columns = self._columns()
        times = (
            columns.arrival_times
            if time_characteristic == "ingestion"
            else columns.event_times
        )
        watermarks = watermarks or AscendingTimestampsWatermarks()
        rows, starts, ends = self._assigner.assign_batch(times)
        seen = watermarks.watermarks_before(times)[rows]
        kept = np.flatnonzero(ends + allowed_lateness_ms > seen)
        rows, starts, ends = rows[kept], starts[kept], ends[kept]
        dropped = np.flatnonzero(
            np.bincount(rows, minlength=times.size) == 0
        )
        report = ExecutionReport(
            total_events=int(times.size), dropped_late=int(dropped.size)
        )
        if collect_late:
            report.late_events = list(columns.events(dropped))
        if isinstance(self._assigner, SessionWindows):
            starts, ends = _merge_sessions(
                columns.key_codes[rows], starts, ends,
                seen[kept], allowed_lateness_ms,
            )
        report.results = _fire_panes(
            columns, rows, starts, ends, ends + allowed_lateness_ms,
            aggregator, telemetry if telemetry is not None else NOOP,
        )
        return report


class CountWindowedStream:
    """Sequence-based tumbling windows: every *size* arrivals of a key
    form one group, independent of time.

    There is no lateness in sequence windows — every event extends its
    key's current group — so the report's ``dropped_late`` is always 0.
    The emitted ``WindowSpan`` carries *sequence* coordinates: window
    ``i`` of a key spans ``[i * size, (i + 1) * size)``.  A full window
    fires on the arrival of its last event, the partial trailing ones
    at end of stream.
    """

    def __init__(
        self, columns: Callable[[], EventColumns], size: int
    ) -> None:
        if size < 1:
            raise PipelineError(
                f"count window size must be >= 1, got {size!r}"
            )
        self._columns = columns
        self._size = int(size)

    def aggregate(self, aggregator: AggregateFunction) -> ExecutionReport:
        if aggregator is None:
            raise PipelineError("window aggregation needs an aggregator")
        columns = self._columns()
        codes = columns.key_codes
        rows = np.arange(codes.size)
        # rank: how many events of the same key arrived before this one
        by_key = np.argsort(codes, kind="stable")
        per_key = np.bincount(codes, minlength=len(columns.keys))
        key_offset = np.cumsum(per_key) - per_key
        rank = np.empty_like(rows)
        rank[by_key] = rows - key_offset[codes[by_key]]
        first_rank = rank // self._size * self._size
        last_rank = first_rank + self._size - 1
        full = last_rank < per_key[codes]
        fire_at = np.full(codes.size, np.inf)
        fire_at[full] = by_key[(key_offset[codes] + last_rank)[full]]
        starts = first_rank.astype(np.float64)
        return ExecutionReport(
            total_events=int(codes.size),
            results=_fire_panes(
                columns, rows, starts, starts + self._size, fire_at,
                aggregator, NOOP,
            ),
        )


def _merge_sessions(
    keys: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    seen: np.ndarray,
    allowed_lateness_ms: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Replace each surviving event's proposed session by the merged
    session it ends up in — the one sequential step of a run.

    A proposal joins the sessions of its key that it touches and that
    had not fired by the watermark its event met (*seen*).  Each event
    starts a session absorbing the ones it joins; following
    ``absorbed_by`` backwards gives every event its final span.
    """
    spans: list[WindowSpan] = []
    absorbed_by: list[int] = []
    open_sessions: dict[int, list[int]] = {}
    for event, (key, start, end, watermark) in enumerate(
        zip(keys.tolist(), starts.tolist(), ends.tolist(), seen.tolist())
    ):
        proposal = merged = WindowSpan(start, end)
        still_open = [event]
        for session in open_sessions.get(key, ()):
            span = spans[session]
            if span.end + allowed_lateness_ms <= watermark:
                continue  # fired before this event arrived
            if span.intersects(proposal):
                merged = merged.cover(span)
                absorbed_by[session] = event
            else:
                still_open.append(session)
        spans.append(merged)
        absorbed_by.append(event)
        open_sessions[key] = still_open
    for event in reversed(range(len(spans))):
        spans[event] = spans[absorbed_by[event]]
    merged_spans = np.array(
        [(span.start, span.end) for span in spans], dtype=np.float64
    ).reshape(-1, 2)
    return merged_spans[:, 0], merged_spans[:, 1]


def _fire_panes(
    columns: EventColumns,
    rows: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    fire_at: np.ndarray,
    aggregator: AggregateFunction,
    telemetry: Telemetry,
) -> list[WindowResult]:
    """Group (event, window) pairs into panes and fold each pane; the
    results come back in firing order.

    *rows* (ascending) index *columns*; a pane is the pairs sharing
    ``(key, start, end)``.  The sort is stable, so each pane's values
    stay in arrival order.  Panes fire by ascending *fire_at*, ties by
    the arrival position of the pane's first event.
    """
    keys = columns.key_codes[rows]
    by_pane = np.lexsort((ends, starts, keys))
    rows, keys = rows[by_pane], keys[by_pane]
    starts, ends = starts[by_pane], ends[by_pane]
    opens = np.ones(rows.size, dtype=bool)
    opens[1:] = (
        (keys[1:] != keys[:-1])
        | (starts[1:] != starts[:-1])
        | (ends[1:] != ends[:-1])
    )
    first = np.flatnonzero(opens)
    stop = np.append(first[1:], rows.size).tolist()
    values = columns.values[rows]
    pane_keys = keys[first].tolist()
    pane_starts, pane_ends = starts[first].tolist(), ends[first].tolist()
    results = []
    for pane in np.lexsort((rows[first], fire_at[by_pane[first]])).tolist():
        pane_values = values[first[pane]:stop[pane]]
        with telemetry.span("streaming.window_emit"):
            accumulator = aggregator.add_batch(
                aggregator.create_accumulator(), pane_values
            )
            result = aggregator.get_result(accumulator)
        telemetry.counter("streaming.windows_emitted").inc()
        results.append(
            WindowResult(
                key=columns.keys[pane_keys[pane]],
                window=WindowSpan(pane_starts[pane], pane_ends[pane]),
                result=result,
                event_count=int(pane_values.size),
            )
        )
    return results


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
    before the event arrived).  This is the independent reference for
    the engine's tumbling case — :func:`window_values`, the accuracy
    ground truth and the benchmark's correctness gate derive the drop
    policy from it — so the engine itself must not call it.  It sorts
    with its own ``kind="stable"`` argsort, not the engine's
    :meth:`~repro.data.streams.EventBatch.in_arrival_order`.
    """
    order = np.argsort(batch.arrival_times, kind="stable")
    ordered = EventBatch(
        values=batch.values[order],
        event_times=batch.event_times[order],
        arrival_times=batch.arrival_times[order],
    )
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
    *,
    telemetry: Telemetry | None = None,
) -> ExecutionReport:
    """The tumbling-window pipeline the accuracy experiments run.

    Events are replayed in arrival order through
    :class:`TumblingEventTimeWindows` under a
    :class:`BoundedOutOfOrdernessWatermarks` strategy (bound 0 =
    ascending watermarks): the watermark is the running maximum event
    time minus the bound, and an event is late iff the watermark had
    already passed its window's end plus the allowed lateness *before*
    the event arrived.  Results are ordered by window start.
    """
    return (
        StreamEnvironment()
        .from_batch(batch)
        .window(TumblingEventTimeWindows(window_size_ms))
        .aggregate(
            aggregator,
            BoundedOutOfOrdernessWatermarks(out_of_orderness_ms),
            allowed_lateness_ms,
            telemetry=telemetry,
        )
    )


def window_values(
    batch: EventBatch,
    window_size_ms: float,
    out_of_orderness_ms: float = 0.0,
    allowed_lateness_ms: float = 0.0,
) -> dict[WindowSpan, np.ndarray]:
    """The surviving raw values of each tumbling window.

    Companion to :func:`run_tumbling_batch` used to compute ground-truth
    quantiles per window under the *same* late-drop policy, from
    :func:`tumbling_assignment` rather than from the engine.
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
