"""The miniature stream-processing engine ("mini-Flink").

This is the substrate standing in for Apache Flink in the paper's
accuracy experiments.  It reproduces exactly the semantics those
experiments depend on:

* events are processed in **arrival order** but windowed by **event
  time** into tumbling windows (Sec 2.5);
* a bounded-out-of-orderness watermark declares event-time progress; a
  window fires once the watermark passes its end (plus any allowed
  lateness);
* events belonging to an already-fired window are **dropped and
  counted** — the paper's late-data policy (Sec 2.6).

There is one executor, :meth:`WindowedStream.aggregate`, and it works by
column: which events land in which window, which are dropped late and
the order values reach the aggregator are functions of the stream's
timestamps alone, so they are computed on arrays and each pane is
folded by a single ``add_batch``.  :func:`run_tumbling_batch` names the
pipeline every experiment runs; it is not a second executor.
:func:`tumbling_assignment` and :func:`window_values` are the
independent reference the engine is checked against and never calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.data.streams import EventBatch
from repro.errors import InvalidValueError, PipelineError
from repro.obs.telemetry import NOOP, Telemetry
from repro.streaming.operators import AggregateFunction
from repro.streaming.time import BoundedOutOfOrdernessWatermarks
from repro.streaming.windows import TumblingEventTimeWindows, WindowSpan


@dataclass(frozen=True)
class WindowResult:
    """One fired window pane."""

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

    @property
    def loss_fraction(self) -> float:
        """Fraction of all events dropped as late."""
        if self.total_events == 0:
            return 0.0
        return self.dropped_late / self.total_events


class StreamEnvironment:
    """Entry point building a windowed pipeline over an event batch."""

    def from_batch(self, batch: EventBatch) -> "DataStream":
        return DataStream(batch)


class DataStream:
    """A batch of events, awaiting its windows."""

    def __init__(self, batch: EventBatch) -> None:
        self._batch = batch

    def window(self, assigner: TumblingEventTimeWindows) -> "WindowedStream":
        return WindowedStream(self._batch, assigner)


class WindowedStream:
    """A windowed stream awaiting an aggregate function."""

    def __init__(
        self, batch: EventBatch, assigner: TumblingEventTimeWindows
    ) -> None:
        self._batch = batch
        self._assigner = assigner

    def aggregate(
        self,
        aggregator: AggregateFunction,
        watermarks: BoundedOutOfOrdernessWatermarks | None = None,
        allowed_lateness_ms: float = 0.0,
        *,
        telemetry: Telemetry | None = None,
    ) -> ExecutionReport:
        """Run the pipeline and fire every window.

        Events are replayed in arrival order; *watermarks* defaults to a
        zero bound (ascending timestamps).  A pane fires once the
        watermark passes ``window.end + allowed_lateness_ms`` (the rest
        at end of stream); the single firing includes any late events
        that arrived within the lateness horizon (equivalent to Flink's
        final updated emission).  An event whose window had already
        fired by the watermark it met on arrival is dropped and counted
        in ``report.dropped_late``.  *watermarks* is only read, never
        advanced, so one strategy object can configure any number of
        runs.

        ``report.results`` is in firing order: ascending ``end +
        allowed_lateness_ms``, ties by the arrival position of the
        pane's first event.  A pane's surviving values reach the
        aggregator in arrival order, as one ``add_batch``.

        *telemetry* (keyword-only) is an optional :mod:`repro.obs`
        sink: each pane firing — fold and result — is timed under the
        ``streaming.window_emit`` span and counted in
        ``streaming.windows_emitted``.
        """
        if aggregator is None:
            raise PipelineError("window aggregation needs an aggregator")
        if not allowed_lateness_ms >= 0:
            raise InvalidValueError(
                f"allowed_lateness_ms must be >= 0, got "
                f"{allowed_lateness_ms!r}"
            )
        if watermarks is None:
            watermarks = BoundedOutOfOrdernessWatermarks(0.0)
        telemetry = telemetry if telemetry is not None else NOOP
        ordered = self._batch.in_arrival_order()
        times = np.asarray(ordered.event_times, dtype=np.float64)
        starts, ends = self._assigner.assign_batch(times)
        seen = watermarks.watermarks_before(times)
        rows = np.flatnonzero(ends + allowed_lateness_ms > seen)
        # Panes: events grouped by window start, stably, so each pane's
        # values stay in arrival order.
        by_pane = np.argsort(starts[rows], kind="stable")
        rows = rows[by_pane]
        starts, ends = starts[rows], ends[rows]
        opens = np.ones(rows.size, dtype=bool)
        opens[1:] = starts[1:] != starts[:-1]
        first = np.flatnonzero(opens)
        stop = np.append(first[1:], rows.size).tolist()
        values = np.asarray(ordered.values, dtype=np.float64)[rows]
        pane_starts, pane_ends = starts[first].tolist(), ends[first].tolist()
        report = ExecutionReport(
            total_events=int(times.size),
            dropped_late=int(times.size - rows.size),
        )
        # Fire by end + lateness, ties by the pane's first arrival.
        fire_at = ends[first] + allowed_lateness_ms
        for pane in np.lexsort((rows[first], fire_at)).tolist():
            pane_values = values[first[pane]:stop[pane]]
            with telemetry.span("streaming.window_emit"):
                accumulator = aggregator.add_batch(
                    aggregator.create_accumulator(), pane_values
                )
                result = aggregator.get_result(accumulator)
            telemetry.counter("streaming.windows_emitted").inc()
            report.results.append(
                WindowResult(
                    window=WindowSpan(pane_starts[pane], pane_ends[pane]),
                    result=result,
                    event_count=int(pane_values.size),
                )
            )
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
