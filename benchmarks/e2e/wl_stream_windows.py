"""Workload ``stream_windows``: the paper's accuracy setting.

Independent streams of 20,000 events (50k events/s source, exponential
network delay, mean 15 ms) run event at a time through
``StreamEnvironment.from_batch(...).window(TumblingEventTimeWindows(100))
.aggregate(SketchAggregator, BoundedOutOfOrdernessWatermarks(20))``,
once per paper sketch.  ``streaming`` does most of the work and ``core``
is driven through scalar ``update`` — the same layer as
``sketch_batch`` used differently, so a batch-path gain that slows the
scalar path shows here.  A few percent of events arrive late and are
dropped; counts are checked against ``tumbling_assignment``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core import paper_config
from repro.data import Pareto
from repro.metrics import PAPER_QUANTILES
from repro.streaming import (
    BoundedOutOfOrdernessWatermarks,
    CountAggregator,
    DistributionSource,
    SketchAggregator,
    StreamEnvironment,
    TumblingEventTimeWindows,
    run_tumbling_batch,
    tumbling_assignment,
    window_values,
)

from calib import Phase, percentile
from common import (
    FiveSketchResult,
    check_errors,
    emit_harness,
    relative_errors,
)
from spans import CallTimer
from spec import SKETCHES, STREAM_WINDOWS, WORKLOADS

PARAMS = WORKLOADS[STREAM_WINDOWS][1]
EVENTS = int(PARAMS["events_per_stream"])
RATE = int(PARAMS["rate_per_sec"])
WINDOW_MS = float(PARAMS["window_ms"])
OOO_MS = float(PARAMS["out_of_orderness_ms"])
DURATION_MS = EVENTS * 1000.0 / RATE


def build(name: str) -> Any:
    return paper_config(name, dataset="pareto")


def execute(batch: Any, aggregator: Any) -> Any:
    """The pipeline under test: one stream through the per-event engine."""
    return (
        StreamEnvironment()
        .from_batch(batch)
        .window(TumblingEventTimeWindows(WINDOW_MS))
        .aggregate(aggregator, BoundedOutOfOrdernessWatermarks(OOO_MS))
    )


@dataclass
class Stream:
    batch: Any
    late: int
    #: window id -> that window's surviving values, sorted
    windows: dict[int, np.ndarray]


class Result(FiveSketchResult):
    def __init__(self, ctx: Any, tracer: Any) -> None:
        super().__init__(ctx, tracer)
        self.windows_fired = 0
        self.late_share = 0.0
        #: per traced stream: engine time outside update() and the emit
        self.self_shares: list[float] = []


def run(ctx: Any) -> None:
    source = DistributionSource(
        Pareto(1.0, 1.0), rate_per_sec=RATE,
        delay_mean_ms=float(PARAMS["delay_mean_ms"]),
    )
    warm = source.batch(DURATION_MS / 10.0, np.random.default_rng(0))
    for name in SKETCHES:
        execute(warm, SketchAggregator(lambda: build(name), PAPER_QUANTILES))
    ctx.ready()

    def generate(count: int) -> list[Stream]:
        rng = np.random.default_rng(ctx.seed)
        streams = []
        for _ in range(count):
            batch = source.batch(DURATION_MS, rng)
            _ordered, _ids, late = tumbling_assignment(
                batch, WINDOW_MS, OOO_MS)
            streams.append(Stream(
                batch=batch,
                late=int(late.sum()),
                windows={
                    round(span.start / WINDOW_MS): values
                    for span, values in window_values(
                        batch, WINDOW_MS, OOO_MS).items()
                },
            ))
        return streams

    if ctx.mode == "e2e":
        with ctx.untimed("harness.input_generation"):
            streams = generate(ctx.reps(int(PARAMS["streams"]), 2))
        _measure(ctx, streams, traced=False).emit_end_to_end(ctx)
        return

    with ctx.untimed("harness.input_generation"):
        streams = generate(ctx.reps(int(PARAMS["streams"]), 2, 1 / 3))
    plain = _measure(ctx, streams, traced=False)
    traced = _measure(ctx, streams, traced=True)
    for name in SKETCHES:
        ctx.emit(f"streaming.{name}.events_per_s",
                 plain.ingest[name].rate(), len(plain.ingest[name].blocks))
    emits = [
        seconds
        for name in SKETCHES
        for seconds in traced.ingest[name].op_latencies("emit")
    ]
    ctx.emit("streaming.window_emit_us", percentile(emits, 50) * 1e6,
             len(emits))
    ctx.emit("streaming.engine.self_share",
             percentile(traced.self_shares, 50), len(traced.self_shares))
    ctx.emit("streaming.windows_fired", traced.windows_fired)
    ctx.emit("streaming.late_drop_share", traced.late_share)
    _probes(ctx, streams)
    emit_harness(ctx, plain.ingest_rate(), traced.ingest_rate(),
                 plain.raw_ingest_rate())


def _measure(ctx: Any, streams: list[Stream], traced: bool) -> Result:
    tracer = ctx.tracer if traced else None
    result = Result(ctx, tracer)
    errors: dict[str, list[list[float]]] = {name: [] for name in SKETCHES}
    fired: dict[str, list[Any]] = {}
    sizes: dict[str, list[int]] = {name: [] for name in SKETCHES}
    late = 0
    for stream in streams:
        for name in SKETCHES:
            made: list[Any] = []
            updates = CallTimer()
            with result.ingest[name].block(work=EVENTS) as blk:

                def factory() -> Any:
                    sketch = build(name)
                    made.append(sketch)
                    if tracer is not None:
                        _instrument(sketch, updates, tracer, blk)
                    return sketch

                report = execute(
                    stream.batch, SketchAggregator(factory, PAPER_QUANTILES))
            ctx.ops(EVENTS)
            if tracer is not None:
                inside = updates.seconds + sum(blk.ops.get("emit", ()))
                result.self_shares.append(1.0 - inside / blk.wall_s)
            _verify(ctx, name, report, stream, errors[name])
            fired[name] = made
            sizes[name].extend(sketch.size_bytes() for sketch in made)
            late += report.dropped_late
        result.windows_fired += len(stream.windows)
        if tracer is None:
            _requery(ctx, result.query, fired)
    result.late_share = late / (len(streams) * len(SKETCHES) * EVENTS)

    for name in SKETCHES:
        result.errors[name] = check_errors(ctx, name, errors[name])
    # state: the mean fired-window sketch, summed over the five sketches
    result.state_bytes = sum(
        float(np.mean(sizes[name])) for name in SKETCHES)

    return result


def _requery(ctx: Any, phase: Phase, fired: dict[str, list[Any]]) -> None:
    """The workload's read: ``quantiles`` on each window sketch the
    stream just fired, after one more event so nothing is cached.  One
    block per stream, so the reads are spread over the whole run."""
    with phase.block() as blk:
        for name in SKETCHES:
            for index, sketch in enumerate(fired[name]):
                sketch.update(1.0 + index)
                start = time.perf_counter()
                sketch.quantiles(PAPER_QUANTILES)
                blk.op(name, time.perf_counter() - start)
            ctx.ops(len(fired[name]))


def _instrument(sketch: Any, updates: CallTimer, tracer: Any, blk: Any) -> None:
    """Time this sketch's scalar updates (accumulated: there is one per
    event) and its window-fire query (a span each)."""
    sketch.update = updates.wrap(sketch.update)
    inner = sketch.quantiles

    def quantiles(qs: Any) -> Any:
        span = tracer.begin("streaming.window_emit")
        answer = inner(qs)
        blk.op("emit", tracer.end(span))
        return answer

    sketch.quantiles = quantiles


def _verify(
    ctx: Any, name: str, report: Any, stream: Stream,
    errors: list[list[float]],
) -> None:
    ctx.check(report.total_events == EVENTS,
              f"{name}: saw {report.total_events} of {EVENTS} events")
    ctx.check(report.dropped_late == stream.late,
              f"{name}: dropped {report.dropped_late}, truth {stream.late}")
    ctx.check(len(report.results) == len(stream.windows),
              f"{name}: fired {len(report.results)} windows, truth "
              f"{len(stream.windows)}")
    for fired in report.results:
        truth = stream.windows.get(round(fired.window.start / WINDOW_MS))
        if truth is None or truth.size != fired.event_count:
            ctx.fail(f"{name}: window {fired.window} holds "
                     f"{fired.event_count} events, truth differs")
            continue
        estimates = [fired.result[q] for q in PAPER_QUANTILES]
        errors.append(relative_errors(estimates, truth, PAPER_QUANTILES))


def _probes(ctx: Any, streams: list[Stream]) -> None:
    """Layer metrics from direct calls on the same streams."""
    tracer = ctx.tracer
    engine = Phase(ctx.cal, "engine", tracer)
    for stream in streams:
        with engine.block(work=EVENTS):
            report = execute(stream.batch, CountAggregator())
        ctx.check(report.dropped_late == stream.late,
                  "count aggregator: late drops differ from truth")
    ctx.emit("streaming.engine.events_per_s", engine.rate(),
             len(engine.blocks))

    bypass = Phase(ctx.cal, "tumbling_batch", tracer)
    for stream in streams:
        with bypass.block(work=EVENTS * len(SKETCHES)):
            for name in SKETCHES:
                report = run_tumbling_batch(
                    stream.batch, WINDOW_MS,
                    SketchAggregator(lambda: build(name), PAPER_QUANTILES),
                    OOO_MS,
                )
        ctx.check(report.dropped_late == stream.late,
                  "tumbling batch: late drops differ from truth")
    ctx.emit("streaming.tumbling_batch.events_per_s", bypass.rate(),
             len(bypass.blocks))

    for name in SKETCHES:
        scalar = Phase(ctx.cal, f"scalar.{name}", tracer)
        for stream in streams:
            values = stream.batch.values.tolist()
            sketch = build(name)
            with scalar.block(work=len(values)):
                for value in values:
                    sketch.update(value)
            ctx.check(sketch.count == len(values),
                      f"{name}: scalar loop lost values")
        ctx.emit(f"core.{name}.update_values_per_s", scalar.rate(),
                 len(scalar.blocks))
