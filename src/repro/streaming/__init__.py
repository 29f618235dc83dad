"""Miniature event-time stream-processing engine (the Flink substrate).

See :mod:`repro.streaming.engine` for the execution semantics.  Typical
usage (``run_tumbling_batch`` spells this pipeline in one call)::

    from repro.streaming import (
        StreamEnvironment, TumblingEventTimeWindows, SketchAggregator,
    )

    env = StreamEnvironment()
    report = (
        env.from_batch(batch)
        .window(TumblingEventTimeWindows(20_000))
        .aggregate(SketchAggregator(lambda: DDSketch(0.01), [0.5, 0.99]))
    )
"""

from repro.streaming.engine import (
    CountWindowedStream,
    DataStream,
    ExecutionReport,
    KeyedStream,
    StreamEnvironment,
    WindowedStream,
    WindowResult,
    run_tumbling_batch,
    tumbling_assignment,
    window_values,
)
from repro.streaming.events import Event, events_from_batch
from repro.streaming.operators import (
    AggregateFunction,
    CollectingAggregator,
    CountAggregator,
    ReduceAggregator,
    SketchAggregator,
)
from repro.streaming.sources import DistributionSource, delayed_source
from repro.streaming.time import (
    AscendingTimestampsWatermarks,
    BoundedOutOfOrdernessWatermarks,
    WatermarkStrategy,
)
from repro.streaming.windowed_sketch import SlidingWindowSketch
from repro.streaming.windows import (
    SessionWindows,
    SlidingEventTimeWindows,
    TumblingEventTimeWindows,
    WindowAssigner,
    WindowSpan,
)

__all__ = [
    "Event",
    "events_from_batch",
    "StreamEnvironment",
    "DataStream",
    "KeyedStream",
    "WindowedStream",
    "CountWindowedStream",
    "WindowResult",
    "ExecutionReport",
    "run_tumbling_batch",
    "tumbling_assignment",
    "window_values",
    "AggregateFunction",
    "SketchAggregator",
    "CollectingAggregator",
    "CountAggregator",
    "ReduceAggregator",
    "DistributionSource",
    "delayed_source",
    "WatermarkStrategy",
    "AscendingTimestampsWatermarks",
    "BoundedOutOfOrdernessWatermarks",
    "WindowAssigner",
    "WindowSpan",
    "TumblingEventTimeWindows",
    "SlidingEventTimeWindows",
    "SessionWindows",
    "SlidingWindowSketch",
]
