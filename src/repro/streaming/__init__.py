"""Miniature event-time stream-processing engine (the Flink substrate).

It keeps the one window kind the paper's experiments run: event-time
tumbling windows under a bounded-out-of-orderness watermark, with late
events dropped and counted.  See :mod:`repro.streaming.engine` for the
execution semantics.  Typical usage (``run_tumbling_batch`` spells this
pipeline in one call)::

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
    ExecutionReport,
    StreamEnvironment,
    WindowResult,
    run_tumbling_batch,
    tumbling_assignment,
    window_values,
)
from repro.streaming.operators import (
    CollectingAggregator,
    CountAggregator,
    SketchAggregator,
)
from repro.streaming.sources import DistributionSource
from repro.streaming.time import BoundedOutOfOrdernessWatermarks
from repro.streaming.windows import TumblingEventTimeWindows, WindowSpan

__all__ = [
    "StreamEnvironment",
    "WindowResult",
    "ExecutionReport",
    "run_tumbling_batch",
    "tumbling_assignment",
    "window_values",
    "SketchAggregator",
    "CollectingAggregator",
    "CountAggregator",
    "DistributionSource",
    "BoundedOutOfOrdernessWatermarks",
    "TumblingEventTimeWindows",
    "WindowSpan",
]
