"""Unit tests for the streaming engine."""

import math

import numpy as np
import pytest

from repro.data.streams import EventBatch
from repro.errors import InvalidValueError, PipelineError
from repro.streaming import (
    BoundedOutOfOrdernessWatermarks,
    CollectingAggregator,
    CountAggregator,
    StreamEnvironment,
    TumblingEventTimeWindows,
    WindowSpan,
    run_tumbling_batch,
    tumbling_assignment,
    window_values,
)


def make_batch(values, event_times, arrival_times=None):
    values = np.asarray(values, dtype=np.float64)
    event_times = np.asarray(event_times, dtype=np.float64)
    if arrival_times is None:
        arrival_times = event_times.copy()
    else:
        arrival_times = np.asarray(arrival_times, dtype=np.float64)
    return EventBatch(values, event_times, arrival_times)


class TestTumblingAggregation:
    def test_windows_partition_events(self):
        batch = make_batch(
            values=[1, 2, 3, 4, 5, 6],
            event_times=[0, 500, 999, 1000, 1500, 2100],
        )
        env = StreamEnvironment()
        report = (
            env.from_batch(batch)
            .window(TumblingEventTimeWindows(1_000.0))
            .aggregate(CollectingAggregator())
        )
        assert report.total_events == 6
        assert report.dropped_late == 0
        windows = {r.window: r.result.tolist() for r in report.results}
        assert windows[WindowSpan(0.0, 1000.0)] == [1, 2, 3]
        assert windows[WindowSpan(1000.0, 2000.0)] == [4, 5]
        assert windows[WindowSpan(2000.0, 3000.0)] == [6]

    def test_event_counts_per_window(self):
        batch = make_batch([1, 2, 3], [0, 1, 1001])
        env = StreamEnvironment()
        report = (
            env.from_batch(batch)
            .window(TumblingEventTimeWindows(1_000.0))
            .aggregate(CountAggregator())
        )
        counts = {r.window.start: r.result for r in report.results}
        assert counts == {0.0: 2, 1000.0: 1}

    def test_requires_aggregator(self):
        env = StreamEnvironment()
        stream = env.from_batch(make_batch([], [])).window(
            TumblingEventTimeWindows(10.0)
        )
        with pytest.raises(PipelineError):
            stream.aggregate(None)


class TestLateEvents:
    def test_late_event_dropped_after_window_fires(self):
        # Event with event_time 500 arrives after the watermark (driven
        # by the event at t=1500) has passed its window's end.
        batch = make_batch(
            values=[1, 2, 3],
            event_times=[0, 1500, 500],
            arrival_times=[0, 10, 20],
        )
        env = StreamEnvironment()
        report = (
            env.from_batch(batch)
            .window(TumblingEventTimeWindows(1_000.0))
            .aggregate(CollectingAggregator())
        )
        assert report.dropped_late == 1
        first = next(
            r for r in report.results if r.window.start == 0.0
        )
        assert first.result.tolist() == [1.0]

    def test_allowed_lateness_recovers_event(self):
        batch = make_batch(
            values=[1, 2, 3],
            event_times=[0, 1500, 500],
            arrival_times=[0, 10, 20],
        )
        env = StreamEnvironment()
        report = (
            env.from_batch(batch)
            .window(TumblingEventTimeWindows(1_000.0))
            .aggregate(CollectingAggregator(), allowed_lateness_ms=600.0)
        )
        assert report.dropped_late == 0
        first = next(
            r for r in report.results if r.window.start == 0.0
        )
        assert first.result.tolist() == [1.0, 3.0]

    def test_bounded_out_of_orderness_tolerates_disorder(self):
        batch = make_batch(
            values=[1, 2, 3],
            event_times=[0, 1500, 900],
            arrival_times=[0, 10, 20],
        )
        env = StreamEnvironment()
        strict = (
            env.from_batch(batch)
            .window(TumblingEventTimeWindows(1_000.0))
            .aggregate(CollectingAggregator())
        )
        assert strict.dropped_late == 1
        tolerant = (
            env.from_batch(batch)
            .window(TumblingEventTimeWindows(1_000.0))
            .aggregate(
                CollectingAggregator(),
                watermarks=BoundedOutOfOrdernessWatermarks(600.0),
            )
        )
        assert tolerant.dropped_late == 0

    def test_one_strategy_object_serves_many_runs(self):
        # 10 s of events, one per ms, each delayed up to 40 ms: with a
        # 20 ms bound some are late.  A second run that inherited the
        # first run's final watermark would drop the first 5 s outright.
        rng = np.random.default_rng(7)
        times = np.arange(10_000, dtype=np.float64)
        batch = make_batch(
            values=times,
            event_times=times,
            arrival_times=times + rng.uniform(0.0, 40.0, times.size),
        )
        strategy = BoundedOutOfOrdernessWatermarks(20.0)
        stream = StreamEnvironment().from_batch(batch).window(
            TumblingEventTimeWindows(5_000.0)
        )
        first = stream.aggregate(CountAggregator(), strategy)
        second = stream.aggregate(CountAggregator(), strategy)
        assert 0 < first.dropped_late < 1_000
        assert len(first.results) == 2
        assert second == first
        assert strategy.current_watermark == -math.inf

    def test_loss_fraction(self):
        batch = make_batch(
            values=[1, 2, 3, 4],
            event_times=[0, 1500, 500, 700],
            arrival_times=[0, 1, 2, 3],
        )
        env = StreamEnvironment()
        report = (
            env.from_batch(batch)
            .window(TumblingEventTimeWindows(1_000.0))
            .aggregate(CountAggregator())
        )
        assert report.loss_fraction == pytest.approx(0.5)


class TestVectorisedPath:
    def test_empty_batch(self):
        batch = make_batch([], [])
        report = run_tumbling_batch(batch, 1_000.0, CountAggregator())
        assert report.total_events == 0
        assert report.results == []

    def test_matches_general_path(self, rng):
        # The central semantic property: the engine agrees exactly with
        # the independent reference (tumbling_assignment/window_values).
        n = 3_000
        event_times = np.sort(rng.uniform(0, 10_000, n))
        batch = EventBatch(
            values=rng.uniform(0, 100, n),
            event_times=event_times,
            arrival_times=event_times + rng.exponential(200.0, n),
        )
        _ordered, _ids, late = tumbling_assignment(batch, 1_000.0)
        truth = window_values(batch, 1_000.0)
        fast = run_tumbling_batch(batch, 1_000.0, CollectingAggregator())
        assert fast.total_events == n
        assert fast.dropped_late == int(late.sum()) > 0
        fast_map = {r.window: r.result.tolist() for r in fast.results}
        assert fast_map == {w: v.tolist() for w, v in truth.items()}

    def test_matches_general_path_with_lateness_and_bound(self, rng):
        n = 2_000
        event_times = np.sort(rng.uniform(0, 5_000, n))
        batch = EventBatch(
            values=rng.uniform(0, 1, n),
            event_times=event_times,
            arrival_times=event_times + rng.exponential(300.0, n),
        )
        _ordered, _ids, late = tumbling_assignment(
            batch, 500.0, 100.0, 250.0
        )
        truth = window_values(batch, 500.0, 100.0, 250.0)
        fast = run_tumbling_batch(
            batch, 500.0, CountAggregator(),
            out_of_orderness_ms=100.0, allowed_lateness_ms=250.0,
        )
        assert fast.dropped_late == int(late.sum()) > 0
        fast_counts = {r.window: r.result for r in fast.results}
        assert fast_counts == {w: v.size for w, v in truth.items()}

    def test_window_values_consistent_with_report(self, rng):
        n = 1_000
        event_times = np.sort(rng.uniform(0, 3_000, n))
        batch = EventBatch(
            values=rng.uniform(0, 1, n),
            event_times=event_times,
            arrival_times=event_times + rng.exponential(100.0, n),
        )
        report = run_tumbling_batch(batch, 1_000.0, CountAggregator())
        truth = window_values(batch, 1_000.0)
        for result in report.results:
            assert truth[result.window].size == result.result

    def test_all_late(self):
        # Second event's watermark already passed the first's window.
        batch = make_batch(
            values=[1, 2],
            event_times=[5_000, 100],
            arrival_times=[0, 1],
        )
        report = run_tumbling_batch(batch, 1_000.0, CountAggregator())
        assert report.dropped_late == 1


class TestParameterValidation:
    """A NaN or infinite window size or bound, or a NaN or negative
    lateness, is refused: each one fired nothing or dropped events the
    reference keeps."""

    @pytest.mark.parametrize(
        "size,bound,lateness",
        [
            pytest.param(math.nan, 0.0, 0.0, id="size-nan"),
            pytest.param(math.inf, 0.0, 0.0, id="size-inf"),
            pytest.param(1_000.0, math.nan, 0.0, id="bound-nan"),
            pytest.param(1_000.0, math.inf, 0.0, id="bound-inf"),
            pytest.param(1_000.0, 0.0, math.nan, id="lateness-nan"),
            pytest.param(1_000.0, 0.0, -1.0, id="lateness-negative"),
        ],
    )
    def test_parameter_is_refused(self, size, bound, lateness):
        batch = make_batch(
            values=[1, 2, 3],
            event_times=[0, 1500, 500],
            arrival_times=[0, 10, 20],
        )
        with pytest.raises(InvalidValueError):
            run_tumbling_batch(batch, size, CountAggregator(), bound, lateness)
