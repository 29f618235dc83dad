"""Sliding windows through the engine (``SlidingEventTimeWindows`` on
``WindowedStream.aggregate``, the only sliding executor)."""

import numpy as np

from repro.data.streams import EventBatch
from repro.streaming import (
    CollectingAggregator,
    CountAggregator,
    SlidingEventTimeWindows,
    StreamEnvironment,
    run_tumbling_batch,
)


def ordered_batch(values, spacing_ms=1.0):
    values = np.asarray(values, dtype=np.float64)
    times = np.arange(values.size, dtype=np.float64) * spacing_ms
    return EventBatch(values, times, times.copy())


def run_sliding(batch, size_ms, slide_ms, aggregator, **kwargs):
    return (
        StreamEnvironment()
        .from_batch(batch)
        .window(SlidingEventTimeWindows(size_ms, slide_ms))
        .aggregate(aggregator, **kwargs)
    )


class TestSlidingPanes:
    def test_each_window_covers_size_worth_of_events(self, rng):
        batch = ordered_batch(np.ones(4_000))
        report = run_sliding(batch, 1_000.0, 500.0, CountAggregator())
        interior = [
            r for r in report.results
            if 0 <= r.window.start and r.window.end <= 4_000
        ]
        assert interior
        assert all(r.result == 1_000 for r in interior)

    def test_slide_equal_size_matches_tumbling(self, rng):
        batch = ordered_batch(rng.uniform(0, 10, 2_000))
        tumbling = run_tumbling_batch(
            batch, 500.0, CollectingAggregator()
        )
        sliding = run_sliding(batch, 500.0, 500.0, CollectingAggregator())
        assert [r.window for r in tumbling.results] == (
            [r.window for r in sliding.results]
        )
        for a, b in zip(tumbling.results, sliding.results):
            assert a.result.tolist() == b.result.tolist()

    def test_late_events_dropped_against_pane(self):
        # The third event is late for all four of its windows: one
        # dropped event, not four (event, window) pairs.
        values = np.asarray([1.0, 2.0, 3.0])
        event_times = np.asarray([0.0, 2_000.0, 100.0])
        arrival = np.asarray([0.0, 1.0, 2.0])
        batch = EventBatch(values, event_times, arrival)
        report = run_sliding(
            batch, 1_000.0, 250.0, CountAggregator(), collect_late=True
        )
        assert report.total_events == 3
        assert report.dropped_late == 1
        assert report.loss_fraction <= 1.0
        assert [e.value for e in report.late_events] == [3.0]

    def test_event_kept_by_one_window_is_not_a_drop(self):
        # Watermark 1250 has fired [250, 1250) but not [500, 1500) or
        # later: the event at 1100 is late for one window only.
        batch = EventBatch(
            np.asarray([1.0, 2.0]),
            np.asarray([1_250.0, 1_100.0]),
            np.asarray([0.0, 1.0]),
        )
        report = run_sliding(batch, 1_000.0, 250.0, CountAggregator())
        assert report.dropped_late == 0
        counts = {r.window.start: r.result for r in report.results}
        assert 250.0 not in counts
        assert counts[500.0] == 2 and counts[1_000.0] == 2

    def test_empty_batch(self):
        batch = EventBatch(np.zeros(0), np.zeros(0), np.zeros(0))
        report = run_sliding(batch, 1_000.0, 500.0, CountAggregator())
        assert report.results == []
