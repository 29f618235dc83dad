"""Unit tests for sequence-based (count) windows."""

import numpy as np
import pytest

from repro.data.streams import EventBatch
from repro.errors import PipelineError
from repro.streaming import (
    CollectingAggregator,
    CountAggregator,
    StreamEnvironment,
)


def batch_of(values):
    values = np.asarray(values, dtype=np.float64)
    times = np.arange(values.size, dtype=np.float64)
    return EventBatch(values, times, times.copy())


class TestCountWindows:
    def test_groups_every_n_events(self):
        env = StreamEnvironment()
        report = (
            env.from_batch(batch_of(range(10)))
            .count_window(3)
            .aggregate(CollectingAggregator())
        )
        groups = [r.result.tolist() for r in report.results]
        assert groups == [
            [0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [6.0, 7.0, 8.0], [9.0],
        ]

    def test_window_spans_use_sequence_coordinates(self):
        env = StreamEnvironment()
        report = (
            env.from_batch(batch_of(range(6)))
            .count_window(3)
            .aggregate(CountAggregator())
        )
        spans = [(r.window.start, r.window.end) for r in report.results]
        assert spans == [(0.0, 3.0), (3.0, 6.0)]

    def test_no_late_events(self):
        # Sequence windows are immune to event-time disorder.
        values = np.asarray([1.0, 2.0, 3.0])
        times = np.asarray([100.0, 0.0, 50.0])
        scrambled = EventBatch(values, times, np.asarray([0.0, 1.0, 2.0]))
        env = StreamEnvironment()
        report = (
            env.from_batch(scrambled)
            .count_window(2)
            .aggregate(CountAggregator())
        )
        assert report.dropped_late == 0
        assert sum(r.result for r in report.results) == 3

    def test_per_key_independent_counting(self):
        env = StreamEnvironment()
        report = (
            env.from_batch(batch_of(range(10)))
            .key_by(lambda e: int(e.value) % 2)
            .count_window(3)
            .aggregate(CollectingAggregator())
        )
        by_key: dict = {}
        for r in report.results:
            by_key.setdefault(r.key, []).append(r.result.tolist())
        assert by_key[0] == [[0.0, 2.0, 4.0], [6.0, 8.0]]
        assert by_key[1] == [[1.0, 3.0, 5.0], [7.0, 9.0]]

    def test_full_windows_fire_on_their_last_event(self):
        env = StreamEnvironment()
        report = (
            env.from_batch(batch_of(range(10)))
            .key_by(lambda e: int(e.value) % 2)
            .count_window(3)
            .aggregate(CollectingAggregator())
        )
        # Full windows in the order they filled up, then the partial
        # trailing ones in the order they opened.
        assert [(r.key, r.result.tolist()) for r in report.results] == [
            (0, [0.0, 2.0, 4.0]), (1, [1.0, 3.0, 5.0]),
            (0, [6.0, 8.0]), (1, [7.0, 9.0]),
        ]

    def test_exact_multiple_no_empty_flush(self):
        env = StreamEnvironment()
        report = (
            env.from_batch(batch_of(range(6)))
            .count_window(3)
            .aggregate(CountAggregator())
        )
        assert len(report.results) == 2
        assert all(r.result == 3 for r in report.results)

    def test_validation(self):
        env = StreamEnvironment()
        with pytest.raises(PipelineError):
            env.from_batch(batch_of([1.0])).count_window(0)
        with pytest.raises(PipelineError):
            env.from_batch(batch_of([1.0])).count_window(2).aggregate(None)
