"""Unit tests for the tumbling window assigner."""

import pytest

from repro.errors import InvalidValueError
from repro.streaming.windows import TumblingEventTimeWindows, WindowSpan


class TestWindowSpan:
    def test_validation(self):
        with pytest.raises(InvalidValueError):
            WindowSpan(10.0, 10.0)
        with pytest.raises(InvalidValueError):
            WindowSpan(10.0, 5.0)

    def test_contains_half_open(self):
        span = WindowSpan(0.0, 10.0)
        assert span.contains(0.0)
        assert span.contains(9.999)
        assert not span.contains(10.0)
        assert not span.contains(-0.001)

    def test_ordering(self):
        assert WindowSpan(0.0, 10.0) < WindowSpan(10.0, 20.0)

    def test_size(self):
        assert WindowSpan(5.0, 25.0).size == 20.0


class TestTumblingWindows:
    def test_paper_window(self):
        # The paper uses 20 s tumbling windows.
        assigner = TumblingEventTimeWindows(20_000.0)
        [span] = assigner.assign(25_000.0)
        assert span == WindowSpan(20_000.0, 40_000.0)

    def test_exactly_one_window(self):
        assigner = TumblingEventTimeWindows(1_000.0)
        for t in (0.0, 999.999, 1_000.0, 12_345.6):
            assert len(assigner.assign(t)) == 1

    def test_boundary_goes_to_next_window(self):
        assigner = TumblingEventTimeWindows(1_000.0)
        [span] = assigner.assign(1_000.0)
        assert span.start == 1_000.0

    def test_windows_partition_the_timeline(self):
        assigner = TumblingEventTimeWindows(500.0)
        spans = {tuple(assigner.assign(t)[0] for _ in [0])[0]
                 for t in [0, 499, 500, 999, 1000]}
        ordered = sorted(spans)
        for a, b in zip(ordered, ordered[1:]):
            assert a.end == b.start

    def test_negative_times(self):
        assigner = TumblingEventTimeWindows(1_000.0)
        [span] = assigner.assign(-1.0)
        assert span == WindowSpan(-1_000.0, 0.0)

    def test_rejects_bad_size(self):
        with pytest.raises(InvalidValueError):
            TumblingEventTimeWindows(0.0)
