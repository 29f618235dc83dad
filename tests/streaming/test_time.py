"""Unit tests for watermark strategies."""

import math

import pytest

from repro.errors import InvalidValueError
from repro.streaming.time import BoundedOutOfOrdernessWatermarks


class TestAscendingWatermarks:
    """A zero bound is Flink's ascending-timestamps strategy."""

    def test_starts_at_minus_infinity(self):
        strategy = BoundedOutOfOrdernessWatermarks(0.0)
        assert strategy.current_watermark == -math.inf

    def test_tracks_maximum(self):
        strategy = BoundedOutOfOrdernessWatermarks(0.0)
        assert strategy.on_event(10.0) == 10.0
        assert strategy.on_event(5.0) == 10.0  # never regresses
        assert strategy.on_event(20.0) == 20.0

    def test_monotone_under_any_sequence(self):
        strategy = BoundedOutOfOrdernessWatermarks(0.0)
        previous = -math.inf
        for t in [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]:
            watermark = strategy.on_event(t)
            assert watermark >= previous
            previous = watermark


class TestBoundedOutOfOrderness:
    def test_lags_by_bound(self):
        strategy = BoundedOutOfOrdernessWatermarks(100.0)
        assert strategy.on_event(1_000.0) == 900.0

    def test_tolerates_disorder_within_bound(self):
        strategy = BoundedOutOfOrdernessWatermarks(50.0)
        strategy.on_event(100.0)  # watermark 50
        # An event at time 60 is NOT late: 60 > watermark 50.
        assert strategy.current_watermark < 60.0

    def test_rejects_negative_bound(self):
        with pytest.raises(InvalidValueError):
            BoundedOutOfOrdernessWatermarks(-1.0)
