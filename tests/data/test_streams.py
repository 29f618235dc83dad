"""Unit tests for timestamped stream generation."""

import numpy as np
import pytest

from repro.data.distributions import Uniform
from repro.data.streams import EventBatch, generate_stream
from repro.errors import InvalidValueError


class TestEventBatch:
    def test_columns_must_align(self):
        with pytest.raises(InvalidValueError):
            EventBatch(
                values=np.zeros(3),
                event_times=np.zeros(2),
                arrival_times=np.zeros(3),
            )

    def test_len(self):
        batch = EventBatch(np.zeros(5), np.zeros(5), np.zeros(5))
        assert len(batch) == 5

    def test_in_arrival_order_sorts_stably(self):
        batch = EventBatch(
            values=np.asarray([1.0, 2.0, 3.0]),
            event_times=np.asarray([0.0, 1.0, 2.0]),
            arrival_times=np.asarray([9.0, 4.0, 4.0]),
        )
        ordered = batch.in_arrival_order()
        assert ordered.values.tolist() == [2.0, 3.0, 1.0]


def _tied_arrivals(seed: int, n: int = 20_000) -> np.ndarray:
    """Arrival times on a 1 ms clock: 50k events/s with a 15 ms mean
    delay, so ~19.5k of 20k events share their millisecond."""
    rng = np.random.default_rng(seed)
    event_times = np.arange(n) * 0.02
    return np.ceil(event_times + rng.exponential(15.0, n))


ARRIVALS = {
    "ms_clock_ties": lambda: _tied_arrivals(3),
    "all_equal": lambda: np.full(20_000, 7.0),
    "signed_zeros": lambda: np.random.default_rng(4).choice(
        [-0.0, 0.0, 1.0], 20_000
    ),
    "sorted": lambda: np.arange(20_000) * 0.02,
    "reversed": lambda: np.arange(20_000)[::-1] * 0.02,
    "distinct_delays": lambda: (
        np.arange(20_000) * 0.02
        + np.random.default_rng(5).exponential(15.0, 20_000)
    ),
    "empty": lambda: np.zeros(0),
    "one": lambda: np.asarray([3.0]),
    "two_tied": lambda: np.asarray([3.0, 3.0]),
    "two_reversed": lambda: np.asarray([4.0, 3.0]),
}


class TestArrivalOrder:
    """``in_arrival_order`` is the stable permutation, whatever sort
    computes it: equal arrival times keep their batch order."""

    @pytest.mark.parametrize("case", list(ARRIVALS))
    def test_equals_stable_argsort(self, case):
        arrivals = ARRIVALS[case]()
        rows = np.arange(arrivals.size, dtype=np.float64)
        ordered = EventBatch(rows, -rows, arrivals).in_arrival_order()
        stable = np.argsort(arrivals, kind="stable")
        assert np.array_equal(ordered.values, stable)
        assert np.array_equal(ordered.event_times, -stable.astype(float))
        assert ordered.arrival_times.tobytes() == (
            arrivals[stable].tobytes()
        )


class TestNonFiniteTimes:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", ["event_times", "arrival_times"])
    def test_rejected(self, column, bad):
        columns = {
            "values": np.asarray([1.0, 2.0, 3.0]),
            "event_times": np.asarray([0.0, 10.0, 20.0]),
            "arrival_times": np.asarray([0.0, 10.0, 20.0]),
        }
        columns[column][1] = bad
        with pytest.raises(InvalidValueError, match=column):
            EventBatch(**columns)

    def test_values_are_left_to_the_sketch(self):
        # A sketch decides what a non-finite value means.
        batch = EventBatch(
            np.asarray([np.nan, np.inf]), np.zeros(2), np.zeros(2)
        )
        assert len(batch) == 2


class TestGenerateStream:
    def test_event_count_from_rate_and_duration(self, rng):
        batch = generate_stream(
            Uniform(0, 1), 5_000.0, rng, rate_per_sec=2_000
        )
        assert len(batch) == 10_000

    def test_paper_rate_and_window(self, rng):
        # Sec 4.2: 50k events/s and 20 s windows = 1M per window.
        batch = generate_stream(
            Uniform(0, 1), 200.0, rng, rate_per_sec=50_000
        )
        assert len(batch) == 10_000  # 0.2 s worth

    def test_no_delay_means_identical_times(self, rng):
        batch = generate_stream(
            Uniform(0, 1), 100.0, rng, rate_per_sec=1_000
        )
        assert np.array_equal(batch.event_times, batch.arrival_times)

    def test_delay_mean(self, rng):
        batch = generate_stream(
            Uniform(0, 1), 10_000.0, rng,
            rate_per_sec=5_000, delay_mean_ms=150.0,
        )
        delays = batch.arrival_times - batch.event_times
        assert delays.mean() == pytest.approx(150.0, rel=0.1)
        # Exponential: long tail present.
        assert delays.max() > 500.0

    def test_zero_delay_mean(self, rng):
        batch = generate_stream(
            Uniform(0, 1), 100.0, rng,
            rate_per_sec=1_000, delay_mean_ms=0.0,
        )
        assert np.array_equal(batch.event_times, batch.arrival_times)

    def test_validation(self, rng):
        with pytest.raises(InvalidValueError):
            generate_stream(Uniform(0, 1), -1.0, rng)
        with pytest.raises(InvalidValueError):
            generate_stream(Uniform(0, 1), 100.0, rng, rate_per_sec=0)
        with pytest.raises(InvalidValueError):
            generate_stream(
                Uniform(0, 1), 100.0, rng, delay_mean_ms=-5.0
            )
        with pytest.raises(InvalidValueError):
            generate_stream(Uniform(0, 1), 0.5, rng, rate_per_sec=1)
