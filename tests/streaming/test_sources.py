"""Unit tests for stream sources."""

import numpy as np
import pytest

from repro.data.distributions import Uniform
from repro.errors import InvalidValueError
from repro.streaming.sources import DistributionSource


class TestDistributionSource:
    def test_rate_controls_event_count(self, rng):
        source = DistributionSource(Uniform(0, 1), rate_per_sec=1_000)
        batch = source.batch(2_000.0, rng)
        assert len(batch) == 2_000

    def test_event_times_evenly_spaced(self, rng):
        source = DistributionSource(Uniform(0, 1), rate_per_sec=100)
        batch = source.batch(1_000.0, rng)
        spacing = np.diff(batch.event_times)
        assert np.allclose(spacing, 10.0)

    def test_ideal_network_has_zero_delay(self, rng):
        source = DistributionSource(Uniform(0, 1), rate_per_sec=100)
        batch = source.batch(1_000.0, rng)
        assert np.array_equal(batch.event_times, batch.arrival_times)

    def test_start_time_offset(self, rng):
        source = DistributionSource(Uniform(0, 1), rate_per_sec=100)
        batch = source.batch(100.0, rng, start_time_ms=5_000.0)
        assert batch.event_times[0] == 5_000.0

    def test_rejects_bad_rate(self):
        with pytest.raises(InvalidValueError):
            DistributionSource(Uniform(0, 1), rate_per_sec=0)


class TestDelayedSource:
    def test_delays_are_exponential_with_given_mean(self, rng):
        source = DistributionSource(
            Uniform(0, 1), rate_per_sec=10_000, delay_mean_ms=150.0
        )
        batch = source.batch(10_000.0, rng)
        delays = batch.arrival_times - batch.event_times
        assert (delays >= 0).all()
        assert delays.mean() == pytest.approx(150.0, rel=0.1)

    def test_arrival_order_differs_from_event_order(self, rng):
        source = DistributionSource(
            Uniform(0, 1), rate_per_sec=10_000, delay_mean_ms=150.0
        )
        batch = source.batch(1_000.0, rng)
        ordered = batch.in_arrival_order()
        assert not np.array_equal(
            ordered.event_times, batch.event_times
        )
        assert (np.diff(ordered.arrival_times) >= 0).all()
