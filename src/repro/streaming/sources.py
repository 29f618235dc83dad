"""Stream sources: rate-controlled generators with simulated network
delay.

A source turns a value distribution into a timestamped
:class:`~repro.data.streams.EventBatch`, modelling the paper's setup: a
constant 50,000 events/second generator and, for the Sec 4.6 experiment,
an exponential per-event network delay (mean 150 ms) between generation
and ingestion.
"""

from __future__ import annotations

import numpy as np

from repro.data.distributions import Distribution
from repro.data.streams import (
    DEFAULT_RATE_PER_SEC,
    EventBatch,
    generate_stream,
)
from repro.errors import InvalidValueError


class DistributionSource:
    """Rate-controlled source sampling values from a distribution.

    Parameters
    ----------
    distribution:
        Value generator for the events.
    rate_per_sec:
        Events generated per second (the paper uses 50,000).
    delay_mean_ms:
        Mean of the exponential network delay, or ``None`` for an
        ideal network (arrival == generation).
    """

    def __init__(
        self,
        distribution: Distribution,
        rate_per_sec: int = DEFAULT_RATE_PER_SEC,
        delay_mean_ms: float | None = None,
    ) -> None:
        if rate_per_sec < 1:
            raise InvalidValueError(
                f"rate_per_sec must be >= 1, got {rate_per_sec!r}"
            )
        self.distribution = distribution
        self.rate_per_sec = int(rate_per_sec)
        self.delay_mean_ms = delay_mean_ms

    def batch(
        self,
        duration_ms: float,
        rng: np.random.Generator,
        start_time_ms: float = 0.0,
    ) -> EventBatch:
        """Generate *duration_ms* worth of timestamped events."""
        return generate_stream(
            self.distribution,
            duration_ms,
            rng,
            rate_per_sec=self.rate_per_sec,
            delay_mean_ms=self.delay_mean_ms,
            start_time_ms=start_time_ms,
        )

