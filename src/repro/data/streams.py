"""Timestamped event-stream generation for the streaming experiments.

The paper's accuracy experiments run on Flink at 50,000 events/second
with 20-second event-time tumbling windows; its late-data experiment
adds an exponential network delay with a 150 ms mean between event
*generation* and *ingestion* (Secs 4.2 and 4.6).  This module turns any
:class:`repro.data.distributions.Distribution` into arrays of
``(value, event_time, arrival_time)`` with exactly those semantics.

All times are milliseconds as float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.distributions import Distribution
from repro.errors import InvalidValueError

#: The paper's ingest rate.
DEFAULT_RATE_PER_SEC = 50_000

#: Mean of the exponential network delay in the Sec 4.6 experiment.
DEFAULT_DELAY_MEAN_MS = 150.0


@dataclass(frozen=True)
class EventBatch:
    """A column-oriented batch of timestamped events.

    Attributes
    ----------
    values:
        The measurements carried by the events.
    event_times:
        Generation timestamps at the source (ms).
    arrival_times:
        Ingestion timestamps at the stream processor (ms); equals
        ``event_times`` plus per-event network delay.
    """

    values: np.ndarray
    event_times: np.ndarray
    arrival_times: np.ndarray

    def __post_init__(self) -> None:
        if not (
            self.values.shape
            == self.event_times.shape
            == self.arrival_times.shape
        ):
            raise InvalidValueError("EventBatch columns must align")
        # NaN would slip past every watermark comparison and +-inf past
        # every window; neither is a time.
        for name in ("event_times", "arrival_times"):
            if not np.isfinite(getattr(self, name)).all():
                raise InvalidValueError(
                    f"EventBatch {name} must be finite"
                )

    def __len__(self) -> int:
        return int(self.values.size)

    def in_arrival_order(self) -> "EventBatch":
        """Reorder events by ingestion time (how the engine sees them).

        The order is the stable one: events that arrive at the same
        time keep their batch order.  When no two arrival times are
        equal every sort gives that permutation, so numpy's vectorised
        default sort runs first; only if its output does not strictly
        increase (a tie, or ``-0.0`` beside ``0.0``) is the batch
        sorted again with ``kind="stable"``.
        """
        order = np.argsort(self.arrival_times)
        arrival_times = self.arrival_times[order]
        if not (arrival_times[1:] > arrival_times[:-1]).all():
            order = np.argsort(self.arrival_times, kind="stable")
            arrival_times = self.arrival_times[order]
        # A permutation of checked columns: nothing to check again.
        ordered = object.__new__(EventBatch)
        object.__setattr__(ordered, "values", self.values[order])
        object.__setattr__(ordered, "event_times", self.event_times[order])
        object.__setattr__(ordered, "arrival_times", arrival_times)
        return ordered


def generate_stream(
    distribution: Distribution,
    duration_ms: float,
    rng: np.random.Generator,
    rate_per_sec: int = DEFAULT_RATE_PER_SEC,
    delay_mean_ms: float | None = None,
    start_time_ms: float = 0.0,
) -> EventBatch:
    """Generate a rate-controlled timestamped stream.

    Event times are evenly spaced at ``1000 / rate_per_sec`` ms — the
    constant-rate source the paper drives Flink with.  When
    *delay_mean_ms* is given, each event's arrival time is its event
    time plus an exponential network delay with that mean; otherwise
    arrival equals generation (the no-late-data experiments).
    """
    if duration_ms <= 0:
        raise InvalidValueError(
            f"duration_ms must be positive, got {duration_ms!r}"
        )
    if rate_per_sec < 1:
        raise InvalidValueError(
            f"rate_per_sec must be >= 1, got {rate_per_sec!r}"
        )
    n = int(duration_ms * rate_per_sec / 1000.0)
    if n == 0:
        raise InvalidValueError(
            "duration and rate produce an empty stream"
        )
    spacing = 1000.0 / rate_per_sec
    event_times = start_time_ms + spacing * np.arange(n, dtype=np.float64)
    values = distribution.sample(n, rng)
    if delay_mean_ms is None:
        arrival_times = event_times.copy()
    else:
        if delay_mean_ms < 0:
            raise InvalidValueError(
                f"delay_mean_ms must be >= 0, got {delay_mean_ms!r}"
            )
        delays = rng.exponential(delay_mean_ms, n) if delay_mean_ms else 0.0
        arrival_times = event_times + delays
    return EventBatch(
        values=values,
        event_times=event_times,
        arrival_times=arrival_times,
    )
