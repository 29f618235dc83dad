"""Watermark strategies.

A watermark is the engine's claim that no event with a smaller event
time will arrive any more.  Windows fire when the watermark passes their
end; events whose window has already fired are *late* (Sec 2.6).

Strategies mirror Flink's two standard generators:

* :class:`AscendingTimestampsWatermarks` — watermark tracks the maximum
  event time seen (suitable when sources are in order; any out-of-order
  event is immediately late);
* :class:`BoundedOutOfOrdernessWatermarks` — watermark lags the maximum
  event time by a fixed bound, tolerating that much disorder.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.errors import InvalidValueError


class WatermarkStrategy(abc.ABC):
    """Generator of a monotone watermark.

    ``on_event`` / ``current_watermark`` define it one event at a time;
    ``watermarks_before`` is the same fold over a whole column of event
    times, which is what the engine runs (so a run never advances the
    strategy object it was given).
    """

    def __init__(self) -> None:
        self._watermark = -math.inf

    @property
    def current_watermark(self) -> float:
        return self._watermark

    def on_event(self, event_time: float) -> float:
        """Observe an event time; return the (possibly advanced)
        watermark."""
        candidate = self._candidate(event_time)
        if candidate > self._watermark:
            self._watermark = candidate
        return self._watermark

    def watermarks_before(self, event_times: np.ndarray) -> np.ndarray:
        """Column form of :meth:`on_event`, from ``-inf``: entry *i* is
        ``current_watermark`` just before event *i* is observed."""
        before = np.full(event_times.size, -math.inf)
        np.maximum.accumulate(
            self._candidate(event_times[:-1]), out=before[1:]
        )
        return before

    @abc.abstractmethod
    def _candidate(self, event_time: float) -> float:
        """Watermark implied by seeing *event_time* (elementwise on an
        array of event times)."""


class AscendingTimestampsWatermarks(WatermarkStrategy):
    """Watermark equal to the largest event time seen."""

    def _candidate(self, event_time: float) -> float:
        return event_time


class BoundedOutOfOrdernessWatermarks(WatermarkStrategy):
    """Watermark lagging the largest event time by *max_out_of_orderness*
    milliseconds."""

    def __init__(self, max_out_of_orderness_ms: float) -> None:
        if max_out_of_orderness_ms < 0:
            raise InvalidValueError(
                f"max_out_of_orderness_ms must be >= 0, got "
                f"{max_out_of_orderness_ms!r}"
            )
        super().__init__()
        self.max_out_of_orderness_ms = float(max_out_of_orderness_ms)

    def _candidate(self, event_time: float) -> float:
        return event_time - self.max_out_of_orderness_ms
