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
import copy
import math

from repro.errors import InvalidValueError


class WatermarkStrategy(abc.ABC):
    """Stateful generator advancing a monotone watermark."""

    def __init__(self) -> None:
        self._watermark = -math.inf

    @property
    def current_watermark(self) -> float:
        return self._watermark

    def fresh(self) -> "WatermarkStrategy":
        """A copy of this strategy back at ``-inf``.

        Each pipeline run advances its own copy, so one strategy object
        can configure any number of runs.
        """
        clone = copy.copy(self)
        clone._watermark = -math.inf
        return clone

    def on_event(self, event_time: float) -> float:
        """Observe an event time; return the (possibly advanced)
        watermark."""
        candidate = self._candidate(event_time)
        if candidate > self._watermark:
            self._watermark = candidate
        return self._watermark

    @abc.abstractmethod
    def _candidate(self, event_time: float) -> float:
        """Watermark implied by seeing *event_time*."""


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
