"""Watermarks.

A watermark is the engine's claim that no event with a smaller event
time will arrive any more.  Windows fire when the watermark passes their
end; events whose window has already fired are *late* (Sec 2.6).

:class:`BoundedOutOfOrdernessWatermarks` is Flink's standard generator:
the watermark lags the maximum event time seen by a fixed bound,
tolerating that much disorder.  A bound of 0 is Flink's ascending-
timestamps strategy, where any out-of-order event is immediately late.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import InvalidValueError


class BoundedOutOfOrdernessWatermarks:
    """Watermark lagging the largest event time by *max_out_of_orderness*
    milliseconds.

    ``on_event`` / ``current_watermark`` define it one event at a time;
    ``watermarks_before`` is the same fold over a whole column of event
    times, which is what the engine runs (so a run never advances the
    strategy object it was given).
    """

    def __init__(self, max_out_of_orderness_ms: float) -> None:
        if not (
            math.isfinite(max_out_of_orderness_ms)
            and max_out_of_orderness_ms >= 0
        ):
            raise InvalidValueError(
                f"max_out_of_orderness_ms must be finite and >= 0, got "
                f"{max_out_of_orderness_ms!r}"
            )
        self.max_out_of_orderness_ms = float(max_out_of_orderness_ms)
        self._watermark = -math.inf

    @property
    def current_watermark(self) -> float:
        return self._watermark

    def on_event(self, event_time: float) -> float:
        """Observe an event time; return the (possibly advanced)
        watermark."""
        candidate = event_time - self.max_out_of_orderness_ms
        if candidate > self._watermark:
            self._watermark = candidate
        return self._watermark

    def watermarks_before(self, event_times: np.ndarray) -> np.ndarray:
        """Column form of :meth:`on_event`, from ``-inf``: entry *i* is
        ``current_watermark`` just before event *i* is observed."""
        before = np.full(event_times.size, -math.inf)
        np.maximum.accumulate(
            event_times[:-1] - self.max_out_of_orderness_ms, out=before[1:]
        )
        return before
