"""Event-time tumbling windows (Sec 2.5 of the paper).

The paper's experiments use fixed, non-overlapping windows aligned to
multiples of their size: 20 s in Sec 4.2, 5, 10 and 20 s in Sec 4.7.
``assign`` is the definition, one event at a time; ``assign_batch`` is
the same mapping over a whole column of event times, which is what the
engine runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidValueError


@dataclass(frozen=True, slots=True, order=True)
class WindowSpan:
    """A half-open event-time interval ``[start, end)``."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if not self.end > self.start:
            raise InvalidValueError(
                f"window end must exceed start, got "
                f"[{self.start!r}, {self.end!r})"
            )

    @property
    def size(self) -> float:
        return self.end - self.start

    def contains(self, event_time: float) -> bool:
        return self.start <= event_time < self.end


class TumblingEventTimeWindows:
    """Fixed windows of *size_ms*, aligned to multiples of the size."""

    def __init__(self, size_ms: float) -> None:
        if not (math.isfinite(size_ms) and size_ms > 0):
            raise InvalidValueError(
                f"window size must be finite and positive, got {size_ms!r}"
            )
        self.size_ms = float(size_ms)

    def assign(self, event_time: float) -> list[WindowSpan]:
        """The window the event belongs to (exactly one)."""
        start = math.floor(event_time / self.size_ms) * self.size_ms
        return [WindowSpan(start, start + self.size_ms)]

    def assign_batch(
        self, event_times: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Column form of :meth:`assign`: ``(starts, ends)``, one entry
        per event, bit-identical to the scalar bounds."""
        starts = np.floor(event_times / self.size_ms) * self.size_ms
        return starts, starts + self.size_ms
