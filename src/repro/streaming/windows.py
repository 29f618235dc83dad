"""Event-time window assigners (Sec 2.5 of the paper).

Three assigners mirror Flink's: fixed (tumbling) windows — the kind the
paper's experiments use — plus sliding and session windows.  An assigner
maps an event time to the window(s) it belongs to: ``assign`` is the
definition, one event at a time, and ``assign_batch`` is the same
mapping over a whole column of event times, which is what the engine
runs.  Session windows propose ``[t, t + gap)`` per event; the engine
merges the proposals of a key that touch.
"""

from __future__ import annotations

import abc
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

    def intersects(self, other: "WindowSpan") -> bool:
        return self.start < other.end and other.start < self.end

    def cover(self, other: "WindowSpan") -> "WindowSpan":
        """Smallest span covering both (used by session merging)."""
        return WindowSpan(
            min(self.start, other.start), max(self.end, other.end)
        )


#: ``(rows, starts, ends)``: one entry per (event, window) pair.
WindowColumns = tuple[np.ndarray, np.ndarray, np.ndarray]


class WindowAssigner(abc.ABC):
    """Maps an event time to the windows containing it."""

    @abc.abstractmethod
    def assign(self, event_time: float) -> list[WindowSpan]:
        """Windows the event belongs to (tumbling: exactly one)."""

    @abc.abstractmethod
    def assign_batch(self, event_times: np.ndarray) -> WindowColumns:
        """Column form of :meth:`assign`: ``(rows, starts, ends)``.

        One entry per (event, window) pair — ``rows`` indexes
        *event_times* — in event order, each event's windows in the
        order :meth:`assign` lists them, with bit-identical bounds.
        """


class TumblingEventTimeWindows(WindowAssigner):
    """Fixed windows of *size_ms*, aligned to multiples of the size.

    The paper's experiments use 20-second tumbling windows (plus 5 s and
    10 s in the Sec 4.7 sensitivity analysis).
    """

    def __init__(self, size_ms: float) -> None:
        if size_ms <= 0:
            raise InvalidValueError(
                f"window size must be positive, got {size_ms!r}"
            )
        self.size_ms = float(size_ms)

    def assign(self, event_time: float) -> list[WindowSpan]:
        start = math.floor(event_time / self.size_ms) * self.size_ms
        return [WindowSpan(start, start + self.size_ms)]

    def assign_batch(self, event_times: np.ndarray) -> WindowColumns:
        starts = np.floor(event_times / self.size_ms) * self.size_ms
        return np.arange(starts.size), starts, starts + self.size_ms


class SlidingEventTimeWindows(WindowAssigner):
    """Overlapping windows of *size_ms* starting every *slide_ms*."""

    def __init__(self, size_ms: float, slide_ms: float) -> None:
        if size_ms <= 0 or slide_ms <= 0:
            raise InvalidValueError(
                f"size and slide must be positive, got "
                f"{size_ms!r}/{slide_ms!r}"
            )
        if slide_ms > size_ms:
            raise InvalidValueError(
                "slide larger than size leaves gaps between windows"
            )
        self.size_ms = float(size_ms)
        self.slide_ms = float(slide_ms)

    def assign(self, event_time: float) -> list[WindowSpan]:
        last_start = (
            math.floor(event_time / self.slide_ms) * self.slide_ms
        )
        spans = []
        start = last_start
        while start > event_time - self.size_ms:
            spans.append(WindowSpan(start, start + self.size_ms))
            start -= self.slide_ms
        return spans

    def assign_batch(self, event_times: np.ndarray) -> WindowColumns:
        # The scalar loop run on every event at once: round j keeps the
        # events that still have a j-th window.
        rows = np.arange(event_times.size)
        start = np.floor(event_times / self.slide_ms) * self.slide_ms
        lower = event_times - self.size_ms
        row_rounds, start_rounds = [rows[:0]], [start[:0]]
        live = start > lower
        while live.any():
            rows, start, lower = rows[live], start[live], lower[live]
            row_rounds.append(rows)
            start_rounds.append(start)
            start = start - self.slide_ms
            live = start > lower
        rows = np.concatenate(row_rounds)
        by_event = np.argsort(rows, kind="stable")
        starts = np.concatenate(start_rounds)[by_event]
        return rows[by_event], starts, starts + self.size_ms


class SessionWindows(WindowAssigner):
    """Gap-based session windows.

    Each event initially opens a window ``[t, t + gap)``; the engine
    merges overlapping session windows per key, so a burst of events
    separated by less than the gap coalesces into one session.
    """

    def __init__(self, gap_ms: float) -> None:
        if gap_ms <= 0:
            raise InvalidValueError(
                f"session gap must be positive, got {gap_ms!r}"
            )
        self.gap_ms = float(gap_ms)

    def assign(self, event_time: float) -> list[WindowSpan]:
        return [WindowSpan(event_time, event_time + self.gap_ms)]

    def assign_batch(self, event_times: np.ndarray) -> WindowColumns:
        rows = np.arange(event_times.size)
        return rows, event_times, event_times + self.gap_ms

    @property
    def is_merging(self) -> bool:
        return True
