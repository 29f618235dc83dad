"""Event model for the streaming engine.

An event carries a measurement plus two timestamps: the *event time*
assigned at the source and the *arrival time* at the stream processor
(event time plus network delay, Sec 2.5).  The engine always processes
events in arrival order and windows them by event time, which is what
makes late arrivals possible (Sec 2.6).

A stream has two forms: :class:`Event` objects, which user callbacks
(``map``, ``filter``, ``key_by``) see, and :class:`EventColumns`, one
array per field in processing order, which the engine executes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator

import numpy as np

from repro.data.streams import EventBatch
from repro.errors import InvalidValueError


@dataclass(frozen=True, slots=True)
class Event:
    """A single stream record.

    Attributes
    ----------
    value:
        The measurement (e.g. a taxi fare or a power reading).
    event_time:
        Generation timestamp at the source, in ms.
    arrival_time:
        Ingestion timestamp at the engine, in ms; never earlier than
        ``event_time``.
    key:
        Optional partitioning key for keyed streams.
    """

    value: float
    event_time: float
    arrival_time: float
    key: Hashable = None

    @property
    def network_delay(self) -> float:
        """Delay between generation and ingestion, in ms."""
        return self.arrival_time - self.event_time

    def with_key(self, key: Hashable) -> "Event":
        return Event(self.value, self.event_time, self.arrival_time, key)


@dataclass(frozen=True)
class EventColumns:
    """A whole stream as columns, in the order the engine processes it.

    ``key_codes[i]`` indexes ``keys``, the distinct partition keys in
    first-seen order.
    """

    values: np.ndarray
    event_times: np.ndarray
    arrival_times: np.ndarray
    key_codes: np.ndarray
    keys: list[Hashable]

    @classmethod
    def from_batch(
        cls, batch: EventBatch, key: Hashable = None
    ) -> "EventColumns":
        """The batch in arrival order, every event under *key*."""
        ordered = batch.in_arrival_order()
        return cls(
            np.asarray(ordered.values, dtype=np.float64),
            np.asarray(ordered.event_times, dtype=np.float64),
            np.asarray(ordered.arrival_times, dtype=np.float64),
            np.zeros(len(ordered), dtype=np.intp),
            [key],
        )

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "EventColumns":
        """One pass over *events*, kept in the order they are yielded."""
        codes: dict[Hashable, int] = {}
        table = np.array(
            [
                (
                    event.value,
                    event.event_time,
                    event.arrival_time,
                    codes.setdefault(event.key, len(codes)),
                )
                for event in events
            ],
            dtype=np.float64,
        ).reshape(-1, 4)
        if not np.isfinite(table[:, 1:3]).all():
            raise InvalidValueError("event and arrival times must be finite")
        return cls(
            table[:, 0],
            table[:, 1],
            table[:, 2],
            table[:, 3].astype(np.intp),
            list(codes),
        )

    def events(
        self, rows: np.ndarray | slice = slice(None)
    ) -> Iterator[Event]:
        """Box *rows* (default: all) into :class:`Event` objects."""
        for value, event_time, arrival_time, code in zip(
            self.values[rows].tolist(),
            self.event_times[rows].tolist(),
            self.arrival_times[rows].tolist(),
            self.key_codes[rows].tolist(),
        ):
            yield Event(value, event_time, arrival_time, self.keys[code])


def events_from_batch(
    batch: EventBatch, key: Hashable = None
) -> Iterator[Event]:
    """Yield :class:`Event` objects from a column batch, arrival-ordered."""
    return EventColumns.from_batch(batch, key).events()
