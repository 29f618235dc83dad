"""Unit tests for the event model."""

import math

import numpy as np
import pytest

from repro.data.streams import EventBatch
from repro.errors import InvalidValueError
from repro.streaming.events import Event, EventColumns, events_from_batch


class TestEvent:
    def test_network_delay(self):
        event = Event(1.0, event_time=100.0, arrival_time=130.0)
        assert event.network_delay == 30.0

    def test_with_key(self):
        event = Event(1.0, 0.0, 0.0)
        keyed = event.with_key("sensor-1")
        assert keyed.key == "sensor-1"
        assert keyed.value == event.value
        assert event.key is None  # original untouched

    def test_frozen(self):
        event = Event(1.0, 0.0, 0.0)
        import dataclasses
        import pytest
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.value = 2.0


class TestEventsFromBatch:
    def test_yields_in_arrival_order(self):
        batch = EventBatch(
            values=np.asarray([1.0, 2.0, 3.0]),
            event_times=np.asarray([0.0, 10.0, 20.0]),
            arrival_times=np.asarray([50.0, 12.0, 21.0]),
        )
        events = list(events_from_batch(batch))
        assert [e.value for e in events] == [2.0, 3.0, 1.0]
        arrivals = [e.arrival_time for e in events]
        assert arrivals == sorted(arrivals)

    def test_key_applied(self):
        batch = EventBatch(
            values=np.asarray([1.0]),
            event_times=np.asarray([0.0]),
            arrival_times=np.asarray([0.0]),
        )
        [event] = events_from_batch(batch, key="k")
        assert event.key == "k"

    def test_types_are_python_floats(self):
        batch = EventBatch(
            values=np.asarray([1.5]),
            event_times=np.asarray([2.0]),
            arrival_times=np.asarray([3.0]),
        )
        [event] = events_from_batch(batch)
        assert isinstance(event.value, float)
        assert isinstance(event.event_time, float)


class TestEventColumns:
    def test_round_trip_keeps_order_and_keys(self):
        events = [
            Event(1.0, 5.0, 9.0, "b"),
            Event(2.0, 3.0, 4.0, "a"),
            Event(3.0, 1.0, 2.0, "b"),
        ]
        columns = EventColumns.from_events(iter(events))
        assert columns.keys == ["b", "a"]  # first-seen order
        assert columns.key_codes.tolist() == [0, 1, 0]
        assert list(columns.events()) == events  # not re-sorted
        assert list(columns.events(np.asarray([2]))) == events[2:]

    def test_empty_stream(self):
        columns = EventColumns.from_events([])
        assert columns.values.size == columns.key_codes.size == 0
        assert list(columns.events()) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["event_time", "arrival_time"])
    def test_non_finite_times_rejected(self, field, bad):
        # A map/key_by callback can yield any Event; the columns refuse
        # a time no watermark or window can compare.
        times = {"event_time": 10.0, "arrival_time": 10.0, field: bad}
        events = [Event(1.0, 0.0, 0.0), Event(2.0, **times)]
        with pytest.raises(InvalidValueError, match="finite"):
            EventColumns.from_events(events)
