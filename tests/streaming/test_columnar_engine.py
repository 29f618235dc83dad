"""The engine's column forms held to the scalar definitions.

``WindowAssigner.assign`` and ``WatermarkStrategy.on_event`` define the
semantics one event at a time; the engine runs ``assign_batch`` and
``watermarks_before`` over whole columns.  These tests pin the two
together: the column forms pair for pair, and a whole ``aggregate`` run
against a per-event oracle written only with the scalar definitions and
a dict of lists.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.streams import EventBatch
from repro.streaming import (
    AggregateFunction,
    AscendingTimestampsWatermarks,
    BoundedOutOfOrdernessWatermarks,
    SessionWindows,
    SlidingEventTimeWindows,
    StreamEnvironment,
    TumblingEventTimeWindows,
)

ASSIGNERS = {
    "tumbling": lambda: TumblingEventTimeWindows(500.0),
    "sliding": lambda: SlidingEventTimeWindows(1_000.0, 250.0),
    "session": lambda: SessionWindows(40.0),
}

times = st.lists(
    st.floats(min_value=-5_000.0, max_value=5_000.0,
              allow_nan=False, allow_infinity=False),
    max_size=40,
)


class TestColumnForms:
    @given(
        ts=times,
        assigner=st.sampled_from([
            TumblingEventTimeWindows(500.0),
            TumblingEventTimeWindows(0.1),
            SlidingEventTimeWindows(1_000.0, 250.0),
            SlidingEventTimeWindows(1_000.0, 300.0),
            SlidingEventTimeWindows(0.7, 0.2),
            SlidingEventTimeWindows(500.0, 500.0),
            SessionWindows(40.0),
            SessionWindows(0.3),
        ]),
    )
    @settings(max_examples=200, deadline=None)
    def test_assign_batch_equals_assign(self, ts, assigner):
        rows, starts, ends = assigner.assign_batch(np.asarray(ts, float))
        scalar = [
            (row, window.start, window.end)
            for row, t in enumerate(ts)
            for window in assigner.assign(t)
        ]
        assert list(
            zip(rows.tolist(), starts.tolist(), ends.tolist())
        ) == scalar

    @given(
        ts=times,
        make=st.sampled_from([
            AscendingTimestampsWatermarks,
            lambda: BoundedOutOfOrdernessWatermarks(0.0),
            lambda: BoundedOutOfOrdernessWatermarks(100.0),
            lambda: BoundedOutOfOrdernessWatermarks(0.1),
        ]),
    )
    @settings(max_examples=200, deadline=None)
    def test_watermark_column_equals_on_event_fold(self, ts, make):
        folded, seen = make(), []
        for t in ts:
            seen.append(folded.current_watermark)
            folded.on_event(t)
        strategy = make()
        column = strategy.watermarks_before(np.asarray(ts, float))
        assert column.tolist() == seen
        assert strategy.current_watermark == -math.inf  # only read


class InOrder(AggregateFunction):
    """Keeps a pane's values in the order they were added."""

    def create_accumulator(self):
        return []

    def add(self, accumulator, value):
        return accumulator + [value]

    def add_batch(self, accumulator, values):
        return accumulator + np.asarray(values).tolist()

    def merge(self, a, b):
        return a + b

    def get_result(self, accumulator):
        return accumulator


def oracle(events, assigner, strategy, lateness, ingestion):
    """A windowed run, one event at a time: the fired panes as ``(key,
    span, values in arrival order)`` in firing order, and the drops."""
    panes = {}  # (key, span) -> [(arrival position, value)], ascending
    fired, dropped = [], 0

    def fire(watermark):
        ready = [p for p in panes if p[1].end + lateness <= watermark]
        ready.sort(key=lambda p: (p[1].end + lateness, panes[p][0][0]))
        for key, span in ready:
            members = panes.pop((key, span))
            fired.append((key, span, [value for _, value in members]))

    for position, event in enumerate(events):
        t = event.arrival_time if ingestion else event.event_time
        accepted = [
            window for window in assigner.assign(t)
            if window.end + lateness > strategy.current_watermark
        ]
        dropped += not accepted
        for window in accepted:
            members = [(position, event.value)]
            if isinstance(assigner, SessionWindows):
                touching = [
                    p for p in panes
                    if p[0] == event.key and p[1].intersects(window)
                ]
                for pane in touching:
                    window = window.cover(pane[1])
                    members += panes.pop(pane)
            pane = (event.key, window)
            panes[pane] = sorted(panes.get(pane, []) + members)
        fire(strategy.on_event(t))
    fire(math.inf)
    return fired, dropped


EVENTS = 300


def delayed_batch(seed):
    rng = np.random.default_rng(seed)
    n = EVENTS
    # Rounded event times: panes tie on their firing time and events
    # tie on the watermark, so the tie-breaking rules are exercised.
    event_times = np.round(rng.uniform(0.0, 5_000.0, n) / 20.0) * 20.0
    return EventBatch(
        values=rng.uniform(0.0, 100.0, n),
        event_times=event_times,
        arrival_times=event_times + rng.exponential(300.0, n),
    )


@pytest.mark.parametrize(
    "kind,keyed,bound,lateness,characteristic",
    list(itertools.product(
        ASSIGNERS, (False, True), (0.0, 100.0, 500.0), (0.0, 250.0),
        ("event", "ingestion"),
    )),
)
def test_aggregate_equals_per_event_oracle(
    kind, keyed, bound, lateness, characteristic
):
    stream = StreamEnvironment().from_batch(delayed_batch(seed=11))
    if keyed:
        stream = stream.key_by(lambda e: int(e.value) % 3)
    expected, dropped = oracle(
        list(stream), ASSIGNERS[kind](),
        BoundedOutOfOrdernessWatermarks(bound), lateness,
        characteristic == "ingestion",
    )
    report = stream.window(ASSIGNERS[kind]()).aggregate(
        InOrder(), BoundedOutOfOrdernessWatermarks(bound), lateness,
        time_characteristic=characteristic,
    )
    assert [
        (r.key, r.window, r.result) for r in report.results
    ] == expected
    assert [r.event_count for r in report.results] == (
        [len(values) for _, _, values in expected]
    )
    assert report.dropped_late == dropped
    assert report.total_events == EVENTS
    if characteristic == "event" and bound < 500.0:
        assert dropped > 0  # the stream genuinely drops
