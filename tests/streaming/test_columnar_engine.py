"""The engine's column forms held to the scalar definitions.

``TumblingEventTimeWindows.assign`` and
``BoundedOutOfOrdernessWatermarks.on_event`` define the semantics one
event at a time; the engine runs ``assign_batch`` and
``watermarks_before`` over whole columns.  These tests pin the two
together: the column forms event for event, and a whole ``aggregate``
run against a per-event oracle written only with the scalar definitions
and a dict of lists.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.streams import EventBatch
from repro.streaming import (
    BoundedOutOfOrdernessWatermarks,
    StreamEnvironment,
    TumblingEventTimeWindows,
)

WINDOW_MS = 500.0

times = st.lists(
    st.floats(min_value=-5_000.0, max_value=5_000.0,
              allow_nan=False, allow_infinity=False),
    max_size=40,
)


class TestColumnForms:
    @given(
        ts=times,
        assigner=st.sampled_from([
            TumblingEventTimeWindows(WINDOW_MS),
            TumblingEventTimeWindows(0.1),
            TumblingEventTimeWindows(0.7),
        ]),
    )
    @settings(max_examples=200, deadline=None)
    def test_assign_batch_equals_assign(self, ts, assigner):
        starts, ends = assigner.assign_batch(np.asarray(ts, float))
        scalar = [
            (window.start, window.end)
            for t in ts
            for window in assigner.assign(t)
        ]
        assert list(zip(starts.tolist(), ends.tolist())) == scalar

    @given(
        ts=times,
        bound=st.sampled_from([0.0, 100.0, 0.1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_watermark_column_equals_on_event_fold(self, ts, bound):
        folded, seen = BoundedOutOfOrdernessWatermarks(bound), []
        for t in ts:
            seen.append(folded.current_watermark)
            folded.on_event(t)
        strategy = BoundedOutOfOrdernessWatermarks(bound)
        column = strategy.watermarks_before(np.asarray(ts, float))
        assert column.tolist() == seen
        assert strategy.current_watermark == -math.inf  # only read


class InOrder:
    """Keeps a pane's values in the order they were added."""

    def create_accumulator(self):
        return []

    def add_batch(self, accumulator, values):
        return accumulator + np.asarray(values).tolist()

    def get_result(self, accumulator):
        return accumulator


def oracle(batch, assigner, strategy, lateness):
    """A windowed run, one event at a time over the batch in arrival
    order: the fired panes as ``(span, values in arrival order)`` in
    firing order, and the drops."""
    ordered = batch.in_arrival_order()
    panes = {}  # span -> [(arrival position, value)], ascending
    fired, dropped = [], 0

    def fire(watermark):
        ready = [span for span in panes if span.end + lateness <= watermark]
        ready.sort(key=lambda span: (span.end + lateness, panes[span][0][0]))
        for span in ready:
            fired.append((span, [value for _, value in panes.pop(span)]))

    for position, (value, t) in enumerate(
        zip(ordered.values.tolist(), ordered.event_times.tolist())
    ):
        [window] = assigner.assign(t)
        if window.end + lateness > strategy.current_watermark:
            panes.setdefault(window, []).append((position, value))
        else:
            dropped += 1
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
    "bound,lateness",
    list(itertools.product((0.0, 100.0, 500.0), (0.0, 250.0))),
)
def test_aggregate_equals_per_event_oracle(bound, lateness):
    batch = delayed_batch(seed=11)
    expected, dropped = oracle(
        batch, TumblingEventTimeWindows(WINDOW_MS),
        BoundedOutOfOrdernessWatermarks(bound), lateness,
    )
    report = (
        StreamEnvironment()
        .from_batch(batch)
        .window(TumblingEventTimeWindows(WINDOW_MS))
        .aggregate(
            InOrder(), BoundedOutOfOrdernessWatermarks(bound), lateness
        )
    )
    assert [(r.window, r.result) for r in report.results] == expected
    assert [r.event_count for r in report.results] == (
        [len(values) for _, values in expected]
    )
    assert report.dropped_late == dropped
    assert report.total_events == EVENTS
    if bound < 500.0:
        assert dropped > 0  # the stream genuinely drops