"""Property-based equivalence of the engine and its reference.

Hypothesis generates arbitrary timestamped batches (values, event
times, delays); the engine and the independent reference
(``tumbling_assignment`` / ``window_values``, which the engine never
calls) must agree *exactly* on window contents, late-drop counts, and
totals — for every stream shape, not just the seeded ones the unit
tests use.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.streams import EventBatch
from repro.streaming import (
    BoundedOutOfOrdernessWatermarks,
    CollectingAggregator,
    CountAggregator,
    StreamEnvironment,
    TumblingEventTimeWindows,
    run_tumbling_batch,
    tumbling_assignment,
    window_values,
)


@st.composite
def event_batches(draw, max_events: int = 60):
    n = draw(st.integers(min_value=1, max_value=max_events))
    values = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0,
                      allow_nan=False, allow_infinity=False),
            min_size=n, max_size=n,
        )
    )
    event_times = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=5_000.0,
                      allow_nan=False, allow_infinity=False),
            min_size=n, max_size=n,
        )
    )
    delays = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=2_000.0,
                      allow_nan=False, allow_infinity=False),
            min_size=n, max_size=n,
        )
    )
    return EventBatch(
        values=np.asarray(values),
        event_times=np.asarray(event_times),
        arrival_times=np.asarray(event_times) + np.asarray(delays),
    )


window_sizes = st.sampled_from([250.0, 500.0, 1_000.0])
bounds = st.sampled_from([0.0, 100.0, 500.0])
lateness = st.sampled_from([0.0, 250.0])


class TestPathEquivalence:
    @given(batch=event_batches(), size=window_sizes,
           bound=bounds, late=lateness)
    @settings(max_examples=120, deadline=None)
    def test_general_equals_vectorised(self, batch, size, bound, late):
        general = (
            StreamEnvironment()
            .from_batch(batch)
            .window(TumblingEventTimeWindows(size))
            .aggregate(
                CollectingAggregator(),
                watermarks=BoundedOutOfOrdernessWatermarks(bound),
                allowed_lateness_ms=late,
            )
        )
        _ordered, _ids, late_mask = tumbling_assignment(
            batch, size, bound, late
        )
        truth = window_values(batch, size, bound, late)
        assert general.total_events == len(batch)
        assert general.dropped_late == int(late_mask.sum())
        general_map = {
            r.window: r.result.tolist() for r in general.results
        }
        assert general_map == {w: v.tolist() for w, v in truth.items()}
        assert [r.event_count for r in general.results] == (
            [truth[r.window].size for r in general.results]
        )

    @given(batch=event_batches(), size=window_sizes)
    @settings(max_examples=80, deadline=None)
    def test_window_values_matches_executor(self, batch, size):
        report = run_tumbling_batch(batch, size, CountAggregator())
        truth = window_values(batch, size)
        assert sum(v.size for v in truth.values()) == (
            report.total_events - report.dropped_late
        )
        for result in report.results:
            assert truth[result.window].size == result.result

    @given(batch=event_batches(), size=window_sizes)
    @settings(max_examples=60, deadline=None)
    def test_nothing_lost_nothing_invented(self, batch, size):
        report = run_tumbling_batch(
            batch, size, CollectingAggregator()
        )
        surviving = sorted(
            value
            for result in report.results
            for value in result.result.tolist()
        )
        # Survivors plus dropped account for exactly the input.
        assert len(surviving) + report.dropped_late == len(batch)
        all_values = sorted(batch.values.tolist())
        # Every survivor is a real input value (multiset inclusion).
        import collections
        input_counts = collections.Counter(all_values)
        surviving_counts = collections.Counter(surviving)
        assert not surviving_counts - input_counts
