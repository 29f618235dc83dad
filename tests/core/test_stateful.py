"""Stateful property tests: sketches vs an exact oracle.

A hypothesis state machine drives a sketch through arbitrary
interleavings of single updates, batch updates, merges of side
sketches, and serialization round-trips, checking after every step
that the sketch still agrees with an exact oracle within its
guarantee.  This is the strongest correctness net in the suite: it
exercises exactly the operation sequences a stream processor performs.
"""

import math

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import (
    DDSketch,
    ExactQuantiles,
    KLLSketch,
    UDDSketch,
    dumps,
    loads,
)

values_strategy = st.floats(
    min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False
)
batches_strategy = st.lists(values_strategy, min_size=1, max_size=50)
quantile_strategy = st.floats(min_value=0.01, max_value=1.0)


def exact_quantile(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(math.ceil(q * len(sorted_values)), 1) - 1]


class DDSketchMachine(RuleBasedStateMachine):
    """DDSketch must never exceed its alpha, whatever we do to it."""

    def __init__(self) -> None:
        super().__init__()
        self.sketch = DDSketch(alpha=0.02)
        self.oracle: list[float] = []

    @rule(value=values_strategy)
    def update_one(self, value):
        self.sketch.update(value)
        self.oracle.append(value)

    @rule(batch=batches_strategy)
    def update_many(self, batch):
        self.sketch.update_batch(batch)
        self.oracle.extend(batch)

    @rule(batch=batches_strategy)
    def merge_side_sketch(self, batch):
        side = DDSketch(alpha=0.02)
        side.update_batch(batch)
        self.sketch.merge(side)
        self.oracle.extend(batch)

    @rule()
    def serialize_round_trip(self):
        self.sketch = loads(dumps(self.sketch))

    @precondition(lambda self: self.oracle)
    @rule(q=quantile_strategy)
    def check_quantile(self, q):
        true = exact_quantile(sorted(self.oracle), q)
        est = self.sketch.quantile(q)
        assert abs(est - true) / true <= 0.02 + 1e-9

    @invariant()
    def count_matches(self):
        assert self.sketch.count == len(self.oracle)

    @invariant()
    def min_max_match(self):
        if self.oracle:
            assert self.sketch.min == min(self.oracle)
            assert self.sketch.max == max(self.oracle)


class UDDSketchMachine(RuleBasedStateMachine):
    """UDDSketch's *current* guarantee must hold through collapses."""

    def __init__(self) -> None:
        super().__init__()
        self.sketch = UDDSketch(
            final_alpha=0.05, num_collapses=6, max_buckets=32
        )
        self.oracle: list[float] = []

    @rule(batch=batches_strategy)
    def update_many(self, batch):
        self.sketch.update_batch(batch)
        self.oracle.extend(batch)

    @rule(batch=batches_strategy)
    def merge_side_sketch(self, batch):
        side = UDDSketch(final_alpha=0.05, num_collapses=6,
                         max_buckets=32)
        side.update_batch(batch)
        self.sketch.merge(side)
        self.oracle.extend(batch)

    @rule()
    def serialize_round_trip(self):
        self.sketch = loads(dumps(self.sketch))

    @precondition(lambda self: self.oracle)
    @rule(q=quantile_strategy)
    def check_quantile(self, q):
        true = exact_quantile(sorted(self.oracle), q)
        est = self.sketch.quantile(q)
        guarantee = self.sketch.guarantee().eps
        assert abs(est - true) / true <= guarantee + 1e-9

    @invariant()
    def bucket_budget_respected(self):
        assert self.sketch.num_buckets <= 32


class KLLMachine(RuleBasedStateMachine):
    """KLL estimates stay actual stream values with bounded space."""

    def __init__(self) -> None:
        super().__init__()
        self.sketch = KLLSketch(max_compactor_size=32, seed=7)
        self.oracle: list[float] = []

    @rule(batch=batches_strategy)
    def update_many(self, batch):
        self.sketch.update_batch(batch)
        self.oracle.extend(batch)

    @rule(batch=batches_strategy)
    def merge_side_sketch(self, batch):
        side = KLLSketch(max_compactor_size=32, seed=11)
        side.update_batch(batch)
        self.sketch.merge(side)
        self.oracle.extend(batch)

    @rule()
    def serialize_round_trip(self):
        self.sketch = loads(dumps(self.sketch))

    @precondition(lambda self: self.oracle)
    @rule(q=quantile_strategy)
    def estimates_come_from_stream(self, q):
        assert self.sketch.quantile(q) in set(self.oracle)

    @invariant()
    def space_bounded(self):
        assert self.sketch.num_retained <= (
            self.sketch._total_capacity() + 64
        )

    @invariant()
    def count_matches(self):
        assert self.sketch.count == len(self.oracle)


class ExactOracleMachine(RuleBasedStateMachine):
    """The oracle itself must match numpy under all operations."""

    def __init__(self) -> None:
        super().__init__()
        self.sketch = ExactQuantiles()
        self.values: list[float] = []

    @rule(batch=batches_strategy)
    def update_many(self, batch):
        self.sketch.update_batch(batch)
        self.values.extend(batch)

    @rule(batch=batches_strategy)
    def merge_side(self, batch):
        side = ExactQuantiles()
        side.update_batch(batch)
        self.sketch.merge(side)
        self.values.extend(batch)

    @precondition(lambda self: self.values)
    @rule(q=quantile_strategy)
    def matches_definition(self, q):
        s = np.sort(np.asarray(self.values))
        expected = float(s[max(math.ceil(q * s.size), 1) - 1])
        assert self.sketch.quantile(q) == expected


_settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)

TestDDSketchStateful = DDSketchMachine.TestCase
TestDDSketchStateful.settings = _settings
TestUDDSketchStateful = UDDSketchMachine.TestCase
TestUDDSketchStateful.settings = _settings
TestKLLStateful = KLLMachine.TestCase
TestKLLStateful.settings = _settings
TestExactOracleStateful = ExactOracleMachine.TestCase
TestExactOracleStateful.settings = _settings
