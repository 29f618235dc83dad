"""``apply_ops`` records one op per ``record`` call, in order.

Every write path (the server's drain, WAL recovery, replication and
what-if replay) hands its ops to ``apply_ops``.  A counting stand-in
for the registry notes each call, so these tests pin the loop itself:
one call per op in stream order, a rejected op counted once without
touching its neighbours, and a stream that fails mid-way leaving every
op before the failure applied.
"""

import numpy as np
import pytest

from repro.errors import InvalidValueError, SerializationError
from repro.service.registry import IngestOp, apply_ops


class CountingRegistry:
    """Stands in for a registry: notes each ``record`` call and refuses
    a batch holding NaN, as a sketch does."""

    def __init__(self):
        self.calls = []

    def record(self, metric, values, ts, tags, now_ms):
        if np.isnan(values).any():
            raise InvalidValueError("cannot ingest NaN")
        self.calls.append((metric, values.tolist(), ts, tags, now_ms))
        return values.size


def op(metric, *values, ts=5.0, tags=None, now=5.0):
    return IngestOp(metric, tags, np.array(values), ts, now)


def test_each_op_is_one_record_in_order():
    # Same-key neighbours, as a replayed log holds them, stay apart.
    ops = [
        op("a", 1.0),
        op("a", 2.0, 3.0),
        op("b", 4.0, tags={"k": "v"}),
        op("a", 5.0, ts=None, now=None),
        op("a", 6.0),
    ]
    registry = CountingRegistry()
    assert apply_ops(registry, ops) == (6, 0)
    assert registry.calls == [
        (o.metric, o.values.tolist(), o.ts, o.tags, o.now) for o in ops
    ]


def test_a_poisoned_op_is_counted_and_its_neighbours_applied_once():
    ops = [op("a", 1.0), op("a", 2.0, np.nan), op("a", 3.0), op("a", np.nan)]
    registry = CountingRegistry()
    assert apply_ops(registry, ops) == (2, 2)
    assert [values for _, values, *_ in registry.calls] == [[1.0], [3.0]]


def test_a_stream_failing_at_the_third_op_leaves_the_first_two_applied():
    """Recovery streams the WAL through ``apply_ops``; a record that
    fails to decode stops it after every record before it applied."""

    def journaled():
        yield op("a", 1.0)
        yield op("b", 2.0)
        raise SerializationError("record 3 does not decode")

    registry = CountingRegistry()
    with pytest.raises(SerializationError):
        apply_ops(registry, journaled())
    assert [metric for metric, *_ in registry.calls] == ["a", "b"]
