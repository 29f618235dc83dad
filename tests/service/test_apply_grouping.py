"""``apply_ops`` groups without changing state.

Every write path hands ``apply_ops`` its whole slice of ops, and it
records each run of adjacent ops with equal ``(metric, tags, ts, now)``,
cut at ``MAX_RUN_OPS``, as one concatenated batch, re-recording a
rejected run op by op.  One
call over a stream must therefore leave the bytes, and count the
accepted values and rejected ops, that one call per op does.  Streams
come from 2 metrics x 2 tag sets x small ``ts``/``now`` sets, drawn as
runs so that same-key neighbours are common, with NaN and ±inf poisoned
into some ops; ``now`` reaches past the fine horizon, so some runs are
dropped late and some applies compact.  The tier-1 slice is small; the
wide grid is ``slow``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import paper_config
from repro.service import ManualClock, MetricRegistry
from repro.service.registry import MAX_RUN_OPS, IngestOp, apply_ops

#: name -> (sketch, hot metrics): the last one shards "lat".
REGISTRIES = {
    "kll": ("kll", ()),
    "ddsketch": ("ddsketch", ()),
    "req": ("req", ()),
    "kll-sharded": ("kll", ("lat",)),
}

KEYS = [
    (metric, tags, ts, now)
    for metric in ("lat", "rps")
    for tags in (None, {"a": "b"})
    for ts in (None, 0.0, 900.0, 2_500.0)
    for now in (None, 3_000.0, 70_000.0)
]

RUN = st.tuples(
    st.integers(0, len(KEYS) - 1),  # the run's key
    st.integers(1, 4),  # ops in the run
    st.integers(0, 2**32 - 1),  # value seed
    st.sampled_from([None, None, None, np.nan, np.inf, -np.inf]),
)


def ops_of(runs, max_size):
    ops = []
    for key, length, seed, poison in runs:
        metric, tags, ts, now = KEYS[key]
        rng = np.random.default_rng(seed)
        for index in range(length):
            values = 1.0 + rng.pareto(1.0, int(rng.integers(1, max_size)))
            if poison is not None and index == length - 1:
                values[int(rng.integers(values.size))] = poison
            ops.append(IngestOp(metric, tags, values, ts, now))
    return ops


def registry(name):
    sketch, hot = REGISTRIES[name]
    return MetricRegistry(
        lambda: paper_config(sketch, seed=7),
        ManualClock(3_000.0),
        hot_metrics=hot,
        n_shards=2,
    )


def snapshots(reg):
    return {
        str(key): reg.get(key.name, key.as_dict()).snapshot()
        for key in reg.keys()
    }


def check_grouping(name, runs, max_size):
    ops = ops_of(runs, max_size)
    grouped = registry(name)
    outcome = apply_ops(grouped, ops)
    single = registry(name)
    counts = [apply_ops(single, [op]) for op in ops]
    assert outcome == (
        sum(accepted for accepted, _ in counts),
        sum(rejected for _, rejected in counts),
    )
    assert snapshots(grouped) == snapshots(single)


@pytest.mark.parametrize("name", sorted(REGISTRIES))
@settings(max_examples=40, deadline=None)
@given(runs=st.lists(RUN, min_size=1, max_size=8))
def test_one_call_equals_one_call_per_op(name, runs):
    check_grouping(name, runs, max_size=40)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(REGISTRIES))
@settings(max_examples=300, deadline=None)
@given(runs=st.lists(RUN, min_size=1, max_size=30))
def test_one_call_equals_one_call_per_op_wide(name, runs):
    check_grouping(name, runs, max_size=400)



class BatchSizes:
    """Stands in for a registry: notes each ``record``'s batch size."""

    def __init__(self):
        self.sizes = []

    def record(self, metric, values, ts, tags, now_ms):
        self.sizes.append(values.size)
        return values.size


def test_a_long_run_is_cut_at_max_run_ops():
    """A replayed log can be one same-key stretch; it is recorded
    ``MAX_RUN_OPS`` ops at a time, read lazily, never listed whole."""
    count = 2 * MAX_RUN_OPS + 1
    ops = (
        IngestOp("lat", None, np.array([1.0]), 5.0, 5.0)
        for _ in range(count)
    )
    sizes = BatchSizes()
    assert apply_ops(sizes, ops) == (count, 0)
    assert sizes.sizes == [MAX_RUN_OPS, MAX_RUN_OPS, 1]
