"""``TimePartitionedStore.merged`` against a from-scratch fold.

The store answers beside writes from a cached *prefix fold* (see the
module docstring of :mod:`repro.service.store`).  KLL, REQ and Random
spend coin flips in ``merge``, so the only acceptable result is the one
the plain oldest→newest fold from an empty sketch gives: after every
query of a random interleaving of writes, late writes, compaction,
expiry, partition adoption, snapshot/restore and moving ranges,
``dumps(store.merged(t0, t1))`` must equal that fold's bytes.  The
second half counts merges with a sketch double, so the saving is
asserted as a count, not a timing.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SKETCH_CLASSES, DDSketch, dumps, paper_config
from repro.errors import EmptySketchError
from repro.obs import Telemetry
from repro.parallel import ShardedSketch
from repro.service import ManualClock, TimePartitionedStore

START_MS = 1_700_000_000_000.0
WIDTH_MS = 1_000.0
GEOMETRY = dict(
    partition_ms=WIDTH_MS, fine_partitions=8, coarse_factor=4,
    coarse_partitions=3,
)
#: fine horizon + coarse horizon, in ms: a jump this long expires all
FULL_HORIZON_MS = WIDTH_MS * (8 + 4 * 3)

OPS = (("write",) * 5 + ("late",) * 2 + ("jump", "adopt", "restore")
       + ("query",) * 6)
QUERIES = ("trailing", "all", "since", "until", "inner", "old")


def plain_factory(name):
    return functools.partial(paper_config, name, seed=7)


def sharded_factory(name):
    return functools.partial(ShardedSketch, plain_factory(name), 3)


def reference_fold(store, t0, t1):
    """What ``merged`` did before it kept anything: every partition
    intersecting the range, coarse then fine, each tier by ascending
    id, merged into an empty view."""
    lo = -math.inf if t0 is None else t0
    hi = math.inf if t1 is None else t1
    view = store._view_factory()
    for tier, width in ((store._coarse, store.coarse_ms),
                        (store._fine, store.partition_ms)):
        for bucket_id in sorted(tier):
            start = bucket_id * width
            if start + width > lo and start < hi:
                source = tier[bucket_id]
                if isinstance(source, ShardedSketch):
                    source = source._merged_view()
                if not source.is_empty:
                    view.merge(source)
    return view


class Replay:
    """One store driven by ``(op, a, b)`` steps, *a* and *b* in [0, 1)."""

    def __init__(self, factory):
        self.factory = factory
        self.clock = ManualClock(START_MS)
        self.telemetry = Telemetry()
        self.store = TimePartitionedStore(
            factory, clock=self.clock, telemetry=self.telemetry, **GEOMETRY
        )
        self.values = np.random.default_rng(5)
        self.queries = 0

    def batch(self):
        return 1.0 + self.values.pareto(1.0, int(self.values.integers(20, 90)))

    def step(self, op, a, b):
        store, clock = self.store, self.clock
        if op == "write":  # in order: the newest partition, or a new one
            store.record_batch(self.batch(),
                               timestamp_ms=clock.advance(a * 400.0))
        elif op == "late":  # into an older partition, maybe past the horizon
            store.record_batch(
                self.batch(),
                timestamp_ms=clock.now_ms() - a * 1.2 * store.fine_horizon_ms)
        elif op == "jump":  # whole partitions pass; retention runs
            clock.advance(WIDTH_MS * (1 + int(a * a * 12))
                          + (FULL_HORIZON_MS if b > 0.95 else 0.0))
            if b < 0.5:
                store.compact()
        elif op == "adopt":
            self.adopt(a)
        elif op == "restore":
            self.store = TimePartitionedStore.restore(
                store.snapshot(), self.factory, clock=clock,
                telemetry=self.telemetry)
        else:
            self.query(QUERIES[int(a * len(QUERIES))], b)

    def adopt(self, a):
        """A peer that saw one more late batch hands its partitions over."""
        peer = TimePartitionedStore.restore(
            self.store.snapshot(), self.factory, clock=self.clock)
        peer.record_batch(
            self.batch(),
            timestamp_ms=self.clock.now_ms() - a * self.store.fine_horizon_ms)
        mine, theirs = self.store.partition_digests(), peer.partition_digests()
        differing = [key for key in theirs if mine.get(key) != theirs[key]]
        self.store.adopt_partitions(
            peer.export_partitions(differing), theirs, peer.sync_counters())

    def query(self, kind, b):
        store, now = self.store, self.clock.now_ms()
        back = int(b * 4) * WIDTH_MS
        t0, t1 = {
            "trailing": (now - 5 * WIDTH_MS, now),
            "all": (None, None),
            "since": (START_MS + 2 * back, None),
            "until": (None, now - back),
            "inner": (now - 6 * WIDTH_MS, now - back),  # shrinking end
            # ends among the coarse partitions
            "old": (None, now - store.fine_horizon_ms - back),
        }[kind]
        self.queries += 1
        try:
            got = dumps(self.store.merged(t0, t1))
        except EmptySketchError:
            assert reference_fold(self.store, t0, t1).is_empty
            return
        assert got == dumps(reference_fold(self.store, t0, t1)), (
            f"query {self.queries} ({kind}, b={b}) differs from the "
            "from-scratch fold"
        )

    def counter(self, name):
        return self.telemetry.snapshot()["counters"].get(name, 0)


FACTORIES = {name: plain_factory(name) for name in sorted(SKETCH_CLASSES)}
FACTORIES.update({
    f"sharded-{name}": sharded_factory(name)
    for name in ("kll", "req", "ddsketch")
})


@pytest.mark.parametrize("label", list(FACTORIES))
def test_seeded_interleaving_matches_from_scratch_fold(label):
    steps = np.random.default_rng(20230328)
    replay = Replay(FACTORIES[label])
    for _ in range(400):
        replay.step(OPS[int(steps.integers(len(OPS)))],
                    float(steps.random()), float(steps.random()))
    # the script must have exercised the thing it is about
    assert replay.counter("store.view_prefix_hit") >= 25
    assert replay.counter("store.view_prefix_rebuild") >= 25
    assert replay.store.events_expired > 0  # compacted, then aged out


unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
scripts = st.lists(st.tuples(st.sampled_from(OPS), unit, unit),
                   min_size=5, max_size=80)


@pytest.mark.parametrize("label", ["kll", "sharded-kll"])
@settings(max_examples=40, deadline=None)
@given(script=scripts)
def test_any_interleaving_matches_from_scratch_fold(label, script):
    replay = Replay(FACTORIES[label])
    for op, a, b in script:
        replay.step(op, a, b)
    replay.query("all", 0.0)
    replay.query("trailing", 0.0)


# ----------------------------------------------------------------------
# Merge counts
# ----------------------------------------------------------------------


@pytest.fixture
def merges(monkeypatch):
    """Every ``DDSketch.merge`` in the process, copies included."""
    calls = []
    real = DDSketch.merge

    def counted(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(DDSketch, "merge", counted)
    return calls


def dd_store(clock):
    return TimePartitionedStore(
        functools.partial(DDSketch, alpha=0.01), clock=clock,
        partition_ms=WIDTH_MS, fine_partitions=60,
    )


def fill(store, clock, partitions):
    for _ in range(partitions):
        store.record_batch([1.0, 2.0, 3.0],
                           timestamp_ms=clock.advance(WIDTH_MS))


def test_trailing_window_beside_writes_merges_twice_at_most(merges):
    clock = ManualClock(START_MS)
    store = dd_store(clock)
    fill(store, clock, 40)
    window = 30 * WIDTH_MS
    spent = []
    for _ in range(20):  # 20 x 45 ms: inside one partition width
        now = clock.advance(45.0)
        store.record_batch([4.0, 5.0], timestamp_ms=now)
        before = len(merges)
        view = store.merged(now - window, now)
        spent.append(len(merges) - before)
        assert view.count == store.count(now - window, now)
    assert spent[0] == 31  # the 31 covered partitions, once
    assert max(spent[1:]) <= 2
    assert sum(spent[1:]) < sum(spent[:1])


def test_all_time_query_merges_only_the_partitions_passed_since(merges):
    clock = ManualClock(START_MS)
    store = dd_store(clock)
    fill(store, clock, 20)
    store.merged()
    for passed in (1, 3, 7):
        fill(store, clock, passed)
        before = len(merges)
        assert store.merged().count == store.count()
        assert len(merges) - before <= passed + 1


def test_late_write_into_the_prefix_refolds(merges):
    clock = ManualClock(START_MS)
    store = dd_store(clock)
    fill(store, clock, 10)
    store.merged()
    store.record_batch([9.0], timestamp_ms=clock.now_ms() - 4 * WIDTH_MS)
    before = len(merges)
    assert store.merged().count == 31
    assert len(merges) - before == 10
