"""``TimePartitionedStore.merged`` against an independent chunked fold.

The store answers from a cached *prefix fold* and cached *chunk folds*
(see the module docstring of :mod:`repro.service.store`).  KLL, REQ and
Random spend coin flips in ``merge``, and Moments' sums round, so the
only acceptable result is the one the canonical order gives, folded
from scratch: after every query of a random interleaving of writes,
late writes, compaction, expiry, partition adoption, snapshot/restore
and moving ranges, ``dumps(store.merged(t0, t1))`` must equal
:func:`reference_fold`, written here from the order's definition.
Sketches whose merge is exact (DDSketch, UDDSketch, HDR, Exact, DCS)
must also still equal the plain oldest→newest fold (on every fourth
query in tier 1, on every query in the ``slow`` grid).  The second half
counts merges with a sketch double, so the saving is asserted as a
count, not a timing.
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

START_MS = 1_700_000_000_000.0  # a multiple of every coarse width below
WIDTH_MS = 1_000.0
FINE, COARSE = 8, 3


def geometry(coarse_factor):
    return dict(partition_ms=WIDTH_MS, fine_partitions=FINE,
                coarse_factor=coarse_factor, coarse_partitions=COARSE)


OPS = (("write",) * 5 + ("late",) * 2 + ("jump", "adopt", "restore")
       + ("query",) * 6)
QUERIES = ("trailing", "all", "since", "until", "inner", "old")
#: merged exactly: the chunked fold keeps the sequential fold's bytes
SEQUENTIAL = {"dcs", "ddsketch", "exact", "hdr", "uddsketch",
              "sharded-ddsketch"}


def plain_factory(name):
    return functools.partial(paper_config, name, seed=7)


def sharded_factory(name):
    return functools.partial(ShardedSketch, plain_factory(name), 3)


def _covered(tier, width, t0, t1):
    lo = -math.inf if t0 is None else t0
    hi = math.inf if t1 is None else t1
    return [bucket_id for bucket_id in sorted(tier)
            if bucket_id * width + width > lo and bucket_id * width < hi]


def _merge(view, source):
    if isinstance(source, ShardedSketch):
        source = source._merged_view()
    if not source.is_empty:
        view.merge(source)


def reference_fold(store, t0, t1):
    """The canonical fold, from its definition, into an empty view.

    The covered coarse partitions, ascending; then the covered fine
    partitions but the newest, ascending, where every ``cf``-aligned
    chunk lying wholly between the lowest and the highest of them is
    one fold of its partitions into its own empty view, and every other
    partition is merged alone; then the newest partition.  Reads no
    store cache and shares no code with the store's fold.
    """
    cf = store.coarse_factor
    view = store._view_factory()
    for coarse_id in _covered(store._coarse, store.coarse_ms, t0, t1):
        _merge(view, store._coarse[coarse_id])
    fine = _covered(store._fine, store.partition_ms, t0, t1)
    sealed, newest = fine[:-1], fine[-1:]
    chunks_folded = set()
    for bucket_id in sealed:
        chunk = bucket_id // cf
        whole = (cf > 1 and sealed[0] <= chunk * cf
                 and (chunk + 1) * cf - 1 <= sealed[-1])
        if not whole:
            _merge(view, store._fine[bucket_id])
        elif chunk not in chunks_folded:
            chunks_folded.add(chunk)
            part = store._view_factory()
            for member in range(chunk * cf, (chunk + 1) * cf):
                if member in store._fine:
                    _merge(part, store._fine[member])
            _merge(view, part)
    for bucket_id in newest:
        _merge(view, store._fine[bucket_id])
    return view


def sequential_fold(store, t0, t1):
    """Every covered partition, coarse then fine, each tier by
    ascending id, merged one at a time into an empty view."""
    view = store._view_factory()
    for tier, width in ((store._coarse, store.coarse_ms),
                        (store._fine, store.partition_ms)):
        for bucket_id in _covered(tier, width, t0, t1):
            _merge(view, tier[bucket_id])
    return view


class Replay:
    """One store driven by ``(op, a, b)`` steps, *a* and *b* in [0, 1)."""

    def __init__(self, label, coarse_factor=2, sequential_every=1):
        self.label = label
        # exact-merge sketches: every n-th query also checks the
        # sequential fold's bytes
        self.sequential_every = (
            sequential_every if label in SEQUENTIAL else 0)
        self.factory = FACTORIES[label]
        self.clock = ManualClock(START_MS)
        self.telemetry = Telemetry()
        self.store = TimePartitionedStore(
            self.factory, clock=self.clock, telemetry=self.telemetry,
            **geometry(coarse_factor),
        )
        self.values = np.random.default_rng(5)
        self.queries = 0
        self.chunks_dropped = 0

    def batch(self):
        return 1.0 + self.values.pareto(1.0, int(self.values.integers(20, 90)))

    def step(self, op, a, b):
        store, clock = self.store, self.clock
        if op == "write":  # in order: the newest partition, or a new one
            store.record_batch(self.batch(),
                               timestamp_ms=clock.advance(a * 400.0))
        elif op == "late":  # into an older partition, maybe past the horizon
            self.late(clock.now_ms() - a * 1.2 * store.fine_horizon_ms)
        elif op == "jump":  # whole partitions pass; retention runs
            clock.advance(WIDTH_MS * (1 + int(a * a * 12))
                          + (store.fine_horizon_ms + store.coarse_horizon_ms
                             if b > 0.95 else 0.0))
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

    def late(self, timestamp_ms):
        store = self.store
        chunk = math.floor(timestamp_ms / WIDTH_MS) // store.coarse_factor
        cached = chunk in store._chunks
        if store.record_batch(self.batch(), timestamp_ms=timestamp_ms):
            assert chunk not in store._chunks, "a late write kept its chunk"
            self.chunks_dropped += cached

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
            "trailing": (now - 7 * WIDTH_MS, now),
            "all": (None, None),
            "since": (START_MS + 2 * back, None),
            "until": (None, now - back),
            "inner": (now - 8 * WIDTH_MS, now - back),  # shrinking end
            # ends among the coarse partitions
            "old": (None, now - store.fine_horizon_ms - back),
        }[kind]
        self.queries += 1
        cf = store.coarse_factor  # no chunk outlives its partitions
        assert set(store._chunks) <= {
            bucket_id // cf for bucket_id in store._fine}
        try:
            got = dumps(self.store.merged(t0, t1))
        except EmptySketchError:
            assert sequential_fold(self.store, t0, t1).is_empty
            return
        assert got == dumps(reference_fold(self.store, t0, t1)), (
            f"query {self.queries} ({kind}, b={b}) differs from the "
            "chunked fold"
        )
        every = self.sequential_every
        if every and self.queries % every == 0:
            assert got == dumps(sequential_fold(self.store, t0, t1)), (
                f"query {self.queries} ({kind}, b={b}) differs from the "
                "sequential fold"
            )

    def run(self, seed, steps):
        rng = np.random.default_rng(seed)
        for _ in range(steps):
            self.step(OPS[int(rng.integers(len(OPS)))],
                      float(rng.random()), float(rng.random()))

    def counter(self, name):
        return self.telemetry.snapshot()["counters"].get(name, 0)


FACTORIES = {name: plain_factory(name) for name in sorted(SKETCH_CLASSES)}
FACTORIES.update({
    f"sharded-{name}": sharded_factory(name)
    for name in ("kll", "req", "ddsketch")
})


@pytest.mark.parametrize("label", list(FACTORIES))
def test_seeded_interleaving_matches_from_scratch_fold(label):
    replay = Replay(label, sequential_every=4)
    replay.run(20230328, 400)
    # the script must have exercised the thing it is about
    assert replay.counter("store.view_prefix_hit") >= 25
    assert replay.counter("store.view_prefix_rebuild") >= 25
    assert replay.counter("store.view_chunk_builds") >= 10
    assert replay.chunks_dropped >= 1
    assert replay.store.events_expired > 0  # compacted, then aged out


@pytest.mark.slow
@pytest.mark.parametrize("coarse_factor", [1, 4, 8])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("label", list(FACTORIES))
def test_wide_interleavings_match_the_chunked_fold(label, seed, coarse_factor):
    replay = Replay(label, coarse_factor)
    replay.run(seed, 500)
    if coarse_factor == 1:
        assert replay.counter("store.view_chunk_builds") == 0


unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
scripts = st.lists(st.tuples(st.sampled_from(OPS), unit, unit),
                   min_size=5, max_size=80)


@pytest.mark.parametrize("label", ["kll", "sharded-kll"])
@settings(max_examples=40, deadline=None)
@given(script=scripts)
def test_any_interleaving_matches_from_scratch_fold(label, script):
    replay = Replay(label, coarse_factor=4)  # heads and tails of 1-3
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


def dd_store(clock, telemetry=None):
    return TimePartitionedStore(
        functools.partial(DDSketch, alpha=0.01), clock=clock,
        partition_ms=WIDTH_MS, fine_partitions=60, telemetry=telemetry,
    )  # coarse_factor 8: chunks of 8 partitions


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
    # cold: the 31 covered partitions once each, and each of the 3
    # chunk folds (ids 16-39 past START) once more into the prefix
    assert spent[0] == 31 + 3
    assert max(spent[1:]) <= 2  # the hits: the newest into a copy
    assert sum(spent[1:]) < sum(spent[:1])


def test_a_slid_window_refolds_from_its_cached_chunks(merges):
    cf, n = 8, 30  # coarse_factor; sealed partitions a window covers
    bound = 2 * (cf - 1) + math.ceil(n / cf) + 1
    clock = ManualClock(START_MS)
    telemetry = Telemetry()
    store = dd_store(clock, telemetry)

    def builds():
        return telemetry.snapshot()["counters"].get(
            "store.view_chunk_builds", 0)

    fill(store, clock, 40)
    store.merged(clock.now_ms() - n * WIDTH_MS, clock.now_ms())
    spent = []
    for _ in range(24):  # the window slides by one partition each time
        fill(store, clock, 1)
        now, built, before = clock.now_ms(), builds(), len(merges)
        assert store.merged(now - n * WIDTH_MS, now).count == store.count(
            now - n * WIDTH_MS, now)
        # a chunk that just formed is folded once, from its partitions
        spent.append(len(merges) - before - cf * (builds() - built))
    assert max(spent) <= bound  # 19 here; a sequential refold spends 31
    assert sum(spent) <= 24 * 12


def test_all_time_query_merges_only_the_partitions_passed_since(merges):
    clock = ManualClock(START_MS)
    store = dd_store(clock)
    fill(store, clock, 20)  # ids 1-20 past START: 7 head, chunk 1, tail
    store.merged()
    spent = []
    for passed in (1, 3, 7):
        fill(store, clock, passed)
        before = len(merges)
        assert store.merged().count == store.count()
        spent.append(len(merges) - before)
    # 1 passed: one tail partition and the newest.  3 passed: chunk 2
    # formed, so a refold of 7 head partitions, cached chunk 1, chunk 2
    # built (8 merges) and folded, and the newest.  7 passed: the 7
    # tail partitions passed since and the newest.
    assert spent == [1 + 1, 7 + 1 + 8 + 1 + 1, 7 + 1]


def test_late_write_into_the_prefix_refolds(merges):
    clock = ManualClock(START_MS)
    store = dd_store(clock)
    fill(store, clock, 20)
    store.merged()
    # into id 12, inside chunk 1 (ids 8-15): the prefix and that chunk go
    store.record_batch([9.0], timestamp_ms=clock.now_ms() - 8 * WIDTH_MS)
    before = len(merges)
    assert store.merged().count == 61
    # 7 head, chunk 1 rebuilt (8) and folded, 4 tail, the newest
    assert len(merges) - before == 7 + 8 + 1 + 4 + 1
