"""A sparse store's sorted arrays hold exactly the buckets fed to it.

``SparseStore`` is its read-only ascending ``(indices, counts)`` arrays
plus the scalar adds that the next read folds in.  Seeded interleavings
of every step that moves a store — scalar adds of existing and of new
keys, batches of 1, 31, 32 and 300 values into empty and non-empty
stores, merges with sparse, dense and empty operands (UDDSketch's also
at fewer and at more collapses), ``set_collapsed``, ``copy`` and
``loads(dumps())`` — run on a bare store, on UDDSketch and on
``DDSketch(store="sparse")``, with reads between some of the steps.
Beside each subject runs an oracle: plain dicts of bucket counts, fed
the same inputs, that collapse one level at a time with Python
integers.  After every step:

* ``num_buckets``, ``holds`` and ``total`` (none of which folds) agree
  with the oracle, and so do a sketch's count, collapses and gamma;
* after a read, ``sorted_arrays()`` and ``items()`` equal the oracle's
  buckets, ascending, as read-only int64 arrays;
* copies and ``BucketView``\\ s taken earlier have not moved.

Tier 1 runs a few interleavings; the ``slow`` grid runs many more.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core import DDSketch, UDDSketch, dumps, loads
from repro.core.codec import Reader, Writer
from repro.core.mapping import MIN_INDEXABLE_VALUE, LogarithmicMapping
from repro.core.serialization import _read_store, _write_store
from repro.core.store import BucketStore, BucketView, DenseStore, SparseStore
from repro.errors import SerializationError

QS = (0.001, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0)
STEPS = ("add_existing", "add_new", "batch", "batch", "merge", "merge",
         "collapse", "copy", "roundtrip", "fresh")
BUDGET = 24


# -- the oracle ------------------------------------------------------------


def collapsed_keys(buckets: dict[int, int], levels: int) -> dict[int, int]:
    """*buckets* with every key ``i`` moved to ``ceil(i / 2**levels)``."""
    out: dict[int, int] = {}
    for index, count in buckets.items():
        key = -(-index // (1 << levels))
        out[key] = out.get(key, 0) + count
    return out


def added(buckets: dict[int, int], more: dict[int, int]) -> None:
    for index, count in more.items():
        buckets[index] = buckets.get(index, 0) + count


def counted(indices: list[int]) -> dict[int, int]:
    """One count per occurrence of each index."""
    buckets: dict[int, int] = {}
    for index in indices:
        buckets[index] = buckets.get(index, 0) + 1
    return buckets


class SketchOracle:
    """The buckets a DDSketch, or a UDDSketch of *budget* buckets, holds
    after the values fed to it: one dict per sign, collapsed one level
    at a time while the buckets exceed the budget."""

    def __init__(self, mapping: LogarithmicMapping, budget: int | None):
        self.stores: list[dict[int, int]] = [{}, {}]  # positive, negative
        self.mapping = mapping
        self.budget = budget
        self.count = 0
        self.levels = 0

    def add(self, values: list[float]) -> None:
        for value in values:
            if value > MIN_INDEXABLE_VALUE:
                added(self.stores[0], {self.mapping.index(value): 1})
            elif value < -MIN_INDEXABLE_VALUE:
                added(self.stores[1], {self.mapping.index(-value): 1})
        self.count += len(values)
        self.settle()

    def settle(self) -> None:
        while self.budget and sum(map(len, self.stores)) > self.budget:
            self.collapse_once()

    def collapse_once(self) -> None:
        self.stores = [collapsed_keys(store, 1) for store in self.stores]
        self.mapping = self.mapping.collapsed()
        self.levels += 1

    def merge(self, other: "SketchOracle") -> None:
        other = other.copy()
        for finer, coarser in ((self, other), (other, self)):
            while finer.mapping.alpha < coarser.mapping.alpha - 1e-15:
                finer.collapse_once()
        for mine, theirs in zip(self.stores, other.stores):
            added(mine, theirs)
        self.count += other.count
        self.settle()

    def copy(self) -> "SketchOracle":
        clone = SketchOracle(self.mapping, self.budget)
        clone.stores = [dict(store) for store in self.stores]
        clone.count, clone.levels = self.count, self.levels
        return clone


# -- reading a subject ------------------------------------------------------


def sparse_stores(subject) -> list[SparseStore]:
    if isinstance(subject, SparseStore):
        return [subject]
    return [subject._positive, subject._negative]


def oracle_stores(oracle) -> list[dict[int, int]]:
    return [oracle] if isinstance(oracle, dict) else oracle.stores


def view_state(view: BucketView) -> tuple:
    keys = None if view._keys is None else view._keys.tolist()
    return view._cumulative.tolist(), keys, view._first, view._step


def state(subject) -> tuple:
    """The bytes and the answers of *subject*, all by ``float.hex``."""
    if isinstance(subject, BucketStore):
        w = Writer()
        _write_store(w, subject)
        answers = []
        if not subject.is_empty:
            for view in (subject.view(), subject.view(descending=True)):
                answers += [view.key_at(rank) for rank in
                            (0, subject.total // 2, subject.total - 1)]
                answers += [view.count_through(key)
                            for key in (-3, 0, 17)]
        return w.getvalue(), answers
    answers = []
    if subject.count:
        answers = [value.hex() for value in subject.quantiles(QS)]
        answers += [subject.rank(value) for value in (-5.0, 0.0, 3.0)]
    return dumps(subject), answers


def roundtrip(subject):
    if not isinstance(subject, SparseStore):
        return loads(dumps(subject))
    w = Writer()
    _write_store(w, subject)
    with Reader(w.getvalue(), SerializationError, "store") as r:
        return _read_store(r)


class Interleaving:
    """One seeded run of *kind*: a subject, its oracle and what to watch."""

    def __init__(self, kind: str, seed: int) -> None:
        self.kind = kind
        self.rng = np.random.default_rng(seed)
        self.subject, self.oracle = self.new()
        self.seen: list = [1.0]  # inputs so far, to add again
        self.watched: list[tuple[object, tuple]] = []  # (copy, its state)
        self.views: list[tuple[BucketView, tuple]] = []

    def new(self, kind: str | None = None):
        """A fresh subject of *kind* (the run's own by default) and its
        oracle."""
        kind = kind or self.kind
        if kind == "store":
            return SparseStore(), {}
        if kind == "uddsketch":
            sketch = UDDSketch(max_buckets=BUDGET)
            return sketch, SketchOracle(sketch.mapping, BUDGET)
        sketch = DDSketch(store="dense" if kind == "dense" else "sparse")
        return sketch, SketchOracle(sketch.mapping, None)

    # -- inputs -----------------------------------------------------------

    def values(self, size: int, spread: float = 3.0) -> np.ndarray:
        rng = self.rng
        values = rng.lognormal(0.0, spread, size) * rng.choice((-1, 1), size)
        values[rng.random(size) < 0.1] = 0.0
        if self.kind == "store":
            return np.floor(values).astype(np.int64)
        return values

    def existing(self, size: int) -> list:
        if self.kind == "store":
            keys = list(self.oracle) or [0]
            return [keys[i] for i in self.rng.integers(0, len(keys), size)]
        return [self.seen[i] for i in
                self.rng.integers(0, len(self.seen), size)]

    def operand(self):
        """A merge operand and its oracle: sparse, dense or empty, fewer
        or more collapses, drawn for the subject's kind."""
        choice = self.rng.integers(0, 4)
        size = int(self.rng.choice((0, 5, 40, 600)))
        if self.kind == "store":
            other = SparseStore() if choice else DenseStore()
            indices = self.values(size) % 400 - 200
            other.add_batch(indices)
            return other, counted(indices.tolist())
        kind = "dense" if self.kind == "ddsketch" and not choice else None
        other, oracle = self.new(kind)
        # A wide spread collapses a UDDSketch operand further.
        values = self.values(size, spread=1.0 + 4.0 * (choice > 1))
        other.update_batch(values)
        oracle.add(values.tolist())
        return other, oracle

    # -- the steps, applied alike to subject and oracle -------------------

    def apply(self, step: str) -> None:
        rng = self.rng
        subject, oracle = self.subject, self.oracle
        if step in ("add_existing", "add_new"):
            count = int(rng.choice((1, 3, 40)))
            items = (self.existing(count) if step == "add_existing"
                     else self.values(count, spread=6.0).tolist())
            for item in items:
                if self.kind == "store":
                    subject.add(int(item))
                    added(oracle, {int(item): 1})
                else:
                    subject.update(item)
                    oracle.add([item])
            self.seen += items
        elif step == "batch":
            batch = self.values(int(rng.choice((1, 31, 32, 300))))
            self.add_batch(batch)
            self.seen += batch.tolist()[:4]
        elif step == "merge":
            other, other_oracle = self.operand()
            before = state(other)
            subject.merge(other)
            if self.kind == "store":
                added(oracle, other_oracle)
            else:
                oracle.merge(other_oracle)
            assert state(other) == before
        elif step == "collapse":
            if self.kind == "store":
                levels = int(rng.integers(0, 4))
                subject.set_collapsed(*subject.sorted_arrays(), levels)
                self.oracle = collapsed_keys(oracle, levels)
            else:  # a wide batch drives UDDSketch's own collapse
                self.add_batch(self.values(64, spread=8.0))
        elif step == "copy":
            clone = subject.copy()
            kept, self.subject = (
                (clone, subject) if rng.integers(0, 2) else (subject, clone)
            )
            self.watched.append((kept, state(kept)))
        elif step == "roundtrip":
            self.subject = roundtrip(subject)
        else:
            self.subject, self.oracle = self.new()

    def add_batch(self, batch: np.ndarray) -> None:
        if self.kind == "store":
            self.subject.add_batch(batch)
            added(self.oracle, counted(batch.tolist()))
        else:
            self.subject.update_batch(batch)
            self.oracle.add(batch.tolist())

    # -- the checks ---------------------------------------------------------

    def check(self, read: bool) -> None:
        for kept, before in self.watched:
            assert state(kept) == before
        for view, before in self.views:
            assert view_state(view) == before
        subject, oracle = self.subject, self.oracle
        if not isinstance(subject, SparseStore):
            assert subject.count == oracle.count
        if isinstance(subject, UDDSketch):
            assert subject.num_collapses == oracle.levels
            assert subject.mapping.gamma.hex() == oracle.mapping.gamma.hex()
        for store, buckets in zip(sparse_stores(subject),
                                  oracle_stores(oracle)):
            # Reads that fold nothing.
            assert store.num_buckets == len(buckets)
            assert store.total == sum(buckets.values())
            for key in list(buckets)[:3]:
                assert store.holds(key)
            for key in (min(buckets, default=0) - 1,
                        max(buckets, default=0) + 1):
                assert not store.holds(key)
            if read:
                indices, counts = store.sorted_arrays()
                assert indices.dtype == counts.dtype == np.int64
                assert not indices.flags.writeable
                assert not counts.flags.writeable
                expected = sorted(buckets.items())
                assert list(zip(indices.tolist(), counts.tolist())) == expected
                assert list(store.items()) == expected
        if read:
            self.watch_views()

    def watch_views(self) -> None:
        subject = self.subject
        if isinstance(subject, SparseStore):
            views = [subject.view(), subject.view(descending=True)]
        else:
            if subject.count:
                subject.quantiles(QS)
                subject.rank(-5.0)
            views = [subject._positive_walk, subject._negative_walk]
        self.views += [(view, view_state(view))
                       for view in views if view is not None]

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.apply(str(self.rng.choice(STEPS)))
            # Most steps are read; the rest leave adds to pile up.
            self.check(read=self.rng.random() < 0.75)
        self.check(read=True)


KINDS = ("store", "uddsketch", "ddsketch")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(3))
def test_kept_arrays_follow_every_step(kind, seed):
    Interleaving(kind, seed).run(steps=30)


@pytest.mark.slow
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(3, 43))
def test_kept_arrays_follow_every_step_wide(kind, seed):
    Interleaving(kind, seed).run(steps=120)


def test_a_scalar_add_notes_its_key_and_a_read_folds_it_in():
    store = SparseStore()
    store.add_batch(np.arange(0, 200, 2))
    kept = store.sorted_arrays()
    view = store.view()
    store.add(4)  # existing
    store.add(5, 3)  # new
    assert store.num_buckets == 101 and store.total == 104
    assert store.holds(5) and not store.holds(7)
    indices, counts = store.sorted_arrays()
    assert indices[:5].tolist() == [0, 2, 4, 5, 6]
    assert counts[:5].tolist() == [1, 1, 2, 3, 1]
    assert kept[1][2] == 1 and view.key_at(2) == 4  # nothing moved under
    # The fold is kept: the next read returns the same arrays.
    again = store.sorted_arrays()
    assert again[0] is indices and again[1] is counts


def test_racing_reads_fold_each_add_once():
    """Reads on more threads than cores, all starting from the same
    unfolded adds, return equal arrays and count each add once."""
    rng = np.random.default_rng(7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            batch = rng.integers(-50, 50, 300)
            scalars = rng.integers(-80, 80, 60).tolist()
            expected = counted(batch.tolist() + scalars)
            store = SparseStore()
            store.add_batch(batch)
            for index in scalars:
                store.add(index)
            barrier = threading.Barrier(6)
            seen = []

            def read():
                barrier.wait(timeout=10)
                indices, counts = store.sorted_arrays()
                seen.append(dict(zip(indices.tolist(), counts.tolist())))

            threads = [threading.Thread(target=read) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert seen == [expected] * 6
            assert dict(store.items()) == expected
    finally:
        sys.setswitchinterval(interval)
