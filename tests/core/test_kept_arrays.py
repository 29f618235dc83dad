"""A sparse store's kept sorted arrays always equal its dict.

``SparseStore`` keeps its buckets twice: the dict, and the sorted
``(indices, counts)`` arrays that a batch into an empty store, a
collapse and a merge leave behind; a scalar add only notes its key for
the next read to fold in.  Seeded interleavings of every step that
moves a store — scalar adds of existing and of new keys, batches into
empty and non-empty stores below and above the 32-value sort
threshold, merges with sparse, dense and empty operands (UDDSketch's
also at fewer and at more collapses), ``set_collapsed``, ``copy`` and
``loads(dumps())`` — run on a bare store, on UDDSketch and on
``DDSketch(store="sparse")``, with reads between the steps.  After every
step:

* ``sorted_arrays()`` equals the arrays rebuilt from ``_buckets``;
* copies and ``BucketView``\\ s taken earlier have not moved;
* the bytes and the answers equal those of a twin fed the same steps
  that drops its kept arrays after each one.

Tier 1 runs a few interleavings; the ``slow`` grid runs many more.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DDSketch, UDDSketch, dumps, loads
from repro.core.codec import Reader, Writer
from repro.core.serialization import _read_store, _write_store
from repro.core.store import (
    BucketStore,
    BucketView,
    DenseStore,
    SparseStore,
)
from repro.errors import SerializationError

QS = (0.001, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0)
STEPS = ("add_existing", "add_new", "batch", "batch", "merge", "merge",
         "collapse", "copy", "roundtrip", "fresh")


def sparse_stores(subject) -> list[SparseStore]:
    if isinstance(subject, SparseStore):
        return [subject]
    if isinstance(subject, DenseStore):
        return []
    stores = (subject._positive, subject._negative)
    return [store for store in stores if isinstance(store, SparseStore)]


def drop_kept(subject) -> None:
    for store in sparse_stores(subject):
        store._arrays = None


def rebuilt(store: SparseStore) -> tuple[list[int], list[int]]:
    pairs = sorted(store._buckets.items())
    return [index for index, _ in pairs], [count for _, count in pairs]


def assert_kept_arrays_match_the_dict(subject) -> None:
    for store in sparse_stores(subject):
        indices, counts = store.sorted_arrays()
        assert indices.dtype == counts.dtype == np.int64
        assert not indices.flags.writeable and not counts.flags.writeable
        assert (indices.tolist(), counts.tolist()) == rebuilt(store)
        assert store.total == sum(store._buckets.values())


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


class Interleaving:
    """One seeded run of *kind*: a subject, its twin and what to watch."""

    def __init__(self, kind: str, seed: int) -> None:
        self.kind = kind
        self.rng = np.random.default_rng(seed)
        self.subject = self.new()
        self.twin = self.new()
        self.seen: list = [1.0]  # inputs so far, to add again
        self.watched: list[tuple[object, tuple]] = []  # (copy, its state)
        self.views: list[tuple[BucketView, tuple]] = []

    def new(self):
        if self.kind == "store":
            return SparseStore()
        if self.kind == "uddsketch":
            return UDDSketch(max_buckets=24)
        return DDSketch(store="sparse")

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
            keys = list(self.subject._buckets) or [0]
            return [keys[i] for i in self.rng.integers(0, len(keys), size)]
        return [self.seen[i] for i in
                self.rng.integers(0, len(self.seen), size)]

    def operand(self):
        """A merge operand: sparse, dense or empty, fewer or more
        collapses, drawn for the subject's kind."""
        choice = self.rng.integers(0, 4)
        size = int(self.rng.choice((0, 5, 40, 600)))
        if self.kind == "store":
            other = SparseStore() if choice else DenseStore()
            other.add_batch(self.values(size) % 400 - 200)
            return other
        if self.kind == "ddsketch" and not choice:
            other = DDSketch(store="dense")
        else:
            other = self.new()
        # A wide spread collapses a UDDSketch operand further.
        other.update_batch(self.values(size, spread=1.0 + 4.0 * (choice > 1)))
        return other

    # -- the steps, applied alike to subject and twin ---------------------

    def apply(self, step: str) -> None:
        rng = self.rng
        if step in ("add_existing", "add_new"):
            count = int(rng.choice((1, 3, 40)))
            items = (self.existing(count) if step == "add_existing"
                     else self.values(count, spread=6.0).tolist())
            self.both(lambda s: [self.add(s, item) for item in items])
            self.seen += items
        elif step == "batch":
            batch = self.values(int(rng.choice((1, 31, 32, 300))))
            self.both(lambda s: self.add_batch(s, batch))
            self.seen += batch.tolist()[:4]
        elif step == "merge":
            other = self.operand()
            before = state(other)
            self.both(lambda s: s.merge(other))
            assert state(other) == before
            assert_kept_arrays_match_the_dict(other)
        elif step == "collapse":
            levels = int(rng.integers(0, 4))
            if self.kind == "store":
                self.both(lambda s: s.set_collapsed(*s.sorted_arrays(),
                                                    levels))
            else:  # a wide batch drives UDDSketch's own collapse
                batch = self.values(64, spread=8.0)
                self.both(lambda s: self.add_batch(s, batch))
        elif step == "copy":
            keep_original = bool(rng.integers(0, 2))
            for name in ("subject", "twin"):
                original = getattr(self, name)
                clone = original.copy()
                kept, moving = ((clone, original) if keep_original
                                else (original, clone))
                setattr(self, name, moving)
                if name == "subject":
                    self.watched.append((kept, state(kept)))
        elif step == "roundtrip":
            self.subject = roundtrip(self.subject)
            self.twin = roundtrip(self.twin)
        else:
            self.subject, self.twin = self.new(), self.new()

    def both(self, change) -> None:
        change(self.subject)
        change(self.twin)
        drop_kept(self.twin)

    def add(self, subject, item) -> None:
        if self.kind == "store":
            subject.add(int(item))
        else:
            subject.update(item)

    def add_batch(self, subject, batch) -> None:
        if self.kind == "store":
            subject.add_batch(batch)
        else:
            subject.update_batch(batch)

    # -- the checks ---------------------------------------------------------

    def check(self, read: bool) -> None:
        for kept, before in self.watched:
            assert state(kept) == before
        for view, before in self.views:
            assert view_state(view) == before
        if not read:
            return
        assert_kept_arrays_match_the_dict(self.subject)
        assert state(self.subject) == state(self.twin)
        self.watch_views()

    def watch_views(self) -> None:
        subject = self.subject
        if isinstance(subject, SparseStore):
            views = [subject.view(), subject.view(descending=True)]
        else:
            views = [subject._positive_walk, subject._negative_walk]
        self.views += [(view, view_state(view))
                       for view in views if view is not None]

    def run(self, steps: int) -> None:
        for _ in range(steps):
            self.apply(str(self.rng.choice(STEPS)))
            # Most steps are read; the rest leave noted keys to pile up.
            self.check(read=self.rng.random() < 0.75)
        self.check(read=True)


def roundtrip(subject):
    if not isinstance(subject, SparseStore):
        return loads(dumps(subject))
    w = Writer()
    _write_store(w, subject)
    with Reader(w.getvalue(), SerializationError, "store") as r:
        return _read_store(r)


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
    assert store._moved == {4, 5} and store._arrays is kept
    indices, counts = store.sorted_arrays()
    assert (indices.tolist(), counts.tolist()) == rebuilt(store)
    assert kept[1][2] == 1 and view.key_at(2) == 4  # nothing moved under
    assert store._moved == set()
