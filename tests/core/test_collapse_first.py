"""UDDSketch collapses a batch, or a scalar update, before any store
holds it.

A batch joins each store's buckets as sorted arrays; the sketch finds
the collapse level on them and rebuilds each store once, so a fresh
5,000-value pane holds its ~750 collapsed buckets and never its ~5,000
fine ones.  A scalar update that adds a bucket past the budget joins
that one bucket the same way.  The level search starts where the index span guarantees
a fit — ``(span >> L) + 2`` buckets per store after ``L`` collapses —
and walks down while the next lower level fits.

A batch is counted, not sorted: each sign's indices go through the
fewest collapses that bring their span within ``COUNT_SLOTS`` and one
``bincount`` (``store.bucketed``).  When the batch alone overfills the
budget at that level ``L`` the stores join it there; when it fits, a
finer level might fit too, so it is sorted at the level it is at.

Five properties are held here:

* the search equals the linear one (level 1, 2, ... until the buckets
  fit) on a table of index sets: both signs, one empty store, and the
  budgets of 2 and 3 buckets that no level meets;
* a batch into a sketch, empty or not, of either sign, and each scalar
  update, gives the bytes of adding it and then collapsing one level at
  a time (the reference of ``test_collapse_levels.py``), and raises the
  same error where that raises, with nothing applied;
* a fresh pane rebuilds its store once, with its collapsed buckets;
* a refused batch, scalar update or merge leaves the sketch as it was;
* each of the three batch paths (counted at ``L = 0``, counted at
  ``L > 0`` over the budget, sorted at ``L > 0`` within it) gives the
  add-then-collapse bytes, and makes a sort only where it should; a
  sparse DDSketch store counts a batch the same way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DDSketch, UDDSketch, dumps, paper_config
from repro.core import uddsketch as uddsketch_module
from repro.core.base import WORK_ARRAY_VALUES
from repro.core.store import (
    COUNT_SLOTS,
    SparseStore,
    bucketed,
    collapsed_indices,
    distinct_sorted,
)
from repro.errors import ReproError
from tests.core.test_collapse_levels import (
    outcome,
    reference_update,
    reference_update_batch,
    state,
    stream,
)

#: Collapses past which no int64 index changes any more.
LEVEL_LIMIT = 64


def linear_levels(
    positive: np.ndarray, negative: np.ndarray, budget: int
) -> int | None:
    """The one-level-at-a-time search: the first level that fits."""
    for levels in range(1, LEVEL_LIMIT):
        buckets = sum(
            distinct_sorted(collapsed_indices(indices, levels))
            for indices in (positive, negative)
        )
        if buckets <= budget:
            return levels
    return None


def indices(*values: int) -> np.ndarray:
    return np.array(sorted(set(values)), dtype=np.int64)


def spread(seed: int, size: int, lo: int, hi: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.unique(rng.integers(lo, hi, size))


NONE = indices()

TABLE = {
    "positive only": (spread(1, 5_000, 300_000, 3_000_000), NONE, 1024),
    "negative only": (NONE, spread(2, 5_000, -40_000, 900_000), 1024),
    "both signs": (
        spread(3, 3_000, 0, 2_000_000), spread(4, 3_000, -500, 70_000), 1024
    ),
    "both signs, small budget": (
        spread(5, 200, -300, 300), spread(6, 200, 10, 5_000), 16
    ),
    "one wide, one narrow": (
        spread(7, 4_000, 1, 1 << 40), indices(5, 6, 7), 64
    ),
    "dense run": (np.arange(-2_000, 2_000, dtype=np.int64), NONE, 1024),
    "pairs that fold at once": (indices(3, 4, 5, 6), NONE, 2),
    "two stores, budget 3, fits": (indices(5, 6), indices(5, 7, 8), 3),
    "two stores, budget 2, fits late": (
        indices(4, 5), indices(100, 130), 2
    ),
    "refused: a store across index 0": (indices(0, 1), indices(9), 2),
    "refused: both across index 0": (
        indices(-3, 0, 2), indices(-1, 1), 3
    ),
    "one store across index 0, budget 2": (NONE, indices(-8, 0, 8), 2),
}


@pytest.mark.parametrize("row", TABLE)
def test_span_started_search_equals_the_linear_one(row):
    positive, negative, budget = TABLE[row]
    assert positive.size + negative.size > budget
    expected = linear_levels(positive, negative, budget)
    assert (expected is None) == row.startswith("refused")
    sketch = UDDSketch(max_buckets=budget)
    assert sketch._collapse_levels(positive, negative) == expected


def test_the_search_counts_buckets_at_few_levels(monkeypatch):
    counts = []

    def counting(array: np.ndarray) -> int:
        counts.append(array.size)
        return distinct_sorted(array)

    monkeypatch.setattr(uddsketch_module, "distinct_sorted", counting)
    rng = np.random.default_rng(20230328)
    levels = []
    for _ in range(20):
        sketch = paper_config("uddsketch", dataset="pareto")
        sketch.update_batch(1.0 + rng.pareto(1.0, 5_000))
        levels.append(sketch.num_collapses)
    # The linear search counted every level from 1 up: ~10 a pane.
    assert min(levels) >= 8
    assert len(counts) <= 3 * len(levels)


# -- the batch path against add-then-collapse ------------------------------

BUDGETS = (2, 3, 16, 1024)
KINDS = ("mixed", "zero_heavy", "pareto", "negative")


def feed(budget: int, batches) -> None:
    new, old = UDDSketch(max_buckets=budget), UDDSketch(max_buckets=budget)
    for values in batches:
        before = dumps(new)
        raised = outcome(UDDSketch.update_batch, new, values)
        assert raised == outcome(reference_update_batch, old, values)
        if raised:
            # Adding first, the reference moved the stores before its
            # collapse raised; this path raises before that.
            assert dumps(new) == before
            return
        assert state(new) == state(old)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("budget", BUDGETS)
def test_batches_match_adding_then_collapsing(budget, kind):
    # Sizes on both sides of the budget, into an empty sketch and on
    # top of what the earlier batches left.
    sizes = (budget, budget + 1, 5_000, 3, 2_000, budget + 1)
    feed(budget, [stream(kind, size, seed) for seed, size in enumerate(sizes)])


@pytest.mark.parametrize("budget", BUDGETS)
def test_signs_arriving_apart_match_adding_then_collapsing(budget):
    feed(budget, [
        stream("pareto", 3_000, 1),
        stream("negative", 3_000, 2),
        np.zeros(budget + 1),
        stream("mixed", 3_000, 3),
    ])


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("budget", BUDGETS)
def test_random_batch_runs_match_adding_then_collapsing(budget, seed):
    rng = np.random.default_rng(seed)
    batches = [
        stream(
            str(rng.choice(KINDS)),
            int(rng.choice((1, budget, budget + 1, 700, 5_000, 20_000))),
            int(rng.integers(1 << 32)),
        )
        for _ in range(6)
    ]
    feed(budget, batches)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("kind", KINDS)
def test_each_scalar_update_matches_adding_then_collapsing(budget, kind):
    """Compared after every update, not only at the end of a stream: a
    sketch that held one bucket past its budget until the next new one
    would collapse to the same level then."""
    new, old = UDDSketch(max_buckets=budget), UDDSketch(max_buckets=budget)
    for value in stream(kind, 400, budget).tolist():
        raised = outcome(UDDSketch.update, new, value)
        assert raised == outcome(reference_update, old, value)
        if raised:
            return
        assert state(new) == state(old)


# -- the map-once witness --------------------------------------------------


def test_a_fresh_pane_maps_only_its_collapsed_buckets(monkeypatch):
    """update_batch, quantiles and dumps rebuild the store once."""
    rebuilds = []
    hold = SparseStore._hold

    def counted_hold(store, indices, counts, total):
        rebuilds.append((store, indices.size))
        hold(store, indices, counts, total)

    def refused(*_args):
        raise AssertionError("a store took buckets one by one")

    monkeypatch.setattr(SparseStore, "_hold", counted_hold)
    monkeypatch.setattr(SparseStore, "add", refused)
    monkeypatch.setattr(SparseStore, "add_batch", refused)
    sketch = paper_config("uddsketch", dataset="pareto")
    pane = 1.0 + np.random.default_rng(20230328).pareto(1.0, 5_000)
    sketch.update_batch(pane)
    sketch.quantiles((0.5, 0.9, 0.99))
    dumps(sketch)
    assert sketch.num_collapses >= 8
    # The negative store, empty, is never rebuilt.
    assert rebuilds == [(sketch._positive, sketch.num_buckets)]


@pytest.mark.parametrize(
    "scalar, values",
    [
        (False, [0.25, 0.5, 4.0, -3.0]),
        (False, [-3.0]),
        (True, [0.25, 0.5, 4.0, -3.0]),
        (True, [-3.0]),
    ],
    ids=["over budget", "one value", "scalar over budget", "scalar one value"],
)
def test_a_refused_batch_leaves_the_sketch_as_it_was(scalar, values):
    sketch = UDDSketch(max_buckets=2)
    sketch.update_batch([0.5, 2.0])
    if scalar:
        # The values before the last still fit, at some level.
        for value in values[:-1]:
            sketch.update(value)
    before = dumps(sketch)
    # Values below and above 1 keep a store across index 0, so no
    # level fits two buckets alongside the negative ones.
    with pytest.raises(ReproError):
        if scalar:
            sketch.update(values[-1])
        else:
            sketch.update_batch(values)
    assert dumps(sketch) == before


def test_a_refused_merge_leaves_the_receiver_as_it_was():
    # The operand is 16 collapses coarser, and the union has a store
    # across index 0 beside the other store: no level fits 2 buckets.
    receiver = UDDSketch(max_buckets=2)
    receiver.update_batch([0.5, 2.0])
    operand = UDDSketch(max_buckets=2)
    operand.update_batch([-3.0, -3.1, -30.0])
    assert operand.num_collapses > receiver.num_collapses
    before = dumps(receiver), dumps(operand)
    with pytest.raises(ReproError):
        receiver.merge(operand)
    assert (dumps(receiver), dumps(operand)) == before


# -- counted, not sorted ---------------------------------------------------


def sorted_buckets(indices: np.ndarray, levels: int):
    """The buckets of *indices* after *levels* collapses, by a sort."""
    return np.unique(collapsed_indices(indices, levels), return_counts=True)


def same_buckets(ours, theirs) -> bool:
    return all(map(np.array_equal, ours, theirs))


@pytest.mark.parametrize(
    "lo, hi",
    [(0, 10), (-5_000, 3_000), (1 - COUNT_SLOTS, 0), (-COUNT_SLOTS, 0),
     (-(1 << 40), 1 << 41), (300_000, 3_000_000)],
)
def test_bucketed_equals_the_sort(lo, hi):
    batch = np.random.default_rng(hi).integers(lo, hi, 5_000, endpoint=True)
    batch[:2] = lo, hi
    levels, buckets = bucketed(batch, collapse=True)
    # The fewest collapses that bring the span within the slots.
    ends = np.array([lo, hi])
    assert np.ptp(collapsed_indices(ends, levels)) < COUNT_SLOTS
    assert not levels \
        or np.ptp(collapsed_indices(ends, levels - 1)) >= COUNT_SLOTS
    assert same_buckets(buckets, sorted_buckets(batch, levels))
    # Without the collapse, counted or sorted, at the level it is at.
    levels, buckets = bucketed(batch)
    assert levels == 0
    assert same_buckets(buckets, sorted_buckets(batch, 0))


def traced(step, sketch, values):
    """*step*(*sketch*, *values*)'s outcome, the ``(collapse, levels)``
    of each ``bucketed`` call it made, and the sizes it sorted."""
    calls: list[tuple[bool, int]] = []
    sorts: list[int] = []
    unique = np.unique

    def spy_bucketed(indices, collapse=False):
        levels, buckets = bucketed(indices, collapse)
        calls.append((collapse, levels))
        return levels, buckets

    def spy_unique(array, *args, **kwargs):
        sorts.append(np.asarray(array).size)
        return unique(array, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(uddsketch_module, "bucketed", spy_bucketed)
        patch.setattr(np, "unique", spy_unique)
        raised = outcome(step, sketch, values)
    return raised, calls, sorts


def pareto(size: int, seed: int) -> np.ndarray:
    return 1.0 + np.random.default_rng(seed).pareto(1.0, size)


@pytest.fixture(scope="module")
def settled():
    """A paper-config UDDSketch fed 2M Pareto values in 65,536 chunks."""
    sketch = paper_config("uddsketch", dataset="pareto")
    values = pareto(2_000_000, 20230328)
    for start in range(0, values.size, WORK_ARRAY_VALUES):
        sketch.update_batch(values[start:start + WORK_ARRAY_VALUES])
    return sketch


def fresh(budget: int = 1024) -> UDDSketch:
    return UDDSketch(max_buckets=budget)


def wide(size: int, seed: int) -> np.ndarray:
    """Both signs, magnitudes e^-200 .. e^200."""
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(-200, 200, size)) * rng.choice((-1, 1), size)


def refused_base() -> UDDSketch:
    """Budget 2, full: one bucket of each sign."""
    sketch = fresh(2)
    sketch.update_batch([-3.0, 2.0])
    return sketch


#: Row: (a function of the ``settled`` sketch giving the sketch the
#: batch goes into, the batch, the path it must take).
#: ``counted``: every sign counted at L = 0, no sort.
#: ``collapsed``: counted at L > 0, over the budget there, no sort.
#: ``sorted``: counted at L > 0 within the budget, then sorted.
PATHS = {
    "a chunk into a settled sketch": (
        lambda s: s, pareto(WORK_ARRAY_VALUES, 1), "counted"
    ),
    "a fresh 5,000-value pane": (
        lambda s: paper_config("uddsketch", dataset="pareto"),
        pareto(5_000, 2), "collapsed",
    ),
    "a fresh 65,536-value chunk": (
        lambda s: paper_config("uddsketch", dataset="pareto"),
        pareto(WORK_ARRAY_VALUES, 3), "collapsed",
    ),
    "a chunk over the work arrays": (
        lambda s: fresh(), pareto(WORK_ARRAY_VALUES + 1, 4), "collapsed"
    ),
    "64 values over [1e-3, 1e6] into a fresh sketch": (
        lambda s: fresh(), np.geomspace(1e-3, 1e6, 64), "sorted"
    ),
    "64 wide values into a settled sketch": (
        lambda s: s, np.geomspace(1e-250, 1e250, 64), "sorted"
    ),
    "signs counted at different levels": (
        lambda s: fresh(),
        np.concatenate((pareto(5_000, 5), -np.linspace(1.0, 1.004, 500))),
        "collapsed",
    ),
    "signs counted at different levels, the negative coarser": (
        lambda s: fresh(),
        np.concatenate((-pareto(5_000, 6), np.linspace(2.0, 2.008, 500))),
        "collapsed",
    ),
    "a wide batch into a store settled coarser": (
        lambda s: s, wide(20_000, 7), "collapsed"
    ),
    "budget 2, refused": (
        lambda s: fresh(2), np.array([1e-3, 0.5, 2.0, 1e6, -3.0]),
        "collapsed",
    ),
    "budget 3, fits": (
        lambda s: fresh(3), np.array([1.0, 1e3, 1e6, 1e9]), "collapsed"
    ),
    "budget 3, sorted": (
        lambda s: fresh(3), np.array([1e-3, 1e6]), "sorted"
    ),
    "budget 2, refused into a settled sketch": (
        lambda s: refused_base(), np.array([1e-9, 0.5, 2.0, 1e9]),
        "collapsed",
    ),
}


@pytest.mark.parametrize("row", PATHS)
def test_each_batch_path_matches_adding_then_collapsing(row, settled):
    base, values, path = PATHS[row]
    start = base(settled)
    new, old = start.copy(), start.copy()
    before = dumps(new)
    raised, calls, sorts = traced(UDDSketch.update_batch, new, values)
    assert raised == outcome(reference_update_batch, old, values)
    assert (raised is not None) == ("refused" in row)
    if raised:
        assert dumps(new) == before
    else:
        assert state(new) == state(old)
    # One count per sign the batch holds, then the path's own calls.
    first = [levels for collapse, levels in calls if collapse]
    again = [levels for collapse, levels in calls if not collapse]
    signs = sum(bool(side.any()) for side in (values > 0, values < 0))
    assert len(first) == signs
    if path == "counted":
        assert max(first) == 0 and not again and not sorts
    elif path == "collapsed":
        assert max(first) > 0 and not again and not sorts
    else:
        assert max(first) > 0 and again and sorts
    if row.startswith("signs counted"):
        assert len(set(first)) == 2
    if "settled coarser" in row:
        assert start.num_collapses > max(first)


def test_a_sparse_store_counts_a_chunk_without_a_sort():
    values = pareto(WORK_ARRAY_VALUES, 7)
    sketch, dense = DDSketch(store="sparse"), DDSketch()
    dense.update_batch(values)
    raised, _, sorts = traced(DDSketch.update_batch, sketch, values)
    assert raised is None and not sorts
    assert list(sketch._positive.items()) == list(dense._positive.items())
    assert sketch.quantiles((0.1, 0.5, 0.99)) \
        == dense.quantiles((0.1, 0.5, 0.99))
    # A span past the slots is sorted, to the same buckets.
    wider = np.geomspace(1e-100, 1e100, 1_000)
    raised, _, sorts = traced(DDSketch.update_batch, sketch, wider)
    dense.update_batch(wider)
    assert raised is None and sorts == [wider.size]
    assert list(sketch._positive.items()) == list(dense._positive.items())


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("budget", (2, 3, 16, 64, 1024, 4096))
def test_chunked_streams_match_adding_then_collapsing(budget, seed):
    rng = np.random.default_rng(seed)
    streams = {
        "pareto": pareto(60_000, seed),
        "uniform": rng.uniform(0.0, 1_000.0, 60_000),
        "normal": rng.normal(0.0, 50.0, 60_000),
        "wide": wide(60_000, seed),
        "narrow": rng.uniform(1.0, 1.001, 60_000),
    }
    for values in streams.values():
        for chunk in (WORK_ARRAY_VALUES, 5_000, 700, 37):
            feed(budget, [
                values[start:start + chunk]
                for start in range(0, min(values.size, 400 * chunk), chunk)
            ])
