"""UDDSketch reaches its final collapse level in one step, at the same bytes.

``k`` uniform collapses compose into the one map ``ceil(i / 2**k)``, so
the sketch finds the lowest level at which its buckets fit and rebuilds
each store once, where it used to collapse one level at a time.  The
one-level loop it replaced — the store's pairwise collapse, the
``while`` over it, and the level alignment in ``merge`` — is kept below
verbatim as the reference.  Both are compared by ``dumps``, the
collapse count and ``gamma`` (by ``float.hex``) over scalar- and
batch-fed streams of mixed sign and many zeros, and over merges in
both directions at mismatched levels.  Where the one-level loop raises
(a budget of 2 or 3 buckets that no level can meet before alpha
rounds to 1), the step must raise the same error.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DDSketch, UDDSketch, dumps, paper_config
from repro.core.base import QuantileSketch
from repro.core.store import SparseStore
from repro.errors import IncompatibleSketchError, ReproError
from tests.core.test_merge_algebra import LARGE, MEDIUM, SMALL, filled

BUDGETS = (2, 3, 16, 1024)
SIZES = (0, 1, 31, 32, 5_000)
STREAMS = ("mixed", "zero_heavy", "pareto", "negative")


# -- the one-level-at-a-time loop, as it was ------------------------------


def _uniform_collapse(store: SparseStore) -> SparseStore:
    """A new store with every adjacent bucket pair ``(2j-1, 2j)`` of
    *store* folded into ``j``, added one bucket at a time."""
    folded: dict[int, int] = {}
    for index, count in store.items():
        key = (index + 1) // 2  # == ceil(index / 2) for ints
        folded[key] = folded.get(key, 0) + count
    collapsed = SparseStore()
    for index, count in folded.items():
        collapsed.add(index, count)
    return collapsed


def _collapse_once(sketch: UDDSketch) -> None:
    sketch._positive = _uniform_collapse(sketch._positive)
    sketch._negative = _uniform_collapse(sketch._negative)
    sketch._mapping = sketch._mapping.collapsed()
    sketch._collapses += 1


def _collapse_if_needed(sketch: UDDSketch) -> None:
    while sketch.num_buckets > sketch.max_buckets:
        _collapse_once(sketch)


def reference_update(sketch: UDDSketch, value: float) -> None:
    DDSketch.update(sketch, value)
    _collapse_if_needed(sketch)


def reference_update_batch(sketch: UDDSketch, values: np.ndarray) -> None:
    DDSketch.update_batch(sketch, values)
    _collapse_if_needed(sketch)


def reference_merge(self: UDDSketch, other: QuantileSketch) -> None:
    other = self._merge_operand(other)
    if not isinstance(other, UDDSketch):
        raise IncompatibleSketchError(
            f"cannot merge UDDSketch with {type(other).__name__}"
        )
    # Align collapse levels: the coarser sketch wins, so collapse the
    # finer one (copying *other* if it is the one to coarsen).
    while self._mapping.alpha < other._mapping.alpha - 1e-15:
        if self._mapping.collapsed().alpha > other._mapping.alpha + 1e-12:
            raise IncompatibleSketchError(
                "sketches have incompatible initial accuracies: "
                f"{self._mapping.alpha!r} vs {other._mapping.alpha!r}"
            )
        _collapse_once(self)
    if other._mapping.alpha < self._mapping.alpha - 1e-15:
        other = other.copy()
        while other._mapping.alpha < self._mapping.alpha - 1e-15:
            if (
                other._mapping.collapsed().alpha
                > self._mapping.alpha + 1e-12
            ):
                raise IncompatibleSketchError(
                    "sketches have incompatible initial accuracies: "
                    f"{self._mapping.alpha!r} vs {other._mapping.alpha!r}"
                )
            _collapse_once(other)
    self._mapping.require_compatible(other._mapping)
    self._positive.merge(other._positive)
    self._negative.merge(other._negative)
    self._zero_count += other._zero_count
    self._merge_bookkeeping(other)
    _collapse_if_needed(self)


# -- helpers ---------------------------------------------------------------


def stream(kind: str, size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "mixed":
        return rng.normal(0.0, 1.0, size) * 10.0 ** rng.uniform(-4, 6, size)
    if kind == "zero_heavy":
        values = rng.lognormal(0.0, 3.0, size) * rng.choice((-1.0, 1.0), size)
        zeros = rng.choice((0.0, -0.0, 1e-300, -1e-300), size)
        return np.where(rng.random(size) < 0.6, zeros, values)
    if kind == "pareto":
        return 1.0 + rng.pareto(1.0, size)
    return -(1.0 + rng.pareto(1.0, size))


def state(sketch: UDDSketch) -> tuple[bytes, int, str]:
    return dumps(sketch), sketch.num_collapses, sketch.mapping.gamma.hex()


def outcome(step, *args) -> type[BaseException] | None:
    try:
        step(*args)
    except ReproError as error:
        return type(error)
    return None


def feed_scalar(update, sketch: UDDSketch, values: np.ndarray) -> None:
    for value in values.tolist():
        update(sketch, value)


RUNS = st.lists(
    st.tuples(
        st.sampled_from(STREAMS),
        st.sampled_from(SIZES),
        st.integers(min_value=0, max_value=2**32 - 1),
    ),
    min_size=1,
    max_size=4,
)


# -- the properties --------------------------------------------------------


def assert_batch_fed_matches(budget: int, runs) -> None:
    new, old = UDDSketch(max_buckets=budget), UDDSketch(max_buckets=budget)
    for kind, size, seed in runs:
        values = stream(kind, size, seed)
        raised = outcome(UDDSketch.update_batch, new, values)
        assert raised == outcome(reference_update_batch, old, values)
        if raised:
            return
        assert state(new) == state(old)


@pytest.mark.parametrize("kind", STREAMS)
@pytest.mark.parametrize("budget", BUDGETS)
def test_batch_fed_step_matches_the_one_level_loop_on_a_grid(budget, kind):
    # Every batch size of every stream kind: hypothesis below draws the
    # large batches rarely.
    assert_batch_fed_matches(
        budget,
        [(kind, size, seed) for seed, size in enumerate((5_000, *SIZES))],
    )


@given(budget=st.sampled_from(BUDGETS), runs=RUNS)
@settings(max_examples=40, deadline=None)
def test_batch_fed_step_matches_the_one_level_loop(budget, runs):
    assert_batch_fed_matches(budget, runs)


@given(budget=st.sampled_from(BUDGETS), runs=RUNS)
@settings(max_examples=15, deadline=None)
def test_scalar_fed_step_matches_the_loop_and_the_batch_path(budget, runs):
    new, old = UDDSketch(max_buckets=budget), UDDSketch(max_buckets=budget)
    batched = UDDSketch(max_buckets=budget)
    for kind, size, seed in runs[:2]:
        values = stream(kind, size, seed)
        raised = outcome(feed_scalar, UDDSketch.update, new, values)
        assert raised == outcome(feed_scalar, reference_update, old, values)
        assert raised == outcome(UDDSketch.update_batch, batched, values)
        if raised:
            return
        assert state(new) == state(old) == state(batched)


def check_merge(left: UDDSketch, right: UDDSketch) -> None:
    """*left*.merge(*right*) against the one-level loop, both ways."""
    for a, b in ((left, right), (right, left)):
        new, old = a.copy(), a.copy()
        other_before = state(b)
        raised = outcome(UDDSketch.merge, new, b)
        assert raised == outcome(reference_merge, old, b.copy())
        assert state(b) == other_before
        if not raised:
            assert state(new) == state(old)


@pytest.mark.parametrize(
    "left, right", [(SMALL, LARGE), (SMALL, MEDIUM), (MEDIUM, LARGE)]
)
def test_merge_at_mismatched_levels_matches_the_one_level_loop(left, right):
    small, large = filled("uddsketch", left), filled("uddsketch", right)
    assert small.num_collapses != large.num_collapses
    check_merge(small, large)


@given(
    budgets=st.tuples(st.sampled_from(BUDGETS), st.sampled_from(BUDGETS)),
    runs=st.tuples(RUNS, RUNS),
)
@settings(max_examples=25, deadline=None)
def test_merge_of_streams_matches_the_one_level_loop(budgets, runs):
    sketches = []
    for budget, parts in zip(budgets, runs):
        sketch = UDDSketch(max_buckets=budget)
        for kind, size, seed in parts:
            if outcome(UDDSketch.update_batch, sketch, stream(kind, size, seed)):
                return  # no level fits this budget; see the module text
        sketches.append(sketch)
    check_merge(*sketches)


def test_incompatible_accuracies_leave_both_operands_unchanged():
    # 0.001 collapses to 0.002, 0.004, then 0.008 — past 0.005.  The
    # one-level loop had collapsed the finer sketch twice by the time
    # it raised; the step settles the levels before anything moves.
    fine, coarse = UDDSketch(alpha0=0.001), UDDSketch(alpha0=0.005)
    fine.update_batch(stream("mixed", 500, 1))
    coarse.update_batch(stream("mixed", 500, 2))
    before = state(fine), state(coarse)
    for a, b in ((fine, coarse), (coarse, fine)):
        with pytest.raises(IncompatibleSketchError):
            a.merge(b)
    assert (state(fine), state(coarse)) == before


# -- the count witness -----------------------------------------------------


class CountingStore(SparseStore):
    """A sparse store that counts its sorted reads and its rebuilds."""

    def __init__(self) -> None:
        super().__init__()
        self.reads = 0
        self.rebuilds = 0

    def sorted_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        self.reads += 1
        return super().sorted_arrays()

    def set_collapsed(self, *args) -> None:
        self.rebuilds += 1
        super().set_collapsed(*args)


def test_a_fresh_pane_rebuilds_each_store_at_most_once(monkeypatch):
    pane = stream("pareto", 5_000, 20230328)
    pane[::7] *= -1.0
    sketch = paper_config("uddsketch")
    sketch._positive, sketch._negative = CountingStore(), CountingStore()
    sketch.update_batch(pane)
    assert sketch.num_collapses >= 8
    for store in (sketch._positive, sketch._negative):
        assert (store.reads, store.rebuilds) == (1, 1)

    # The one-level loop rebuilt both stores once per level.
    passes = []
    inner = _uniform_collapse

    def counted(store: SparseStore) -> SparseStore:
        passes.append(store)
        return inner(store)

    monkeypatch.setattr(sys.modules[__name__], "_uniform_collapse", counted)
    old = paper_config("uddsketch")
    reference_update_batch(old, pane)
    assert len(passes) == 2 * sketch.num_collapses
    assert state(old) == state(sketch)
