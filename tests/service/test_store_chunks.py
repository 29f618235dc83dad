"""The store's chunked fold order keeps each sketch's bound and links to
compaction.

``TimePartitionedStore`` folds a range as head partitions, cached
``coarse_factor``-aligned chunk folds and tail partitions (DESIGN §9),
so a view is a re-associated fold, not the sequential one.  These rows
hold the views to the bound each sketch states in ``guarantee()``,
measured as :func:`repro.core.validation.check_conformance` measures
it, and pin that a chunk fold is byte for byte the coarse partition
compaction later makes of the same fine partitions.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from repro.core import SKETCH_CLASSES, dumps, paper_config
from repro.core.validation import DEFAULT_QUANTILES, UNGUARANTEED_RANK_BUDGET
from repro.service import ManualClock, TimePartitionedStore

WIDTH_MS = 1_000.0
#: per partition: a multiple of 100, so q * n is whole at every checked q
PER_PARTITION = 100
#: Pareto(1) scaled to start at 100: HDR's relative bound holds from
#: 10**digits / 2 = 50 up (its ``guarantee()`` docstring)
SCALE = 100.0
GEOMETRY = dict(partition_ms=WIDTH_MS, fine_partitions=16, coarse_factor=4,
                coarse_partitions=100)  # nothing expires


def _bounded_names():
    names = []
    for name in sorted(SKETCH_CLASSES):
        kind = paper_config(name, seed=7).guarantee().kind
        if kind in ("rank", "relative"):
            names.append(
                pytest.param(name, marks=pytest.mark.xfail(
                    strict=True,
                    reason="ROADMAP item 1: a merged GK states a bound "
                           "its answers break"))
                if name in ("gk", "gkarray") else name)
    return names


def worst_error(view, values):
    """The kind, the worst error over the checked quantiles and the
    bound ``view.guarantee()`` sets on it (``check_conformance``'s
    measure)."""
    ordered = np.sort(values)
    n = ordered.size
    guarantee = view.guarantee()
    kind, bound = guarantee.kind, guarantee.eps
    if kind not in ("relative", "rank"):
        kind, bound = "rank", UNGUARANTEED_RANK_BUDGET
    worst = 0.0
    for q in DEFAULT_QUANTILES:
        estimate = view.quantile(q)
        if kind == "relative":
            true = ordered[max(math.ceil(q * n), 1) - 1]
            error = abs(estimate - true) / abs(true)
        else:
            error = abs(np.searchsorted(ordered, estimate, side="right") / n
                        - q)
        worst = max(worst, float(error))
    return kind, worst, bound


@pytest.mark.parametrize("name", _bounded_names())
def test_trailing_and_all_time_views_keep_the_stated_bound(name):
    rng = np.random.default_rng(20230328)
    clock = ManualClock(0.0)
    store = TimePartitionedStore(
        functools.partial(paper_config, name, seed=7), clock=clock,
        **GEOMETRY)
    batches = []
    for i in range(40):
        now = clock.set_time(i * WIDTH_MS + 500.0)
        batches.append(SCALE * (1.0 + rng.pareto(1.0, PER_PARTITION)))
        store.record_batch(batches[-1], timestamp_ms=now)
        if i >= 10:  # partitions i-10 .. i: head, chunks and tail
            view = store.merged(now - 10 * WIDTH_MS, now)
            kind, worst, bound = worst_error(
                view, np.concatenate(batches[i - 10:]))
            assert worst <= bound + 1e-9, (
                f"trailing window at {i}: {kind} error {worst:.4g} > "
                f"{bound:.4g}")
    clock.advance(20 * WIDTH_MS)
    store.compact()  # the oldest partitions now answer from coarse ones
    assert store.num_coarse_partitions > 0
    kind, worst, bound = worst_error(store.merged(), np.concatenate(batches))
    assert worst <= bound + 1e-9, (
        f"all time: {kind} error {worst:.4g} > {bound:.4g}")


@pytest.mark.parametrize("name", ["kll", "req", "moments", "ddsketch"])
def test_a_chunk_fold_is_the_coarse_partition_compaction_makes(name):
    rng = np.random.default_rng(7)
    clock = ManualClock(0.0)
    store = TimePartitionedStore(
        functools.partial(paper_config, name, seed=7), clock=clock,
        **GEOMETRY)
    for i in range(20):
        now = clock.set_time(i * WIDTH_MS + 500.0)
        store.record_batch(1.0 + rng.pareto(1.0, 50), timestamp_ms=now)
    store.merged()  # ids 3-19 are fine: chunks 1-3 (ids 4-15) fold
    chunks = {chunk_id: dumps(chunk)
              for chunk_id, chunk in store._chunks.items()}
    assert sorted(chunks) == [1, 2, 3]
    clock.advance(40 * WIDTH_MS)
    store.compact()
    assert store.num_fine_partitions == 0
    for chunk_id, blob in chunks.items():
        assert dumps(store._coarse[chunk_id]) == blob
