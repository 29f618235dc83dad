"""A fold of many sketches is no larger than one sketch of the same values.

The store's merged view, its compaction and the cluster's per-origin
reads all fold partitions through ``merge``, and Fig 5c and Table 3
measure merged state.  A sketch whose merged state grows with the
number of parts folded would make all of those grow with a tenant's
window.  For every sketch in the registry, a sequential fold and a
balanced-tree fold of seeded parts must each stay within
``FOLD_RATIO`` of one stream of the same values, counted by
``size_bytes``.

Tier-1 runs 128 parts of 250 values per sketch; the wide grid (part
counts, part sizes, seeds and REQ's other configurations) is marked
``slow``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pytest

from repro.core import SKETCH_CLASSES, paper_config
from repro.core.base import QuantileSketch
from repro.core.req import ReqSketch

#: Fold bytes / single-stream bytes may not exceed this.
FOLD_RATIO = 1.25

Factory = Callable[[], QuantileSketch]


def _paper(name: str) -> Factory:
    # One seed for every part: DCS merges only sketches that share
    # their hash functions.
    return lambda: paper_config(name, seed=7)


FACTORIES: dict[str, Factory] = {
    name: _paper(name) for name in sorted(SKETCH_CLASSES)
}

#: REQ's other schedules: low-rank accuracy and the smallest sections.
REQ_VARIANTS: dict[str, Factory] = {
    "req-lra": lambda: ReqSketch(30, hra=False, seed=7),
    "req-k4": lambda: ReqSketch(4, seed=7),
}
WIDE_FACTORIES = {**FACTORIES, **REQ_VARIANTS}


def _parts(
    factory: Factory, chunks: list[np.ndarray]
) -> list[QuantileSketch]:
    parts = []
    for chunk in chunks:
        sketch = factory()
        sketch.update_batch(chunk)
        parts.append(sketch)
    return parts


def sequential_fold(parts: list[QuantileSketch]) -> QuantileSketch:
    folded = parts[0]
    for part in parts[1:]:
        folded.merge(part)
    return folded


def tree_fold(parts: list[QuantileSketch]) -> QuantileSketch:
    """Merge neighbours pairwise, level by level, as a balanced tree."""
    while len(parts) > 1:
        paired = []
        for left, right in zip(parts[::2], parts[1::2]):
            left.merge(right)
            paired.append(left)
        if len(parts) % 2:
            paired.append(parts[-1])
        parts = paired
    return parts[0]


def assert_folds_stay_small(
    factory: Factory, num_parts: int, part_size: int, seed: int
) -> None:
    rng = np.random.default_rng(seed)
    values = 1.0 + rng.pareto(1.0, num_parts * part_size)
    # Inside DCS's universe, [0, 2**20), at every part count.
    np.minimum(values, 1e6, out=values)
    chunks = np.split(values, num_parts)
    single = factory()
    single.update_batch(values)
    limit = FOLD_RATIO * single.size_bytes()
    for fold in (sequential_fold, tree_fold):
        folded = fold(_parts(factory, chunks))
        assert folded.count == values.size
        ratio = folded.size_bytes() / single.size_bytes()
        assert folded.size_bytes() <= limit, (
            f"{fold.__name__} of {num_parts} x {part_size}: "
            f"{ratio:.2f}x one stream's size_bytes"
        )


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_fold_is_sketch_sized(name: str) -> None:
    assert_folds_stay_small(FACTORIES[name], 128, 250, 20230328)


@pytest.mark.slow
@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("part_size", (200, 1_000))
@pytest.mark.parametrize("num_parts", (32, 128, 512))
@pytest.mark.parametrize("name", sorted(WIDE_FACTORIES))
def test_wide_fold_grid(
    name: str, num_parts: int, part_size: int, seed: int
) -> None:
    assert_folds_stay_small(WIDE_FACTORIES[name], num_parts, part_size, seed)
