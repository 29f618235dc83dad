"""``QuantileSketch.guarantee()``: the one place a sketch states its bound.

Registry-driven, so a new sketch cannot skip it.  The bound is a pure
function of the state ``dumps`` writes — equal across ``copy``,
``dumps``/``loads`` and batch vs scalar ingest — it is never tighter
after a merge or a collapse, and the record round-trips through
``canonical_json``.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.core import (
    SKETCH_CLASSES,
    DDSketch,
    UDDSketch,
    dumps,
    loads,
    paper_config,
)
from repro.core.base import NO_GUARANTEE, Guarantee
from repro.core.codec import canonical_json
from repro.parallel import ShardedSketch

ALL_NAMES = sorted(SKETCH_CLASSES)
KINDS = ("relative", "rank", "relative_rank", "none")


def _values(seed: int, n: int) -> np.ndarray:
    return 1.0 + np.random.default_rng(seed).pareto(1.0, n)


def _filled(name: str, seed: int, n: int = 2_000):
    sketch = paper_config(name, seed=7)
    sketch.update_batch(_values(seed, n))
    return sketch


def _never_tighter(after: Guarantee, before: Guarantee) -> bool:
    if after.kind == "none":
        return True
    return (
        after.kind == before.kind
        and after.eps >= before.eps
        and after.confidence <= before.confidence
    )


@pytest.mark.parametrize("name", ALL_NAMES)
def test_the_state_dumps_writes_fixes_the_guarantee(name):
    sketch = _filled(name, seed=1)
    guarantee = sketch.guarantee()
    assert guarantee.kind in KINDS
    assert guarantee.eps >= 0.0 and 0.0 < guarantee.confidence <= 1.0
    assert sketch.copy().guarantee() == guarantee
    assert loads(dumps(sketch)).guarantee() == guarantee
    scalar = paper_config(name, seed=7)
    for value in _values(1, 2_000).tolist():
        scalar.update(value)
    assert scalar.guarantee() == guarantee


@pytest.mark.parametrize("name", ALL_NAMES)
def test_a_merge_never_tightens_it(name):
    left = _filled(name, seed=1)
    right = _filled(name, seed=2, n=500)
    before = (left.guarantee(), right.guarantee())
    left.merge(right)
    for guarantee in before:
        assert _never_tighter(left.guarantee(), guarantee)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_a_sharded_sketch_reports_its_merged_view(name):
    sharded = ShardedSketch(
        lambda: paper_config(name, seed=7), n_shards=3
    )
    sharded.update_batch(_values(1, 2_000))
    assert sharded.guarantee() == sharded._merged_view().guarantee()
    for shard in sharded.shards:
        assert _never_tighter(sharded.guarantee(), shard.guarantee())


@pytest.mark.parametrize("name", ALL_NAMES)
def test_it_round_trips_through_canonical_json(name):
    guarantee = _filled(name, seed=1).guarantee()
    payload = canonical_json(dataclasses.asdict(guarantee))
    assert Guarantee(**json.loads(payload)) == guarantee


def test_uddsketch_collapses_never_tighten_it():
    rng = np.random.default_rng(3)
    sketch = UDDSketch(final_alpha=0.05, num_collapses=6, max_buckets=64)
    previous = sketch.guarantee()
    for chunk in np.array_split(10.0 ** rng.uniform(-3, 3, 4_000), 8):
        sketch.update_batch(chunk)
        assert _never_tighter(sketch.guarantee(), previous)
        previous = sketch.guarantee()
    assert sketch.num_collapses > 0
    assert previous.eps > UDDSketch(0.05, 6, 64).guarantee().eps
    # Fusing at mismatched levels: the finer side takes the coarser one.
    finer = UDDSketch(final_alpha=0.05, num_collapses=6, max_buckets=64)
    finer.update_batch(rng.uniform(1.0, 1.01, 100))
    finer.merge(sketch)
    assert _never_tighter(finer.guarantee(), previous)


def test_a_bounded_ddsketch_store_collapse_drops_the_bound():
    sketch = DDSketch(alpha=0.01, store="collapsing", max_bins=64)
    sketch.update_batch(np.linspace(1.0, 1.5, 100))
    assert sketch.guarantee() == Guarantee("relative", 0.01)
    sketch.update_batch(10.0 ** np.linspace(-6, 6, 1_000))
    assert sketch.guarantee() == NO_GUARANTEE
    assert loads(dumps(sketch)).guarantee() == NO_GUARANTEE
