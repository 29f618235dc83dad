"""``QuantileSketch.copy()``: an independent sketch that stays equal.

The store keeps one folded prefix per metric and answers from copies of
it (``TimePartitionedStore._fold_locked``), so a copy must equal its
original in bytes *and* in everything that happens next — for KLL, REQ
and Random that means the generator state travels — while sharing no
state with it.  Registry-driven, so a new sketch cannot skip it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    SKETCH_CLASSES,
    MomentsSketch,
    dumps,
    loads,
    paper_config,
)

ALL_NAMES = sorted(SKETCH_CLASSES)


def _values(seed: int, n: int) -> np.ndarray:
    return 1.0 + np.random.default_rng(seed).pareto(1.0, n)


def _build(name: str, filled: bool):
    sketch = paper_config(name, seed=7)
    if filled:
        # Enough for KLL / REQ / Random to have compacted, i.e. to
        # have spent coin flips and left a partly drawn generator.
        sketch.update_batch(_values(1, 2_000 if name == "gk" else 6_000))
    return sketch


def _continue(name: str, sketch) -> None:
    """More updates and a merge: both spend randomness where there is any."""
    sketch.update_batch(_values(2, 1_500))
    other = paper_config(name, seed=7)
    other.update_batch(_values(3, 1_500))
    sketch.merge(other)
    sketch.update_batch(_values(4, 500))


@pytest.mark.parametrize("filled", [False, True], ids=["empty", "filled"])
@pytest.mark.parametrize("name", ALL_NAMES)
class TestCopyContract:
    def test_copy_has_the_same_bytes(self, name, filled):
        sketch = _build(name, filled)
        clone = sketch.copy()
        assert clone is not sketch
        assert type(clone) is type(sketch)
        assert dumps(clone) == dumps(sketch)

    def test_copy_behaves_the_same_afterwards(self, name, filled):
        sketch = _build(name, filled)
        clone = sketch.copy()
        _continue(name, sketch)
        _continue(name, clone)
        assert dumps(clone) == dumps(sketch)

    def test_copy_shares_no_state(self, name, filled):
        sketch = _build(name, filled)
        before = dumps(sketch)
        clone = sketch.copy()
        _continue(name, clone)
        assert dumps(sketch) == before
        frozen = dumps(clone)
        _continue(name, sketch)
        assert dumps(clone) == frozen

    def test_shadowed_methods_do_not_travel(self, name, filled):
        """An instance attribute over ``merge`` stays on its instance.

        ``benchmarks/e2e/spans.py::instrument`` times a sketch by
        ``setattr(sketch, "merge", wrapper_around_the_bound_method)``.
        A ``__dict__``- or ``deepcopy``-based copy would carry that
        wrapper — still bound to the original — so merging into the
        copy would silently fold into the original instead.
        """
        sketch = _build(name, filled)
        calls = []
        for method in ("merge", "quantile"):
            bound = getattr(sketch, method)

            def wrapper(*args, _bound=bound, _method=method):
                calls.append(_method)
                return _bound(*args)

            setattr(sketch, method, wrapper)
        before = dumps(sketch)
        clone = sketch.copy()
        other = paper_config(name, seed=7)
        other.update_batch(_values(3, 1_500))
        clone.merge(other)
        clone.quantile(0.5)
        assert calls == []
        assert dumps(sketch) == before
        assert clone.count == sketch.count + other.count


@pytest.mark.parametrize("cut", [1, 37, 1_237])
@pytest.mark.parametrize("name", ALL_NAMES)
def test_copy_continues_exactly_from_odd_cuts(name, cut):
    """Cuts off GK's 50-insert compression period, where a GK copied
    without its insert counter used to compress on another schedule."""
    sketch = paper_config(name, seed=7)
    sketch.update_batch(_values(1, cut))
    clone = sketch.copy()
    for each in (sketch, clone):
        each.update_batch(_values(2, 3_000))
    assert dumps(clone) == dumps(sketch)


def test_moments_grid_size_travels():
    """A non-default solver grid answers the same after ``copy()`` and
    a round trip; it came back on the default grid before, moving
    Pareto q0.99 from 110 to 114."""
    sketch = MomentsSketch(12, "log", grid_size=64)
    sketch.update_batch(_values(1, 5_000))
    qs = [0.01, 0.5, 0.99]
    expected = [q.hex() for q in sketch.quantiles(qs)]
    for clone in (sketch.copy(), loads(dumps(sketch))):
        assert clone.grid_size == 64
        assert [q.hex() for q in clone.quantiles(qs)] == expected
        assert dumps(clone) == dumps(sketch)
    default = MomentsSketch(12, "log")
    default.update_batch(_values(1, 5_000))
    assert dumps(default) != dumps(sketch)
    assert default.quantile(0.99) != sketch.quantile(0.99)
