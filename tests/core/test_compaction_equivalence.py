"""KLL, REQ and Moments ingest against verbatim copies of their
previous code.

REQ's compaction walk visits only the levels that can be at capacity,
keeps its retained count incrementally and compacts in place; KLL's
batch loop runs its steady-state compaction inline; Moments multiplies
its power sums in place.  None of that may move a byte.  After every
step of seeded mixes of scalar runs, batches, merges and codec round
trips, each sketch's ``dumps`` and generator state must equal those of
the same sketch driven by the code as it was, kept here verbatim (the
way ``test_maxent_equivalence.ReferenceSolver`` keeps the old Newton
loop).  A reference sketch is an instance of the real class whose
ingest and compaction methods are replaced, on that instance only, by
the copies below, so ``dumps`` serializes both the same way.

The wide seed x batch-size grid is marked ``slow``; tier-1 keeps a fast
subset.
"""

from __future__ import annotations

import math
import types
from typing import Callable, Iterator, Sequence

import numpy as np
import pytest

from repro.core.base import (
    CoinFlips,
    QuantileSketch,
    as_float_batch,
)
from repro.core.kll import KLLSketch
from repro.core.moments import MomentsSketch
from repro.core.req import ReqSketch
from repro.core.serialization import dumps, loads
from repro.errors import IncompatibleSketchError, InvalidValueError

# ----------------------------------------------------------------------
# The reference: the previous code, verbatim
# ----------------------------------------------------------------------

INIT_SECTIONS = 3
MIN_SECTION_SIZE = 4
MIN_CAPACITY = 2


def _nearest_even(x: float) -> int:
    return int(round(x / 2.0)) * 2


class _ReferenceCompactor:
    """One level of the ReqSketch hierarchy."""

    __slots__ = (
        "section_size",
        "_section_size_f",
        "num_sections",
        "state",
        "buffer",
        "hra",
    )

    def __init__(self, section_size: int, hra: bool) -> None:
        self.section_size = section_size
        self._section_size_f = float(section_size)
        self.num_sections = INIT_SECTIONS
        self.state = 0  # compaction counter driving the schedule
        self.buffer: list[float] = []
        self.hra = hra

    @property
    def nom_capacity(self) -> int:
        """Buffer capacity ``B = 2 * num_sections * section_size``."""
        return 2 * self.num_sections * self.section_size

    def compact(self, flip: Callable[[], int]) -> list[float]:
        """Run one compaction and return the items promoted upward."""
        self._ensure_enough_sections()
        self.buffer.sort()
        # The schedule compacts 1 section most of the time and
        # progressively more sections as the state accumulates set bits,
        # so items near the protected end are compacted rarely.
        secs = min(
            _trailing_ones(self.state) + 1,
            self.num_sections - 1,
        )
        compact_len = secs * self.section_size
        # At least half the buffer is always protected.
        compact_len = min(compact_len, len(self.buffer) // 2)
        compact_len -= compact_len % 2  # even region for a fair halving
        if compact_len < 2:
            compact_len = 2
        if self.hra:
            region = self.buffer[:compact_len]
            keep = self.buffer[compact_len:]
        else:
            region = self.buffer[len(self.buffer) - compact_len :]
            keep = self.buffer[: len(self.buffer) - compact_len]
        promoted = region[flip()::2]
        self.buffer = keep
        self.state += 1
        return promoted

    def _ensure_enough_sections(self) -> None:
        """Double the section count (shrinking sections) when the state
        says this compactor has been compacted enough times."""
        new_size_f = self._section_size_f / math.sqrt(2.0)
        new_size = _nearest_even(new_size_f)
        if (
            self.state >= (1 << (self.num_sections - 1))
            and new_size >= MIN_SECTION_SIZE
        ):
            self._section_size_f = new_size_f
            self.section_size = new_size
            self.num_sections <<= 1

    def merge_from(self, other: "_ReferenceCompactor") -> None:
        self.buffer.extend(other.buffer)
        # Sec 3.5: merged schedule state is the bitwise OR of the two.
        self.state |= other.state
        if other.num_sections > self.num_sections:
            self.num_sections = other.num_sections
        if other.section_size < self.section_size:
            self.section_size = other.section_size
            self._section_size_f = other._section_size_f


def _trailing_ones(state: int) -> int:
    count = 0
    while state & 1:
        count += 1
        state >>= 1
    return count


def _req_update(self: ReqSketch, value: float) -> None:
    value = float(value)
    if not np.isfinite(value):
        raise InvalidValueError(f"cannot insert non-finite value {value!r}")
    level0 = self._compactors[0]
    level0.buffer.append(value)
    self._retained += 1
    self._observe(value)
    if len(level0.buffer) >= level0.nom_capacity:
        with CoinFlips(self._rng) as flip:
            self._compress(flip)


def _req_update_batch(
    self: ReqSketch, values: Sequence[float] | np.ndarray
) -> None:
    values = as_float_batch(values)
    if values.size == 0:
        return
    self._observe_batch(values, checked=True)
    items = values.tolist()
    total = len(items)
    pos = 0
    with CoinFlips(self._rng) as flip:
        while pos < total:
            level0 = self._compactors[0]
            capacity = level0.nom_capacity
            room = max(capacity - len(level0.buffer), 1)
            chunk = items[pos : pos + room]
            level0.buffer.extend(chunk)
            self._retained += len(chunk)
            pos += len(chunk)
            if len(level0.buffer) >= capacity:
                self._compress(flip)


def _req_compress(self: ReqSketch, flip: Callable[[], int]) -> None:
    height = 0
    while height < len(self._compactors):
        compactor = self._compactors[height]
        if len(compactor.buffer) >= compactor.nom_capacity:
            if height + 1 == len(self._compactors):
                self._compactors.append(
                    _ReferenceCompactor(self.num_sections, self.hra)
                )
            promoted = compactor.compact(flip)
            self._compactors[height + 1].buffer.extend(promoted)
            self._retained -= len(promoted)
        height += 1
    self._retained = sum(len(c.buffer) for c in self._compactors)


def _compact_below_capacity(
    compactor: _ReferenceCompactor, flip: Callable[[], int]
) -> list[float]:
    """A merge's compaction: the schedule's region, or everything past
    the protected prefix and the spared sections if that is more, so
    the level ends below capacity."""
    compactor._ensure_enough_sections()
    compactor.buffer.sort()
    secs = min(
        _trailing_ones(compactor.state) + 1,
        compactor.num_sections - 1,
    )
    keep = (
        compactor.nom_capacity // 2
        + (compactor.num_sections - secs) * compactor.section_size
    )
    compact_len = max(
        min(secs * compactor.section_size, len(compactor.buffer) // 2),
        len(compactor.buffer) - keep,
    )
    compact_len -= compact_len % 2  # even region for a fair halving
    if compact_len < 2:
        compact_len = 2
    if compactor.hra:
        region = compactor.buffer[:compact_len]
        keep_items = compactor.buffer[compact_len:]
    else:
        region = compactor.buffer[len(compactor.buffer) - compact_len :]
        keep_items = compactor.buffer[: len(compactor.buffer) - compact_len]
    promoted = region[flip()::2]
    compactor.buffer = keep_items
    compactor.state += 1
    return promoted


def _req_merge(self: ReqSketch, other: QuantileSketch) -> None:
    other = self._merge_operand(other)
    if not isinstance(other, ReqSketch):
        raise IncompatibleSketchError(
            f"cannot merge ReqSketch with {type(other).__name__}"
        )
    if self.hra != other.hra:
        raise IncompatibleSketchError(
            "cannot merge HRA and LRA ReqSketch instances"
        )
    while len(self._compactors) < len(other._compactors):
        self._compactors.append(
            _ReferenceCompactor(self.num_sections, self.hra)
        )
    for height, compactor in enumerate(other._compactors):
        self._compactors[height].merge_from(compactor)
    self._merge_bookkeeping(other)
    with CoinFlips(self._rng) as flip:
        height = 0
        while height < len(self._compactors):
            compactor = self._compactors[height]
            if len(compactor.buffer) >= compactor.nom_capacity:
                if height + 1 == len(self._compactors):
                    self._compactors.append(
                        _ReferenceCompactor(self.num_sections, self.hra)
                    )
                promoted = _compact_below_capacity(compactor, flip)
                self._compactors[height + 1].buffer.extend(promoted)
            height += 1
    self._retained = sum(len(c.buffer) for c in self._compactors)


def _kll_update_batch(
    self: KLLSketch, values: Sequence[float] | np.ndarray
) -> None:
    values = as_float_batch(values)
    if values.size == 0:
        return
    self._observe_batch(values, checked=True)
    items = values.tolist()
    total = len(items)
    level0 = self._compactors[0]
    extend = level0.extend
    capacity = self._capacity_cache
    retained = self._retained
    if retained + total <= capacity:  # no compress point: no coins
        extend(items)
        self._retained = retained + total
        return
    pos = 0
    with CoinFlips(self._rng) as flip:
        while pos < total:
            end = pos + capacity - retained + 1
            chunk = items[pos:end] if end < total else (
                items[pos:] if pos else items
            )
            extend(chunk)
            retained += len(chunk)
            pos += len(chunk)
            if retained > capacity:
                self._retained = retained
                self._compress(flip)
                retained = self._retained
                capacity = self._capacity_cache
                level0 = self._compactors[0]
                extend = level0.extend
    self._retained = retained


def _kll_compress(self: KLLSketch, flip: Callable[[], int]) -> None:
    """Compact the lowest over-full compactor (may cascade)."""
    while self._retained > self._capacity_cache:
        capacities = self._capacities
        for height, buffer in enumerate(self._compactors):
            if len(buffer) >= capacities[height]:
                self._compact_level(height, flip)
                break
        else:  # no level is individually full; grow the hierarchy
            self._compact_level(len(self._compactors) - 1, flip)


def _kll_compact_level(
    self: KLLSketch, height: int, flip: Callable[[], int]
) -> None:
    """Sort level *height*, promote a random half, discard the rest."""
    buffer = self._compactors[height]
    if len(buffer) < MIN_CAPACITY:
        return
    if height + 1 == len(self._compactors):
        self._compactors.append([])
        self._recompute_capacity()
    buffer.sort()
    # An odd item (the largest) stays behind so the halving is
    # unbiased; the coin picks the odd- or even-indexed half.
    even = len(buffer) & ~1
    self._compactors[height + 1].extend(buffer[flip():even:2])
    del buffer[:even]
    self._retained -= even // 2


def _moments_update_batch(
    self: MomentsSketch, values: Sequence[float] | np.ndarray
) -> None:
    values = as_float_batch(values)
    if values.size == 0:
        return
    if self.log_moments and bool((values <= 0).any()):
        # Checked before any state mutates so rejection is atomic.
        raise InvalidValueError(
            "log moments require strictly positive values"
        )
    transformed = self._apply_transform(values)
    if self._origin is None:
        self._origin = float(transformed[0])
    centred = transformed - self._origin
    # Accumulate sum((t - o)^i) for all i via a cumulative product.
    powers = np.ones_like(centred)
    for i in range(self.num_moments + 1):
        self._power_sums[i] += powers.sum()
        if i < self.num_moments:
            powers = powers * centred
    # First extreme wins, as in the scalar path and _observe_batch
    # (min()/max() would keep the last of 0.0 and -0.0).
    self._t_min = min(
        self._t_min, float(transformed[transformed.argmin()])
    )
    self._t_max = max(
        self._t_max, float(transformed[transformed.argmax()])
    )
    if self.log_moments:
        logs = np.log(values)
        if self._log_origin is None:
            self._log_origin = float(logs[0])
        centred = logs - self._log_origin
        powers = np.ones_like(centred)
        for i in range(self.num_moments + 1):
            self._log_power_sums[i] += powers.sum()
            if i < self.num_moments:
                powers = powers * centred
        self._l_min = min(self._l_min, float(logs.min()))
        self._l_max = max(self._l_max, float(logs.max()))
    self._observe_batch(values, checked=True)
    self._solution = None


#: The methods each reference instance runs instead of the class's.
REFERENCE_METHODS: dict[type, dict[str, Callable[..., object]]] = {
    ReqSketch: {
        "update": _req_update,
        "update_batch": _req_update_batch,
        "_compress": _req_compress,
        "merge": _req_merge,
    },
    KLLSketch: {
        "update_batch": _kll_update_batch,
        "_compress": _kll_compress,
        "_compact_level": _kll_compact_level,
    },
    MomentsSketch: {"update_batch": _moments_update_batch},
}


def reference(sketch: QuantileSketch) -> QuantileSketch:
    """Drive the fresh *sketch* by the reference code from now on."""
    for name, method in REFERENCE_METHODS[type(sketch)].items():
        setattr(sketch, name, types.MethodType(method, sketch))
    if isinstance(sketch, ReqSketch):
        sketch._compactors = [
            _ReferenceCompactor(sketch.num_sections, sketch.hra)
        ]
    return sketch


# ----------------------------------------------------------------------
# The differential
# ----------------------------------------------------------------------

def _signed(rng: np.random.Generator, n: int) -> np.ndarray:
    """Heavy-tailed values of both signs, rounded so that ties and
    both signed zeros occur (the sort must keep their order)."""
    return np.round(rng.pareto(1.0, n) * rng.choice((-1.0, 1.0), n), 1)


def _positive(rng: np.random.Generator, n: int) -> np.ndarray:
    return 1.0 + rng.pareto(1.0, n)


#: name -> (factory(seed), values(rng, n)); the values stay in the
#: domain the sketch accepts.
CASES: dict[str, tuple[Callable[[int], QuantileSketch],
                       Callable[[np.random.Generator, int], np.ndarray]]] = {
    "kll": (lambda seed: KLLSketch(350, seed=seed), _signed),
    "kll-k8": (lambda seed: KLLSketch(8, seed=seed), _signed),
    "req": (lambda seed: ReqSketch(30, hra=True, seed=seed), _signed),
    "req-lra": (lambda seed: ReqSketch(8, hra=False, seed=seed), _signed),
    "req-k4": (lambda seed: ReqSketch(4, seed=seed), _positive),
    "moments-log": (lambda seed: MomentsSketch(transform="log"), _positive),
    "moments-signed": (lambda seed: MomentsSketch(), _signed),
    "moments-logm": (
        lambda seed: MomentsSketch(log_moments=True), _positive
    ),
}

BATCH_SIZES = (0, 1, 2, 3, 7, 64, 5_000, 65_536)
FAST_SIZES = (0, 1, 2, 3, 7, 64, 5_000)


def assert_same(new: QuantileSketch, ref: QuantileSketch, where: str) -> None:
    assert dumps(new) == dumps(ref), f"bytes diverged {where}"
    rng = getattr(new, "_rng", None)
    if rng is not None:
        assert rng.bit_generator.state == ref._rng.bit_generator.state, (
            f"generator state diverged {where}"
        )
    compactors = getattr(new, "_compactors", None)
    if compactors is not None:  # the incrementally kept retained count
        levels = [getattr(c, "buffer", c) for c in compactors]
        assert new.num_retained == sum(len(level) for level in levels)


Step = tuple[str, object]


def steps(
    values: Callable[[np.random.Generator, int], np.ndarray],
    seed: int,
    sizes: Sequence[int],
    count: int,
) -> Iterator[Step]:
    """A seeded mix of scalar runs, batches, merges and round trips."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        roll = rng.random()
        if roll < 0.25:
            yield "scalar", values(rng, int(rng.integers(0, 400)))
        elif roll < 0.4:
            operand = [values(rng, int(rng.choice(sizes)))
                       for _ in range(int(rng.integers(1, 4)))]
            yield "merge", (int(rng.integers(1 << 30)), operand)
        elif roll < 0.45:
            yield "self-merge", None
        elif roll < 0.5:
            yield "round-trip", None
        else:
            yield "batch", values(rng, int(rng.choice(sizes)))


def run_differential(name: str, seed: int, sizes: Sequence[int],
                     count: int) -> None:
    factory, values = CASES[name]
    new, ref = factory(seed), reference(factory(seed))
    for index, (kind, arg) in enumerate(steps(values, seed, sizes, count)):
        if kind == "scalar":
            for value in arg.tolist():
                new.update(value)
                ref.update(value)
        elif kind == "batch":
            new.update_batch(arg)
            ref.update_batch(arg)
        elif kind == "merge":
            operand_seed, batches = arg
            new_operand = factory(operand_seed)
            ref_operand = reference(factory(operand_seed))
            for batch in batches:
                new_operand.update_batch(batch)
                ref_operand.update_batch(batch)
            new.merge(new_operand)
            ref.merge(ref_operand)
        elif kind == "self-merge":
            new.merge(new)
            ref.merge(ref)
        else:  # a decoded sketch continues as the one it was
            new = loads(dumps(new))
        assert_same(new, ref, f"at step {index} ({kind}) of {name}/{seed}")


@pytest.mark.parametrize("name", sorted(CASES))
def test_mixed_steps_match_reference(name: str) -> None:
    for seed in (1, 2):
        run_differential(name, seed, FAST_SIZES, 25)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", sorted(CASES))
def test_wide_grid_matches_reference(name: str, seed: int) -> None:
    run_differential(name, 100 + seed, BATCH_SIZES, 60)


@pytest.mark.parametrize("size", BATCH_SIZES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_each_batch_size_matches_reference(name: str, size: int) -> None:
    """One batch of each size into a sketch that has already compacted
    (or, for Moments, fixed its origin), then a scalar run."""
    factory, values = CASES[name]
    rng = np.random.default_rng(size)
    new, ref = factory(7), reference(factory(7))
    prefill = values(rng, 3_000)
    for data in (prefill, values(rng, size)):
        new.update_batch(data)
        ref.update_batch(data)
        assert_same(new, ref, f"after a batch of {data.size}")
    for value in values(rng, 200).tolist():
        new.update(value)
        ref.update(value)
    assert_same(new, ref, "after the scalar run")


def test_req_merge_leaves_upper_level_at_capacity() -> None:
    """A merge used to leave levels above 0 at or over capacity.  Its
    walk now compacts each full level to below capacity, so none is at
    capacity afterwards, and the walks that follow, which start from
    level 0 again, continue as the reference's."""
    data = np.random.default_rng(3).uniform(0.0, 1.0, (2, 1_000))
    new, ref = ReqSketch(seed=1), reference(ReqSketch(seed=1))
    new_operand, ref_operand = ReqSketch(seed=2), reference(ReqSketch(seed=2))
    new.update_batch(data[0])
    ref.update_batch(data[0])
    new_operand.update_batch(data[1])
    ref_operand.update_batch(data[1])
    new.merge(new_operand)
    ref.merge(ref_operand)
    assert_same(new, ref, "after the merge")
    for sketch in (new, ref):
        assert all(
            len(c.buffer) < c.nom_capacity for c in sketch._compactors
        ), "the merge left a level at capacity"
    assert new._overfull_top == 0
    for value in np.random.default_rng(4).uniform(0.0, 1.0, 400).tolist():
        new.update(value)
        ref.update(value)
        assert_same(new, ref, "in the scalar run after the merge")
    for size in (1, 64, 5_000):
        batch = np.random.default_rng(size).uniform(0.0, 1.0, size)
        new.update_batch(batch)
        ref.update_batch(batch)
        assert_same(new, ref, f"after a batch of {size}")


def _full_over_quiet_levels() -> tuple[ReqSketch, ReqSketch, np.ndarray]:
    """New and reference LRA sketches with 8-item sections, after the
    1,498 values that leave level 2 at capacity over two quiet levels,
    and further values to feed them."""
    values = np.random.default_rng(0).uniform(0.0, 1.0, 2_000)
    new = ReqSketch(8, hra=False, seed=1)
    ref = reference(ReqSketch(8, hra=False, seed=1))
    new.update_batch(values[:1_498])
    ref.update_batch(values[:1_498])
    full = [len(c.buffer) >= c.nom_capacity for c in ref._compactors]
    assert full[:3] == [False, False, True], full
    return new, ref, values[1_498:]


def test_decoded_req_walks_every_level() -> None:
    """Decoded levels may sit at capacity above quiet ones; a sketch
    restored in that state must continue as the one that was encoded."""
    new, ref, values = _full_over_quiet_levels()
    restored = loads(dumps(new))
    for value in values.tolist():
        restored.update(value)
        ref.update(value)
        assert_same(restored, ref, "in the scalar run after decoding")


def test_merge_into_empty_req_walks_every_level() -> None:
    """Merged into an empty sketch, the full level sits over quiet ones
    and level 0 is below capacity: the merge's walk must still reach
    it."""
    new_operand, ref_operand, values = _full_over_quiet_levels()
    new = ReqSketch(8, hra=False, seed=2)
    ref = reference(ReqSketch(8, hra=False, seed=2))
    new.merge(new_operand)
    ref.merge(ref_operand)
    assert_same(new, ref, "after the merge")
    new.update_batch(values)
    ref.update_batch(values)
    assert_same(new, ref, "after a batch following the merge")


@pytest.mark.parametrize("k", (8, 350))
def test_kll_grows_mid_batch(k: int) -> None:
    """One batch that adds levels and keeps going after each growth."""
    values = np.random.default_rng(k).uniform(0.0, 1.0, 20_000)
    new, ref = KLLSketch(k, seed=3), reference(KLLSketch(k, seed=3))
    new.update_batch(values[:10])
    ref.update_batch(values[:10])
    levels = new.num_levels
    new.update_batch(values[10:])
    ref.update_batch(values[10:])
    assert new.num_levels >= levels + 3
    assert_same(new, ref, "after the growing batch")


@pytest.mark.parametrize("poison", (math.nan, math.inf, -math.inf))
@pytest.mark.parametrize("name", sorted(CASES))
def test_rejected_batch_leaves_bytes(name: str, poison: float) -> None:
    factory, values = CASES[name]
    rng = np.random.default_rng(11)
    new, ref = factory(5), reference(factory(5))
    prefill = values(rng, 5_000)
    new.update_batch(prefill)
    ref.update_batch(prefill)
    before = dumps(new)
    batch = values(rng, 5_000)
    batch[2_500] = poison
    for sketch in (new, ref):
        with pytest.raises(InvalidValueError):
            sketch.update_batch(batch)
    assert dumps(new) == before
    assert_same(new, ref, f"after a batch holding {poison}")
