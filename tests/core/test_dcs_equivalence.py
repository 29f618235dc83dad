"""The Dyadic Count Sketch against a verbatim copy of its per-level code.

DCS keeps its sketched levels in one ``(levels, depth, width)`` table,
hashes a chunk of keys for all of them in one broadcast and keeps its
exact levels in one array.  None of that may move a byte or an answer.
The reference below is the previous implementation, kept verbatim: one
object per level, a ``CountSketch`` (also kept verbatim, as
``_ReferenceCountSketch``) or a numpy array, and its own encoder.  Each
configuration of a seeded grid is driven by the same interleaving of
scalar updates, batches whose sizes cross the update chunk's edges,
deletions and merges; after every step ``dumps`` must equal the
reference's bytes, and at checkpoints every ``quantile`` and ``rank``
must equal the reference's answer.

The grid covers a universe with no sketched level and one with no
exact level.  Its wide part is marked ``slow``; tier-1 keeps a fast
slice.
"""

from __future__ import annotations

import copy
import itertools
import math
from typing import Sequence

import numpy as np
import pytest

from repro.core.base import QuantileSketch, validate_quantile
from repro.core.codec import Writer
from repro.core.countsketch import CountSketch
from repro.core.dcs import UPDATE_CHUNK, DyadicCountSketch
from repro.core.serialization import MAGIC, VERSION, dumps, loads
from repro.errors import InvalidValueError

# ----------------------------------------------------------------------
# The reference: the previous code, verbatim
# ----------------------------------------------------------------------


class _ReferenceCountSketch:
    """Fixed-size linear frequency sketch over integer keys."""

    __slots__ = ("width", "depth", "seed", "_shift", "_table",
                 "_bucket_a", "_bucket_b", "_sign_a", "_sign_b")

    def __init__(self, width: int, depth: int, seed: int) -> None:
        self.width = int(width)
        self.depth = int(depth)
        self.seed = int(seed)
        self._shift = np.uint64(64 - int(width).bit_length() + 1)
        rng = np.random.default_rng(seed)
        self._table = np.zeros((self.depth, self.width), dtype=np.int64)
        # Odd multipliers make multiply-shift 2-universal.
        self._bucket_a = (
            rng.integers(0, 1 << 63, self.depth, dtype=np.uint64) << 1 | 1
        )
        self._bucket_b = rng.integers(
            0, 1 << 63, self.depth, dtype=np.uint64
        )
        self._sign_a = (
            rng.integers(0, 1 << 63, self.depth, dtype=np.uint64) << 1 | 1
        )
        self._sign_b = rng.integers(
            0, 1 << 63, self.depth, dtype=np.uint64
        )

    def _buckets_of(self, keys: np.ndarray) -> np.ndarray:
        """(depth, n) array of bucket columns for *keys*."""
        keys = keys.astype(np.uint64)
        hashed = (
            self._bucket_a[:, None] * keys[None, :]
            + self._bucket_b[:, None]
        )
        return (hashed >> self._shift).astype(np.int64)

    def _signs_of(self, keys: np.ndarray) -> np.ndarray:
        """(depth, n) array of +-1 signs for *keys*."""
        keys = keys.astype(np.uint64)
        hashed = (
            self._sign_a[:, None] * keys[None, :]
            + self._sign_b[:, None]
        )
        top_bit = (hashed >> np.uint64(63)).astype(np.int64)
        return top_bit * 2 - 1

    def update(self, key: int, count: int = 1) -> None:
        """Add *count* (may be negative) occurrences of *key*."""
        self.update_batch(np.asarray([key], dtype=np.int64), count)

    def update_batch(self, keys: np.ndarray, count: int = 1) -> None:
        """Add *count* occurrences of every key in *keys*."""
        keys = np.asarray(keys, dtype=np.int64).ravel()
        if keys.size == 0:
            return
        if (keys < 0).any():
            raise InvalidValueError("keys must be non-negative integers")
        buckets = self._buckets_of(keys)
        signs = self._signs_of(keys) * count
        for row in range(self.depth):
            np.add.at(self._table[row], buckets[row], signs[row])

    def estimate(self, key: int) -> int:
        """Estimated net count of *key* (median over rows)."""
        return int(self.estimate_batch(np.asarray([key]))[0])

    def estimate_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`estimate` over an array of keys."""
        keys = np.asarray(keys, dtype=np.int64).ravel()
        if keys.size == 0:
            return np.zeros(0, dtype=np.int64)
        buckets = self._buckets_of(keys)
        signs = self._signs_of(keys)
        rows = np.arange(self.depth)[:, None]
        per_row = self._table[rows, buckets] * signs
        return np.median(per_row, axis=0).astype(np.int64)

    def merge(self, other: "_ReferenceCountSketch") -> None:
        self._table += other._table

    def size_bytes(self) -> int:
        return 8 * self._table.size + 8 * 4 * self.depth


class _ReferenceDCS(QuantileSketch):
    """The previous DyadicCountSketch: one structure per level."""

    name = "dcs"

    def __init__(
        self,
        universe_log2: int,
        exact_threshold: int,
        cs_width: int,
        cs_depth: int,
        seed: int,
    ) -> None:
        super().__init__()
        self.universe_log2 = int(universe_log2)
        self.universe = 1 << self.universe_log2
        self.exact_threshold = int(exact_threshold)
        self.seed = int(seed)
        # Levels 0..universe_log2-1; level l has universe >> l intervals.
        self._levels: list[np.ndarray | _ReferenceCountSketch] = []
        for level in range(self.universe_log2):
            intervals = self.universe >> level
            if intervals <= self.exact_threshold:
                self._levels.append(np.zeros(intervals, dtype=np.int64))
            else:
                self._levels.append(
                    _ReferenceCountSketch(
                        width=cs_width, depth=cs_depth,
                        seed=seed + level,
                    )
                )

    def _validate_keys(self, values: np.ndarray) -> np.ndarray:
        if not np.isfinite(values).all():
            raise InvalidValueError("batch contains non-finite values")
        keys = np.floor(values).astype(np.int64)
        if (keys < 0).any() or (keys >= self.universe).any():
            raise InvalidValueError("values must lie in the universe")
        return keys

    def update(self, value: float) -> None:
        self.update_batch(np.asarray([value], dtype=np.float64))

    def update_batch(self, values: Sequence[float] | np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        keys = self._validate_keys(values)  # rejects non-finite up front
        self._apply(keys, +1)
        self._observe_batch(keys.astype(np.float64), checked=True)

    def delete(self, value: float) -> None:
        self.delete_batch(np.asarray([value], dtype=np.float64))

    def delete_batch(self, values: Sequence[float] | np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        keys = self._validate_keys(values)
        if values.size > self._count:
            raise InvalidValueError(
                "cannot delete more items than were inserted"
            )
        self._apply(keys, -1)
        self._count -= int(values.size)

    def _apply(self, keys: np.ndarray, sign: int) -> None:
        for level, structure in enumerate(self._levels):
            interval_keys = keys >> level
            if isinstance(structure, _ReferenceCountSketch):
                structure.update_batch(interval_keys, sign)
            else:
                counts = np.bincount(
                    interval_keys, minlength=structure.size
                )
                if sign > 0:
                    structure += counts
                else:
                    structure -= counts

    def _interval_count(self, level: int, index: int) -> int:
        structure = self._levels[level]
        if isinstance(structure, _ReferenceCountSketch):
            return max(structure.estimate(index), 0)
        return int(structure[index])

    def rank(self, value: float) -> int:
        self._require_nonempty()
        if value >= self._max:
            return self._count
        if value < self._min:
            return 0
        x = int(math.floor(value)) + 1  # items <= value == items < x
        if x <= 0:
            return 0
        if x >= self.universe:
            return self._count
        total = 0
        for level in range(self.universe_log2):
            if (x >> level) & 1:
                index = ((x >> (level + 1)) << 1)
                total += self._interval_count(level, index)
        return max(0, min(total, self._count))

    def quantile(self, q: float) -> float:
        q = validate_quantile(q)
        self._require_nonempty()
        target = max(math.ceil(q * self._count), 1)
        index = 0
        for level in range(self.universe_log2 - 1, -1, -1):
            left = index << 1
            left_count = self._interval_count(level, left)
            if target <= left_count:
                index = left
            else:
                target -= left_count
                index = left + 1
        estimate = float(index)
        if self._min <= self._max:  # clamp into the observed range
            estimate = min(max(estimate, self._min), self._max)
        return estimate

    def merge(self, other: QuantileSketch) -> None:
        other = self._merge_operand(
            other, "universe_log2", "exact_threshold", "seed"
        )
        for mine, theirs in zip(self._levels, other._levels):
            if isinstance(mine, _ReferenceCountSketch):
                mine.merge(theirs)
            else:
                mine += theirs
        self._merge_bookkeeping(other)

    def guarantee(self):  # pragma: no cover - never asked
        raise NotImplementedError

    def copy(self) -> "_ReferenceDCS":  # no codec: a self-merge's snapshot
        return copy.deepcopy(self)

    def size_bytes(self) -> int:
        total = 4 * 8
        for structure in self._levels:
            if isinstance(structure, _ReferenceCountSketch):
                total += structure.size_bytes()
            else:
                total += 8 * structure.size
        return total


def reference_dumps(sketch: _ReferenceDCS) -> bytes:
    """``dumps`` as the previous DCS encoder wrote it."""
    w = Writer()
    w.header(MAGIC, VERSION)
    w.u8(len(sketch.name))
    w.raw(sketch.name.encode("ascii"))
    w.i64(sketch.universe_log2)
    w.i64(sketch.exact_threshold)
    w.i64(sketch.seed)
    w.i64(sketch._count)
    w.f64(sketch._min)
    w.f64(sketch._max)
    # Count-Sketch config is shared by every sketched level.
    sketched = [
        s for s in sketch._levels if isinstance(s, _ReferenceCountSketch)
    ]
    w.i64(sketched[0].width if sketched else 0)
    w.i64(sketched[0].depth if sketched else 0)
    for structure in sketch._levels:
        if isinstance(structure, _ReferenceCountSketch):
            w.u8(1)
            w.i64_array(structure._table.ravel())
        else:
            w.u8(0)
            w.i64_array(structure)
    return w.getvalue()


# ----------------------------------------------------------------------
# Driving both the same way
# ----------------------------------------------------------------------

#: Batch sizes that fall on, just inside and just past update-chunk
#: edges (4,096 is a whole number of chunks).
BATCH_SIZES = (1, 7, UPDATE_CHUNK + 1, 4_095, 4_096, 4_097, 2 * 4_096 + 1)
assert 4_096 % UPDATE_CHUNK == 0
QS = (1e-9, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0)


class Pair:
    """A new sketch and a reference sketch fed the same operations."""

    def __init__(self, config: tuple[int, int, int, int, int]) -> None:
        universe_log2, threshold, width, depth, seed = config
        self.new = DyadicCountSketch(
            universe_log2=universe_log2, exact_threshold=threshold,
            cs_width=width, cs_depth=depth, seed=seed,
        )
        self.ref = _ReferenceDCS(universe_log2, threshold, width, depth, seed)

    def apply(self, method: str, *args: object) -> None:
        getattr(self.new, method)(*args)
        getattr(self.ref, method)(*args)

    def assert_bytes(self, step: str) -> None:
        assert dumps(self.new) == reference_dumps(self.ref), step
        assert self.new.size_bytes() == self.ref.size_bytes(), step

    def assert_answers(self, step: str) -> None:
        assert self.new.count == self.ref.count, step
        if self.ref.count == 0:
            return
        assert [self.new.quantile(q) for q in QS] == [
            self.ref.quantile(q) for q in QS
        ], step
        universe = self.ref.universe
        probes = np.unique(np.linspace(-1.0, universe, 17).round(1))
        assert [self.new.rank(float(v)) for v in probes] == [
            self.ref.rank(float(v)) for v in probes
        ], step


def drive(config: tuple[int, int, int, int, int]) -> None:
    universe_log2 = config[0]
    rng = np.random.default_rng(config[4] * 7919 + universe_log2)
    universe = 1 << universe_log2

    def values(n: int) -> np.ndarray:
        return rng.integers(0, universe, n) + rng.random(n)

    main, other = Pair(config), Pair(config)
    inserted: list[np.ndarray] = []
    for size in BATCH_SIZES:
        for value in values(2).tolist():
            main.apply("update", value)
            inserted.append(np.asarray([value]))
        main.assert_bytes(f"scalar updates before batch {size}")
        batch = values(size)
        main.apply("update_batch", batch)
        inserted.append(batch)
        main.assert_bytes(f"batch of {size}")
        other.apply("update_batch", values(size // 3 + 1))
    main.assert_answers("after the batches")
    everything = np.concatenate(inserted)
    gone = rng.permutation(everything)[: 4 * UPDATE_CHUNK + 3]
    main.apply("delete", float(gone[0]))
    main.apply("delete_batch", gone[1:])
    main.assert_bytes("after deletions")
    main.assert_answers("after deletions")
    main.new.merge(other.new)
    main.ref.merge(other.ref)
    main.assert_bytes("after a merge")
    main.new.merge(main.new)
    main.ref.merge(main.ref)
    main.assert_bytes("after a self-merge")
    main.assert_answers("after the merges")
    # A decoded sketch carries on exactly like the one it came from.
    restored = loads(dumps(main.new))
    assert isinstance(restored, DyadicCountSketch)
    main.new = restored
    main.apply("update_batch", values(UPDATE_CHUNK + 1))
    main.apply("delete_batch", gone[:5])
    main.assert_bytes("after a codec round trip and more updates")
    main.assert_answers("after a codec round trip")


def _config_id(config: tuple[int, int, int, int, int]) -> str:
    universe_log2, threshold, width, depth, seed = config
    return f"u{universe_log2}-t{threshold}-w{width}-d{depth}-s{seed}"


GRID = [
    (universe_log2, threshold, width, depth, seed)
    for universe_log2, threshold in itertools.product(
        (1, 6, 12, 20), ("1", "8", "2048", "universe")
    )
    for width, depth, seed in itertools.product((8, 256), (1, 4), (0, 3))
    for threshold in [
        (1 << universe_log2) if threshold == "universe" else int(threshold)
    ]
]

#: Tier-1's slice: no exact level, no sketched level, a mix of both at
#: the widest universe, and both depth parities.
FAST = [
    (1, 1, 8, 1, 0),
    (6, 8, 8, 4, 3),
    (12, 1 << 12, 256, 1, 0),
    (20, 2048, 256, 4, 3),
]


@pytest.mark.parametrize("config", FAST, ids=_config_id)
def test_matches_the_per_level_reference(config):
    drive(config)


@pytest.mark.slow
@pytest.mark.parametrize(
    "config", [c for c in GRID if c not in FAST], ids=_config_id
)
def test_matches_the_per_level_reference_wide(config):
    drive(config)


def test_count_sketch_matches_the_reference():
    """``CountSketch`` is the one-level case: same hashes, counters and
    estimates as the verbatim class."""
    rng = np.random.default_rng(5)
    for width, depth, seed in ((2, 1, 0), (64, 4, 9), (1024, 5, 2)):
        new = CountSketch(width=width, depth=depth, seed=seed)
        ref = _ReferenceCountSketch(width, depth, seed)
        keys = rng.integers(0, 1 << 40, 3_000)
        for sketch in (new, ref):
            sketch.update_batch(keys, 3)
            sketch.update(int(keys[0]), -2)
        assert np.array_equal(new._table[0], ref._table)
        assert np.array_equal(
            new.estimate_batch(keys[:500]), ref.estimate_batch(keys[:500])
        )
        assert new.size_bytes() == ref.size_bytes()


def test_a_universe_with_no_sketched_level_merges_after_a_round_trip():
    """With every level exact the Count-Sketch shape is not kept (the
    bytes write 0 x 0), so a decoded copy still merges with a sketch
    built with any width and depth."""
    sketch = DyadicCountSketch(universe_log2=6, exact_threshold=64,
                               cs_width=8, cs_depth=2)
    sketch.update_batch(np.arange(64.0))
    restored = loads(dumps(sketch))
    restored.merge(sketch)
    sketch.merge(loads(dumps(sketch)))
    assert dumps(restored) == dumps(sketch)
    assert restored.count == 128
