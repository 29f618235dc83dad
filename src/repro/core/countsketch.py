"""Count-Sketch frequency estimator (Charikar, Chen, Farach-Colton,
ICALP 2002; reference [10] of the paper).

The linear-sketch substrate of the Dyadic Count Sketch (Sec 5.2.3): a
``depth x width`` counter table where each row hashes a key to one
counter with a random sign.  Updates add ``sign * count``; a point
query returns the median of the per-row signed counters, an unbiased
estimate whose error is bounded by the L2 norm of the frequency vector
over ``sqrt(width)``.

Being a *linear* sketch it supports negative updates (deletions) —
the defining property of turnstile algorithms (Sec 5.1).

Hashing is multiply-shift over ``uint64`` (Dietzfelbinger et al.),
which is 2-universal for power-of-two widths and fully vectorises over
a leading *level* axis: a ``(levels, depth, width)`` table holds one
Count-Sketch per level.  :class:`CountSketch` is the one-level case.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import IncompatibleSketchError, InvalidValueError

DEFAULT_DEPTH = 5
DEFAULT_WIDTH = 512


def new_levels(
    seeds: Iterable[int], width: int, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """Zeroed ``(levels, depth, width)`` counters, one level per seed,
    and their ``(4, levels, depth, 1)`` bucket and sign multipliers and
    offsets from ``default_rng(seed)``.  No level, no shape check."""
    levels = list(seeds)
    if levels and (width < 2 or width & (width - 1)):
        raise InvalidValueError(
            f"width must be a power of two >= 2, got {width!r}"
        )
    if levels and depth < 1:
        raise InvalidValueError(f"depth must be >= 1, got {depth!r}")
    draws = [
        np.random.default_rng(seed).integers(
            0, 1 << 63, (4, depth), dtype=np.uint64
        )
        for seed in levels
    ]
    hashes = np.array(draws, dtype=np.uint64).reshape(len(levels), 4, depth)
    hashes = hashes.transpose(1, 0, 2)[..., None]
    # Odd multipliers make multiply-shift 2-universal.
    hashes[0::2] = hashes[0::2] << 1 | 1
    return np.zeros((len(levels), depth, width), dtype=np.int64), hashes


def _hash(
    table: np.ndarray, hashes: np.ndarray, keys: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(levels, depth, n)`` flat *table* indices of the ``(levels, n)``
    non-negative *keys* in every row of their level, and sign * count."""
    levels, depth, width = table.shape
    keys = keys.astype(np.uint64)[:, None, :]
    bucket_a, bucket_b, sign_a, sign_b = hashes
    # A bucket is the top log2(width) bits, a sign the top bit (-1 or 0
    # by an arithmetic shift of the int64 view).
    rows = np.arange(levels * depth).reshape(levels, depth, 1) * width
    shift = np.uint64(65 - width.bit_length())
    buckets = ((bucket_a * keys + bucket_b) >> shift).view(np.int64) + rows
    signs = ((sign_a * keys + sign_b).view(np.int64) >> 63) * (-2 * count)
    return buckets, signs - count


def signed_add(
    table: np.ndarray, hashes: np.ndarray, keys: np.ndarray, count: int
) -> None:
    """Add ``sign * count`` to the bucket of each of the ``(levels, n)``
    *keys* in every row of its level."""
    buckets, signs = _hash(table, hashes, keys, count)
    np.add.at(table.reshape(-1), buckets.ravel(), signs.ravel())


def signed_median(
    table: np.ndarray, hashes: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    """``(levels, n)`` estimates of the ``(levels, n)`` *keys*: the signed
    counters' median over rows (np.median's), truncated to an integer."""
    buckets, signs = _hash(table, hashes, keys, 1)
    per_row = np.sort(table.take(buckets) * signs, axis=1)
    depth = table.shape[1]
    middle = per_row[:, (depth - 1) // 2:depth // 2 + 1]
    return middle.mean(axis=1).astype(np.int64)


class CountSketch:
    """Fixed-size linear frequency sketch over integer keys.

    Parameters
    ----------
    width:
        Counters per row (power of two); estimate error shrinks as
        ``1/sqrt(width)``.
    depth:
        Number of independent rows; the median over rows drives the
        failure probability down exponentially.
    seed:
        Seed for the hash family (two sketches merge only if they
        share a seed, i.e. the same hash functions).
    """

    __slots__ = ("width", "depth", "seed", "_table", "_hashes")

    def __init__(
        self,
        width: int = DEFAULT_WIDTH,
        depth: int = DEFAULT_DEPTH,
        seed: int = 0,
    ) -> None:
        self._table, self._hashes = new_levels([seed], width, depth)
        self.width, self.depth, self.seed = int(width), int(depth), int(seed)

    def update(self, key: int, count: int = 1) -> None:
        """Add *count* (may be negative) occurrences of *key*."""
        self.update_batch(np.asarray([key], dtype=np.int64), count)

    def update_batch(self, keys: np.ndarray, count: int = 1) -> None:
        """Add *count* occurrences of every key in *keys*."""
        keys = np.asarray(keys, dtype=np.int64).ravel()
        if (keys < 0).any():
            raise InvalidValueError("keys must be non-negative integers")
        signed_add(self._table, self._hashes, keys[None], count)

    def estimate(self, key: int) -> int:
        """Estimated net count of *key* (median over rows)."""
        return int(self.estimate_batch(np.asarray([key]))[0])

    def estimate_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`estimate` over an array of keys."""
        keys = np.asarray(keys, dtype=np.int64).ravel()
        return signed_median(self._table, self._hashes, keys[None]).ravel()

    def merge(self, other: "CountSketch") -> None:
        """Add *other*'s counters (requires identical configuration)."""
        mine = (self.width, self.depth, self.seed)
        if (other.width, other.depth, other.seed) != mine:
            raise IncompatibleSketchError(
                "CountSketch configurations (or hash seeds) differ"
            )
        self._table += other._table

    def size_bytes(self) -> int:
        return 8 * (self._table.size + self._hashes.size)
