"""A sketch-of-sketches that ingests through N independent shards.

:class:`ShardedSketch` conforms to the
:class:`~repro.core.base.QuantileSketch` interface, but routes every
insertion to one of ``n_shards`` inner sketches and answers queries
from a lazily merged view.  The service's hot metrics use it as their
partition sketch, updated under the store lock like any other
partition: the server has one writer, so nothing stripes there, and
the service keeps it only while the benchmark configures it (ROADMAP
item 5).
Because all sketches in :mod:`repro.core` are mergeable (Sec 2.4 of the
paper), shard-then-merge answers carry the same error guarantee as
sequential ingestion — the differential harness in ``tests/parallel``
asserts exactly that.

Concurrency model
-----------------
Each shard carries its own lock, so up to ``n_shards`` writers make
progress concurrently, and a query never observes a half-applied
update.  The merged view is cached under a version counter: every
write bumps the version, and a query rebuilds the view only when the
cached version is stale (the cache-invalidation rule documented in
DESIGN.md).  Building the view merges shard snapshots one lock at a
time, so queries interleave with concurrent ingestion instead of
stalling it.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.base import (
    Guarantee,
    QuantileSketch,
    as_float_batch,
    batch_extremes,
)
from repro.errors import InvalidValueError


class ShardedSketch(QuantileSketch):
    """Fan insertions out over per-shard sketches; merge on query.

    Values are routed round-robin: element ``i`` of the stream goes to
    shard ``i % n_shards``, and the cursor carries across batches, so
    however the stream is chunked the shards stay balanced to within one
    value and each shard keeps its values' arrival order.

    Parameters
    ----------
    sketch_factory:
        Zero-argument callable building one empty inner sketch; called
        ``n_shards`` times at construction and once more per merged-view
        rebuild.
    n_shards:
        Number of inner sketches (parallelism ceiling for writers).
    """

    name = "sharded"

    def __init__(
        self,
        sketch_factory: Callable[[], QuantileSketch],
        n_shards: int = 4,
    ) -> None:
        super().__init__()
        n_shards = int(n_shards)
        if n_shards < 1:
            raise InvalidValueError(
                f"n_shards must be >= 1, got {n_shards!r}"
            )
        self.n_shards = n_shards
        self._factory = sketch_factory
        self._shards: list[QuantileSketch] = [
            sketch_factory() for _ in range(self.n_shards)
        ]
        self._shard_locks = [
            threading.Lock() for _ in range(self.n_shards)
        ]
        self._meta_lock = threading.Lock()  # guards bookkeeping + version
        self._cache_lock = threading.Lock()
        self._version = 0
        self._cached_version = -1
        self._cached_view: QuantileSketch | None = None
        self._routed = 0  # round-robin cursor across batches

    @classmethod
    def from_shards(
        cls,
        sketch_factory: Callable[[], QuantileSketch],
        shards: Sequence[QuantileSketch],
    ) -> "ShardedSketch":
        """Adopt pre-built shard sketches (a snapshot restore)."""
        sharded = cls(sketch_factory, n_shards=len(shards))
        sharded._shards = list(shards)
        for shard in sharded._shards:
            sharded._merge_bookkeeping(shard)
        sharded._routed = sharded._count
        return sharded

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def update(self, value: float) -> None:
        value = float(value)
        if not np.isfinite(value):
            raise InvalidValueError(f"cannot insert non-finite value {value!r}")
        self._shards[0]._check_range(value, value)
        with self._meta_lock:
            shard = self._routed % self.n_shards
            self._routed += 1
        with self._shard_locks[shard]:
            inner = self._shards[shard]
            inner.update(value)
            extremes = (inner._min, inner._max)
        with self._meta_lock:
            self._observe_batch(
                np.array([value]), checked=True, extremes=extremes
            )
            self._version += 1

    def update_batch(self, values: Sequence[float] | np.ndarray) -> None:
        # Refuse NaN, ±inf and any finite value the shards' sketch
        # refuses before the routing cursor moves or a shard is touched,
        # so a poisoned batch leaves no partial state behind.
        values = as_float_batch(values)
        if values.size == 0:
            return
        self._shards[0]._check_range(*batch_extremes(values))
        with self._meta_lock:
            offset = self._routed
            self._routed += int(values.size)
        # Shard s takes every n-th value from the first one the cursor
        # sends it; a writer holds one shard lock at a time, so
        # concurrent batches stripe across the shards instead of queueing.
        # The extremes are the shards' own after the update, not the
        # batch's: a sketch may keep less than the raw value (DCS floors
        # it), and from_shards folds the shards' bookkeeping too.
        n = self.n_shards
        lo, hi = np.inf, -np.inf
        for shard, lock in enumerate(self._shard_locks):
            part = np.ascontiguousarray(values[(shard - offset) % n :: n])
            if part.size:
                with lock:
                    inner = self._shards[shard]
                    inner.update_batch(part)
                    lo, hi = min(lo, inner._min), max(hi, inner._max)
        with self._meta_lock:
            self._observe_batch(values, checked=True, extremes=(lo, hi))
            self._version += 1

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------

    def merge(self, other: QuantileSketch) -> None:
        """Merge *other* (sharded or plain) into this sketch.

        A :class:`ShardedSketch` with the same shard count merges
        shard-by-shard (preserving per-shard parallel query cost); any
        other mergeable sketch — including a differently-sharded one,
        via its merged view — folds into shard 0.

        ``s.merge(s)`` doubles the sketch, like every sketch in the
        repo; it has no codec for :meth:`_merge_operand`'s ``copy()``
        to go through (and locks no copy should share), so the
        self-snapshot is the merged view (a plain, independent sketch)
        folded into shard 0.
        """
        if other is self:
            view = self._merged_view()
            with self._shard_locks[0]:
                self._shards[0].merge(view)
            with self._meta_lock:
                self._merge_bookkeeping(view)
                self._routed = self._count
                self._version += 1
            return
        if isinstance(other, ShardedSketch):
            if other.n_shards == self.n_shards:
                for shard in range(self.n_shards):
                    with self._shard_locks[shard]:
                        self._shards[shard].merge(other._shards[shard])
            else:
                view = other._merged_view()  # before taking our lock
                with self._shard_locks[0]:
                    self._shards[0].merge(view)
        else:
            with self._shard_locks[0]:
                self._shards[0].merge(other)
        with self._meta_lock:
            self._merge_bookkeeping(other)
            self._routed = self._count
            self._version += 1

    # ------------------------------------------------------------------
    # Queries (answered from the cached merged view)
    # ------------------------------------------------------------------

    def _merged_view(self) -> QuantileSketch:
        with self._cache_lock:
            with self._meta_lock:
                version = self._version
            if self._cached_view is not None and (
                self._cached_version == version
            ):
                return self._cached_view
            view = self._factory()
            for shard, lock in zip(self._shards, self._shard_locks):
                with lock:
                    if not shard.is_empty:
                        view.merge(shard)
            self._cached_view = view
            self._cached_version = version
            return view

    def quantile(self, q: float) -> float:
        self._require_nonempty()
        return self._merged_view().quantile(q)

    def quantiles(self, qs: Iterable[float]) -> list[float]:
        self._require_nonempty()
        return self._merged_view().quantiles(qs)

    def rank(self, value: float) -> int:
        self._require_nonempty()
        return self._merged_view().rank(value)

    def cdf(self, value: float) -> float:
        self._require_nonempty()
        return self._merged_view().cdf(value)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def shards(self) -> tuple[QuantileSketch, ...]:
        """The inner per-shard sketches (do not mutate directly)."""
        return tuple(self._shards)

    def shard_counts(self) -> list[int]:
        """Per-shard item counts (balance diagnostics)."""
        return [shard.count for shard in self._shards]

    def guarantee(self) -> Guarantee:
        """The bound of the merged view the queries read."""
        return self._merged_view().guarantee()

    def size_bytes(self) -> int:
        """Footprint of the shard array (the cached view is transient
        query state, reported separately by ``view_size_bytes``)."""
        return sum(shard.size_bytes() for shard in self._shards)

    def view_size_bytes(self) -> int:
        with self._cache_lock:
            if self._cached_view is None:
                return 0
            return self._cached_view.size_bytes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardedSketch n_shards={self.n_shards} count={self._count}>"
        )
