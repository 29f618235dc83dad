"""Time-partitioned sketch store: one metric's stream, queryable by range.

:class:`TimePartitionedStore` is the storage half of the quantile
service.  It buckets an event-time stream into fixed-width *fine*
partitions of mergeable sketches, answers quantile/rank/cdf queries
over arbitrary ``[t0, t1)`` ranges by merging the covered partitions
(exactly the mergeability application of Sec 2.4, pointed at time), and
enforces retention with a two-tier scheme: fine partitions that age out
of the fine horizon are compacted — merged — into *coarse* partitions
``coarse_factor`` times wider, which are in turn dropped once they age
out of the coarse horizon.  Old data loses time resolution before it
loses existence, the standard monitoring-store trade.

Range queries are quantised to partition edges (a partition overlapping
the range contributes wholly).  Two caches sit under
:meth:`TimePartitionedStore.merged`.  The whole view is cached under a
``(version, range)`` key — the same
cache-invalidation rule as :class:`~repro.parallel.ShardedSketch` — so
repeated queries of an unchanged store never merge at all.  Behind it
the store keeps one *prefix fold*: the oldest→newest fold of every
covered partition except the newest fine one, which is where in-order
writes land.  A query beside writes extends that fold over the
partitions passed since, copies it and merges the newest partition in,
instead of re-folding the range from an empty sketch.  KLL and REQ
spend coin flips in ``merge``, so the fold is never re-associated: the
prefix (generator state included) is exactly what a from-scratch fold
holds at that point, and every answer stays byte-identical to one.
Writes into a folded partition, compaction and partition adoption drop
the prefix; it is touched only under the store lock and callers only
ever see copies of it.

All time reads flow through the injected :class:`~repro.service.clock.Clock`;
nothing here touches the wall clock directly, which is what makes two
runs over the same stream byte-identical under test.

Snapshots (:meth:`snapshot` / :meth:`restore`) serialise every
partition through :mod:`repro.core.serialization`, so a store survives
a process restart with its exact sketch state, including the per-shard
state of :class:`~repro.parallel.ShardedSketch` partitions.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from repro.core.base import QuantileSketch
from repro.core.codec import Reader, Writer, canonical_json
from repro.core.serialization import dumps, loads
from repro.errors import (
    EmptySketchError,
    InvalidValueError,
    SerializationError,
)
from repro.obs.telemetry import NOOP, Telemetry
from repro.parallel.sharded import ShardedSketch
from repro.service.clock import Clock, SystemClock

SNAPSHOT_MAGIC = b"RPQS"
SNAPSHOT_VERSION = 1

#: The partitioner byte of a sharded partition blob.  Shards are routed
#: round-robin (0); 1 named a value-hash partitioner that no longer
#: exists, and its shards still restore exactly.
_ROUND_ROBIN = 0
_VALUE_HASH = 1


class TimePartitionedStore:
    """Range-queryable quantile store over one metric's event stream.

    Parameters
    ----------
    sketch_factory:
        Zero-argument callable building one empty partition sketch.
        It may return a :class:`~repro.parallel.ShardedSketch` (the
        registry's hot-metric route); every partition, sharded or not,
        is updated under the store lock.
    clock:
        Time source for retention decisions and default timestamps;
        defaults to :class:`~repro.service.clock.SystemClock`.
    partition_ms:
        Width of one fine partition.
    fine_partitions:
        Fine horizon, in partitions: how long data keeps full time
        resolution before compaction.
    coarse_factor:
        How many fine partitions one coarse partition spans.
    coarse_partitions:
        Coarse horizon, in coarse partitions; data older than this is
        dropped entirely.
    telemetry:
        Observability sink (:mod:`repro.obs`).  :meth:`merged` counts
        ``store.view_cache_hit`` (answered without a merge) against
        ``store.view_cache_miss``, and for the misses
        ``store.view_prefix_hit`` (the prefix fold was reused) against
        ``store.view_prefix_rebuild`` plus the ``store.view_merges``
        they performed.  Defaults to the disabled no-op instance.
    """

    def __init__(
        self,
        sketch_factory: Callable[[], QuantileSketch],
        clock: Clock | None = None,
        partition_ms: float = 1_000.0,
        fine_partitions: int = 60,
        coarse_factor: int = 8,
        coarse_partitions: int = 24,
        telemetry: Telemetry | None = None,
    ) -> None:
        if partition_ms <= 0:
            raise InvalidValueError(
                f"partition_ms must be positive, got {partition_ms!r}"
            )
        if fine_partitions < 1 or coarse_partitions < 1:
            raise InvalidValueError(
                "fine_partitions and coarse_partitions must be >= 1"
            )
        if coarse_factor < 1:
            raise InvalidValueError(
                f"coarse_factor must be >= 1, got {coarse_factor!r}"
            )
        self._factory = sketch_factory
        self._clock = clock if clock is not None else SystemClock()
        self.telemetry = telemetry if telemetry is not None else NOOP
        self.partition_ms = float(partition_ms)
        self.fine_partitions = int(fine_partitions)
        self.coarse_factor = int(coarse_factor)
        self.coarse_partitions = int(coarse_partitions)
        self.coarse_ms = self.partition_ms * self.coarse_factor
        self.fine_horizon_ms = self.partition_ms * self.fine_partitions
        self.coarse_horizon_ms = self.coarse_ms * self.coarse_partitions
        # The merged view and coarse partitions are always plain: when
        # fine partitions are sharded, they merge their merged views,
        # so one plain inner sketch is the right container.
        probe = sketch_factory()
        self._fine_sharded = isinstance(probe, ShardedSketch)
        self._view_factory: Callable[[], QuantileSketch] = (
            probe._factory if isinstance(probe, ShardedSketch)
            else sketch_factory
        )
        self._fine: dict[int, QuantileSketch] = {}
        self._coarse: dict[int, QuantileSketch] = {}
        self._lock = threading.RLock()
        self._version = 0
        self._cached_key: tuple[int, float, float] | None = None
        self._cached_view: QuantileSketch | None = None
        # Prefix fold: _prefix holds the coarse, then the fine
        # partitions named by _prefix_ids, folded in that order.  None
        # once dropped; the ids it had are then meaningless.
        self._prefix: QuantileSketch | None = None
        self._prefix_ids: tuple[tuple[int, ...], list[int]] = ((), [])
        self._digest_cache: tuple[int, dict[str, str]] | None = None
        self._events_recorded = 0
        self._dropped_late = 0
        self._events_expired = 0
        self._compact_marker: int | None = None

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def record(
        self,
        value: float,
        timestamp_ms: float | None = None,
        now_ms: float | None = None,
    ) -> int:
        """Record one value; returns 1 if accepted, 0 if dropped late."""
        return self.record_batch(
            np.asarray([value], dtype=np.float64), timestamp_ms, now_ms
        )

    def record_batch(
        self,
        values: Iterable[float] | np.ndarray,
        timestamp_ms: float | None = None,
        now_ms: float | None = None,
    ) -> int:
        """Record a batch sharing one event timestamp.

        Values whose timestamp has already aged out of the fine horizon
        are dropped (and counted in :attr:`dropped_late`): the query
        path could no longer attribute them to a fine range, matching
        the sliding-window semantics of :mod:`repro.streaming`.

        *now_ms* overrides the clock for the retention/compaction
        decision; WAL replay passes the journal-time reading so a
        recovered store makes byte-identical drop and compaction
        choices to the live run.

        A batch the partition sketch rejects (NaN, ±inf, or a finite
        value it cannot hold, such as DDSketch's past 1e270) raises out
        of here and leaves the store as it was: counters, version and
        partitions change only once the update has succeeded.  A late
        batch is checked by the same rules, on a throwaway partition
        sketch, before it is counted as dropped.

        Every partition, plain or sharded, is updated under the store
        lock, so a view cached under a version, or a prefix that
        survives the batch, always holds it.

        Returns the number of values accepted.
        """
        array = np.asarray(values, dtype=np.float64).ravel()
        if array.size == 0:
            return 0
        accepted = int(array.size)
        with self._lock:
            now = (
                self._clock.now_ms() if now_ms is None else float(now_ms)
            )
            ts = now if timestamp_ms is None else float(timestamp_ms)
            self._maybe_compact_locked(now)
            if ts < now - self.fine_horizon_ms:
                self._factory().update_batch(array)  # raises if refused
                self._dropped_late += accepted
                return 0
            position = ts / self.partition_ms
            if not -(2**63) <= position < 2**63:  # snapshots hold an i64
                raise InvalidValueError(
                    f"timestamp {ts!r} ms is beyond every partition id"
                )
            bucket_id = int(math.floor(position))
            # A new partition joins the store only with its first batch
            # applied.
            bucket = self._fine.get(bucket_id)
            if bucket is None:
                bucket = self._factory()
            bucket.update_batch(array)
            self._fine[bucket_id] = bucket
            self._events_recorded += accepted
            self._version += 1
            folded_fine = self._prefix_ids[1]
            if folded_fine and bucket_id <= folded_fine[-1]:
                self._prefix = None
            return accepted

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------

    def compact(self) -> None:
        """Enforce retention now (also triggered lazily by ingestion)."""
        with self._lock:
            self._compact_locked(self._clock.now_ms())

    def _maybe_compact_locked(self, now: float) -> None:
        marker = int(math.floor(now / self.partition_ms))
        if marker != self._compact_marker:
            self._compact_marker = marker
            self._compact_locked(now)

    def _compact_locked(self, now: float) -> None:
        changed = False
        fine_keep = int(
            math.floor((now - self.fine_horizon_ms) / self.partition_ms)
        )
        for bucket_id in sorted(self._fine):
            if bucket_id >= fine_keep:
                break
            sketch = self._fine.pop(bucket_id)
            if not sketch.is_empty:
                coarse_id = bucket_id // self.coarse_factor
                target = self._coarse.get(coarse_id)
                if target is None:
                    target = self._view_factory()
                    self._coarse[coarse_id] = target
                _merge_into(target, sketch)
            changed = True
        coarse_keep = int(
            math.floor((now - self.coarse_horizon_ms) / self.coarse_ms)
        )
        for coarse_id in sorted(self._coarse):
            if coarse_id >= coarse_keep:
                break
            expired = self._coarse.pop(coarse_id)
            self._events_expired += expired.count
            changed = True
        if changed:
            self._version += 1
            self._prefix = None

    # ------------------------------------------------------------------
    # Range queries
    # ------------------------------------------------------------------

    def _resolve_range(
        self, t0: float | None, t1: float | None
    ) -> tuple[float, float]:
        lo = -math.inf if t0 is None else float(t0)
        hi = math.inf if t1 is None else float(t1)
        if not lo < hi:
            raise InvalidValueError(
                f"need t0 < t1 for a [t0, t1) range query, got "
                f"[{lo!r}, {hi!r})"
            )
        return lo, hi

    def _covered(
        self,
        buckets: dict[int, QuantileSketch],
        width_ms: float,
        lo: float,
        hi: float,
    ) -> Iterator[int]:
        """Ids of the partitions intersecting ``[lo, hi)``, ascending."""
        for bucket_id in sorted(buckets):
            start = bucket_id * width_ms
            if start + width_ms > lo and start < hi:
                yield bucket_id

    def merged(
        self, t0: float | None = None, t1: float | None = None
    ) -> QuantileSketch:
        """Merged sketch over partitions intersecting ``[t0, t1)``.

        The view is cached under the store version and the quantised
        range, so repeated queries of an unchanged store return the
        same object without re-merging.  Any other query folds the
        covered partitions oldest to newest — coarse, then fine —
        through :meth:`_fold_locked`.  Raises
        :class:`~repro.errors.EmptySketchError` when no retained data
        falls in the range.
        """
        lo, hi = self._resolve_range(t0, t1)
        lo_q = (
            -math.inf if math.isinf(lo)
            else math.floor(lo / self.partition_ms)
        )
        hi_q = (
            math.inf if math.isinf(hi)
            else math.ceil(hi / self.partition_ms)
        )
        with self._lock:
            key = (self._version, float(lo_q), float(hi_q))
            if self._cached_view is not None and self._cached_key == key:
                self.telemetry.counter("store.view_cache_hit").inc()
                return self._cached_view
            self.telemetry.counter("store.view_cache_miss").inc()
            view = self._fold_locked(
                tuple(self._covered(self._coarse, self.coarse_ms, lo, hi)),
                list(self._covered(self._fine, self.partition_ms, lo, hi)),
            )
            if view.is_empty:
                raise EmptySketchError(
                    f"no events in range [{lo!r}, {hi!r})"
                )
            self._cached_view = view
            self._cached_key = key
            return view

    def _fold_locked(
        self, coarse_ids: tuple[int, ...], fine_ids: list[int]
    ) -> QuantileSketch:
        """Fold the covered partitions; the caller owns the result.

        The prefix — every covered partition but the newest fine one —
        is kept between calls.  It serves this query if the partitions
        it folded are the ones this fold begins with: the same coarse
        partitions, then the same oldest fine ones.  It is then
        extended, in place, over the fine partitions passed since;
        otherwise (the range's lower edge moved past a folded
        partition, or the range ends before the prefix does) it is
        folded afresh.  The answer is a copy of the prefix with the
        newest partition merged in, which is step for step the fold
        from an empty sketch.
        """
        newest = fine_ids.pop() if fine_ids else None
        # Out of its slot while it is mutated: a merge that raises
        # leaves no half-extended prefix behind.
        prefix, self._prefix = self._prefix, None
        folded_coarse, folded_fine = self._prefix_ids
        if (
            prefix is not None
            and folded_coarse == coarse_ids
            and fine_ids[:len(folded_fine)] == folded_fine
        ):
            self.telemetry.counter("store.view_prefix_hit").inc()
            sources = [
                self._fine[bucket_id]
                for bucket_id in fine_ids[len(folded_fine):]
            ]
        else:
            self.telemetry.counter("store.view_prefix_rebuild").inc()
            prefix = self._view_factory()
            sources = [
                self._coarse[coarse_id] for coarse_id in coarse_ids
            ] + [self._fine[bucket_id] for bucket_id in fine_ids]
        merges = 0
        for source in sources:
            merges += _merge_into(prefix, source)
        view = prefix.copy()
        if newest is not None:
            merges += _merge_into(view, self._fine[newest])
        self._prefix = prefix
        self._prefix_ids = (coarse_ids, fine_ids)
        self.telemetry.counter("store.view_merges").inc(merges)
        return view

    def quantile(
        self,
        q: float,
        t0: float | None = None,
        t1: float | None = None,
    ) -> float:
        return self.merged(t0, t1).quantile(q)

    def quantiles(
        self,
        qs: Iterable[float],
        t0: float | None = None,
        t1: float | None = None,
    ) -> list[float]:
        return self.merged(t0, t1).quantiles(qs)

    def rank(
        self,
        value: float,
        t0: float | None = None,
        t1: float | None = None,
    ) -> int:
        return self.merged(t0, t1).rank(value)

    def cdf(
        self,
        value: float,
        t0: float | None = None,
        t1: float | None = None,
    ) -> float:
        return self.merged(t0, t1).cdf(value)

    def count(
        self, t0: float | None = None, t1: float | None = None
    ) -> int:
        """Events retained in partitions intersecting ``[t0, t1)``."""
        lo, hi = self._resolve_range(t0, t1)
        with self._lock:
            return sum(
                self._coarse[coarse_id].count
                for coarse_id in self._covered(
                    self._coarse, self.coarse_ms, lo, hi
                )
            ) + sum(
                self._fine[bucket_id].count
                for bucket_id in self._covered(
                    self._fine, self.partition_ms, lo, hi
                )
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def events_recorded(self) -> int:
        """Monotone count of accepted values (never decremented)."""
        return self._events_recorded

    @property
    def dropped_late(self) -> int:
        """Values rejected for arriving past the fine horizon."""
        return self._dropped_late

    @property
    def events_expired(self) -> int:
        """Values dropped with their expired coarse partition."""
        return self._events_expired

    @property
    def version(self) -> int:
        return self._version

    @property
    def num_fine_partitions(self) -> int:
        with self._lock:
            return len(self._fine)

    @property
    def num_coarse_partitions(self) -> int:
        with self._lock:
            return len(self._coarse)

    def size_bytes(self) -> int:
        """Summed footprint of every retained partition sketch."""
        with self._lock:
            return sum(
                sketch.size_bytes() for sketch in self._fine.values()
            ) + sum(
                sketch.size_bytes() for sketch in self._coarse.values()
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TimePartitionedStore fine={len(self._fine)} "
            f"coarse={len(self._coarse)} "
            f"recorded={self._events_recorded}>"
        )

    # ------------------------------------------------------------------
    # Partition-level reconciliation (cluster anti-entropy)
    # ------------------------------------------------------------------
    #
    # Anti-entropy (DESIGN §14) reconciles two replicas of the same
    # store by exchanging a digest per partition and shipping only the
    # partitions whose digests differ — the symmetric difference —
    # instead of the whole snapshot or, worse, the raw stream.
    # Partitions are addressed as "f:<bucket_id>" / "c:<coarse_id>"
    # strings so the map survives the JSON wire protocol unchanged.

    @staticmethod
    def _partition_key(tier: str, bucket_id: int) -> str:
        return f"{tier}:{bucket_id}"

    @staticmethod
    def _parse_partition_key(key: str) -> tuple[str, int]:
        tier, _, raw = key.partition(":")
        if tier not in ("f", "c") or not raw.lstrip("-").isdigit():
            raise InvalidValueError(
                f"malformed partition key {key!r}; expected "
                "'f:<id>' or 'c:<id>'"
            )
        return tier, int(raw)

    def partition_digests(self) -> dict[str, str]:
        """Content digest of every retained partition.

        Digests hash the partition's serialized bytes, so — by the
        bit-identical-snapshot guarantee of the codec — two replicas
        that applied the same record subsequence report identical
        digests.  Cached per store version: an unchanged store never
        re-serialises.
        """
        with self._lock:
            if (
                self._digest_cache is not None
                and self._digest_cache[0] == self._version
            ):
                return dict(self._digest_cache[1])
            digests: dict[str, str] = {}
            for tier_name, tier in (
                ("f", self._fine), ("c", self._coarse)
            ):
                for bucket_id, sketch in tier.items():
                    digests[self._partition_key(tier_name, bucket_id)] = (
                        hashlib.blake2b(
                            _freeze(sketch), digest_size=16
                        ).hexdigest()
                    )
            self._digest_cache = (self._version, dict(digests))
            return digests

    def sync_counters(self) -> dict[str, int | None]:
        """Counter state shipped alongside adopted partitions.

        Counters (and the compaction marker) are not derivable from
        partition contents — expired events left no partition behind —
        so reconciliation transfers them explicitly to keep adopted
        replicas byte-identical under :meth:`snapshot`.
        """
        with self._lock:
            return {
                "events_recorded": self._events_recorded,
                "dropped_late": self._dropped_late,
                "events_expired": self._events_expired,
                "compact_marker": self._compact_marker,
            }

    def export_partitions(self, keys: Iterable[str]) -> dict[str, bytes]:
        """Serialized blobs for the requested partition keys.

        Unknown keys are skipped (the peer's frontier may be a round
        stale); the caller reconciles against the digest map it was
        handed, not against this response.
        """
        with self._lock:
            blobs: dict[str, bytes] = {}
            for key in keys:
                tier_name, bucket_id = self._parse_partition_key(key)
                tier = self._fine if tier_name == "f" else self._coarse
                sketch = tier.get(bucket_id)
                if sketch is not None:
                    blobs[key] = _freeze(sketch)
            return blobs

    def adopt_partitions(
        self,
        blobs: Mapping[str, bytes],
        authoritative_keys: Iterable[str],
        counters: Mapping[str, int | None],
    ) -> int:
        """Install a peer's diverged partitions; returns partitions changed.

        *authoritative_keys* is the peer's complete partition key set:
        local partitions outside it are dropped (the peer's retention
        already expired them), keys in *blobs* are deserialised and
        installed wholesale, and everything else is left untouched
        (digest-equal by assumption).  *counters* replaces the local
        counter state (:meth:`sync_counters` shape).  After adoption
        this store's :meth:`snapshot` is byte-identical to the peer's
        — the convergence property the anti-entropy tests pin.
        """
        keep = set(authoritative_keys)
        changed = 0
        with self._lock:
            for tier_name, tier in (
                ("f", self._fine), ("c", self._coarse)
            ):
                for bucket_id in sorted(tier):
                    if self._partition_key(tier_name, bucket_id) not in keep:
                        del tier[bucket_id]
                        changed += 1
            for key, blob in blobs.items():
                tier_name, bucket_id = self._parse_partition_key(key)
                sharded = self._fine_sharded and tier_name == "f"
                with Reader(
                    blob, SerializationError, f"partition blob {key!r}"
                ) as reader:
                    sketch = _thaw(reader, self._view_factory, sharded)
                    reader.finish()
                tier = self._fine if tier_name == "f" else self._coarse
                tier[bucket_id] = sketch
                changed += 1
            self._events_recorded = int(counters["events_recorded"])
            self._dropped_late = int(counters["dropped_late"])
            self._events_expired = int(counters["events_expired"])
            marker = counters.get("compact_marker")
            self._compact_marker = (
                None if marker is None else int(marker)
            )
            if changed:
                self._version += 1
                self._cached_view = None
                self._cached_key = None
                self._prefix = None
            return changed

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(self) -> bytes:
        """Serialise config, counters and every partition to bytes.

        Partitions are written in sorted id order and each sketch goes
        through :mod:`repro.core.serialization`, so a snapshot of an
        unchanged store is byte-identical across runs.
        """
        w = Writer()
        w.header(SNAPSHOT_MAGIC, SNAPSHOT_VERSION)
        with self._lock:
            header = {
                "partition_ms": self.partition_ms,
                "fine_partitions": self.fine_partitions,
                "coarse_factor": self.coarse_factor,
                "coarse_partitions": self.coarse_partitions,
                "events_recorded": self._events_recorded,
                "dropped_late": self._dropped_late,
                "events_expired": self._events_expired,
            }
            w.blob(canonical_json(header))
            for tier in (self._fine, self._coarse):
                w.u32(len(tier))
                for bucket_id in sorted(tier):
                    w.i64(bucket_id)
                    w.raw(_freeze(tier[bucket_id]))
        return w.getvalue()

    @classmethod
    def restore(
        cls,
        data: bytes,
        sketch_factory: Callable[[], QuantileSketch],
        clock: Clock | None = None,
        telemetry: Telemetry | None = None,
    ) -> "TimePartitionedStore":
        """Rebuild a store from :meth:`snapshot` bytes.

        *sketch_factory* must produce the same shape of partition the
        snapshot holds (sharded vs. plain); a mismatch raises
        :class:`~repro.errors.SerializationError`, as do hostile bytes.
        """
        with Reader(data, SerializationError, "store snapshot") as reader:
            reader.header(SNAPSHOT_MAGIC, SNAPSHOT_VERSION)
            header = json.loads(reader.blob())
            store = cls(
                sketch_factory,
                clock=clock,
                telemetry=telemetry,
                partition_ms=header["partition_ms"],
                fine_partitions=header["fine_partitions"],
                coarse_factor=header["coarse_factor"],
                coarse_partitions=header["coarse_partitions"],
            )
            store._events_recorded = int(header["events_recorded"])
            store._dropped_late = int(header["dropped_late"])
            store._events_expired = int(header["events_expired"])
            # Coarse partitions are always plain (compaction merges
            # through the view factory), so only the fine tier may be
            # sharded.
            for tier, sharded in ((store._fine, store._fine_sharded),
                                  (store._coarse, False)):
                for _ in range(reader.u32()):
                    bucket_id = reader.i64()
                    tier[bucket_id] = _thaw(
                        reader, store._view_factory, sharded
                    )
            reader.finish()
        return store


def _merge_into(view: QuantileSketch, source: QuantileSketch) -> int:
    """Merge one partition into *view*; the number of merges it took."""
    if isinstance(source, ShardedSketch):
        source = source._merged_view()
    if source.is_empty:
        return 0
    view.merge(source)
    return 1


def _freeze(sketch: QuantileSketch) -> bytes:
    """Partition blob: kind byte + core-serialized sketch(es).

    A :class:`ShardedSketch` partition is stored shard-by-shard so a
    restore reproduces the exact per-shard state (and therefore a
    re-snapshot is byte-identical); plain partitions are one codec
    payload.
    """
    w = Writer()
    if isinstance(sketch, ShardedSketch):
        w.u8(1)
        w.u8(_ROUND_ROBIN)
        w.u32(sketch.n_shards)
        for shard in sketch.shards:
            w.blob(dumps(shard))
    else:
        w.u8(0)
        w.blob(dumps(sketch))
    return w.getvalue()


def _thaw(
    reader: Reader,
    base_factory: Callable[[], QuantileSketch],
    expect_sharded: bool,
) -> QuantileSketch:
    kind = reader.u8()
    if kind not in (0, 1):
        reader.fail(f"unknown partition kind {kind}")
    if bool(kind) != expect_sharded:
        shapes = ("plain", "sharded")
        reader.fail(
            f"holds a {shapes[kind]} partition but the factory builds "
            f"{shapes[expect_sharded]} sketches"
        )
    if not kind:
        return loads(reader.blob())
    partitioner = reader.u8()
    if partitioner not in (_ROUND_ROBIN, _VALUE_HASH):
        reader.fail(f"unknown partitioner {partitioner}")
    shards = [loads(reader.blob()) for _ in range(reader.u32())]
    # Either way the shards are adopted as written; later values route
    # round-robin.
    return ShardedSketch.from_shards(base_factory, shards)
