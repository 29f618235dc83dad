"""Tests for the time-partitioned sketch store."""

import functools

import numpy as np
import pytest

from repro.core import DDSketch, paper_config
from repro.core.registry import SKETCH_CLASSES
from repro.core.serialization import dumps
from repro.errors import (
    EmptySketchError,
    InvalidValueError,
    SerializationError,
)
from repro.parallel import ShardedSketch
from repro.service import ManualClock, TimePartitionedStore

QS = (0.05, 0.25, 0.5, 0.75, 0.9, 0.99)


def dd_factory():
    return DDSketch(alpha=0.01)


def make(clock=None, **kwargs):
    kwargs.setdefault("partition_ms", 1_000.0)
    kwargs.setdefault("fine_partitions", 10)
    kwargs.setdefault("coarse_factor", 4)
    kwargs.setdefault("coarse_partitions", 5)
    return TimePartitionedStore(
        dd_factory, clock=clock or ManualClock(), **kwargs
    )


class TestValidation:
    def test_bad_geometry_rejected(self):
        with pytest.raises(InvalidValueError):
            TimePartitionedStore(dd_factory, partition_ms=0.0)
        with pytest.raises(InvalidValueError):
            TimePartitionedStore(dd_factory, fine_partitions=0)
        with pytest.raises(InvalidValueError):
            TimePartitionedStore(dd_factory, coarse_factor=0)

    def test_bad_range_rejected(self):
        store = make()
        store.record(1.0)
        with pytest.raises(InvalidValueError):
            store.quantile(0.5, t0=2_000.0, t1=1_000.0)
        with pytest.raises(InvalidValueError):
            store.count(t0=5.0, t1=5.0)

    def test_empty_range_raises(self):
        clock = ManualClock(0.0)
        store = make(clock)
        with pytest.raises(EmptySketchError):
            store.quantile(0.5)
        store.record(1.0, timestamp_ms=0.0)
        with pytest.raises(EmptySketchError):
            store.quantile(0.5, t0=5_000.0, t1=6_000.0)


class TestBucketing:
    def test_values_land_in_their_partition(self):
        clock = ManualClock(0.0)
        store = make(clock)
        store.record(1.0, timestamp_ms=100.0)
        store.record(2.0, timestamp_ms=1_100.0)
        store.record(3.0, timestamp_ms=2_100.0)
        assert store.num_fine_partitions == 3
        assert store.count(t0=0.0, t1=1_000.0) == 1
        assert store.count(t0=0.0, t1=2_000.0) == 2
        assert store.count() == 3

    def test_range_is_partition_quantised(self):
        clock = ManualClock(0.0)
        store = make(clock)
        store.record(1.0, timestamp_ms=100.0)
        # A range overlapping any part of a partition sees the whole
        # partition.
        assert store.count(t0=900.0, t1=950.0) == 1

    def test_default_timestamp_is_clock_now(self):
        clock = ManualClock(4_200.0)
        store = make(clock)
        store.record(1.0)
        assert store.count(t0=4_000.0, t1=5_000.0) == 1

    def test_late_values_dropped_and_counted(self):
        clock = ManualClock(100_000.0)
        store = make(clock)  # fine horizon 10 s
        accepted = store.record_batch([1.0, 2.0], timestamp_ms=100.0)
        assert accepted == 0
        assert store.dropped_late == 2
        assert store.events_recorded == 0

    def test_events_recorded_is_monotone(self, rng):
        clock = ManualClock(0.0)
        store = make(clock)
        store.record_batch(rng.uniform(1, 2, 100), timestamp_ms=0.0)
        assert store.events_recorded == 100
        # Expiring data shrinks count() but never events_recorded.
        clock.advance(1_000_000.0)
        store.compact()
        assert store.events_recorded == 100
        assert store.events_expired == 100


class TestRangeQueryExactness:
    """Acceptance: merged time buckets == one un-partitioned sketch."""

    def _fill(self, store, reference, rng, t_lo, t_hi):
        for t in range(t_lo, t_hi):
            batch = rng.lognormal(4.6, 0.5, 50)
            store.record_batch(batch, timestamp_ms=t * 1_000.0 + 10.0)
            if reference is not None:
                reference.update_batch(batch)

    def test_full_range_matches_unpartitioned(self, rng):
        clock = ManualClock(0.0)
        store = make(clock, fine_partitions=100)
        reference = dd_factory()
        self._fill(store, reference, rng, 0, 8)
        for q in QS:
            assert store.quantile(q) == reference.quantile(q)
        assert store.count() == reference.count
        assert store.rank(100.0) == reference.rank(100.0)
        assert store.cdf(100.0) == reference.cdf(100.0)

    def test_subrange_matches_unpartitioned(self):
        clock = ManualClock(0.0)
        store = make(clock, fine_partitions=100)
        self._fill(store, None, np.random.default_rng(42), 0, 10)
        # Rebuild just seconds [3, 7) with an identical RNG stream.
        rng2 = np.random.default_rng(42)
        reference = dd_factory()
        for t in range(10):
            batch = rng2.lognormal(4.6, 0.5, 50)
            if 3 <= t < 7:
                reference.update_batch(batch)
        for q in QS:
            assert store.quantile(q, t0=3_000.0, t1=7_000.0) == (
                reference.quantile(q)
            )
        assert store.count(t0=3_000.0, t1=7_000.0) == reference.count

    def test_compacted_store_still_matches(self, rng):
        """Compaction merges, never discards, inside the horizon."""
        clock = ManualClock(0.0)
        store = make(clock)  # fine horizon 10 s, coarse 20 s
        reference = dd_factory()
        for t in range(14):
            clock.set_time(t * 1_000.0)
            batch = rng.lognormal(4.6, 0.5, 50)
            store.record_batch(batch, timestamp_ms=t * 1_000.0 + 10.0)
            reference.update_batch(batch)
        assert store.num_coarse_partitions >= 1  # compaction happened
        assert store.count() == reference.count
        for q in QS:
            assert store.quantile(q) == reference.quantile(q)


class TestMergedViewCache:
    def counting(self, clock):
        calls = []

        def factory():
            calls.append(1)
            return DDSketch(alpha=0.01)

        return calls, TimePartitionedStore(
            factory,
            clock=clock,
            partition_ms=1_000.0,
            fine_partitions=10,
        )

    def test_repeated_queries_do_not_remerge(self):
        clock = ManualClock(0.0)
        calls, store = self.counting(clock)
        for t in range(5):
            store.record(float(t + 1), timestamp_ms=t * 1_000.0)
        before = len(calls)
        first = store.quantile(0.5)
        assert len(calls) == before + 1  # one view build
        for _ in range(10):
            assert store.quantile(0.5) == first
            store.rank(3.0)
            store.cdf(3.0)
        assert len(calls) == before + 1  # all served from cache

    def test_record_invalidates_cache(self):
        clock = ManualClock(0.0)
        calls, store = self.counting(clock)
        store.record(1.0, timestamp_ms=0.0)
        first = store.merged()
        built = len(calls)
        store.record(2.0, timestamp_ms=100.0)
        second = store.merged()
        # A new view, not the old one mutated; it comes from a copy of
        # the prefix fold, so no factory call.
        assert second is not first
        assert (first.count, second.count) == (1, 2)
        assert len(calls) == built

    def test_different_range_rebuilds(self):
        clock = ManualClock(0.0)
        calls, store = self.counting(clock)
        store.record(1.0, timestamp_ms=0.0)
        store.record(2.0, timestamp_ms=1_500.0)
        store.quantile(0.5)
        built = len(calls)
        store.quantile(0.5, t0=0.0, t1=1_000.0)
        assert len(calls) == built + 1  # new range, new view

    def test_count_does_not_build_views(self):
        clock = ManualClock(0.0)
        calls, store = self.counting(clock)
        store.record(1.0, timestamp_ms=0.0)
        built = len(calls)
        assert store.count() == 1
        assert len(calls) == built  # count sums bucket counters


class TestRetention:
    def test_fine_compacts_into_coarse(self, rng):
        clock = ManualClock(0.0)
        store = make(clock)  # fine 10 × 1 s; coarse 5 × 4 s
        for t in range(12):
            clock.set_time(t * 1_000.0)
            store.record_batch(
                rng.uniform(1, 2, 10), timestamp_ms=t * 1_000.0
            )
        assert store.num_fine_partitions <= 10 + 1
        assert store.num_coarse_partitions >= 1
        assert store.count() == 120  # nothing lost inside the horizon

    def test_coarse_expires_entirely(self, rng):
        clock = ManualClock(0.0)
        store = make(clock)  # coarse horizon 20 s
        store.record_batch(rng.uniform(1, 2, 40), timestamp_ms=0.0)
        clock.set_time(100_000.0)
        store.compact()
        assert store.num_fine_partitions == 0
        assert store.num_coarse_partitions == 0
        assert store.events_expired == 40
        with pytest.raises(EmptySketchError):
            store.quantile(0.5)

    def test_compaction_triggered_by_ingest(self, rng):
        clock = ManualClock(0.0)
        store = make(clock)
        store.record_batch(rng.uniform(1, 2, 40), timestamp_ms=0.0)
        clock.set_time(100_000.0)
        # No explicit compact(): the next record enforces retention.
        store.record(1.0)
        assert store.events_expired == 40

    def test_memory_stays_bounded(self, rng):
        clock = ManualClock(0.0)
        store = make(clock)
        for t in range(200):
            clock.set_time(t * 1_000.0)
            store.record_batch(
                rng.uniform(1, 2, 20), timestamp_ms=t * 1_000.0
            )
        assert store.num_fine_partitions <= 10 + 1
        assert store.num_coarse_partitions <= 5 + 1


def sharded_factory():
    return ShardedSketch(dd_factory, n_shards=3)


class TestShardedPartitions:
    def test_sharded_store_answers_exactly(self, rng):
        clock = ManualClock(0.0)
        store = TimePartitionedStore(
            sharded_factory, clock=clock, fine_partitions=20
        )
        reference = dd_factory()
        for t in range(5):
            batch = rng.lognormal(4.6, 0.5, 200)
            store.record_batch(batch, timestamp_ms=t * 1_000.0)
            reference.update_batch(batch)
        assert store.count() == reference.count
        for q in QS:
            assert store.quantile(q) == reference.quantile(q)

    def test_partitions_are_sharded(self):
        clock = ManualClock(0.0)
        store = TimePartitionedStore(sharded_factory, clock=clock)
        store.record(1.0, timestamp_ms=0.0)
        assert all(
            isinstance(s, ShardedSketch) for s in store._fine.values()
        )

    @pytest.mark.parametrize("name", sorted(SKETCH_CLASSES))
    def test_bookkeeping_is_what_the_shards_observed(self, name):
        """A sharded partition's count/min/max agree with a plain
        sketch's, live and after a snapshot restore, even where the
        sketch keeps less than the raw value (DCS floors it)."""
        factory = functools.partial(
            ShardedSketch, functools.partial(paper_config, name, seed=1), 2
        )
        store = TimePartitionedStore(factory, clock=ManualClock(0.0))
        plain = paper_config(name, seed=1)
        rng = np.random.default_rng(20230328)
        for batch in ([1.5, 7.25], 1.0 + rng.pareto(1.0, 500)):
            store.record_batch(batch, timestamp_ms=0.0)
            plain.update_batch(batch)
        restored = TimePartitionedStore.restore(
            store.snapshot(), factory, clock=ManualClock(0.0)
        )
        expected = (plain.count, plain.min, plain.max)
        for partition in (store._fine[0], restored._fine[0]):
            assert (partition.count, partition.min, partition.max) == (
                expected
            )


class TestCountedAfterApply:
    """Counters, version and caches move once the update has happened."""

    @pytest.mark.parametrize(
        "factory, poison",
        [
            (dd_factory, float("nan")),
            (dd_factory, float("inf")),
            (sharded_factory, float("nan")),
            (sharded_factory, float("inf")),
            (dd_factory, 1e300),
            (sharded_factory, 1e300),
        ],
        ids=[
            "plain-nan", "plain-inf", "sharded-nan", "sharded-inf",
            "plain-unindexable", "sharded-unindexable",
        ],
    )
    @pytest.mark.parametrize("partition", ["existing", "new", "late"])
    def test_rejected_batch_leaves_the_store_untouched(
        self, factory, poison, partition
    ):
        store = TimePartitionedStore(factory, clock=ManualClock(0.0))
        store.record_batch([1.0, 2.0], timestamp_ms=0.0)
        before = (store.events_recorded, store.version, store.snapshot())
        # a late batch is refused, not counted in dropped_late
        ts = {"existing": 0.0, "new": 1_000.0, "late": -100_000.0}[partition]
        # on three shards the poison lands last in shard order, after
        # 2.0 has reached shard 0, unless it is refused up front
        with pytest.raises(InvalidValueError):
            store.record_batch([1.0, 2.0, poison], timestamp_ms=ts)
        assert (
            store.events_recorded, store.version, store.snapshot()
        ) == before
        assert store.count() == store.events_recorded == 2


class TestSnapshot:
    def _filled(self, rng, factory=dd_factory):
        clock = ManualClock(0.0)
        store = TimePartitionedStore(
            factory,
            clock=clock,
            partition_ms=1_000.0,
            fine_partitions=10,
            coarse_factor=4,
            coarse_partitions=5,
        )
        for t in range(12):
            clock.set_time(t * 1_000.0)
            store.record_batch(
                rng.lognormal(4.6, 0.5, 30), timestamp_ms=t * 1_000.0
            )
        return store

    def test_round_trip_preserves_answers(self, rng):
        store = self._filled(rng)
        restored = TimePartitionedStore.restore(
            store.snapshot(), dd_factory, clock=ManualClock(11_000.0)
        )
        assert restored.count() == store.count()
        assert restored.events_recorded == store.events_recorded
        for q in QS:
            assert restored.quantile(q) == store.quantile(q)

    def test_round_trip_is_bit_identical(self, rng):
        store = self._filled(rng)
        payload = store.snapshot()
        restored = TimePartitionedStore.restore(
            payload, dd_factory, clock=ManualClock(11_000.0)
        )
        assert restored.snapshot() == payload

    def test_sharded_round_trip_is_bit_identical(self, rng):
        store = self._filled(rng, factory=sharded_factory)
        payload = store.snapshot()
        restored = TimePartitionedStore.restore(
            payload, sharded_factory, clock=ManualClock(11_000.0)
        )
        assert restored.snapshot() == payload
        assert restored.quantile(0.5) == store.quantile(0.5)

    def test_partitioner_byte(self, rng):
        """Byte 0 (round-robin) is written; byte 1, the value-hash
        partitioner older snapshots may name, restores the same shards;
        anything else is refused."""
        store = self._filled(rng, factory=sharded_factory)
        payload = store.snapshot()
        keys = [key for key in store.partition_digests() if key[0] == "f"]
        blobs = store.export_partitions(keys).values()
        assert blobs and all(blob[:2] == b"\x01\x00" for blob in blobs)

        def with_byte(byte):
            data = payload
            for blob in blobs:
                data = data.replace(blob, blob[:1] + bytes([byte]) + blob[2:])
            assert data != payload
            return data

        restored = TimePartitionedStore.restore(
            with_byte(1), sharded_factory, clock=ManualClock(11_000.0)
        )
        for bucket_id, sketch in store._fine.items():
            assert [dumps(s) for s in restored._fine[bucket_id].shards] == [
                dumps(s) for s in sketch.shards
            ]
        for q in QS:
            assert restored.quantile(q) == store.quantile(q)
        assert restored.snapshot() == payload
        with pytest.raises(SerializationError, match="partitioner 2"):
            TimePartitionedStore.restore(with_byte(2), sharded_factory)

    def test_restored_store_accepts_writes(self, rng):
        store = self._filled(rng)
        restored = TimePartitionedStore.restore(
            store.snapshot(), dd_factory, clock=ManualClock(11_000.0)
        )
        before = restored.count()
        restored.record_batch([5.0, 6.0], timestamp_ms=11_000.0)
        assert restored.count() == before + 2

    def test_factory_shape_mismatch_rejected(self, rng):
        plain = self._filled(rng).snapshot()
        with pytest.raises(SerializationError):
            TimePartitionedStore.restore(plain, sharded_factory)
        sharded = self._filled(rng, factory=sharded_factory).snapshot()
        with pytest.raises(SerializationError):
            TimePartitionedStore.restore(sharded, dd_factory)

    def test_corruption_detected(self, rng):
        payload = self._filled(rng).snapshot()
        with pytest.raises(SerializationError):
            TimePartitionedStore.restore(b"XXXX" + payload[4:], dd_factory)
        with pytest.raises(SerializationError):
            TimePartitionedStore.restore(
                payload[: len(payload) // 2], dd_factory
            )
        with pytest.raises(SerializationError):
            TimePartitionedStore.restore(payload + b"\x00", dd_factory)

    def test_works_with_registry_sketches(self, rng):
        clock = ManualClock(0.0)
        store = TimePartitionedStore(
            lambda: paper_config("kll", seed=7), clock=clock
        )
        store.record_batch(rng.uniform(1, 2, 500), timestamp_ms=0.0)
        payload = store.snapshot()
        restored = TimePartitionedStore.restore(
            payload, lambda: paper_config("kll", seed=7)
        )
        assert restored.snapshot() == payload
