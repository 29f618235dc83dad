"""Tests for the multi-tenant metric registry."""

import numpy as np
import pytest

from repro.core import KLLSketch
from repro.errors import InvalidValueError
from repro.parallel import ShardedSketch
from repro.service import (
    ManualClock,
    MetricKey,
    MetricRegistry,
    TimePartitionedStore,
    default_sketch_factory,
)
from repro.service.registry import IngestOp, apply_ops


class TestMetricKey:
    def test_tag_order_does_not_matter(self):
        a = MetricKey.of("lat", {"region": "eu", "svc": "api"})
        b = MetricKey.of("lat", {"svc": "api", "region": "eu"})
        assert a == b
        assert hash(a) == hash(b)

    def test_no_tags_is_canonical(self):
        assert MetricKey.of("lat") == MetricKey.of("lat", {})

    def test_empty_name_rejected(self):
        with pytest.raises(InvalidValueError):
            MetricKey.of("")

    def test_values_stringified(self):
        key = MetricKey.of("lat", {"shard": 3})
        assert key.as_dict() == {"shard": "3"}

    def test_str_rendering(self):
        key = MetricKey.of("lat", {"b": "2", "a": "1"})
        assert str(key) == "lat{a=1,b=2}"
        assert str(MetricKey.of("lat")) == "lat"


class TestStoreLifecycle:
    def make(self, **kwargs):
        kwargs.setdefault("sketch_factory", default_sketch_factory())
        kwargs.setdefault("clock", ManualClock())
        return MetricRegistry(**kwargs)

    def test_lazy_creation(self):
        registry = self.make()
        assert len(registry) == 0
        assert registry.get("lat") is None
        store = registry.store("lat")
        assert isinstance(store, TimePartitionedStore)
        assert len(registry) == 1
        assert registry.get("lat") is store

    def test_same_series_same_store(self):
        registry = self.make()
        a = registry.store("lat", {"region": "eu", "svc": "api"})
        b = registry.store("lat", {"svc": "api", "region": "eu"})
        assert a is b

    def test_distinct_tags_distinct_stores(self):
        registry = self.make()
        a = registry.store("lat", {"region": "eu"})
        b = registry.store("lat", {"region": "us"})
        c = registry.store("lat")
        assert len({id(a), id(b), id(c)}) == 3
        assert len(registry) == 3

    def test_keys_sorted(self):
        registry = self.make()
        registry.store("zz")
        registry.store("aa", {"x": "1"})
        registry.store("aa")
        assert [str(key) for key in registry.keys()] == [
            "aa",
            "aa{x=1}",
            "zz",
        ]

    def test_store_geometry_passed_through(self):
        registry = self.make(partition_ms=250.0, fine_partitions=7)
        store = registry.store("lat")
        assert store.partition_ms == 250.0
        assert store.fine_partitions == 7


class TestHotMetrics:
    def test_hot_metric_gets_sharded_partitions(self):
        registry = MetricRegistry(
            clock=ManualClock(),
            hot_metrics=("lat",),
            n_shards=3,
        )
        registry.record("lat", [1.0, 2.0], timestamp_ms=0.0)
        registry.record("cold", [1.0, 2.0], timestamp_ms=0.0)
        hot = registry.get("lat")
        cold = registry.get("cold")
        assert all(
            isinstance(s, ShardedSketch) and s.n_shards == 3
            for s in hot._fine.values()
        )
        assert not any(
            isinstance(s, ShardedSketch) for s in cold._fine.values()
        )

    def test_hot_and_cold_answer_alike(self, rng):
        values = rng.lognormal(4.6, 0.5, 2_000)
        hot = MetricRegistry(
            clock=ManualClock(), hot_metrics=("m",), n_shards=4
        )
        cold = MetricRegistry(clock=ManualClock())
        hot.record("m", values, timestamp_ms=0.0)
        cold.record("m", values, timestamp_ms=0.0)
        # Same data, same-count answers; sketch estimates may differ
        # because sharding splits the insertion order.
        assert hot.get("m").count() == cold.get("m").count()
        assert hot.get("m").quantile(0.5) == pytest.approx(
            cold.get("m").quantile(0.5), rel=0.05
        )


class TestAggregates:
    def test_counters_aggregate_across_series(self):
        registry = MetricRegistry(clock=ManualClock(10_000.0))
        registry.record("a", [1.0, 2.0], timestamp_ms=10_000.0)
        registry.record("b", [3.0], timestamp_ms=10_000.0)
        registry.record("b", [4.0], timestamp_ms=-1e9)  # late: dropped
        assert registry.events_recorded == 3
        assert registry.dropped_late == 1
        assert registry.size_bytes() > 0
        assert registry.stats() == {
            "metrics": 2,
            "events_recorded": 3,
            "dropped_late": 1,
        }

    def test_custom_factory_used(self):
        registry = MetricRegistry(
            sketch_factory=lambda: KLLSketch(
                max_compactor_size=128, seed=0
            ),
            clock=ManualClock(),
        )
        registry.record("m", [1.0], timestamp_ms=0.0)
        store = registry.get("m")
        assert all(
            isinstance(s, KLLSketch) for s in store._fine.values()
        )


class TestFirstBatch:
    """A series is registered with its first batch that is not refused."""

    @staticmethod
    def make():
        return MetricRegistry(clock=ManualClock(100_000.0))

    def test_refused_first_batch_leaves_no_series(self):
        registry = self.make()
        op = IngestOp("fresh", None, np.array([np.nan]), None, None)
        assert apply_ops(registry, [op]) == (0, 1)
        assert registry.keys() == []
        assert registry.get("fresh") is None
        assert registry.stats()["metrics"] == 0

    def test_late_batch_is_validated(self):
        registry = self.make()
        op = IngestOp("late", None, np.array([np.nan, 1.0]), 0.0, None)
        assert apply_ops(registry, [op]) == (0, 1)
        assert registry.dropped_late == 0
        assert registry.keys() == []

    def test_accepted_or_late_first_batch_makes_a_series(self):
        registry = self.make()
        ops = [
            IngestOp("kept", None, np.array([1.0, 2.0]), None, None),
            IngestOp("late", None, np.array([3.0]), 0.0, None),
        ]
        assert apply_ops(registry, ops) == (2, 0)
        assert [key.name for key in registry.keys()] == ["kept", "late"]
        assert registry.get("late").dropped_late == 1
        assert registry.stats() == {
            "metrics": 2,
            "events_recorded": 2,
            "dropped_late": 1,
        }
