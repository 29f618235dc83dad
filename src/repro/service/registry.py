"""Multi-tenant metric registry: route (metric, tags) to its store.

:class:`MetricRegistry` is the tenancy layer of the quantile service.
Each distinct ``(metric name, frozen tag set)`` pair owns one
:class:`~repro.service.store.TimePartitionedStore`, created lazily from
a configurable sketch factory the first time the metric is seen —
exactly how a monitoring backend materialises series on first write.

Metrics named in *hot_metrics* get their partitions built as
:class:`~repro.parallel.ShardedSketch`.  The server's drain is the one
writer (DESIGN §6), so the shards stripe no concurrent writes; they
stay only while the benchmark's ``hot_shards`` parameter builds them
(ROADMAP item 11).  Everything else pays no sharding overhead.

The write path has one op record, :class:`IngestOp`, and one apply
loop, :func:`apply_ops`: the server's drain, WAL recovery, replication
and what-if replay all hand it their ops, and it records each op with
one ``record`` call, in order.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from repro.core.base import QuantileSketch
from repro.core.registry import DEFAULT_SEED, paper_config
from repro.errors import InvalidValueError, ReproError
from repro.obs.telemetry import NOOP, Telemetry
from repro.parallel.sharded import ShardedSketch
from repro.service.clock import Clock, SystemClock
from repro.service.store import TimePartitionedStore

#: Default per-partition sketch when the caller configures nothing: the
#: paper's KLL parameterisation with the reproducible default seed.
DEFAULT_SKETCH = "kll"


def default_sketch_factory(
    sketch: str = DEFAULT_SKETCH, seed: int = DEFAULT_SEED
) -> Callable[[], QuantileSketch]:
    """Picklable factory building the paper configuration of *sketch*."""
    return functools.partial(paper_config, sketch, seed=seed)


@dataclass(frozen=True)
class MetricKey:
    """Identity of one series: name plus a frozen, sorted tag set."""

    name: str
    tags: tuple[tuple[str, str], ...] = ()

    @classmethod
    def of(
        cls, name: str, tags: Mapping[str, str] | None = None
    ) -> "MetricKey":
        """Normalise *tags* (any iteration order) into a canonical key."""
        if not name:
            raise InvalidValueError("metric name must be non-empty")
        items = () if not tags else tuple(
            sorted((str(k), str(v)) for k, v in tags.items())
        )
        return cls(name=str(name), tags=items)

    def as_dict(self) -> dict[str, str]:
        return dict(self.tags)

    def __str__(self) -> str:
        if not self.tags:
            return self.name
        rendered = ",".join(f"{k}={v}" for k, v in self.tags)
        return f"{self.name}{{{rendered}}}"


class IngestOp(NamedTuple):
    """One ingest: a batch for ``(metric, tags)`` at event time *ts*.

    *now* is the clock reading retention decisions use.  Journaling
    pins both (``None``: read the store's clock at apply), so every
    replay of the op repeats the live apply exactly.
    """

    metric: str
    tags: dict[str, str] | None
    values: np.ndarray
    ts: float | None
    now: float | None


def apply_ops(
    registry: MetricRegistry, ops: Iterable[IngestOp]
) -> tuple[int, int]:
    """Record *ops* into *registry*; ``(values_accepted, ops_rejected)``.

    One op, one ``record``, in order: *ops* is consumed lazily, so a
    stream (recovery's WAL generator) that fails mid-way leaves every
    op before the failure applied.  A rejected op (a ``ReproError``:
    NaN, ±inf) counts once, and its neighbours are recorded as usual.
    A free function, so every apply is a ``record`` call on whatever
    registry (or proxy) the caller holds.
    """
    accepted = 0
    rejected = 0
    for op in ops:
        try:
            accepted += registry.record(
                op.metric, op.values, op.ts, op.tags, now_ms=op.now
            )
        except ReproError:
            rejected += 1
    return accepted, rejected


class MetricRegistry:
    """Lazily-created per-metric stores behind one ingest facade.

    Parameters
    ----------
    sketch_factory:
        Zero-argument callable building one partition sketch; defaults
        to :func:`default_sketch_factory` (seeded paper KLL).
    clock:
        Shared time source for every store (injectable for tests).
    partition_ms / fine_partitions / coarse_factor / coarse_partitions:
        Store geometry, passed through to
        :class:`~repro.service.store.TimePartitionedStore`.
    hot_metrics:
        Metric *names* whose partitions are built as
        :class:`~repro.parallel.ShardedSketch` with *n_shards* shards.
    n_shards:
        Shard count for hot metrics.
    telemetry:
        Observability sink (:mod:`repro.obs`), shared by every store
        this registry creates.  Defaults to the disabled no-op.
    """

    def __init__(
        self,
        sketch_factory: Callable[[], QuantileSketch] | None = None,
        clock: Clock | None = None,
        partition_ms: float = 1_000.0,
        fine_partitions: int = 60,
        coarse_factor: int = 8,
        coarse_partitions: int = 24,
        hot_metrics: Iterable[str] = (),
        n_shards: int = 4,
        telemetry: Telemetry | None = None,
    ) -> None:
        self._base_factory = (
            sketch_factory
            if sketch_factory is not None
            else default_sketch_factory()
        )
        self._clock = clock if clock is not None else SystemClock()
        self.partition_ms = float(partition_ms)
        self.fine_partitions = int(fine_partitions)
        self.coarse_factor = int(coarse_factor)
        self.coarse_partitions = int(coarse_partitions)
        self.hot_metrics = frozenset(hot_metrics)
        self.n_shards = int(n_shards)
        self.telemetry = telemetry if telemetry is not None else NOOP
        self._stores: dict[MetricKey, TimePartitionedStore] = {}
        self._lock = threading.Lock()

    @property
    def clock(self) -> Clock:
        """The shared time source every store buckets against.

        Exposed so window-relative consumers — the continuous-query
        engine evaluates ``[now - window, now)`` per alert — read the
        *same* clock the stores partition on; mixing clocks would make
        windows miss or double-count partitions.
        """
        return self._clock

    # ------------------------------------------------------------------
    # Store lifecycle
    # ------------------------------------------------------------------

    def _factory_for(self, key: MetricKey) -> Callable[[], QuantileSketch]:
        if key.name in self.hot_metrics:
            return functools.partial(
                ShardedSketch, self._base_factory, self.n_shards
            )
        return self._base_factory

    def store(
        self, name: str, tags: Mapping[str, str] | None = None
    ) -> TimePartitionedStore:
        """The store for ``(name, tags)``, created on first use."""
        key = MetricKey.of(name, tags)
        with self._lock:
            store = self._stores.get(key)
            if store is None:
                store = TimePartitionedStore(
                    self._factory_for(key),
                    clock=self._clock,
                    partition_ms=self.partition_ms,
                    fine_partitions=self.fine_partitions,
                    coarse_factor=self.coarse_factor,
                    coarse_partitions=self.coarse_partitions,
                    telemetry=self.telemetry,
                )
                self._stores[key] = store
            return store

    def get(
        self, name: str, tags: Mapping[str, str] | None = None
    ) -> TimePartitionedStore | None:
        """The store for ``(name, tags)`` or ``None`` if never written."""
        with self._lock:
            return self._stores.get(MetricKey.of(name, tags))

    def is_hot(self, name: str) -> bool:
        return name in self.hot_metrics

    # ------------------------------------------------------------------
    # Ingest facade
    # ------------------------------------------------------------------

    def record(
        self,
        name: str,
        values: Iterable[float] | np.ndarray,
        timestamp_ms: float | None = None,
        tags: Mapping[str, str] | None = None,
        now_ms: float | None = None,
    ) -> int:
        """Record a batch into the metric's store; returns accepted count.

        *now_ms* overrides the store's clock reading for retention
        decisions — the WAL replay path pins it to the journal-time
        value so recovery reproduces the live run exactly.
        """
        return self.store(name, tags).record_batch(
            values, timestamp_ms, now_ms
        )

    def restore_store(
        self,
        name: str,
        tags: Mapping[str, str] | None,
        blob: bytes,
    ) -> TimePartitionedStore:
        """Install a store from snapshot bytes (checkpoint recovery).

        The snapshot must describe the same partition shape this
        registry's factory would build for the key (hot metrics stay
        hot across restarts); a mismatch raises
        :class:`~repro.errors.SerializationError`.
        """
        key = MetricKey.of(name, tags)
        store = TimePartitionedStore.restore(
            blob,
            self._factory_for(key),
            clock=self._clock,
            telemetry=self.telemetry,
        )
        with self._lock:
            if key in self._stores:
                raise InvalidValueError(
                    f"store {key} already exists; refusing to overwrite"
                )
            self._stores[key] = store
        return store

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def keys(self) -> list[MetricKey]:
        """Registered series, sorted for deterministic listings."""
        with self._lock:
            return sorted(
                self._stores, key=lambda key: (key.name, key.tags)
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._stores)

    @property
    def events_recorded(self) -> int:
        """Monotone total of accepted values across all series."""
        with self._lock:
            stores = list(self._stores.values())
        return sum(store.events_recorded for store in stores)

    @property
    def dropped_late(self) -> int:
        with self._lock:
            stores = list(self._stores.values())
        return sum(store.dropped_late for store in stores)

    def size_bytes(self) -> int:
        with self._lock:
            stores = list(self._stores.values())
        return sum(store.size_bytes() for store in stores)

    def stats(self) -> dict[str, int]:
        """Deterministic counters for the server's ``stats`` op."""
        return {
            "metrics": len(self),
            "events_recorded": self.events_recorded,
            "dropped_late": self.dropped_late,
        }
