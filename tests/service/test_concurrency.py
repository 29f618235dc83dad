"""Ingest-while-query tests for the service store.

Two regimes, per the service PR checklist:

* a fast, fully deterministic interleaving driven by an injected
  clock (single-threaded, so it can assert exact counters), and
* threaded writers against concurrent readers — a short variant in
  tier 1 and a ``slow``-marked soak — where readers assert the safety
  invariants: ``events_recorded`` is monotone and every quantile lies
  inside the ingested value range.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core import DDSketch
from repro.errors import EmptySketchError
from repro.parallel import ShardedSketch
from repro.service import ManualClock, MetricRegistry, TimePartitionedStore

LO, HI = 1.0, 1_000.0

# Ingest-while-query runs under the runtime lock sanitizer: store,
# registry and shard locks are wrapped and the acquisition-order graph
# is asserted acyclic at teardown (DESIGN §13).
pytestmark = pytest.mark.usefixtures("lock_sanitizer")


class TestDeterministicInterleaving:
    """Fast variant: exact assertions under an injected clock."""

    def test_query_between_every_batch(self):
        clock = ManualClock(0.0)
        store = TimePartitionedStore(
            lambda: DDSketch(alpha=0.01),
            clock=clock,
            partition_ms=1_000.0,
            fine_partitions=50,
        )
        rng = np.random.default_rng(11)
        last_recorded = 0
        for step in range(40):
            clock.advance(500.0)
            store.record_batch(
                rng.uniform(LO, HI, 25), timestamp_ms=clock.now_ms()
            )
            # Queries interleave with ingest on an exact schedule.
            assert store.events_recorded == last_recorded + 25
            last_recorded = store.events_recorded
            assert LO <= store.quantile(0.5) <= HI
            assert LO <= store.quantile(0.99) <= HI
            assert store.count() <= store.events_recorded

    def test_interleaving_is_reproducible(self):
        def run():
            clock = ManualClock(0.0)
            store = TimePartitionedStore(
                lambda: DDSketch(alpha=0.01),
                clock=clock,
                partition_ms=1_000.0,
                fine_partitions=10,
                coarse_factor=4,
                coarse_partitions=5,
            )
            rng = np.random.default_rng(3)
            answers = []
            for step in range(60):
                clock.advance(700.0)
                store.record_batch(
                    rng.uniform(LO, HI, 20), timestamp_ms=clock.now_ms()
                )
                answers.append(
                    (store.quantile(0.9), store.count(),
                     store.events_expired)
                )
            return answers

        assert run() == run()


def hammer(store, n_writers, per_writer, batch, stop_event=None):
    """Start *n_writers* threads writing uniform batches; return them."""

    def write(seed):
        rng = np.random.default_rng(seed)
        for _ in range(per_writer):
            store.record_batch(rng.uniform(LO, HI, batch))
        if stop_event is not None:
            stop_event.set()

    threads = [
        threading.Thread(target=write, args=(seed,), daemon=True)
        for seed in range(n_writers)
    ]
    for thread in threads:
        thread.start()
    return threads


def read_invariants(store, errors, stop_event):
    last = 0
    while not stop_event.is_set():
        recorded = store.events_recorded
        if recorded < last:
            errors.append(
                f"events_recorded went backwards: {last} -> {recorded}"
            )
            return
        last = recorded
        try:
            for q in (0.5, 0.99):
                estimate = store.quantile(q)
                if not LO <= estimate <= HI:
                    errors.append(
                        f"q{q} = {estimate} outside [{LO}, {HI}]"
                    )
                    return
        except EmptySketchError:
            continue  # writers may not have landed a value yet


def run_soak(n_writers, per_writer, batch, n_readers):
    clock = ManualClock(0.0)
    store = TimePartitionedStore(
        lambda: ShardedSketch(lambda: DDSketch(alpha=0.01), n_shards=4),
        clock=clock,
        partition_ms=1_000.0,
        fine_partitions=100_000,
    )
    stop_event = threading.Event()
    errors = []
    readers = [
        threading.Thread(
            target=read_invariants,
            args=(store, errors, stop_event),
            daemon=True,
        )
        for _ in range(n_readers)
    ]
    for reader in readers:
        reader.start()
    writers = hammer(store, n_writers, per_writer, batch, stop_event)
    for writer in writers:
        writer.join(timeout=60.0)
    stop_event.set()
    for reader in readers:
        reader.join(timeout=10.0)
    assert errors == [], errors
    expected = n_writers * per_writer * batch
    assert store.events_recorded == expected
    assert store.count() == expected
    assert LO <= store.quantile(0.5) <= HI
    return store


class TestThreadedIngestWhileQuery:
    def test_short_threaded_run(self):
        """Tier-1-sized version of the soak: seconds, not minutes."""
        run_soak(n_writers=4, per_writer=30, batch=50, n_readers=2)

    def test_a_view_holds_every_batch_counted_before_it_was_asked_for(self):
        """Writers land inside the folded prefix while readers extend it.

        ``events_recorded`` moves after the batch is in its partition,
        so a view asked for after reading it can only hold more.  A
        prefix that survived a write into one of its partitions, or a
        view cached under a version bumped ahead of the update, would
        come back short.
        """
        store = TimePartitionedStore(
            lambda: ShardedSketch(lambda: DDSketch(alpha=0.01), n_shards=4),
            clock=ManualClock(8_000.0),
            partition_ms=1_000.0,
            fine_partitions=100_000,
        )
        for second in range(8):  # the partitions exist; writers race on them
            store.record_batch([LO], timestamp_ms=second * 1_000.0)
        errors = []
        done = threading.Event()

        def write(seed):
            rng = np.random.default_rng(seed)
            for _ in range(60):
                store.record_batch(
                    rng.uniform(LO, HI, 20),
                    timestamp_ms=float(rng.integers(8)) * 1_000.0,
                )

        def read():
            while not done.is_set():
                counted = store.events_recorded
                held = store.merged().count
                if held < counted:
                    errors.append(f"view holds {held} of {counted} counted")
                    return

        threads = [
            threading.Thread(target=write, args=(seed,), daemon=True)
            for seed in range(4)
        ]
        readers = [threading.Thread(target=read, daemon=True) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers + threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            done.set()
            for reader in readers:
                reader.join(timeout=10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads + readers)
        assert errors == []
        assert store.merged().count == store.events_recorded == 8 + 4 * 60 * 20

    def test_registry_concurrent_multi_metric(self):
        registry = MetricRegistry(
            sketch_factory=lambda: DDSketch(alpha=0.01),
            clock=ManualClock(0.0),
            fine_partitions=100_000,
            hot_metrics=("hot",),
            n_shards=4,
        )

        def write(metric, seed):
            rng = np.random.default_rng(seed)
            for _ in range(25):
                registry.record(metric, rng.uniform(LO, HI, 40))

        threads = [
            threading.Thread(target=write, args=(metric, seed), daemon=True)
            for seed, metric in enumerate(
                ("hot", "hot", "cold.a", "cold.b")
            )
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert registry.events_recorded == 4 * 25 * 40
        assert registry.get("hot").count() == 2 * 25 * 40
        assert LO <= registry.get("hot").quantile(0.9) <= HI


@pytest.mark.slow
class TestSoak:
    def test_sustained_ingest_while_query(self):
        """N writers, concurrent readers, ~10^6 values end to end."""
        store = run_soak(
            n_writers=8, per_writer=250, batch=500, n_readers=4
        )
        assert store.events_recorded == 1_000_000
