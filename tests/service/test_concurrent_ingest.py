"""Concurrent ingest through the live TCP server.

* concurrent clients against ``ingest_workers > 1`` drain the
  coalescing queue to an exact total;
* with durability attached a journal crash is **never acked**: the
  client sees the error, and a restarted server recovers exactly the
  acked prefix.
"""

import threading

import numpy as np
import pytest

from repro.core import DDSketch
from repro.durability import DurabilityManager, FlushPolicy
from repro.durability.faults import CrashInjector
from repro.errors import ServiceError
from repro.service import (
    ManualClock,
    MetricRegistry,
    QuantileClient,
    QuantileServer,
)

# Every test here runs under the runtime lock sanitizer: acquisition
# order across the server -> registry -> store -> sketch hierarchy is
# recorded and teardown fails on any ordering cycle (DESIGN §13).
pytestmark = pytest.mark.usefixtures("lock_sanitizer")


def make_registry(clock):
    return MetricRegistry(
        sketch_factory=lambda: DDSketch(alpha=0.01),
        clock=clock,
        partition_ms=1_000.0,
        fine_partitions=100_000,
    )


class TestMultiWorkerServerIngest:
    def test_concurrent_clients_exact_total(self):
        n_clients, n_batches, batch = 6, 20, 50
        with QuantileServer(
            make_registry(ManualClock(0.0)),
            ingest_workers=4,
            ingest_coalesce=16,
        ) as server:
            host, port = server.address
            failures = []

            def client_thread(cid: int) -> None:
                try:
                    rng = np.random.default_rng(cid)
                    with QuantileClient(
                        host, port, timeout=10.0, retries=0
                    ) as cli:
                        for _ in range(n_batches):
                            values = rng.uniform(1.0, 100.0, batch)
                            accepted = cli.ingest(
                                "lat", values, timestamp_ms=0.0
                            )
                            assert accepted == batch
                except Exception as exc:  # noqa: BLE001 - reraised below
                    failures.append(exc)

            threads = [
                threading.Thread(target=client_thread, args=(cid,))
                for cid in range(n_clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not failures, failures

            with QuantileClient(host, port, timeout=10.0, retries=0) as cli:
                cli.flush()
                assert cli.count("lat") == n_clients * n_batches * batch
                assert 1.0 <= cli.quantile("lat", 0.5) <= 100.0


class TestCrashedJournalNeverAcked:
    def test_unjournaled_values_not_acked_and_not_recovered(self, tmp_path):
        clock = ManualClock(0.0)
        manager = DurabilityManager(
            tmp_path,
            clock=clock,
            flush_policy=FlushPolicy(mode="always"),
            checkpoint_interval_ms=0.0,
            fault=CrashInjector("wal.append", countdown=4),
        )
        acked = 0
        rejected = 0
        with QuantileServer(make_registry(clock), durability=manager) as srv:
            host, port = srv.address
            with QuantileClient(host, port, timeout=5.0, retries=0) as cli:
                rng = np.random.default_rng(7)
                for _ in range(8):
                    values = rng.uniform(1.0, 100.0, 10)
                    try:
                        acked += cli.ingest("lat", values, timestamp_ms=0.0)
                    except ServiceError:
                        # The 4th append dies and the WAL poisons
                        # itself (fail-stop): stop writing, like a
                        # client whose retries are exhausted.
                        rejected += 1
                        break
                cli.flush()
                assert rejected == 1
                # Exactly the journaled prefix was acked, and the
                # server never counts what it never acked.
                assert cli.count("lat") == acked == 30

        # Restart from the WAL: recovery reproduces the acked prefix
        # exactly — the crashed batch left no trace in the journal.
        fresh = DurabilityManager(
            tmp_path,
            clock=ManualClock(0.0),
            flush_policy=FlushPolicy(mode="always"),
            checkpoint_interval_ms=0.0,
        )
        with QuantileServer(
            make_registry(ManualClock(0.0)), durability=fresh
        ) as srv:
            host, port = srv.address
            with QuantileClient(host, port, timeout=5.0, retries=0) as cli:
                assert cli.count("lat") == acked


class TestPoisonedWalAnswers:
    """After one failed append the WAL refuses every later write with a
    ``WALError``; each refusal is a ``durability`` reply on the same
    connection, never a dropped socket."""

    def test_later_writes_get_durability_errors(self, tmp_path):
        clock = ManualClock(0.0)
        manager = DurabilityManager(
            tmp_path,
            clock=clock,
            checkpoint_interval_ms=0.0,
            fault=CrashInjector("wal.append", countdown=2),
        )
        with QuantileServer(make_registry(clock), durability=manager) as srv:
            host, port = srv.address
            with QuantileClient(host, port, timeout=5.0, retries=0) as cli:
                acked = cli.ingest("lat", [1.0, 2.0], timestamp_ms=0.0)
                with pytest.raises(ServiceError, match="^durability: "):
                    cli.ingest("lat", [3.0], timestamp_ms=0.0)
                for _ in range(3):
                    with pytest.raises(
                        ServiceError, match="^durability: journal write"
                    ):
                        cli.ingest("lat", [4.0], timestamp_ms=0.0)
                with pytest.raises(
                    ServiceError, match="^durability: checkpoint failed"
                ):
                    cli.checkpoint()
                assert cli.ping()
                cli.flush()
                assert cli.count("lat") == acked == 2
