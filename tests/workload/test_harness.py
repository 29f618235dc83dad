"""Tests for TrafficHarness: bookkeeping, rendezvous, exact overload."""

from __future__ import annotations

import pytest

from repro.workload import TrafficHarness


class TestLedger:
    def test_accepted_traffic_is_counted(self):
        with TrafficHarness(queue_size=64) as harness:
            assert harness.ingest("lat", [1.0, 2.0, 3.0])
            harness.advance(1_000.0)
            traffic = harness.traffic()
        assert traffic["offered_batches"] == 1
        assert traffic["offered_values"] == 3
        assert traffic["accepted_values"] == 3
        assert traffic["shed_values"] == 0
        assert traffic["failed_batches"] == 0
        assert harness.shed_rate == 0.0

    def test_clock_is_shared_and_manual(self):
        with TrafficHarness() as harness:
            start = harness.clock.now_ms()
            harness.ingest("lat", [1.0])
            harness.barrier()
            assert harness.clock.now_ms() == start
            harness.advance(2_500.0)
            assert harness.clock.now_ms() == start + 2_500.0

    def test_failed_batches_counted_when_server_dies(self):
        with TrafficHarness() as harness:
            harness.server.stop()
            assert not harness.ingest("lat", [1.0])
            traffic = harness.traffic()
            assert traffic["failed_batches"] == 1
            assert traffic["accepted_values"] == 0
            harness.server.start()  # so stop() tears down cleanly


class TestOverloadRendezvous:
    def test_free_capacity_is_exact_after_overload(self):
        queue_size = 8
        extra = 3
        with TrafficHarness(queue_size=queue_size) as harness:
            harness.overload()
            assert harness.server.wait_parked(timeout=0)
            accepted = shed = 0
            for _ in range(queue_size + extra):
                if harness.ingest("lat", [1.0]):
                    accepted += 1
                else:
                    shed += 1
            assert accepted == queue_size
            assert shed == extra
            assert harness.shed_batches == extra
            harness.release()
            assert not harness.server.wait_parked(timeout=0)
            assert harness.server.queue_depth() == 0
            # Everything accepted (parkers included) was applied.
            assert (
                harness.server_stat("events_recorded")
                == harness.accepted_values
            )

    def test_release_is_timeless_under_manual_clock(self):
        with TrafficHarness(queue_size=8) as harness:
            harness.overload()
            harness.ingest("lat", [1.0, 2.0])
            assert harness.release() == 0.0

    def test_shed_responses_do_not_count_as_transport_retries(self):
        """Satellite guarantee: backpressure != transport failure."""
        with TrafficHarness(queue_size=2) as harness:
            harness.overload()
            for _ in range(5):
                harness.ingest("lat", [1.0])
            counters = harness.telemetry.snapshot()["counters"]
            assert counters["client.shed_responses"] == 3
            assert "client.transport_retries" not in counters
            harness.release()


class TestClients:
    def test_new_clients_share_clock_and_get_distinct_jitter_seeds(self):
        with TrafficHarness(seed=7) as harness:
            second = harness.new_client()
            assert second is not harness.client
            assert second.ingest("lat", [1.0]) == 1
            harness.barrier()

    def test_span_p99_is_deterministically_zero_under_manual_clock(self):
        with TrafficHarness() as harness:
            harness.ingest("lat", [1.0] * 10)
            harness.advance(1_000.0)
            harness.client.quantile("lat", 0.5)
            histograms = harness.telemetry.snapshot()["histograms"]
            for op in ("ingest", "quantile"):
                span = histograms[f"span.server.op.{op}"]
                assert span["count"] >= 1
                assert span["p99"] == 0.0
