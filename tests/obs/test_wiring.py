"""The observability layer wired through every instrumented subsystem.

Each test drives a real code path (live TCP server, retrying client,
parallel ingestor, streaming engine) with a shared
:class:`~repro.obs.telemetry.Telemetry` and asserts the documented
instruments actually fill — the contract the snapshot exporters depend
on.
"""

import numpy as np
import pytest

from repro.core import DDSketch
from repro.core.registry import paper_config
from repro.data.streams import EventBatch
from repro.errors import ServerOverloadedError, ServiceUnavailableError
from repro.obs.telemetry import Telemetry
from repro.parallel import ParallelIngestor
from repro.service import (
    ManualClock,
    MetricRegistry,
    QuantileClient,
    QuantileServer,
)
from repro.streaming import (
    CollectingAggregator,
    StreamEnvironment,
    TumblingEventTimeWindows,
    run_tumbling_batch,
)


def make_server(telemetry, **kwargs):
    registry = MetricRegistry(
        sketch_factory=lambda: DDSketch(alpha=0.01),
        clock=ManualClock(0.0),
        partition_ms=1_000.0,
        fine_partitions=100_000,
        telemetry=telemetry,
    )
    return QuantileServer(registry, telemetry=telemetry, **kwargs)


class TestServerInstrumentation:
    def test_op_spans_land_in_self_hosted_histograms(self):
        telemetry = Telemetry()
        with make_server(telemetry) as server:
            host, port = server.address
            with QuantileClient(host, port, retries=0) as client:
                client.ingest("lat", [1.0, 2.0, 3.0], timestamp_ms=0.0)
                client.flush()
                client.quantile("lat", 0.5)
                client.quantile("lat", 0.9)
                client.rank("lat", 2.0)
        snap = telemetry.snapshot()
        quantile_spans = snap["histograms"]["span.server.op.quantile"]
        assert quantile_spans["count"] == 2
        assert quantile_spans["p50"] > 0.0
        assert snap["histograms"]["span.server.op.rank"]["count"] == 1
        assert snap["histograms"]["span.server.op.ingest"]["count"] == 1
        assert snap["histograms"]["span.server.drain_batch"]["count"] >= 1

    def test_shedding_increments_the_counter_and_sets_queue_depth(self):
        telemetry = Telemetry()
        with make_server(telemetry, ingest_queue_size=1) as server:
            server.pause_ingest()
            host, port = server.address
            with QuantileClient(host, port, retries=0) as client:
                with pytest.raises(ServerOverloadedError):
                    # One batch may park in the paused drain worker and
                    # one fills the queue; a few more guarantee a shed.
                    for _ in range(8):
                        client.ingest("lat", [1.0], timestamp_ms=0.0)
            server.resume_ingest()
            server.flush()
        snap = telemetry.snapshot()
        assert snap["counters"]["server.shed_requests"] >= 1
        assert "server.ingest_queue_depth" in snap["gauges"]

    def test_store_view_cache_hits_and_misses_are_counted(self):
        telemetry = Telemetry()
        with make_server(telemetry) as server:
            host, port = server.address
            with QuantileClient(host, port, retries=0) as client:
                client.ingest("lat", [1.0, 2.0], timestamp_ms=0.0)
                client.flush()
                client.quantile("lat", 0.5)  # build the merged view
                client.quantile("lat", 0.9)  # reuse it
                client.ingest("lat", [3.0], timestamp_ms=1_500.0)
                client.flush()
                client.quantile("lat", 0.5)  # extend the prefix fold
        counters = telemetry.snapshot()["counters"]
        assert counters["store.view_cache_miss"] == 2
        assert counters["store.view_cache_hit"] == 1
        assert counters["store.view_prefix_rebuild"] == 1
        assert counters["store.view_prefix_hit"] == 1
        # [0] alone, then [0] into the prefix and [1] into its copy
        assert counters["store.view_merges"] == 3


class TestClientInstrumentation:
    def test_retries_and_backoff_are_counted(self):
        telemetry = Telemetry()
        # Grab a port that is almost certainly closed: bind-and-release.
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        client = QuantileClient(
            "127.0.0.1",
            dead_port,
            timeout=0.2,
            retries=2,
            backoff_ms=50.0,
            clock=ManualClock(0.0),
            telemetry=telemetry,
        )
        with pytest.raises(ServiceUnavailableError):
            client.ping()
        counters = telemetry.snapshot()["counters"]
        assert counters["client.transport_retries"] == 2
        # Exponential: 50ms then 100ms.
        assert counters["client.backoff_total_ms"] == 150


class TestIngestorInstrumentation:
    def test_round_robin_routing_reports_balanced_shards(self):
        telemetry = Telemetry()
        ingestor = ParallelIngestor(
            lambda: paper_config("kll", seed=11),
            n_shards=4,
            backend="serial",
            telemetry=telemetry,
        )
        sharded = ingestor.ingest([np.linspace(1.0, 50.0, 128)])
        assert sharded.count == 128
        snap = telemetry.snapshot()
        per_shard = [
            snap["counters"][f"ingest.shard.{shard}.values"]
            for shard in range(4)
        ]
        assert sum(per_shard) == 128
        assert per_shard == [32, 32, 32, 32]
        assert snap["gauges"]["ingest.shard_imbalance"] == 1.0

    def test_live_ingest_into_reports_per_batch(self):
        from repro.parallel import ShardedSketch

        telemetry = Telemetry()
        ingestor = ParallelIngestor(
            lambda: paper_config("kll", seed=11),
            n_shards=2,
            backend="thread",
            telemetry=telemetry,
        )
        sharded = ShardedSketch(
            lambda: paper_config("kll", seed=11), n_shards=2
        )
        ingestor.ingest_into(
            sharded, [np.arange(1.0, 11.0), np.arange(11.0, 21.0)]
        )
        snap = telemetry.snapshot()
        total = sum(
            snap["counters"][f"ingest.shard.{shard}.values"]
            for shard in range(2)
        )
        assert total == 20
        assert snap["gauges"]["ingest.shard_imbalance"] >= 1.0


class TestStreamingInstrumentation:
    @staticmethod
    def _batch():
        values = np.arange(1.0, 7.0)
        times = np.array([0.0, 500.0, 999.0, 1_000.0, 1_500.0, 2_100.0])
        return EventBatch(values, times, times.copy())

    def test_windowed_aggregate_counts_and_times_emissions(self):
        telemetry = Telemetry()
        env = StreamEnvironment()
        report = (
            env.from_batch(self._batch())
            .window(TumblingEventTimeWindows(1_000.0))
            .aggregate(CollectingAggregator(), telemetry=telemetry)
        )
        assert len(report.results) == 3
        snap = telemetry.snapshot()
        assert snap["counters"]["streaming.windows_emitted"] == 3
        assert snap["histograms"]["span.streaming.window_emit"][
            "count"
        ] == 3

    def test_run_tumbling_batch_is_instrumented_too(self):
        telemetry = Telemetry()
        report = run_tumbling_batch(
            self._batch(),
            window_size_ms=1_000.0,
            aggregator=CollectingAggregator(),
            telemetry=telemetry,
        )
        assert len(report.results) == 3
        snap = telemetry.snapshot()
        assert snap["counters"]["streaming.windows_emitted"] == 3
        assert snap["histograms"]["span.streaming.window_emit"][
            "count"
        ] == 3
