"""End-to-end determinism: two full server runs are byte-identical.

Acceptance criterion of the service PR: with an injected clock and a
fixed seed, ingesting the same stream through the TCP client and
issuing the same query sequence must produce *byte-identical* response
frames across two completely separate server processes-worth of state
(fresh registry, fresh sockets, fresh threads).  Canonical JSON
encoding plus injectable clocks plus the ``flush`` barrier is what
makes this hold.
"""

import numpy as np

from repro.core import DDSketch, paper_config
from repro.service import (
    ManualClock,
    MetricRegistry,
    QuantileClient,
    QuantileServer,
)
from repro.service import protocol

METRICS = ("api.latency", "db.latency", "queue.lag")
SEED = 2023


class RecordingClient(QuantileClient):
    """Client that keeps the canonical bytes of every response."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.frames = []

    def call(self, request):
        response = super().call(request)
        self.frames.append(protocol.encode_message(response))
        return response


def run_session(sketch_factory):
    """One complete server life: ingest, query, return response bytes."""
    clock = ManualClock(0.0)
    registry = MetricRegistry(
        sketch_factory=sketch_factory,
        clock=clock,
        partition_ms=1_000.0,
        fine_partitions=100_000,
        hot_metrics=(METRICS[0],),
        n_shards=2,
    )
    rng = np.random.default_rng(SEED)
    with QuantileServer(registry) as server:
        host, port = server.address
        with RecordingClient(host, port, retries=0) as client:
            for second in range(8):
                clock.set_time(second * 1_000.0)
                for metric in METRICS:
                    client.ingest(
                        metric,
                        rng.lognormal(4.6, 0.5, 200),
                        timestamp_ms=second * 1_000.0,
                    )
            client.flush()
            for metric in METRICS:
                client.quantiles(metric, [0.5, 0.9, 0.99])
                client.quantile(metric, 0.95, t0=2_000.0, t1=6_000.0)
                client.rank(metric, 100.0)
                client.cdf(metric, 150.0)
                client.count(metric)
                client.count(metric, t0=0.0, t1=4_000.0)
            client.metrics()
            client.stats()
            return client.frames


class TestEndToEndDeterminism:
    def test_two_runs_are_byte_identical_seeded_kll(self):
        """Randomised sketch, fixed seed: the whole stack reproduces."""

        def factory():
            return paper_config("kll", seed=SEED)

        first = run_session(factory)
        second = run_session(factory)
        assert len(first) == len(second)
        for index, (a, b) in enumerate(zip(first, second)):
            assert a == b, (
                f"response {index} differs between runs:\n{a!r}\nvs\n{b!r}"
            )

    def test_two_runs_are_byte_identical_ddsketch(self):
        def factory():
            return DDSketch(alpha=0.01)

        assert run_session(factory) == run_session(factory)


class TestTCPMatchesUnpartitioned:
    def test_served_answers_equal_local_reference(self):
        """The network + partition + queue path adds no drift."""
        clock = ManualClock(0.0)
        registry = MetricRegistry(
            sketch_factory=lambda: DDSketch(alpha=0.01),
            clock=clock,
            partition_ms=1_000.0,
            fine_partitions=100_000,
        )
        rng = np.random.default_rng(7)
        reference = DDSketch(alpha=0.01)
        with QuantileServer(registry) as server:
            host, port = server.address
            with QuantileClient(host, port, retries=0) as client:
                for second in range(6):
                    batch = rng.lognormal(4.6, 0.5, 300)
                    reference.update_batch(batch)
                    client.ingest(
                        "lat", batch, timestamp_ms=second * 1_000.0
                    )
                client.flush()
                assert client.count("lat") == reference.count
                for q in (0.05, 0.5, 0.9, 0.99):
                    assert client.quantile("lat", q) == (
                        reference.quantile(q)
                    )
                assert client.rank("lat", 120.0) == reference.rank(120.0)
                assert client.cdf("lat", 120.0) == reference.cdf(120.0)
