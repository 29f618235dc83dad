"""End-to-end tests: TCP client against a live quantile server."""

import socket
import time

import numpy as np
import pytest

from repro.core import DDSketch
from repro.errors import (
    ServerOverloadedError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.service import (
    ManualClock,
    MetricRegistry,
    QuantileClient,
    QuantileServer,
)
from repro.service import protocol


def make_registry(clock):
    # Wide fine horizon so nothing expires mid-test.
    return MetricRegistry(
        sketch_factory=lambda: DDSketch(alpha=0.01),
        clock=clock,
        partition_ms=1_000.0,
        fine_partitions=100_000,
    )


@pytest.fixture()
def server():
    clock = ManualClock(0.0)
    with QuantileServer(make_registry(clock)) as srv:
        srv.clock = clock
        yield srv


@pytest.fixture()
def client(server):
    host, port = server.address
    with QuantileClient(host, port, timeout=5.0, retries=0) as cli:
        yield cli


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.005)


class TestBasicOps:
    def test_ping(self, client):
        assert client.ping() is True

    def test_ingest_flush_query(self, client, rng):
        values = rng.lognormal(4.6, 0.5, 2_000)
        reference = DDSketch(alpha=0.01)
        reference.update_batch(values)
        for start in range(0, 2_000, 500):
            batch = values[start : start + 500]
            assert client.ingest("lat", batch, timestamp_ms=0.0) == 500
        client.flush()
        assert client.count("lat") == 2_000
        assert client.quantile("lat", 0.5) == reference.quantile(0.5)
        assert client.quantiles("lat", [0.5, 0.99]) == (
            reference.quantiles([0.5, 0.99])
        )
        assert client.rank("lat", 100.0) == reference.rank(100.0)
        assert client.cdf("lat", 100.0) == reference.cdf(100.0)

    def test_range_query_over_tcp(self, client):
        client.ingest("lat", [1.0], timestamp_ms=500.0)
        client.ingest("lat", [100.0], timestamp_ms=5_500.0)
        client.flush()
        assert client.count("lat", t0=0.0, t1=1_000.0) == 1
        assert client.quantile("lat", 0.5, t0=0.0, t1=1_000.0) == (
            pytest.approx(1.0, rel=0.02)
        )
        assert client.quantile("lat", 0.5, t0=5_000.0, t1=6_000.0) == (
            pytest.approx(100.0, rel=0.02)
        )

    def test_tags_route_to_distinct_series(self, client):
        client.ingest(
            "lat", [1.0], timestamp_ms=0.0, tags={"region": "eu"}
        )
        client.ingest(
            "lat", [9.0], timestamp_ms=0.0, tags={"region": "us"}
        )
        client.flush()
        assert client.count("lat", tags={"region": "eu"}) == 1
        assert client.count("lat", tags={"region": "us"}) == 1
        listing = client.metrics()
        assert {"name": "lat", "tags": {"region": "eu"}} in listing
        assert {"name": "lat", "tags": {"region": "us"}} in listing

    def test_stats_op(self, client):
        client.ingest("lat", [1.0, 2.0], timestamp_ms=0.0)
        client.flush()
        stats = client.stats()
        assert stats["metrics"] == 1
        assert stats["events_recorded"] == 2
        assert stats["ingested_values"] == 2
        assert stats["ingest_requests"] == 1
        assert stats["shed_requests"] == 0
        assert stats["requests"] >= 3  # ingest + flush + stats


class TestErrors:
    def test_unknown_metric(self, client):
        with pytest.raises(ServiceError, match="unknown metric"):
            client.quantile("nope", 0.5)

    def test_query_does_not_create_series(self, client, server):
        with pytest.raises(ServiceError):
            client.count("nope")
        assert len(server.registry) == 0

    def test_unknown_op(self, client):
        with pytest.raises(ServiceError, match="unknown_op"):
            client.call({"op": "frobnicate"})

    def test_missing_fields(self, client):
        with pytest.raises(ServiceError, match="bad_request"):
            client.call({"op": "ingest", "values": [1.0]})
        with pytest.raises(ServiceError, match="bad_request"):
            client.call({"op": "ingest", "metric": "m", "values": []})
        with pytest.raises(ServiceError, match="bad_request"):
            client.call({"op": "quantile", "metric": "m"})

    @pytest.mark.parametrize("timestamp_ms", [np.nan, np.inf, -np.inf])
    def test_non_finite_timestamp_is_refused_before_the_queue(
        self, client, server, timestamp_ms
    ):
        # It reached the drain thread and killed it: no partition id.
        with pytest.raises(ServiceError, match="bad_request"):
            client.ingest("lat", [1.0], timestamp_ms=timestamp_ms)
        assert client.ingest("lat", [2.0], timestamp_ms=0.0) == 1
        client.flush()
        assert client.count("lat") == 1
        assert server._worker.is_alive()

    def test_values_must_be_a_non_empty_flat_sequence_of_numbers(
        self, server
    ):
        """What an all-JSON frame can carry in ``"values"``."""
        request = {"op": "ingest", "metric": "m", "timestamp_ms": 0.0}
        for values in (
            "abc", 3, None, [], np.zeros(0), [[1.0], [2.0]], [1.0, [2.0]],
            [1.0, "2"], ["x"], [None], np.ones((2, 2)), [10**400],
            np.array(["1.0"]),
        ):
            response = server.dispatch({**request, "values": values})
            assert response.get("error") == "bad_request", values
        for values in ([1, 2.5, True], np.arange(3), np.ones(3), [2**70] * 3):
            response = server.dispatch({**request, "values": values})
            assert response == protocol.ok(accepted=3)
        server.flush()
        assert server.registry.get("m").count() == 12

    def test_queued_values_do_not_alias_the_callers_array(self, server):
        values = np.array([1.0, 2.0, 3.0])
        server.pause_ingest()
        server.dispatch({"op": "ingest", "metric": "m", "values": values,
                         "timestamp_ms": 0.0})
        values[:] = np.nan  # the caller reuses its buffer
        server.resume_ingest()
        server.flush()
        assert server.registry.get("m").count() == 3
        assert server.stats.snapshot()["error_responses"] == 0

    def test_invalid_quantile(self, client):
        client.ingest("lat", [1.0], timestamp_ms=0.0)
        client.flush()
        with pytest.raises(ServiceError, match="invalid_quantile"):
            client.quantile("lat", 1.5)

    def test_empty_range(self, client):
        client.ingest("lat", [1.0], timestamp_ms=0.0)
        client.flush()
        with pytest.raises(ServiceError, match="empty"):
            client.quantile("lat", 0.5, t0=9e6, t1=1e7)

    def test_errors_leave_connection_usable(self, client):
        with pytest.raises(ServiceError):
            client.call({"op": "frobnicate"})
        assert client.ping() is True

    def test_malformed_frame_gets_error_then_close(self, server):
        host, port = server.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            rfile = sock.makefile("rb")
            # A non-object JSON body is a protocol violation.
            sock.sendall(b"\x00\x00\x00\x05[1,2]")
            response = protocol.read_frame(rfile)
            assert response["ok"] is False
            assert response["error"] == "protocol"
            assert protocol.read_frame(rfile) is None  # closed


class TestBackpressure:
    def test_queue_full_sheds_deterministically(self):
        clock = ManualClock(0.0)
        registry = make_registry(clock)
        with QuantileServer(registry, ingest_queue_size=3) as server:
            host, port = server.address
            with QuantileClient(host, port, retries=0) as client:
                server.pause_ingest()
                # The single worker parks holding one batch...
                client.ingest("lat", [1.0], timestamp_ms=0.0)
                wait_until(lambda: server.queue_depth() == 0)
                # ...then exactly queue_size batches fit.
                for _ in range(3):
                    client.ingest("lat", [1.0], timestamp_ms=0.0)
                with pytest.raises(ServerOverloadedError):
                    client.ingest("lat", [1.0], timestamp_ms=0.0)
                stats = client.stats()
                assert stats["shed_requests"] == 1
                # Releasing the gate drains everything accepted.
                server.resume_ingest()
                client.flush()
                assert client.count("lat") == 4
                assert client.stats()["ingested_values"] == 4

    def test_poisoned_batch_between_same_key_neighbours_counts_nothing(self):
        clock = ManualClock(0.0)
        registry = make_registry(clock)
        with QuantileServer(registry) as server:
            host, port = server.address
            with QuantileClient(host, port, retries=0) as client:
                server.pause_ingest()
                client.ingest("other", [1.0], timestamp_ms=0.0)
                wait_until(lambda: server.queue_depth() == 0)
                # three queued ops with one key and timestamp, drained
                # and recorded one by one
                client.ingest("lat", [1.0, 2.0], timestamp_ms=0.0)
                client.ingest("lat", [3.0, float("nan")], timestamp_ms=0.0)
                client.ingest("lat", [4.0], timestamp_ms=0.0)
                server.resume_ingest()
                client.flush()
                stats = client.stats()
                assert stats["error_responses"] == 1
                assert stats["ingested_values"] == 4
        store = registry.get("lat")
        assert store.count() == store.events_recorded == 3

    def test_shed_is_not_retried_by_client(self):
        clock = ManualClock(0.0)
        registry = make_registry(clock)
        backoff = ManualClock(0.0)
        with QuantileServer(registry, ingest_queue_size=1) as server:
            host, port = server.address
            with QuantileClient(
                host, port, retries=3, clock=backoff
            ) as client:
                server.pause_ingest()
                client.ingest("lat", [1.0], timestamp_ms=0.0)
                wait_until(lambda: server.queue_depth() == 0)
                client.ingest("lat", [1.0], timestamp_ms=0.0)
                with pytest.raises(ServerOverloadedError):
                    client.ingest("lat", [1.0], timestamp_ms=0.0)
                # Overload is not a transport error: no backoff waits.
                assert backoff.now_ms() == 0.0
                server.resume_ingest()


class TestClientRetry:
    def test_unreachable_server_exhausts_retries(self):
        # Bind-then-close to get a port nobody is listening on.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        clock = ManualClock(0.0)
        client = QuantileClient(
            "127.0.0.1",
            port,
            timeout=0.5,
            retries=2,
            backoff_ms=10.0,
            clock=clock,
        )
        with pytest.raises(ServiceUnavailableError):
            client.ping()
        # Exponential backoff between the three attempts: 10 + 20 ms.
        assert clock.now_ms() == 30.0

    def test_reconnects_after_server_side_close(self, server):
        host, port = server.address
        with QuantileClient(host, port, retries=1) as client:
            assert client.ping() is True
            # Forcibly drop the client's socket; the next call must
            # transparently reconnect.
            client._sock.close()
            assert client.ping() is True


class TestLifecycle:
    def test_double_start_rejected(self, server):
        with pytest.raises(Exception):
            server.start()

    def test_stop_is_idempotent(self):
        server = QuantileServer(make_registry(ManualClock()))
        server.start()
        server.stop()
        server.stop()

    def test_idle_stop_does_not_wait_out_a_poll(self):
        """stop() wakes the accept loop, which alone notices a
        shutdown request only at its next 0.5 s poll."""
        server = QuantileServer(make_registry(ManualClock())).start()
        began = time.monotonic()
        server.stop()
        assert time.monotonic() - began < 0.1

    def test_numpy_values_ingest(self, client):
        client.ingest(
            "lat", np.asarray([1.0, 2.0]), timestamp_ms=0.0
        )
        client.flush()
        assert client.count("lat") == 2
