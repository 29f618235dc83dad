"""Quantile service demo: a monitoring backend in one process.

Starts an in-process :class:`~repro.service.QuantileServer`, streams
lognormal latencies for three metrics through the TCP client, then
answers p50/p95/p99 over sliding time ranges — the "last 5 seconds"
dashboards the paper's Sec 4.2 monitoring scenario calls for — and
finishes with a client-observed query-latency report measured with one
of the repo's own sketches.

Everything runs on an injected :class:`~repro.service.ManualClock`, so
the output is identical on every run.

Run: ``python examples/quantile_service_demo.py``
"""

import time

import numpy as np

from repro.core import DDSketch
from repro.service import (
    ManualClock,
    MetricRegistry,
    QuantileClient,
    QuantileServer,
)

METRICS = ("api.latency", "db.latency", "queue.lag")
SIGMAS = {"api.latency": 0.5, "db.latency": 0.8, "queue.lag": 0.3}
SECONDS = 20
RATE = 500  # values per metric per second
QS = (0.5, 0.95, 0.99)


def ingest(client: QuantileClient, clock: ManualClock) -> int:
    rng = np.random.default_rng(2023)
    total = 0
    for second in range(SECONDS):
        clock.set_time(second * 1_000.0)
        for metric in METRICS:
            values = rng.lognormal(4.6, SIGMAS[metric], RATE)
            total += client.ingest(
                metric, values, timestamp_ms=second * 1_000.0
            )
    client.flush()  # barrier: every batch applied before we query
    return total


def sliding_report(client: QuantileClient) -> None:
    print(f"{'metric':>12} {'range':>10} {'events':>7} "
          f"{'p50':>8} {'p95':>8} {'p99':>9}")
    for metric in METRICS:
        for lookback_s in (5, 10, SECONDS):
            t1 = SECONDS * 1_000.0
            t0 = t1 - lookback_s * 1_000.0
            p50, p95, p99 = client.quantiles(metric, QS, t0=t0, t1=t1)
            count = client.count(metric, t0=t0, t1=t1)
            print(f"{metric:>12} {f'last {lookback_s}s':>10} "
                  f"{count:>7} {p50:>8.1f} {p95:>8.1f} {p99:>9.1f}")


def latency_report(client: QuantileClient) -> None:
    # Measure the service's own query latency with a repo sketch:
    # the instrument is the thing under study.
    latencies = DDSketch(alpha=0.01)
    for index in range(300):
        metric = METRICS[index % len(METRICS)]
        start = time.perf_counter()
        client.quantile(metric, 0.99, t0=index % 15 * 1_000.0)
        latencies.update((time.perf_counter() - start) * 1_000.0)
    p50, p99 = latencies.quantiles((0.5, 0.99))
    print(f"\nquery latency over {latencies.count} TCP round-trips: "
          f"p50={p50:.3f} ms  p99={p99:.3f} ms")


def main() -> None:
    clock = ManualClock(0.0)
    registry = MetricRegistry(
        sketch_factory=lambda: DDSketch(alpha=0.01),
        clock=clock,
        partition_ms=1_000.0,
        fine_partitions=120,
    )
    with QuantileServer(registry) as server:
        host, port = server.address
        print(f"quantile service listening on {host}:{port}\n")
        with QuantileClient(host, port) as client:
            total = ingest(client, clock)
            print(f"ingested {total} values across "
                  f"{len(METRICS)} metrics\n")
            sliding_report(client)
            latency_report(client)
            stats = client.stats()
            print(f"server stats: {stats['requests']} requests, "
                  f"{stats['ingested_values']} values applied, "
                  f"{stats['shed_requests']} shed")


if __name__ == "__main__":
    main()
