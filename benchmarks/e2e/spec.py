"""The benchmark's declarations: workloads, metrics, bounds, thresholds.

Everything a later issue cites by name lives here, and
``/BENCHMARK.json`` is :func:`manifest` written to disk (the self-test
asserts they are equal).  ``BENCHMARK.json`` has a closed schema, so
what does not fit it — workload parameters, the layer each per-layer
metric belongs to and the end-to-end metric it should move, the
correctness thresholds — is declared here and rendered in
``README.md``.

This module imports nothing from ``repro``.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 20230328

#: ``--seconds`` value at which every repetition count below applies
#: unscaled; ``BENCHMARK.json`` ``run_seconds``.
RUN_SECONDS = 12

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]

SKETCHES = ("kll", "moments", "ddsketch", "uddsketch", "req")

SKETCH_BATCH = "sketch_batch"
STREAM_WINDOWS = "stream_windows"
TCP_INGEST = "tcp_ingest"
TCP_MIXED = "tcp_mixed"

#: name -> (one-line rationale, parameters).  Repetition counts
#: (``rounds``, ``streams``, ``blocks``, ...) scale with
#: ``--seconds / RUN_SECONDS``; block and batch sizes never do.
WORKLOADS: dict[str, tuple[str, dict[str, object]]] = {
    SKETCH_BATCH: (
        "paper Fig 5 as a library user runs it: five sketches, 2M "
        "Pareto(1,1) values by update_batch; core is all the work",
        {
            "stream_values": 2_000_000,
            "chunk_values": 65_536,
            "rounds": 2,
            "fast_passes_per_round": 8,
            "merge_parts": 32,
            "merge_part_values": 16_384,
            "query_reps": 96,
            "merge_folds": 8,
        },
    ),
    STREAM_WINDOWS: (
        "paper accuracy setting: event-time tumbling windows with late "
        "data; streaming engine plus scalar update, not the batch path",
        {
            "streams": 18,
            "events_per_stream": 20_000,
            "rate_per_sec": 50_000,
            "delay_mean_ms": 15.0,
            "window_ms": 100.0,
            "out_of_orderness_ms": 20.0,
        },
    ),
    TCP_INGEST: (
        "wire path with the sketch made cheap: 1000-value JSON frames "
        "into DDSketch partitions; codec, socket and queue dominate",
        {
            "sketch": "ddsketch",
            "tenants": 1,
            "blocks": 160,
            "requests_per_block": 40,
            "values_per_request": 1_000,
            "clock_step_ms": 5.0,
            "ingest_blocks_per_query_block": 8,
            "queries_per_block": 200,
            "error_range_ms": 1_000.0,
            "durability": False,
        },
    ),
    TCP_MIXED: (
        "writes beside reads with WAL: 16 Zipf tenants, 64-value "
        "frames, trailing-window queries; store and durability dominate",
        {
            "sketch": "kll",
            "tenants": 16,
            "zipf_exponent": 1.1,
            "hot_shards": 4,
            "blocks": 280,
            "requests_per_block": 40,
            "values_per_request": 64,
            "clock_step_ms": 15.0,
            "query_every": 4,
            "query_window_ms": 30_000.0,
            "checkpoint_at": 0.8,
            "restarts": 9,
            "error_range_ms": 8_000.0,
            "durability": True,
            "flush_policy": "batch",
        },
    ),
}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    definition: str


END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "process start to first timed block: imports, construction, "
        "connect, warm-up; not input generation; median of 5 spawns",
    ),
    EndToEnd(
        "ingest_values_per_s", "values/s", "higher", 0.10,
        "values through the workload's full ingest path including its "
        "barrier; geometric mean over the five sketches where five run",
    ),
    EndToEnd(
        "query_p50_us", "us", "lower", 0.15,
        "typical latency (block median, lower-quartile block) of the "
        "workload's read: quantiles(PAPER_QUANTILES) after an update "
        "(summed over sketches), or one quantile round trip",
    ),
    EndToEnd(
        "rel_error_mean", "ratio", "lower", 0.20,
        "mean relative error over PAPER_QUANTILES against an exact "
        "reference, per sketch over its instances, geometric mean over "
        "sketches",
    ),
    EndToEnd(
        "state_bytes", "bytes", "lower", 0.05,
        "size_bytes() of the sketch state the workload holds at its end",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.05,
        "ru_maxrss of the workload subprocess",
    ),
)


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    workloads: tuple[str, ...]
    moves: str

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


ALL = tuple(WORKLOADS)
_TCP = (TCP_INGEST, TCP_MIXED)


def _per_sketch(
    template: str, unit: str, better: str, workload: str, moves: str
) -> list[Layer]:
    return [
        Layer(template.format(s=sketch), unit, better, (workload,), moves)
        for sketch in SKETCHES
    ]


PER_LAYER: tuple[Layer, ...] = tuple(
    _per_sketch(
        "core.{s}.update_batch_values_per_s", "values/s", "higher",
        SKETCH_BATCH, "ingest_values_per_s on sketch_batch (1/5 weight)",
    )
    + _per_sketch(
        "core.{s}.quantiles_us", "us", "lower", SKETCH_BATCH,
        "query_p50_us on sketch_batch",
    )
    + _per_sketch(
        "core.{s}.merge_us", "us", "lower", SKETCH_BATCH,
        "query_p50_us on tcp_mixed (view merges), compaction",
    )
    + _per_sketch(
        "core.{s}.dumps_loads_us", "us", "lower", SKETCH_BATCH,
        "durability.recovery_s on tcp_mixed",
    )
    + _per_sketch(
        "core.{s}.size_bytes", "bytes", "lower", SKETCH_BATCH,
        "state_bytes",
    )
    + _per_sketch(
        "core.{s}.rel_error", "ratio", "lower", SKETCH_BATCH,
        "rel_error_mean",
    )
    + _per_sketch(
        "streaming.{s}.events_per_s", "1/s", "higher", STREAM_WINDOWS,
        "ingest_values_per_s on stream_windows (1/5 weight)",
    )
    + _per_sketch(
        "core.{s}.update_values_per_s", "values/s", "higher",
        STREAM_WINDOWS, "ingest_values_per_s on stream_windows",
    )
    + [
        Layer(name, unit, better, (STREAM_WINDOWS,), moves)
        for name, unit, better, moves in (
            ("streaming.engine.events_per_s", "1/s", "higher",
             "ceiling of ingest_values_per_s on stream_windows"),
            ("streaming.engine.self_share", "ratio", "lower",
             "bounds what any sketch gain buys on stream_windows"),
            ("streaming.window_emit_us", "us", "lower",
             "query_p50_us on stream_windows"),
            ("streaming.tumbling_batch.events_per_s", "1/s", "higher",
             "nothing: the vectorised bypass of the per-event engine"),
            ("streaming.windows_fired", "count", "higher",
             "must not move"),
            ("streaming.late_drop_share", "ratio", "lower",
             "must not move"),
        )
    ]
    + [
        Layer("service.client.ingest_roundtrip_us", "us", "lower", _TCP,
              "ingest_values_per_s on both tcp workloads"),
        Layer("service.client.ingest_p99_us", "us", "lower", _TCP,
              "diagnostic: tails are not gated"),
        Layer("service.server.dispatch_ingest_us", "us", "lower", _TCP,
              "service.client.ingest_roundtrip_us"),
        Layer("service.server.queue_wait_us", "us", "lower", _TCP,
              "ingest_values_per_s (enqueue to drain start, worker idle)"),
        Layer("service.registry.record_us", "us", "lower", _TCP,
              "ingest_values_per_s (drain side)"),
        Layer("service.server.shed_share", "ratio", "lower", _TCP,
              "failed"),
    ]
    + [
        Layer(name, unit, better, (TCP_INGEST,), moves)
        for name, unit, better, moves in (
            ("service.protocol.encode_request_us", "us", "lower",
             "service.client.ingest_roundtrip_us"),
            ("service.protocol.decode_request_us", "us", "lower",
             "service.client.ingest_roundtrip_us"),
            ("service.protocol.response_codec_us", "us", "lower",
             "service.client.ingest_roundtrip_us"),
            ("service.socket.self_us", "us", "lower",
             "round trip minus codec and dispatch, by subtraction"),
            ("service.server.flush_barrier_ms", "ms", "lower",
             "ingest_values_per_s on tcp_ingest"),
            ("service.server.coalesced_ops_share", "ratio", "higher",
             "service.registry.record_us"),
            ("service.store.record_self_us", "us", "lower",
             "service.registry.record_us"),
            ("core.ddsketch.update_batch_us", "us", "lower",
             "service.registry.record_us; a few percent of the path"),
            ("service.wire_bytes_per_value", "bytes", "lower",
             "noise-free witness for a binary frame"),
            ("service.py_calls_per_value", "count", "lower",
             "noise-free witness for decode+dispatch work"),
            ("service.store.query_hit_us", "us", "lower",
             "query_p50_us on tcp_ingest"),
            ("obs.telemetry_overhead_share", "ratio", "lower",
             "ingest_values_per_s on tcp_ingest"),
            ("service.server.stop_s", "s", "lower",
             "nothing: inside no other metric"),
        )
    ]
    + [
        Layer(name, unit, better, (TCP_MIXED,), moves)
        for name, unit, better, moves in (
            ("durability.journal_us", "us", "lower",
             "service.server.dispatch_ingest_us on tcp_mixed"),
            ("durability.wal.append_us", "us", "lower",
             "durability.journal_us"),
            ("durability.wal.fsyncs_per_1k_records", "count", "lower",
             "durability.wal.append_us"),
            ("durability.wal_bytes_per_value", "bytes", "lower",
             "durability.wal.append_us, durability.recovery_s"),
            ("core.kll.update_batch_us", "us", "lower",
             "service.registry.record_us on tcp_mixed"),
            ("parallel.sharded.record_us", "us", "lower",
             "service.registry.record_us on the hot tenant"),
            ("service.client.query_roundtrip_us", "us", "lower",
             "query_p50_us on tcp_mixed"),
            ("service.client.query_p99_us", "us", "lower",
             "diagnostic: tails are not gated"),
            ("service.store.query_miss_us", "us", "lower",
             "query_p50_us on tcp_mixed"),
            ("service.store.view_cache_hit_share", "ratio", "higher",
             "query_p50_us on tcp_mixed"),
            ("service.store.partitions_per_query", "count", "lower",
             "service.store.query_miss_us"),
            ("service.store.compactions", "count", "lower",
             "service.client.ingest_p99_us only"),
            ("service.store.compaction_ms_max", "ms", "lower",
             "service.client.ingest_p99_us only"),
            ("durability.checkpoint_write_ms", "ms", "lower",
             "nothing gated: runs between blocks"),
            ("durability.checkpoint_bytes", "bytes", "lower",
             "durability.recover.restore_ms"),
            ("durability.recover.restore_ms", "ms", "lower",
             "durability.recovery_s"),
            ("durability.recover.replay_records_per_s", "1/s", "higher",
             "durability.recovery_s"),
            ("service.store.snapshot_restore_ms", "ms", "lower",
             "durability.recover.restore_ms"),
            ("durability.recovery_s", "s", "lower",
             "QuantileServer.start() over the crashed data dir until "
             "it answers; median of the restarts"),
        )
    ]
    + [
        Layer(name, unit, better, ALL, "nothing: describes the " + what)
        for name, unit, better, what in (
            ("harness.cal_ms_p50", "ms", "lower", "machine"),
            ("harness.cal_ms_spread", "ratio", "lower", "machine"),
            ("harness.raw_ingest_values_per_s", "values/s", "higher",
             "machine (uncorrected wall clock)"),
            ("harness.trace_overhead_share", "ratio", "lower", "tracer"),
        )
    ]
)

#: Mean relative error each sketch must stay under, per workload: twice
#: the worst value measured over seeds 20230328..20230339, and never
#: above the sketch's own guarantee.  DDSketch and UDDSketch are also
#: held to alpha = 0.01 on every single answer.
ALPHA_GUARANTEE = 0.01
ERROR_THRESHOLDS: dict[str, dict[str, float]] = {
    SKETCH_BATCH: {
        "kll": 0.048, "moments": 0.020, "ddsketch": 0.0093,
        "uddsketch": 0.0030, "req": 0.0061,
    },
    STREAM_WINDOWS: {
        "kll": 0.082, "moments": 0.032, "ddsketch": 0.0099,
        "uddsketch": 0.0027, "req": 0.0046,
    },
    TCP_INGEST: {"ddsketch": ALPHA_GUARANTEE},
    TCP_MIXED: {"kll": 0.017},
}


def manifest() -> dict[str, object]:
    """The contents of ``/BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why}
            for name, (why, _params) in WORKLOADS.items()
        ],
        "end_to_end": [
            {
                "name": metric.name,
                "unit": metric.unit,
                "better": metric.better,
                "bound": metric.bound,
            }
            for metric in END_TO_END
        ],
        "per_layer": [
            {
                "name": metric.name,
                "unit": metric.unit,
                "better": metric.better,
            }
            for metric in PER_LAYER
        ],
    }
