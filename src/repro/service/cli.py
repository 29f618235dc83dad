"""Command-line entry point: ``python -m repro.service serve``.

``serve`` runs a quantile server in the foreground until interrupted.
Sketch, store geometry, hot metrics, queue bound and worker count are
all flags, so the CLI reaches every knob the subsystem exposes.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core.registry import DEFAULT_SEED, SKETCH_CLASSES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description=(
            "Multi-tenant quantile service over the repo's mergeable "
            "sketches: time-partitioned stores behind a length-"
            "prefixed JSON TCP protocol with explicit load shedding."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser(
        "serve", help="run a quantile server in the foreground"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7107)
    serve.add_argument(
        "--sketch",
        default="kll",
        choices=sorted(SKETCH_CLASSES),
        help="partition sketch (paper parameterisation)",
    )
    serve.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="seed for randomized sketches",
    )
    serve.add_argument(
        "--partition-ms",
        type=float,
        default=1_000.0,
        help="fine partition width",
    )
    serve.add_argument(
        "--fine-partitions",
        type=int,
        default=60,
        help="fine horizon in partitions",
    )
    serve.add_argument(
        "--coarse-factor",
        type=int,
        default=8,
        help="fine partitions per coarse partition",
    )
    serve.add_argument(
        "--coarse-partitions",
        type=int,
        default=24,
        help="coarse horizon in coarse partitions",
    )
    serve.add_argument(
        "--hot",
        action="append",
        default=[],
        metavar="METRIC",
        help="metric routed through ShardedSketch (repeatable)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=4,
        help="shard count for hot metrics",
    )
    serve.add_argument(
        "--queue-size",
        type=int,
        default=4096,
        help="bounded ingest queue (shed beyond this)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="ingest drain threads",
    )
    serve.add_argument(
        "--telemetry",
        choices=("on", "off"),
        default="on",
        help=(
            "observability instruments (repro.obs); 'off' swaps in "
            "no-op twins"
        ),
    )
    serve.add_argument(
        "--durability",
        choices=("on", "off"),
        default="off",
        help=(
            "journal every accepted ingest to a write-ahead log "
            "before acking and recover state on start (needs "
            "--data-dir)"
        ),
    )
    serve.add_argument(
        "--data-dir",
        metavar="DIR",
        default=None,
        help="directory for WAL segments and checkpoints",
    )
    serve.add_argument(
        "--flush-policy",
        choices=("always", "batch", "os"),
        default="batch",
        help=(
            "WAL fsync cadence: every record, batched (size/count "
            "thresholds), or left to the OS page cache"
        ),
    )
    serve.add_argument(
        "--checkpoint-interval-ms",
        type=float,
        default=60_000.0,
        help="cadence between automatic checkpoints (0 disables)",
    )
    return parser


def _run_serve(args: argparse.Namespace) -> int:
    # Imported lazily so `--help` stays instant.
    from repro.obs.export import to_canonical_json
    from repro.obs.telemetry import NOOP, Telemetry
    from repro.service.registry import (
        MetricRegistry,
        default_sketch_factory,
    )
    from repro.service.server import QuantileServer

    telemetry = Telemetry() if args.telemetry == "on" else NOOP
    durability = None
    if args.durability == "on":
        from repro.durability import DurabilityManager, FlushPolicy

        if not args.data_dir:
            print(
                "[repro-service] --durability on requires --data-dir",
                file=sys.stderr,
            )
            return 2
        durability = DurabilityManager(
            args.data_dir,
            flush_policy=FlushPolicy(mode=args.flush_policy),
            checkpoint_interval_ms=args.checkpoint_interval_ms,
            telemetry=telemetry,
        )
    registry = MetricRegistry(
        sketch_factory=default_sketch_factory(args.sketch, seed=args.seed),
        partition_ms=args.partition_ms,
        fine_partitions=args.fine_partitions,
        coarse_factor=args.coarse_factor,
        coarse_partitions=args.coarse_partitions,
        hot_metrics=args.hot,
        n_shards=args.shards,
        telemetry=telemetry,
    )
    server = QuantileServer(
        registry=registry,
        host=args.host,
        port=args.port,
        ingest_queue_size=args.queue_size,
        ingest_workers=args.workers,
        telemetry=telemetry,
        durability=durability,
    )
    with server:
        host, port = server.address
        print(
            f"[repro-service] serving {args.sketch} partitions on "
            f"{host}:{port} (queue={args.queue_size}, "
            f"workers={args.workers}, telemetry={args.telemetry}, "
            f"durability={args.durability}); Ctrl-C to stop",
            flush=True,
        )
        if durability is not None and durability.last_recovery:
            print(
                f"[repro-service] recovered "
                f"{durability.last_recovery.as_dict()}",
                flush=True,
            )
        try:
            while True:
                # Idle heartbeat between flush barriers.
                server.flush()
                time.sleep(1.0)
        except KeyboardInterrupt:
            print("[repro-service] shutting down")
    if telemetry.enabled:
        # Final snapshot for `python -m repro.obs dump` post-mortems.
        print(to_canonical_json(telemetry.snapshot()))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    return _run_serve(_build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
