"""``python -m repro.cluster`` — boot a local cluster or run the demo.

Two modes:

* ``--demo`` (default): a fully deterministic, sleep-free walkthrough
  on a manual clock — ingest through the proxy, query, kill the
  leader, watch failover accept writes, restart, and verify the
  replicas converge byte-for-byte.  Finishes in well under a second;
  this is the README quickstart and the CI smoke path's CLI cousin.
* ``--serve``: a real cluster on the system clock, proxy bound to
  ``--port``, ticking in the foreground until interrupted.  Any
  :class:`~repro.service.client.QuantileClient` can connect.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any

from repro.cluster.local import LocalCluster
from repro.service.clock import ManualClock, SystemClock


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description=(
            "Replicated quantile-sketch cluster: N nodes, a "
            "supervisor, and a routing proxy in one process."
        ),
    )
    parser.add_argument(
        "--nodes", type=int, default=3, help="cluster size (default 3)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help="proxy port for --serve (default: ephemeral)",
    )
    parser.add_argument(
        "--replication-factor",
        type=int,
        default=None,
        help="replicas per tenant key (default: all nodes)",
    )
    parser.add_argument(
        "--seed", type=int, default=2023, help="fault/jitter seed"
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--demo",
        action="store_true",
        help="run the deterministic failover walkthrough (default)",
    )
    mode.add_argument(
        "--serve",
        action="store_true",
        help="serve a real cluster until interrupted",
    )
    return parser


def _demo(args: argparse.Namespace, out: Any) -> int:
    clock = ManualClock(1_000_000.0)
    with LocalCluster(
        n_nodes=args.nodes,
        clock=clock,
        seed=args.seed,
        replication_factor=args.replication_factor,
    ) as cluster:
        print(f"started {args.nodes} nodes behind proxy "
              f"{cluster.proxy.address[0]}:{cluster.proxy.address[1]}",
              file=out)
        with cluster.client() as client:
            for batch in range(5):
                client.ingest("demo.latency", range(100))
                cluster.tick(advance_ms=100.0)
            p50 = client.quantile("demo.latency", 0.5)
            print(f"ingested 500 values; p50 = {p50:.1f}", file=out)
        leader = cluster.leader_of("demo.latency")
        assert leader is not None
        print(f"killing leader {leader} ...", file=out)
        cluster.crash(leader)
        cluster.run_for(3_000.0, step_ms=250.0)
        with cluster.client() as client:
            client.ingest("demo.latency", [1_000.0] * 50)
            new_leader = cluster.leader_of("demo.latency")
            print(
                f"failover complete: {new_leader} accepted writes "
                f"while {leader} was down",
                file=out,
            )
        print(f"restarting {leader} ...", file=out)
        cluster.restart(leader)
        cluster.run_for(5_000.0, step_ms=250.0)
        report = cluster.convergence_report()
        print(
            f"convergence: {report['stores']} replicated stores, "
            f"converged={report['converged']}",
            file=out,
        )
        return 0 if report["converged"] else 1


def _serve(args: argparse.Namespace, out: Any) -> int:
    clock = SystemClock()
    cluster = LocalCluster(
        n_nodes=args.nodes,
        clock=clock,
        seed=args.seed,
        replication_factor=args.replication_factor,
        proxy_port=args.port,
    )
    cluster.start()
    host, port = cluster.proxy.address
    print(
        f"cluster up: {args.nodes} nodes, proxy at {host}:{port} "
        f"(Ctrl-C to stop)",
        file=out,
    )
    try:
        while True:
            cluster.tick()
            clock.sleep_ms(50.0)
    except KeyboardInterrupt:
        print("stopping ...", file=out)
    finally:
        cluster.stop()
    return 0


def main(argv: list[str] | None = None, out: Any = None) -> int:
    out = sys.stdout if out is None else out
    args = _build_parser().parse_args(argv)
    if args.serve:
        return _serve(args, out)
    return _demo(args, out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
