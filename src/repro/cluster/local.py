"""`LocalCluster`: N nodes + supervisor + proxy in one process.

Everything the fault suite, benchmark, CI smoke job and CLI demo need
to stand up a cluster: nodes on ephemeral loopback ports talking real
TCP through the shared fault injector, a supervisor heartbeating them,
and a routing proxy clients connect to.  All periodic work is
**tick-driven** on one injected clock — under a
:class:`~repro.service.clock.ManualClock` an entire
crash/partition/heal/converge scenario runs deterministically and
sleep-free; under a :class:`~repro.service.clock.SystemClock` the CLI
drives the same ticks from a background loop.

Crash semantics: :meth:`crash` is the in-process SIGKILL — the node
stops serving with no final checkpoint and its in-memory replica state
is abandoned; :meth:`restart` builds a fresh node over the same data
directory (WAL recovery), re-registers its new ephemeral port, and the
supervisor resurrects it on the next successful heartbeat.

Convergence: :meth:`convergence_report` compares, byte for byte, every
replica's snapshot of every ``(origin, tenant)`` store across the
nodes that should hold it — the acceptance check the fault suite pins
after each scenario.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from typing import Any

from repro.cluster.antientropy import AntiEntropyRunner
from repro.cluster.netfault import NetworkFaultInjector
from repro.cluster.node import ClusterNode
from repro.cluster.proxy import RoutingProxy
from repro.cluster.replication import ReplicationRunner
from repro.cluster.ring import HashRing
from repro.cluster.supervisor import ClusterSupervisor
from repro.cluster.transport import ClusterTransport
from repro.errors import InvalidValueError
from repro.obs.telemetry import Telemetry
from repro.service.client import QuantileClient
from repro.service.clock import Clock, ManualClock
from repro.service.registry import MetricKey


class LocalCluster:
    """In-process cluster harness.

    Parameters
    ----------
    n_nodes:
        Cluster size; node ids are ``n0 .. n{N-1}``.
    base_dir:
        Root for per-node durability directories; a temp dir (removed
        on :meth:`stop`) when omitted.
    clock:
        Shared clock for every component; defaults to a
        :class:`~repro.service.clock.ManualClock` so tests tick.
    fault:
        Shared :class:`~repro.cluster.netfault.NetworkFaultInjector`;
        a quiet one (no faults) when omitted.
    replication_factor:
        Passed to every node and the proxy identically.
    """

    def __init__(
        self,
        n_nodes: int = 3,
        base_dir: str | Path | None = None,
        clock: Clock | None = None,
        fault: NetworkFaultInjector | None = None,
        seed: int = 2023,
        replication_factor: int | None = None,
        prefer_followers: bool = False,
        proxy_port: int = 0,
        telemetry: Telemetry | None = None,
    ) -> None:
        if n_nodes < 1:
            raise InvalidValueError(
                f"n_nodes must be >= 1, got {n_nodes!r}"
            )
        self.clock = clock if clock is not None else ManualClock(1_000_000.0)
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.fault = fault if fault is not None else NetworkFaultInjector(seed)
        self._owns_base_dir = base_dir is None
        self.base_dir = Path(
            tempfile.mkdtemp(prefix="repro-cluster-")
            if base_dir is None
            else base_dir
        )
        self.node_ids = [f"n{index}" for index in range(int(n_nodes))]
        self.ring = HashRing(self.node_ids)
        self.replication_factor = replication_factor
        self.nodes: dict[str, ClusterNode] = {}
        self._repl: dict[str, ReplicationRunner] = {}
        self._ae: dict[str, AntiEntropyRunner] = {}
        self._crashed: set[str] = set()
        for node_id in self.node_ids:
            self._build_node(node_id)
        self.supervisor = ClusterSupervisor(
            ClusterTransport(
                "supervisor",
                clock=self.clock,
                fault=self.fault,
                telemetry=self.telemetry,
            ),
            clock=self.clock,
            telemetry=self.telemetry,
        )
        self.proxy = RoutingProxy(
            self.ring,
            ClusterTransport(
                "proxy",
                clock=self.clock,
                fault=self.fault,
                telemetry=self.telemetry,
            ),
            clock=self.clock,
            replication_factor=replication_factor,
            prefer_followers=prefer_followers,
            port=int(proxy_port),
            telemetry=self.telemetry,
        )
        self.supervisor.add_listener(self.proxy.apply_view)

    def _build_node(self, node_id: str) -> ClusterNode:
        node = ClusterNode(
            node_id,
            self.ring,
            self.base_dir / node_id,
            clock=self.clock,
            replication_factor=self.replication_factor,
            telemetry=self.telemetry,
        )
        self.nodes[node_id] = node
        transport = ClusterTransport(
            node_id,
            clock=self.clock,
            fault=self.fault,
            telemetry=self.telemetry,
        )
        self._repl[node_id] = ReplicationRunner(node, transport)
        self._ae[node_id] = AntiEntropyRunner(node, transport)
        return node

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "LocalCluster":
        for node_id in self.node_ids:
            if node_id not in self._crashed:
                self.nodes[node_id].start()
                host, port = self.nodes[node_id].address
                self.supervisor.register(node_id, host, port)
        self.supervisor.heartbeat()
        self.proxy.start()
        return self

    def stop(self) -> None:
        if self.proxy.running:
            self.proxy.stop()
        for node_id, node in self.nodes.items():
            if node_id not in self._crashed:
                node.stop()
        if self._owns_base_dir:
            shutil.rmtree(self.base_dir, ignore_errors=True)

    def __enter__(self) -> "LocalCluster":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def tick(self, advance_ms: float = 0.0) -> None:
        """Advance the clock (manual clocks only) and run all loops."""
        if advance_ms:
            if not isinstance(self.clock, ManualClock):
                raise InvalidValueError(
                    "advance_ms requires a ManualClock-driven cluster"
                )
            self.clock.advance(advance_ms)
        self.supervisor.tick()
        for node_id in self.node_ids:
            if node_id in self._crashed:
                continue
            self._repl[node_id].tick()
            self._ae[node_id].tick()

    def run_for(self, total_ms: float, step_ms: float = 100.0) -> None:
        """Tick repeatedly until *total_ms* of clock time has passed."""
        if step_ms <= 0:
            raise InvalidValueError(
                f"step_ms must be > 0, got {step_ms!r}"
            )
        elapsed = 0.0
        while elapsed < total_ms:
            self.tick(advance_ms=min(step_ms, total_ms - elapsed))
            elapsed += step_ms

    # ------------------------------------------------------------------
    # Fault operations
    # ------------------------------------------------------------------

    def crash(self, node_id: str) -> None:
        """In-process SIGKILL: stop serving, no checkpoint, no goodbye."""
        node = self.nodes[node_id]
        if node_id in self._crashed:
            raise InvalidValueError(f"{node_id!r} is already down")
        node.kill()
        self._crashed.add(node_id)

    def restart(self, node_id: str) -> ClusterNode:
        """Recover a crashed node from its WAL on a fresh port."""
        if node_id not in self._crashed:
            raise InvalidValueError(
                f"{node_id!r} is not down; crash it first"
            )
        node = self._build_node(node_id)
        node.start()
        self._crashed.discard(node_id)
        host, port = node.address
        self.supervisor.register(node_id, host, port)
        return node

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def node(self, node_id: str) -> ClusterNode:
        return self.nodes[node_id]

    def running_nodes(self) -> list[str]:
        return [
            node_id
            for node_id in self.node_ids
            if node_id not in self._crashed
        ]

    def client(self, **kwargs: Any) -> QuantileClient:
        """A client dialed at the routing proxy."""
        host, port = self.proxy.address
        kwargs.setdefault("clock", self.clock)
        return QuantileClient(host, port, **kwargs)

    def leader_of(
        self, metric: str, tags: dict[str, str] | None = None
    ) -> str | None:
        key = str(MetricKey.of(metric, tags))
        view = self.supervisor.view
        if view.nodes:
            return view.leader(self.ring, key, self.replication_factor)
        return self.ring.primary(key)

    # ------------------------------------------------------------------
    # Convergence
    # ------------------------------------------------------------------

    def convergence_report(self) -> dict[str, Any]:
        """Byte-level replica comparison across running nodes.

        For every ``(origin, tenant)`` store any running node holds,
        every *running* replica that should hold it (the tenant's
        owner set) must report identical snapshot bytes.  Returns
        ``{"converged": bool, "mismatches": [...], "stores": int}``.
        """
        states = {
            node_id: self.nodes[node_id].export_state()
            for node_id in self.running_nodes()
        }
        expected: dict[tuple[str, str], dict[str, bytes]] = {}
        for node_id, origins in states.items():
            for origin, stores in origins.items():
                for tenant, blob in stores.items():
                    expected.setdefault((origin, tenant), {})[
                        node_id
                    ] = blob
        mismatches: list[dict[str, Any]] = []
        for (origin, tenant), holders in sorted(expected.items()):
            owners = [
                owner
                for owner in self.ring.owners(
                    tenant, self.replication_factor
                )
                if owner in states
            ]
            blobs = {
                owner: holders.get(owner) for owner in owners
            }
            distinct = {
                blob for blob in blobs.values() if blob is not None
            }
            missing = [
                owner for owner, blob in blobs.items() if blob is None
            ]
            if len(distinct) > 1 or missing:
                mismatches.append(
                    {
                        "origin": origin,
                        "tenant": tenant,
                        "missing": missing,
                        "distinct_states": len(distinct),
                    }
                )
        return {
            "converged": not mismatches,
            "mismatches": mismatches,
            "stores": len(expected),
        }

    def converged(self) -> bool:
        return bool(self.convergence_report()["converged"])
