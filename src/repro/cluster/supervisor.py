"""Cluster supervisor: heartbeats, failure verdicts, view distribution.

The supervisor is the cluster's failure detector and view authority —
deliberately a single component (the paper-reproduction analogue of a
control plane; consensus-grade membership is out of scope and the
tests never need it).  On each due tick it:

1. polls every registered node's ``node_info`` through the
   fault-injected transport — the *same op* health checks, frontier
   exchange and humans use, so a node the supervisor can see is a node
   replication can use;
2. marks nodes dead when they have not answered within
   ``FAILURE_TIMEOUT_MS`` on the injected clock (tests drive this with
   a :class:`~repro.service.clock.ManualClock` and never sleep);
3. publishes an epoch-numbered :class:`MembershipView` to every alive
   node (``cluster_view`` op) and to in-process listeners (the routing
   proxy), keeping leadership derivable everywhere from one artifact;
4. exports per-(node, origin) replication lag gauges —
   ``cluster.repl_lag.<node>.<origin>`` — computed as the origin's
   durable watermark minus the node's applied frontier entry, the
   number a dashboard alarms on before followers serve stale reads.

Verdict flips are intentionally asymmetric: death needs a quiet
timeout, resurrection needs exactly one successful poll.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.cluster.membership import MembershipView, NodeStatus
from repro.cluster.transport import ClusterTransport
from repro.errors import ServiceError, ServiceUnavailableError
from repro.obs.telemetry import NOOP, Telemetry
from repro.service.clock import Clock, SystemClock

#: Heartbeat cadence on the injected clock; a tick before it elapses
#: is a no-op.
HEARTBEAT_INTERVAL_MS = 500.0
#: A node unheard-from for longer than this is marked dead.
FAILURE_TIMEOUT_MS = 1_500.0


class ClusterSupervisor:
    """Heartbeat-driven membership authority for one cluster."""

    def __init__(
        self,
        transport: ClusterTransport,
        clock: Clock | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.transport = transport
        self._clock = clock if clock is not None else SystemClock()
        self.telemetry = telemetry if telemetry is not None else NOOP
        # Guards registration and the published view; never held
        # across a network call (node lists are copied out first).
        self._lock = threading.Lock()
        self._addresses: dict[str, tuple[str, int]] = {}
        self._last_ok: dict[str, float] = {}
        self._info: dict[str, dict[str, object]] = {}
        self._epoch = 0
        self._view = MembershipView(epoch=0, nodes={})
        self._next_due: float | None = None
        self._listeners: list[Callable[[MembershipView], None]] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, node_id: str, host: str, port: int) -> None:
        """Add or re-address a node (restarts re-register the new
        ephemeral port)."""
        node_id = str(node_id)
        with self._lock:
            self._addresses[node_id] = (str(host), int(port))
        self.transport.set_address(node_id, host, port)

    def add_listener(
        self, listener: Callable[[MembershipView], None]
    ) -> None:
        """In-process view subscriber (the routing proxy)."""
        with self._lock:
            self._listeners.append(listener)

    @property
    def view(self) -> MembershipView:
        with self._lock:
            return self._view

    # ------------------------------------------------------------------
    # Heartbeat loop
    # ------------------------------------------------------------------

    def tick(self) -> MembershipView | None:
        """Heartbeat if due; returns the new view when one was built."""
        now = self._clock.now_ms()
        with self._lock:
            if self._next_due is not None and now < self._next_due:
                return None
            self._next_due = now + HEARTBEAT_INTERVAL_MS
        return self.heartbeat(now)

    def heartbeat(self, now_ms: float | None = None) -> MembershipView:
        """Poll every node, publish and distribute a fresh view."""
        now = self._clock.now_ms() if now_ms is None else float(now_ms)
        with self._lock:
            targets = sorted(self._addresses.items())
        for node_id, _address in targets:
            try:
                info = self.transport.request(
                    node_id, {"op": "node_info"}
                )
            except (ServiceUnavailableError, ServiceError):
                self.telemetry.counter(
                    "cluster.heartbeat_failures"
                ).inc()
                continue
            with self._lock:
                self._last_ok[node_id] = now
                self._info[node_id] = {
                    "wal_watermark": int(info.get("wal_watermark", 0)),
                    "frontier": {
                        str(origin): int(seq)
                        for origin, seq in dict(
                            info.get("frontier", {})
                        ).items()
                    },
                }
        view = self._build_view(now)
        self._export_lag(view)
        self._distribute(view)
        return view

    def _build_view(self, now: float) -> MembershipView:
        with self._lock:
            nodes: dict[str, NodeStatus] = {}
            for node_id, address in self._addresses.items():
                last_ok = self._last_ok.get(node_id)
                alive = (
                    last_ok is not None
                    and now - last_ok <= FAILURE_TIMEOUT_MS
                )
                info = self._info.get(node_id, {})
                nodes[node_id] = NodeStatus(
                    node_id=node_id,
                    address=address,
                    alive=alive,
                    wal_watermark=int(info.get("wal_watermark", 0)),
                    frontier=dict(info.get("frontier", {})),  # type: ignore[arg-type]
                )
            self._epoch += 1
            view = MembershipView(epoch=self._epoch, nodes=nodes)
            self._view = view
        return view

    def _export_lag(self, view: MembershipView) -> None:
        """Per-(node, origin) replication lag, in WAL records."""
        for node_id, status in view.nodes.items():
            if not status.alive:
                continue
            for origin, applied in status.frontier.items():
                origin_status = view.nodes.get(origin)
                if origin_status is None or origin == node_id:
                    continue
                lag = max(0, origin_status.wal_watermark - applied)
                self.telemetry.gauge(
                    f"cluster.repl_lag.{node_id}.{origin}"
                ).set(lag)

    def _distribute(self, view: MembershipView) -> None:
        wire = view.as_wire()
        for node_id in view.alive_nodes():
            try:
                self.transport.request(
                    node_id,
                    {"op": "cluster_view", "view": wire},
                    check=False,
                )
            except (ServiceUnavailableError, ServiceError):
                self.telemetry.counter(
                    "cluster.view_push_failures"
                ).inc()
        with self._lock:
            listeners = list(self._listeners)
        for listener in listeners:
            listener(view)
