"""Routing proxy: one address, N nodes, leader-aware forwarding.

The proxy answers through its own
:class:`~repro.service.frontend.TCPFrontEnd` — same wire protocol as
a node, so every existing client works against a cluster unchanged.
Each op's route is its row in :data:`repro.service.ops.OPS`; per
request the proxy consults the latest supervisor view and the shared
hash ring:

* **leader** ops (ingest) go to the tenant key's leader (first alive
  owner).  Routing races view propagation by design; a ``not_leader``
  answer carries the responder's belief and the proxy follows the
  redirect once before giving up — bounded chasing, no loops.
* **replica** ops (keyed reads) prefer the leader but may fall to a
  follower inside the key's replica set when the follower is
  *fresh*: its applied frontier, as of the last heartbeat, trails no
  alive origin by more than ``MAX_LAG_RECORDS``, and the view itself
  is younger than ``STALENESS_MS``.  That pair is the staleness bound:
  every follower read is backed by evidence at most ``STALENESS_MS``
  old that the follower was at most ``MAX_LAG_RECORDS`` behind.
* **all** ops go to every alive node; the row's ``combine`` folds
  the answers into one.

The proxy holds no sketch state and takes no locks across network
calls — the view is snapshotted under a mutex, then sockets happen.
"""

from __future__ import annotations

import functools
import threading
from typing import Any

from repro.cluster.membership import EMPTY_VIEW, MembershipView
from repro.cluster.ring import HashRing
from repro.cluster.transport import ClusterTransport
from repro.errors import ServiceError
from repro.obs.telemetry import NOOP, Telemetry
from repro.service import ops, protocol
from repro.service.clock import Clock, SystemClock
from repro.service.frontend import TCPFrontEnd

#: Maximum age of the membership view that may justify a follower
#: read; an older view forces leader-only routing.
STALENESS_MS = 5_000.0
#: Maximum per-origin replication lag (in WAL records, as of the last
#: heartbeat) a follower may carry and still serve reads: ``0``
#: demands fully caught-up followers.
MAX_LAG_RECORDS = 0


class RoutingProxy:
    """Cluster-aware request router behind the standard TCP front end.

    Parameters
    ----------
    ring / replication_factor:
        The shared key-ownership map (must match the nodes').
    transport:
        Fault-injected channel to the nodes.
    prefer_followers:
        Route reads to eligible followers before the leader — spreads
        query load across replicas (the deterministic choice is the
        first eligible follower in failover order).
    """

    def __init__(
        self,
        ring: HashRing,
        transport: ClusterTransport,
        clock: Clock | None = None,
        replication_factor: int | None = None,
        prefer_followers: bool = False,
        host: str = "127.0.0.1",
        port: int = 0,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.ring = ring
        self.transport = transport
        self._clock = clock if clock is not None else SystemClock()
        self.replication_factor = replication_factor
        self.prefer_followers = bool(prefer_followers)
        self.telemetry = telemetry if telemetry is not None else NOOP
        self._front = TCPFrontEnd(host, port)
        self._lock = threading.Lock()
        self._view: MembershipView = EMPTY_VIEW
        self._view_at_ms: float | None = None
        keyed = {ops.LEADER: self._route_ingest, ops.REPLICA: self._route_read}
        self._handlers = ops.handlers(self)  # the local ops
        for name, op in ops.OPS.items():
            if op.route in keyed:
                self._handlers[name] = keyed[op.route]
            elif op.route == ops.ALL:
                self._handlers[name] = functools.partial(
                    self._fan_out, name, op.combine
                )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "RoutingProxy":
        self._front.start(self.dispatch, thread_name="cluster-proxy-accept")
        return self

    def stop(self) -> None:
        self._front.stop()

    @property
    def running(self) -> bool:
        return self._front.running

    @property
    def address(self) -> tuple[str, int]:
        return self._front.address

    def __enter__(self) -> "RoutingProxy":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # View intake
    # ------------------------------------------------------------------

    def apply_view(self, view: MembershipView) -> int:
        """Adopt *view* if at least as new; returns the held epoch."""
        with self._lock:
            held = self._view.adopt(view)
            if held is view:
                self._view, self._view_at_ms = view, self._clock.now_ms()
            epoch = held.epoch
        for node_id, status in view.nodes.items():
            self.transport.set_address(node_id, *status.address)
        return epoch

    def _view_snapshot(self) -> tuple[MembershipView, float | None]:
        with self._lock:
            return self._view, self._view_at_ms

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        try:
            handler = self._handlers[request["op"]]
        except (KeyError, TypeError):  # absent, unhashable or node-only
            return protocol.error(
                "unknown_op", f"proxy cannot route op {request.get('op')!r}"
            )
        try:
            return handler(request)
        except ops.ANSWERED as exc:
            return ops.answer(exc)

    def _op_ping(self, request: dict[str, Any]) -> dict[str, Any]:
        return protocol.ok(pong=True)

    def _op_node_info(self, request: dict[str, Any]) -> dict[str, Any]:
        return protocol.ok(
            node_id="proxy", role="proxy", wal_watermark=0, frontier={}
        )

    def _op_cluster_view(self, request: dict[str, Any]) -> dict[str, Any]:
        view = MembershipView.from_wire(ops.obj(request, "view"))
        return protocol.ok(epoch=self.apply_view(view))

    # ------------------------------------------------------------------
    # Routing policies
    # ------------------------------------------------------------------

    def _forward(
        self, node_id: str, request: dict[str, Any]
    ) -> dict[str, Any] | None:
        try:
            return self.transport.request(node_id, request, check=False)
        except ServiceError:  # unavailable included
            self.telemetry.counter("proxy.forward_failures").inc()
            return None

    def _route_ingest(self, request: dict[str, Any]) -> dict[str, Any]:
        key = ops.tenant_key(request)
        view, _ = self._view_snapshot()
        if view.nodes:
            leader = view.leader(self.ring, key, self.replication_factor)
        else:
            leader = self.ring.primary(key)
        if leader is None:
            return protocol.error(
                "unavailable",
                f"no alive replica for {key!r} (epoch {view.epoch})",
            )
        response = self._forward(leader, request)
        if (
            response is not None
            and not response.get("ok")
            and response.get("error") == "not_leader"
            and isinstance(response.get("leader"), str)
            and response["leader"] != leader
        ):
            # The node's view is newer than ours: follow the redirect
            # once (its belief names an address when it has one).
            hinted = response["leader"]
            hint_address = response.get("leader_address")
            if isinstance(hint_address, list) and len(hint_address) == 2:
                self.transport.set_address(
                    hinted, str(hint_address[0]), int(hint_address[1])
                )
            self.telemetry.counter("proxy.leader_redirects").inc()
            response = self._forward(hinted, request)
        if response is None:
            return protocol.error(
                "unavailable",
                f"leader {leader!r} for {key!r} is unreachable",
            )
        return response

    def _fresh_followers(
        self, key: str, view: MembershipView, view_at: float | None
    ) -> list[str]:
        """Followers of *key* eligible under the staleness bound."""
        if view_at is None:
            return []
        if self._clock.now_ms() - view_at > STALENESS_MS:
            self.telemetry.counter("proxy.stale_view_reads").inc()
            return []
        owners = self.ring.owners(key, self.replication_factor)
        alive = {
            owner: view.nodes[owner]
            for owner in owners
            if view.is_alive(owner)
        }
        return [
            follower
            for follower in owners[1:]
            if follower in alive
            and all(
                status.wal_watermark
                - int(alive[follower].frontier.get(origin, 0))
                <= MAX_LAG_RECORDS
                for origin, status in alive.items()
                if origin != follower
            )
        ]

    def _route_read(self, request: dict[str, Any]) -> dict[str, Any]:
        key = ops.tenant_key(request)
        view, view_at = self._view_snapshot()
        if not view.nodes:
            candidates = [self.ring.primary(key)]
        else:
            leader = view.leader(self.ring, key, self.replication_factor)
            leaders = [] if leader is None else [leader]
            followers = [
                follower
                for follower in self._fresh_followers(key, view, view_at)
                if follower != leader
            ]
            candidates = (
                followers + leaders
                if self.prefer_followers
                else leaders + followers
            )
        for target in candidates:
            response = self._forward(target, request)
            if response is not None:
                if target != candidates[0]:
                    self.telemetry.counter(
                        "proxy.follower_reads"
                    ).inc()
                return response
        return protocol.error(
            "unavailable",
            f"no reachable replica for {key!r} within the staleness "
            f"bound",
        )

    # ------------------------------------------------------------------
    # Fan-out ops
    # ------------------------------------------------------------------

    def _fan_out(
        self, name: str, combine: ops.Combine, request: dict[str, Any]
    ) -> dict[str, Any]:
        view, _ = self._view_snapshot()
        targets = view.alive_nodes()
        if not targets:
            return protocol.error(
                "unavailable", "no alive nodes in the current view"
            )
        responses: list[dict[str, Any]] = []
        for target in targets:
            response = self._forward(target, request)
            if response is not None and response.get("ok"):
                responses.append(response)
        if not responses:
            return protocol.error(
                "unavailable",
                f"op {name!r} failed on every alive node",
            )
        return combine(responses)
