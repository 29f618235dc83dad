"""Fine-tier replication: tail every origin's WAL, pull-based.

Each node runs one :class:`ReplicationRunner`.  On every due tick it
asks each alive peer for that peer's WAL records after the local
cursor (``repl_pull``), applies them in sequence order and advances
the cursor to the response's explicit ``upto`` — the acked-prefix
contract: a cursor of *W* means every origin record ``<= W`` relevant
to this node has been applied.

Pull, not push, for three reasons: the failure mode is trivial (an
unreachable peer is skipped and retried next tick — no session state
to rebuild), flow control is implicit (a slow node pulls slowly), and
the cursor lives where it matters, at the applier.  The cost — a
leader does not know its followers' lag — is covered by the
supervisor, which reads every node's frontier via ``node_info`` and
exports the lag gauges.

When a pull answers ``snapshot_needed`` (checkpoint truncation beat
the cursor), the runner falls through to the anti-entropy primitive
against the origin itself: digest diff, fetch, adopt — after which the
cursor jumps to the origin's watermark and tailing resumes.  No lock
is held across any of these network calls.
"""

from __future__ import annotations

from repro.cluster.antientropy import reconcile_with_peer
from repro.cluster.node import ClusterNode
from repro.cluster.transport import ClusterTransport
from repro.errors import ServiceError, ServiceUnavailableError

#: Cadence on the node's injected clock; a tick before it elapses is a
#: no-op, so callers may tick as often as they like.
INTERVAL_MS = 200.0
#: Per-pull record cap (one pull may need several ticks to catch up a
#: long suffix: bounded work per tick, no unbounded frame).
MAX_RECORDS = 512


class ReplicationRunner:
    """Tick-driven WAL tailing for one node.

    Parameters
    ----------
    node / transport:
        The owning node and its fault-injected transport.
    """

    def __init__(
        self, node: ClusterNode, transport: ClusterTransport
    ) -> None:
        self.node = node
        self.transport = transport
        self._next_due: float | None = None

    def _sync_addresses(self) -> None:
        view = self.node.current_view()
        for node_id, status in view.nodes.items():
            self.transport.set_address(node_id, *status.address)

    def tick(self) -> int:
        """Run one replication round if due; returns records applied."""
        now = self.node._cluster_clock.now_ms()
        if self._next_due is not None and now < self._next_due:
            return 0
        self._next_due = now + INTERVAL_MS
        self._sync_addresses()
        view = self.node.current_view()
        applied = 0
        for origin in view.alive_nodes():
            if origin == self.node.node_id:
                continue
            applied += self.pull_from(origin)
        return applied

    def pull_from(self, origin: str) -> int:
        """Pull and apply one batch from *origin*; 0 on any failure."""
        cursor = self.node.applied_watermark(origin)
        try:
            response = self.transport.request(
                origin,
                {
                    "op": "repl_pull",
                    "after": cursor,
                    "peer": self.node.node_id,
                    "max_records": MAX_RECORDS,
                },
            )
        except (ServiceUnavailableError, ServiceError):
            self.node.telemetry.counter(
                "cluster.repl_pull_failures"
            ).inc()
            return 0
        if response.get("snapshot_needed"):
            # The origin truncated past our cursor: adopt state.
            try:
                reconcile_with_peer(
                    self.node, self.transport, origin, only_origin=origin
                )
            except (ServiceUnavailableError, ServiceError):
                self.node.telemetry.counter(
                    "cluster.repl_pull_failures"
                ).inc()
            return 0
        return self.node.apply_replicated(
            origin, response.get("records", []), int(response["upto"])
        )
