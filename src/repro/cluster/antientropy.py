"""Sealed-tier anti-entropy: gossip digests, adopt the difference.

WAL tailing keeps replicas current while origins are reachable and
their logs intact; anti-entropy is the repair plane for everything
else — healed partitions, checkpoint-truncated logs, replicas rebuilt
after a crash.  Each round:

1. **frontier exchange** — ask one peer (round-robin over the alive
   set, so rounds are deterministic under test) for its
   ``ae_frontier``: per origin, the applied watermark and per-tenant
   partition digest maps;
2. **diff** — for each origin where the peer's watermark is ahead,
   compare digests locally and keep only the symmetric difference of
   diverged ``(tenant, partition)`` entries (identical digests mean
   bit-identical partition bytes — nothing to ship);
3. **fetch + adopt** — ``ae_fetch`` the diverged partitions wholesale
   and install them with
   :meth:`~repro.service.store.TimePartitionedStore.adopt_partitions`,
   which also syncs counters and drops partitions the peer's retention
   already expired.

Adoption is watermark-directed, never merged: origin histories are
linear, so the replica with the higher applied watermark holds a
strict superset and the lower side *adopts* — merging would double
count.  Equal watermarks imply equal digests by the determinism
argument and are skipped entirely.
"""

from __future__ import annotations

from typing import Any

from repro.cluster.transport import ClusterTransport
from repro.errors import ServiceError, ServiceUnavailableError
from repro.service.registry import MetricKey

#: Gossip cadence on the node's injected clock; a tick before it
#: elapses is a no-op.
INTERVAL_MS = 1_000.0


def _diff_items(
    node: Any, origin: str, entries: list[dict[str, Any]]
) -> list[dict[str, Any]]:
    """Fetch list for *origin*: tenants whose local state diverges.

    A tenant is included when the local replica lacks it, any
    partition digest differs, the local side holds partitions the peer
    expired, or the counter state differs (counters can drift without
    a digest changing — late drops and compaction markers mutate no
    partition).
    """
    items: list[dict[str, Any]] = []
    for entry in entries:
        metric = str(entry["metric"])
        tags = entry.get("tags")
        key = str(MetricKey.of(metric, tags))
        if node.replication_factor is not None and not node.replicates(
            node.node_id, key
        ):
            continue
        theirs: dict[str, str] = dict(entry["digests"])
        mine = node.partition_digests_for(origin, metric, tags)
        if mine is None:
            diverged = sorted(theirs)
            extra = False
            counters_differ = True
        else:
            my_digests, my_counters = mine
            diverged = sorted(
                k for k, digest in theirs.items()
                if my_digests.get(k) != digest
            )
            extra = bool(set(my_digests) - set(theirs))
            counters_differ = dict(my_counters) != dict(
                entry["counters"]
            )
        if diverged or extra or counters_differ:
            items.append(
                {"metric": metric, "tags": tags, "keys": diverged}
            )
    return items


def reconcile_with_peer(
    node: Any,
    transport: ClusterTransport,
    peer: str,
    only_origin: str | None = None,
) -> int:
    """One full reconciliation against *peer*; returns partitions
    adopted.  Transport failures propagate — callers own the skip/retry
    policy.

    The cursor-advance rule: adopting from the origin itself, or from
    anyone under full replication, proves the local replica complete
    up to the peer's *frontier-time* watermark, so the replication
    cursor jumps there (the frontier-time value, not fetch-time — the
    peer may have moved between the two requests, and claiming the
    newer mark would silently skip that movement).
    """
    frontier = transport.request(peer, {"op": "ae_frontier"})
    watermarks: dict[str, Any] = dict(frontier["watermarks"])
    origins: dict[str, Any] = dict(frontier["origins"])
    adopted = 0
    for origin in sorted(watermarks):
        if origin == node.node_id:
            continue
        if only_origin is not None and origin != only_origin:
            continue
        peer_watermark = int(watermarks[origin])
        if peer_watermark <= node.applied_watermark(origin):
            continue
        items = _diff_items(node, origin, origins.get(origin, []))
        fetched: list[dict[str, Any]] = []
        if items:
            response = transport.request(
                peer,
                {"op": "ae_fetch", "origin": origin, "items": items},
            )
            fetched = list(response["items"])
        advance = peer == origin or node.replication_factor is None
        adopted += node.reconcile_origin(
            origin, peer_watermark, fetched, advance_cursor=advance
        )
    return adopted


class AntiEntropyRunner:
    """Tick-driven gossip rounds for one node."""

    def __init__(self, node: Any, transport: ClusterTransport) -> None:
        self.node = node
        self.transport = transport
        self._next_due: float | None = None
        self._round = 0

    def tick(self) -> int:
        """Run one gossip round if due; returns partitions adopted."""
        now = self.node._cluster_clock.now_ms()
        if self._next_due is not None and now < self._next_due:
            return 0
        self._next_due = now + INTERVAL_MS
        view = self.node.current_view()
        for node_id, status in view.nodes.items():
            self.transport.set_address(node_id, *status.address)
        peers = [
            node_id
            for node_id in view.alive_nodes()
            if node_id != self.node.node_id
        ]
        if not peers:
            return 0
        peer = peers[self._round % len(peers)]
        self._round += 1
        telemetry = self.node.telemetry
        telemetry.counter("cluster.ae_rounds").inc()
        with telemetry.span("cluster.ae_round"):
            try:
                return reconcile_with_peer(
                    self.node, self.transport, peer
                )
            except (ServiceUnavailableError, ServiceError):
                telemetry.counter("cluster.ae_round_failures").inc()
                return 0
