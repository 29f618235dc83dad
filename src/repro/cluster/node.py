"""`ClusterNode`: a quantile server that replicates.

Per-origin decomposition
------------------------
A node does not hold one registry — it holds one
:class:`~repro.service.registry.MetricRegistry` **per origin node**:
``_origins[X]`` is this node's replica of the records *originated*
(journaled) at node X, and ``_origins[self]`` is the base class's own
serving registry.  Records for a tenant key are only ever originated
at the key's current leader, so each origin's history is *linear*:
replicating is "apply X's WAL records in sequence order", never "merge
two sketches that might share events".  That is what makes replicas
converge to **bit-identical** store state — the same determinism
argument as WAL replay (PR 5), applied across the network.  Queries
merge the per-origin stores for the requested key at read time, which
is exactly the mergeability property the sketches were chosen for;
query ops, ``metrics`` and continuous queries share that lookup.

Ingest path
-----------
Cluster ingest is synchronous: leadership check, then the server's
journal step and :func:`~repro.service.registry.apply_ops` under the
ingest lock, then ack (the base class's drain worker is disabled: a
decoupled apply would let an ack race its own visibility).  The origin
WAL sequence *is* the replication log position, so "acked" means
"readable at watermark ``seq`` by every replica that catches up", and
a SIGKILLed leader recovers its acked suffix from its own WAL.

Two replication planes serve peers (the pull loops live in
:mod:`repro.cluster.replication` / :mod:`repro.cluster.antientropy`):
``repl_pull`` tails this node's WAL after a cursor, filtered to the
keys the peer replicates (``snapshot_needed`` once a checkpoint has
truncated the suffix); ``ae_frontier`` / ``ae_fetch`` exchange
per-partition digests and export partitions wholesale for adoption.

Lock hierarchy (DESIGN §13): ``_ingest_lock`` and ``_state_lock`` are
never nested; either may be followed by a registry lock then a store
lock.  No lock is ever held across a socket operation — all network
I/O happens in the runner tick threads between lock regions.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.cluster.membership import EMPTY_VIEW, MembershipView
from repro.cluster.ring import HashRing
from repro.core.base import QuantileSketch
from repro.durability import DurabilityManager, decode_record
from repro.errors import EmptySketchError, InvalidValueError
from repro.obs.telemetry import Telemetry
from repro.service import ops, protocol
from repro.service.clock import Clock, SystemClock
from repro.service.registry import (
    IngestOp,
    MetricKey,
    MetricRegistry,
    apply_ops,
)
from repro.service.server import QuantileServer


class _MergedReads:
    """Read-time union of one tenant key's per-origin stores.

    After a failover the key's history spans two origins (the old
    leader's replicated records plus the new leader's own), so queries
    merge the per-origin merged views.  Cached store views are never
    mutated: the first view is copied before absorbing the rest.
    """

    def __init__(self, stores: list[Any]) -> None:
        self._stores = stores

    def merged(
        self, t0: float | None, t1: float | None
    ) -> QuantileSketch:
        view: QuantileSketch | None = None
        empty: EmptySketchError | None = None
        for store in self._stores:
            try:
                source = store.merged(t0, t1)
            except EmptySketchError as exc:
                empty = exc
                continue
            if view is None:
                view = source.copy()
            else:
                view.merge(source)
        if view is None:
            raise empty if empty is not None else EmptySketchError(
                "no data in the requested range"
            )
        return view

    def count(
        self, t0: float | None = None, t1: float | None = None
    ) -> int:
        return sum(store.count(t0, t1) for store in self._stores)


class _OriginReads:
    """A node's read lookup: one key across every origin replica.

    A follower holds a key only under its leader's origin, and a
    failover spreads one key over two.  Origins merge in id order, so
    replicas holding equal bytes answer alike.
    """

    def __init__(
        self,
        origins: dict[str, MetricRegistry],
        lock: threading.Lock,
        clock: Clock,
    ) -> None:
        self._origins, self._lock, self.clock = origins, lock, clock

    def get(
        self, name: str, tags: Mapping[str, str] | None = None
    ) -> Any | None:
        with self._lock:
            found = [
                self._origins[origin].get(name, tags)
                for origin in sorted(self._origins)
            ]
        stores = [store for store in found if store is not None]
        if len(stores) > 1:
            return _MergedReads(stores)
        return stores[0] if stores else None

    def keys(self) -> list[MetricKey]:
        with self._lock:
            keys = {
                key
                for registry in self._origins.values()
                for key in registry.keys()
            }
        return sorted(keys, key=lambda key: (key.name, key.tags))


class ClusterNode(QuantileServer):
    """One replicated member of a quantile-service cluster.

    Parameters
    ----------
    node_id:
        Ring identity; must be a member of *ring*.
    ring:
        The shared :class:`~repro.cluster.ring.HashRing`.
    data_dir:
        This node's private durability directory (WAL + checkpoints).
    replication_factor:
        Replicas per tenant key; ``None`` replicates every key to
        every node (the convergence-test default).  With a smaller
        factor, gossip adoption no longer advances pull cursors for
        keys only this node replicates — see
        :meth:`reconcile_origin`.
    sketch_factory / partition_ms / fine_partitions / coarse_factor /
    coarse_partitions:
        Registry geometry, identical on every node (bit-identical
        convergence requires identical bucketing decisions).
    checkpoint_interval_ms:
        Own-WAL checkpoint cadence; ``0`` disables cadence (peers can
        then always catch up by tailing, never needing snapshots).
    fault:
        Crash-injection hook passed to the durability layer.
    """

    def __init__(
        self,
        node_id: str,
        ring: HashRing,
        data_dir: str | Path,
        clock: Clock | None = None,
        replication_factor: int | None = None,
        sketch_factory: Callable[[], QuantileSketch] | None = None,
        partition_ms: float = 1_000.0,
        fine_partitions: int = 60,
        coarse_factor: int = 8,
        coarse_partitions: int = 24,
        checkpoint_interval_ms: float = 0.0,
        host: str = "127.0.0.1",
        port: int = 0,
        telemetry: Telemetry | None = None,
        fault: Callable[[str], None] | None = None,
    ) -> None:
        if node_id not in ring:
            raise InvalidValueError(
                f"node {node_id!r} is not a member of the ring "
                f"{ring.nodes}"
            )
        if replication_factor is not None and not (
            1 <= replication_factor <= len(ring)
        ):
            raise InvalidValueError(
                f"replication_factor must be within [1, {len(ring)}], "
                f"got {replication_factor!r}"
            )
        clock = clock if clock is not None else SystemClock()
        telemetry = telemetry if telemetry is not None else Telemetry()
        self.ring = ring
        self.replication_factor = (
            None if replication_factor is None else int(replication_factor)
        )
        self._cluster_clock = clock
        self._sketch_factory = sketch_factory
        self._geometry = {
            "partition_ms": float(partition_ms),
            "fine_partitions": int(fine_partitions),
            "coarse_factor": int(coarse_factor),
            "coarse_partitions": int(coarse_partitions),
        }
        registry = MetricRegistry(
            sketch_factory,
            clock=clock,
            telemetry=telemetry,
            **self._geometry,
        )
        # Guards the origin map, applied watermarks and installed view.
        # Ordered before registry/store locks, never nested with the
        # ingest lock, never held across network I/O.
        self._state_lock = threading.Lock()
        self._origins: dict[str, MetricRegistry] = {node_id: registry}
        self._applied: dict[str, int] = {}
        self._view: MembershipView = EMPTY_VIEW
        durability = DurabilityManager(
            data_dir,
            clock=clock,
            checkpoint_interval_ms=checkpoint_interval_ms,
            telemetry=telemetry,
            fault=fault,
        )
        super().__init__(
            registry=registry,
            host=host,
            port=port,
            clock=clock,
            telemetry=telemetry,
            durability=durability,
            node_id=node_id,
        )

    # ------------------------------------------------------------------
    # Lifecycle hooks
    # ------------------------------------------------------------------

    def _read_view(self) -> _OriginReads:
        return _OriginReads(
            self._origins, self._state_lock, self._cluster_clock
        )

    def _spawn_worker_locked(self) -> None:
        """Cluster ingest applies synchronously: no drain worker."""

    def kill(self) -> None:
        """Crash simulation: stop serving with *no* clean shutdown.

        Unlike :meth:`stop`, no final checkpoint is written and peer
        replica state is simply abandoned — the closest an in-process
        node gets to SIGKILL.  The fault suite pairs this with
        durability-layer crash injection for torn-write coverage.
        """
        with self._lifecycle_lock:
            if self._front.running:
                self._front.stop()
            self._stopping.set()
        if self.durability is not None:
            self.durability.wal.close()

    # ------------------------------------------------------------------
    # Identity / frontier hooks (node_info)
    # ------------------------------------------------------------------

    def role(self) -> str:
        """``leader`` while the cluster believes this node alive.

        Leadership is per tenant key, but the installed view gives a
        truthful summary: a node its own view marks dead (it is on the
        wrong side of a partition and has seen the verdict) has ceded
        every key it primaries, so it reports ``follower``.
        """
        with self._state_lock:
            view = self._view
        return "leader" if view.presumed_alive(self.node_id) else "follower"

    def partition_frontier(self) -> dict[str, int]:
        frontier = {self.node_id: self.wal_watermark()}
        with self._state_lock:
            frontier.update(self._applied)
        return frontier

    # ------------------------------------------------------------------
    # Views and leadership
    # ------------------------------------------------------------------

    def current_view(self) -> MembershipView:
        with self._state_lock:
            return self._view

    def install_view(self, view: MembershipView) -> int:
        """Adopt *view* if it is at least as new; returns held epoch."""
        with self._state_lock:
            self._view = self._view.adopt(view)
            return self._view.epoch

    def leader_for(self, key: str) -> str | None:
        """Current leader of tenant *key*: first presumed-alive owner."""
        view = self.current_view()
        for owner in self.ring.owners(key, self.replication_factor):
            if view.presumed_alive(owner):
                return owner
        return None

    def replicates(self, node_id: str, key: str) -> bool:
        """Whether *node_id* is in *key*'s replica set."""
        return self.ring.is_owner(key, node_id, self.replication_factor)

    # ------------------------------------------------------------------
    # Ingest (synchronous, leader-checked)
    # ------------------------------------------------------------------

    def _admit(self, op: IngestOp) -> dict[str, Any]:
        """Leader check, then journal and apply before the ack."""
        key = str(MetricKey.of(op.metric, op.tags))
        leader = self.leader_for(key)
        if leader != self.node_id:
            view = self.current_view()
            address = None if leader is None else view.address(leader)
            return protocol.error(
                "not_leader",
                f"{self.node_id} does not lead {key!r}; "
                f"current leader: {leader}",
                leader=leader,
                leader_address=None if address is None else list(address),
            )
        assert self.durability is not None  # constructed internally
        with self._ingest_lock:
            journaled = self._journal_op(op)
            if isinstance(journaled, dict):
                return journaled
            seq = self.wal_watermark()
            accepted, rejected = apply_ops(self.registry, (journaled,))
        if rejected:
            # Journaled but rejected: replay and replication reject it
            # identically, so replicas stay in lockstep.
            self.stats.incr("error_responses")
            return protocol.error(
                "bad_request", f"rejected at apply: WAL record {seq}"
            )
        self.stats.incr("ingested_values", accepted)
        return protocol.ok(accepted=accepted, seq=seq)

    # ------------------------------------------------------------------
    # Replication plane: serve own WAL
    # ------------------------------------------------------------------

    def _op_repl_pull(self, request: dict[str, Any]) -> dict[str, Any]:
        """Tail this node's WAL after the peer's cursor.

        Responses carry an explicit ``upto``: the cursor the puller may
        advance to after applying, even when key filtering (or the
        record cap) returned fewer records than the scan covered —
        acked-prefix semantics without requiring contiguous delivery.
        """
        assert self.durability is not None
        after = ops.integer(request, "after", 0)
        peer = ops.string(request, "peer", optional=True)
        limit = ops.integer(request, "max_records", 512)
        if after < 0 or limit < 1:
            raise InvalidValueError(
                f"need after >= 0 and max_records >= 1, got "
                f"after={after!r} max_records={limit!r}"
            )
        if not self.durability.wal.is_open:
            # A killed node drains its last in-flight requests with an
            # explicit refusal instead of a handler crash.
            return protocol.error(
                "unavailable", f"{self.node_id} WAL is closed"
            )
        if after < self.durability.last_checkpoint_seq:
            # Checkpoint truncation dropped that suffix; the peer must
            # adopt partition state instead of tailing.
            return protocol.ok(
                snapshot_needed=True, upto=self.wal_watermark(), records=[]
            )
        records, upto = self.durability.wal.tail(after, max_records=limit)
        out: list[list[Any]] = []
        for seq, payload in records:
            op = decode_record(payload, seq)
            if peer and self.replication_factor is not None:
                key = str(MetricKey.of(op.metric, op.tags))
                if not self.replicates(peer, key):
                    continue
            # Many records nest in one JSON response: this is the one
            # boundary where a batch goes back to a list.
            wire = op._asdict()
            wire["values"] = op.values.tolist()
            out.append([seq, wire])
        return protocol.ok(records=out, upto=upto, snapshot_needed=False)

    def applied_watermark(self, origin: str) -> int:
        """Newest origin sequence whose effects this node has applied."""
        with self._state_lock:
            return self._watermark_locked(origin)

    def _watermark_locked(self, origin: str) -> int:
        if origin == self.node_id:
            return self.wal_watermark()
        return self._applied.get(origin, 0)

    def _origin_registry_locked(self, origin: str) -> MetricRegistry:
        registry = self._origins.get(origin)
        if registry is None:
            registry = MetricRegistry(
                self._sketch_factory,
                clock=self._cluster_clock,
                telemetry=self.telemetry,
                **self._geometry,
            )
            self._origins[origin] = registry
        return registry

    def apply_replicated(
        self,
        origin: str,
        records: list[list[Any]],
        upto: int,
    ) -> int:
        """Apply a pulled ``(records, upto)`` batch for *origin*.

        Records at or below the current cursor are skipped (duplicate
        delivery is harmless), each applied record pins the journal
        time reading exactly like WAL replay, and the cursor advances
        to ``upto`` afterwards.  Returns records applied.
        """
        if origin == self.node_id:
            raise InvalidValueError(
                "a node does not replicate from itself"
            )
        with self._state_lock:
            registry = self._origin_registry_locked(origin)
            watermark = self._applied.get(origin, 0)
            fresh = []
            for entry in records:
                seq = int(entry[0])
                if seq > watermark:
                    fresh.append(IngestOp(**entry[1]))
                    watermark = seq
            # A batch the origin rejected is rejected here too (see
            # _op_ingest).
            _, rejected = apply_ops(registry, fresh)
            applied = len(fresh)
            self._applied[origin] = max(watermark, int(upto))
        if applied:
            self.telemetry.counter(
                "cluster.repl_records_applied"
            ).inc(applied)
        if rejected:
            self.telemetry.counter("cluster.repl_rejected").inc(rejected)
        return applied

    # ------------------------------------------------------------------
    # Anti-entropy plane: digests and partition adoption
    # ------------------------------------------------------------------

    def _op_ae_frontier(self, request: dict[str, Any]) -> dict[str, Any]:
        """Every replica's digests: the node's reconciliation frontier.

        Per origin held here: the applied watermark plus, per metric,
        the partition digest map and counter state.  A peer diffs this
        against its own maps and fetches only the symmetric difference.
        """
        watermarks: dict[str, int] = {}
        origins: dict[str, list[dict[str, Any]]] = {}
        with self._state_lock:
            for origin in sorted(self._origins):
                registry = self._origins[origin]
                watermarks[origin] = self._watermark_locked(origin)
                entries: list[dict[str, Any]] = []
                for key in registry.keys():
                    store = registry.get(key.name, key.as_dict())
                    if store is None:  # pragma: no cover - keys() raced
                        continue
                    entries.append(
                        {
                            "metric": key.name,
                            "tags": key.as_dict() or None,
                            "digests": store.partition_digests(),
                            "counters": store.sync_counters(),
                        }
                    )
                origins[origin] = entries
        return protocol.ok(watermarks=watermarks, origins=origins)

    def _op_ae_fetch(self, request: dict[str, Any]) -> dict[str, Any]:
        """Export requested partitions wholesale for adoption."""
        origin = ops.string(request, "origin")
        items = ops.listing(request, "items", dict)
        out: list[dict[str, Any]] = []
        with self._state_lock:
            registry = self._origins.get(origin)
            if registry is None:
                raise InvalidValueError(
                    f"no replica of origin {origin!r} held here"
                )
            watermark = self._watermark_locked(origin)
            for item in items:
                name, tags = ops.series(item)
                store = registry.get(name, tags)
                if store is None:
                    continue
                keys = ops.listing(item, "keys", str, [])
                blobs = store.export_partitions(keys)
                out.append(
                    {
                        "metric": name,
                        "tags": tags,
                        "blobs": {
                            k: blob.hex() for k, blob in blobs.items()
                        },
                        "authoritative": sorted(
                            store.partition_digests()
                        ),
                        "counters": store.sync_counters(),
                    }
                )
        return protocol.ok(origin=origin, watermark=watermark, items=out)

    def partition_digests_for(
        self,
        origin: str,
        metric: str,
        tags: Mapping[str, str] | None,
    ) -> tuple[dict[str, str], dict[str, int | None]] | None:
        """Local ``(digests, counters)`` for one replica store, or
        ``None`` when this node holds no such store yet."""
        with self._state_lock:
            registry = self._origins.get(origin)
            if registry is None:
                return None
            store = registry.get(metric, tags)
            if store is None:
                return None
            return store.partition_digests(), store.sync_counters()

    def reconcile_origin(
        self,
        origin: str,
        peer_watermark: int,
        items: list[dict[str, Any]],
        advance_cursor: bool,
    ) -> int:
        """Adopt fetched partition state for *origin*; returns
        partitions changed.

        *advance_cursor* moves the replication pull cursor up to
        *peer_watermark*.  That is sound when the peer's state is
        authoritative for every key this node replicates — always under
        full replication, and when fetching from the origin itself —
        but NOT when gossiping with another follower under a partial
        replication factor, where the peer may lack keys only this
        node replicates; the cursor then stays put so ``repl_pull``
        still fetches those records.
        """
        if origin == self.node_id:
            raise InvalidValueError(
                "a node does not reconcile its own origin"
            )
        changed = 0
        with self._state_lock:
            if self._applied.get(origin, 0) >= peer_watermark:
                return 0  # raced ahead via replication; nothing newer
            registry = self._origin_registry_locked(origin)
            for item in items:
                store = registry.store(
                    str(item["metric"]), item.get("tags")
                )
                blobs = {
                    str(k): bytes.fromhex(v)
                    for k, v in dict(item["blobs"]).items()
                }
                changed += store.adopt_partitions(
                    blobs, item["authoritative"], item["counters"]
                )
            if advance_cursor:
                self._applied[origin] = max(
                    self._applied.get(origin, 0), int(peer_watermark)
                )
        if changed:
            self.telemetry.counter(
                "cluster.ae_partitions_adopted"
            ).inc(changed)
        return changed

    # ------------------------------------------------------------------
    # View distribution and introspection ops
    # ------------------------------------------------------------------

    def _op_cluster_view(self, request: dict[str, Any]) -> dict[str, Any]:
        view = MembershipView.from_wire(ops.obj(request, "view"))
        return protocol.ok(epoch=self.install_view(view))

    def _op_stats(self, request: dict[str, Any]) -> dict[str, Any]:
        response = super()._op_stats(request)
        with self._state_lock:
            response["stats"]["cluster_origins"] = len(self._origins)
            response["stats"]["cluster_applied_total"] = sum(
                self._applied.values()
            )
        return response

    # ------------------------------------------------------------------
    # Test / convergence support
    # ------------------------------------------------------------------

    def export_state(self) -> dict[str, dict[str, bytes]]:
        """``{origin: {tenant key: store snapshot bytes}}``.

        The convergence suite compares these byte-for-byte across
        replicas — the strongest form of the determinism claim.
        """
        out: dict[str, dict[str, bytes]] = {}
        with self._state_lock:
            for origin, registry in self._origins.items():
                stores: dict[str, bytes] = {}
                for key in registry.keys():
                    store = registry.get(key.name, key.as_dict())
                    if store is not None:
                        stores[str(key)] = store.snapshot()
                out[origin] = stores
        return out
