"""Membership views: who is in the cluster, who is alive, how far along.

A :class:`MembershipView` is an *epoch-numbered snapshot* of the
supervisor's beliefs: per node, its address, liveness verdict, durable
WAL watermark and applied-frontier map (the same ``node_info`` fields
the heartbeat reads).  Views are immutable values distributed whole —
a node either holds epoch *e* or it doesn't; there is no partial
update — and receivers keep the numerically-newest epoch, which makes
redelivery and reordering of view pushes harmless.

Leadership derives from a view, not from election traffic: the leader
of a tenant key is the first **alive** owner in the key's ring order
(:meth:`MembershipView.leader`).  Two nodes holding the same epoch
therefore agree on every leader, and disagreement is bounded by one
view-propagation delay — the window the routing proxy's ``not_leader``
retry covers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.cluster.ring import HashRing
from repro.errors import InvalidValueError


@dataclass(frozen=True)
class NodeStatus:
    """One node's row in a membership view."""

    node_id: str
    address: tuple[str, int]
    alive: bool
    wal_watermark: int = 0
    frontier: Mapping[str, int] = field(default_factory=dict)

    def as_wire(self) -> dict[str, Any]:
        return {
            "address": [self.address[0], int(self.address[1])],
            "alive": bool(self.alive),
            "wal_watermark": int(self.wal_watermark),
            "frontier": {
                str(origin): int(seq)
                for origin, seq in self.frontier.items()
            },
        }

    @classmethod
    def from_wire(cls, node_id: str, raw: Mapping[str, Any]) -> "NodeStatus":
        host, port = raw["address"]
        return cls(
            node_id=str(node_id),
            address=(str(host), int(port)),
            alive=bool(raw["alive"]),
            wal_watermark=int(raw.get("wal_watermark", 0)),
            frontier={
                str(origin): int(seq)
                for origin, seq in dict(raw.get("frontier", {})).items()
            },
        )


@dataclass(frozen=True)
class MembershipView:
    """Immutable epoch-numbered cluster snapshot."""

    epoch: int
    nodes: Mapping[str, NodeStatus] = field(default_factory=dict)

    def status(self, node_id: str) -> NodeStatus | None:
        return self.nodes.get(node_id)

    def adopt(self, offered: "MembershipView") -> "MembershipView":
        """*offered* if it is at least as new as this view, else this."""
        return offered if offered.epoch >= self.epoch else self

    def is_alive(self, node_id: str) -> bool:
        status = self.nodes.get(node_id)
        return status is not None and status.alive

    def presumed_alive(self, node_id: str) -> bool:
        """Alive, or simply unknown to this view.

        Node-side leadership checks use the *optimistic* reading so a
        node that has not yet received its first view routes by ring
        primary instead of refusing every request; the supervisor's
        views name every node, making both readings agree thereafter.
        """
        status = self.nodes.get(node_id)
        return status is None or status.alive

    def alive_nodes(self) -> list[str]:
        return sorted(
            node_id
            for node_id, status in self.nodes.items()
            if status.alive
        )

    def address(self, node_id: str) -> tuple[str, int] | None:
        status = self.nodes.get(node_id)
        return None if status is None else status.address

    def leader(
        self, ring: HashRing, key: str, replicas: int | None = None
    ) -> str | None:
        """First alive owner of *key* in ring order; None if all down."""
        for owner in ring.owners(key, replicas):
            if self.is_alive(owner):
                return owner
        return None

    def as_wire(self) -> dict[str, Any]:
        return {
            "epoch": int(self.epoch),
            "nodes": {
                node_id: status.as_wire()
                for node_id, status in sorted(self.nodes.items())
            },
        }

    @classmethod
    def from_wire(cls, raw: Mapping[str, Any]) -> "MembershipView":
        epoch = raw.get("epoch")
        if not isinstance(epoch, int) or epoch < 0:
            raise InvalidValueError(
                f"membership view needs an integer epoch >= 0, got "
                f"{epoch!r}"
            )
        nodes_raw = raw.get("nodes")
        if not isinstance(nodes_raw, Mapping):
            raise InvalidValueError(
                "membership view needs a 'nodes' object"
            )
        return cls(
            epoch=epoch,
            nodes={
                str(node_id): NodeStatus.from_wire(node_id, status)
                for node_id, status in nodes_raw.items()
            },
        )


#: The view a node holds before the supervisor's first push: nothing is
#: known, so every owner is presumed alive (ring-primary routing).
EMPTY_VIEW = MembershipView(epoch=0, nodes={})
