"""Checkpoints: atomic full-state snapshots with a WAL watermark.

A checkpoint bounds recovery time (replay only the WAL suffix past the
watermark) and bounds disk growth (segments at or below the watermark
are deleted).  It captures every ``(metric, tags)`` store of a
:class:`~repro.service.registry.MetricRegistry` through the store's
bit-identical RPQS snapshot codec, so a restore continues from *exact*
sketch state — including per-shard :class:`~repro.parallel.ShardedSketch`
state and (as of serialization v2) the RNG state of randomized
sketches, which is what makes replay-after-restore reproduce a
never-crashed run byte for byte.

File format (``checkpoint-<wal_seq>.ckpt``)::

    b"RPCK" | version u8 | crc32 u32 (of body) | body
    body = u32 | header JSON            (wal_seq, created_ms, metrics)
           u32 | key JSON               } repeated, sorted by
           u32 | store snapshot bytes   } (name, tags)

Checkpoints are published with
:func:`~repro.durability.atomicio.atomic_write_bytes`, so a crash at
any instant leaves either the previous checkpoint set or the new file
complete — never a truncated one.  :meth:`Checkpointer.latest` still
validates magic and CRC and falls back to the next-newest file, because
a recovery path that trusts the filesystem is a recovery path that
eventually doesn't recover.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.core.codec import Reader, Writer, canonical_json, crc32
from repro.durability.atomicio import atomic_write_bytes
from repro.errors import CheckpointError
from repro.obs.telemetry import NOOP, Telemetry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (see server)
    from repro.service.registry import MetricRegistry

CHECKPOINT_MAGIC = b"RPCK"
CHECKPOINT_VERSION = 1
CHECKPOINT_PREFIX = "checkpoint-"
CHECKPOINT_SUFFIX = ".ckpt"


def checkpoint_path(directory: Path, wal_seq: int) -> Path:
    return (
        directory
        / f"{CHECKPOINT_PREFIX}{wal_seq:020d}{CHECKPOINT_SUFFIX}"
    )


def list_checkpoints(directory: Path) -> list[Path]:
    """Checkpoint paths, oldest first (by watermark)."""
    paths = [
        path
        for path in directory.iterdir()
        if path.name.startswith(CHECKPOINT_PREFIX)
        and path.name.endswith(CHECKPOINT_SUFFIX)
    ]

    def seq_of(path: Path) -> int:
        stem = path.name[
            len(CHECKPOINT_PREFIX) : -len(CHECKPOINT_SUFFIX)
        ]
        try:
            return int(stem)
        except ValueError as exc:
            raise CheckpointError(
                f"malformed checkpoint name {path.name!r}"
            ) from exc

    return sorted(paths, key=seq_of)


@dataclass(frozen=True)
class LoadedCheckpoint:
    """A decoded, CRC-verified checkpoint."""

    path: Path
    wal_seq: int
    created_ms: float
    stores: tuple[tuple[str, dict[str, str], bytes], ...]

    def restore_into(self, registry: "MetricRegistry") -> int:
        """Install every store into an empty registry; returns count."""
        if len(registry):
            raise CheckpointError(
                "refusing to restore into a non-empty registry "
                f"({len(registry)} stores present)"
            )
        for name, tags, blob in self.stores:
            registry.restore_store(name, tags or None, blob)
        return len(self.stores)


def encode_checkpoint(
    registry: "MetricRegistry", wal_seq: int, created_ms: float
) -> bytes:
    """Serialise *registry* into checkpoint bytes."""
    keys = registry.keys()  # sorted: deterministic checkpoint bytes
    header = {
        "created_ms": float(created_ms),
        "metrics": len(keys),
        "wal_seq": int(wal_seq),
    }
    body = Writer()
    body.blob(canonical_json(header))
    for key in keys:
        store = registry.get(key.name, key.as_dict())
        if store is None:  # pragma: no cover - keys() implies presence
            continue
        body.blob(canonical_json({"name": key.name, "tags": key.as_dict()}))
        body.blob(store.snapshot())
    payload = body.getvalue()
    w = Writer()
    w.header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    w.u32(crc32(payload))
    w.raw(payload)
    return w.getvalue()


def decode_checkpoint(path: Path) -> LoadedCheckpoint:
    """Decode and CRC-verify one checkpoint file (hostile contents
    raise only :class:`~repro.errors.CheckpointError`)."""
    data = path.read_bytes()
    with Reader(data, CheckpointError, f"checkpoint {path.name}") as r:
        r.header(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
        if r.u32() != crc32(data[r.pos :]):
            r.fail("fails its CRC")
        header = json.loads(r.blob())
        stores: list[tuple[str, dict[str, str], bytes]] = []
        for _ in range(header["metrics"]):
            key = json.loads(r.blob())
            stores.append((key["name"], dict(key["tags"]), r.blob()))
        r.finish()
        return LoadedCheckpoint(
            path=path,
            wal_seq=int(header["wal_seq"]),
            created_ms=float(header["created_ms"]),
            stores=tuple(stores),
        )


class Checkpointer:
    """Writes, prunes and loads checkpoints in one data directory.

    Parameters
    ----------
    directory:
        The durability data directory (shared with the WAL).
    keep:
        Checkpoint files retained after a successful write.  Two by
        default: the newest plus one predecessor, so a latent fault in
        the newest file never strands recovery.
    telemetry:
        Observability sink: ``checkpoint.size_bytes`` /
        ``checkpoint.stores`` gauges, ``checkpoint.writes`` and
        ``recovery.checkpoints_skipped`` counters.
    fault:
        Crash-injection hook, threaded into the atomic publication.
    """

    def __init__(
        self,
        directory: str | Path,
        keep: int = 2,
        telemetry: Telemetry | None = None,
        fault: Callable[[str], None] | None = None,
    ) -> None:
        if keep < 1:
            raise CheckpointError(f"keep must be >= 1, got {keep!r}")
        self.directory = Path(directory)
        self.keep = int(keep)
        self.telemetry = telemetry if telemetry is not None else NOOP
        self._fault = fault if fault is not None else (lambda site: None)

    def write(
        self,
        registry: "MetricRegistry",
        wal_seq: int,
        created_ms: float,
    ) -> Path:
        """Atomically publish a checkpoint at *wal_seq*; prune old ones."""
        self._fault("checkpoint.encode")
        data = encode_checkpoint(registry, wal_seq, created_ms)
        path = atomic_write_bytes(
            checkpoint_path(self.directory, wal_seq),
            data,
            fault=self._fault,
        )
        self.telemetry.counter("checkpoint.writes").inc()
        self.telemetry.gauge("checkpoint.size_bytes").set(len(data))
        self.telemetry.gauge("checkpoint.stores").set(len(registry))
        self._prune()
        return path

    def _prune(self) -> None:
        paths = list_checkpoints(self.directory)
        for stale in paths[: -self.keep]:
            stale.unlink()

    def latest(self) -> LoadedCheckpoint | None:
        """Newest checkpoint that decodes and passes its CRC.

        Invalid files are skipped (and counted) rather than fatal:
        recovery falls back to the previous checkpoint plus a longer
        WAL replay.
        """
        if not self.directory.is_dir():
            return None
        for path in reversed(list_checkpoints(self.directory)):
            try:
                return decode_checkpoint(path)
            except CheckpointError:
                self.telemetry.counter(
                    "recovery.checkpoints_skipped"
                ).inc()
        return None
