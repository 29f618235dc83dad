"""`DurabilityManager`: the service's one handle on WAL + checkpoints.

The manager owns a data directory and composes the three durability
primitives into the protocol the server relies on:

* :meth:`journal` — append one ingest operation to the WAL *before*
  the server acks it.  The record pins the resolved event timestamp
  **and** the clock reading at journal time, so replay re-makes every
  time-dependent decision (partition bucketing, late-drop, compaction)
  exactly as the live run did.
* :meth:`checkpoint_now` / :meth:`checkpoint_due` — snapshot the whole
  registry at the current WAL watermark, then truncate segments the
  checkpoint covers.  Cadence is measured on the injected
  :class:`~repro.service.clock.Clock`, so tests drive it with a
  :class:`~repro.service.clock.ManualClock` and never sleep.
* :meth:`recover` — load the newest valid checkpoint, replay the WAL
  suffix past its watermark (tolerating a torn tail), and leave the
  log open for appends.  After recovery the registry is byte-identical
  to a never-crashed registry fed the journaled prefix — the property
  ``tests/durability/test_crash_sweep.py`` sweeps.

Callers serialise :meth:`journal` against :meth:`checkpoint_now`
(the server's ingest lock does this); the WAL carries its own lock, so
nothing here corrupts under misuse, but checkpoint consistency — the
checkpoint watermark equalling the state actually captured — is only
guaranteed when appends pause and the ingest queue drains around the
snapshot, which is the server's job.

A WAL record payload is a wire-protocol message body
(:mod:`repro.service.protocol`): a canonical-JSON header — ``metric``,
``tags``, ``ts``, ``now`` — and the batch as the raw float64 tail the
ingest frame delivered, written by :func:`encode_record` and read only
by :func:`decode_record`.  A journaled ``inf`` or ``nan`` (rejected at
apply time, identically on replay) round-trips bit for bit; payloads
older than the tail (one all-JSON body) decode to the same record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from repro.core.codec import Reader
from repro.durability.checkpoint import Checkpointer
from repro.durability.wal import FlushPolicy, WriteAheadLog
from repro.errors import DurabilityError, WALError
from repro.obs.telemetry import NOOP, Telemetry
from repro.service.clock import Clock, SystemClock
from repro.service.protocol import (
    decode_message,
    encode_message,
    float_values,
)
from repro.service.registry import IngestOp, MetricRegistry, apply_ops


def encode_record(
    metric: str,
    tags: Mapping[str, str] | None,
    values: np.ndarray,
    ts: float,
    now: float,
) -> bytes:
    """One ingest op as a WAL record payload."""
    return encode_message(
        {
            "metric": metric,
            "tags": dict(tags) if tags else None,
            "values": values,
            "ts": ts,
            "now": now,
        }
    )


def decode_record(payload: bytes, seq: int) -> IngestOp:
    """The op :func:`encode_record` wrote as sequence *seq*, its
    ``values`` a float64 array and its ``ts``/``now`` pinned.

    A payload that is not a well-formed record raises
    :class:`~repro.errors.WALError` naming *seq*.  Its CRC was valid
    and the record was acked, so the caller refuses rather than skips.
    """
    with Reader(payload, WALError, f"WAL record {seq}") as reader:
        record = decode_message(payload)
        metric, tags = record["metric"], record["tags"]
        if not (isinstance(metric, str) and metric):
            reader.fail(f"'metric' must be a non-empty string: {metric!r}")
        if not (tags is None or isinstance(tags, dict)):
            reader.fail(f"'tags' must be an object or null: {tags!r}")
        values = float_values(record["values"])
        ts, now = _number(record["ts"]), _number(record["now"])
        return IngestOp(metric, tags, values, ts, now)


def _number(value: Any) -> float:
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        raise TypeError(f"expected a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class RecoveryReport:
    """What one :meth:`DurabilityManager.recover` pass did."""

    checkpoint_seq: int  # WAL watermark of the checkpoint used (0: none)
    checkpoint_stores: int  # stores restored from the checkpoint
    records_replayed: int  # WAL records applied after the watermark
    replay_rejected: int  # replayed records rejected at apply time
    torn_bytes_repaired: int  # torn-tail bytes truncated from the log
    last_seq: int  # newest durable sequence after recovery

    def as_dict(self) -> dict[str, int]:
        return {
            "checkpoint_seq": self.checkpoint_seq,
            "checkpoint_stores": self.checkpoint_stores,
            "records_replayed": self.records_replayed,
            "replay_rejected": self.replay_rejected,
            "torn_bytes_repaired": self.torn_bytes_repaired,
            "last_seq": self.last_seq,
        }


class DurabilityManager:
    """WAL + checkpointing + recovery over one data directory.

    Parameters
    ----------
    data_dir:
        Directory holding ``wal-*.log`` segments and
        ``checkpoint-*.ckpt`` files; created on first use.
    clock:
        Time source for record timestamps and checkpoint cadence.
        Inject a :class:`~repro.service.clock.ManualClock` for
        deterministic tests; defaults to the system clock.
    flush_policy:
        WAL fsync cadence (:class:`~repro.durability.wal.FlushPolicy`).
    checkpoint_interval_ms:
        Clock time between automatic checkpoints (what
        :meth:`checkpoint_due` measures); ``0`` disables cadence, so
        checkpoints happen only when forced.  The WAL's segment size
        and the checkpoints kept are the log's and the checkpointer's
        own defaults.
    telemetry:
        Observability sink shared with the WAL and checkpointer.
    fault:
        Crash-injection hook (:mod:`repro.durability.faults`).
    """

    def __init__(
        self,
        data_dir: str | Path,
        clock: Clock | None = None,
        flush_policy: FlushPolicy | None = None,
        checkpoint_interval_ms: float = 60_000.0,
        telemetry: Telemetry | None = None,
        fault: Callable[[str], None] | None = None,
    ) -> None:
        if checkpoint_interval_ms < 0:
            raise DurabilityError(
                f"checkpoint_interval_ms must be >= 0, got "
                f"{checkpoint_interval_ms!r}"
            )
        self.data_dir = Path(data_dir)
        self._clock = clock if clock is not None else SystemClock()
        self.telemetry = telemetry if telemetry is not None else NOOP
        self.checkpoint_interval_ms = float(checkpoint_interval_ms)
        self._fault = fault if fault is not None else (lambda site: None)
        self.wal = WriteAheadLog(
            self.data_dir,
            flush_policy=flush_policy,
            telemetry=self.telemetry,
            fault=self._fault,
        )
        self.checkpointer = Checkpointer(
            self.data_dir,
            telemetry=self.telemetry,
            fault=self._fault,
        )
        self._last_checkpoint_ms: float | None = None
        self._last_checkpoint_seq = 0
        self._records_journaled = 0
        self._checkpoints_written = 0
        self._last_report: RecoveryReport | None = None

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover(self, registry: MetricRegistry) -> RecoveryReport:
        """Rebuild *registry* from disk and open the WAL for appends.

        *registry* must be empty (freshly constructed with the same
        sketch factory and geometry the data dir was written with).
        """
        if not self.wal.is_open:
            self.wal.open()
        checkpoint = self.checkpointer.latest()
        checkpoint_seq = 0
        checkpoint_stores = 0
        if checkpoint is not None:
            checkpoint_stores = checkpoint.restore_into(registry)
            checkpoint_seq = checkpoint.wal_seq
        replayed = 0

        def journaled() -> Iterator[IngestOp]:
            nonlocal replayed
            for seq, payload in self.wal.replay(after_seq=checkpoint_seq):
                replayed += 1
                yield decode_record(payload, seq)

        # The whole log in one apply, streamed op by op: the live drain
        # applied and rejected (and counted) the same ops, and a record
        # that fails to decode stops replay after every one before it.
        with self.telemetry.span("recovery.replay"):
            _, rejected = apply_ops(registry, journaled())
        self.telemetry.counter("recovery.records_replayed").inc(replayed)
        self.telemetry.counter("recovery.replay_rejected").inc(rejected)
        self._last_checkpoint_seq = checkpoint_seq
        self._last_checkpoint_ms = self._clock.now_ms()
        report = RecoveryReport(
            checkpoint_seq=checkpoint_seq,
            checkpoint_stores=checkpoint_stores,
            records_replayed=replayed,
            replay_rejected=rejected,
            torn_bytes_repaired=self.wal.torn_bytes_repaired,
            last_seq=self.wal.last_seq,
        )
        self._last_report = report
        return report

    @property
    def last_recovery(self) -> RecoveryReport | None:
        return self._last_report

    # ------------------------------------------------------------------
    # Journaling
    # ------------------------------------------------------------------

    def journal(
        self,
        metric: str,
        tags: Mapping[str, str] | None,
        values: np.ndarray,
        timestamp_ms: float | None,
    ) -> tuple[int, float, float]:
        """Append one ingest op to the WAL; returns ``(seq, ts, now)``.

        ``ts`` is the resolved event timestamp (journal-time clock when
        the request carried none) and ``now`` the clock reading the
        apply path must use, so live application and replay make
        identical bucketing/retention decisions.
        """
        now = self._clock.now_ms()
        ts = now if timestamp_ms is None else float(timestamp_ms)
        seq = self.wal.append(encode_record(metric, tags, values, ts, now))
        self._records_journaled += 1
        return seq, ts, now

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def checkpoint_due(self) -> bool:
        """Whether the clock says a cadence checkpoint should run.

        Never due when cadence is disabled, when nothing was journaled
        since the last checkpoint, or before recovery/first use.
        """
        if self.checkpoint_interval_ms <= 0:
            return False
        if self.wal.last_seq <= self._last_checkpoint_seq:
            return False
        if self._last_checkpoint_ms is None:
            return True
        return (
            self._clock.now_ms() - self._last_checkpoint_ms
            >= self.checkpoint_interval_ms
        )

    def checkpoint_now(self, registry: MetricRegistry) -> Path:
        """Checkpoint *registry* at the current WAL watermark.

        The caller must have quiesced ingestion (no concurrent
        :meth:`journal`, apply queue drained) so the registry state
        matches ``wal.last_seq`` exactly.  Rotates the active segment
        first so truncation can reclaim it.
        """
        with self.telemetry.span("checkpoint.write"):
            watermark = self.wal.last_seq
            self.wal.rotate()
            path = self.checkpointer.write(
                registry, watermark, self._clock.now_ms()
            )
            self._fault("checkpoint.truncate")
            self.wal.truncate_upto(watermark)
        self._last_checkpoint_seq = watermark
        self._last_checkpoint_ms = self._clock.now_ms()
        self._checkpoints_written += 1
        return path

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    @property
    def last_checkpoint_seq(self) -> int:
        return self._last_checkpoint_seq

    def stats(self) -> dict[str, int]:
        """Deterministic counters for the server's ``stats`` op."""
        return {
            "durability_last_seq": self.wal.last_seq,
            "durability_pending_sync": self.wal.pending_sync_records,
            "durability_checkpoint_seq": self._last_checkpoint_seq,
            "durability_records_journaled": self._records_journaled,
            "durability_checkpoints_written": self._checkpoints_written,
        }

    def close(self) -> None:
        self.wal.close()

    def __enter__(self) -> "DurabilityManager":
        self.wal.open()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_wal_records(
    data_dir: str | Path,
) -> "Iterator[tuple[int, IngestOp]]":
    """Read-only scan of a WAL directory: yields ``(seq, op)``.

    The ops :meth:`DurabilityManager.journal` wrote, in sequence order,
    read without opening the log for appends, so recorded streams can
    be re-read after the writing process is gone.  This is the what-if
    seam: the workload layer
    replays one recorded stream through *differently configured*
    registries (:mod:`repro.workload.whatif`), which checkpoint blobs
    cannot support (they pin the sketch config) but raw records can.
    """
    wal = WriteAheadLog(Path(data_dir))
    for seq, payload in wal.replay():
        yield seq, decode_record(payload, seq)
