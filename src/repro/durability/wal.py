"""Segmented, checksummed write-ahead log.

The WAL is the durability subsystem's source of truth: every acked
ingest is appended here *before* the server responds, so the sequence
of WAL records is — by construction — the sequence of acked
operations.  Recovery replays it to reconstruct state a crash wiped
from memory.

On-disk layout
--------------
A log is a directory of *segments*, each named for the sequence number
of its first record::

    wal-00000000000000000001.log
    wal-00000000000000004097.log

Segment format::

    b"RPWL" | version u8 | first_seq u64            (13-byte header)
    [ length u32 | crc32 u32 | payload ]*           (records)

Integers are little-endian.  Record sequence numbers are implicit —
``first_seq + index`` — so a record costs 8 bytes of framing, and a
segment's name alone tells truncation whether all of its records are
below a checkpoint watermark.

Crash semantics
---------------
A crash mid-append leaves a *torn tail*: a final record whose length
prefix overruns the file or whose CRC does not match.  That is
expected debris, not corruption — the record was never acked (the
append never returned), so replay drops it, counts it, and
:meth:`WriteAheadLog.open` truncates it before new appends.  Anything
else — a bad segment header, a short record in a non-final segment —
raises :class:`~repro.errors.WALError`: it means data that *was* acked
cannot be read back, which recovery must never paper over.

Flush policy
------------
``fsync`` frequency is the knob trading ingest latency for the
durability window (what a *power* failure can lose; records an OS has
buffered survive mere process crashes).  :class:`FlushPolicy` makes
the trade explicit: ``always`` syncs every append, ``batch`` every N
records or B bytes, ``os`` never (the OS decides).  An fsync failure
poisons the log — after it, the on-disk suffix is unknowable, so
further appends refuse rather than ack atop quicksand.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from repro.core.codec import Reader, Writer, crc32
from repro.errors import InvalidValueError, WALError
from repro.obs.telemetry import NOOP, Telemetry

SEGMENT_MAGIC = b"RPWL"
SEGMENT_VERSION = 1
SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".log"

#: Bytes of segment header preceding the first record.
SEGMENT_HEADER_SIZE = 4 + 1 + 8

#: Bytes of framing (length + crc) preceding each record payload.
RECORD_HEADER_SIZE = 8


@dataclass(frozen=True)
class FlushPolicy:
    """When appends are fsynced to stable storage.

    ``always`` — fsync after every append (no acked record is ever
    lost, even to power failure); ``batch`` — fsync once
    ``batch_records`` records or ``batch_bytes`` bytes accumulate
    (bounded loss window, amortised cost); ``os`` — never fsync (a
    process crash loses nothing, a kernel panic may lose the OS write
    buffer).
    """

    mode: str = "always"
    batch_records: int = 64
    batch_bytes: int = 256 * 1024

    def __post_init__(self) -> None:
        if self.mode not in ("always", "batch", "os"):
            raise InvalidValueError(
                f"flush mode must be 'always', 'batch' or 'os', got "
                f"{self.mode!r}"
            )
        if self.batch_records < 1 or self.batch_bytes < 1:
            raise InvalidValueError(
                "batch_records and batch_bytes must be >= 1"
            )

    def should_sync(self, pending_records: int, pending_bytes: int) -> bool:
        if self.mode == "always":
            return True
        if self.mode == "os":
            return False
        return (
            pending_records >= self.batch_records
            or pending_bytes >= self.batch_bytes
        )


@dataclass(frozen=True)
class SegmentScan:
    """What a sequential read of one segment found."""

    records: int
    valid_bytes: int  # offset just past the last intact record
    torn_bytes: int  # trailing bytes belonging to a torn record


def segment_path(directory: Path, first_seq: int) -> Path:
    return directory / f"{SEGMENT_PREFIX}{first_seq:020d}{SEGMENT_SUFFIX}"


def _segment_first_seq(path: Path) -> int:
    stem = path.name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)]
    try:
        return int(stem)
    except ValueError as exc:
        raise WALError(f"malformed segment name {path.name!r}") from exc


def list_segments(directory: Path) -> list[Path]:
    """Segment paths in ascending first-sequence order."""
    paths = [
        path
        for path in directory.iterdir()
        if path.name.startswith(SEGMENT_PREFIX)
        and path.name.endswith(SEGMENT_SUFFIX)
    ]
    return sorted(paths, key=_segment_first_seq)


def scan_segment(
    path: Path, is_final: bool
) -> tuple[SegmentScan, list[bytes]]:
    """Validate one segment and collect its record payloads.

    *is_final* selects the crash-tolerance rule: a torn tail in the
    final segment is dropped and counted; anywhere else it raises
    :class:`~repro.errors.WALError`.
    """
    data = path.read_bytes()
    expected_first = _segment_first_seq(path)
    if len(data) < SEGMENT_HEADER_SIZE and is_final:
        # A crash during rotation can leave a header-short file.
        return SegmentScan(0, 0, len(data)), []
    payloads: list[bytes] = []
    with Reader(data, WALError, f"segment {path.name}") as reader:
        reader.header(SEGMENT_MAGIC, SEGMENT_VERSION)
        first_seq = reader.u64()
        if first_seq != expected_first:
            reader.fail(
                f"header claims first_seq {first_seq}, name says "
                f"{expected_first}"
            )
        while reader.remaining:
            start = reader.pos
            try:
                length = reader.u32()
                crc = reader.u32()
                payload = reader.raw(length)
                if crc32(payload) != crc:
                    reader.fail("record fails its CRC")
            except WALError as exc:
                if is_final:
                    return (
                        SegmentScan(
                            len(payloads), start, len(data) - start
                        ),
                        payloads,
                    )
                raise WALError(
                    f"{exc} (record at offset {start}) in a non-final "
                    f"segment — the log is corrupt, not merely torn"
                ) from exc
            payloads.append(payload)
    return SegmentScan(len(payloads), len(data), 0), payloads


class WriteAheadLog:
    """Appendable, replayable record log over a directory of segments.

    Parameters
    ----------
    directory:
        Where segments live; created on :meth:`open` if missing.
    flush_policy:
        The fsync cadence (see :class:`FlushPolicy`).
    segment_max_bytes:
        Soft rotation threshold: an append that would push the active
        segment past this starts a new one (a single record larger
        than the threshold still fits — records are never split).
    telemetry:
        Observability sink; appends and fsyncs are timed as
        ``span.wal.append`` / ``span.wal.fsync`` histograms.
    fault:
        Crash-injection hook (:mod:`repro.durability.faults`).
    """

    def __init__(
        self,
        directory: str | Path,
        flush_policy: FlushPolicy | None = None,
        segment_max_bytes: int = 64 * 1024 * 1024,
        telemetry: Telemetry | None = None,
        fault: Callable[[str], None] | None = None,
    ) -> None:
        if segment_max_bytes < SEGMENT_HEADER_SIZE + RECORD_HEADER_SIZE:
            raise InvalidValueError(
                f"segment_max_bytes too small: {segment_max_bytes!r}"
            )
        self.directory = Path(directory)
        self.flush_policy = (
            flush_policy if flush_policy is not None else FlushPolicy()
        )
        self.segment_max_bytes = int(segment_max_bytes)
        self.telemetry = telemetry if telemetry is not None else NOOP
        self._fault = fault if fault is not None else (lambda site: None)
        self._lock = threading.Lock()
        self._handle = None
        self._segment_first_seq = 1
        self._segment_bytes = 0
        self._last_seq = 0
        self._pending_records = 0
        self._pending_bytes = 0
        self._poisoned = False
        #: Torn-tail bytes dropped by the last :meth:`open`.
        self.torn_bytes_repaired = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def open(self) -> "WriteAheadLog":
        """Scan existing segments, repair a torn tail, become appendable.

        Idempotent per instance: raises if already open.
        """
        with self._lock:
            if self._handle is not None:
                raise WALError("WAL already open")
            self.directory.mkdir(parents=True, exist_ok=True)
            segments = list_segments(self.directory)
            if not segments:
                self._start_segment_locked(first_seq=1)
                return self
            # Count records in every sealed segment, then repair the
            # final one in place so appends continue cleanly after a
            # torn record left by a crash mid-append.
            last = segments[-1]
            last_first = _segment_first_seq(last)
            scan, _ = scan_segment(last, is_final=True)
            self.torn_bytes_repaired = scan.torn_bytes
            if scan.valid_bytes < SEGMENT_HEADER_SIZE:
                # Header itself was torn (crash mid-rotation): rewrite
                # it from the sequence number the filename pins.
                with open(last, "wb") as handle:
                    handle.write(self._header(last_first))
                    handle.flush()
                    os.fsync(handle.fileno())
            elif scan.torn_bytes:
                with open(last, "r+b") as handle:
                    handle.truncate(scan.valid_bytes)
                    handle.flush()
                    os.fsync(handle.fileno())
            self._segment_first_seq = last_first
            self._last_seq = last_first + scan.records - 1
            self._handle = open(last, "ab")
            self._segment_bytes = max(
                scan.valid_bytes, SEGMENT_HEADER_SIZE
            )
            return self

    @property
    def is_open(self) -> bool:
        return self._handle is not None

    def close(self) -> None:
        with self._lock:
            if self._handle is None:
                return
            if not self._poisoned and self._pending_records:
                self._sync_locked()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self.open()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest appended record (0 if none)."""
        return self._last_seq

    @property
    def pending_sync_records(self) -> int:
        """Appended records not yet covered by an fsync."""
        return self._pending_records

    def append(self, payload: bytes) -> int:
        """Durably append one record; returns its sequence number.

        Raises whatever the filesystem raises; after any failure the
        log is *poisoned* — the on-disk tail is unknowable, so further
        appends raise :class:`~repro.errors.WALError` until a fresh
        instance re-opens (and repairs) the directory.
        """
        with self._lock:
            handle = self._require_handle_locked()
            record_size = RECORD_HEADER_SIZE + len(payload)
            try:
                self._fault("wal.append")
                if (
                    self._segment_bytes + record_size
                    > self.segment_max_bytes
                    and self._segment_bytes > SEGMENT_HEADER_SIZE
                ):
                    self._rotate_locked()
                    handle = self._handle
                with self.telemetry.span("wal.append"):
                    frame = Writer()
                    frame.u32(len(payload))
                    frame.u32(crc32(payload))
                    handle.write(frame.getvalue())
                    self._fault("wal.append.partial")
                    handle.write(payload)
                    # Push into the OS so a same-process reader (or a
                    # surviving OS after our death) sees the record;
                    # fsync below is the *power-loss* barrier.
                    handle.flush()
            except BaseException:
                self._poisoned = True
                raise
            self._last_seq += 1
            self._segment_bytes += record_size
            self._pending_records += 1
            self._pending_bytes += record_size
            if self.flush_policy.should_sync(
                self._pending_records, self._pending_bytes
            ):
                self._sync_locked()
            return self._last_seq

    def sync(self) -> None:
        """Force an fsync of the active segment now."""
        with self._lock:
            self._require_handle_locked()
            self._sync_locked()

    def rotate(self) -> int:
        """Seal the active segment, start a new one; returns its first seq."""
        with self._lock:
            self._require_handle_locked()
            self._rotate_locked()
            return self._segment_first_seq

    def _require_handle_locked(self):
        if self._poisoned:
            raise WALError(
                "WAL is poisoned by an earlier I/O failure; recover "
                "by re-opening the directory"
            )
        if self._handle is None:
            raise WALError("WAL is not open")
        return self._handle

    def _sync_locked(self) -> None:
        try:
            self._fault("wal.fsync")
            with self.telemetry.span("wal.fsync"):
                self._handle.flush()
                os.fsync(self._handle.fileno())
        except BaseException:
            self._poisoned = True
            raise
        self._pending_records = 0
        self._pending_bytes = 0

    def _header(self, first_seq: int) -> bytes:
        header = Writer()
        header.header(SEGMENT_MAGIC, SEGMENT_VERSION)
        header.u64(first_seq)
        return header.getvalue()

    def _start_segment_locked(self, first_seq: int) -> None:
        path = segment_path(self.directory, first_seq)
        if path.exists():
            raise WALError(f"segment {path.name} already exists")
        handle = open(path, "ab")
        try:
            handle.write(self._header(first_seq))
            handle.flush()
            os.fsync(handle.fileno())
        except BaseException:
            handle.close()
            self._poisoned = True
            raise
        self._handle = handle
        self._segment_first_seq = first_seq
        self._segment_bytes = SEGMENT_HEADER_SIZE
        self._last_seq = first_seq - 1

    def _rotate_locked(self) -> None:
        if self._segment_bytes <= SEGMENT_HEADER_SIZE:
            # Nothing to seal: rotating an empty segment would collide
            # with its own name (same first_seq).
            return
        try:
            self._fault("wal.rotate")
            self._sync_locked()
            self._handle.close()
        except BaseException:
            self._poisoned = True
            raise
        last_seq = self._last_seq
        self._handle = None
        self._start_segment_locked(first_seq=last_seq + 1)
        self._last_seq = last_seq
        self.telemetry.counter("wal.rotations").inc()

    # ------------------------------------------------------------------
    # Replay and truncation
    # ------------------------------------------------------------------

    def replay(
        self, after_seq: int = 0
    ) -> Iterator[tuple[int, bytes]]:
        """Yield ``(seq, payload)`` for every record with seq > *after_seq*.

        Reads the directory, not in-memory state, so it works on a
        freshly-constructed instance pointed at a crashed log.  A torn
        tail in the final segment ends iteration silently (the count
        is visible via :func:`scan_segment` and the recovery report).
        """
        if not self.directory.is_dir():
            return
        segments = list_segments(self.directory)
        for index, path in enumerate(segments):
            first_seq = _segment_first_seq(path)
            scan, payloads = scan_segment(
                path, is_final=(index == len(segments) - 1)
            )
            expected_next = first_seq + scan.records
            if index + 1 < len(segments):
                next_first = _segment_first_seq(segments[index + 1])
                if next_first != expected_next:
                    raise WALError(
                        f"gap in the log: segment {path.name} ends at "
                        f"seq {expected_next - 1} but the next "
                        f"segment starts at {next_first}"
                    )
            for offset, payload in enumerate(payloads):
                seq = first_seq + offset
                if seq > after_seq:
                    yield seq, payload

    def tail(
        self, after_seq: int = 0, max_records: int | None = None
    ) -> tuple[list[tuple[int, bytes]], int]:
        """Read appended records live: the replication-streaming API.

        Returns ``(records, upto)`` where *records* are ``(seq,
        payload)`` pairs with ``after_seq < seq``, at most
        *max_records* of them, and *upto* is the newest sequence the
        read is complete through (``min(last_seq, last returned)``) —
        the watermark a replication follower may advance its acked
        prefix to after applying the batch.

        Unlike :meth:`replay`, which targets a crashed directory, this
        runs against the *open* log under its lock, so it is safe to
        call concurrently with appends: every record appended before
        the call is visible (appends flush to the OS before releasing
        the lock), and the scan can never race a write half-way
        through a record.
        """
        with self._lock:
            self._require_handle_locked()
            # Appends land via buffered ``ab`` writes; make the bytes
            # visible to the path-based reader below.
            self._handle.flush()
            last = self._last_seq
            records: list[tuple[int, bytes]] = []
            for seq, payload in self.replay(after_seq=after_seq):
                if max_records is not None and len(records) >= max_records:
                    return records, records[-1][0]
                records.append((seq, payload))
            return records, last

    def truncate_upto(self, watermark_seq: int) -> list[Path]:
        """Delete sealed segments wholly covered by *watermark_seq*.

        A segment is deletable when every record in it has
        ``seq <= watermark_seq`` — i.e. the *next* segment's first
        sequence is at most ``watermark_seq + 1``.  The active segment
        is never deleted.  Returns the deleted paths.
        """
        with self._lock:
            segments = list_segments(self.directory)
            deleted: list[Path] = []
            for index in range(len(segments) - 1):
                next_first = _segment_first_seq(segments[index + 1])
                if next_first <= watermark_seq + 1:
                    segments[index].unlink()
                    deleted.append(segments[index])
                else:
                    break
            if deleted:
                self.telemetry.counter("wal.segments_truncated").inc(
                    len(deleted)
                )
            return deleted
