"""Durability subsystem: write-ahead log, checkpoints, crash recovery.

Layering: this package sits above :mod:`repro.core` /
:mod:`repro.obs` and beside :mod:`repro.service` — it imports the
service's clock, protocol and registry modules, while
:mod:`repro.service.server` holds only a duck-typed reference to a
:class:`DurabilityManager` (no import cycle).
"""

from repro.durability.atomicio import (
    atomic_write_bytes,
    atomic_write_text,
    fsync_dir,
)
from repro.durability.checkpoint import (
    Checkpointer,
    LoadedCheckpoint,
    decode_checkpoint,
    encode_checkpoint,
    list_checkpoints,
)
from repro.durability.faults import (
    KNOWN_SITES,
    NO_FAULTS,
    CrashInjector,
    InjectedIOError,
)
from repro.durability.manager import (
    DurabilityManager,
    RecoveryReport,
    decode_record,
    encode_record,
    read_wal_records,
)
from repro.durability.wal import (
    FlushPolicy,
    WriteAheadLog,
    list_segments,
    scan_segment,
    segment_path,
)

__all__ = [
    "CrashInjector",
    "Checkpointer",
    "DurabilityManager",
    "FlushPolicy",
    "InjectedIOError",
    "KNOWN_SITES",
    "LoadedCheckpoint",
    "NO_FAULTS",
    "RecoveryReport",
    "WriteAheadLog",
    "atomic_write_bytes",
    "atomic_write_text",
    "decode_checkpoint",
    "decode_record",
    "encode_checkpoint",
    "encode_record",
    "fsync_dir",
    "list_checkpoints",
    "list_segments",
    "read_wal_records",
    "scan_segment",
    "segment_path",
]
