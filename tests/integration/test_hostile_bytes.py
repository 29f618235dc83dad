"""Hostile bytes against the seven decode entry points.

Every decoder built on :mod:`repro.core.codec` promises one thing:
arbitrary bytes come back as the entry point's typed
:class:`~repro.errors.ReproError` subclass — or decode — in time and
memory bounded by the input length.  This table holds each of them to
it: ``loads``, ``TimePartitionedStore.restore``, ``adopt_partitions``,
``decode_checkpoint``, ``scan_segment``, and the two that read a JSON
header with a float64 tail: ``protocol.decode_message`` (a frame body)
and ``decode_record`` (a WAL record payload).

Mutations are structure-aware.  A recording pass over a valid decode
notes the offset of every integer field the top-level reader consumes;
each is then overwritten with hostile values (``-1``, ``2**40``,
``2**62``), next to truncation at every offset, trailing garbage and a
fixed case per defect class found before the codecs were unified (the
negative-length KLL blob that looped for seconds, an inflated Moments
``num_moments``, a non-ASCII sketch name, a NaN t-digest compression,
junk embedded JSON).  Each case runs under a 0.5 s interval timer, and
the integer-field cases under a traced-allocation ceiling.
"""

from __future__ import annotations

import functools
import math
import signal
import socket
import struct
import tempfile
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import codec
from repro.core.registry import SKETCH_CLASSES, make_sketch
from repro.core.req import ReqSketch
from repro.core.serialization import dumps, loads
from repro.durability.checkpoint import (
    checkpoint_path,
    decode_checkpoint,
    encode_checkpoint,
)
from repro.durability.manager import decode_record, encode_record
from repro.durability.wal import WriteAheadLog, scan_segment, segment_path
from repro.errors import (
    CheckpointError,
    ProtocolError,
    ReproError,
    SerializationError,
    WALError,
)
from repro.parallel import ShardedSketch
from repro.service import protocol
from repro.service.clock import ManualClock
from repro.service.registry import MetricRegistry
from repro.service.server import QuantileServer
from repro.service.store import TimePartitionedStore

BUDGET_S = 0.5
#: Ceiling on traced allocations while decoding a blob of a few
#: hundred bytes whose integer fields claim up to 2**62 of anything.
ALLOC_CEILING = 8 * 1024 * 1024
HOSTILE_INTS = (-1, 2**40, 2**62)

#: Small configurations so "every offset" stays a few hundred cases.
SMALL_CONFIGS: dict[str, dict[str, object]] = {
    "dcs": dict(universe_log2=6, exact_threshold=8, cs_width=8, cs_depth=2),
    "hdr": dict(significant_digits=1, highest_trackable_value=1_000.0),
    "kll": dict(max_compactor_size=8, seed=3),
    "req": dict(num_sections=4, seed=3),
    "random": dict(num_buffers=3, buffer_size=4, seed=3),
    "uddsketch": dict(max_buckets=8, num_collapses=4),
    "gkarray": dict(buffer_size=8),
    "tdigest": dict(compression=20),
}


def small_sketch(name: str, n: int = 37):
    sketch = make_sketch(name, **SMALL_CONFIGS.get(name, {}))
    rng = np.random.default_rng(11)
    sketch.update_batch(np.floor(1.0 + 50.0 * rng.random(n)))
    return sketch


def kll_factory():
    return make_sketch("kll", **SMALL_CONFIGS["kll"])


# ----------------------------------------------------------------------
# The five entry points
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EntryPoint:
    name: str
    error: type[ReproError]
    valid: Callable[[], bytes]
    decode: Callable[[bytes, Path], object]
    #: Re-establish an integrity check after mutating (checkpoint CRC).
    reseal: Callable[[bytes], bytes] = lambda data: data
    #: Whether every strict prefix of a valid blob is invalid (a WAL
    #: segment cut at a record boundary is a shorter valid segment).
    prefix_invalid: bool = True


def store_factory(sharded: bool) -> Callable:
    if sharded:
        return functools.partial(ShardedSketch, kll_factory, 2)
    return kll_factory


def small_store(sharded: bool = False) -> TimePartitionedStore:
    clock = ManualClock(10_000.0)
    store = TimePartitionedStore(
        store_factory(sharded), clock=clock, fine_partitions=2,
        coarse_factor=2, coarse_partitions=4,
    )
    for step in range(5):
        store.record_batch([1.0 + step, 2.0 + step], clock.now_ms())
        clock.advance(900.0)
    return store


def restore(data: bytes, _tmp: Path, sharded: bool = False) -> object:
    return TimePartitionedStore.restore(
        data, store_factory(sharded), clock=ManualClock()
    )


def partition_blob() -> bytes:
    store = small_store(sharded=True)
    key = sorted(k for k in store.partition_digests() if k[0] == "f")[0]
    return store.export_partitions([key])[key]


def with_partitioner_byte(byte: int) -> bytes:
    """A sharded store snapshot whose partitions name partitioner *byte*."""
    store = small_store(sharded=True)
    data = store.snapshot()
    keys = [key for key in store.partition_digests() if key[0] == "f"]
    for blob in store.export_partitions(keys).values():
        data = data.replace(blob, blob[:1] + bytes([byte]) + blob[2:])
    return data


def adopt(data: bytes, _tmp: Path) -> object:
    store = small_store(sharded=True)
    return store.adopt_partitions(
        {"f:7": data}, ["f:7"], store.sync_counters()
    )


def checkpoint_bytes() -> bytes:
    clock = ManualClock(10_000.0)
    registry = MetricRegistry(sketch_factory=kll_factory, clock=clock)
    registry.record("lat", [1.0, 2.0, 3.0], clock.now_ms(), {"svc": "a"})
    registry.record("rps", [4.0], clock.now_ms())
    return encode_checkpoint(registry, wal_seq=3, created_ms=5.0)


def reseal_checkpoint(data: bytes) -> bytes:
    if len(data) < 9:
        return data
    return data[:5] + struct.pack("<I", codec.crc32(data[9:])) + data[9:]


def read_checkpoint(data: bytes, tmp: Path) -> object:
    path = checkpoint_path(tmp, 3)
    path.write_bytes(data)
    return decode_checkpoint(path)


def segment_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        with WriteAheadLog(tmp) as wal:
            for payload in (b"alpha", b"", b"gamma-gamma"):
                wal.append(payload)
        return segment_path(Path(tmp), 1).read_bytes()


def scan(data: bytes, tmp: Path, is_final: bool) -> object:
    path = segment_path(tmp, 1)
    path.write_bytes(data)
    return scan_segment(path, is_final=is_final)


def tail_body() -> bytes:
    return protocol.encode_message({
        "op": "ingest", "metric": "lat", "tags": {"svc": "a"},
        "values": [1.5, -0.0, float("inf"), float("nan")],
        "timestamp_ms": 12.0,
    })


def json_body() -> bytes:
    """An all-JSON body (a control op) carrying float sentinels."""
    body = protocol.encode_message({
        "op": "rank", "metric": "lat", "tags": {"svc": "a"},
        "value": float("inf"), "window": [0.0, float("nan")],
    })
    assert body[:1] == b"{"
    return body


def record_bytes() -> bytes:
    return encode_record(
        "lat", {"svc": "a"}, np.array([1.5, -0.0, float("inf")]), 12.0, 13.0
    )


ENTRY_POINTS = [
    *(
        EntryPoint(
            f"loads[{name}]", SerializationError,
            functools.partial(lambda n: dumps(small_sketch(n)), name),
            lambda data, _tmp: loads(data),
        )
        for name in sorted(SKETCH_CLASSES)
    ),
    EntryPoint(
        "restore[plain]", SerializationError,
        lambda: small_store().snapshot(), restore,
    ),
    EntryPoint(
        "restore[sharded]", SerializationError,
        lambda: small_store(sharded=True).snapshot(),
        functools.partial(restore, sharded=True),
    ),
    EntryPoint(
        "adopt_partitions", SerializationError, partition_blob, adopt
    ),
    EntryPoint(
        "decode_checkpoint", CheckpointError, checkpoint_bytes,
        read_checkpoint, reseal=reseal_checkpoint,
    ),
    EntryPoint(
        "scan_segment[sealed]", WALError, segment_bytes,
        functools.partial(scan, is_final=False), prefix_invalid=False,
    ),
    EntryPoint(
        "scan_segment[final]", WALError, segment_bytes,
        functools.partial(scan, is_final=True), prefix_invalid=False,
    ),
    EntryPoint(
        "decode_message[tail]", ProtocolError, tail_body,
        lambda data, _tmp: protocol.decode_message(data),
    ),
    EntryPoint(
        "decode_record", WALError, record_bytes,
        lambda data, _tmp: decode_record(data, 7),
    ),
]


#: The all-JSON half of ``decode_message``.  It reads no codec integer
#: field, so it sits outside the table's integer-field row.
JSON_BODY = EntryPoint(
    "decode_message[json]", ProtocolError, json_body,
    lambda data, _tmp: protocol.decode_message(data),
)


# ----------------------------------------------------------------------
# Running one case under the time (and allocation) budget
# ----------------------------------------------------------------------


class _OverBudget(BaseException):
    """Raised by the interval timer; never caught by a decoder."""


def _on_alarm(_signum: int, _frame: object) -> None:
    raise _OverBudget


def outcome(entry: EntryPoint, data: bytes, tmp: Path) -> str:
    """``"ok"`` or ``"typed"``; anything else propagates and fails."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    try:
        entry.decode(data, tmp)
        return "ok"
    except entry.error:
        return "typed"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def check(
    entry: EntryPoint, label: str, data: bytes, tmp: Path,
    must_fail: bool = False,
) -> None:
    try:
        result = outcome(entry, data, tmp)
    except BaseException as exc:  # noqa: B036 - report, then re-raise
        raise AssertionError(
            f"{entry.name} / {label}: escaped as {type(exc).__name__}: "
            f"{exc} (only {entry.error.__name__} is allowed, within "
            f"{BUDGET_S}s)"
        ) from exc
    if must_fail:
        assert result == "typed", f"{entry.name} / {label}: decoded"


def integer_fields(entry: EntryPoint, data: bytes, tmp: Path):
    """``(offset, struct format)`` of every integer the top-level
    reader consumes while decoding the valid *data*."""
    fields: list[tuple[int, str]] = []
    originals = {
        "u32": ("<I", codec.Reader.u32),
        "u64": ("<Q", codec.Reader.u64),
        "i64": ("<q", codec.Reader.i64),
    }

    def recording(fmt: str, original: Callable) -> Callable:
        def read(self: codec.Reader) -> int:
            if self._data == data:
                fields.append((self.pos, fmt))
            return original(self)

        return read

    with pytest.MonkeyPatch.context() as patch:
        for method, (fmt, original) in originals.items():
            patch.setattr(codec.Reader, method, recording(fmt, original))
        entry.decode(data, tmp)
    return fields


def hostile_field_values(fmt: str) -> Iterator[bytes]:
    if fmt == "<I":
        yield struct.pack(fmt, 0xFFFFFFFF)
    elif fmt == "<Q":
        yield struct.pack(fmt, 2**62)
    else:
        for value in HOSTILE_INTS:
            yield struct.pack(fmt, value)


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda e: e.name)
class TestHostileBytes:
    def test_valid_blob_decodes(self, entry, tmp_path):
        assert outcome(entry, entry.valid(), tmp_path) == "ok"

    def test_truncation_at_every_offset(self, entry, tmp_path):
        data = entry.valid()
        for cut in range(len(data)):
            check(
                entry, f"truncated to {cut} bytes", data[:cut], tmp_path,
                must_fail=entry.prefix_invalid,
            )

    def test_trailing_garbage(self, entry, tmp_path):
        data = entry.valid()
        for tail in (b"\x00", b"\xff" * 9):
            check(
                entry, f"{len(tail)} trailing bytes",
                entry.reseal(data + tail), tmp_path,
                # A final WAL segment drops garbage as a torn tail.
                must_fail=entry.name != "scan_segment[final]",
            )

    def test_hostile_value_in_every_integer_field(self, entry, tmp_path):
        data = entry.valid()
        fields = integer_fields(entry, data, tmp_path)
        assert fields, "the recording pass saw no integer fields"
        tracemalloc.start()
        try:
            for offset, fmt in fields:
                for hostile in hostile_field_values(fmt):
                    mutated = entry.reseal(
                        data[:offset] + hostile
                        + data[offset + len(hostile):]
                    )
                    tracemalloc.reset_peak()
                    check(
                        entry,
                        f"{hostile.hex()} at offset {offset}",
                        mutated, tmp_path,
                    )
                    peak = tracemalloc.get_traced_memory()[1]
                    assert peak < ALLOC_CEILING, (
                        f"{entry.name}: {hostile.hex()} at offset "
                        f"{offset} allocated {peak} bytes from a "
                        f"{len(data)}-byte blob"
                    )
        finally:
            tracemalloc.stop()

    def test_bit_flips(self, entry, tmp_path):
        """Seeded single-bit flips: typed or decodable, never else."""
        data = entry.valid()
        rng = np.random.default_rng(5)
        for _ in range(200):
            position = int(rng.integers(len(data)))
            mutated = bytearray(data)
            mutated[position] ^= 1 << int(rng.integers(8))
            check(
                entry, f"bit flip at {position}",
                entry.reseal(bytes(mutated)), tmp_path,
            )


# ----------------------------------------------------------------------
# One fixed case per defect class found before the codecs were unified
# ----------------------------------------------------------------------


def entry(name: str) -> EntryPoint:
    return next(e for e in [*ENTRY_POINTS, JSON_BODY] if e.name == name)


def nested(depth: int, inner: bytes) -> bytes:
    return b'{"op":"ping","a":' + b'{"a":' * depth + inner + b"}" * (depth + 1)


def negative_length_kll_blob(levels: int = 2**62) -> bytes:
    """A KLL header claiming *levels* levels whose first array length
    is ``-1``: the old reader moved its cursor back over the length and
    re-read it once per claimed level (7 s per 4e6 levels)."""
    head = dumps(kll_factory())
    head = head[: head.index(b"kll") + 3 + 8 + 24]  # k, count, min, max
    return head + struct.pack("<qq", levels, -1)


def with_snapshot_header(header: bytes) -> bytes:
    return b"RPQS\x01" + struct.pack("<I", len(header)) + header


def with_tail(header: bytes, count: int) -> bytes:
    """A tail body around an arbitrary *header*."""
    return (
        b"\xf6" + struct.pack("<I", len(header)) + header
        + struct.pack("<q", count) + bytes(8 * count)
    )


def kllpm_tagged(blob: bytes) -> bytes:
    """A KLL blob re-tagged ``kllpm``: the name KLL± sketches, which
    have no codec any more, were written under."""
    assert blob[5:9] == b"\x03kll"  # magic, version, then the name
    return blob[:5] + b"\x05kllpm" + blob[9:]


def snapshot_with_a_kllpm_partition() -> bytes:
    """A plain store snapshot whose first partition is tagged ``kllpm``."""
    store = small_store()
    key = sorted(k for k in store.partition_digests() if k[0] == "f")[0]
    frozen = store.export_partitions([key])[key]  # kind, u32 length, blob
    tagged = kllpm_tagged(frozen[5:])
    return store.snapshot().replace(
        frozen, b"\x00" + struct.pack("<I", len(tagged)) + tagged
    )


#: One summary invariant each; the first also breaks the gap sum, as
#: the case that decoded and then answered rank(50) = -999,951 did.
GK_TABLE_FAULTS = (
    "first gap -1e6", "a gap of 0", "a negative band",
    "an infinite tuple value", "a decreasing tuple value",
    "gaps that miss the count", "a NaN in the buffer",
)


def broken_gk_table(name: str, fault: str) -> bytes:
    """A small GK/GKArray blob whose tuple table breaks *fault*."""
    sketch = small_sketch(name)
    first, second = sketch._tuples[:2]
    if fault == "first gap -1e6":
        first.g = -1_000_000
    elif fault == "a gap of 0":
        second.g += first.g
        first.g = 0
    elif fault == "a negative band":
        second.delta = -1
    elif fault == "an infinite tuple value":
        sketch._tuples[-1].value = float("inf")
    elif fault == "a decreasing tuple value":
        first.value = second.value + 1.0
    elif fault == "gaps that miss the count":
        first.g += 1
    else:
        sketch._buffer[0] = float("nan")
    return dumps(sketch)


def i64_array(values) -> bytes:
    """An array as the codec writes it: its length, then the int64s."""
    return struct.pack("<q", len(values)) + struct.pack(
        f"<{len(values)}q", *values
    )


def bucket_sketch_blob(
    name: str, indices=None, counts=None, zeros: int = 0
) -> bytes:
    """A blob of 1..4 in a UDDSketch or a dense-store DDSketch, with
    *zeros* as its zero count and its positive store's buckets written
    as *indices*/*counts* (a dense store writes its counts from its
    lowest bucket to its highest, empty slots included)."""
    sketch = make_sketch(name, **SMALL_CONFIGS.get(name, {}))
    sketch.update_batch([1.0, 2.0, 3.0, 4.0])
    sketch._zero_count = zeros
    held_indices, held_counts = sketch._positive.sorted_arrays()
    if name == "ddsketch":
        slots = np.zeros(held_indices[-1] - held_indices[0] + 1, np.int64)
        filled = held_indices - held_indices[0]
        slots[filled] = held_counts
        old = i64_array(slots.tolist())
        slots[filled] = held_counts if counts is None else counts
        new = i64_array(slots.tolist())
    else:
        old = i64_array(held_indices.tolist()) + i64_array(held_counts.tolist())
        new = i64_array(
            held_indices.tolist() if indices is None else indices
        ) + i64_array(held_counts.tolist() if counts is None else counts)
    data = dumps(sketch)
    assert data.count(old) == 1
    return data.replace(old, new)


def udd_indices() -> list[int]:
    """The four bucket indices of the UDDSketch blob of 1..4."""
    sketch = make_sketch("uddsketch", **SMALL_CONFIGS["uddsketch"])
    sketch.update_batch([1.0, 2.0, 3.0, 4.0])
    return sketch._positive.sorted_arrays()[0].tolist()


#: Bucket stores that decoded into sketches contradicting themselves.
BUCKET_STORE_FAULTS = [
    # zip() truncated the counts: store total 3 under count 4.
    ("loads[uddsketch]", "counts shorter than indices",
     bucket_sketch_blob("uddsketch", counts=[1, 1, 1])),
    # Empty stores under count 4: quantiles raised EmptySketchError.
    ("loads[uddsketch]", "all-zero counts",
     bucket_sketch_blob("uddsketch", counts=[0, 0, 0, 0])),
    # Summed silently, so dumps(loads(b)) != b.
    ("loads[uddsketch]", "unsorted indices",
     bucket_sketch_blob("uddsketch", indices=udd_indices()[::-1])),
    ("loads[uddsketch]", "duplicate indices",
     bucket_sketch_blob("uddsketch", indices=udd_indices()[:1] * 4)),
    # Then rank(2.5) answered -4.
    ("loads[ddsketch]", "a negative dense count",
     bucket_sketch_blob("ddsketch", counts=[-4, 1, 1, 6])),
    ("loads[uddsketch]", "uddsketch: zeros beside a full count",
     bucket_sketch_blob("uddsketch", zeros=2)),
    ("loads[ddsketch]", "ddsketch: zeros beside a full count",
     bucket_sketch_blob("ddsketch", zeros=2)),
]


def test_the_bucket_store_blobs_are_well_formed_apart_from_the_fault():
    """The fault rows' untouched blobs decode and round-trip."""
    for name in ("uddsketch", "ddsketch"):
        data = bucket_sketch_blob(name)
        assert dumps(loads(data)) == data


#: A well-formed record; each fixed case breaks one field of it.
RECORD = {
    "metric": "lat", "tags": None, "values": [1.0], "ts": 1.0, "now": 2.0,
}


FIXED_CASES = [
    ("loads[kll]", "negative array length", negative_length_kll_blob()),
    (
        "loads[kll]", "4e6 levels, negative array length",
        negative_length_kll_blob(4_000_000),
    ),
    (
        "adopt_partitions", "negative-length KLL blob inside a partition",
        b"\x00" + struct.pack("<I", len(negative_length_kll_blob()))
        + negative_length_kll_blob(),
    ),
    (
        "loads[kll]", "sketch-name byte >= 0x80",
        b"RPRO\x02\x03k\xffl" + bytes(64),
    ),
    ("loads[kll]", "a blob tagged kllpm", kllpm_tagged(dumps(kll_factory()))),
    (
        "restore[plain]", "a partition tagged kllpm",
        snapshot_with_a_kllpm_partition(),
    ),
    (
        "restore[sharded]", "unknown partitioner byte",
        with_partitioner_byte(2),
    ),
    (
        "restore[plain]", "junk JSON in the snapshot header",
        with_snapshot_header(b"{not json"),
    ),
    (
        "restore[plain]", "snapshot header missing its keys",
        with_snapshot_header(b"{}") + bytes(8),
    ),
    (
        "restore[plain]", "snapshot header that is not an object",
        with_snapshot_header(b"[1,2]") + bytes(8),
    ),
    (
        "restore[plain]", "non-UTF-8 snapshot header",
        with_snapshot_header(b"\xff\xfe\xfd"),
    ),
    (
        "restore[plain]", "snapshot header nested past the recursion limit",
        with_snapshot_header(b"[" * 100_000),
    ),
    *(
        ("decode_message[tail]", label, data)
        for label, data in (
            ("tail half a float short", tail_body()[:-4]),
            ("tail half a float long", tail_body() + bytes(4)),
            (
                "header that also carries values",
                with_tail(b'{"op":"ingest","values":[1.0]}', 1),
            ),
            ("header that is not an object", with_tail(b"[1,2]", 1)),
            ("header that is not JSON", with_tail(b"{not json", 1)),
            (
                "header nested past the recursion limit",
                with_tail(b"[" * 100_000, 1),
            ),
            ("count without its floats", with_tail(b"{}", 3)[:-16]),
        )
    ),
    *(
        ("decode_message[json]", label, data)
        for label, data in (
            ("sentinel holding a list", b'{"op":"ping","x":{"$float":[]}}'),
            ("sentinel holding an object", b'{"op":"ping","x":{"$float":{}}}'),
            ("nested sentinel holding a list", nested(1, b'{"$float":[1]}')),
            ("unknown sentinel name", b'{"op":"ping","x":{"$float":"inff"}}'),
            ("a sentinel as the whole body", b'{"$float":"inf"}'),
            (
                "a sentinel past the restore depth cap",
                nested(protocol.MAX_RESTORE_DEPTH, b'{"$float":"nan"}'),
            ),
            ("a sentinel 600 objects deep", nested(600, b'{"$float":"nan"}')),
            ("nested past the recursion limit", b"[" * 100_000),
            ("objects nested past the recursion limit", b'{"a":' * 100_000),
            ("invalid UTF-8", b'{"op":"\xff\xfe"}'),
            ("an array body", b'[{"op":"ping"}]'),
            ("a string body", b'"ping"'),
            ("a number body", b"7"),
            ("a null body", b"null"),
            ("an empty body", b""),
        )
    ),
    *(
        (f"loads[{name}]", f"{name}: {fault}", broken_gk_table(name, fault))
        for name in ("gk", "gkarray")
        for fault in GK_TABLE_FAULTS
        if name == "gkarray" or "buffer" not in fault
    ),
    *BUCKET_STORE_FAULTS,
    # CRC-valid payloads that are not records; the first four escaped
    # recover() as KeyError, ValueError, AttributeError and ValueError
    *(
        ("decode_record", label, codec.canonical_json(record))
        for label, record in (
            ("empty object", {}),
            ("values is a string", {**RECORD, "values": "abc"}),
            ("tags is a number", {**RECORD, "tags": 3}),
            ("ts is a string", {**RECORD, "ts": "x"}),
            ("no values", {**RECORD, "values": None}),
            ("values holds a string", {**RECORD, "values": [1.0, "2"]}),
            ("values is nested", {**RECORD, "values": [[1.0], [2.0]]}),
            ("now is a boolean", {**RECORD, "now": True}),
            ("ts is not finite", {**RECORD, "ts": {"$float": "nan"}}),
            ("metric is empty", {**RECORD, "metric": ""}),
            ("metric is a number", {**RECORD, "metric": 5}),
            ("not an object", [1, 2]),
        )
    ),
]


@pytest.mark.parametrize(
    "name,label,data", FIXED_CASES, ids=[c[1] for c in FIXED_CASES]
)
def test_fixed_hostile_cases(name, label, data, tmp_path):
    check(entry(name), label, data, tmp_path, must_fail=True)


def test_a_sentinel_at_the_restore_depth_cap_decodes():
    """The cap, not the interpreter's recursion limit, decides: one
    level shallower than the row above decodes on every Python."""
    depth = protocol.MAX_RESTORE_DEPTH - 1
    payload = protocol.decode_message(nested(depth, b'{"$float":"nan"}'))
    for _ in range(depth + 1):
        payload = payload["a"]
    assert math.isnan(payload)


def test_all_json_body_truncated_at_every_offset(tmp_path):
    data = JSON_BODY.valid()
    assert outcome(JSON_BODY, data, tmp_path) == "ok"
    for cut in range(len(data)):
        check(
            JSON_BODY, f"truncated to {cut} bytes", data[:cut], tmp_path,
            must_fail=True,
        )


def test_all_json_body_garbage_and_bit_flips(tmp_path):
    data = JSON_BODY.valid()
    for tail in (b"\x00", b"\xff" * 9, b"{}"):
        check(
            JSON_BODY, f"trailing {tail!r}", data + tail, tmp_path,
            must_fail=True,
        )
    rng = np.random.default_rng(5)
    for _ in range(200):
        position = int(rng.integers(len(data)))
        mutated = bytearray(data)
        mutated[position] ^= 1 << int(rng.integers(8))
        check(JSON_BODY, f"bit flip at {position}", bytes(mutated), tmp_path)


@pytest.mark.parametrize("name", sorted(SKETCH_CLASSES))
def test_a_negative_count_is_typed(name, tmp_path):
    """Before, a count patched to -1 decoded into a sketch whose
    ``count`` was -1 and which still answered ``quantile(0.5)``."""
    point = entry(f"loads[{name}]")
    sketch = small_sketch(name)
    data = dumps(sketch)
    count = struct.pack("<q", sketch.count)
    offset = next(
        offset for offset, fmt in integer_fields(point, data, tmp_path)
        if fmt == "<q" and data[offset:offset + 8] == count
    )
    mutated = data[:offset] + struct.pack("<q", -1) + data[offset + 8:]
    check(point, "count -1", mutated, tmp_path, must_fail=True)


def test_moments_inflated_num_moments_is_typed(tmp_path):
    """``num_moments = 2**40`` reached ``np.zeros`` (``MemoryError``)."""
    target = entry("loads[moments]")
    data = target.valid()
    offset = data.index(b"moments") + len(b"moments")
    mutated = data[:offset] + struct.pack("<q", 2**40) + data[offset + 8:]
    check(target, "num_moments = 2**40", mutated, tmp_path, must_fail=True)


def moments_with_grid(grid_size: int) -> bytes:
    """A grid-64 Moments blob with its carried grid set to *grid_size*."""
    sketch = make_sketch("moments", grid_size=64)
    sketch.update_batch(np.linspace(1.0, 50.0, 37))
    data = dumps(sketch)
    # name, then num_moments i64, transform u8, flags u8, grid i64
    offset = data.index(b"moments") + len(b"moments") + 10
    assert struct.unpack_from("<q", data, offset) == (64,)
    return data[:offset] + struct.pack("<q", grid_size) + data[offset + 8:]


@pytest.mark.parametrize("grid_size", [0, 1, -5, 2**17, 2**40, 2**62])
def test_moments_out_of_range_grid_is_typed(grid_size, tmp_path):
    """A grid the solver cannot use, or one whose first query would
    allocate without bound, fails at decode, not at the first query."""
    target = entry("loads[moments]")
    assert outcome(target, moments_with_grid(64), tmp_path) == "ok"
    check(
        target, f"grid_size = {grid_size}", moments_with_grid(grid_size),
        tmp_path, must_fail=True,
    )


def test_moments_unknown_flag_bits_are_typed(tmp_path):
    target = entry("loads[moments]")
    data = target.valid()
    offset = data.index(b"moments") + len(b"moments") + 9
    for flags in (0x04, 0x80, 0xFF):
        mutated = data[:offset] + bytes([flags]) + data[offset + 1:]
        check(
            target, f"flags = {flags:#04x}", mutated, tmp_path,
            must_fail=True,
        )


def test_tdigest_nan_compression_is_typed(tmp_path):
    """``int(10 * nan)`` escaped as a bare ``ValueError``."""
    target = entry("loads[tdigest]")
    data = target.valid()
    offset = data.index(b"tdigest") + len(b"tdigest")
    mutated = (
        data[:offset] + struct.pack("<d", float("nan")) + data[offset + 8:]
    )
    check(target, "compression = nan", mutated, tmp_path, must_fail=True)


def test_hdr_infinite_range_is_typed(tmp_path):
    """An infinite trackable range looped the bucket count forever."""
    target = entry("loads[hdr]")
    data = target.valid()
    offset = data.index(b"hdr") + len(b"hdr") + 8
    mutated = (
        data[:offset] + struct.pack("<d", float("inf")) + data[offset + 8:]
    )
    check(target, "highest = inf", mutated, tmp_path, must_fail=True)


def test_checkpoint_with_junk_json_behind_a_valid_crc(tmp_path):
    target = entry("decode_checkpoint")
    for label, header in (
        ("junk header", b"{not json"),
        ("header missing metrics", b'{"wal_seq":1}'),
        ("metrics is a string", b'{"metrics":"many","wal_seq":1}'),
        ("metrics is 2**62", b'{"metrics":4611686018427387904}'),
    ):
        body = struct.pack("<I", len(header)) + header
        data = reseal_checkpoint(b"RPCK\x01" + bytes(4) + body)
        check(target, label, data, tmp_path, must_fail=True)


# ----------------------------------------------------------------------
# Merges that loop: REQ's state stays the size of one sketch
# ----------------------------------------------------------------------


def req_levels_below_capacity(sketch) -> bool:
    return all(len(c.buffer) < c.nom_capacity for c in sketch._compactors)


def test_req_self_merges_stay_sketch_sized():
    """A decoded REQ merged into itself 8 times holds 256 times its
    count; a merge compacts each full level to below capacity, so its
    bytes stay within twice the decoded sketch's.  Each merge used to
    keep both operands' items, doubling the state every time."""
    sketch = make_sketch("req", seed=3)
    values = np.random.default_rng(11).random(100_000)
    sketch.update_batch(np.floor(1.0 + 50.0 * values))
    decoded = loads(dumps(sketch))
    size = decoded.size_bytes()
    for _ in range(8):
        decoded.merge(decoded)
    assert decoded.count == 256 * sketch.count
    assert decoded.size_bytes() <= 2 * size
    assert req_levels_below_capacity(decoded)


#: ``exact`` keeps every value, so 8 self-merges make it 256x by design.
SELF_MERGING = sorted(set(SKETCH_CLASSES) - {"exact"})


@pytest.mark.parametrize("name", SELF_MERGING)
def test_decoded_self_merges_stay_sketch_sized(name):
    """The REQ row above, for every sketch in the registry: a decoded
    100k-value Pareto sketch merged into itself 8 times stays within
    twice its decoded bytes."""
    sketch = make_sketch(name)
    sketch.update_batch(1.0 + np.random.default_rng(11).pareto(1.0, 100_000))
    decoded = loads(dumps(sketch))
    size = decoded.size_bytes()
    for _ in range(8):
        decoded.merge(decoded)
    assert decoded.count == 256 * sketch.count
    assert decoded.size_bytes() <= 2 * size


def req_full_operand(num_sections: int, hra: bool, n: int, fill: int):
    """A REQ fed *n* values whose every level is then padded to *fill*
    times its capacity (weights counted), round-tripped through the
    codec: a decoded operand whose levels sit at or over capacity."""
    sketch = ReqSketch(num_sections, hra=hra, seed=n)
    sketch.update_batch(1.0 + np.random.default_rng(n).pareto(1.0, n))
    for height, compactor in enumerate(sketch._compactors):
        pad = max(fill * compactor.nom_capacity - len(compactor.buffer), 0)
        compactor.buffer.extend([1.0 + height] * pad)
        sketch._count += pad << height
    return loads(dumps(sketch))


MERGE_STEPS = st.one_of(
    st.tuples(st.just("part"), st.integers(0, 3_000)),
    st.tuples(st.just("self"), st.just(0)),
    st.tuples(st.just("into-empty"), st.just(0)),
    st.tuples(st.just("full"), st.integers(0, 3_000)),
)


@settings(max_examples=30, deadline=None)
@given(
    num_sections=st.sampled_from((4, 8, 30)),
    hra=st.booleans(),
    fill=st.integers(1, 3),
    merges=st.lists(MERGE_STEPS, min_size=1, max_size=6),
)
def test_every_req_merge_leaves_levels_below_capacity(
    num_sections, hra, fill, merges
):
    folded = ReqSketch(num_sections, hra=hra, seed=1)
    count = 0
    for kind, n in merges:
        if kind == "part":
            operand = ReqSketch(num_sections, hra=hra, seed=n)
            operand.update_batch(1.0 + np.random.default_rng(n).pareto(1.0, n))
        elif kind == "full":
            operand = req_full_operand(num_sections, hra, n, fill)
        elif kind == "self":
            operand = folded
        else:  # the fold so far, merged into an empty sketch
            operand, folded = folded, ReqSketch(num_sections, hra=hra, seed=2)
            count = 0
        count += operand.count
        folded.merge(operand)
        assert folded.count == count
        assert folded.num_retained == sum(
            len(c.buffer) for c in folded._compactors
        )
        assert req_levels_below_capacity(folded), (kind, n)


# ----------------------------------------------------------------------
# The tail body over a live socket
# ----------------------------------------------------------------------


def converse(address, frames: bytes) -> list[dict]:
    """Send *frames* and hang up; every response until the server does."""
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.sendall(frames)
        sock.shutdown(socket.SHUT_WR)
        rfile = sock.makefile("rb")
        return list(iter(lambda: protocol.read_frame(rfile), None))


def framed(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


class TestTailBodyOverASocket:
    @pytest.fixture()
    def server(self):
        registry = MetricRegistry(clock=ManualClock(10_000.0))
        with QuantileServer(registry) as server:
            yield server

    def test_hostile_tail_gets_one_protocol_error_then_close(self, server):
        hostile = [
            data for name, _label, data in FIXED_CASES
            if name == "decode_message[tail]"
        ]
        for count in HOSTILE_INTS:
            valid = tail_body()
            hostile.append(
                valid[:-8 * 4 - 8] + struct.pack("<q", count) + valid[-32:]
            )
        for body in hostile:
            responses = converse(server.address, framed(body))
            assert [r["ok"] for r in responses] == [False], body[:40]
            assert responses[0]["error"] == "protocol"
        # none of it reached the pipeline, and the server still serves
        accepted, stats = converse(
            server.address,
            framed(tail_body()) + protocol.encode_frame({"op": "stats"}),
        )
        assert accepted == protocol.ok(accepted=4)
        assert stats["stats"]["ingest_requests"] == 1

    def test_hostile_json_gets_one_protocol_error_then_ping(self, server):
        """Before, a sentinel holding a list or an object escaped the
        frame reader as a bare ``TypeError``: the connection died with
        no answer."""
        hostile = [
            (label, data) for name, label, data in FIXED_CASES
            if name == "decode_message[json]"
        ]
        ping = protocol.encode_frame({"op": "ping"})
        for label, body in hostile:
            responses = converse(server.address, framed(body) + ping)
            assert [r.get("error") for r in responses] == ["protocol"], label
            assert converse(server.address, ping) == [protocol.ok(pong=True)]

    def test_frame_ceiling_bounds_header_and_tail_together(
        self, server, monkeypatch
    ):
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 4096)
        request = {"op": "ingest", "metric": "m", "values": np.ones(500)}
        fits = protocol.encode_frame(request)
        assert 4008 < len(fits) - 4 <= 4096
        # the same tail behind a longer header is over the ceiling
        request["metric"] = "m" * 100
        with pytest.raises(ProtocolError):
            protocol.encode_frame(request)
        body = protocol.encode_message(request)
        assert len(body) > 4096
        # ...and the server refuses it on the length prefix alone
        responses = converse(server.address, framed(body)[:4])
        assert [r.get("error") for r in responses] == ["protocol"]
        assert converse(server.address, fits) == [protocol.ok(accepted=500)]
