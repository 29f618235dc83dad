"""The one byte codec behind every binary format in the repo.

Sketch payloads (``RPRO``), store snapshots and partition blobs
(``RPQS``), checkpoints (``RPCK``) and WAL segments (``RPWL``) are all
written by :class:`Writer` and read by :class:`Reader`, so they share
one decoding contract, enforced here and nowhere else: every read is
bounds-checked, no length is negative, a declared count is checked
against the remaining bytes before anyone loops or allocates on it, and
whatever else goes wrong inside a ``with Reader(...)`` block leaves as
the caller's one typed :class:`~repro.errors.ReproError` subclass.

All integers are little-endian.  :mod:`repro.service.protocol` keeps
its own big-endian stream framing: it reads a socket, not a buffer.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, NoReturn, Sequence

import numpy as np

from repro.errors import ReproError

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")

#: What hostile bytes provoke besides the typed error: constructor
#: rejections, bad JSON/ASCII, missing keys, wrong shapes, overflow,
#: and JSON nested deeper than the interpreter recurses.
_MALFORMED = (
    ReproError, ValueError, TypeError, LookupError, ArithmeticError,
    RecursionError,
)


def crc32(data: bytes) -> int:
    """Unsigned CRC-32 of *data* (the WAL and checkpoint checksum)."""
    return zlib.crc32(data) & 0xFFFFFFFF


def canonical_json(obj: Any) -> bytes:
    """JSON with sorted keys and no whitespace: equal objects, equal bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


class Writer:
    """Append-only little-endian binary writer."""

    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def u8(self, value: int) -> None:
        self._parts.append(_U8.pack(value))

    def u32(self, value: int) -> None:
        self._parts.append(_U32.pack(value))

    def u64(self, value: int) -> None:
        self._parts.append(_U64.pack(value))

    def i64(self, value: int) -> None:
        self._parts.append(_I64.pack(value))

    def f64(self, value: float) -> None:
        self._parts.append(_F64.pack(value))

    def raw(self, data: bytes) -> None:
        self._parts.append(data)

    def blob(self, data: bytes) -> None:
        """*data* behind a ``u32`` length prefix."""
        self.u32(len(data))
        self._parts.append(data)

    def _array(self, values: Sequence[float] | np.ndarray, dtype: str) -> None:
        array = np.asarray(values, dtype=dtype)
        self.i64(array.size)
        self._parts.append(array.tobytes())

    def f64_array(self, values: Sequence[float] | np.ndarray) -> None:
        """``i64`` element count, then the float64 values."""
        self._array(values, "<f8")

    def i64_array(self, values: Sequence[int] | np.ndarray) -> None:
        """``i64`` element count, then the int64 values."""
        self._array(values, "<i8")

    def header(self, magic: bytes, version: int) -> None:
        self._parts.append(magic)
        self.u8(version)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class Reader:
    """Sequential bounds-checked reader raising one typed error.

    *error* is the :class:`~repro.errors.ReproError` subclass the
    decode entry point promises its callers; *what* names the container
    in messages (``"store snapshot"``).  Used as a context manager, any
    other exception the decode body provokes is re-raised as *error*.
    """

    def __init__(
        self, data: bytes, error: type[ReproError], what: str
    ) -> None:
        self._data = data
        self._error = error
        self._what = what
        self.pos = 0

    def __enter__(self) -> "Reader":
        return self

    def __exit__(self, _type: object, exc: BaseException | None,
                 _traceback: object) -> None:
        if isinstance(exc, _MALFORMED) and not isinstance(exc, self._error):
            raise self._error(
                f"malformed {self._what}: {type(exc).__name__}: {exc}"
            ) from exc

    def fail(self, problem: str) -> NoReturn:
        raise self._error(f"{self._what}: {problem}")

    @property
    def remaining(self) -> int:
        return len(self._data) - self.pos

    def _advance(self, n: int) -> int:
        """Claim the next *n* bytes; returns their offset.  A negative
        *n* fails too: it would walk the cursor back and let a tiny
        blob be re-read forever."""
        if not 0 <= n <= self.remaining:
            self.fail(
                f"{n} bytes wanted at offset {self.pos}, "
                f"{self.remaining} left"
            )
        start = self.pos
        self.pos = start + n
        return start

    def u8(self) -> int:
        return _U8.unpack_from(self._data, self._advance(1))[0]

    def u32(self) -> int:
        return _U32.unpack_from(self._data, self._advance(4))[0]

    def u64(self) -> int:
        return _U64.unpack_from(self._data, self._advance(8))[0]

    def i64(self) -> int:
        return _I64.unpack_from(self._data, self._advance(8))[0]

    def f64(self) -> float:
        return _F64.unpack_from(self._data, self._advance(8))[0]

    def raw(self, n: int) -> bytes:
        start = self._advance(n)
        return self._data[start : start + n]

    def blob(self) -> bytes:
        """A ``u32``-length-prefixed byte string."""
        return self.raw(self.u32())

    def count(self, min_item_bytes: int = 1) -> int:
        """An ``i64`` element count the remaining bytes can back: each
        element takes at least *min_item_bytes*, so a count the input
        is too short for is rejected here, before the caller loops or
        allocates on its say-so."""
        n = self.i64()
        if not 0 <= n <= self.remaining // min_item_bytes:
            self.fail(
                f"count {n} at offset {self.pos - 8} exceeds the "
                f"{self.remaining} bytes left"
            )
        return n

    def _array(self, dtype: str) -> np.ndarray:
        size = self.count(8)
        return np.frombuffer(
            self._data, dtype, size, self._advance(8 * size)
        ).copy()

    def f64_array(self) -> np.ndarray:
        return self._array("<f8")

    def i64_array(self) -> np.ndarray:
        return self._array("<i8")

    def header(self, magic: bytes, version: int) -> None:
        if self.raw(len(magic)) != magic:
            self.fail(f"bad magic (expected {magic!r})")
        found = self.u8()
        if found != version:
            self.fail(f"unsupported format version {found}")

    def finish(self) -> None:
        if self.remaining:
            self.fail(f"{self.remaining} trailing bytes")
