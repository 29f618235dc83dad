"""Unit tests for the shared byte codec's reader contract.

Format stability is pinned by ``test_golden_formats.py`` and the five
decode entry points by ``tests/integration/test_hostile_bytes.py``;
these cover the primitives directly.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.codec import Reader, Writer, canonical_json, crc32
from repro.errors import (
    CheckpointError,
    DurabilityError,
    InvalidValueError,
    SerializationError,
    WALError,
)


def reader(data: bytes) -> Reader:
    return Reader(data, SerializationError, "test blob")


def sample() -> bytes:
    w = Writer()
    w.header(b"DEMO", 3)
    w.u8(7)
    w.u32(2**32 - 1)
    w.u64(2**64 - 1)
    w.i64(-5)
    w.f64(-0.0)
    w.blob(b"abc")
    w.f64_array([1.5, -2.5])
    w.i64_array(np.arange(3))
    return w.getvalue()


def test_round_trip_of_every_primitive():
    r = reader(sample())
    r.header(b"DEMO", 3)
    assert (r.u8(), r.u32(), r.u64(), r.i64()) == (7, 2**32 - 1, 2**64 - 1, -5)
    assert np.signbit(r.f64())
    assert r.blob() == b"abc"
    assert r.f64_array().tolist() == [1.5, -2.5]
    assert r.i64_array().tolist() == [0, 1, 2]
    r.finish()


def test_arrays_are_owned_copies():
    w = Writer()
    w.f64_array([1.0, 2.0])
    values = reader(w.getvalue()).f64_array()
    values[0] = 9.0  # writable: not a view of the input buffer
    assert values.flags.owndata


@pytest.mark.parametrize("n", [-1, -8, 5])
def test_raw_rejects_negative_and_overlong_lengths(n):
    r = reader(b"abcd")
    with pytest.raises(SerializationError):
        r.raw(n)
    assert r.pos == 0  # a failed read never moves the cursor


@pytest.mark.parametrize("claimed", [-1, 3, 2**40, 2**62])
def test_count_is_checked_against_the_remaining_bytes(claimed):
    w = Writer()
    w.i64(claimed)
    w.raw(bytes(16))  # room for two 8-byte items, not three
    with pytest.raises(SerializationError):
        reader(w.getvalue()).count(8)


def test_count_accepts_what_the_bytes_can_back():
    w = Writer()
    w.i64(2)
    w.raw(bytes(16))
    assert reader(w.getvalue()).count(8) == 2


def test_header_and_finish():
    with pytest.raises(SerializationError, match="bad magic"):
        reader(sample()).header(b"NOPE", 3)
    with pytest.raises(SerializationError, match="version 3"):
        reader(sample()).header(b"DEMO", 4)
    with pytest.raises(SerializationError, match="trailing"):
        reader(sample()).finish()


@pytest.mark.parametrize(
    "provoke",
    [
        lambda: b"\xff".decode("ascii"),
        lambda: {}["missing"],
        lambda: int(float("nan")),
        lambda: int(float("inf")),
        lambda: range(1.5),  # type: ignore[call-overload]
        lambda: json.loads("[" * 100_000),
        lambda: (_ for _ in ()).throw(InvalidValueError("rejected")),
    ],
)
def test_context_manager_types_whatever_the_body_raises(provoke):
    with pytest.raises(CheckpointError) as caught:
        with Reader(b"", CheckpointError, "checkpoint x"):
            provoke()
    assert caught.value.__cause__ is not None
    assert "checkpoint x" in str(caught.value)


def test_context_manager_passes_its_own_error_family_through():
    with pytest.raises(WALError, match="^inner$"):
        with Reader(b"", DurabilityError, "segment"):
            raise WALError("inner")


def test_context_manager_leaves_non_decode_failures_alone():
    for unrelated in (KeyboardInterrupt, MemoryError, AssertionError):
        with pytest.raises(unrelated):
            with Reader(b"", SerializationError, "blob"):
                raise unrelated()


def test_crc32_and_canonical_json():
    assert crc32(b"") == 0
    assert crc32(b"123456789") == 0xCBF43926
    assert canonical_json({"b": 1, "a": [1.5, None]}) == b'{"a":[1.5,null],"b":1}'
