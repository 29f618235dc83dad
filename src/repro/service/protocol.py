"""Length-prefixed JSON wire protocol for the quantile service.

Frames are ``u32 big-endian length | body``.  A body is UTF-8 JSON:
that keeps the protocol inspectable (``nc`` + a hex dump is a working
debugger) while the length prefix gives exact message boundaries over
TCP.  Bodies are encoded *canonically* — sorted keys, no whitespace —
so a response is a deterministic function of its payload; the
end-to-end determinism test relies on two identical server runs
emitting byte-identical frames.

Values tail
-----------
A message whose top-level ``"values"`` is a sequence of numbers — an
ingest request, a WAL record — does not spell each float as text.  Its
body is ``0xF6 | u32 header length | JSON header | i64 count | count
little-endian float64``: the same canonical JSON object minus
``"values"``, then the bytes the sketch will read.  ``0xF6`` can begin
no UTF-8 text, so the first byte decides the shape and every other
message keeps its all-JSON body.  The tail is read through
:class:`repro.core.codec.Reader` (count checked against the remaining
bytes before anything is allocated) into a 1-D ``float64`` array the
caller owns.  An all-JSON body carrying a ``"values"`` list still
decodes (hand-typed frames, WAL directories older than the tail);
nothing emits one.

Requests are objects with an ``"op"`` field; responses always carry
``"ok"``.  Failures are data, not connection state: the server answers
``{"ok": false, "error": <code>, "message": ...}`` and keeps the
connection open, with ``"overloaded"`` as the explicit load-shedding
code (``"shed": true``) a client must not blindly retry.  A hostile
field in any op is answered the same way, on the server, a cluster
node and the routing proxy alike —
``tests/integration/test_hostile_requests.py`` holds every op's fields
to it.

Non-finite floats
-----------------
Bare ``Infinity``/``NaN`` tokens are a Python ``json`` extension, not
valid JSON — emitting them breaks every strict cross-language client.
The codec therefore transports non-finite floats as explicit sentinel
objects, ``{"$float": "inf" | "-inf" | "nan"}``, encoded on the way out
and restored to real floats on the way in.  This keeps legitimate
payloads like ``rank(metric, inf)`` or an empty sketch's ``_min=inf``
on the wire while the body stays strict JSON (``allow_nan=False`` is
the enforcement backstop).  Real payloads can never collide with the
sentinel: a one-key ``{"$float": <str>}`` mapping is reserved.
"""

from __future__ import annotations

import json
import math
import struct
from array import array
from typing import Any, BinaryIO

import numpy as np

from repro.core.codec import Reader, Writer
from repro.errors import ProtocolError

#: Reserved key marking a non-finite float sentinel object.
FLOAT_SENTINEL_KEY = "$float"

_SENTINEL_TEXT = f'"{FLOAT_SENTINEL_KEY}"'
_SENTINEL_BYTES = FLOAT_SENTINEL_KEY.encode()
#: Canonical form: sorted keys, no whitespace, no bare Infinity/NaN.
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
)

_FLOAT_ENCODE = {math.inf: "inf", -math.inf: "-inf"}
_FLOAT_DECODE = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def _sanitize(value: Any) -> Any:
    """Replace non-finite floats with sentinel objects, recursively."""
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return {FLOAT_SENTINEL_KEY: "nan"}
        return {FLOAT_SENTINEL_KEY: _FLOAT_ENCODE[value]}
    if isinstance(value, dict):
        if FLOAT_SENTINEL_KEY in value:
            raise ProtocolError(
                f"payload object uses the reserved key "
                f"{FLOAT_SENTINEL_KEY!r}"
            )
        return {key: _sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(item) for item in value]
    return value


def _restore(value: Any) -> Any:
    """Inverse of :func:`_sanitize`: sentinel objects back to floats."""
    if isinstance(value, dict):
        if set(value) == {FLOAT_SENTINEL_KEY}:
            name = value[FLOAT_SENTINEL_KEY]
            try:
                return _FLOAT_DECODE[name]
            except KeyError:
                raise ProtocolError(
                    f"unknown float sentinel {name!r}; expected one of "
                    f"{sorted(_FLOAT_DECODE)}"
                ) from None
        return {key: _restore(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_restore(item) for item in value]
    return value

#: Hard ceiling on one frame's body, protecting both sides from a
#: corrupt or hostile length prefix.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LENGTH = struct.Struct(">I")

#: First byte of a body with a values tail; never the first byte of
#: UTF-8 text, so never of an all-JSON body.
_TAIL_MARKER = b"\xf6"

#: Error code the server uses when shedding ingest load.
OVERLOADED = "overloaded"


def float_values(values: Any) -> np.ndarray:
    """*values* as a 1-D float64 array the caller owns.

    The one "flat and numeric" check behind the encoder, the server's
    ingest validation and the WAL record decoder.  A list goes through
    ``array("d")``: ``float()`` per item in C, minus its string
    parsing, so strings, ``None`` and nested lists are refused rather
    than coerced.  NaN and ±inf pass — rejecting them is the sketch's
    decision, made at apply.
    """
    try:
        if isinstance(values, np.ndarray):
            if values.ndim != 1 or values.dtype.kind not in "fiub":
                raise TypeError(f"{values.ndim}-D {values.dtype} array")
            return values.astype(np.float64)
        if not isinstance(values, (list, tuple)):
            raise TypeError(f"{type(values).__name__} is not a sequence")
        return np.asarray(array("d", values))
    except (TypeError, OverflowError) as exc:
        raise ProtocolError(
            f"'values' must be a flat sequence of numbers: {exc}"
        ) from exc


def _encode_json(payload: dict[str, Any]) -> bytes:
    """Canonical JSON of *payload*; only one holding a non-finite float
    or the reserved key's text pays for the :func:`_sanitize` walk."""
    try:
        try:
            body = _ENCODER.encode(payload)
        except ValueError:  # a non-finite float: spell it as a sentinel
            body = _ENCODER.encode(_sanitize(payload))
        else:
            if _SENTINEL_TEXT in body:  # refuse the reserved key
                _sanitize(payload)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"payload is not JSON-encodable: {exc}") from exc
    return body.encode("utf-8")


def encode_message(payload: dict[str, Any]) -> bytes:
    """Body bytes for *payload*: canonical JSON (sorted keys, no
    whitespace), with a top-level ``"values"`` sequence moved into the
    float64 tail (see the module docstring).

    Non-finite floats in the JSON are transported as sentinel objects;
    ``allow_nan=False`` guarantees no bare ``Infinity``/``NaN`` token
    can ever reach the wire.
    """
    values = payload.get("values")
    if not isinstance(values, (list, tuple, np.ndarray)):
        return _encode_json(payload)
    header = {key: item for key, item in payload.items() if key != "values"}
    writer = Writer()
    writer.raw(_TAIL_MARKER)
    writer.blob(_encode_json(header))
    writer.f64_array(float_values(values))
    return writer.getvalue()


def encode_frame(payload: dict[str, Any]) -> bytes:
    """Length-prefixed frame for *payload*."""
    body = encode_message(payload)
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(body)) + body


def _decode_json(body: bytes) -> dict[str, Any]:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ProtocolError(f"undecodable frame body: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got "
            f"{type(payload).__name__}"
        )
    # A sentinel's key is on the wire verbatim or, at most, \u-escaped.
    if _SENTINEL_BYTES in body or b"\\u" in body:
        return _restore(payload)
    return payload


def decode_message(body: bytes) -> dict[str, Any]:
    """Parse one frame body back into a message object.

    Float sentinel objects are restored to real non-finite floats and a
    values tail comes back as ``"values"``, a float64 array, so
    ``decode_message(encode_message(p))`` equals *p* for any encodable
    *p* up to that list-to-array conversion.
    """
    if body[:1] != _TAIL_MARKER:
        return _decode_json(body)
    with Reader(body, ProtocolError, "frame body") as reader:
        reader.raw(1)
        payload = _decode_json(reader.blob())
        if "values" in payload:
            reader.fail("'values' in both the header and the tail")
        payload["values"] = reader.f64_array()
        reader.finish()
    return payload


def write_frame(stream: BinaryIO, payload: dict[str, Any]) -> None:
    """Write one frame to a binary stream and flush it."""
    stream.write(encode_frame(payload))
    stream.flush()


def read_frame(stream: BinaryIO) -> dict[str, Any] | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    header = _read_exact(stream, _LENGTH.size, allow_eof=True)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"incoming frame of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    body = _read_exact(stream, length, allow_eof=False)
    assert body is not None  # allow_eof=False never returns None
    return decode_message(body)


def _read_exact(
    stream: BinaryIO, n: int, allow_eof: bool
) -> bytes | None:
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            if allow_eof and remaining == n:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining} of "
                f"{n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ----------------------------------------------------------------------
# Response constructors (shared by server and tests)
# ----------------------------------------------------------------------


def ok(**fields: Any) -> dict[str, Any]:
    response: dict[str, Any] = {"ok": True}
    response.update(fields)
    return response


def error(code: str, message: str, **fields: Any) -> dict[str, Any]:
    response: dict[str, Any] = {
        "ok": False, "error": code, "message": message,
    }
    response.update(fields)
    return response


def shed(message: str) -> dict[str, Any]:
    """The load-shedding response: explicit, machine-detectable."""
    return error(OVERLOADED, message, shed=True)
