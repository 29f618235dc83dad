"""One declaration of every wire op.

:data:`OPS` names every op the standalone server, a cluster node and
the routing proxy speak, with its route at the proxy:

* ``local`` — every endpoint answers it itself;
* ``leader`` — forwarded to the tenant key's leader;
* ``replica`` — the leader, or a fresh follower (DESIGN §14);
* ``all`` — every alive node, the answers folded by the op's
  ``combine``;
* ``node`` — node-to-node plumbing the proxy refuses (``unknown_op``).

An endpoint serves an op by defining ``_op_<name>``, and
:func:`handlers` binds those, so a dispatch is one dict lookup.
Handlers read request fields only through the readers below, and
every exception that means "the request is at fault" becomes an error
answer through :data:`ANSWERED` and :func:`answer`.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping, NamedTuple

import numpy as np

from repro.errors import (
    EmptySketchError,
    InsufficientDataError,
    InvalidQuantileError,
    InvalidValueError,
    ProtocolError,
    SolverError,
)
from repro.service import protocol
from repro.service.registry import IngestOp, MetricKey

Answer = dict[str, Any]
Handler = Callable[[dict[str, Any]], Answer]
Combine = Callable[[list[Answer]], Answer]

LOCAL, LEADER, REPLICA, ALL, NODE = "local", "leader", "replica", "all", "node"


class Op(NamedTuple):
    route: str
    #: Request fields the handler reads, besides ``op``.
    fields: tuple[str, ...] = ()
    #: ``all`` ops: one answer from every node's ok answers.
    combine: Combine | None = None


def _union(answers: list[Answer]) -> Answer:
    seen: dict[tuple[str, tuple[tuple[str, str], ...]], Any] = {}
    for reply in answers:
        for entry in reply["metrics"]:
            tags = tuple(sorted(dict(entry.get("tags", {})).items()))
            seen.setdefault((str(entry["name"]), tags), entry)
    return protocol.ok(metrics=[seen[key] for key in sorted(seen)])


def _sum(answers: list[Answer]) -> Answer:
    merged: dict[str, int] = {}
    for reply in answers:
        for field, value in dict(reply["stats"]).items():
            if isinstance(value, int):
                merged[field] = merged.get(field, 0) + value
    merged["nodes_reporting"] = len(answers)
    return protocol.ok(stats=merged)


def _max(answers: list[Answer]) -> Answer:
    seqs = [int(reply["checkpoint_seq"]) for reply in answers]
    return protocol.ok(checkpoint_seq=max(seqs))


_KEYED = ("metric", "tags", "t0", "t1")

OPS: dict[str, Op] = {
    "ping": Op(LOCAL),
    "node_info": Op(LOCAL),
    "cluster_view": Op(LOCAL, ("view",)),
    "ingest": Op(LEADER, ("metric", "tags", "values", "timestamp_ms")),
    "quantile": Op(REPLICA, _KEYED + ("q",)),
    "rank": Op(REPLICA, _KEYED + ("value",)),
    "cdf": Op(REPLICA, _KEYED + ("value",)),
    "count": Op(REPLICA, _KEYED),
    "metrics": Op(ALL, combine=_union),
    "stats": Op(ALL, combine=_sum),
    "checkpoint": Op(ALL, combine=_max),
    "flush": Op(ALL, combine=lambda answers: protocol.ok(flushed=True)),
    "cq_register": Op(NODE, ("query",)),
    "cq_unregister": Op(NODE, ("id",)),
    "cq_list": Op(NODE),
    "cq_eval": Op(NODE),
    "cq_results": Op(NODE, ("limit",)),
    "repl_pull": Op(NODE, ("after", "peer", "max_records")),
    "ae_frontier": Op(NODE),
    "ae_fetch": Op(NODE, ("origin", "items")),
}


def handlers(endpoint: object) -> dict[str, Handler]:
    """``{op: endpoint._op_<op>}`` for every op *endpoint* defines."""
    bound = {name: getattr(endpoint, f"_op_{name}", None) for name in OPS}
    return {name: handler for name, handler in bound.items() if handler}


# -- error answers ------------------------------------------------------

#: What a handler raises when the request, not the endpoint, is at
#: fault, or when the sketch holds too little to answer it (a Moments
#: read of fewer than five values, or a fit that diverged).
ANSWERED = (
    EmptySketchError, InsufficientDataError, SolverError,
    InvalidQuantileError, InvalidValueError, ProtocolError,
    KeyError, TypeError, ValueError,
)


def answer(exc: Exception) -> Answer:
    """The error answer for an :data:`ANSWERED` exception."""
    if isinstance(exc, EmptySketchError):
        return protocol.error("empty", str(exc))
    if isinstance(exc, (InsufficientDataError, SolverError)):
        return protocol.error("unanswerable", str(exc))
    if isinstance(exc, InvalidQuantileError):
        return protocol.error("invalid_quantile", str(exc))
    if isinstance(exc, (InvalidValueError, ProtocolError)):
        return protocol.error("bad_request", str(exc))
    return protocol.error("bad_request", f"{type(exc).__name__}: {exc}")


# -- field readers --------------------------------------------------------


def _float(value: Any, field: str) -> float:
    if type(value) is float:  # the common case, checked call-free
        return value
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidValueError(f"request needs a numeric {field!r} field")
    try:
        return float(value)
    except OverflowError:
        raise InvalidValueError(f"{field!r} is out of range") from None


def number(
    request: Mapping[str, Any], field: str, default: float | None = None
) -> float:
    """A JSON number, as a float (bools refused); *default* when absent."""
    return _float(request.get(field, default), field)


def quantiles(request: Mapping[str, Any]) -> float | list[float]:
    """``q``: one number, or a list of numbers."""
    q = request.get("q")
    if isinstance(q, list):
        return [_float(item, "q") for item in q]
    return _float(q, "q")


def window(request: Mapping[str, Any]) -> tuple[float | None, float | None]:
    """``(t0, t1)``, each a number or absent (``None``)."""
    t0, t1 = request.get("t0"), request.get("t1")
    return (
        None if t0 is None else _float(t0, "t0"),
        None if t1 is None else _float(t1, "t1"),
    )


def integer(
    request: Mapping[str, Any], field: str, default: int | None = None
) -> int | None:
    """An integer (bools refused); *default* when absent."""
    value = request.get(field, default)
    if value is None and default is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidValueError(f"{field!r} must be an integer")
    return value


def string(
    request: Mapping[str, Any], field: str, optional: bool = False
) -> str:
    """A non-empty string (``""`` when *optional* and absent)."""
    value = request.get(field)
    if value is None and optional:
        return ""
    if not isinstance(value, str) or not value:
        raise InvalidValueError(
            f"request needs a non-empty string {field!r}"
        )
    return value


def obj(request: Mapping[str, Any], field: str) -> dict[str, Any]:
    """A JSON object."""
    value = request.get(field)
    if not isinstance(value, dict):
        raise InvalidValueError(f"request needs a {field!r} object")
    return value


def listing(
    request: Mapping[str, Any], field: str, kind: type, default: Any = None
) -> list[Any]:
    """A list of *kind* items; *default* when absent."""
    value = request.get(field, default)
    if not isinstance(value, list) or not all(
        isinstance(item, kind) for item in value
    ):
        raise InvalidValueError(f"{field!r} must be a list of {kind.__name__}")
    return value


def series(request: Mapping[str, Any]) -> tuple[str, dict[str, str] | None]:
    """``(metric, tags)``: a non-empty name, and an object of tags
    (values stringified) or ``None``."""
    name = request.get("metric")
    if not isinstance(name, str) or not name:
        raise InvalidValueError("request needs a non-empty string 'metric'")
    tags = request.get("tags")
    if tags is None:
        return name, None
    if not isinstance(tags, dict):
        raise InvalidValueError("'tags' must be an object of strings")
    return name, {str(key): str(value) for key, value in tags.items()}


def tenant_key(request: Mapping[str, Any]) -> str:
    """The ``metric{tags}`` key a keyed request addresses."""
    return str(MetricKey.of(*series(request)))


def ingest_op(request: Mapping[str, Any]) -> IngestOp:
    """The op of a valid ingest frame, clock not yet read (``now`` is
    ``None``); *values* is a float64 array nobody else holds."""
    name, tags = series(request)
    raw = request.get("values")
    if not isinstance(raw, (list, np.ndarray)) or len(raw) == 0:
        raise InvalidValueError("ingest needs a non-empty 'values' list")
    values = protocol.float_values(raw)
    timestamp_ms = request.get("timestamp_ms")
    if timestamp_ms is not None:
        timestamp_ms = _float(timestamp_ms, "timestamp_ms")
        if not math.isfinite(timestamp_ms):  # no partition holds it
            raise InvalidValueError("'timestamp_ms' must be finite")
    return IngestOp(name, tags, values, timestamp_ms, None)
