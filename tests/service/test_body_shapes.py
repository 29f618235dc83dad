"""Same values, same bytes: the two body shapes an ingest can arrive in.

``client.ingest`` sends a JSON header with a float64 tail; a hand-typed
frame (or a client written before the tail existed) sends one all-JSON
body with a ``"values"`` list.  The server must not be able to tell
them apart after ``ops.ingest_op``: the same seeded stream through
either leaves byte-identical store snapshots, the same WAL sequence and
the same count of batches rejected at apply.
"""

import math
import socket
import struct

import numpy as np
import pytest

from repro.core.codec import canonical_json
from repro.durability import DurabilityManager
from repro.service import (
    ManualClock,
    MetricRegistry,
    QuantileClient,
    QuantileServer,
    protocol,
)
from tests.conftest import all_json_values

START_MS = 1_000_000.0


def stream():
    """(metric, tags, values, timestamp_ms) batches: edge-case floats,
    a batch the sketch rejects, then seeded bulk."""
    rng = np.random.default_rng(20231107)
    yield "lat", {"svc": "api"}, [1.5, -0.0, 5e-324, 1e308, 7], START_MS
    # key and timestamp of the batch after it: apply_ops may group
    # the two or not, and the store counts only what it applied
    yield "lat", None, [2.0, math.inf, -math.inf, math.nan], START_MS
    for index in range(12):
        name = ("lat", "rps")[index % 2]
        values = (1.0 + rng.pareto(1.0, 40)).tolist()
        yield name, None, values, START_MS + 400.0 * index


def all_json_frame(metric, tags, values, timestamp_ms) -> bytes:
    request = {
        "op": "ingest", "metric": metric, "timestamp_ms": timestamp_ms,
        "values": all_json_values(values),
    }
    if tags is not None:
        request["tags"] = tags
    body = canonical_json(request)
    assert body.startswith(b"{")
    return struct.pack(">I", len(body)) + body


def send_json(address, batches) -> list[dict]:
    with socket.create_connection(address, timeout=5.0) as sock:
        rfile = sock.makefile("rb")
        responses = []
        for batch in batches:
            sock.sendall(all_json_frame(*batch))
            responses.append(protocol.read_frame(rfile))
        return responses


def send_client(address, batches) -> list[dict]:
    with QuantileClient(*address, retries=0) as client:
        return [
            protocol.ok(accepted=client.ingest(
                metric, np.array(values, dtype=np.float64),
                timestamp_ms=timestamp_ms, tags=tags,
            ))
            for metric, tags, values, timestamp_ms in batches
        ]


def run(send, data_dir):
    """Serve, send the stream, drain; what the server is left holding."""
    clock = ManualClock(START_MS)
    registry = MetricRegistry(clock=clock, hot_metrics=("rps",))
    durability = None
    if data_dir is not None:
        durability = DurabilityManager(
            data_dir, clock=clock, checkpoint_interval_ms=0.0
        )
    server = QuantileServer(
        registry, durability=durability, final_checkpoint=False
    )
    with server:
        responses = send(server.address, list(stream()))
        server.flush()
        stats = server.dispatch({"op": "stats"})["stats"]
    snapshots = {
        str(key): registry.get(key.name, key.as_dict()).snapshot()
        for key in registry.keys()
    }
    return responses, stats, snapshots


@pytest.mark.parametrize("durable", [False, True], ids=["memory", "wal"])
def test_both_body_shapes_leave_the_same_bytes(tmp_path, durable):
    by_json = run(send_json, tmp_path / "json" if durable else None)
    by_tail = run(send_client, tmp_path / "tail" if durable else None)
    responses, stats, snapshots = by_tail
    assert all(response["ok"] for response in responses)
    assert stats["error_responses"] == 1  # the inf/nan batch, at apply
    assert stats["ingested_values"] == 5 + 12 * 40
    assert len(snapshots) == 3
    if durable:
        assert stats["durability_last_seq"] == 14
    assert by_json == by_tail
