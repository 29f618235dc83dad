"""Tests for the length-prefixed JSON wire protocol."""

import io
import math
import struct

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.service import protocol


def round_trip(payload):
    stream = io.BytesIO(protocol.encode_frame(payload))
    return protocol.read_frame(stream)


class TestEncoding:
    def test_round_trip(self):
        payload = {"op": "ingest", "values": [1.0, 2.5], "metric": "m"}
        decoded = round_trip(payload)
        values = decoded.pop("values")
        assert decoded == {"op": "ingest", "metric": "m"}
        assert values.dtype == np.float64 and values.tolist() == [1.0, 2.5]

    def test_values_travel_as_a_float64_tail_behind_a_json_header(self):
        body = protocol.encode_message(
            {"op": "ingest", "values": np.array([1.0, 2.5]), "metric": "m"}
        )
        header = b'{"metric":"m","op":"ingest"}'
        assert body == (
            b"\xf6" + struct.pack("<I", len(header)) + header
            + struct.pack("<qdd", 2, 1.0, 2.5)
        )
        # list, tuple and array are one shape on the wire
        for same in ([1.0, 2.5], (1.0, 2.5), [1, 2.5]):
            assert protocol.encode_message(
                {"op": "ingest", "values": same, "metric": "m"}
            ) == body

    def test_all_json_values_list_still_decodes(self):
        decoded = protocol.decode_message(
            b'{"metric":"m","op":"ingest","values":[1.0,2.5]}'
        )
        assert decoded["values"] == [1.0, 2.5]

    def test_messages_without_values_keep_the_all_json_body(self):
        assert protocol.encode_message(protocol.ok(accepted=2)) == (
            b'{"accepted":2,"ok":true}'
        )
        # only a sequence moves to the tail; anything else is the
        # server's to refuse
        assert protocol.encode_message({"values": "abc"}) == (
            b'{"values":"abc"}'
        )

    @pytest.mark.parametrize(
        "values", [[1.0, "2"], [None], [[1.0], [2.0]], [1.0, [2.0]], ["x"]]
    )
    def test_values_that_are_not_flat_numbers_are_refused(self, values):
        with pytest.raises(ProtocolError):
            protocol.encode_message({"op": "ingest", "values": values})

    def test_canonical_bytes_ignore_key_order(self):
        a = protocol.encode_message({"b": 1, "a": 2})
        b = protocol.encode_message({"a": 2, "b": 1})
        assert a == b
        assert a == b'{"a":2,"b":1}'  # sorted keys, no whitespace

    def test_nonfinite_floats_use_sentinels_not_bare_tokens(self):
        # Bare Infinity/NaN are invalid JSON; the codec must emit the
        # documented sentinel objects instead.
        body = protocol.encode_message({"value": math.inf})
        assert body == b'{"value":{"$float":"inf"}}'
        for token in (b"Infinity", b"NaN"):
            assert token not in protocol.encode_message(
                {"a": math.inf, "b": -math.inf, "c": math.nan}
            )

    def test_nonfinite_floats_round_trip(self):
        payload = {
            "lo": -math.inf,
            "hi": math.inf,
            "items": [1.0, math.inf, [-math.inf]],
            "nested": {"deep": math.inf},
            "values": [1.0, math.inf, -math.inf, math.nan, -0.0],
        }
        decoded = round_trip(payload)
        assert decoded["lo"] == -math.inf
        assert decoded["hi"] == math.inf
        assert decoded["items"][1] == math.inf
        assert decoded["items"][2] == [-math.inf]
        assert decoded["nested"]["deep"] == math.inf
        # the tail carries every float bit for bit, no sentinels
        assert decoded["values"].tobytes() == np.array(
            payload["values"]
        ).tobytes()
        nan = protocol.decode_message(
            protocol.encode_message({"x": math.nan})
        )["x"]
        assert isinstance(nan, float) and math.isnan(nan)

    def test_reserved_sentinel_key_rejected_in_payloads(self):
        with pytest.raises(ProtocolError):
            protocol.encode_message({"v": {"$float": "bogus"}})

    def test_reserved_key_text_as_a_value_is_just_a_string(self):
        payload = {"note": "$float", "nested": ['"$float"'], "q": 0.5}
        assert round_trip(payload) == payload

    def test_sentinel_key_spelled_with_an_escape_is_still_restored(self):
        body = b'{"v":{"\\u0024float":"-inf"}}'
        assert protocol.decode_message(body) == {"v": -math.inf}

    def test_unknown_sentinel_name_rejected_on_decode(self):
        with pytest.raises(ProtocolError):
            protocol.decode_message(b'{"v":{"$float":"huge"}}')

    def test_unencodable_payload_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.encode_message({"value": object()})

    def test_oversize_outgoing_frame_rejected(self):
        payload = {"blob": "x" * (protocol.MAX_FRAME_BYTES + 16)}
        with pytest.raises(ProtocolError):
            protocol.encode_frame(payload)


class TestDecoding:
    def test_multiple_frames_in_one_stream(self):
        stream = io.BytesIO(
            protocol.encode_frame({"n": 1})
            + protocol.encode_frame({"n": 2})
        )
        assert protocol.read_frame(stream) == {"n": 1}
        assert protocol.read_frame(stream) == {"n": 2}
        assert protocol.read_frame(stream) is None

    def test_clean_eof_returns_none(self):
        assert protocol.read_frame(io.BytesIO(b"")) is None

    def test_eof_mid_header_raises(self):
        with pytest.raises(ProtocolError):
            protocol.read_frame(io.BytesIO(b"\x00\x00"))

    def test_eof_mid_body_raises(self):
        frame = protocol.encode_frame({"op": "ping"})
        with pytest.raises(ProtocolError):
            protocol.read_frame(io.BytesIO(frame[:-2]))

    def test_oversize_incoming_length_rejected_before_read(self):
        header = struct.pack(">I", protocol.MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError):
            protocol.read_frame(io.BytesIO(header))

    def test_invalid_json_body_raises(self):
        body = b"not json"
        stream = io.BytesIO(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError):
            protocol.read_frame(stream)

    def test_non_object_body_raises(self):
        body = b"[1,2,3]"
        stream = io.BytesIO(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError):
            protocol.read_frame(stream)

    def test_invalid_utf8_body_raises(self):
        body = b"\xff\xfe{}"
        stream = io.BytesIO(struct.pack(">I", len(body)) + body)
        with pytest.raises(ProtocolError):
            protocol.read_frame(stream)


class TestWriteFrame:
    def test_write_then_read(self):
        stream = io.BytesIO()
        protocol.write_frame(stream, {"op": "ping"})
        stream.seek(0)
        assert protocol.read_frame(stream) == {"op": "ping"}


class TestResponseConstructors:
    def test_ok(self):
        assert protocol.ok(count=3) == {"ok": True, "count": 3}

    def test_error(self):
        response = protocol.error("bad_request", "nope", hint="x")
        assert response == {
            "ok": False,
            "error": "bad_request",
            "message": "nope",
            "hint": "x",
        }

    def test_shed_is_machine_detectable(self):
        response = protocol.shed("queue full")
        assert response["error"] == protocol.OVERLOADED
        assert response["shed"] is True
        assert response["ok"] is False


class TestIdentityOps:
    """``ping``/``node_info`` over a live server: the ops every
    cluster health check and anti-entropy round lead with."""

    @pytest.fixture()
    def server(self):
        from repro.service import ManualClock, MetricRegistry, QuantileServer

        registry = MetricRegistry(clock=ManualClock(0.0))
        with QuantileServer(registry, node_id="proto-test") as srv:
            yield srv

    @pytest.fixture()
    def client(self, server):
        from repro.service import QuantileClient

        host, port = server.address
        with QuantileClient(host, port, retries=0) as cli:
            yield cli

    def test_ping_answers_pong(self, client):
        assert client.call({"op": "ping"}) == {"ok": True, "pong": True}

    def test_node_info_reports_identity_and_frontier(self, client):
        info = client.node_info()
        assert info == {
            "node_id": "proto-test",
            "role": "standalone",
            "wal_watermark": 0,
            "frontier": {},
        }

    def test_node_info_wire_shape_is_flat_json(self, client):
        response = client.call({"op": "node_info"})
        assert response["ok"] is True
        assert set(response) == {
            "ok", "node_id", "role", "wal_watermark", "frontier",
        }
        assert isinstance(response["wal_watermark"], int)
        assert isinstance(response["frontier"], dict)

    def test_cluster_node_info_carries_watermark_and_frontier(self):
        from repro.cluster import LocalCluster
        from repro.service import QuantileClient

        with LocalCluster(n_nodes=2) as cluster:
            with cluster.client() as via_proxy:
                via_proxy.ingest("m", [1.0, 2.0])
            leader = cluster.leader_of("m")
            host, port = cluster.node(leader).address
            with QuantileClient(
                host, port, clock=cluster.clock, retries=0
            ) as direct:
                info = direct.node_info()
            assert info["node_id"] == leader
            assert info["role"] == "leader"
            assert info["wal_watermark"] == 1
            assert info["frontier"][leader] == 1
