"""Hostile request fields are answered, never raised.

Driven by :data:`repro.service.ops.OPS`: every field an op reads is
replaced, one at a time, with each hostile JSON value, and the request
is dispatched on a standalone :class:`QuantileServer` (for the ops it
serves), on a one-node :class:`ClusterNode` and on a
:class:`RoutingProxy` whose node is not running.  Every answer is a
response object — ``ok: false`` with a code from :data:`CODES` whenever
the value is not of a JSON type the field takes — and never an
exception, which over TCP would drop the connection (the real-TCP case
at the end).  ``ae_fetch`` also gets malformed items.

A Moments tenant holding fewer than five values cannot fit a density:
``rank`` and ``cdf`` are answered ``unanswerable`` on all three
endpoints and over TCP, and ``quantile`` keeps its endpoint fallback.
NaN has no rank: ``rank`` and ``cdf`` of it are a ``bad_request`` on
a KLL, a GK and a DDSketch tenant alike.
"""

from __future__ import annotations

import socket

import pytest

from repro.cluster.node import ClusterNode
from repro.cluster.proxy import RoutingProxy
from repro.cluster.ring import HashRing
from repro.cluster.transport import ClusterTransport
from repro.core import MomentsSketch
from repro.core.registry import paper_config
from repro.service import protocol
from repro.service.clock import ManualClock
from repro.service.ops import OPS
from repro.service.registry import MetricRegistry
from repro.service.server import QuantileServer

HOSTILE = [None, [], ["x"], "x", {}, True, -1, 2**70, 1e308, 10**400]

CODES = {
    "bad_request", "empty", "invalid_quantile", "unavailable",
    "not_leader", "durability", "overloaded", "unknown_op",
    "unanswerable",
}

#: A well-formed value for every field an op reads ...
VALID = {
    "metric": "lat", "tags": {"host": "a"}, "values": [1.0, 2.0],
    "timestamp_ms": 0.0, "t0": 0.0, "t1": 60_000.0, "q": 0.5,
    "value": 1.0, "view": {"epoch": 0, "nodes": {}},
    "query": {"kind": "threshold", "metric": "lat", "q": 0.5,
              "op": "gt", "threshold": 1.0, "window_ms": 1_000.0},
    "id": "q1", "limit": 5, "after": 0, "peer": "n0", "max_records": 8,
    "origin": "n0",
    "items": [{"metric": "lat", "tags": {"host": "a"}, "keys": ["f:0"]}],
}

#: ... and the JSON types it takes.
ACCEPTS = {
    "metric": {"str"}, "tags": {"null", "object"}, "values": {"list"},
    "timestamp_ms": {"null", "int", "float"},
    "t0": {"null", "int", "float"}, "t1": {"null", "int", "float"},
    "q": {"int", "float", "list"}, "value": {"int", "float"},
    "view": {"object"}, "query": {"object"}, "id": {"str"},
    "limit": {"null", "int"}, "after": {"int"}, "peer": {"null", "str"},
    "max_records": {"int"}, "origin": {"str"}, "items": {"list"},
}

#: ``ae_fetch`` items that are not objects, or address the seeded store
#: with a malformed field.
MALFORMED_ITEMS = [None, 1, "x", [], {}] + [
    {**VALID["items"][0], field: value}
    for field, values in (
        ("metric", [None, 1, ""]),
        ("tags", [["x"], "t", 1]),
        ("keys", [None, "f:0", [1], ["x"], [None]]),
    )
    for value in values
]


def json_type(value):
    if value is None:
        return "null"
    for kind, types in (
        ("bool", bool), ("int", int), ("float", float), ("str", str),
        ("list", list),
    ):
        if isinstance(value, types):
            return kind
    return "object"


def well_formed(op):
    return {"op": op, **{field: VALID[field] for field in OPS[op].fields}}


def cases(op):
    """``(request, must_fail)`` for every hostile value of every field."""
    base = well_formed(op)
    for field in OPS[op].fields:
        for value in HOSTILE:
            must_fail = json_type(value) not in ACCEPTS[field]
            yield {**base, field: value}, must_fail
    if op == "ae_fetch":
        for item in MALFORMED_ITEMS:
            yield {**base, "items": [item]}, True


def check(answer, must_fail):
    assert isinstance(answer, dict) and isinstance(answer.get("ok"), bool)
    if not answer["ok"]:
        assert answer["error"] in CODES, answer
    assert not (must_fail and answer["ok"]), answer


@pytest.fixture(scope="module")
def endpoints(tmp_path_factory):
    clock = ManualClock(0.0)
    server = QuantileServer(MetricRegistry(clock=clock)).start()
    node = ClusterNode(
        "n0", HashRing(["n0"]), tmp_path_factory.mktemp("node"),
        clock=clock,
    ).start()
    for endpoint in (server, node):
        seeded = endpoint.dispatch(well_formed("ingest"))
        assert seeded["ok"], seeded
    proxy = RoutingProxy(HashRing(["n0"]), ClusterTransport("proxy", clock))
    yield {"server": server, "node": node, "proxy": proxy}
    server.stop()
    node.stop()


@pytest.mark.parametrize(
    "where, op",
    [
        (where, op)
        for where in ("server", "node", "proxy")
        for op in sorted(OPS)
        if where != "server" or hasattr(QuantileServer, f"_op_{op}")
    ],
)
def test_every_hostile_field_is_answered(endpoints, where, op):
    for request, must_fail in cases(op):
        check(endpoints[where].dispatch(request), must_fail)


def test_a_malformed_request_keeps_the_connection(endpoints):
    node = endpoints["node"]
    with socket.create_connection(node.address, timeout=5.0) as sock:
        stream = sock.makefile("rwb")
        for request in (
            {"op": "cluster_view", "view": None},
            {"op": "ping"},
        ):
            protocol.write_frame(stream, request)
            stream.flush()
            answer = protocol.read_frame(stream)
            assert answer is not None, "connection dropped"
        assert answer == protocol.ok(pong=True)


# -- reads a sketch cannot answer -----------------------------------------

#: Below the Moments Sketch's minimum cardinality of five.
FEW_VALUES = [1.0, 2.0, 3.0]


def tenant_endpoints(tmp_path_factory, factory, values):
    """A server, a node and a proxy in front of the node, each holding
    one tenant of *values* in sketches *factory* builds."""
    clock = ManualClock(0.0)
    server = QuantileServer(
        MetricRegistry(sketch_factory=factory, clock=clock)
    ).start()
    node = ClusterNode(
        "n0", HashRing(["n0"]), tmp_path_factory.mktemp("tenant"),
        clock=clock, sketch_factory=factory,
    ).start()
    for endpoint in (server, node):
        seeded = endpoint.dispatch({**well_formed("ingest"), "values": values})
        assert seeded["ok"], seeded
        # The server's drain worker applies the ingest asynchronously;
        # barrier on it so the first read sees the tenant.
        assert endpoint.dispatch(well_formed("flush"))["ok"]
    transport = ClusterTransport("proxy", clock)
    transport.set_address("n0", *node.address)
    proxy = RoutingProxy(HashRing(["n0"]), transport)
    return server, node, proxy


@pytest.fixture(scope="module")
def moments_endpoints(tmp_path_factory):
    """Each endpoint holds one Moments tenant of three values."""
    server, node, proxy = tenant_endpoints(
        tmp_path_factory, MomentsSketch, FEW_VALUES
    )
    yield {"server": server, "node": node, "proxy": proxy}
    server.stop()
    node.stop()


@pytest.mark.parametrize("where", ["server", "node", "proxy"])
@pytest.mark.parametrize("op", ["rank", "cdf"])
def test_an_unanswerable_read_is_an_error_answer(
    moments_endpoints, where, op
):
    answer = moments_endpoints[where].dispatch(
        {**well_formed(op), "value": 2.0}
    )
    assert answer["ok"] is False, answer
    assert answer["error"] == "unanswerable", answer


@pytest.mark.parametrize("where", ["server", "node", "proxy"])
def test_a_few_value_quantile_keeps_its_endpoint_fallback(
    moments_endpoints, where
):
    endpoint = moments_endpoints[where]
    for q, expected in ((0.25, 1.0), (0.5, 1.0), (0.75, 3.0)):
        answer = endpoint.dispatch({**well_formed("quantile"), "q": q})
        assert answer == protocol.ok(quantile=expected)


def test_an_unanswerable_read_keeps_the_connection(moments_endpoints):
    node = moments_endpoints["node"]

    def errors():
        return node.dispatch({"op": "stats"})["stats"]["error_responses"]

    before = errors()
    with socket.create_connection(node.address, timeout=5.0) as sock:
        stream = sock.makefile("rwb")
        answers = []
        for request in (
            {**well_formed("rank"), "value": 2.0},
            {"op": "ping"},
        ):
            protocol.write_frame(stream, request)
            stream.flush()
            answers.append(protocol.read_frame(stream))
            assert answers[-1] is not None, "connection dropped"
    assert answers[0]["error"] == "unanswerable", answers[0]
    assert answers[1] == protocol.ok(pong=True)
    assert errors() == before + 1


# -- NaN has no rank --------------------------------------------------------


@pytest.fixture(scope="module", params=["kll", "gk", "ddsketch"])
def nan_endpoints(request, tmp_path_factory):
    """Each endpoint holds one 100-value tenant of the sketch named by
    the parameter."""
    server, node, proxy = tenant_endpoints(
        tmp_path_factory, lambda: paper_config(request.param, seed=1),
        [float(v) for v in range(1, 101)],
    )
    yield {"server": server, "node": node, "proxy": proxy}
    server.stop()
    node.stop()


@pytest.mark.parametrize("where", ["server", "node", "proxy"])
@pytest.mark.parametrize("op", ["rank", "cdf"])
def test_a_nan_rank_or_cdf_is_a_bad_request(nan_endpoints, where, op):
    """Before, the same request answered ``rank: 100`` on KLL, ``rank:
    0`` on GK and ``bad_request`` only on DDSketch."""
    endpoint = nan_endpoints[where]
    answer = endpoint.dispatch({**well_formed(op), "value": float("nan")})
    assert answer["ok"] is False, answer
    assert answer["error"] == "bad_request", answer
    answer = endpoint.dispatch({**well_formed(op), "value": float("inf")})
    assert answer["ok"] is True, answer
