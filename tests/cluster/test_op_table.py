"""The op table is the one list of ops the server, node and proxy speak.

Every ``_op_*`` handler of :class:`QuantileServer`, :class:`ClusterNode`
and :class:`RoutingProxy` is a row of :data:`repro.service.ops.OPS`; a
node answers every row; the proxy answers ``local`` rows itself,
routes the rest and refuses ``node`` rows; and a keyed request the
proxy cannot place fails with the very answer the node gives.
"""

from __future__ import annotations

import pytest

from repro.cluster.node import ClusterNode
from repro.cluster.proxy import RoutingProxy
from repro.cluster.ring import HashRing
from repro.cluster.transport import ClusterTransport
from repro.service.clock import ManualClock
from repro.service.ops import LOCAL, NODE, OPS
from repro.service.server import QuantileServer


def handler_names(cls):
    return {name[len("_op_"):] for name in dir(cls) if name.startswith("_op_")}


@pytest.fixture(scope="module")
def node(tmp_path_factory):
    with ClusterNode(
        "n0", HashRing(["n0"]), tmp_path_factory.mktemp("node"),
        clock=ManualClock(0.0),
    ) as node:
        yield node


@pytest.fixture()
def proxy():
    clock = ManualClock(0.0)
    return RoutingProxy(HashRing(["n0"]), ClusterTransport("proxy", clock))


@pytest.mark.parametrize("cls", [QuantileServer, ClusterNode, RoutingProxy])
def test_every_handler_is_a_row(cls):
    assert handler_names(cls) <= set(OPS)


def test_the_proxy_handles_only_the_local_rows_itself():
    local = {name for name, op in OPS.items() if op.route == LOCAL}
    assert handler_names(RoutingProxy) == local


def test_a_node_answers_every_op(node):
    assert handler_names(ClusterNode) == set(OPS)
    for name in OPS:
        answer = node.dispatch({"op": name})
        assert answer.get("error") != "unknown_op", (name, answer)


def test_the_proxy_refuses_node_ops_and_routes_the_rest(proxy):
    for name, op in OPS.items():
        answer = proxy.dispatch({"op": name})
        assert (answer.get("error") == "unknown_op") == (op.route == NODE)


@pytest.mark.parametrize("op", ["ingest", "quantile", "rank", "cdf", "count"])
@pytest.mark.parametrize(
    "key",
    [{}, {"metric": ""}, {"metric": 7}, {"metric": "m", "tags": ["x"]},
     {"metric": "m", "tags": "t"}],
)
def test_a_malformed_key_fails_alike_at_the_proxy_and_the_node(
    node, proxy, op, key
):
    request = {"op": op, "values": [1.0], "q": 0.5, "value": 1.0, **key}
    at_node = node.dispatch(request)
    assert at_node["error"] == "bad_request"
    assert proxy.dispatch(request) == at_node
