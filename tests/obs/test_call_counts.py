"""Telemetry on the ingest path is per batch, never per value.

A counting :class:`Telemetry` double is handed to the registry, the
durability manager and the server; one ``ingest`` is dispatched and
drained through the real server, and the double must see exactly the
same instrument traffic for a 10-value batch as for a 10,000-value one.
Likewise on the read path: a query's instrument traffic is per query,
never per partition merged.  And the whole of one telemetry-on
``dispatch`` has a call budget.  Counts, not clocks: the assertions
are noise-free.  Below the service, a scalar update of a sparse store
that keeps its sorted arrays makes no numpy call at all.
"""

import collections
import functools
import os
import sys
import threading

import numpy as np
import pytest

from repro.core import DDSketch, UDDSketch
from repro.durability import DurabilityManager
from repro.obs.telemetry import Telemetry
from repro.service import (
    ManualClock,
    MetricRegistry,
    QuantileServer,
    TimePartitionedStore,
    default_sketch_factory,
    protocol,
)
from tests.service.test_wire_budget import count_calls, ingest_request


class _Tallied:
    """Instrument proxy: each method looked up on it is one tally."""

    def __init__(self, inner, tally, kind, name):
        self._inner = inner
        self._tally = tally
        self._kind = kind
        self._name = name

    def __getattr__(self, attr):
        self._tally(f"{self._kind}.{attr}", self._name)
        return getattr(self._inner, attr)


class CountingTelemetry(Telemetry):
    """Tallies every instrument lookup and every instrument update."""

    def __init__(self):
        self.calls = collections.Counter()
        self._tally_lock = threading.Lock()
        super().__init__(clock=ManualClock(0.0))

    def _tally(self, kind, name):
        with self._tally_lock:
            self.calls[kind, name] += 1

    def _tallied(self, kind, name, inner):
        self._tally(kind, name)
        return _Tallied(inner, self._tally, kind, name)

    def span(self, name):
        self._tally("span", name)
        return super().span(name)

    def counter(self, name):
        return self._tallied("counter", name, super().counter(name))

    def gauge(self, name):
        return self._tallied("gauge", name, super().gauge(name))

    def histogram(self, name):
        return self._tallied("histogram", name, super().histogram(name))


def ingest_calls(n_values, data_dir=None):
    """Instrument tallies of one *n_values* ingest, start to stop."""
    telemetry = CountingTelemetry()
    clock = ManualClock(0.0)
    durability = None
    if data_dir is not None:
        durability = DurabilityManager(
            data_dir,
            clock=clock,
            checkpoint_interval_ms=0.0,
            telemetry=telemetry,
        )
    registry = MetricRegistry(clock=clock, telemetry=telemetry)
    server = QuantileServer(
        registry, telemetry=telemetry, durability=durability
    )
    with server:
        response = server.dispatch(
            {
                "op": "ingest",
                "metric": "lat",
                "values": [float(v) for v in range(1, n_values + 1)],
            }
        )
        assert response["ok"] and response["accepted"] == n_values
        server.flush()
    # Read after stop(): the drain thread sets its queue-depth gauge
    # after task_done(), so only a joined worker has a final tally.
    assert registry.get("lat").count() == n_values
    return dict(telemetry.calls)


@pytest.mark.parametrize(
    "durable", [False, True], ids=["durability-off", "durability-on"]
)
def test_instrument_calls_do_not_scale_with_batch_size(durable, tmp_path):
    small = ingest_calls(10, tmp_path / "small" if durable else None)
    large = ingest_calls(10_000, tmp_path / "large" if durable else None)
    assert small == large
    assert small["span", "server.op.ingest"] == 1
    assert small["span", "server.drain_batch"] == 1
    assert small["histogram.record_us", "span.server.drain_batch"] == 1
    assert small.get(("span", "wal.append"), 0) == int(durable)


def query_calls(n_partitions):
    """Instrument tallies of a fold, an extension and a cached read."""
    telemetry = CountingTelemetry()
    clock = ManualClock(0.0)
    store = TimePartitionedStore(
        default_sketch_factory(), clock=clock, telemetry=telemetry
    )
    for _ in range(n_partitions):
        store.record_batch([1.0, 2.0], timestamp_ms=clock.advance(1_000.0))
    telemetry.calls.clear()
    store.merged()  # folds every partition
    store.record_batch([3.0], timestamp_ms=clock.advance(1_000.0))
    store.merged()  # extends the prefix by one partition
    store.merged()  # cached
    return dict(telemetry.calls)


def test_query_instrument_calls_do_not_scale_with_partitions():
    few = query_calls(3)
    many = query_calls(30)
    assert few == many
    assert few == {
        ("counter", "store.view_cache_miss"): 2,
        ("counter.inc", "store.view_cache_miss"): 2,
        ("counter", "store.view_cache_hit"): 1,
        ("counter.inc", "store.view_cache_hit"): 1,
        ("counter", "store.view_prefix_rebuild"): 1,
        ("counter.inc", "store.view_prefix_rebuild"): 1,
        ("counter", "store.view_prefix_hit"): 1,
        ("counter.inc", "store.view_prefix_hit"): 1,
        ("counter", "store.view_chunk_builds"): 2,
        ("counter.inc", "store.view_chunk_builds"): 2,
        ("counter", "store.view_merges"): 2,
        ("counter.inc", "store.view_merges"): 2,
    }


def _traced_server():
    """A telemetry-on server over DDSketch partitions (``tcp_ingest``)."""
    registry = MetricRegistry(
        default_sketch_factory("ddsketch"), clock=ManualClock(0.0)
    )
    return QuantileServer(registry, telemetry=Telemetry(clock=ManualClock(0.0)))


def _decoded(request):
    return protocol.decode_message(protocol.encode_message(request))


def test_telemetry_on_dispatch_call_budget():
    """Python and C calls of one warm dispatch, spans and histograms
    included: a span's exit appends to a histogram the tracer already
    holds, and a read reuses the sketch's bucket views."""
    query = {"op": "quantile", "metric": "tenant-0", "q": 0.99}
    server = _traced_server()
    with server:
        assert server.dispatch(_decoded(ingest_request(1000)))["ok"]
        server.flush()
        first = server.dispatch(dict(query))
    answers = []
    quantile = count_calls(lambda: answers.append(server.dispatch(query)))
    assert answers == [first] and first["ok"]
    assert quantile <= 72

    # not started: nothing drains the queue, so only this thread works
    server = _traced_server()
    request = _decoded(ingest_request(1000))
    server.dispatch(request)
    answers = []
    ingest = count_calls(lambda: answers.append(server.dispatch(request)))
    assert answers == [protocol.ok(accepted=1000)]
    assert ingest <= 70


class _NoNumpy:
    """Stands in for ``np`` in a module: any use of it is a numpy call
    (a ufunc call makes no profiler event, a module lookup is caught)."""

    def __getattr__(self, name):
        raise AssertionError(f"np.{name} called")


def numpy_calls(fn, monkeypatch) -> list[str]:
    """Names of the numpy functions and array methods *fn* calls, with
    ``np`` taken away from the modules a sketch's scalar path runs in."""
    for module in ("base", "ddsketch", "mapping", "store", "uddsketch"):
        monkeypatch.setattr(f"repro.core.{module}.np", _NoNumpy())
    numpy_dir = os.path.dirname(np.__file__)
    called = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
            called.append(frame.f_code.co_name)
        elif event == "c_call" and isinstance(
            getattr(arg, "__self__", None), (np.ndarray, np.generic, np.ufunc)
        ):
            called.append(arg.__qualname__)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        monkeypatch.undo()
    return called


@pytest.mark.parametrize(
    "factory",
    [UDDSketch, functools.partial(DDSketch, store="sparse")],
    ids=["uddsketch", "ddsketch-sparse"],
)
def test_a_scalar_update_on_kept_arrays_makes_no_numpy_call(
    factory, monkeypatch
):
    """A sparse store only notes a scalar add; folding it into its
    sorted arrays waits for the next read.  Under the bucket budget,
    UDDSketch adds without counting buckets."""
    sketch = factory()
    sketch.update_batch(np.linspace(1.0, 2.0, 100))
    sketch.quantiles((0.5, 0.99))
    before, _ = sketch._positive.sorted_arrays()

    def updates():
        sketch.update(1.5)  # a bucket the store holds
        sketch.update(1e6)  # a new bucket
        sketch.update(-3.0)  # the other store
        sketch.update(0.0)

    assert numpy_calls(updates, monkeypatch) == []
    assert sketch.count == 104
    sketch.quantile(0.5)  # the read folds the noted adds in
    indices, _ = sketch._positive.sorted_arrays()
    assert indices[-1] == sketch.mapping.index(1e6)
    assert before[-1] < indices[-1]  # the replaced arrays did not move
