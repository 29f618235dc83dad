"""The ingest path's byte and call budgets, as counts.

The benchmark's two noise-free layer metrics — ``service.wire_bytes_per_value``
and ``service.py_calls_per_value`` — and the WAL's bytes per value, held
here as tier-1 assertions: a float64 costs its eight bytes plus a
header amortised over the batch, and no Python or C call is made per
value between the socket and the ingest queue.  Counts, not clocks.
"""

import gc
import sys

import numpy as np

from repro.durability import DurabilityManager
from repro.service import ManualClock, MetricRegistry, QuantileServer, protocol


def batch(n_values: int) -> np.ndarray:
    return 1.0 + np.random.default_rng(5).pareto(1.0, n_values)


def ingest_request(n_values: int) -> dict:
    return {
        "op": "ingest", "metric": "tenant-0",
        "values": batch(n_values).tolist(),
        "timestamp_ms": 1_700_000_000_000.0,
    }


def count_calls(fn) -> int:
    """Python and C calls *fn* makes on this thread.

    The cyclic collector runs first and stays off inside the window, so
    a collection's callbacks and finalizers never land in the count; its
    prior state is restored afterwards.
    """
    calls = 0

    def profile(_frame, event, _arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    return calls


def make_cycles():
    for _ in range(200):
        cycle = []
        cycle.append(cycle)


def test_a_collection_adds_no_calls_to_a_count():
    """A ``gc.callbacks`` entry fires on every collection, and cyclic
    garbage under a threshold of 1 collects inside the window; the
    count stays what the window's own code calls."""
    baseline = count_calls(make_cycles)
    fired = []
    threshold = gc.get_threshold()
    gc.callbacks.append(lambda phase, _info: fired.append(phase))
    gc.set_threshold(1)
    try:
        make_cycles()
        assert fired  # outside the window, collections do fire
        assert count_calls(make_cycles) == baseline
    finally:
        gc.callbacks.pop()
        gc.set_threshold(*threshold)
    assert gc.isenabled()
    gc.disable()
    try:
        count_calls(make_cycles)
        assert not gc.isenabled()
    finally:
        gc.enable()


def dispatch_calls(n_values: int) -> int:
    """Calls from frame body to ingest queue for one *n_values* ingest."""
    body = protocol.encode_message(ingest_request(n_values))
    server = QuantileServer(MetricRegistry(clock=ManualClock(0.0)))
    # not started: nothing drains the queue, so only this thread works
    responses = []
    calls = count_calls(
        lambda: responses.append(
            server.dispatch(protocol.decode_message(body))
        )
    )
    assert responses == [protocol.ok(accepted=n_values)]
    return calls


def test_wire_bytes_per_value():
    request = protocol.encode_frame(ingest_request(1000))
    response = protocol.encode_frame(protocol.ok(accepted=1000))
    assert (len(request) + len(response)) / 1000 <= 8.2


def test_no_call_per_value_between_body_and_queue():
    calls = dispatch_calls(1000)
    assert calls / 1000 < 0.2
    assert dispatch_calls(10_000) == calls


def test_wal_bytes_per_value(tmp_path):
    clock = ManualClock(1_700_000_000_000.0)
    with DurabilityManager(tmp_path, clock=clock) as manager:
        manager.journal("tenant-0", None, batch(64), clock.now_ms())
        manager.wal.sync()
        [(_seq, payload)] = manager.wal.replay()
    # u32 length + u32 crc frame every payload
    assert (len(payload) + 8) / 64 <= 10.0
