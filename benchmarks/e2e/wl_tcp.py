"""Workloads ``tcp_ingest`` and ``tcp_mixed``: the service over real TCP.

Load is a closed loop from this one process: one ``QuantileClient``
connection, one request in flight (the client waits for the ack before
the next batch).  The server runs in-process, wired the way
``python -m repro.service serve`` wires it (one drain worker, coalesce
64, queue 4096, telemetry on), on a ``ManualClock`` the load generator
advances per request, so partition sealing and compaction depend on
the request count and not on the wall clock.

``tcp_ingest`` makes the sketch cheap (DDSketch, 1000-value frames,
durability off): JSON codec, per-value ``float()``, socket and queue
dominate.  ``tcp_mixed`` puts reads beside writes with durability: 16
Zipf tenants (rank 0 sharded), KLL partitions, 64-value frames, WAL
with ``FlushPolicy("batch")``, a trailing-window ``quantile`` after
every 4th ingest, a checkpoint at 80 %, then restarts over the same
data directory (checkpoint + 20 % WAL tail).
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.data.traffic import LatencyValues, ZipfTenants
from repro.durability import DurabilityManager, FlushPolicy
from repro.errors import ServiceError
from repro.metrics import PAPER_QUANTILES
from repro.obs import NOOP, Telemetry
from repro.parallel import ShardedSketch
from repro.service import (
    ManualClock,
    MetricRegistry,
    QuantileClient,
    QuantileServer,
    TimePartitionedStore,
    default_sketch_factory,
    protocol,
)

from calib import CAL_REF_S, Phase, percentile
from common import check_errors, emit_harness, relative_errors
from spec import TCP_MIXED, WORKLOADS

#: Clock origin: a multiple of the coarse partition width, so every
#: fine and coarse partition edge is a round number of milliseconds
#: past it.
START_MS = 1_700_000_000_000.0
MAIN_THREAD = "MainThread"
RECORD = "service.registry.record"
INGEST = "service.client.ingest_roundtrip"
QUERY = "service.client.query_roundtrip"


class System:
    """One in-process server and one client connection."""

    def __init__(
        self,
        params: dict[str, Any],
        clock: ManualClock,
        data_dir: Path | None,
        tracer: Any = None,
        telemetry: Any = None,
    ) -> None:
        self.clock = clock
        self.telemetry = Telemetry() if telemetry is None else telemetry
        self.sketch = str(params["sketch"])
        self.factory = default_sketch_factory(self.sketch)
        factory = self.factory
        if tracer is not None:
            factory = tracer.sketch_factory(factory, f"core.{self.sketch}")
        tenants = ZipfTenants(int(params["tenants"]),
                              float(params.get("zipf_exponent", 0.0)))
        self.hot = tenants.name_of(0) if "hot_shards" in params else None
        registry: Any = MetricRegistry(
            sketch_factory=factory,
            clock=clock,
            hot_metrics=[self.hot] if self.hot else (),
            n_shards=int(params.get("hot_shards", 4)),
            telemetry=self.telemetry,
        )
        durability: Any = None
        if data_dir is not None:
            durability = DurabilityManager(
                data_dir,
                clock=clock,
                flush_policy=FlushPolicy(str(params["flush_policy"])),
                checkpoint_interval_ms=0.0,  # checkpoints only on demand
                telemetry=self.telemetry,
            )
        if tracer is not None:
            registry = tracer.proxy(
                registry,
                {"record": RECORD,
                 "restore_store": "service.registry.restore_store"},
                {"record": lambda name, *_a, **_k: name},
            )
            if durability is not None:
                durability.wal = tracer.proxy(
                    durability.wal,
                    {"append": "durability.wal.append"},
                    {"append": len},
                )
                durability = tracer.proxy(durability, {
                    "journal": "durability.journal",
                    "checkpoint_now": "durability.checkpoint",
                    "recover": "durability.recover",
                })
        self.registry = registry
        self.durability = durability
        self.server = QuantileServer(
            registry=registry,
            clock=clock,
            telemetry=self.telemetry,
            durability=durability,
            final_checkpoint=False,
        )
        self.client: QuantileClient | None = None

    def start(self) -> "System":
        """Start serving and prove it by a round trip."""
        self.server.start()
        self.client = QuantileClient(*self.server.address).connect()
        self.client.ping()
        return self

    def stop(self) -> float:
        """Close the connection and stop the server; seconds it took.

        ``QuantileServer.stop()`` waits out the accept loop's poll
        (~0.5 s), so it is called outside every timer.
        """
        assert self.client is not None
        self.client.close()
        start = time.perf_counter()
        self.server.stop()
        return time.perf_counter() - start


class Load:
    """Seeded request generator and ledger of everything offered."""

    def __init__(self, params: dict[str, Any], seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.tenants = ZipfTenants(int(params["tenants"]),
                                   float(params.get("zipf_exponent", 0.0)))
        self.values = LatencyValues()
        self.requests = int(params["requests_per_block"])
        self.per_request = int(params["values_per_request"])
        #: tenant -> [(timestamp_ms, values)] acked by the server
        self.ledger: dict[str, list[tuple[float, np.ndarray]]] = {
            name: [] for name in self.tenants.names
        }

    def block(self) -> list[tuple[str, np.ndarray, list[float]]]:
        """One block's requests: (tenant, values, values as the frame
        carries them).  Generated between blocks, outside every timer."""
        picks = self.tenants.pick(self.requests, self.rng)
        values = self.values.sample(
            self.requests * self.per_request, self.rng)
        out = []
        for index, tenant in enumerate(picks):
            chunk = values[index * self.per_request:
                           (index + 1) * self.per_request]
            out.append((self.tenants.name_of(int(tenant)), chunk,
                        chunk.tolist()))
        return out

    def acked(self, name: str, timestamp_ms: float, values: np.ndarray) -> None:
        self.ledger[name].append((timestamp_ms, values))

    def offered(self, name: str) -> int:
        return sum(values.size for _ts, values in self.ledger[name])

    def reference(self, name: str, t0: float, t1: float) -> np.ndarray:
        """Sorted values of *name* with a timestamp in ``[t0, t1)``."""
        inside = [
            values for ts, values in self.ledger[name] if t0 <= ts < t1
        ]
        if not inside:
            return np.zeros(0)
        merged = np.concatenate(inside)
        merged.sort()
        return merged


class Run:
    """One system under one load: warm-up, timed blocks, verification."""

    def __init__(
        self, ctx: Any, params: dict[str, Any], label: str,
        traced: bool = False, telemetry: Any = None,
    ) -> None:
        self.ctx = ctx
        self.params = params
        self.tracer = ctx.tracer if traced else None
        self.clock = ManualClock(START_MS)
        self.data_dir = (
            ctx.tmp / f"data-{label}" if params["durability"] else None
        )
        self.system = System(params, self.clock, self.data_dir,
                             self.tracer, telemetry)
        self.load = Load(params, ctx.seed)
        self.step_ms = float(params["clock_step_ms"])
        self.query_every = int(params.get("query_every", 0))
        self.query_window_ms = float(params.get("query_window_ms", 0.0))
        self.ingest = Phase(ctx.cal, f"ingest.{label}", self.tracer)
        self.reads = Phase(ctx.cal, f"query.{label}", self.tracer)
        self.requests_sent = 0
        self.errors: list[list[float]] = []
        self.rel_error_mean = 0.0
        self.state_bytes = 0

    @property
    def client(self) -> QuantileClient:
        assert self.system.client is not None
        return self.system.client

    # -- set-up ----------------------------------------------------------

    def start(self) -> "Run":
        """Serve, connect, and touch every tenant once, so no timed
        query can meet an unknown metric or an empty window."""
        self.system.start()
        warm = np.linspace(50.0, 150.0, self.load.per_request)
        for name in self.load.tenants.names:
            self.client.ingest(name, warm.tolist(),
                               timestamp_ms=self.clock.now_ms())
            self.load.acked(name, self.clock.now_ms(), warm)
        self.client.flush()
        for name in self.load.tenants.names:
            self.client.quantile(name, 0.99)
        return self

    # -- timed blocks ----------------------------------------------------

    def _call(self, blk: Any, kind: str, span: str, fn: Any, *args: Any,
              **kwargs: Any) -> bool:
        """One client round trip, timed; a refusal counts as failed."""
        self.requests_sent += 1
        self.ctx.ops(1)
        start = time.perf_counter()
        try:
            fn(*args, **kwargs)
        except ServiceError as exc:  # shed, or an error response
            self.ctx.fail(f"{kind}: {exc}")
            return False
        end = time.perf_counter()
        blk.op(kind, end - start)
        if self.tracer is not None:
            self.tracer.add(span, start, end, self.requests_sent)
        return True

    def ingest_blocks(
        self, count: int, checkpoint_at: int | None = None,
        query_after: int = 0,
    ) -> None:
        """*count* timed ingest blocks; a checkpoint after block
        *checkpoint_at*; a block of cached reads after every
        *query_after* blocks, so reads are spread over the whole run."""
        client = self.client
        for index in range(count):
            with self.ctx.untimed("harness.input_generation"):
                requests = self.load.block()
            work = sum(values.size for _n, values, _f in requests)
            with self.ingest.block(work=work) as blk:
                for position, (name, values, frame) in enumerate(requests):
                    now = self.clock.advance(self.step_ms)
                    if self._call(blk, "ingest", INGEST, client.ingest,
                                  name, frame, timestamp_ms=now):
                        self.load.acked(name, now, values)
                    if (self.query_every
                            and position % self.query_every
                            == self.query_every - 1):
                        self._call(blk, "query", QUERY, client.quantile,
                                   name, 0.99,
                                   t0=now - self.query_window_ms, t1=now)
                self._call(blk, "flush", "service.client.flush",
                           client.flush)
            if index + 1 == checkpoint_at:
                client.checkpoint()
                self.ctx.ops(1)
            if query_after and (index + 1) % query_after == 0:
                self.query_block(int(self.params["queries_per_block"]))

    def query_block(self, queries: int) -> None:
        """Reads of an unchanged store: after the first, the merged
        view is cached."""
        name = self.load.tenants.name_of(0)
        with self.reads.block(work=queries) as blk:
            for _query in range(queries):
                self._call(blk, "query", QUERY, self.client.quantile,
                           name, 0.99)

    # -- verification ----------------------------------------------------

    def verify(self) -> None:
        """Applied counts equal offered counts; every range answer is
        within the sketch's threshold of the exact reference."""
        ctx, client = self.ctx, self.client
        client.flush()
        width = float(self.params["error_range_ms"])
        end = self.clock.now_ms() + 1.0
        for name in self.load.tenants.names:
            offered = self.load.offered(name)
            applied = client.count(name)
            ctx.check(applied == offered,
                      f"{name}: server holds {applied}, offered {offered}")
            ranges = [(None, None)] + [
                (t0, t0 + width)
                for t0 in np.arange(START_MS, end, width).tolist()
            ]
            for t0, t1 in ranges:
                reference = self.load.reference(
                    name, -np.inf if t0 is None else t0,
                    np.inf if t1 is None else t1)
                if reference.size == 0:
                    continue
                estimates = client.quantiles(name, PAPER_QUANTILES, t0, t1)
                self.errors.append(relative_errors(
                    estimates, reference, PAPER_QUANTILES))
            ctx.ops(len(ranges))
        self.state_bytes = self.system.registry.size_bytes()
        self.rel_error_mean = check_errors(
            ctx, self.system.sketch, self.errors)
        stats = client.stats()
        ctx.check(stats["shed_requests"] == 0,
                  f"{stats['shed_requests']} requests shed")
        self.shed_share = stats["shed_requests"] / max(
            1, stats["ingest_requests"])

    # -- restarts (tcp_mixed) --------------------------------------------

    def restarts(self, count: int, label: str) -> Phase:
        """Timed ``start()`` over the stopped server's data directory;
        every recovery must return the pre-stop per-tenant counts."""
        phase = Phase(self.ctx.cal, f"recovery.{label}", self.tracer)
        expected = {
            name: self.load.offered(name) for name in self.load.tenants.names
        }
        for _ in range(count):
            system = System(self.params, self.clock, self.data_dir,
                            self.tracer)
            with phase.block():
                system.start()
            assert system.client is not None
            for name, offered in expected.items():
                recovered = system.client.count(name)
                self.ctx.check(
                    recovered == offered,
                    f"{name}: recovered {recovered}, acked {offered}")
            report = system.durability.last_recovery
            self.ctx.check(
                report.checkpoint_stores == len(expected)
                and report.records_replayed > 0,
                f"recovery did not use checkpoint + WAL tail: {report}")
            with self.ctx.untimed("service.server.stop"):
                system.stop()
        return phase


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def run(ctx: Any) -> None:
    params = dict(WORKLOADS[ctx.workload][1])
    mixed = ctx.workload == TCP_MIXED
    share = 1.0
    if ctx.mode == "trace":
        # compaction starts once a minute of clock has passed: on
        # tcp_mixed a third of the blocks would never reach it
        share = 1 / 2 if mixed else 1 / 3
    blocks = ctx.reps(int(params["blocks"]), 4, share)
    checkpoint_at = (
        max(1, round(blocks * float(params["checkpoint_at"])))
        if mixed else None
    )

    first = Run(ctx, params, "plain").start()
    ctx.ready()

    first.ingest_blocks(
        blocks, checkpoint_at,
        int(params.get("ingest_blocks_per_query_block", 0))
        if ctx.mode == "e2e" else 0,
    )
    first.verify()

    if ctx.mode == "e2e":
        with ctx.untimed("service.server.stop"):
            first.system.stop()
        if mixed:
            first.restarts(2, "plain")
        reads = first.ingest if mixed else first.reads
        ctx.emit("ingest_values_per_s", first.ingest.rate(),
                 len(first.ingest.blocks))
        ctx.emit("query_p50_us", reads.op_p50_us("query"),
                 reads.op_count("query"))
        ctx.emit("rel_error_mean", first.rel_error_mean, len(first.errors))
        ctx.emit("state_bytes", first.state_bytes)
        return

    with ctx.untimed("service.server.stop"):
        first.system.stop()
    traced = Run(ctx, params, "traced", traced=True).start()
    traced.ingest_blocks(blocks, checkpoint_at)
    if mixed:
        _mixed_layers(ctx, params, first, traced)
    else:
        _ingest_layers(ctx, params, first, traced)
    # like for like: the traced pass against the same blocks untraced
    emit_harness(ctx, first.ingest.rate(), traced.ingest.rate(),
                 first.ingest.raw_rate())


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------


def _scaled_us(phase: Phase, seconds: list[float]) -> float:
    """Median of span durations, in µs at the phase's median calibration."""
    scale = CAL_REF_S / statistics.median(blk.cal_s for blk in phase.blocks)
    return statistics.median(seconds) * scale * 1e6


def _common_layers(ctx: Any, plain: Run, traced: Run) -> None:
    tracer = ctx.tracer
    ctx.emit("service.client.ingest_roundtrip_us",
             plain.ingest.op_p50_us("ingest"),
             plain.ingest.op_count("ingest"))
    ctx.emit("service.client.ingest_p99_us",
             plain.ingest.op_percentile_us("ingest", 99),
             plain.ingest.op_count("ingest"))
    records = tracer.durations(RECORD)
    ctx.emit("service.registry.record_us",
             _scaled_us(traced.ingest, records), len(records))


def _dispatch_probe(ctx: Any, run: Run, requests: int) -> None:
    """``server.dispatch`` called directly on fresh ingest requests.

    Each call is followed by the flush barrier, so the drain worker is
    idle when the next op is enqueued — the closed loop's regime — and
    the gap from ``dispatch`` returning to ``registry.record`` starting
    is the queue hand-off alone.
    """
    phase = Phase(ctx.cal, "probe.dispatch", ctx.tracer)
    server = run.system.server
    returned = []
    with phase.block() as blk:
        for name, values, frame in run.load.block()[:requests]:
            now = run.clock.advance(run.step_ms)
            request = {"op": "ingest", "metric": name, "values": frame,
                       "timestamp_ms": now}
            start = time.perf_counter()
            response = server.dispatch(request)
            returned.append(time.perf_counter())
            blk.op("dispatch", returned[-1] - start)
            server.flush()
            ctx.check(bool(response.get("ok")), f"dispatch: {response}")
            run.load.acked(name, now, values)
    ctx.emit("service.server.dispatch_ingest_us",
             phase.op_p50_us("dispatch"),
             phase.op_count("dispatch"))
    applied = sorted(
        s["start"] for s in ctx.tracer.spans
        if s["name"] == RECORD and s["thread"] != MAIN_THREAD
    )[-len(returned):]
    waits = [apply - done for done, apply in zip(returned, applied)]
    ctx.emit("service.server.queue_wait_us", _scaled_us(phase, waits),
             len(waits))


def _ingest_layers(
    ctx: Any, params: dict[str, Any], plain: Run, traced: Run
) -> None:
    tracer = ctx.tracer
    _common_layers(ctx, plain, traced)

    ctx.emit("service.server.flush_barrier_ms",
             plain.ingest.op_p50_us("flush") / 1e3,
             plain.ingest.op_count("flush"))
    record_ids = {s["id"] for s in tracer.spans if s["name"] == RECORD}
    updates = tracer.children_of(record_ids, "core.ddsketch.update_batch")
    update_s = [s["end"] - s["start"] for s in updates]
    ctx.emit("core.ddsketch.update_batch_us",
             _scaled_us(traced.ingest, update_s), len(update_s))
    by_parent = {s["parent"]: s["end"] - s["start"] for s in updates}
    selfs = [
        s["end"] - s["start"] - by_parent.get(s["id"], 0.0)
        for s in tracer.spans if s["name"] == RECORD
    ]
    ctx.emit("service.store.record_self_us",
             _scaled_us(traced.ingest, selfs), len(selfs))

    # direct calls on recorded payloads
    sample = traced.load.block()
    probe = Phase(ctx.cal, "probe.codec", tracer)
    wire = 0
    with probe.block() as blk:
        for name, values, frame in sample:
            request = {"op": "ingest", "metric": name, "values": frame,
                       "timestamp_ms": traced.clock.now_ms()}
            start = time.perf_counter()
            encoded = protocol.encode_frame(request)
            blk.op("encode", time.perf_counter() - start)
            start = time.perf_counter()
            protocol.decode_message(encoded[4:])
            blk.op("decode", time.perf_counter() - start)
            start = time.perf_counter()
            answer = protocol.encode_frame(protocol.ok(accepted=values.size))
            protocol.decode_message(answer[4:])
            blk.op("response", time.perf_counter() - start)
            wire += len(encoded) + len(answer)
    values_sent = sum(values.size for _n, values, _f in sample)
    encode = probe.op_p50_us("encode")
    decode = probe.op_p50_us("decode")
    response = probe.op_p50_us("response")
    ctx.emit("service.protocol.encode_request_us", encode, len(sample))
    ctx.emit("service.protocol.decode_request_us", decode, len(sample))
    ctx.emit("service.protocol.response_codec_us", response, len(sample))
    ctx.emit("service.wire_bytes_per_value", wire / values_sent)
    _dispatch_probe(ctx, traced, int(params["requests_per_block"]))
    ctx.emit("service.socket.self_us",
             ctx.metrics["service.client.ingest_roundtrip_us"]["value"]
             - encode - decode - response
             - ctx.metrics["service.server.dispatch_ingest_us"]["value"])

    server = traced.system.server
    body = protocol.encode_message({
        "op": "ingest", "metric": sample[0][0], "values": sample[0][2],
        "timestamp_ms": traced.clock.now_ms()})
    calls = _count_calls(
        lambda: server.dispatch(protocol.decode_message(body)))
    traced.load.acked(sample[0][0], traced.clock.now_ms(), sample[0][1])
    ctx.emit("service.py_calls_per_value", calls / sample[0][1].size)

    traced.client.flush()
    store = traced.system.registry.get(sample[0][0])
    hits = Phase(ctx.cal, "probe.query_hit", tracer)
    with hits.block() as blk:
        for _ in range(int(params["queries_per_block"])):
            start = time.perf_counter()
            store.quantile(0.99)
            blk.op("hit", time.perf_counter() - start)
    ctx.emit("service.store.query_hit_us", hits.op_p50_us("hit"),
             hits.op_count("hit"))

    traced.verify()
    snapshot = traced.system.telemetry.snapshot()
    coalesced = snapshot["counters"].get("server.drain_coalesced_ops", 0)
    ctx.emit("service.server.coalesced_ops_share",
             coalesced / traced.ingest.op_count("ingest"))
    ctx.emit("service.server.shed_share", traced.shed_share)
    ctx.emit("service.server.stop_s", traced.system.stop())

    # telemetry on against repro.obs.NOOP, blocks interleaved
    sides = {
        "on": Run(ctx, params, "obs-on").start(),
        "off": Run(ctx, params, "obs-off", telemetry=NOOP).start(),
    }
    for _ in range(max(4, len(plain.ingest.blocks) // 4)):
        for side in sides.values():
            side.ingest_blocks(1)
    for side in sides.values():
        side.verify()
        with ctx.untimed("service.server.stop"):
            side.system.stop()
    on = sides["on"].ingest.seconds_per_work()
    off = sides["off"].ingest.seconds_per_work()
    ctx.emit("obs.telemetry_overhead_share", (on - off) / on,
             len(sides["on"].ingest.blocks))


def _count_calls(fn: Any) -> int:
    """Python and C calls made by *fn* on this thread; repeats exactly."""
    calls = 0

    def profile(_frame: Any, event: str, _arg: Any) -> None:
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def _mixed_layers(
    ctx: Any, params: dict[str, Any], plain: Run, traced: Run
) -> None:
    tracer = ctx.tracer
    phase = traced.ingest
    _common_layers(ctx, plain, traced)
    ctx.emit("service.client.query_roundtrip_us",
             plain.ingest.op_p50_us("query"),
             plain.ingest.op_count("query"))
    ctx.emit("service.client.query_p99_us",
             plain.ingest.op_percentile_us("query", 99),
             plain.ingest.op_count("query"))

    # write path: journal contains wal.append; record contains the
    # sketch update, through the shards for the hot tenant
    journals = tracer.durations("durability.journal")
    appends = [s for s in tracer.spans if s["name"] == "durability.wal.append"]
    ctx.emit("durability.journal_us", _scaled_us(phase, journals),
             len(journals))
    ctx.emit("durability.wal.append_us",
             _scaled_us(phase, [s["end"] - s["start"] for s in appends]),
             len(appends))
    values_journaled = len(appends) * int(params["values_per_request"])
    # u32 length + u32 crc frame every payload
    ctx.emit("durability.wal_bytes_per_value",
             sum(s["tag"] + 8 for s in appends) / values_journaled)
    snapshot = traced.system.telemetry.snapshot()
    fsyncs = snapshot["histograms"].get("span.wal.fsync", {}).get("count", 0)
    ctx.emit("durability.wal.fsyncs_per_1k_records",
             1000.0 * fsyncs / len(appends), len(appends))
    updates = tracer.durations("core.kll.update_batch")
    ctx.emit("core.kll.update_batch_us", _scaled_us(phase, updates),
             len(updates))
    hot = [
        s["end"] - s["start"] for s in tracer.spans
        if s["name"] == RECORD and s.get("tag") == traced.system.hot
    ]
    ctx.emit("parallel.sharded.record_us", _scaled_us(phase, hot), len(hot))

    # read path: a merge inside a record (the drain thread) is
    # compaction; any other merge off the main thread builds a query's
    # view on a handler thread
    tracer.assign_requests(QUERY)
    merges = [s for s in tracer.spans if s["name"] == "core.kll.merge"]
    records = {s["id"] for s in tracer.spans if s["name"] == RECORD}
    view_merges = [
        s for s in merges
        if s["parent"] not in records and s["thread"] != MAIN_THREAD
    ]
    queries_merging = {s["request_id"] for s in view_merges}
    ctx.emit("service.store.partitions_per_query",
             len(view_merges) / max(1, len(queries_merging)),
             len(queries_merging))
    compaction: dict[int, float] = {}
    for span in merges:
        if span["parent"] in records:
            compaction[span["parent"]] = (
                compaction.get(span["parent"], 0.0)
                + span["end"] - span["start"]
            )
    ctx.emit("service.store.compactions",
             sum(1 for s in merges if s["parent"] in records))
    ctx.emit("service.store.compaction_ms_max",
             max(compaction.values(), default=0.0) * 1e3, len(compaction))
    hits = snapshot["counters"].get("store.view_cache_hit", 0)
    misses = snapshot["counters"].get("store.view_cache_miss", 0)
    ctx.emit("service.store.view_cache_hit_share",
             hits / max(1, hits + misses), hits + misses)

    # direct calls: a query no cached view can answer, a snapshot round
    # trip of the largest store, dispatch on fresh requests
    store = traced.system.registry.get(traced.system.hot)
    now = traced.clock.now_ms()
    window = float(params["query_window_ms"])
    miss = Phase(ctx.cal, "probe.query_miss", tracer)
    with miss.block() as blk:
        for offset in range(40):
            start = time.perf_counter()
            store.quantile(0.99, now - window - 1000.0 * offset, now)
            blk.op("miss", time.perf_counter() - start)
    ctx.emit("service.store.query_miss_us",
             miss.op_p50_us("miss"), miss.op_count("miss"))
    restore = Phase(ctx.cal, "probe.snapshot_restore", tracer)
    with restore.block() as blk:
        for _ in range(5):
            blob = store.snapshot()
            start = time.perf_counter()
            clone = TimePartitionedStore.restore(
                blob, lambda: _sharded(traced.system, params),
                clock=traced.clock)
            blk.op("restore", time.perf_counter() - start)
            ctx.check(clone.count() == store.count(),
                      "snapshot restore lost values")
    ctx.emit("service.store.snapshot_restore_ms",
             restore.op_p50_us("restore") / 1e3,
             restore.op_count("restore"))
    _dispatch_probe(ctx, traced, int(params["requests_per_block"]))

    traced.verify()
    ctx.emit("service.server.shed_share", traced.shed_share)
    checkpoints = tracer.durations("durability.checkpoint")
    ctx.emit("durability.checkpoint_write_ms",
             _scaled_us(phase, checkpoints) / 1e3, len(checkpoints))
    ctx.emit("durability.checkpoint_bytes",
             snapshot["gauges"].get("checkpoint.size_bytes", 0.0))
    with ctx.untimed("service.server.stop"):
        traced.system.stop()

    # restarts over the data directory the traced run left behind
    recovery = traced.restarts(ctx.reps(int(params["restarts"]), 3), "traced")
    ctx.emit("durability.recovery_s", recovery.seconds_per_work(),
             len(recovery.blocks))
    restores, replays = [], []
    recovers = [s for s in tracer.spans if s["name"] == "durability.recover"]
    # the first recover ran over the empty directory at start-up
    for recover in recovers[-len(recovery.blocks):]:
        inside = [s for s in tracer.spans if s["parent"] == recover["id"]]
        restores.append(sum(
            s["end"] - s["start"] for s in inside
            if s["name"] == "service.registry.restore_store"))
        replayed = [s for s in inside if s["name"] == RECORD]
        if replayed:
            replays.append(len(replayed) / (
                max(s["end"] for s in replayed)
                - min(s["start"] for s in replayed)))
    ctx.emit("durability.recover.restore_ms",
             _scaled_us(recovery, restores) / 1e3, len(restores))
    rate_scale = statistics.median(
        blk.cal_s for blk in recovery.blocks) / CAL_REF_S
    ctx.emit("durability.recover.replay_records_per_s",
             percentile(replays, 50) * rate_scale, len(replays))


def _sharded(system: System, params: dict[str, Any]) -> Any:
    """A hot-tenant partition, as the registry builds it."""
    return ShardedSketch(system.factory, int(params["hot_shards"]))
