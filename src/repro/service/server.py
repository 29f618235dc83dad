"""Threaded TCP front end for the quantile service.

:class:`QuantileServer` exposes a :class:`~repro.service.registry.MetricRegistry`
over the length-prefixed JSON protocol of :mod:`repro.service.protocol`,
using :class:`socketserver.ThreadingTCPServer` (one thread per
connection, the same shape as the paper's Flink task slots serving
operator queries).

Backpressure model
------------------
Queries are answered synchronously from the registry's merged-view
caches.  Ingest is decoupled: the handler validates the request,
enqueues it on a *bounded* queue and acks immediately; dedicated worker
threads drain the queue into the registry.  When the queue is full the
server does not block the socket and does not buffer unboundedly — it
*sheds* the request with an explicit ``overloaded`` response and counts
it, so clients see backpressure as data instead of latency.  The
``flush`` op barriers on the queue draining, which is what makes an
ingest-then-query sequence deterministic for the test harness.

``pause_ingest()`` / ``resume_ingest()`` hold the drain workers at a
gate; the overload benchmark and tests use them to force the queue-full
regime deterministically.

Drain coalescing
----------------
Each drain pass takes one queued op (blocking) and then opportunistically
pops up to ``ingest_coalesce - 1`` more without blocking.  Consecutive
ops addressed to the same ``(metric, tags, timestamp, clock)`` key are
concatenated and applied with *one* ``registry.record`` call —
Quancurrent's bulk propagation: values buffer cheaply (here: the ingest
queue itself) and the expensive critical section (the registry's store
locks and the sketch update) is paid once per batch instead of once per
request.  Coalescing happens strictly *after* the
WAL append, so journal-before-ack and WAL-order-equals-apply-order are
unaffected; per-key apply order is preserved because only adjacent
same-key ops merge.  A coalesced apply that fails is retried op by op,
so a poisoned op cannot take down its neighbours.

Durability
----------
With a :class:`~repro.durability.DurabilityManager` attached, every
accepted ingest is journaled to the write-ahead log *before* the ack
goes out (journal-before-ack): an acked batch survives a crash, and a
crashed batch was never acked.  The ingest lock serialises
journal+enqueue so WAL order equals queue order equals apply order —
``queue.full()`` is checked under the lock before journaling, and since
drain workers only ever *remove* items, the subsequent ``put_nowait``
cannot fail, keeping the log free of phantom (journaled-but-shed)
records.  Checkpoints run on the manager's injectable clock cadence
(checked after each ack) or on demand via the ``checkpoint`` op; both
quiesce ingestion and barrier on the queue so the snapshot exactly
matches the WAL watermark.  This module never imports
:mod:`repro.durability` at runtime — the manager arrives duck-typed,
keeping the service importable without the durability layer and the
layering acyclic.
"""

from __future__ import annotations

import contextlib
import math
import queue
import socket
import socketserver
import threading
from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np

from repro.errors import (
    DurabilityError,
    EmptySketchError,
    InvalidQuantileError,
    InvalidValueError,
    ProtocolError,
    ReproError,
)
from repro.obs.telemetry import Telemetry
from repro.service import protocol
from repro.service.clock import Clock, SystemClock
from repro.service.continuous import ContinuousQueryEngine
from repro.service.registry import MetricRegistry

if TYPE_CHECKING:  # pragma: no cover - type-only; no runtime cycle
    from repro.durability import DurabilityManager

#: One queued ingest, ``(metric, tags, values, timestamp_ms, now_ms)``: the
#: last two pin what durability journaled, so replay repeats the drain path.
_IngestOp = tuple[
    str, dict[str, str] | None, np.ndarray, float | None, float | None
]


class ServerStats:
    """Thread-safe request counters, reported by the ``stats`` op."""

    _FIELDS = (
        "requests",
        "ingest_requests",
        "ingested_values",
        "shed_requests",
        "query_requests",
        "error_responses",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = {field: 0 for field in self._FIELDS}

    def incr(self, field: str, n: int = 1) -> None:
        with self._lock:
            self._counts[field] += n

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)


class _TCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    #: Backlink injected by :class:`TCPFrontEnd`: any object with a
    #: ``dispatch(request) -> response`` method.
    service: "Dispatcher"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # Live connection sockets, so a stop can sever in-flight
        # conversations too — shutdown() only stops the accept loop,
        # and a "crashed" cluster node must not keep answering peers
        # over their pooled connections.
        self._conn_lock = threading.Lock()
        self._conns: set[Any] = set()

    def get_request(self) -> tuple[Any, Any]:
        request, client_address = super().get_request()
        with self._conn_lock:
            self._conns.add(request)
        return request, client_address

    def shutdown_request(self, request: Any) -> None:  # type: ignore[override]
        with self._conn_lock:
            self._conns.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        with self._conn_lock:
            conns = list(self._conns)
            self._conns.clear()
        for conn in conns:
            # Best-effort severing: the peer may have hung up first.
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                conn.close()


class _RequestHandler(socketserver.StreamRequestHandler):
    """One connection: a loop of request frame -> response frame."""

    def handle(self) -> None:
        service = self.server.service  # type: ignore[attr-defined]
        while True:
            try:
                request = protocol.read_frame(self.rfile)
            except ProtocolError as exc:
                # The stream is no longer frame-aligned; answer once
                # and drop the connection.
                self._reply(
                    protocol.error("protocol", str(exc))
                )
                return
            except OSError:
                # Peer vanished mid-read (reset, severed socket) — a
                # lagging consumer hanging up is not a server error.
                return
            if request is None:
                return
            if not self._reply(service.dispatch(request)):
                return

    def _reply(self, response: dict[str, Any]) -> bool:
        try:
            protocol.write_frame(self.wfile, response)
        except (OSError, ProtocolError):
            return False  # peer went away; nothing left to say
        return True


class Dispatcher:
    """Protocol for objects a :class:`TCPFrontEnd` can serve."""

    def dispatch(
        self, request: dict[str, Any]
    ) -> dict[str, Any]:  # pragma: no cover - interface only
        raise NotImplementedError


class TCPFrontEnd:
    """The bind/accept/serve half of a protocol endpoint.

    Owns a threaded TCP server plus its accept-loop thread and maps
    every request frame through *dispatcher*'s ``dispatch`` method.
    :class:`QuantileServer` serves its registry through one of these;
    the cluster routing proxy (:mod:`repro.cluster.proxy`) serves its
    forwarding table through another — same wire behaviour, different
    brains.
    """

    def __init__(
        self,
        dispatcher: "Dispatcher",
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._dispatcher = dispatcher
        self._host = host
        self._port = port
        self._server: _TCPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def running(self) -> bool:
        return self._server is not None

    def start(self, thread_name: str = "tcp-front-accept") -> None:
        if self._server is not None:
            raise InvalidValueError("front end already started")
        server = _TCPServer((self._host, self._port), _RequestHandler)
        server.service = self._dispatcher
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever,
            name=thread_name,
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        server = self._server
        if server is None:
            return
        # A shut-down listening socket polls readable, so the accept
        # loop sees the shutdown request now rather than at its next
        # 0.5 s select timeout (where a platform refuses to shut down
        # a listening socket, stop just waits out that poll).
        with contextlib.suppress(OSError):
            server.socket.shutdown(socket.SHUT_RDWR)
        server.shutdown()
        server.server_close()
        server.close_connections()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    @property
    def address(self) -> tuple[str, int]:
        """Actual (host, port) after binding."""
        if self._server is None:
            raise InvalidValueError("front end not started")
        host, port = self._server.server_address[:2]
        return str(host), int(port)


class QuantileServer:
    """TCP quantile service over a metric registry.

    Parameters
    ----------
    registry:
        The serving registry; built fresh (with *clock*) when omitted.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port, readable from
        :attr:`address` after :meth:`start`.
    ingest_queue_size:
        Bound of the ingest queue — the knob that trades buffering for
        shedding under overload.
    ingest_workers:
        Threads draining the ingest queue into the registry.
    ingest_coalesce:
        Max queued ops one drain pass merges into a single registry
        apply (see the module docstring's drain-coalescing section);
        ``1`` disables coalescing.
    clock:
        Time source for a default-constructed registry.
    telemetry:
        Observability sink (:mod:`repro.obs`).  Defaults to a fresh
        enabled :class:`~repro.obs.telemetry.Telemetry`; pass
        :data:`repro.obs.NOOP` (or one built with ``enabled=False``)
        to turn instrumentation off.  A default-constructed registry
        shares this instance, so store-level cache counters land in
        the same snapshot as the server's op spans.
    durability:
        Optional :class:`~repro.durability.DurabilityManager` (duck
        typed).  When set, :meth:`start` recovers the registry from
        its data directory, every accepted ingest is journaled before
        the ack, cadence checkpoints run on the manager's clock, and
        :meth:`stop` writes a final checkpoint.
    node_id:
        Stable identity reported by the ``node_info`` op; defaults to
        ``host:port`` of the bound address.  Cluster nodes set this to
        their ring identity so health checks and frontier exchange
        (which share the ``node_info`` code path) agree on names.
    final_checkpoint:
        Whether :meth:`stop` writes a closing checkpoint (the default).
        A checkpoint truncates the WAL segments it covers, so harnesses
        that *record* a WAL for later what-if replay
        (:mod:`repro.workload.whatif`) pass ``False`` to keep the full
        record stream on disk — checkpoint blobs are sketch-config
        specific and cannot be restored into an altered config, but raw
        WAL records can be replayed into any.
    """

    def __init__(
        self,
        registry: MetricRegistry | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        ingest_queue_size: int = 4096,
        ingest_workers: int = 1,
        ingest_coalesce: int = 64,
        clock: Clock | None = None,
        telemetry: Telemetry | None = None,
        durability: "DurabilityManager | None" = None,
        node_id: str | None = None,
        final_checkpoint: bool = True,
    ) -> None:
        if ingest_queue_size < 1:
            raise InvalidValueError(
                f"ingest_queue_size must be >= 1, got "
                f"{ingest_queue_size!r}"
            )
        if ingest_workers < 1:
            raise InvalidValueError(
                f"ingest_workers must be >= 1, got {ingest_workers!r}"
            )
        if ingest_coalesce < 1:
            raise InvalidValueError(
                f"ingest_coalesce must be >= 1, got {ingest_coalesce!r}"
            )
        clock = clock if clock is not None else SystemClock()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.registry = (
            registry
            if registry is not None
            else MetricRegistry(clock=clock, telemetry=self.telemetry)
        )
        self.stats = ServerStats()
        self.durability = durability
        self._final_checkpoint = bool(final_checkpoint)
        # Standing queries evaluate on the registry's clock so alert
        # windows and store partitions agree on "now".
        self.continuous = ContinuousQueryEngine(
            self.registry, telemetry=self.telemetry
        )
        self._host = host
        self._port = port
        self._node_id = node_id
        self._front = TCPFrontEnd(self, host, port)
        self._queue: "queue.Queue[_IngestOp | None]" = queue.Queue(
            maxsize=ingest_queue_size
        )
        self._ingest_workers = ingest_workers
        self._ingest_coalesce = ingest_coalesce
        # Serialises journal-then-enqueue against checkpoints; see the
        # module docstring's durability section for the invariants.
        self._ingest_lock = threading.Lock()
        self._drain_gate = threading.Event()
        self._drain_gate.set()
        # Parked-worker accounting: workers held at a *cleared* drain
        # gate count themselves here, and wait_parked() lets a harness
        # rendezvous with "all W workers are parked holding one batch
        # each" — the precondition for byte-exact shed counts in the
        # deterministic overload scenarios.
        self._park_lock = threading.Condition()
        self._parked = 0
        # Guards the start/stop lifecycle fields below; never held
        # while waiting on the queue or workers' locks, so it sits
        # outside the ingest-lock hierarchy entirely.
        self._lifecycle_lock = threading.Lock()
        # Drain workers poll this so shutdown never depends on a
        # sentinel surviving a full queue (see stop()).
        self._stopping = threading.Event()
        self._workers: list[threading.Thread] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "QuantileServer":
        """Bind, start the accept loop and the drain workers.

        With durability attached, the registry is recovered from disk
        (checkpoint + WAL replay) before the first connection is
        accepted, so every query answers over the durable state.
        """
        with self._lifecycle_lock:
            if self._front.running:
                raise InvalidValueError("server already started")
            self._recover()
            self._stopping.clear()
            self._front.start(thread_name="quantile-server-accept")
            self._spawn_workers_locked()
        return self

    def _recover(self) -> None:
        """Lifecycle hook: rebuild serving state before accepting.

        The base server recovers through its durability manager;
        cluster nodes override this to replay their origin WAL.
        """
        if self.durability is not None:
            self.durability.recover(self.registry)

    def _spawn_workers_locked(self) -> None:
        """Lifecycle hook: start the ingest drain workers.

        Cluster nodes apply ingests synchronously under replication
        locks and override this to spawn nothing.
        """
        for index in range(self._ingest_workers):
            worker = threading.Thread(
                target=self._drain,
                name=f"quantile-server-ingest-{index}",
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)

    def stop(self) -> None:
        """Stop accepting, drain shutdown sentinels, join all threads.

        Shutdown must terminate even when the ingest queue is full and
        a worker is wedged: the sentinel ``put`` uses a timeout (a full
        queue would otherwise block forever — the exact deadlock LCK003
        exists to catch), and workers also poll :attr:`_stopping`, so a
        sentinel that never fit in the queue still stops them.
        """
        with self._lifecycle_lock:
            if not self._front.running:
                return
            self._front.stop()
            self._stopping.set()
            self.resume_ingest()
            for _ in self._workers:
                try:
                    self._queue.put(None, timeout=1.0)
                except queue.Full:
                    # Workers notice _stopping on their next get()
                    # timeout; don't wedge shutdown behind a full queue.
                    break
            for worker in self._workers:
                worker.join(timeout=5.0)
            self._workers = []
        if self.durability is not None:
            # Workers are joined and the queue is drained, so the
            # registry reflects every journaled record: checkpoint it
            # to make the next start a replay-free recovery.  A failed
            # final checkpoint is survivable (the WAL still covers
            # everything) and must not block shutdown — including on a
            # poisoned WAL, whose rotate raises WALError, not OSError.
            try:
                if self._final_checkpoint and (
                    self.durability.wal.last_seq
                    > self.durability.last_checkpoint_seq
                ):
                    self.durability.checkpoint_now(self.registry)
            except (OSError, DurabilityError):
                self.telemetry.counter(
                    "server.checkpoint_failures"
                ).inc()
            self.durability.close()

    def __enter__(self) -> "QuantileServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    @property
    def address(self) -> tuple[str, int]:
        """Actual (host, port) after binding."""
        if not self._front.running:
            raise InvalidValueError("server not started")
        return self._front.address

    @property
    def node_id(self) -> str:
        """Identity reported by ``node_info`` (default: bound address)."""
        if self._node_id is not None:
            return self._node_id
        if self._front.running:
            host, port = self._front.address
            return f"{host}:{port}"
        return f"{self._host}:{self._port}"

    # ------------------------------------------------------------------
    # Ingest pipeline
    # ------------------------------------------------------------------

    def pause_ingest(self) -> None:
        """Hold drain workers at the gate (overload simulation)."""
        self._drain_gate.clear()

    def resume_ingest(self) -> None:
        self._drain_gate.set()

    def parked_workers(self) -> int:
        """Drain workers currently held at a cleared gate."""
        with self._park_lock:
            return self._parked

    def wait_parked(self, n: int, timeout: float = 5.0) -> bool:
        """Block until *n* drain workers are parked at the gate.

        The deterministic-overload protocol: ``pause_ingest()``, send
        one batch per worker, ``wait_parked(workers)`` — now every
        worker holds exactly one in-flight batch and the queue's free
        capacity is exact, so the next ``queue_size`` sends are all
        accepted and every send after that is shed, byte-for-byte
        reproducibly.  Returns whether the rendezvous happened within
        *timeout* seconds.
        """
        with self._park_lock:
            return self._park_lock.wait_for(
                lambda: self._parked >= n, timeout=timeout
            )

    def flush(self) -> None:
        """Block until every enqueued ingest has been applied.

        Callers hold the ingest lock here, which is safe *because* the
        drain workers never acquire it: they only consume the queue and
        call ``task_done()``, so the join always makes progress while
        the lock keeps new journal/enqueue pairs out mid-flush.
        """
        self._queue.join()  # repro: noqa[LCK003]

    def queue_depth(self) -> int:
        """Approximate number of pending ingest batches."""
        return self._queue.qsize()

    def _drain(self) -> None:
        while True:
            try:
                item = self._queue.get(timeout=0.5)
            except queue.Empty:
                if self._stopping.is_set():
                    return
                continue
            if item is None:
                self._queue.task_done()
                return
            if not self._drain_gate.is_set():
                # Count the park only when the gate is actually closed:
                # the set-gate fast path must not bounce the condition
                # lock per batch, and wait_parked() must only ever see
                # workers that are truly held.
                with self._park_lock:
                    self._parked += 1
                    self._park_lock.notify_all()
                self._drain_gate.wait()
                with self._park_lock:
                    self._parked -= 1
                    self._park_lock.notify_all()
            batch = [item]
            got_sentinel = False
            while len(batch) < self._ingest_coalesce:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is None:
                    got_sentinel = True
                    break
                batch.append(extra)
            try:
                self._apply_ops(batch)
            finally:
                for _ in batch:
                    self._queue.task_done()
                if got_sentinel:
                    self._queue.task_done()
                self.telemetry.gauge("server.ingest_queue_depth").set(
                    self._queue.qsize()
                )
            if got_sentinel:
                return

    def _apply_ops(self, batch: list[_IngestOp]) -> None:
        """Apply drained ops, merging adjacent same-key runs.

        Only *consecutive* ops with identical ``(metric, tags,
        timestamp, clock)`` coalesce, which preserves per-key apply
        order.  Atomic batch rejection (validation precedes mutation in
        every ``update_batch``) makes the op-by-op retry on failure
        safe: a failed merged apply left nothing behind.
        """
        start = 0
        total = len(batch)
        while start < total:
            name, tags, values, timestamp_ms, now_ms = batch[start]
            end = start + 1
            while end < total:
                other = batch[end]
                if (
                    other[0] != name
                    or other[1] != tags
                    or other[3] != timestamp_ms
                    or other[4] != now_ms
                ):
                    break
                end += 1
            merged = values
            if end - start > 1:
                merged = np.concatenate([op[2] for op in batch[start:end]])
                self.telemetry.counter("server.drain_coalesced_ops").inc(
                    end - start - 1
                )
            try:
                with self.telemetry.span("server.drain_batch"):
                    accepted = self.registry.record(
                        name, merged, timestamp_ms, tags, now_ms=now_ms
                    )
                self.stats.incr("ingested_values", accepted)
            except ReproError:
                # A poisoned op must not kill the drain thread or take
                # down coalesced neighbours: retry one op at a time.
                if end - start == 1:
                    self.stats.incr("error_responses")
                else:
                    for op in batch[start:end]:
                        try:
                            accepted = self.registry.record(
                                op[0], op[2], op[3], op[1], now_ms=op[4]
                            )
                            self.stats.incr("ingested_values", accepted)
                        except ReproError:
                            self.stats.incr("error_responses")
            start = end

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------

    def dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        """Map one request object to its response object."""
        self.stats.incr("requests")
        op = request.get("op")
        handler = self._OPS.get(op) if isinstance(op, str) else None
        if handler is None:
            self.stats.incr("error_responses")
            return protocol.error(
                "unknown_op",
                f"unknown op {op!r}; expected one of "
                f"{sorted(self._OPS)}",
            )
        try:
            # The span lands the handler's latency in the self-hosted
            # histogram "span.server.op.<op>" (see repro.obs).
            with self.telemetry.span(f"server.op.{op}"):
                return handler(self, request)
        except EmptySketchError as exc:
            self.stats.incr("error_responses")
            return protocol.error("empty", str(exc))
        except InvalidQuantileError as exc:
            self.stats.incr("error_responses")
            return protocol.error("invalid_quantile", str(exc))
        except (InvalidValueError, ProtocolError) as exc:
            self.stats.incr("error_responses")
            return protocol.error("bad_request", str(exc))
        except (KeyError, TypeError, ValueError) as exc:
            self.stats.incr("error_responses")
            return protocol.error(
                "bad_request", f"{type(exc).__name__}: {exc}"
            )

    # -- op implementations --------------------------------------------

    def _op_ping(self, request: dict[str, Any]) -> dict[str, Any]:
        return protocol.ok(pong=True)

    # -- node identity / frontier hooks (overridden by cluster nodes) --

    def role(self) -> str:
        """This endpoint's replication role (``standalone`` here)."""
        return "standalone"

    def wal_watermark(self) -> int:
        """Newest durable WAL sequence (0 without durability)."""
        if self.durability is None:
            return 0
        return int(self.durability.wal.last_seq)

    def partition_frontier(self) -> dict[str, int]:
        """Per-origin applied watermarks (empty for a standalone node).

        Cluster nodes override this with their replication frontier —
        the same mapping anti-entropy rounds exchange, so health checks
        and reconciliation read one code path.
        """
        return {}

    def _op_node_info(self, request: dict[str, Any]) -> dict[str, Any]:
        """Health check and frontier exchange in one op.

        ``ping`` answers liveness; ``node_info`` adds who is answering
        (node id, role), how durable it is (WAL watermark) and what it
        has applied (partition frontier), so failure detection and
        anti-entropy share a single code path.
        """
        return protocol.ok(
            node_id=self.node_id,
            role=self.role(),
            wal_watermark=self.wal_watermark(),
            frontier=self.partition_frontier(),
        )

    @staticmethod
    def _parse_ingest(
        request: dict[str, Any],
    ) -> tuple[str, dict[str, str] | None, np.ndarray, float | None]:
        """``(name, tags, values, timestamp_ms)`` of a valid ingest frame;
        *values* comes back as a float64 array nobody else holds."""
        name = _require_metric(request)
        tags = _optional_tags(request)
        raw = request.get("values")
        if not isinstance(raw, (list, np.ndarray)) or len(raw) == 0:
            raise InvalidValueError("ingest needs a non-empty 'values' list")
        values = protocol.float_values(raw)
        timestamp_ms = request.get("timestamp_ms")
        if timestamp_ms is not None:
            timestamp_ms = float(timestamp_ms)
            if not math.isfinite(timestamp_ms):  # no partition holds it
                raise InvalidValueError("'timestamp_ms' must be finite")
        return name, tags, values, timestamp_ms

    def _op_ingest(self, request: dict[str, Any]) -> dict[str, Any]:
        name, tags, values, timestamp_ms = self._parse_ingest(request)
        self.stats.incr("ingest_requests")
        if self.durability is not None:
            with self._ingest_lock:
                # Shed *before* journaling: the WAL must hold exactly
                # the acked operations.  Workers only remove items, so
                # a non-full queue here cannot fill before the put.
                if self._queue.full():
                    return self._shed()
                try:
                    _seq, ts, now = self.durability.journal(
                        name, tags, values, timestamp_ms
                    )
                except OSError as exc:
                    # Not journaled => not acked, not applied.
                    self.stats.incr("error_responses")
                    return protocol.error(
                        "durability",
                        f"journal write failed: {exc}",
                    )
                self._queue.put_nowait((name, tags, values, ts, now))
        else:
            try:
                self._queue.put_nowait(
                    (name, tags, values, timestamp_ms, None)
                )
            except queue.Full:
                return self._shed()
        self.telemetry.gauge("server.ingest_queue_depth").set(
            self._queue.qsize()
        )
        response = protocol.ok(accepted=len(values))
        if (
            self.durability is not None
            and self.durability.checkpoint_due()
        ):
            self.maybe_checkpoint()
        return response

    def _shed(self) -> dict[str, Any]:
        self.stats.incr("shed_requests")
        self.telemetry.counter("server.shed_requests").inc()
        return protocol.shed(
            f"ingest queue full ({self._queue.maxsize} batches); "
            f"request shed"
        )

    def maybe_checkpoint(self) -> bool:
        """Run a cadence checkpoint if one is (still) due.

        Quiesces ingestion (ingest lock), barriers on the queue so the
        registry reflects every journaled record, re-checks dueness
        under the lock (another thread may have just checkpointed) and
        snapshots.  Returns whether a checkpoint was written.
        """
        durability = self.durability
        if durability is None:
            return False
        with self._ingest_lock:
            if not durability.checkpoint_due():
                return False
            self.flush()
            try:
                durability.checkpoint_now(self.registry)
            except OSError:
                # A failed checkpoint loses no data — the WAL still
                # holds everything — so the ingest that triggered the
                # cadence must not fail with it.
                self.stats.incr("error_responses")
                self.telemetry.counter(
                    "server.checkpoint_failures"
                ).inc()
                return False
            return True

    def _op_flush(self, request: dict[str, Any]) -> dict[str, Any]:
        self.flush()
        return protocol.ok(flushed=True)

    def _op_checkpoint(self, request: dict[str, Any]) -> dict[str, Any]:
        durability = self.durability
        if durability is None:
            raise InvalidValueError(
                "checkpoint requires the server to run with durability "
                "enabled"
            )
        try:
            with self._ingest_lock:
                self.flush()
                durability.checkpoint_now(self.registry)
        except OSError as exc:
            self.stats.incr("error_responses")
            self.telemetry.counter("server.checkpoint_failures").inc()
            return protocol.error(
                "durability", f"checkpoint failed: {exc}"
            )
        return protocol.ok(
            checkpoint_seq=durability.last_checkpoint_seq
        )

    def _op_quantile(self, request: dict[str, Any]) -> dict[str, Any]:
        store, t0, t1 = self._query_target(request)
        q = request.get("q")
        if isinstance(q, list):
            qs = [float(item) for item in q]
            return protocol.ok(
                quantiles=store.merged(t0, t1).quantiles(qs)
            )
        if q is None:
            raise InvalidValueError(
                "quantile needs 'q': a number or a list of numbers"
            )
        return protocol.ok(
            quantile=store.merged(t0, t1).quantile(float(q))
        )

    def _op_rank(self, request: dict[str, Any]) -> dict[str, Any]:
        store, t0, t1 = self._query_target(request)
        value = _require_number(request, "value")
        return protocol.ok(rank=store.merged(t0, t1).rank(value))

    def _op_cdf(self, request: dict[str, Any]) -> dict[str, Any]:
        store, t0, t1 = self._query_target(request)
        value = _require_number(request, "value")
        return protocol.ok(cdf=store.merged(t0, t1).cdf(value))

    def _op_count(self, request: dict[str, Any]) -> dict[str, Any]:
        store, t0, t1 = self._query_target(request)
        return protocol.ok(count=store.count(t0, t1))

    # -- continuous queries --------------------------------------------

    def _op_cq_register(self, request: dict[str, Any]) -> dict[str, Any]:
        spec = request.get("query")
        if not isinstance(spec, dict):
            raise InvalidValueError(
                "cq_register needs a 'query' object (the query spec)"
            )
        return protocol.ok(id=self.continuous.register(spec))

    def _op_cq_unregister(
        self, request: dict[str, Any]
    ) -> dict[str, Any]:
        query_id = request.get("id")
        if not isinstance(query_id, str) or not query_id:
            raise InvalidValueError(
                "cq_unregister needs a non-empty string 'id'"
            )
        return protocol.ok(removed=self.continuous.unregister(query_id))

    def _op_cq_list(self, request: dict[str, Any]) -> dict[str, Any]:
        return protocol.ok(queries=self.continuous.specs())

    def _op_cq_eval(self, request: dict[str, Any]) -> dict[str, Any]:
        self.stats.incr("query_requests")
        return protocol.ok(results=self.continuous.evaluate())

    def _op_cq_results(self, request: dict[str, Any]) -> dict[str, Any]:
        limit = request.get("limit")
        if limit is not None and (
            isinstance(limit, bool) or not isinstance(limit, int)
        ):
            raise InvalidValueError("'limit' must be an integer")
        return protocol.ok(results=self.continuous.results(limit))

    def _op_metrics(self, request: dict[str, Any]) -> dict[str, Any]:
        listing = [
            {"name": key.name, "tags": key.as_dict()}
            for key in self.registry.keys()
        ]
        return protocol.ok(metrics=listing)

    def _op_stats(self, request: dict[str, Any]) -> dict[str, Any]:
        combined: dict[str, int] = dict(self.registry.stats())
        combined.update(self.stats.snapshot())
        if self.durability is not None:
            combined.update(self.durability.stats())
        return protocol.ok(stats=combined)

    def _stores_for(
        self, name: str, tags: dict[str, str] | None
    ) -> Any | None:
        """Hook: what a read of ``(name, tags)`` queries, or ``None``
        (cluster nodes read every origin replica of the key)."""
        return self.registry.get(name, tags)

    def _query_target(
        self, request: dict[str, Any]
    ) -> tuple[Any, float | None, float | None]:
        name = _require_metric(request)
        tags = _optional_tags(request)
        self.stats.incr("query_requests")
        store = self._stores_for(name, tags)
        if store is None:
            raise InvalidValueError(
                f"unknown metric {name!r} (no values ingested)"
            )
        t0 = request.get("t0")
        t1 = request.get("t1")
        return (
            store,
            None if t0 is None else float(t0),
            None if t1 is None else float(t1),
        )

    _OPS: dict[str, Callable[["QuantileServer", dict[str, Any]], dict[str, Any]]] = {
        "ping": _op_ping,
        "node_info": _op_node_info,
        "ingest": _op_ingest,
        "flush": _op_flush,
        "checkpoint": _op_checkpoint,
        "quantile": _op_quantile,
        "rank": _op_rank,
        "cdf": _op_cdf,
        "count": _op_count,
        "metrics": _op_metrics,
        "stats": _op_stats,
        "cq_register": _op_cq_register,
        "cq_unregister": _op_cq_unregister,
        "cq_list": _op_cq_list,
        "cq_eval": _op_cq_eval,
        "cq_results": _op_cq_results,
    }


def _require_metric(request: Mapping[str, Any]) -> str:
    name = request.get("metric")
    if not isinstance(name, str) or not name:
        raise InvalidValueError(
            "request needs a non-empty string 'metric'"
        )
    return name


def _optional_tags(request: Mapping[str, Any]) -> dict[str, str] | None:
    tags = request.get("tags")
    if tags is None:
        return None
    if not isinstance(tags, dict):
        raise InvalidValueError("'tags' must be an object of strings")
    return {str(key): str(value) for key, value in tags.items()}


def _require_number(request: Mapping[str, Any], field: str) -> float:
    value = request.get(field)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InvalidValueError(
            f"request needs a numeric {field!r} field"
        )
    return float(value)
