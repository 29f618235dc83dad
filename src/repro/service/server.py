"""The quantile service: a metric registry behind a TCP front end.

:class:`QuantileServer` exposes a :class:`~repro.service.registry.MetricRegistry`
over the length-prefixed frames of :mod:`repro.service.protocol`
(canonical JSON, plus a raw float64 tail on ingest frames) through a
:class:`~repro.service.frontend.TCPFrontEnd` (one thread per
connection, the same shape as the paper's Flink task slots serving
operator queries).  Which ops exist, and the readers and error answers
every handler shares, are declared once in :mod:`repro.service.ops`.

Backpressure model
------------------
Queries are answered synchronously from the registry's merged-view
caches.  An ingest is validated, enqueued on a *bounded* queue and
acked; one worker thread drains the queue into the registry.  A full
queue *sheds* the request with an explicit ``overloaded`` answer, so
clients see backpressure as data instead of latency.  ``flush``
barriers on the queue, which makes ingest-then-query deterministic;
``pause_ingest()`` / ``resume_ingest()`` hold the worker at a gate to
force the queue-full regime deterministically.

One drain (DESIGN §6, §12)
--------------------------
The queue carries :class:`~repro.service.registry.IngestOp` records.  A
drain pass takes the op it blocked on plus up to ``DRAIN_SLICE - 1``
more and hands the slice to :func:`~repro.service.registry.apply_ops`,
which records each run of adjacent same-key ops as one batch — the
grouping every write path shares.  The slice is taken in queue order,
strictly after the WAL append, so per-key and WAL apply order are
unchanged.  One worker, because the paper scales by merging sketches,
not by adding threads, and under the GIL a second worker measured no
faster (DESIGN §6).

Durability (DESIGN §11)
-----------------------
With a :class:`~repro.durability.DurabilityManager` attached, an ingest
is journaled *before* its ack.  The ingest lock serialises
journal+enqueue, and ``queue.full()`` is checked under it before
journaling (the worker only removes items), so WAL order is apply order
and the log holds no journaled-but-shed record.  Cadence, on-demand
(``checkpoint`` op) and final (:meth:`~QuantileServer.stop`)
checkpoints quiesce ingestion and barrier on the queue, so a snapshot
matches the WAL watermark exactly; a failed journal or checkpoint is
answered with a ``durability`` error.  The manager arrives duck-typed:
this module never imports :mod:`repro.durability` at runtime.
"""

from __future__ import annotations

import contextlib
import queue
import threading
from typing import TYPE_CHECKING, Any

from repro.errors import DurabilityError, InvalidValueError
from repro.obs.telemetry import Telemetry
from repro.service import ops, protocol
from repro.service.clock import Clock, SystemClock
from repro.service.continuous import ContinuousQueryEngine, Reads
from repro.service.frontend import TCPFrontEnd
from repro.service.registry import IngestOp, MetricRegistry, apply_ops

if TYPE_CHECKING:  # pragma: no cover - type-only; no runtime cycle
    from repro.durability import DurabilityManager

#: Most queued ops one drain pass hands to ``apply_ops``.
DRAIN_SLICE = 64


class ServerStats:
    """Thread-safe request counters, reported by the ``stats`` op."""

    _FIELDS = (
        "requests", "ingest_requests", "ingested_values",
        "shed_requests", "query_requests", "error_responses",
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
        clock: Clock | None = None,
        telemetry: Telemetry | None = None,
        durability: "DurabilityManager | None" = None,
        node_id: str | None = None,
        final_checkpoint: bool = True,
    ) -> None:
        if ingest_queue_size < 1:
            raise InvalidValueError(
                f"ingest_queue_size must be >= 1, got {ingest_queue_size!r}"
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
        # One lookup behind query ops, ``metrics`` and standing queries
        # (whose windows read its clock, so alert windows and store
        # partitions agree on "now").
        self.reads = self._read_view()
        self.continuous = ContinuousQueryEngine(
            self.reads, telemetry=self.telemetry
        )
        self._host = host
        self._port = port
        self._node_id = node_id
        self._front = TCPFrontEnd(self.dispatch, host, port)
        self._handlers = ops.handlers(self)
        self._queue: "queue.Queue[IngestOp | None]" = queue.Queue(
            maxsize=ingest_queue_size
        )
        # Serialises journal-then-enqueue against checkpoints; see the
        # module docstring's durability section for the invariants.
        self._ingest_lock = threading.Lock()
        self._drain_gate = threading.Event()
        self._drain_gate.set()
        # The worker marks itself here while held at a *cleared* drain
        # gate, and wait_parked() lets a harness rendezvous with "the
        # worker is parked holding one batch" — the precondition for
        # byte-exact shed counts in the deterministic overload
        # scenarios.
        self._park_lock = threading.Condition()
        self._parked = False
        # Guards the start/stop lifecycle fields below.  Ordered
        # before the ingest lock (stop's final checkpoint); nothing
        # that holds the ingest lock ever takes it.
        self._lifecycle_lock = threading.Lock()
        # The drain worker polls this so shutdown never depends on a
        # sentinel surviving a full queue (see stop()).
        self._stopping = threading.Event()
        self._worker: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "QuantileServer":
        """Bind, start the accept loop and the drain worker.

        With durability attached, the registry is recovered from disk
        (checkpoint + WAL replay) before the first connection is
        accepted, so every query answers over the durable state.
        """
        with self._lifecycle_lock:
            if self._front.running:
                raise InvalidValueError("server already started")
            if self.durability is not None:
                self.durability.recover(self.registry)
            self._stopping.clear()
            self._front.start(thread_name="quantile-server-accept")
            self._spawn_worker_locked()
        return self

    def _read_view(self) -> Reads:
        """Hook: the lookup reads go through — ``get(name, tags)``,
        ``keys()`` and ``clock`` (cluster nodes span every origin)."""
        return self.registry

    def _spawn_worker_locked(self) -> None:
        """Lifecycle hook: start the ingest drain worker.

        Cluster nodes apply ingests synchronously under replication
        locks and override this to spawn nothing.
        """
        self._worker = threading.Thread(
            target=self._drain, name="quantile-server-ingest", daemon=True
        )
        self._worker.start()

    def stop(self) -> None:
        """Stop accepting, checkpoint, drain the shutdown sentinel, join.

        The final checkpoint (replay-free next start) runs while the
        worker is alive, so its queue barrier always completes; if it
        fails, the WAL still covers everything.  Shutdown must
        terminate even when the ingest queue is full and the worker is
        wedged: the sentinel ``put`` uses a timeout (a full queue would
        otherwise block forever — the exact deadlock LCK003 exists to
        catch), and the worker also polls :attr:`_stopping`, so a
        sentinel that never fit in the queue still stops it.
        """
        with self._lifecycle_lock:
            if not self._front.running:
                return
            self._front.stop()
            self.resume_ingest()
            durability = self.durability
            if durability is not None and self._final_checkpoint:
                with self._ingest_lock:
                    if (
                        durability.wal.last_seq
                        > durability.last_checkpoint_seq
                    ):
                        self._checkpoint_locked()
            self._stopping.set()
            if self._worker is not None:
                # On a full queue the worker notices _stopping at its
                # next get() timeout; don't wedge shutdown behind it.
                with contextlib.suppress(queue.Full):
                    self._queue.put(None, timeout=1.0)
                self._worker.join(timeout=5.0)
                self._worker = None
        if self.durability is not None:
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
        """Hold the drain worker at the gate (overload simulation)."""
        self._drain_gate.clear()

    def resume_ingest(self) -> None:
        self._drain_gate.set()

    def wait_parked(self, timeout: float = 5.0) -> bool:
        """Block until the drain worker is parked at the gate.

        The deterministic-overload protocol: ``pause_ingest()``, send
        one batch, ``wait_parked()`` — now the worker holds exactly one
        in-flight batch and the queue's free capacity is exact, so the
        next ``queue_size`` sends are all accepted and every send after
        that is shed, byte-for-byte reproducibly.  Returns whether the
        rendezvous happened within *timeout* seconds.
        """
        with self._park_lock:
            return self._park_lock.wait_for(
                lambda: self._parked, timeout=timeout
            )

    def flush(self) -> None:
        """Block until every enqueued ingest has been applied.

        Callers hold the ingest lock here, which is safe *because* the
        drain worker never acquires it: it only consumes the queue and
        calls ``task_done()``, so the join always makes progress while
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
                # Mark the park only when the gate is actually closed:
                # the set-gate fast path must not bounce the condition
                # lock per batch, and wait_parked() must only ever see
                # a worker that is truly held.
                with self._park_lock:
                    self._parked = True
                    self._park_lock.notify_all()
                self._drain_gate.wait()
                with self._park_lock:
                    self._parked = False
                    self._park_lock.notify_all()
            batch = [item]
            got_sentinel = False
            while len(batch) < DRAIN_SLICE:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is None:
                    got_sentinel = True
                    break
                batch.append(extra)
            try:
                with self.telemetry.span("server.drain_batch"):
                    accepted, rejected = apply_ops(self.registry, batch)
                self.stats.incr("ingested_values", accepted)
                if rejected:
                    self.stats.incr("error_responses", rejected)
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

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------

    def dispatch(self, request: dict[str, Any]) -> dict[str, Any]:
        """Map one request object to its response object."""
        self.stats.incr("requests")
        try:
            op = request["op"]
            handler = self._handlers[op]
        except (KeyError, TypeError):  # absent, unhashable or unknown
            self.stats.incr("error_responses")
            return protocol.error(
                "unknown_op",
                f"unknown op {request.get('op')!r}; expected one of "
                f"{sorted(self._handlers)}",
            )
        try:
            # The span lands the handler's latency in the self-hosted
            # histogram "span.server.op.<op>" (see repro.obs).
            with self.telemetry.span(f"server.op.{op}"):
                return handler(request)
        except ops.ANSWERED as exc:
            self.stats.incr("error_responses")
            return ops.answer(exc)

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

    def _journal_op(self, op: IngestOp) -> IngestOp | dict[str, Any]:
        """Journal *op* under the caller's ingest lock: the op with its
        ``ts``/``now`` pinned, or the ``durability`` error response
        (not journaled: not acked, not applied) — also for the
        ``WALError`` every append to a poisoned WAL raises."""
        assert self.durability is not None
        try:
            _seq, ts, now = self.durability.journal(
                op.metric, op.tags, op.values, op.ts
            )
        except (OSError, DurabilityError) as exc:
            self.stats.incr("error_responses")
            return protocol.error("durability", f"journal write failed: {exc}")
        return op._replace(ts=ts, now=now)

    def _op_ingest(self, request: dict[str, Any]) -> dict[str, Any]:
        op = ops.ingest_op(request)
        self.stats.incr("ingest_requests")
        response = self._admit(op)
        if response["ok"]:
            self.maybe_checkpoint()
        return response

    def _admit(self, op: IngestOp) -> dict[str, Any]:
        """Journal and enqueue a parsed ingest: its ack, or why not."""
        if self.durability is not None:
            with self._ingest_lock:
                # Shed *before* journaling: the WAL must hold exactly
                # the acked operations.  The worker only removes items,
                # so a non-full queue here cannot fill before the put.
                if self._queue.full():
                    return self._shed()
                journaled = self._journal_op(op)
                if isinstance(journaled, dict):
                    return journaled
                self._queue.put_nowait(journaled)
        else:
            try:
                self._queue.put_nowait(op)
            except queue.Full:
                return self._shed()
        self.telemetry.gauge("server.ingest_queue_depth").set(
            self._queue.qsize()
        )
        return protocol.ok(accepted=len(op.values))

    def _shed(self) -> dict[str, Any]:
        self.stats.incr("shed_requests")
        self.telemetry.counter("server.shed_requests").inc()
        return protocol.shed(
            f"ingest queue full ({self._queue.maxsize} batches); "
            f"request shed"
        )

    def maybe_checkpoint(self) -> bool:
        """Run a cadence checkpoint if one is due (checked again under
        the ingest lock); returns whether a checkpoint was written."""
        durability = self.durability
        if durability is None or not durability.checkpoint_due():
            return False
        with self._ingest_lock:
            if not durability.checkpoint_due():
                return False
            # A failed cadence checkpoint must not fail the ingest
            # that triggered it.
            return self._checkpoint_locked() is None

    def _checkpoint_locked(self) -> Exception | None:
        """Barrier on the queue, then checkpoint at the WAL watermark
        (the caller holds the ingest lock).  A failure loses no data —
        the WAL holds everything — so it is counted and returned."""
        assert self.durability is not None
        self.flush()
        try:
            self.durability.checkpoint_now(self.registry)
        except (OSError, DurabilityError) as exc:
            self.stats.incr("error_responses")
            self.telemetry.counter("server.checkpoint_failures").inc()
            return exc
        return None

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
        with self._ingest_lock:
            failure = self._checkpoint_locked()
        if failure is None:
            return protocol.ok(checkpoint_seq=durability.last_checkpoint_seq)
        return protocol.error("durability", f"checkpoint failed: {failure}")

    def _op_quantile(self, request: dict[str, Any]) -> dict[str, Any]:
        store, t0, t1 = self._query_target(request)
        q = ops.quantiles(request)
        if isinstance(q, list):
            return protocol.ok(quantiles=store.merged(t0, t1).quantiles(q))
        return protocol.ok(quantile=store.merged(t0, t1).quantile(q))

    def _op_rank(self, request: dict[str, Any]) -> dict[str, Any]:
        store, t0, t1 = self._query_target(request)
        value = ops.number(request, "value")
        return protocol.ok(rank=store.merged(t0, t1).rank(value))

    def _op_cdf(self, request: dict[str, Any]) -> dict[str, Any]:
        store, t0, t1 = self._query_target(request)
        value = ops.number(request, "value")
        return protocol.ok(cdf=store.merged(t0, t1).cdf(value))

    def _op_count(self, request: dict[str, Any]) -> dict[str, Any]:
        store, t0, t1 = self._query_target(request)
        return protocol.ok(count=store.count(t0, t1))

    # -- continuous queries --------------------------------------------

    def _op_cq_register(self, request: dict[str, Any]) -> dict[str, Any]:
        spec = ops.obj(request, "query")
        return protocol.ok(id=self.continuous.register(spec))

    def _op_cq_unregister(self, request: dict[str, Any]) -> dict[str, Any]:
        query_id = ops.string(request, "id")
        return protocol.ok(removed=self.continuous.unregister(query_id))

    def _op_cq_list(self, request: dict[str, Any]) -> dict[str, Any]:
        return protocol.ok(queries=self.continuous.specs())

    def _op_cq_eval(self, request: dict[str, Any]) -> dict[str, Any]:
        self.stats.incr("query_requests")
        return protocol.ok(results=self.continuous.evaluate())

    def _op_cq_results(self, request: dict[str, Any]) -> dict[str, Any]:
        limit = ops.integer(request, "limit")
        return protocol.ok(results=self.continuous.results(limit))

    def _op_metrics(self, request: dict[str, Any]) -> dict[str, Any]:
        listing = [
            {"name": key.name, "tags": key.as_dict()}
            for key in self.reads.keys()
        ]
        return protocol.ok(metrics=listing)

    def _op_stats(self, request: dict[str, Any]) -> dict[str, Any]:
        combined: dict[str, int] = dict(self.registry.stats())
        combined.update(self.stats.snapshot())
        if self.durability is not None:
            combined.update(self.durability.stats())
        return protocol.ok(stats=combined)

    def _query_target(
        self, request: dict[str, Any]
    ) -> tuple[Any, float | None, float | None]:
        name, tags = ops.series(request)
        self.stats.incr("query_requests")
        store = self.reads.get(name, tags)
        if store is None:
            raise InvalidValueError(
                f"unknown metric {name!r} (no values ingested)"
            )
        return (store, *ops.window(request))
