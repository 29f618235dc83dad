"""Buffered concurrent ingestion (the Quancurrent pattern).

Per-value locking serialises writers on every insert, and the lock
round-trip costs more than the sketch update itself.
:class:`BufferedIngestor` amortises it the way Quancurrent (Zarfati et
al.) does for KLL: each writer thread fills a *thread-local* buffer
with no shared state at all, and only a full buffer takes the sketch
lock — one short critical section per ``buffer_size`` values, inside
which the whole buffer is applied with one vectorised ``update_batch``
call.

Failure semantics
-----------------
A buffer is cleared only *after* its values were applied.  The optional
``flush_hook`` runs inside the flush (before the sketch mutates) and is
the fault-injection point the durability tests use: a hook that raises
leaves the buffer intact, so a crashed flush loses nothing and a retry
duplicates nothing.  Validation is done at ingest time via
:func:`~repro.core.base.as_float_batch`, so a poisoned batch is
rejected before anything is buffered.

Telemetry
---------
``ingest.buffer.occupancy`` (gauge, values currently buffered across
threads), ``ingest.buffer.flushes`` / ``ingest.buffer.flushed_values``
(counters) and ``ingest.buffer.flush`` (latency histogram via span).
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.base import as_float_batch
from repro.obs.telemetry import NOOP, Telemetry

DEFAULT_BUFFER_SIZE = 4096


class _LocalBuffer:
    """One writer thread's private staging area."""

    __slots__ = ("lock", "items")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.items: list[float] = []


class BufferedIngestor:
    """Thread-local buffers flushed into one sketch in batch.

    Parameters
    ----------
    target:
        Any object with an ``update_batch(values)`` method (a sketch, a
        :class:`~repro.parallel.sharded.ShardedSketch`, or an adapter).
    buffer_size:
        Values staged per thread before a flush; the knob trading
        freshness for lock amortisation.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry`.
    flush_hook:
        Called with the staged array at the start of every flush,
        before the sketch mutates — the fault-injection seam.
    """

    def __init__(
        self,
        target,
        buffer_size: int = DEFAULT_BUFFER_SIZE,
        telemetry: Telemetry = NOOP,
        flush_hook: Optional[Callable[[np.ndarray], None]] = None,
    ) -> None:
        if buffer_size < 1:
            raise ValueError(
                f"buffer_size must be >= 1, got {buffer_size!r}"
            )
        self._target = target
        self.buffer_size = int(buffer_size)
        self._telemetry = telemetry
        self._flush_hook = flush_hook
        self._target_lock = threading.Lock()
        self._registry_lock = threading.Lock()
        self._buffers: list[_LocalBuffer] = []
        self._local = threading.local()
        self._occupancy = telemetry.gauge("ingest.buffer.occupancy")
        self._flushes = telemetry.counter("ingest.buffer.flushes")
        self._flushed = telemetry.counter("ingest.buffer.flushed_values")

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def _buffer(self) -> _LocalBuffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = _LocalBuffer()
            self._local.buffer = buffer
            with self._registry_lock:
                self._buffers.append(buffer)
        return buffer

    def ingest(self, value: float) -> None:
        """Stage one value; flushes when this thread's buffer fills."""
        self.ingest_batch(np.asarray([value], dtype=np.float64))

    def ingest_batch(self, values: "Sequence[float] | np.ndarray") -> None:
        """Stage a batch; validated atomically before anything buffers."""
        values = as_float_batch(values)
        if values.size == 0:
            return
        buffer = self._buffer()
        with buffer.lock:
            buffer.items.extend(values.tolist())
            must_flush = len(buffer.items) >= self.buffer_size
        self._note_occupancy()
        if must_flush:
            self._flush(buffer)

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------

    def _flush(self, buffer: _LocalBuffer) -> None:
        with buffer.lock:
            if not buffer.items:
                return
            staged = np.asarray(buffer.items, dtype=np.float64)
            # The buffer is cleared only after a successful apply, so a
            # flush that dies (hook raise, injected fault) keeps every
            # staged value for the retry — nothing lost, nothing
            # duplicated.
            with self._telemetry.span("ingest.buffer.flush"):
                if self._flush_hook is not None:
                    self._flush_hook(staged)
                with self._target_lock:
                    self._target.update_batch(staged)
            buffer.items.clear()
        self._flushes.inc()
        self._flushed.inc(int(staged.size))
        self._note_occupancy()

    def flush(self) -> None:
        """Drain every thread's buffer (barrier before queries/ack)."""
        with self._registry_lock:
            buffers = list(self._buffers)
        for buffer in buffers:
            self._flush(buffer)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def target(self):
        """The wrapped sink (flush first for an up-to-date view)."""
        return self._target

    def pending(self) -> int:
        """Values staged but not yet applied, across all threads."""
        with self._registry_lock:
            buffers = list(self._buffers)
        total = 0
        for buffer in buffers:
            with buffer.lock:
                total += len(buffer.items)
        return total

    def _note_occupancy(self) -> None:
        if self._telemetry.enabled:
            self._occupancy.set(float(self.pending()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BufferedIngestor buffer_size={self.buffer_size} "
            f"pending={self.pending()}>"
        )
