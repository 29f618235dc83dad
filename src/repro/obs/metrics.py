"""Metric primitives for the observability layer.

Three instrument kinds, mirroring the minimal Prometheus data model:

* :class:`Counter` — a monotone event count (requests served, batches
  shed, retries issued);
* :class:`Gauge` — a point-in-time level (ingest queue depth, shard
  imbalance);
* :class:`LatencyHistogram` — a latency distribution that *dogfoods*
  the repo's own :class:`~repro.core.ddsketch.DDSketch`: we observe the
  quantile service with the very sketches it serves.  Samples are
  microseconds; percentiles come out with DDSketch's relative-error
  guarantee at a bounded memory footprint (collapsing store).  A sample
  costs a list append; the sketch takes samples in batches (DESIGN §10).

All three are thread-safe — the server records from handler and drain
threads concurrently — and every instrument has a no-op twin used when
telemetry is disabled, so instrumented hot loops pay only an attribute
call when observability is off.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping

from repro.core.ddsketch import DDSketch
from repro.core.mapping import MAX_INDEXABLE_VALUE
from repro.errors import EmptySketchError, InvalidValueError

#: Relative-error guarantee of the self-hosted latency sketches.
HISTOGRAM_ALPHA = 0.01

#: Bucket budget of one latency histogram (collapsing store bounds the
#: footprint no matter how long the process lives).
HISTOGRAM_MAX_BINS = 512

#: Samples a histogram holds before it folds them into its sketch with
#: one ``update_batch``; every read folds whatever is pending first.
HISTOGRAM_FOLD_SIZE = 256

#: Percentiles every snapshot/export reports.
SUMMARY_QS = (0.5, 0.9, 0.99)

_INF = float("inf")


class Counter:
    """Monotone event counter."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += int(n)

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """Point-in-time level; ``set`` overwrites, ``add`` adjusts."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += float(delta)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class LatencyHistogram:
    """Microsecond latency distribution over a self-hosted DDSketch.

    The underlying sketch keeps the relative-error contract of
    :class:`~repro.core.ddsketch.DDSketch` (:data:`HISTOGRAM_ALPHA`
    = 1%, at most :data:`HISTOGRAM_MAX_BINS` buckets), so a reported
    p99 of 840µs means the true p99 lies within 1% of 840µs — the same
    guarantee the service offers its own clients.

    :meth:`record_us` appends to a pending list of at most
    :data:`HISTOGRAM_FOLD_SIZE` samples, folded into the sketch with one
    ``update_batch`` when full and before every read.  Batched and
    scalar feeding leave the collapsing store the same bytes, so every
    read answers as if each sample had gone in on its own.
    """

    __slots__ = ("name", "_lock", "_sketch", "_pending")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._sketch = DDSketch(
            alpha=HISTOGRAM_ALPHA,
            store="collapsing",
            max_bins=HISTOGRAM_MAX_BINS,
        )
        self._pending: list[float] = []

    def record_us(self, micros: float) -> None:
        """Record one latency sample, clamped to be non-negative.

        A sample the sketch could not index (NaN, ±inf, past
        ``MAX_INDEXABLE_VALUE``) raises here, never at a later fold.
        """
        micros = float(micros)
        if not -_INF < micros <= MAX_INDEXABLE_VALUE:
            raise InvalidValueError(
                f"cannot record a latency of {micros!r} us"
            )
        if micros < 0.0:
            micros = 0.0
        with self._lock:
            pending = self._pending
            pending.append(micros)
            if len(pending) >= HISTOGRAM_FOLD_SIZE:
                self._fold()

    def _fold(self) -> DDSketch:
        """The sketch with every pending sample in it (lock held)."""
        if self._pending:
            self._sketch.update_batch(self._pending)
            self._pending.clear()
        return self._sketch

    @property
    def count(self) -> int:
        with self._lock:
            return self._fold().count

    def quantile(self, q: float) -> float:
        with self._lock:
            return self._fold().quantile(q)

    def quantiles(self, qs: Iterable[float]) -> list[float]:
        with self._lock:
            return self._fold().quantiles(qs)

    def summary(self) -> dict[str, float]:
        """Snapshot dict: count, min/max and the SUMMARY_QS percentiles.

        An empty histogram reports only ``{"count": 0}`` — no sentinel
        infinities ever leave the process (the wire-format policy of
        :mod:`repro.service.protocol`).
        """
        with self._lock:
            sketch = self._fold()
            out: dict[str, float] = {"count": sketch.count}
            if sketch.is_empty:
                return out
            out["min"] = sketch.min
            out["max"] = sketch.max
            for q, value in zip(SUMMARY_QS, sketch.quantiles(SUMMARY_QS)):
                out[f"p{_percentile_label(q)}"] = value
            return out


def _percentile_label(q: float) -> str:
    """``0.5 -> "50"``, ``0.99 -> "99"``, ``0.999 -> "99.9"``."""
    scaled = q * 100.0
    if abs(scaled - round(scaled)) < 1e-9:
        return str(int(round(scaled)))
    return f"{scaled:g}"


class NoopCounter:
    """Counter with the same surface and no state (telemetry off)."""

    __slots__ = ()
    name = "noop"

    def inc(self, n: int = 1) -> None:
        pass

    @property
    def value(self) -> int:
        return 0


class NoopGauge:
    __slots__ = ()
    name = "noop"

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0


class NoopHistogram:
    __slots__ = ()
    name = "noop"

    def record_us(self, micros: float) -> None:
        pass

    @property
    def count(self) -> int:
        return 0

    def quantile(self, q: float) -> float:
        raise EmptySketchError("no-op histogram records nothing")

    def quantiles(self, qs: Iterable[float]) -> list[float]:
        raise EmptySketchError("no-op histogram records nothing")

    def summary(self) -> Mapping[str, float]:
        return {"count": 0}


NOOP_COUNTER = NoopCounter()
NOOP_GAUGE = NoopGauge()
NOOP_HISTOGRAM = NoopHistogram()
