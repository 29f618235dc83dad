"""Blocking TCP client for the quantile service.

:class:`QuantileClient` speaks the length-prefixed JSON protocol with a
small, explicit reliability model:

* *transport* failures (connection refused, reset, mid-frame EOF) are
  retried with exponential backoff up to ``retries`` attempts, after
  which :class:`~repro.errors.ServiceUnavailableError` is raised;
* *application* failures come back as error responses and raise
  immediately — in particular an ``overloaded`` response raises
  :class:`~repro.errors.ServerOverloadedError` rather than retrying,
  because retrying into a shedding server is how overloads become
  outages.  Callers own their backpressure policy.

Backoff runs on the injectable :class:`~repro.service.clock.Clock` —
``clock.sleep_ms`` blocks on a real clock and merely advances a
:class:`~repro.service.clock.ManualClock` — so failover tests retry
through whole backoff schedules without sleeping.  Jitter comes from a
seeded generator: two clients with the same seed retry at identical
offsets, which keeps the end-to-end determinism harness honest, while
distinct seeds de-synchronise a fleet's retry storms.
"""

from __future__ import annotations

import contextlib
import socket
from typing import Any, Iterable, Mapping

import numpy as np

from repro.errors import (
    ProtocolError,
    ServerOverloadedError,
    ServiceError,
    ServiceUnavailableError,
)
from repro.obs.telemetry import NOOP, Telemetry
from repro.service import protocol
from repro.service.clock import Clock, SystemClock


class QuantileClient:
    """Client for one :class:`~repro.service.server.QuantileServer`.

    Parameters
    ----------
    host / port:
        Server address.
    timeout:
        Socket timeout (seconds) for connect and each response.
    retries:
        Transport-failure retry budget per request (total attempts are
        ``retries + 1``).
    backoff_ms:
        Base backoff; attempt *i* waits ``backoff_ms * 2**i`` plus
        jitter.
    jitter:
        Fractional jitter on each backoff: the wait is scaled by a
        seeded draw from ``[1, 1 + jitter]``.  ``0`` disables it.
    jitter_seed:
        Seed for the jitter generator; retry schedules are a pure
        function of ``(backoff_ms, jitter, jitter_seed)``.
    clock:
        Time source the backoff waits on.  A
        :class:`~repro.service.clock.ManualClock` advances itself
        instead of blocking, so failover tests retry sleep-free.
    telemetry:
        Observability sink (:mod:`repro.obs`); the retry loop reports
        ``client.transport_retries`` and ``client.backoff_total_ms``
        counters through it.  Defaults to the disabled no-op.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 10.0,
        retries: int = 3,
        backoff_ms: float = 50.0,
        jitter: float = 0.0,
        jitter_seed: int = 0,
        clock: Clock | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self._address = (host, int(port))
        self._timeout = float(timeout)
        self._retries = int(retries)
        self._backoff_ms = float(backoff_ms)
        self._jitter = float(jitter)
        self._rng = np.random.default_rng(jitter_seed)
        self._clock = clock if clock is not None else SystemClock()
        self.telemetry = telemetry if telemetry is not None else NOOP
        self._sock: socket.socket | None = None
        self._rfile: Any = None
        self._wfile: Any = None

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------

    def connect(self) -> "QuantileClient":
        if self._sock is None:
            sock = socket.create_connection(
                self._address, timeout=self._timeout
            )
            self._sock = sock
            self._rfile = sock.makefile("rb")
            self._wfile = sock.makefile("wb")
        return self

    def close(self) -> None:
        for stream in (self._rfile, self._wfile, self._sock):
            if stream is not None:
                # Best-effort teardown: the peer may already be gone.
                with contextlib.suppress(OSError):
                    stream.close()
        self._sock = None
        self._rfile = None
        self._wfile = None

    def reconnect(
        self, host: str | None = None, port: int | None = None
    ) -> "QuantileClient":
        """Drop the current connection and dial again.

        Recovery tests use this after a server restart: the old socket
        is dead, and the next :meth:`call` would otherwise burn one
        retry discovering that.  A restarted server may come back on a
        different port, so the target address can be re-pointed here.
        Counts ``client.reconnects``.
        """
        self.close()
        if host is not None or port is not None:
            old_host, old_port = self._address
            self._address = (
                host if host is not None else old_host,
                int(port) if port is not None else old_port,
            )
        self.telemetry.counter("client.reconnects").inc()
        return self.connect()

    def __enter__(self) -> "QuantileClient":
        return self.connect()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Request/response core
    # ------------------------------------------------------------------

    def call(
        self, request: dict[str, Any], check: bool = True
    ) -> dict[str, Any]:
        """Send one request, return the parsed *successful* response.

        Transport failures retry with backoff; error responses raise
        (:class:`~repro.errors.ServerOverloadedError` for shedding,
        :class:`~repro.errors.ServiceError` otherwise).  Pass
        ``check=False`` to get error responses back as data instead —
        routers that dispatch on error codes (the cluster proxy's
        ``not_leader`` redirect) need the object, not an exception.
        """
        last_error: Exception | None = None
        for attempt in range(self._retries + 1):
            if attempt:
                backoff_ms = self._backoff_ms * (2 ** (attempt - 1))
                if self._jitter:
                    backoff_ms *= 1.0 + self._jitter * float(
                        self._rng.random()
                    )
                self.telemetry.counter("client.transport_retries").inc()
                self.telemetry.counter("client.backoff_total_ms").inc(
                    int(backoff_ms)
                )
                self._clock.sleep_ms(backoff_ms)
            try:
                self.connect()
                protocol.write_frame(self._wfile, request)
                response = protocol.read_frame(self._rfile)
            except (OSError, ProtocolError) as exc:
                last_error = exc
                self.close()
                continue
            if response is None:
                last_error = ProtocolError(
                    "server closed the connection before responding"
                )
                self.close()
                continue
            return self._check(response) if check else response
        raise ServiceUnavailableError(
            f"request failed after {self._retries + 1} attempts: "
            f"{last_error}"
        )

    def _check(self, response: dict[str, Any]) -> dict[str, Any]:
        if response.get("ok"):
            return response
        code = response.get("error", "unknown")
        message = str(response.get("message", ""))
        if code == protocol.OVERLOADED:
            # Shed responses are *successful transport* — the server
            # answered, it just refused the work.  Count them apart
            # from ``client.transport_retries`` so a shed-rate SLO
            # reads actual backpressure, not connection flakiness.
            self.telemetry.counter("client.shed_responses").inc()
            raise ServerOverloadedError(message)
        raise ServiceError(f"{code}: {message}")

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def ping(self) -> bool:
        return bool(self.call({"op": "ping"})["pong"])

    def node_info(self) -> dict[str, Any]:
        """Identity + frontier of the answering node.

        Returns ``{node_id, role, wal_watermark, frontier}``; cluster
        health checks and anti-entropy both read this one op.
        """
        response = self.call({"op": "node_info"})
        return {
            "node_id": str(response["node_id"]),
            "role": str(response["role"]),
            "wal_watermark": int(response["wal_watermark"]),
            "frontier": {
                str(origin): int(seq)
                for origin, seq in dict(response["frontier"]).items()
            },
        }

    def ingest(
        self,
        metric: str,
        values: Iterable[float] | np.ndarray,
        timestamp_ms: float | None = None,
        tags: Mapping[str, str] | None = None,
    ) -> int:
        """Enqueue a batch server-side (one float64 array in the
        frame's tail); returns the accepted count."""
        if not isinstance(values, (list, tuple, np.ndarray)):
            values = list(values)
        request: dict[str, Any] = {
            "op": "ingest",
            "metric": metric,
            "values": protocol.float_values(values),
        }
        if timestamp_ms is not None:
            request["timestamp_ms"] = float(timestamp_ms)
        if tags is not None:
            request["tags"] = dict(tags)
        return int(self.call(request)["accepted"])

    def flush(self) -> None:
        """Barrier: returns once all enqueued ingests are applied."""
        self.call({"op": "flush"})

    def checkpoint(self) -> int:
        """Force a durable checkpoint; returns its WAL watermark.

        Raises :class:`~repro.errors.ServiceError` when the server
        runs without durability.
        """
        return int(self.call({"op": "checkpoint"})["checkpoint_seq"])

    def quantile(
        self,
        metric: str,
        q: float,
        t0: float | None = None,
        t1: float | None = None,
        tags: Mapping[str, str] | None = None,
    ) -> float:
        request = self._query("quantile", metric, t0, t1, tags)
        request["q"] = float(q)
        return float(self.call(request)["quantile"])

    def quantiles(
        self,
        metric: str,
        qs: Iterable[float],
        t0: float | None = None,
        t1: float | None = None,
        tags: Mapping[str, str] | None = None,
    ) -> list[float]:
        request = self._query("quantile", metric, t0, t1, tags)
        request["q"] = [float(q) for q in qs]
        return [float(v) for v in self.call(request)["quantiles"]]

    def rank(
        self,
        metric: str,
        value: float,
        t0: float | None = None,
        t1: float | None = None,
        tags: Mapping[str, str] | None = None,
    ) -> int:
        request = self._query("rank", metric, t0, t1, tags)
        request["value"] = float(value)
        return int(self.call(request)["rank"])

    def cdf(
        self,
        metric: str,
        value: float,
        t0: float | None = None,
        t1: float | None = None,
        tags: Mapping[str, str] | None = None,
    ) -> float:
        request = self._query("cdf", metric, t0, t1, tags)
        request["value"] = float(value)
        return float(self.call(request)["cdf"])

    def count(
        self,
        metric: str,
        t0: float | None = None,
        t1: float | None = None,
        tags: Mapping[str, str] | None = None,
    ) -> int:
        return int(
            self.call(self._query("count", metric, t0, t1, tags))["count"]
        )

    def metrics(self) -> list[dict[str, Any]]:
        return list(self.call({"op": "metrics"})["metrics"])

    # -- continuous queries --------------------------------------------

    def cq_register(self, spec: Mapping[str, Any]) -> str:
        """Register a continuous query; returns its server-side id.

        *spec* is the wire-format query object (``kind`` plus
        kind-specific fields — see DESIGN §15); the server validates it
        and raises :class:`~repro.errors.ServiceError` on a bad spec.
        """
        return str(
            self.call({"op": "cq_register", "query": dict(spec)})["id"]
        )

    def cq_unregister(self, query_id: str) -> bool:
        """Remove a continuous query; returns whether it existed."""
        return bool(
            self.call({"op": "cq_unregister", "id": str(query_id)})[
                "removed"
            ]
        )

    def cq_list(self) -> list[dict[str, Any]]:
        """Registered queries, sorted by id."""
        return list(self.call({"op": "cq_list"})["queries"])

    def cq_eval(self) -> list[dict[str, Any]]:
        """Evaluate every registered query now; returns the results."""
        return list(self.call({"op": "cq_eval"})["results"])

    def cq_results(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Most recent retained evaluation results, oldest first."""
        request: dict[str, Any] = {"op": "cq_results"}
        if limit is not None:
            request["limit"] = int(limit)
        return list(self.call(request)["results"])

    def stats(self) -> dict[str, int]:
        return dict(self.call({"op": "stats"})["stats"])

    def _query(
        self,
        op: str,
        metric: str,
        t0: float | None,
        t1: float | None,
        tags: Mapping[str, str] | None,
    ) -> dict[str, Any]:
        request: dict[str, Any] = {"op": op, "metric": metric}
        if t0 is not None:
            request["t0"] = float(t0)
        if t1 is not None:
            request["t1"] = float(t1)
        if tags is not None:
            request["tags"] = dict(tags)
        return request
