"""Inter-node request transport: pooled clients behind the fault seam.

Every message between cluster components — replication pulls,
anti-entropy exchanges, heartbeats, proxy forwards — goes through one
:class:`ClusterTransport`, which gives the cluster three properties in
one place:

* **one fault seam**: the :class:`~repro.cluster.netfault` injector is
  consulted before any socket is touched, so the partition-tolerance
  suite perturbs every protocol uniformly;
* **address indirection**: components address peers by node id; the
  transport maps ids to ``(host, port)`` and re-dials transparently
  when a restarted node comes back on a new port;
* **connection pooling without sharing**: clients are pooled
  *per-thread* (the proxy's handler threads and a node's tick thread
  never share a socket), so no lock is ever held across a blocking
  network call — the discipline LCK003 enforces statically.

Requests here are fail-fast (``retries=0``): callers are tick loops
and routers with their own retry/fallback policies, and stacking
transport retries under them turns one fault into a latency cliff.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.cluster.netfault import NetworkFaultInjector
from repro.errors import ServiceUnavailableError
from repro.obs.telemetry import NOOP, Telemetry
from repro.service.client import QuantileClient
from repro.service.clock import Clock, SystemClock

#: Socket timeout per request, seconds.
TIMEOUT_S = 5.0


class ClusterTransport:
    """Node-id-addressed request channel for one cluster component.

    Parameters
    ----------
    local_id:
        Identity presented to the fault injector as the source
        endpoint (a node id, ``"supervisor"``, or ``"proxy"``).
    clock:
        Clock injected into pooled clients (backoff) and used to serve
        fault delays; a manual clock keeps fault tests sleep-free.
    fault:
        Optional :class:`~repro.cluster.netfault.NetworkFaultInjector`.
    """

    def __init__(
        self,
        local_id: str,
        clock: Clock | None = None,
        fault: NetworkFaultInjector | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.local_id = str(local_id)
        self._clock = clock if clock is not None else SystemClock()
        self._fault = fault
        self.telemetry = telemetry if telemetry is not None else NOOP
        self._addresses: dict[str, tuple[str, int]] = {}
        self._address_lock = threading.Lock()
        self._pools = threading.local()

    # ------------------------------------------------------------------
    # Address book
    # ------------------------------------------------------------------

    def set_address(self, node_id: str, host: str, port: int) -> None:
        with self._address_lock:
            self._addresses[str(node_id)] = (str(host), int(port))

    def _address_of(self, node_id: str) -> tuple[str, int]:
        with self._address_lock:
            address = self._addresses.get(node_id)
        if address is None:
            raise ServiceUnavailableError(
                f"no known address for node {node_id!r}"
            )
        return address

    def _client(self, node_id: str) -> QuantileClient:
        pool: dict[str, tuple[tuple[str, int], QuantileClient]]
        pool = getattr(self._pools, "clients", None)  # type: ignore[assignment]
        if pool is None:
            pool = {}
            self._pools.clients = pool
        address = self._address_of(node_id)
        cached = pool.get(node_id)
        if cached is not None and cached[0] == address:
            return cached[1]
        if cached is not None:
            cached[1].close()
        client = QuantileClient(
            address[0],
            address[1],
            timeout=TIMEOUT_S,
            retries=0,
            clock=self._clock,
        )
        pool[node_id] = (address, client)
        return client

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------

    def request(
        self,
        node_id: str,
        request: dict[str, Any],
        check: bool = True,
    ) -> dict[str, Any]:
        """Send one request to *node_id*, return the response object.

        With ``check=True`` application errors raise (client
        semantics); with ``check=False`` the raw response comes back
        and only transport failures raise — routers that must inspect
        error codes (``not_leader``) use the latter.

        Transport failures always surface as
        :class:`~repro.errors.ServiceUnavailableError` (fail-fast, no
        internal retry), including injected drops and partitions.
        """
        node_id = str(node_id)
        sends = 1
        if self._fault is not None:
            decision = self._fault.decide(self.local_id, node_id)
            if decision.action == "drop":
                self.telemetry.counter("cluster.net_dropped").inc()
                raise ServiceUnavailableError(
                    f"injected network fault: {self.local_id} -> "
                    f"{node_id} dropped"
                )
            if decision.action == "delay":
                self.telemetry.counter("cluster.net_delayed").inc()
                self._clock.sleep_ms(decision.delay_ms)
            elif decision.action == "duplicate":
                self.telemetry.counter("cluster.net_duplicated").inc()
                sends = 2
        client = self._client(node_id)
        response: dict[str, Any] | None = None
        for _ in range(sends):
            try:
                response = client.call(request, check=check)
            except ServiceUnavailableError:
                client.close()
                raise
        assert response is not None  # sends >= 1
        return response

    def close(self) -> None:
        """Close this thread's pooled connections (others self-close
        when their threads exit — sockets are daemonic resources)."""
        pool = getattr(self._pools, "clients", None)
        if pool:
            for _, client in pool.values():
                client.close()
            pool.clear()
