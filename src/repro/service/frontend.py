"""The bind/accept/serve half of a protocol endpoint.

:class:`TCPFrontEnd` owns a :class:`socketserver.ThreadingTCPServer`
(one thread per connection) plus its accept-loop thread, and maps every
request frame of :mod:`repro.service.protocol` through one *dispatch*
callable.  :class:`~repro.service.server.QuantileServer` serves its
registry through one of these; the cluster routing proxy
(:mod:`repro.cluster.proxy`) serves its forwarding table through
another — same wire behaviour, different brains.
"""

from __future__ import annotations

import contextlib
import socket
import socketserver
import threading
from typing import Any, Callable

from repro.errors import InvalidValueError, ProtocolError
from repro.service import protocol

Dispatch = Callable[[dict[str, Any]], dict[str, Any]]


class _TCPServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True
    #: Injected by :class:`TCPFrontEnd`: request object -> response.
    dispatch: Dispatch

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # Live connection sockets, so a stop can sever in-flight
        # conversations too — shutdown() only stops the accept loop,
        # and a "crashed" cluster node must not keep answering peers
        # over their pooled connections.
        self._conn_lock = threading.Lock()
        self._conns: set[Any] = set()
        # Live connection threads.  socketserver joins none of its
        # daemon threads on close, and a handler still unwinding holds
        # the dispatch, and through it whatever serves it.
        self._handlers: set[threading.Thread] = set()

    def process_request(self, request: Any, client_address: Any) -> None:
        handler = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            daemon=True,
        )
        with self._conn_lock:
            self._handlers.add(handler)
        handler.start()

    def process_request_thread(self, request: Any, client_address: Any) -> None:
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._conn_lock:
                self._handlers.discard(threading.current_thread())

    def join_handlers(self, timeout: float) -> None:
        """Wait up to *timeout* seconds for each connection thread."""
        with self._conn_lock:
            handlers = list(self._handlers)
        for handler in handlers:
            handler.join(timeout)

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
        dispatch = self.server.dispatch  # type: ignore[attr-defined]
        while True:
            try:
                request = protocol.read_frame(self.rfile)
            except ProtocolError as exc:
                # The stream is no longer frame-aligned; answer once
                # and drop the connection.
                self._reply(protocol.error("protocol", str(exc)))
                return
            except OSError:
                # Peer vanished mid-read (reset, severed socket) — a
                # lagging consumer hanging up is not a server error.
                return
            if request is None:
                return
            if not self._reply(dispatch(request)):
                return

    def _reply(self, response: dict[str, Any]) -> bool:
        try:
            protocol.write_frame(self.wfile, response)
        except (OSError, ProtocolError):
            return False  # peer went away; nothing left to say
        return True


class TCPFrontEnd:
    """A threaded TCP server answering each frame with the *dispatch*
    given to :meth:`start`; :meth:`stop` lets go of it."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._host = host
        self._port = port
        self._server: _TCPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def running(self) -> bool:
        return self._server is not None

    def start(
        self, dispatch: Dispatch, thread_name: str = "tcp-front-accept"
    ) -> None:
        if self._server is not None:
            raise InvalidValueError("front end already started")
        server = _TCPServer((self._host, self._port), _RequestHandler)
        server.dispatch = dispatch
        self._server = server
        self._thread = threading.Thread(
            target=server.serve_forever, name=thread_name, daemon=True
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
        # Sever the conversations first, so that each handler's next
        # read fails and its thread ends, then wait for those threads.
        server.close_connections()
        server.server_close()
        server.join_handlers(timeout=5.0)
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
