"""Benchmark-side span recorder and timing proxies.

Spans are recorded from the outside only, by two techniques: timing
direct calls to public functions, and timing wrappers around objects
the benchmark itself builds and hands to constructors the program
already exposes (``MetricRegistry(sketch_factory=...)``,
``QuantileServer(registry=..., durability=...)``,
``SketchAggregator(sketch_factory, ...)``).  No module or class
attribute of ``repro`` is patched.

A span is ``{id, name, start, end, parent, request_id, thread}``; the
parent is the span open on the same thread when this one began, so a
child never extends past its parent.  Spans stay in memory until
:meth:`Tracer.write`.
"""

from __future__ import annotations

import bisect
import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator


class Tracer:
    """In-memory span store with a per-thread open-span stack."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count()
        self._local = threading.local()

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request_id: int | None = None) -> dict:
        stack = self._stack()
        span = {
            "id": next(self._ids),
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "parent": stack[-1]["id"] if stack else None,
            "request_id": request_id,
            "thread": threading.current_thread().name,
        }
        stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def end(self, span: dict) -> float:
        span["end"] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)
        return span["end"] - span["start"]

    @contextmanager
    def span(
        self, name: str, request_id: int | None = None
    ) -> Iterator[dict]:
        span = self.begin(name, request_id)
        try:
            yield span
        finally:
            self.end(span)

    def add(
        self, name: str, start: float, end: float,
        request_id: int | None = None,
    ) -> None:
        """Record a span timed by the caller, under the open span."""
        stack = self._stack()
        self.spans.append({
            "id": next(self._ids),
            "name": name,
            "start": start,
            "end": end,
            "parent": stack[-1]["id"] if stack else None,
            "request_id": request_id,
            "thread": threading.current_thread().name,
        })

    def timed(
        self,
        name: str,
        fn: Callable[..., Any],
        tag: Callable[..., Any] | None = None,
    ) -> Callable[..., Any]:
        """*fn* wrapped so every call is recorded as a span *name*;
        *tag* maps the call's arguments to a label kept on the span."""

        def call(*args: Any, **kwargs: Any) -> Any:
            span = self.begin(name)
            if tag is not None:
                span["tag"] = tag(*args, **kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)

        return call

    # -- wrappers over benchmark-built objects ---------------------------

    def instrument(self, obj: Any, methods: dict[str, str]) -> Any:
        """Shadow *methods* of one instance with timed bound methods.

        Used on sketches the benchmark's own factory just built: the
        object keeps its exact type (the serializer dispatches on it),
        only this instance's attribute lookup finds the wrapper first.
        """
        for method, name in methods.items():
            setattr(obj, method, self.timed(name, getattr(obj, method)))
        return obj

    def sketch_factory(
        self, factory: Callable[[], Any], prefix: str
    ) -> Callable[[], Any]:
        """A factory whose sketches record ``<prefix>.<method>`` spans."""
        names = {
            method: f"{prefix}.{method}"
            for method in ("update_batch", "merge", "quantile", "quantiles")
        }

        def build() -> Any:
            return self.instrument(factory(), names)

        return build

    def proxy(
        self,
        target: Any,
        methods: dict[str, str],
        tags: dict[str, Callable[..., Any]] | None = None,
    ) -> "Proxy":
        return Proxy(self, target, methods, tags or {})

    # -- reading --------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [
            span["end"] - span["start"]
            for span in self.spans
            if span["name"] == name
        ]

    def children_of(self, parent_ids: set[int], name: str) -> list[dict]:
        return [
            span
            for span in self.spans
            if span["name"] == name and span["parent"] in parent_ids
        ]

    def assign_requests(self, request_span: str) -> None:
        """Give spans on other threads the id of the request in flight.

        With one closed-loop connection at most one client request is
        in flight, so a server-side span belongs to the latest request
        that began before it.
        """
        requests = sorted(
            (span for span in self.spans if span["name"] == request_span),
            key=lambda span: span["start"],
        )
        starts = [span["start"] for span in requests]
        for span in self.spans:
            if span["request_id"] is not None or not starts:
                continue
            index = bisect.bisect_right(starts, span["start"]) - 1
            if index >= 0:
                span["request_id"] = requests[index]["request_id"]

    def write(self, path: Path, header: dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        body = dict(header)
        body["spans"] = sorted(self.spans, key=lambda span: span["id"])
        path.write_text(json.dumps(body, separators=(",", ":")))


class Proxy:
    """Forwards everything to *target*; times the named methods."""

    def __init__(
        self,
        tracer: Tracer,
        target: Any,
        methods: dict[str, str],
        tags: dict[str, Callable[..., Any]],
    ) -> None:
        self._target = target
        for method, name in methods.items():
            setattr(self, method, tracer.timed(
                name, getattr(target, method), tags.get(method)))

    def __getattr__(self, attribute: str) -> Any:
        return getattr(self._target, attribute)

    def __len__(self) -> int:
        return len(self._target)


class CallTimer:
    """Accumulating stopwatch for calls too frequent to keep as spans
    (one per stream event): the total seconds spent inside."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def wrap(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        clock = time.perf_counter

        def call(*args: Any) -> Any:
            start = clock()
            result = fn(*args)
            self.seconds += clock() - start
            return result

        return call
