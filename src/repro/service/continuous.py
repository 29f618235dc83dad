"""Continuous queries: standing quantile monitors evaluated per window.

One-shot queries ask "what is p99 now?"; production monitoring asks the
inverse — "tell me *whenever* p99 crosses a line".  This module gives
the quantile service that standing-query layer (the multi-stream
continuous-monitoring framing of the stream-fusion line of work), with
three query kinds evaluated over the registry's time-partitioned
stores:

``threshold``
    Fire when a quantile of one metric over a trailing window crosses a
    bound: ``quantile(q, [now - window_ms, now)) <op> threshold``.

``burn_rate``
    Classic SLO burn-rate alerting.  The *error fraction* of a window
    is the share of requests slower than the latency objective,
    ``1 - cdf(objective_ms)``; dividing by the SLO's error budget
    ``1 - target`` yields the *burn rate* (1.0 = burning budget exactly
    as fast as the SLO allows).  The query fires only when **both** a
    fast and a slow trailing window burn at ≥ *factor* — the standard
    two-window construction that ignores short blips (slow window says
    no) and stale incidents (fast window says no).

``topk``
    Rank every metric matching a name prefix by a tail quantile over a
    trailing window and return the worst *k* — "which tenants are
    slowest right now".

All window arithmetic reads the registry's injected clock, so under a
:class:`~repro.service.clock.ManualClock` evaluations are a pure
function of (ingested data, clock reading) and two identically-seeded
runs produce byte-identical result objects — the property the workload
simulator's determinism gate pins.  Specs are validated and normalised
at registration (defaults filled, types coerced), so listings and
results are canonical regardless of how sloppily the wire request was
phrased.

Evaluation never holds the engine lock while querying stores: specs are
copied out under the lock, stores answer with their own locking, and
results are appended under the lock afterwards — the engine can be
evaluated from one connection thread while another registers queries.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Mapping, Protocol

from repro.errors import EmptySketchError, InvalidValueError
from repro.obs.telemetry import NOOP, Telemetry
from repro.service import ops
from repro.service.clock import Clock
from repro.service.registry import MetricKey

#: Query kinds this engine understands, in wire-format order.
QUERY_KINDS = ("threshold", "burn_rate", "topk")

_OPS = ("gt", "lt")

#: Default number of evaluation results retained for ``cq_results``.
DEFAULT_MAX_RESULTS = 256


def _positive(spec: Mapping[str, Any], field: str,
              default: float | None = None) -> float:
    value = ops.number(spec, field, default)
    if value <= 0:
        raise InvalidValueError(
            f"continuous query {field!r} must be > 0, got {value!r}"
        )
    return value


def _quantile(spec: Mapping[str, Any], default: float = 0.99) -> float:
    q = ops.number(spec, "q", default)
    if not 0.0 <= q <= 1.0:
        raise InvalidValueError(
            f"continuous query 'q' must be in [0, 1], got {q!r}"
        )
    return q


class Reads(Protocol):
    """What reads resolve keys through: a
    :class:`~repro.service.registry.MetricRegistry`, or a cluster
    node's lookup over its origin replicas.  ``get`` returns anything
    with ``merged(t0, t1)`` and ``count(t0, t1)``, or ``None``."""

    @property
    def clock(self) -> Clock: ...

    def get(
        self, name: str, tags: Mapping[str, str] | None = None
    ) -> Any | None: ...

    def keys(self) -> list[MetricKey]: ...


class ContinuousQueryEngine:
    """Registry of standing queries plus their evaluation loop.

    Parameters
    ----------
    registry:
        The lookup (:class:`Reads`) whose stores answer the window
        queries.  Windows are computed on ``registry.clock`` so query
        windows and store partitions agree on what "now" means.
    telemetry:
        Observability sink; evaluations count ``cq.evaluations`` and
        firing queries count ``cq.alerts``.
    max_results:
        Bound of the retained result history served by ``cq_results``
        (oldest evaluations are dropped first).
    """

    def __init__(
        self,
        registry: Reads,
        telemetry: Telemetry | None = None,
        max_results: int = DEFAULT_MAX_RESULTS,
    ) -> None:
        if max_results < 1:
            raise InvalidValueError(
                f"max_results must be >= 1, got {max_results!r}"
            )
        self._registry = registry
        self.telemetry = telemetry if telemetry is not None else NOOP
        self._lock = threading.Lock()
        self._specs: dict[str, dict[str, Any]] = {}
        self._results: deque[dict[str, Any]] = deque(maxlen=max_results)
        self._next_id = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, spec: Mapping[str, Any]) -> str:
        """Validate, normalise and store one query; returns its id."""
        normalised = self._normalise(spec)
        with self._lock:
            self._next_id += 1
            query_id = f"cq-{self._next_id:04d}"
            normalised["id"] = query_id
            self._specs[query_id] = normalised
        return query_id

    def unregister(self, query_id: str) -> bool:
        with self._lock:
            return self._specs.pop(query_id, None) is not None

    def specs(self) -> list[dict[str, Any]]:
        """Registered queries as wire-ready objects, sorted by id."""
        with self._lock:
            return [
                dict(self._specs[query_id])
                for query_id in sorted(self._specs)
            ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._specs)

    def _normalise(self, spec: Mapping[str, Any]) -> dict[str, Any]:
        kind = ops.string(spec, "kind")
        if kind == "threshold":
            op = spec.get("op", "gt")
            if op not in _OPS:
                raise InvalidValueError(
                    f"threshold 'op' must be one of {_OPS}, got {op!r}"
                )
            metric, tags = ops.series(spec)
            return {
                "kind": kind,
                "metric": metric,
                "tags": tags,
                "q": _quantile(spec),
                "op": str(op),
                "threshold": ops.number(spec, "threshold"),
                "window_ms": _positive(spec, "window_ms"),
            }
        if kind == "burn_rate":
            target = ops.number(spec, "target", 0.99)
            if not 0.0 < target < 1.0:
                raise InvalidValueError(
                    f"burn_rate 'target' must be in (0, 1), got "
                    f"{target!r}"
                )
            fast_ms = _positive(spec, "fast_ms")
            slow_ms = _positive(spec, "slow_ms")
            if slow_ms < fast_ms:
                raise InvalidValueError(
                    f"burn_rate needs slow_ms >= fast_ms, got "
                    f"fast_ms={fast_ms!r} slow_ms={slow_ms!r}"
                )
            metric, tags = ops.series(spec)
            return {
                "kind": kind,
                "metric": metric,
                "tags": tags,
                "objective_ms": _positive(spec, "objective_ms"),
                "target": target,
                "fast_ms": fast_ms,
                "slow_ms": slow_ms,
                "factor": _positive(spec, "factor", 1.0),
            }
        if kind == "topk":
            k = ops.integer(spec, "k", 3)
            if k < 1:
                raise InvalidValueError(
                    f"topk 'k' must be an integer >= 1, got {k!r}"
                )
            return {
                "kind": kind,
                "prefix": ops.string(spec, "prefix"),
                "q": _quantile(spec),
                "k": k,
                "window_ms": _positive(spec, "window_ms"),
            }
        raise InvalidValueError(
            f"unknown continuous query kind {kind!r}; expected one of "
            f"{QUERY_KINDS}"
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(self) -> list[dict[str, Any]]:
        """Evaluate every registered query at the registry clock's now.

        Returns this round's result objects (one per query, id order)
        and appends them to the retained history.  Queries whose window
        holds no data report ``status: "no_data"`` rather than erroring
        — an empty window is a normal monitoring condition.
        """
        with self._lock:
            specs = [
                self._specs[query_id] for query_id in sorted(self._specs)
            ]
        now = self._registry.clock.now_ms()
        results = [self._evaluate_one(spec, now) for spec in specs]
        fired = sum(
            1 for result in results if result["status"] == "firing"
        )
        self.telemetry.counter("cq.evaluations").inc(len(results))
        if fired:
            self.telemetry.counter("cq.alerts").inc(fired)
        with self._lock:
            self._results.extend(results)
        return results

    def results(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Retained evaluation results, oldest first."""
        with self._lock:
            history = list(self._results)
        if limit is not None:
            if limit < 1:
                raise InvalidValueError(
                    f"limit must be >= 1, got {limit!r}"
                )
            history = history[-limit:]
        return history

    def _evaluate_one(
        self, spec: dict[str, Any], now: float
    ) -> dict[str, Any]:
        kind = spec["kind"]
        if kind == "threshold":
            return self._eval_threshold(spec, now)
        if kind == "burn_rate":
            return self._eval_burn_rate(spec, now)
        return self._eval_topk(spec, now)

    def _window(
        self,
        metric: str,
        tags: Mapping[str, str] | None,
        t0: float,
        t1: float,
    ) -> Any | None:
        """Merged sketch of one series over ``[t0, t1)``; None if empty."""
        store = self._registry.get(metric, tags)
        if store is None:
            return None
        try:
            return store.merged(t0, t1)
        except EmptySketchError:
            return None

    def _eval_threshold(
        self, spec: dict[str, Any], now: float
    ) -> dict[str, Any]:
        t0 = now - spec["window_ms"]
        view = self._window(spec["metric"], spec["tags"], t0, now)
        observed = None if view is None else view.quantile(spec["q"])
        if observed is None:
            status = "no_data"
        elif spec["op"] == "gt":
            status = "firing" if observed > spec["threshold"] else "ok"
        else:
            status = "firing" if observed < spec["threshold"] else "ok"
        return {
            "id": spec["id"],
            "kind": "threshold",
            "metric": spec["metric"],
            "tags": spec["tags"],
            "q": spec["q"],
            "op": spec["op"],
            "threshold": spec["threshold"],
            "window": [t0, now],
            "observed": observed,
            "status": status,
        }

    def _burn(
        self, spec: dict[str, Any], t0: float, t1: float
    ) -> float | None:
        """Burn rate of one window; None when the window has no data."""
        view = self._window(spec["metric"], spec["tags"], t0, t1)
        if view is None:
            return None
        error_fraction = 1.0 - view.cdf(spec["objective_ms"])
        return error_fraction / (1.0 - spec["target"])

    def _eval_burn_rate(
        self, spec: dict[str, Any], now: float
    ) -> dict[str, Any]:
        fast = self._burn(spec, now - spec["fast_ms"], now)
        slow = self._burn(spec, now - spec["slow_ms"], now)
        if fast is None or slow is None:
            status = "no_data"
        elif fast >= spec["factor"] and slow >= spec["factor"]:
            status = "firing"
        else:
            status = "ok"
        return {
            "id": spec["id"],
            "kind": "burn_rate",
            "metric": spec["metric"],
            "tags": spec["tags"],
            "objective_ms": spec["objective_ms"],
            "target": spec["target"],
            "factor": spec["factor"],
            "fast_burn": fast,
            "slow_burn": slow,
            "windows": [
                [now - spec["fast_ms"], now],
                [now - spec["slow_ms"], now],
            ],
            "status": status,
        }

    def _eval_topk(
        self, spec: dict[str, Any], now: float
    ) -> dict[str, Any]:
        t0 = now - spec["window_ms"]
        ranked: list[tuple[float, MetricKey]] = []
        for key in self._registry.keys():
            if not key.name.startswith(spec["prefix"]):
                continue
            view = self._window(key.name, key.as_dict() or None, t0, now)
            if view is not None:
                ranked.append((view.quantile(spec["q"]), key))
        # Worst tail first; (name, tags) breaks value ties so equal
        # tenants list in one canonical order run over run.
        ranked.sort(key=lambda item: (-item[0], item[1].name, item[1].tags))
        top = [
            {
                "metric": key.name,
                "tags": key.as_dict(),
                "value": observed,
            }
            for observed, key in ranked[: spec["k"]]
        ]
        return {
            "id": spec["id"],
            "kind": "topk",
            "prefix": spec["prefix"],
            "q": spec["q"],
            "k": spec["k"],
            "window": [t0, now],
            "tenants": top,
            "status": "ok" if top else "no_data",
        }
