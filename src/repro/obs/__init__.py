"""Observability layer: tracing, metrics and self-hosted latency sketches.

The quantile service observes itself with its own data structures —
operation latencies land in :class:`~repro.obs.metrics.LatencyHistogram`
instances backed by the repo's :class:`~repro.core.ddsketch.DDSketch`.
One shared :class:`~repro.obs.telemetry.Telemetry` object threads
through the server, client, stores and streaming engine;
pass :data:`~repro.obs.telemetry.NOOP` (telemetry off) and every
instrument degrades to a no-op with sub-5% hot-loop overhead.

See DESIGN.md §10 for the model and ``python -m repro.obs`` for the
snapshot CLI.
"""

from repro.obs.export import (
    diff_snapshots,
    to_canonical_json,
    to_prometheus,
)
from repro.obs.metrics import Counter, Gauge, LatencyHistogram
from repro.obs.telemetry import NOOP, Telemetry
from repro.obs.tracer import Span, Tracer

__all__ = [
    "NOOP",
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "Span",
    "Telemetry",
    "Tracer",
    "diff_snapshots",
    "to_canonical_json",
    "to_prometheus",
]
