"""Multi-tenant quantile-serving subsystem.

The layer the paper's Flink deployment implies but never builds: the
sketches of :mod:`repro.core` composed into an actual serving system.

* :mod:`repro.service.clock` — injectable time (deterministic tests);
* :mod:`repro.service.store` — :class:`TimePartitionedStore`, range
  queries over fixed-width time partitions with tiered retention and
  snapshot/restore through :mod:`repro.core.serialization`;
* :mod:`repro.service.registry` — :class:`MetricRegistry`, lazy
  per-``(metric, tags)`` stores with hot metrics routed through
  :class:`~repro.parallel.ShardedSketch`;
* :mod:`repro.service.protocol` / ``server`` / ``client`` — a
  length-prefixed JSON TCP protocol with bounded-queue ingest and
  explicit load shedding, plus a retrying blocking client;
* :mod:`repro.service.continuous` — :class:`ContinuousQueryEngine`,
  standing threshold/burn-rate/top-k queries evaluated per window
  (served over the ``cq_*`` protocol ops);
* ``python -m repro.service serve`` — the foreground server CLI.

See README "Quantile service" and DESIGN §9 for the layering.
"""

from repro.service.clock import Clock, ManualClock, SystemClock
from repro.service.client import QuantileClient
from repro.service.continuous import ContinuousQueryEngine
from repro.service.registry import (
    MetricKey,
    MetricRegistry,
    default_sketch_factory,
)
from repro.service.server import QuantileServer
from repro.service.store import TimePartitionedStore

__all__ = [
    "Clock",
    "ContinuousQueryEngine",
    "ManualClock",
    "SystemClock",
    "MetricKey",
    "MetricRegistry",
    "QuantileClient",
    "QuantileServer",
    "TimePartitionedStore",
    "default_sketch_factory",
]
