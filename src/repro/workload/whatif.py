"""What-if replay: one recorded workload, many sketch configurations.

The continuous-query layer answers "what is p99 under the config we
run"; capacity planning asks the counterfactual — "what *would* p99
(and memory, and drop behaviour) have been under a different sketch?"
Checkpoints cannot answer it: a checkpoint blob pins the sketch
configuration it was written with.  The WAL can: records are raw
``(metric, tags, values, ts, now)`` operations, replayable into **any**
registry.

So the pipeline is:

1. :func:`record_workload` — run a real server with durability attached
   and ``final_checkpoint=False`` (keeping the full record stream on
   disk), drive any traffic through it, stop it;
2. :func:`replay_whatif` — for each candidate
   :class:`WhatIfConfig`, build a fresh registry with that config and
   pump every WAL record through it with the *journaled* clock readings
   pinned (each op's ``now``), so bucketing/late-drop/compaction
   decisions replay exactly as the live run made them;
3. compare the per-config outputs: tail quantiles, store footprint, and
   a content digest of every store's snapshot bytes.

Because replay decisions are pinned and sketch construction is seeded,
the digest of every store is a pure function of (WAL contents, config)
— two replays of one recording through one config are byte-identical,
which is the determinism property ``tests/workload/test_whatif.py``
sweeps across the paper's sketch registry.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.core.base import QuantileSketch
from repro.core.registry import DEFAULT_SEED, make_sketch, paper_config
from repro.durability.manager import read_wal_records
from repro.service.clock import ManualClock
from repro.service.registry import MetricRegistry, apply_ops

#: Tail grid reported per store in every what-if summary.
REPORT_QUANTILES = (0.5, 0.9, 0.99)


@dataclass(frozen=True)
class WhatIfConfig:
    """One candidate sketch configuration to replay the recording into.

    With empty *params* the sketch is built via
    :func:`~repro.core.registry.paper_config` (the paper's
    parameterisation, seeded with *seed*); explicit *params* go through
    :func:`~repro.core.registry.make_sketch` verbatim.
    """

    label: str
    sketch: str
    seed: int = DEFAULT_SEED
    params: Mapping[str, Any] = field(default_factory=dict)

    def factory(self) -> Callable[[], QuantileSketch]:
        if self.params:
            params = dict(self.params)
            return lambda: make_sketch(self.sketch, **params)
        return lambda: paper_config(self.sketch, seed=self.seed)


def replay_config(
    data_dir: str | Path,
    config: WhatIfConfig,
    partition_ms: float = 1_000.0,
) -> dict[str, Any]:
    """Replay one recorded WAL through one config; returns its summary.

    The registry's clock never runs: every record carries the clock
    reading journaled at live-ingest time, and :meth:`record` pins all
    retention decisions to it — so the summary is independent of when
    (or how fast) the replay itself executes.
    """
    registry = MetricRegistry(
        sketch_factory=config.factory(),
        clock=ManualClock(0.0),
        partition_ms=partition_ms,
    )
    ops = [op for _seq, op in read_wal_records(data_dir)]
    # A batch the altered config rejects is counted, not fatal
    # (identically on every run).
    _, rejected = apply_ops(registry, ops)
    stores: dict[str, dict[str, Any]] = {}
    for key in registry.keys():
        store = registry.get(key.name, key.as_dict() or None)
        assert store is not None  # keys() only lists existing stores
        blob = store.snapshot()
        stores[str(key)] = {
            "digest": hashlib.sha256(blob).hexdigest(),
            "snapshot_bytes": len(blob),
            "count": store.count(),
            "quantiles": {
                str(q): store.quantile(q) for q in REPORT_QUANTILES
            },
        }
    return {
        "label": config.label,
        "sketch": config.sketch,
        "records_replayed": len(ops),
        "records_rejected": rejected,
        "size_bytes": registry.size_bytes(),
        "stores": stores,
    }


def replay_whatif(
    data_dir: str | Path,
    configs: list[WhatIfConfig],
    partition_ms: float = 1_000.0,
) -> dict[str, Any]:
    """Replay one recording through every config, keyed by label."""
    return {
        "configs": {
            config.label: replay_config(data_dir, config, partition_ms)
            for config in configs
        }
    }


def record_workload(
    data_dir: str | Path,
    seed: int = DEFAULT_SEED,
    ticks: int = 6,
    batches_per_tick: int = 4,
    batch_size: int = 25,
) -> dict[str, int]:
    """Drive a small multi-tenant workload into a recorded WAL.

    Runs a real durability-attached server with
    ``final_checkpoint=False`` so the full record stream survives
    :func:`replay_whatif`.  Returns the recording's traffic ledger.
    """
    # Local import: whatif is importable by the durability tests
    # without dragging the whole harness graph in at module load.
    from repro.data.traffic import LatencyValues, ZipfTenants
    from repro.workload.harness import TrafficHarness

    tenants = ZipfTenants(n_tenants=4)
    values = LatencyValues()
    with TrafficHarness(
        seed=seed,
        queue_size=256,
        durability_dir=data_dir,
        final_checkpoint=False,
    ) as harness:
        for _tick in range(ticks):
            picks = tenants.pick(batches_per_tick, harness.rng)
            for tenant in picks:
                harness.ingest(
                    tenants.name_of(int(tenant)),
                    values.sample(batch_size, harness.rng),
                )
            harness.advance(harness.partition_ms)
        ledger = harness.traffic()
    return ledger
