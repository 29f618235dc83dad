"""Every write path applies one op stream to the same bytes.

One seeded stream of ingest ops goes through the live server's drain
with a WAL attached.  The WAL it
wrote is then applied three more ways: ``DurabilityManager.recover``,
what-if ``replay_config`` and ``ClusterNode.apply_replicated``.  All
four must hold byte-identical per-key store snapshots and count the
same rejected ops.  ``apply_ops`` groups runs of adjacent same-key ops
on every path; the stream holds such runs, a NaN op inside a run, a
late op and clock jumps past the fine horizon (compaction).
Moments is left out: its replicas agree on answers, not bytes
(DESIGN §12).
"""

import hashlib

import numpy as np
import pytest

from repro.cluster import ClusterNode, HashRing
from repro.durability import DurabilityManager, read_wal_records
from repro.service import ManualClock, MetricRegistry, QuantileServer
from repro.workload.whatif import WhatIfConfig, replay_config

PARTITION_MS = 1_000.0
#: Clock steps between blocks; 70 s and 90 s cross the 60 s fine horizon.
STEPS = (0.0, 700.0, 1_300.0, 70_000.0, 400.0, 90_000.0, 250.0)


def op_blocks(seed):
    """``[(advance_ms, [(tags, values, ts_offset | None), ...]), ...]``:
    ops within a block are journaled at one clock reading."""
    rng = np.random.default_rng(seed)
    blocks = []
    for step in STEPS:
        ops = []
        for _ in range(int(rng.integers(6, 12))):
            tags = {"svc": str(rng.choice(["a", "b", "c"]))}
            offset = (
                None if rng.random() < 0.3
                else -float(rng.integers(0, 3_000))
            )
            for _ in range(int(rng.integers(1, 4))):  # a same-key run
                size = int(rng.integers(5, 120))
                ops.append((tags, rng.lognormal(3.0, 1.0, size), offset))
        blocks.append((step, ops))
    tags, values, offset = blocks[1][1][0]
    poisoned = values.copy()
    poisoned[len(poisoned) // 2] = np.nan
    blocks[1][1][1:1] = [(tags, poisoned, offset), (tags, values, offset)]
    blocks[2][1].append(({"svc": "a"}, np.array([1.0, 2.0]), -100_000.0))
    return blocks


class CountingRegistry(MetricRegistry):
    """A registry that counts its ``record`` calls."""

    records = 0

    def record(self, *args, **kwargs):
        self.records += 1
        return super().record(*args, **kwargs)


def digests(stores):
    return {
        key: hashlib.sha256(blob).hexdigest()
        for key, blob in stores.items()
    }


def registry_digests(registry):
    return digests(
        {
            str(key): registry.get(key.name, key.as_dict()).snapshot()
            for key in registry.keys()
        }
    )


@pytest.mark.parametrize("sketch", ["kll", "ddsketch", "req"])
def test_four_write_paths_agree(sketch, tmp_path):
    config = WhatIfConfig(sketch, sketch)
    wal_dir = tmp_path / "wal"
    clock = ManualClock(1_000_000.0)
    live = CountingRegistry(config.factory(), clock, PARTITION_MS)
    server = QuantileServer(
        live,
        durability=DurabilityManager(
            wal_dir, clock=clock, checkpoint_interval_ms=0.0
        ),
        final_checkpoint=False,
    )
    dispatched = 0
    with server:
        for step, ops in op_blocks(2023):
            clock.advance(step)
            # Held at the gate, the worker drains the block as one
            # slice, so adjacent same-key ops form runs.
            server.pause_ingest()
            dispatched += len(ops)
            for tags, values, offset in ops:
                request = {
                    "op": "ingest", "metric": "lat", "tags": tags,
                    "values": values,
                }
                if offset is not None:
                    request["timestamp_ms"] = clock.now_ms() + offset
                assert server.dispatch(request)["ok"]
            server.resume_ingest()
            server.flush()
    live_rejected = server.stats.snapshot()["error_responses"]
    # Runs were recorded as one batch each (the poisoned run twice over).
    assert live.records < dispatched
    assert live_rejected >= 1
    assert live.dropped_late >= 2
    assert any(
        live.get(key.name, key.as_dict()).num_coarse_partitions
        for key in live.keys()
    )
    expected = registry_digests(live)

    recovered = MetricRegistry(
        config.factory(), ManualClock(0.0), PARTITION_MS
    )
    manager = DurabilityManager(
        wal_dir, clock=ManualClock(0.0), checkpoint_interval_ms=0.0
    )
    report = manager.recover(recovered)
    manager.close()
    assert registry_digests(recovered) == expected
    assert report.replay_rejected == live_rejected

    whatif = replay_config(wal_dir, config, PARTITION_MS)
    assert {
        key: store["digest"] for key, store in whatif["stores"].items()
    } == expected
    assert whatif["records_rejected"] == live_rejected

    node = ClusterNode(
        "n1",
        HashRing(["n0", "n1"]),
        tmp_path / "node",
        clock=ManualClock(0.0),
        sketch_factory=config.factory(),
        partition_ms=PARTITION_MS,
    )
    # The records as ``repl_pull`` ships them: the batch as a list.
    records = [
        [seq, {**op._asdict(), "values": op.values.tolist()}]
        for seq, op in read_wal_records(wal_dir)
    ]
    node.apply_replicated("n0", records, upto=records[-1][0])
    assert digests(node.export_state()["n0"]) == expected
    assert (
        node.telemetry.counter("cluster.repl_rejected").value
        == live_rejected
    )
