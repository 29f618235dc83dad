"""Format guard: the five binary formats are pinned byte for byte.

Round-trip tests cannot see a format change — encoder and decoder move
together — so ``golden_formats.json`` holds a blake2b-16 digest of one
deterministic artifact per format:

* ``RPRO`` v2 — ``dumps`` of each registry sketch after a seeded
  ~5k-value stream (t-digest and GKArray caught mid-buffer, UDDSketch
  after at least one collapse);
* ``RPQS`` v1 — a plain and a sharded store ``snapshot()`` holding fine
  and coarse partitions, and one ``export_partitions`` blob;
* ``RPCK`` v1 — one checkpoint file written on a ``ManualClock``;
* ``RPWL`` v1 — the WAL segment the same run journaled, twice: with
  the record payloads ``journal`` writes (JSON header + float64 tail,
  ``wal_segment_tail``) and with the all-JSON payloads it wrote before
  the tail existed, built here with ``canonical_json``
  (``wal_segment``).  That second digest is the one from before the
  change: segment framing untouched, old logs byte for byte what the
  decoder still reads.

The digests were produced at the commit *before* the codec
consolidation (``wal_segment_tail``: at the commit that introduced the
tail) and must never change without a format-version bump.
Regenerate (only then) with::

    PYTHONPATH=src python tests/core/test_golden_formats.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from repro.core.codec import canonical_json
from repro.core.registry import SKETCH_CLASSES, paper_config
from repro.core.serialization import dumps
from repro.durability.manager import DurabilityManager
from repro.durability.wal import WriteAheadLog, list_segments
from repro.parallel import ShardedSketch
from repro.service.clock import ManualClock
from repro.service.registry import MetricRegistry
from repro.service.store import TimePartitionedStore

GOLDEN_PATH = Path(__file__).with_name("golden_formats.json")
SEED = 20230807


def stream(name: str, size: int = 5_003) -> np.ndarray:
    """A seeded stream in the value domain sketch *name* accepts.

    The odd length leaves the buffered sketches mid-buffer.
    """
    rng = np.random.default_rng(SEED)
    if name == "hdr":
        return rng.uniform(0.0, 1e6, size)
    if name == "dcs":
        return rng.integers(0, 1 << 20, size).astype(np.float64)
    if name == "uddsketch":
        # Wide enough to exhaust 1024 buckets and force collapses.
        return np.exp(rng.normal(0.0, 12.0, size))
    return 1.0 + rng.pareto(1.0, size)


def sketch_bytes(name: str) -> bytes:
    sketch = paper_config(name, seed=7)
    sketch.update_batch(stream(name))
    if name in ("tdigest", "gkarray"):
        assert sketch._buffer, f"{name} must be caught mid-buffer"
    if name == "uddsketch":
        assert sketch._collapses > 0, "uddsketch must have collapsed"
    return dumps(sketch)


def filled_store(sharded: bool) -> TimePartitionedStore:
    """A store with fine *and* coarse partitions on a manual clock."""
    base = functools.partial(paper_config, "kll", seed=7)
    factory: Callable = (
        functools.partial(ShardedSketch, base, 3) if sharded else base
    )
    clock = ManualClock(1_000_000.0)
    store = TimePartitionedStore(
        factory, clock=clock, partition_ms=1_000.0,
        fine_partitions=4, coarse_factor=2, coarse_partitions=8,
    )
    rng = np.random.default_rng(SEED)
    for _ in range(12):
        store.record_batch(1.0 + rng.pareto(1.0, 40), clock.now_ms())
        clock.advance(700.0)
    assert store.num_fine_partitions and store.num_coarse_partitions
    return store


def partition_blob() -> bytes:
    store = filled_store(sharded=True)
    key = sorted(k for k in store.partition_digests() if k[0] == "f")[0]
    return store.export_partitions([key])[key]


def durability_files() -> dict[str, bytes]:
    """One checkpoint file and one WAL segment from the same run, and
    the segment the same records make as all-JSON payloads."""
    with tempfile.TemporaryDirectory() as tmp, \
            tempfile.TemporaryDirectory() as json_tmp:
        clock = ManualClock(1_000_000.0)
        registry = MetricRegistry(clock=clock, hot_metrics=("rps",))
        manager = DurabilityManager(
            tmp, clock=clock, checkpoint_interval_ms=0.0
        )
        rng = np.random.default_rng(SEED)
        with manager, WriteAheadLog(json_tmp) as json_wal:
            for index in range(20):
                name = ("lat", "rps")[index % 2]
                tags = {"svc": "api"} if index % 4 < 2 else None
                values = 1.0 + rng.pareto(1.0, 25)
                _, ts, now = manager.journal(name, tags, values, None)
                json_wal.append(canonical_json({
                    "metric": name, "tags": tags,
                    "values": values.tolist(), "ts": ts, "now": now,
                }))
                registry.record(name, values, ts, tags, now_ms=now)
                clock.advance(50.0)
            # Read the segment before the checkpoint truncates it.
            wal_segment_tail = list_segments(Path(tmp))[0].read_bytes()
            checkpoint = manager.checkpoint_now(registry).read_bytes()
        wal_segment = list_segments(Path(json_tmp))[0].read_bytes()
    return {
        "wal_segment": wal_segment,
        "wal_segment_tail": wal_segment_tail,
        "checkpoint": checkpoint,
    }


def artifacts() -> dict[str, Callable[[], bytes]]:
    table: dict[str, Callable[[], bytes]] = {
        f"sketch.{name}": functools.partial(sketch_bytes, name)
        for name in sorted(SKETCH_CLASSES)
    }
    table["store.plain"] = lambda: filled_store(False).snapshot()
    table["store.sharded"] = lambda: filled_store(True).snapshot()
    table["store.partition_blob"] = partition_blob
    for name in ("checkpoint", "wal_segment", "wal_segment_tail"):
        table[f"durability.{name}"] = functools.partial(
            lambda key: durability_files()[key], name
        )
    return table


def digest(data: bytes) -> dict[str, object]:
    return {
        "blake2b16": hashlib.blake2b(data, digest_size=16).hexdigest(),
        "bytes": len(data),
    }


ARTIFACTS = artifacts()


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_format_is_bit_identical_to_golden(name: str) -> None:
    golden = json.loads(GOLDEN_PATH.read_text())
    assert digest(ARTIFACTS[name]()) == golden[name], (
        f"{name}: on-disk format changed — bump the format version "
        f"and regenerate golden_formats.json deliberately"
    )


def test_golden_file_has_no_stale_entries() -> None:
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(ARTIFACTS)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(
            {name: digest(build()) for name, build in sorted(ARTIFACTS.items())},
            indent=2, sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
