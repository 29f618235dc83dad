"""Soak test: sustained ingestion under concurrent queries.

One million Pareto-distributed events stream through writer threads
calling :meth:`ShardedSketch.update_batch` while reader threads hammer
the same sketch with ``quantile``, ``cdf``, and ``rank`` calls.  The
point is the concurrency contract, not accuracy: no call may raise,
every CDF snapshot a reader observes must be monotone with values in
[0, 1], and when the dust settles the sketch must have counted exactly
what was ingested.

Marked ``slow``: excluded from the tier-1 gate (``make test-fast``),
run by ``make test-all``.
"""

from __future__ import annotations

import functools
import threading
import time

import numpy as np
import pytest

from repro.core import paper_config
from repro.experiments.config import BASE_SEED
from repro.parallel import ShardedSketch

TOTAL = 1_000_000
BATCH = 20_000
N_SHARDS = 4
N_WRITERS = 4
N_READERS = 3
QS = (0.05, 0.25, 0.5, 0.75, 0.95, 0.99)


@pytest.mark.slow
@pytest.mark.parametrize("name", ("kll", "ddsketch"))
def test_soak_parallel_ingest_under_queries(name):
    rng = np.random.default_rng(BASE_SEED)
    values = np.clip(1.0 + rng.pareto(1.0, TOTAL), None, 1e6)
    batches = [
        values[start : start + BATCH]
        for start in range(0, TOTAL, BATCH)
    ]
    factory = functools.partial(
        paper_config, name, dataset="pareto", seed=BASE_SEED
    )
    sharded = ShardedSketch(factory, n_shards=N_SHARDS)
    # Prime the sketch so readers never race the very first insert
    # against EmptySketchError.
    sharded.update_batch(batches[0])

    stop = threading.Event()
    errors: list[BaseException] = []
    snapshots = 0
    snapshot_lock = threading.Lock()

    def writer(mine: list[np.ndarray]) -> None:
        try:
            for batch in mine:
                sharded.update_batch(batch)
        except BaseException as exc:  # noqa: BLE001 - soak collector
            errors.append(exc)

    def reader() -> None:
        nonlocal snapshots
        probe = np.quantile(values, QS)  # fixed probe points
        while not stop.is_set():
            try:
                quantile_answers = [sharded.quantile(q) for q in QS]
                assert all(
                    np.isfinite(answer) for answer in quantile_answers
                )
                cdf_curve = [sharded.cdf(x) for x in probe]
                # Monotone, and a genuine CDF: each value in [0, 1].
                assert all(
                    0.0 <= c <= 1.0 for c in cdf_curve
                ), cdf_curve
                assert all(
                    a <= b + 1e-12
                    for a, b in zip(cdf_curve, cdf_curve[1:])
                ), cdf_curve
                ranks = [sharded.rank(x) for x in probe]
                assert all(
                    0 <= r <= TOTAL for r in ranks
                ), ranks
                with snapshot_lock:
                    snapshots += 1
            except BaseException as exc:  # noqa: BLE001 - soak collector
                errors.append(exc)
                return

    threads = [
        threading.Thread(target=reader, daemon=True)
        for _ in range(N_READERS)
    ]
    for thread in threads:
        thread.start()
    writers = [
        threading.Thread(target=writer, args=(batches[1 + w :: N_WRITERS],))
        for w in range(N_WRITERS)
    ]
    try:
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=600)
        # Fast ingesters (DDSketch) can drain the stream before a
        # reader completes its first snapshot; keep readers running
        # until at least one full snapshot lands.
        for _ in range(600):
            with snapshot_lock:
                if snapshots > 0:
                    break
            if errors:
                break
            time.sleep(0.05)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
    assert not errors, errors[:3]
    assert all(not thread.is_alive() for thread in writers + threads)
    assert snapshots > 0, "readers never completed a snapshot"
    # Nothing lost, nothing double-counted.
    assert sharded.count == TOTAL
    assert sum(sharded.shard_counts()) == TOTAL
    assert sharded.min == float(values.min())
    assert sharded.max == float(values.max())
    # Post-quiescence sanity: the final view is a plausible sketch of
    # the stream (loose bound; accuracy is the differential harness's
    # job, not the soak's).
    median = sharded.quantile(0.5)
    true_median = float(np.quantile(values, 0.5))
    assert abs(median - true_median) / true_median < 0.25
