"""The <10% overhead gate for sanitized concurrency tests.

The sanitizer only pays on lock operations, and ``update_batch`` on a
:class:`~repro.parallel.ShardedSketch` takes a handful of locks per
batch however long it is — so a realistic multi-threaded ingest
workload should time within 10% of its uninstrumented twin.  Measured
as a min-of-N of interleaved runs (min is robust to scheduler noise;
interleaving is robust to drift), with a small absolute slack so a
sub-second workload can't fail on a single page fault.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import DDSketch
from repro.parallel import ShardedSketch
from repro.sanitizer import LockMonitor, instrumented

THREADS = 4
BATCHES = 60
BATCH = 2_048
REPEATS = 3


def run_workload():
    sharded = ShardedSketch(lambda: DDSketch(alpha=0.01), n_shards=THREADS)
    rng = np.random.default_rng(7)
    chunks = 1.0 + rng.pareto(1.0, (THREADS, BATCHES, BATCH))

    def worker(rows):
        for row in rows:
            sharded.update_batch(row)

    start = time.perf_counter()
    threads = [
        threading.Thread(target=worker, args=(chunks[i],))
        for i in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    elapsed = time.perf_counter() - start
    assert sharded.count == THREADS * BATCHES * BATCH
    return elapsed


@pytest.mark.slow
def test_sanitizer_overhead_below_ten_percent():
    baseline_times, sanitized_times = [], []
    for _ in range(REPEATS):
        baseline_times.append(run_workload())
        monitor = LockMonitor()
        with instrumented(monitor):
            sanitized_times.append(run_workload())
        monitor.verify()
    baseline = min(baseline_times)
    sanitized = min(sanitized_times)
    assert sanitized <= baseline * 1.10 + 0.05, (
        f"sanitized {sanitized:.3f}s vs baseline {baseline:.3f}s "
        f"({sanitized / baseline:.2%})"
    )
