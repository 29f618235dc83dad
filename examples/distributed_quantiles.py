"""Distributed quantile aggregation through sketch merging.

The mergeability scenario of Sec 2.4: data is partitioned over many
workers; each worker summarises its partition locally, ships only the
sketch bytes, and a coordinator merges them.  The merged estimate is
compared against the exact quantiles of the full data — and the
network traffic against what centralising raw data would cost.

Every mergeable sketch in the library runs through the same pipeline,
reproducing the paper's observation that Moments Sketch merges are the
cheapest by an order of magnitude while sampling sketches (KLL/REQ) pay
for their compaction work.

Run: ``python examples/distributed_quantiles.py``
"""

import time

import numpy as np

from repro import dumps, loads, paper_config
from repro.core import PAPER_SKETCHES
from repro.data import NYTFares
from repro.metrics import relative_error, true_quantile

NUM_WORKERS = 32
ROWS_PER_WORKER = 50_000
QUANTILES = (0.5, 0.9, 0.99)


def main() -> None:
    rng = np.random.default_rng(3)
    partitions = [
        NYTFares().sample(ROWS_PER_WORKER, rng) for _ in range(NUM_WORKERS)
    ]
    all_data = np.sort(np.concatenate(partitions))
    raw_bytes = 8 * all_data.size

    print(f"{NUM_WORKERS} workers x {ROWS_PER_WORKER:,} rows "
          f"({raw_bytes / 1e6:.0f} MB of raw data)\n")
    print(f"{'sketch':>10} {'shipped':>10} {'merge time':>11} "
          + "".join(f"{'err@' + str(q):>10}" for q in QUANTILES))

    for name in PAPER_SKETCHES:
        # Map phase: each worker sketches its partition and serializes.
        payloads = []
        for worker, partition in enumerate(partitions):
            sketch = paper_config(name, dataset="nyt", seed=worker)
            sketch.update_batch(partition)
            payloads.append(dumps(sketch))
        shipped = sum(len(p) for p in payloads)

        # Reduce phase: the coordinator deserializes and merges.
        start = time.perf_counter()
        merged = loads(payloads[0])
        for payload in payloads[1:]:
            merged.merge(loads(payload))
        merge_time = time.perf_counter() - start

        errors = [
            relative_error(true_quantile(all_data, q), merged.quantile(q))
            for q in QUANTILES
        ]
        print(f"{name:>10} {shipped / 1000:>8.1f}KB "
              f"{merge_time * 1000:>9.1f}ms "
              + "".join(f"{err:>10.4f}" for err in errors))

    print(f"\nshipping sketches instead of rows saves "
          f">{raw_bytes / 1e6:.0f}MB of traffic per aggregation")


if __name__ == "__main__":
    main()
