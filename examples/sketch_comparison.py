"""Head-to-head sketch comparison on a chosen workload.

Runs all five of the paper's sketches (plus the t-digest and GK
baselines) over one of the study's data sets and prints accuracy, size
and timing side by side — a miniature version of the full benchmark
harness for interactive exploration.

Run: ``python examples/sketch_comparison.py [pareto|uniform|nyt|power]``
"""

import sys
import time

import numpy as np

from repro import paper_config
from repro.core import PAPER_SKETCHES
from repro.data import ACCURACY_DATASETS
from repro.metrics import PAPER_QUANTILES, relative_error, true_quantile

N = 500_000
SKETCHES = (*PAPER_SKETCHES, "tdigest", "gk")


def main(dataset: str = "nyt") -> None:
    if dataset not in ACCURACY_DATASETS:
        raise SystemExit(
            f"unknown dataset {dataset!r}; pick one of "
            f"{sorted(ACCURACY_DATASETS)}"
        )
    rng = np.random.default_rng(17)
    values = ACCURACY_DATASETS[dataset]().sample(N, rng)
    true_sorted = np.sort(values)

    print(f"dataset={dataset}, n={N:,}\n")
    print(f"{'sketch':>10} {'ingest':>9} {'query':>9} {'size':>9} "
          f"{'mid err':>9} {'tail err':>9}")
    for name in SKETCHES:
        sketch = paper_config(name, dataset=dataset, seed=1)
        start = time.perf_counter()
        if name == "gk":  # GK has no vectorised path; keep it honest
            sketch.update_batch(values[:50_000])
            reference = np.sort(values[:50_000])
        else:
            sketch.update_batch(values)
            reference = true_sorted
        ingest = time.perf_counter() - start

        start = time.perf_counter()
        estimates = sketch.quantiles(PAPER_QUANTILES)
        query = time.perf_counter() - start

        errors = {
            q: relative_error(true_quantile(reference, q), est)
            for q, est in zip(PAPER_QUANTILES, estimates)
        }
        mid = np.mean([errors[q] for q in (0.05, 0.25, 0.5, 0.75, 0.9)])
        tail = np.mean([errors[q] for q in (0.95, 0.98, 0.99)])
        print(f"{name:>10} {ingest:>8.2f}s {query * 1000:>7.2f}ms "
              f"{sketch.size_bytes() / 1000:>7.1f}KB "
              f"{mid:>9.4f} {tail:>9.4f}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "nyt")
