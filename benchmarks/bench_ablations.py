"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper, but measurements of the trade-offs its
text discusses:

* DDSketch store layout (Sec 4.3/4.5.5: unbounded dense vs collapsing
  dense 1024 vs sparse — the paper reports <=0.14% accuracy delta for
  the bounded store);
* ReqSketch HRA vs LRA (Sec 4.2: HRA trades lower-quantile accuracy
  for upper-quantile accuracy);
* Moments Sketch moment count (Sec 4.2: more moments help until
  numerical instability above ~15);
* UDDSketch collapse budget (Sec 3.4: the realised guarantee follows
  the alpha-degradation formula);
* KLL compactor size (Sec 4.2: the accuracy/space knob).
"""

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro.core import DDSketch, KLLSketch, MomentsSketch, ReqSketch, UDDSketch
from repro.data import DriftingPareto
from repro.experiments.config import BASE_SEED
from repro.experiments.reporting import format_table
from repro.metrics import relative_error, true_quantile

QS = (0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.98, 0.99)


@pytest.fixture(scope="module")
def pareto_stream(scale):
    rng = np.random.default_rng(BASE_SEED)
    values = DriftingPareto().sample(
        min(scale.memory_points, 300_000), rng
    )
    return values, np.sort(values)


def mean_error(sketch, sorted_values, qs=QS):
    return float(np.mean([
        relative_error(true_quantile(sorted_values, q), sketch.quantile(q))
        for q in qs
    ]))


def bench_ablation_ddsketch_store(benchmark, pareto_stream):
    values, sorted_values = pareto_stream

    def run():
        rows = []
        for store, max_bins in (
            ("dense", 0), ("collapsing", 1024), ("sparse", 0),
        ):
            sketch = DDSketch(alpha=0.01, store=store, max_bins=max_bins or 1024)
            sketch.update_batch(values)
            rows.append([
                store,
                mean_error(sketch, sorted_values),
                sketch.size_bytes() / 1000.0,
                sketch.num_buckets,
            ])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(format_table(
        ["store", "mean rel err", "KB", "buckets"], rows,
        title="Ablation: DDSketch store layout",
    ))
    errors = {row[0]: row[1] for row in rows}
    # Sec 4.5.5: bounded 1024-bucket store within 0.14% of unbounded.
    assert abs(errors["collapsing"] - errors["dense"]) < 0.0014
    assert errors["sparse"] == pytest.approx(errors["dense"], abs=1e-12)


def bench_ablation_req_hra(benchmark, pareto_stream):
    values, sorted_values = pareto_stream

    def run():
        rows = []
        for hra in (True, False):
            sketch = ReqSketch(num_sections=30, hra=hra, seed=1)
            sketch.update_batch(values)
            lower = mean_error(sketch, sorted_values, (0.05, 0.25))
            upper = mean_error(sketch, sorted_values, (0.98, 0.99))
            rows.append(["HRA" if hra else "LRA", lower, upper])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(format_table(
        ["mode", "lower-q err", "upper-q err"], rows,
        title="Ablation: ReqSketch rank-accuracy bias",
    ))
    (hra, lra) = rows
    assert hra[2] <= lra[2]  # HRA better at the top...
    assert lra[1] <= hra[1] + 0.01  # ...LRA no worse at the bottom.


def bench_ablation_moments_count(benchmark, pareto_stream):
    values, sorted_values = pareto_stream

    def run():
        rows = []
        for k in (4, 8, 12, 15):
            sketch = MomentsSketch(num_moments=k, transform="log")
            sketch.update_batch(values)
            rows.append([k, mean_error(sketch, sorted_values)])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(format_table(
        ["num_moments", "mean rel err"], rows,
        title="Ablation: Moments Sketch moment count",
    ))
    errors = {row[0]: row[1] for row in rows}
    assert errors[12] <= errors[4]


def bench_ablation_moments_log_moments(benchmark, pareto_stream):
    """Sec 3.2's full design (standard + log moments, joint fit) vs the
    standard-only reference implementation the paper benchmarks."""
    values, sorted_values = pareto_stream

    def run():
        rows = []
        for label, sketch in (
            ("standard only", MomentsSketch(num_moments=12)),
            ("log transform", MomentsSketch(num_moments=12,
                                            transform="log")),
            ("joint std+log", MomentsSketch(num_moments=12,
                                            log_moments=True)),
        ):
            sketch.update_batch(values)
            rows.append([
                label,
                mean_error(sketch, sorted_values),
                sketch.size_bytes(),
            ])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(format_table(
        ["configuration", "mean rel err", "bytes"], rows,
        title="Ablation: Moments Sketch log moments (Sec 3.2)",
    ))
    errors = {row[0]: row[1] for row in rows}
    # On Pareto-range data the joint fit rescues the standard-only
    # configuration without a manually chosen transform.
    assert errors["joint std+log"] < errors["standard only"] / 5
    assert errors["joint std+log"] < errors["log transform"] + 0.02


def bench_ablation_udd_budget(benchmark, pareto_stream):
    values, sorted_values = pareto_stream

    def run():
        rows = []
        for budget in (0, 6, 12):
            sketch = UDDSketch(
                final_alpha=0.01, num_collapses=budget, max_buckets=1024
            )
            sketch.update_batch(values)
            rows.append([
                budget,
                sketch.num_collapses,
                sketch.guarantee().eps,
                mean_error(sketch, sorted_values),
            ])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(format_table(
        ["budget", "collapses", "guarantee", "mean rel err"], rows,
        title="Ablation: UDDSketch collapse budget",
    ))
    for _budget, _collapses, guarantee, err in rows:
        assert err <= guarantee + 1e-9


def bench_ablation_kll_k(benchmark, pareto_stream):
    values, sorted_values = pareto_stream

    def run():
        rows = []
        for k in (64, 350, 1024):
            sketch = KLLSketch(max_compactor_size=k, seed=2)
            sketch.update_batch(values)
            s = sorted_values
            rank_errors = []
            for q in QS:
                est = sketch.quantile(q)
                rank = np.searchsorted(s, est, side="right") / s.size
                rank_errors.append(abs(rank - q))
            rows.append([
                k,
                float(np.mean(rank_errors)),
                sketch.num_retained,
                sketch.size_bytes() / 1000.0,
            ])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(format_table(
        ["k", "mean rank err", "retained", "KB"], rows,
        title="Ablation: KLL max_compactor_size",
    ))
    # Bigger k: more space, better rank accuracy.
    assert rows[0][1] >= rows[2][1]
    assert rows[0][2] < rows[2][2]
