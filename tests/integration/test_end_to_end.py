"""End-to-end pipeline integration tests."""

import numpy as np
import pytest

from repro.core import (
    PAPER_SKETCHES,
    DDSketch,
    UDDSketch,
    dumps,
    loads,
    paper_config,
)
from repro.data import (
    ACCURACY_DATASETS,
    DriftingPareto,
    NYTFares,
    generate_stream,
)
from repro.metrics import PAPER_QUANTILES, relative_error, true_quantile
from repro.streaming import (
    SketchAggregator,
    run_tumbling_batch,
    window_values,
)


class TestFullPipelinePerDataset:
    @pytest.mark.parametrize("dataset", sorted(ACCURACY_DATASETS))
    def test_windowed_quantiles_on_every_dataset(self, dataset, rng):
        distribution = ACCURACY_DATASETS[dataset]()
        batch = generate_stream(
            distribution, 5_000.0, rng, rate_per_sec=2_000
        )
        aggregator = SketchAggregator(
            lambda: paper_config("ddsketch", dataset=dataset),
            PAPER_QUANTILES,
        )
        report = run_tumbling_batch(batch, 1_000.0, aggregator)
        truth = window_values(batch, 1_000.0)
        assert len(report.results) == 5
        for result in report.results:
            true_sorted = truth[result.window]
            for q in PAPER_QUANTILES:
                est = result.result[q]
                true = true_quantile(true_sorted, q)
                assert relative_error(true, est) <= 0.011, (dataset, q)

    @pytest.mark.parametrize("sketch_name", PAPER_SKETCHES)
    def test_every_sketch_through_the_engine(self, sketch_name, rng):
        batch = generate_stream(
            NYTFares(), 3_000.0, rng, rate_per_sec=2_000
        )
        aggregator = SketchAggregator(
            lambda: paper_config(sketch_name, dataset="nyt", seed=1),
            (0.5, 0.99),
        )
        report = run_tumbling_batch(batch, 1_000.0, aggregator)
        assert len(report.results) == 3
        for result in report.results:
            assert result.result[0.5] <= result.result[0.99]


class TestDistributedRoundTrip:
    def test_sketch_ship_merge_query(self, rng):
        # Partition -> sketch -> serialize -> ship -> merge -> query.
        partitions = [
            DriftingPareto().sample(20_000, rng) for _ in range(8)
        ]
        payloads = []
        for part in partitions:
            sketch = UDDSketch()
            sketch.update_batch(part)
            payloads.append(dumps(sketch))
        merged = loads(payloads[0])
        for payload in payloads[1:]:
            merged.merge(loads(payload))
        all_data = np.sort(np.concatenate(partitions))
        assert merged.count == all_data.size
        for q in (0.5, 0.9, 0.99):
            true = true_quantile(all_data, q)
            assert relative_error(true, merged.quantile(q)) <= (
                merged.guarantee().eps + 1e-9
            )


class TestLateDataAccounting:
    def test_loss_rate_with_paper_delay_model(self, rng):
        # Sec 4.6: exponential delay (mean 150 ms) against 20 s windows
        # loses a small percentage of events; with the smoke-scale 2 s
        # windows the boundary effect is ~7x larger but still small.
        batch = generate_stream(
            DriftingPareto(), 20_000.0, rng,
            rate_per_sec=2_000, delay_mean_ms=150.0,
        )
        report = run_tumbling_batch(
            batch, 2_000.0, SketchAggregator(DDSketch, (0.5,))
        )
        assert 0.0 < report.loss_fraction < 0.2

    def test_kept_plus_dropped_equals_total(self, rng):
        batch = generate_stream(
            DriftingPareto(), 5_000.0, rng,
            rate_per_sec=1_000, delay_mean_ms=300.0,
        )
        report = run_tumbling_batch(
            batch, 1_000.0, SketchAggregator(DDSketch, (0.5,))
        )
        kept = sum(r.event_count for r in report.results)
        assert kept + report.dropped_late == report.total_events

