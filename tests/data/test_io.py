"""Tests for event-batch persistence."""

import numpy as np
import pytest

from repro.data import (
    DriftingPareto,
    generate_stream,
    load_batch,
    save_batch,
)
from repro.errors import InvalidValueError


@pytest.fixture
def batch(rng):
    return generate_stream(
        DriftingPareto(), 500.0, rng, rate_per_sec=2_000,
        delay_mean_ms=100.0,
    )


class TestNpzRoundTrip:
    def test_lossless(self, batch, tmp_path):
        path = save_batch(batch, tmp_path / "stream.npz")
        loaded = load_batch(path)
        assert np.array_equal(loaded.values, batch.values)
        assert np.array_equal(loaded.event_times, batch.event_times)
        assert np.array_equal(loaded.arrival_times, batch.arrival_times)

    def test_replay_produces_identical_windows(self, batch, tmp_path):
        from repro.core import DDSketch
        from repro.streaming import SketchAggregator, run_tumbling_batch

        loaded = load_batch(save_batch(batch, tmp_path / "s.npz"))
        agg = SketchAggregator(DDSketch, quantiles=(0.5,))
        original = run_tumbling_batch(batch, 100.0, agg)
        replayed = run_tumbling_batch(loaded, 100.0, agg)
        assert [r.result for r in original.results] == (
            [r.result for r in replayed.results]
        )
        assert original.dropped_late == replayed.dropped_late

    def test_creates_parent_dirs(self, batch, tmp_path):
        path = save_batch(batch, tmp_path / "a" / "b" / "c.npz")
        assert path.exists()

    def test_non_finite_time_rejected(self, tmp_path):
        np.savez(tmp_path / "nan.npz", values=np.zeros(2),
                 event_times=np.asarray([0.0, np.nan]),
                 arrival_times=np.zeros(2))
        with pytest.raises(InvalidValueError, match="finite"):
            load_batch(tmp_path / "nan.npz")

    def test_rejects_foreign_archive(self, tmp_path):
        np.savez(tmp_path / "other.npz", stuff=np.zeros(3))
        with pytest.raises(InvalidValueError):
            load_batch(tmp_path / "other.npz")


class TestCsvRoundTrip:
    def test_header_checked(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InvalidValueError):
            load_batch(bad)

    def test_malformed_row(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("value,event_time_ms,arrival_time_ms\n1,2\n")
        with pytest.raises(InvalidValueError):
            load_batch(bad)


class TestErrors:
    def test_unknown_extension(self, batch, tmp_path):
        with pytest.raises(InvalidValueError):
            save_batch(batch, tmp_path / "stream.parquet")
        with pytest.raises(InvalidValueError):
            load_batch(tmp_path / "stream.parquet")

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidValueError):
            load_batch(tmp_path / "nope.npz")
