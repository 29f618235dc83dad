"""Unit tests for experiment configuration."""

import inspect

import pytest

from repro import experiments
from repro.core.registry import PAPER_SKETCHES
from repro.errors import ExperimentError
from repro.experiments.config import (
    SCALES,
    current_scale,
)


class TestScales:
    def test_three_scales_defined(self):
        assert set(SCALES) == {"smoke", "quick", "paper"}

    def test_paper_scale_matches_sec42(self):
        paper = SCALES["paper"]
        assert paper.rate_per_sec == 50_000
        assert paper.window_size_ms == 20_000.0
        assert paper.events_per_window == 1_000_000
        assert paper.num_windows == 10
        assert paper.num_runs == 10
        assert paper.merge_sketches == 1_000
        assert paper.merge_prefill == 1_000_000

    def test_duration_covers_discarded_window(self):
        scale = SCALES["smoke"]
        assert scale.duration_ms == scale.window_size_ms * (
            scale.num_windows + 1
        )

    def test_quantiles_are_papers(self):
        for scale in SCALES.values():
            assert scale.quantiles == (
                0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.98, 0.99,
            )

    def test_smaller_scales_are_smaller(self):
        assert (
            SCALES["smoke"].events_per_window
            < SCALES["quick"].events_per_window
            < SCALES["paper"].events_per_window
        )


class TestCurrentScale:
    def test_default_is_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert current_scale().name == "quick"

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert current_scale().name == "smoke"
        monkeypatch.setenv("REPRO_SCALE", "PAPER")
        assert current_scale().name == "paper"

    def test_unknown_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "galactic")
        with pytest.raises(ExperimentError):
            current_scale()


class TestDefaults:
    def test_default_sketches_are_the_papers_five(self):
        runners = [
            experiments.run_accuracy,
            experiments.run_adaptability,
            experiments.run_kurtosis_sweep,
            experiments.run_late_data,
            experiments.measure_memory,
            experiments.measure_insertion,
            experiments.measure_query,
            experiments.measure_merge,
            experiments.run_window_size,
        ]
        for runner in runners:
            default = inspect.signature(runner).parameters["sketches"].default
            assert default == PAPER_SKETCHES, runner.__name__
