"""Tests for the experiments CLI (smoke scale)."""

import pytest

from repro.experiments.cli import EXPERIMENTS, main


class TestCLI:
    def test_all_paper_artifacts_have_experiments(self):
        expected = {
            "table3", "fig4", "fig5a", "fig5b", "fig5c",
            "fig6a", "fig6b", "fig6c", "fig6d",
            "fig7", "fig8", "late", "window", "table4", "related",
            "sweep",
        }
        assert set(EXPERIMENTS) == expected

    def test_runs_one_experiment(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out
        assert "uddsketch" in out

    def test_fig5a_runs(self, fig5a_run):
        assert fig5a_run.code == 0
        assert "insertion" in fig5a_run.out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_scale_banner(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        main(["fig4"])
        assert "scale=smoke" in capsys.readouterr().out
