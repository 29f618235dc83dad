"""Shared fixtures for the experiment tests."""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.experiments.cli import main


@dataclass(frozen=True)
class CLIRun:
    """One ``python -m repro.experiments`` invocation: its exit code,
    what it printed and the directory it wrote to."""

    code: int
    out: str
    output: Path


@pytest.fixture(scope="session")
def fig5a_run(tmp_path_factory) -> CLIRun:
    """The smoke-scale Fig 5a through the CLI with ``--output``, run
    once for every test that reads it (it times five sketches)."""
    output = tmp_path_factory.mktemp("fig5a")
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        with contextlib.redirect_stdout(out):
            code = main(["fig5a", "--output", str(output)])
    return CLIRun(code, out.getvalue(), output)
