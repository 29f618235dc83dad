"""scipy stays off the import path.

``scipy.stats`` costs ~1 s and ~60 MB on import, and only the
experiments' confidence intervals and kurtosis need it, so
:mod:`repro.metrics.stats` imports it inside the two functions that
call it and no other module imports it at all.  This test starts a
fresh interpreter whose import system refuses ``scipy`` and
``scipy.*``, imports every module of the package and runs the service
CLI's ``--help``: a module-level scipy import anywhere in ``src/``
turns into a failed import here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.data
import repro.data.kurtosis
import repro.metrics
from repro.errors import InvalidValueError

SRC_ROOT = Path(repro.__file__).resolve().parent.parent

_PROBE = r"""
import contextlib, importlib, importlib.abc, io, json, pkgutil, runpy, sys


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"refused: {name}", name=name)
        return None


sys.meta_path.insert(0, RefuseScipy())

import repro

failed, imported = [], []
for info in pkgutil.walk_packages(
    repro.__path__, "repro.", onerror=lambda name: failed.append(name)
):
    if info.name.rsplit(".", 1)[-1] == "__main__":
        continue
    try:
        importlib.import_module(info.name)
    except Exception as exc:
        failed.append(f"{info.name}: {exc!r}")
    else:
        imported.append(info.name)

sys.argv = ["repro.service", "--help"]
help_text = io.StringIO()
try:
    with contextlib.redirect_stdout(help_text):
        runpy.run_module("repro.service", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    help_exit = exc.code
except Exception as exc:
    help_exit = repr(exc)
else:
    help_exit = "returned without exiting"

print(json.dumps({
    "failed": failed,
    "imported": imported,
    "help_exit": help_exit,
    "help_text": help_text.getvalue(),
    "scipy_modules": sorted(
        name for name in sys.modules
        if name == "scipy" or name.startswith("scipy.")
    ),
}))
"""


def _run_probe() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_ROOT), env.get("PYTHONPATH")) if p
    )
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_every_module_imports_without_scipy():
    report = _run_probe()
    assert report["failed"] == []
    # The walk reached the leaves, including the one scipy user.
    assert "repro.metrics.stats" in report["imported"]
    assert "repro.service.server" in report["imported"]
    assert report["help_exit"] == 0
    assert "serve" in report["help_text"]
    assert report["scipy_modules"] == []


class TestOneExcessKurtosis:
    def test_data_reexports_the_metrics_function(self):
        assert repro.data.excess_kurtosis is repro.metrics.excess_kurtosis
        assert (
            repro.data.kurtosis.excess_kurtosis
            is repro.metrics.excess_kurtosis
        )

    @pytest.mark.parametrize(
        "fn",
        [repro.data.excess_kurtosis, repro.metrics.excess_kurtosis],
        ids=["repro.data", "repro.metrics"],
    )
    def test_three_values_raise(self, fn):
        with pytest.raises(InvalidValueError):
            fn(np.asarray([1.0, 2.0, 4.0]))
