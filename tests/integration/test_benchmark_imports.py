"""The benchmark's import contract.

``benchmarks/e2e`` is outside ``testpaths`` and may not be edited by the
PRs it measures, so a public name it imports from ``repro`` must keep
resolving: a deleted one would otherwise surface only when the driver
exits with no result.  The files are parsed, never imported or run.
"""

import ast
import importlib
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"


def repro_imports():
    """Every ``from repro… import name`` in ``benchmarks/e2e/*.py``."""
    found = set()
    for path in sorted(E2E.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and (node.module or "").split(".")[0] == "repro"
            ):
                found.update((node.module, alias.name) for alias in node.names)
    return sorted(found)


def test_scan_finds_the_streaming_workload_imports():
    assert ("repro.streaming", "run_tumbling_batch") in repro_imports()


@pytest.mark.parametrize("module,name", repro_imports())
def test_imported_name_resolves(module, name):
    namespace = importlib.import_module(module)
    if not hasattr(namespace, name):  # `from package import submodule`
        importlib.import_module(f"{module}.{name}")
