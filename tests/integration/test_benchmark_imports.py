"""The benchmark's import and keyword contract.

``benchmarks/e2e`` is outside ``testpaths`` and may not be edited by the
changes it measures, so a public name it imports from ``repro`` must keep
resolving, and every keyword it passes to one must stay accepted: a
deleted name or option would otherwise surface only when the benchmark
exits with no result.  The files are parsed, never imported or run.
"""

import ast
import importlib
import inspect
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


def repro_calls():
    """``(site, module, name, attribute, keywords)`` of every call in
    ``benchmarks/e2e/*.py`` that passes keywords to a name imported from
    ``repro`` — ``Name(...)``, or ``name.attribute(...)`` on an imported
    module or class."""
    found = []
    for path in sorted(E2E.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {
            alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and node.level == 0
            and (node.module or "").split(".")[0] == "repro"
            for alias in node.names
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            keywords = tuple(sorted(k.arg for k in node.keywords if k.arg))
            func = node.func
            if isinstance(func, ast.Name) and func.id in imported:
                target = (*imported[func.id], None)
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in imported
            ):
                target = (*imported[func.value.id], func.attr)
            else:
                continue
            if keywords:
                found.append((f"{path.name}:{node.lineno}", *target, keywords))
    return found


def resolve(module, name, attribute):
    namespace = importlib.import_module(module)
    if hasattr(namespace, name):
        target = getattr(namespace, name)
    else:  # `from package import submodule`
        target = importlib.import_module(f"{module}.{name}")
    return target if attribute is None else getattr(target, attribute)


def test_scan_finds_the_server_constructor_keywords():
    assert any(
        name == "QuantileServer" and "registry" in keywords
        for _site, _module, name, _attribute, keywords in repro_calls()
    )


@pytest.mark.parametrize(
    "site,module,name,attribute,keywords",
    repro_calls(),
    ids=[f"{call[0]}-{call[2]}" for call in repro_calls()],
)
def test_passed_keywords_are_accepted(site, module, name, attribute, keywords):
    """A keyword the benchmark passes must still be a parameter of the
    callable (a class: its constructor), or it must take ``**kwargs``:
    a removed option would otherwise surface only as a dead benchmark."""
    parameters = inspect.signature(resolve(module, name, attribute)).parameters
    kinds = {parameter.kind for parameter in parameters.values()}
    if inspect.Parameter.VAR_KEYWORD in kinds:
        return
    named = {
        key for key, parameter in parameters.items()
        if parameter.kind is not inspect.Parameter.POSITIONAL_ONLY
    }
    unknown = sorted(set(keywords) - named)
    assert not unknown, (
        f"{site}: {name}{'.' + attribute if attribute else ''} "
        f"no longer accepts {unknown}"
    )
