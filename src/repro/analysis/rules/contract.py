"""Sketch contract conformance.

The experimental comparison is only fair if every sketch exposes the
same surface (Sec 2.1's operations) and maintains the same bookkeeping
the differential harness relies on.  Four checks encode that:

* ``SK001`` — a concrete ``QuantileSketch`` subclass must define the
  five abstract methods (``update``, ``merge``, ``quantile``,
  ``size_bytes``, ``guarantee``) in its own body; relying on a
  sibling's inheritance chain hides which sketch actually answers a
  paper query, and which bound it claims.
* ``SK002`` — ``update`` must maintain the shared min/max/count
  bookkeeping: directly via ``self._observe`` / ``self._observe_batch``,
  or by delegating to another method of the class that does
  (transitively), e.g. DCS's ``update`` → ``update_batch``.  A sketch
  with a genuinely different accounting documents why with
  ``# repro: noqa[SK002]``.
* ``SK004`` — an overridden ``update_batch`` must not loop over
  per-item ``self.update(...)`` calls: that silently reverts the
  vectorised hot path (the per-item fallback lives in the abstract
  base).  The equivalence battery keeps the fast paths honest; this
  rule keeps them *present*.
* ``SK003`` — every concrete sketch in ``repro.core`` must be
  registered in ``repro.core.registry``'s ``SKETCHES`` table so the
  benchmark harness, serialization codecs and conformance tests
  enumerate it; an unregistered sketch silently escapes the whole
  evaluation. A registry whose table is not a dict literal the rule
  can read is itself a finding, so the check never stops silently.

A class is *abstract* (exempt) when its body declares
``@abc.abstractmethod`` members or it subclasses ``abc.ABC`` directly.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.walker import (
    Finding,
    ModuleInfo,
    Project,
    Rule,
    dotted_name,
)

_REQUIRED_METHODS = (
    "update", "merge", "quantile", "size_bytes", "guarantee",
)
_OBSERVERS = frozenset({"_observe", "_observe_batch"})
#: The interface and the abstract bases sketches share an implementation
#: through: base.py's weighted-sample sketch and gk.py's tuple summary.
_SKETCH_BASES = frozenset(
    {"QuantileSketch", "WeightedSampleSketch", "GKSummary"}
)
_REGISTRY_MODULE = "repro.core.registry"
_REGISTRY_TABLE = "SKETCHES"


def _base_names(cls: ast.ClassDef) -> set[str]:
    names = set()
    for base in cls.bases:
        name = dotted_name(base)
        if name is not None:
            names.add(name.rsplit(".", maxsplit=1)[-1])
    return names


def _is_sketch_class(cls: ast.ClassDef) -> bool:
    return bool(_SKETCH_BASES & _base_names(cls))


def _is_abstract(cls: ast.ClassDef) -> bool:
    if "ABC" in _base_names(cls):
        return True
    for node in cls.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            name = dotted_name(decorator)
            if name in ("abstractmethod", "abc.abstractmethod"):
                return True
    return False


def _methods(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        node.name: node
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
    }


def _self_calls(fn: ast.FunctionDef) -> set[str]:
    """Names of ``self.<method>(...)`` calls anywhere inside *fn*."""
    calls: set[str] = set()
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        ):
            calls.add(node.func.attr)
    return calls


def _update_observes(cls: ast.ClassDef) -> bool:
    """Does ``update`` reach ``_observe``/``_observe_batch`` through
    self-calls within the class body (any depth)?"""
    methods = _methods(cls)
    update = methods.get("update")
    if update is None:
        return False
    seen: set[str] = set()
    frontier = ["update"]
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        fn = methods.get(name)
        if fn is None:
            continue
        calls = _self_calls(fn)
        if calls & _OBSERVERS:
            return True
        frontier.extend(calls - seen)
    return False


def _registry_table(
    registry: ModuleInfo,
) -> tuple[ast.stmt | None, set[str] | None]:
    """The registry's table statement and the class names it lists.

    The names are ``None`` when the table is missing or is not a dict
    literal whose every value is a class name or a call whose first
    argument is one (``SketchSpec(KLLSketch, ...)``).
    """
    for node in registry.tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == _REGISTRY_TABLE
            for t in targets
        ):
            continue
        if not isinstance(node.value, ast.Dict):
            return node, None
        names = set()
        for entry in node.value.values:
            if isinstance(entry, ast.Call) and entry.args:
                entry = entry.args[0]
            name = dotted_name(entry)
            if name is None:
                return node, None
            names.add(name.rsplit(".", maxsplit=1)[-1])
        return node, names
    return None, None


class SketchInterfaceRule(Rule):
    code = "SK001"
    name = "sketch-interface"
    description = (
        "concrete QuantileSketch subclasses must define update, merge, "
        "quantile, size_bytes and guarantee in their own body"
    )
    scopes = ("repro.core", "repro.parallel")

    def check(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not _is_sketch_class(node) or _is_abstract(node):
                continue
            defined = set(_methods(node))
            missing = [
                name for name in _REQUIRED_METHODS
                if name not in defined
            ]
            if missing:
                yield self.finding(
                    module, node,
                    f"sketch {node.name} is missing "
                    f"{', '.join(missing)} from the QuantileSketch "
                    "contract",
                )


class UpdateObservesRule(Rule):
    code = "SK002"
    name = "update-observes"
    description = (
        "a sketch's update() must maintain min/max/count bookkeeping "
        "by (transitively) calling _observe or _observe_batch"
    )
    scopes = ("repro.core", "repro.parallel")

    def check(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not _is_sketch_class(node) or _is_abstract(node):
                continue
            update = _methods(node).get("update")
            if update is None:
                continue  # SK001 already reports the missing method
            if not _update_observes(node):
                yield self.finding(
                    module, update,
                    f"{node.name}.update never reaches _observe/"
                    "_observe_batch — min/max/count bookkeeping (and "
                    "every query built on it) will be wrong",
                )


class BatchUpdateVectorisedRule(Rule):
    code = "SK004"
    name = "batch-update-vectorised"
    description = (
        "an overridden update_batch must not loop over per-item "
        "self.update(...) calls — that silently reverts the vectorised "
        "hot path the ingest benchmarks gate on"
    )
    scopes = ("repro.core", "repro.parallel")

    def check(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            # The abstract base is the one legitimate home of the
            # per-item fallback loop; concrete sketches must not
            # regress to it.
            if not _is_sketch_class(node) or _is_abstract(node):
                continue
            batch = _methods(node).get("update_batch")
            if batch is None:
                continue
            for loop in ast.walk(batch):
                if not isinstance(loop, (ast.For, ast.While)):
                    continue
                if "update" in _loop_self_calls(loop):
                    yield self.finding(
                        module, loop,
                        f"{node.name}.update_batch loops over "
                        "self.update(...) — the per-item scalar path; "
                        "vectorise it (see base.as_float_batch / "
                        "_observe_batch) or drop the override",
                    )


def _loop_self_calls(loop: ast.For | ast.While) -> set[str]:
    """Names of ``self.<method>(...)`` calls inside a loop body."""
    calls: set[str] = set()
    for node in ast.walk(loop):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        ):
            calls.add(node.func.attr)
    return calls


class RegistryMembershipRule(Rule):
    code = "SK003"
    name = "registry-membership"
    description = (
        "every concrete sketch in repro.core must be registered in "
        "repro.core.registry.SKETCHES"
    )
    scopes = ("repro.core",)

    def check(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        registry = project.find_module(_REGISTRY_MODULE)
        if registry is None:
            return  # registry not in this run (e.g. single-file lint)
        table, registered = _registry_table(registry)
        if module.module == _REGISTRY_MODULE:
            if registered is None:
                yield self.finding(
                    module, table or module.tree,
                    f"registry.{_REGISTRY_TABLE} is not a dict literal "
                    "of sketch classes — SK003 cannot tell which "
                    "sketches are registered",
                )
            return
        if registered is None:
            return  # reported once, on the registry module
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not _is_sketch_class(node) or _is_abstract(node):
                continue
            if node.name not in registered:
                yield self.finding(
                    module, node,
                    f"sketch {node.name} is not registered in "
                    "registry.SKETCHES — it is invisible to the "
                    "harness and the conformance tests",
                )
