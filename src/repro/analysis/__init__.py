"""Static-analysis framework enforcing the repo's paper-level contracts.

``repro.analysis`` turns the invariants the evaluation depends on —
seeded randomness (KLL/REQ compaction coins, Sec 4 of the paper),
uniform sketch interface and bookkeeping, PR 1's lock discipline, loud
failure handling — into AST lint rules runnable as
``python -m repro.analysis --check src/repro``.

Public surface: :class:`~repro.analysis.walker.Finding`,
:class:`~repro.analysis.walker.Rule`,
:class:`~repro.analysis.walker.Project`, the rule registry in
:mod:`repro.analysis.rules`, and :func:`analyze_paths` /
:func:`analyze_source` for programmatic runs (the corpus tests build
synthetic projects through the latter).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.rules import ALL_RULES, RULES_BY_CODE, select_rules
from repro.analysis.walker import (
    Finding,
    ModuleInfo,
    Project,
    Rule,
    active_findings,
    run_rules,
    unused_suppression_findings,
)

__all__ = [
    "ALL_RULES",
    "RULES_BY_CODE",
    "Finding",
    "ModuleInfo",
    "Project",
    "Rule",
    "active_findings",
    "analyze_paths",
    "analyze_source",
    "run_rules",
    "select_rules",
    "unused_suppression_findings",
]


def _run(
    project: Project,
    rules: Sequence[Rule] | None,
    unused_noqa: bool,
) -> list[Finding]:
    picked = tuple(rules or ALL_RULES)
    findings = run_rules(project, picked)
    if unused_noqa:
        findings = sorted(
            findings
            + unused_suppression_findings(
                project, findings, picked, RULES_BY_CODE
            ),
            key=lambda f: (f.path, f.line, f.col, f.code),
        )
    return findings


def analyze_paths(
    paths: Iterable[Path | str],
    unused_noqa: bool = False,
) -> list[Finding]:
    """Run every rule over on-disk files/directories.

    With ``unused_noqa=True`` the dead-suppression audit (NOQA001)
    runs as a post-pass and its findings join the result.
    """
    from repro.analysis.cli import collect_paths

    project = Project.from_paths(
        collect_paths([str(path) for path in paths])
    )
    return _run(project, None, unused_noqa)


def analyze_source(
    source: str,
    module: str,
    path: str = "<memory>",
    rules: Sequence[Rule] | None = None,
    extra_modules: Sequence[ModuleInfo] = (),
    unused_noqa: bool = False,
) -> list[Finding]:
    """Analyse an in-memory snippet as if it were module *module*.

    *extra_modules* joins the synthetic project, letting corpus tests
    exercise cross-file rules (e.g. registry membership) without
    touching the real tree.
    """
    info = ModuleInfo(source=source, path=path, module=module)
    project = Project([info, *extra_modules])
    return _run(project, rules, unused_noqa)
