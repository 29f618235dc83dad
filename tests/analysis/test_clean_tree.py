"""The repo's own source must stay lint-clean.

This is the regression half of the static-analysis gate: the corpus
tests prove each rule *can* fire; this test proves none of them fire
on ``src/repro``, so a PR reintroducing an unseeded RNG, a float
equality, or an unguarded shared-state write fails the tier-1 suite —
not just ``make lint``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis import active_findings, analyze_paths
from repro.analysis.walker import UNUSED_NOQA_CODE

SRC_ROOT = Path(repro.__file__).resolve().parent
REPO_ROOT = SRC_ROOT.parent.parent


@pytest.fixture(scope="session")
def src_findings():
    """Every active finding on ``src/repro``, the dead-suppression
    audit included, from one analysis pass the tests below filter."""
    return active_findings(analyze_paths([SRC_ROOT], unused_noqa=True))


def test_src_tree_has_zero_active_findings(src_findings):
    findings = [f for f in src_findings if f.code != UNUSED_NOQA_CODE]
    assert findings == [], "\n".join(f.render() for f in findings)


def test_src_tree_has_no_stale_suppressions(src_findings):
    """Every ``# repro: noqa[...]`` in the tree must still be earning
    its keep — the NOQA001 audit runs in CI, so a fix that obsoletes a
    suppression must also delete the comment."""
    assert src_findings == [], "\n".join(f.render() for f in src_findings)


def test_lck_race_family_is_clean_on_src_tree(src_findings):
    """The `make race-check` static gate: no deadlock cycles, no
    blocking-under-lock, no lockset races anywhere in the tree."""
    findings = [
        f for f in src_findings if f.code.startswith(("LCK", "RACE"))
    ]
    assert findings == [], "\n".join(f.render() for f in findings)


def test_one_apply_loop_calls_record():
    """The write path has one apply loop: ``apply_ops`` is the only
    function in the tree that calls ``.record(``, so the drain,
    recovery, replication and what-if replay cannot drift apart."""
    sites = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "record"
                ):
                    relative = path.relative_to(SRC_ROOT).as_posix()
                    sites.append(f"{relative}:{fn.name}")
    assert sites == ["service/registry.py:apply_ops"]


def test_cli_check_gate_passes_on_src_tree():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_ROOT.parent), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--check", str(SRC_ROOT)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        check=False,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 finding(s)" in result.stdout
