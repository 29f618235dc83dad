"""One byte parser: raw ``struct``/``frombuffer`` stay in the codec.

Every binary format goes through :mod:`repro.core.codec`, whose
``Reader`` bounds-checks each length and count (DESIGN.md §16); a module
reaching for ``struct`` or ``np.frombuffer`` itself is a hand-rolled
parser outside that contract (the repo once had four, none of which
rejected a negative length).  ``COD001`` flags both everywhere except
the codec.  :mod:`repro.service.protocol` may use ``struct`` — its
big-endian length prefix frames a socket stream, not a buffer — but not
``frombuffer``: a frame's float64 tail is a buffer like any other.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.walker import Finding, ModuleInfo, Project, Rule

_CODEC = "repro.core.codec"
_STREAM_FRAMING = "repro.service.protocol"


def _parser_primitive(node: ast.AST) -> str | None:
    if isinstance(node, ast.Import):
        if any(alias.name == "struct" for alias in node.names):
            return "import struct"
    elif isinstance(node, ast.ImportFrom):
        if node.module == "struct":
            return "from struct import"
    elif isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id == "struct":
            return f"struct.{node.attr}"
        if node.attr == "frombuffer":
            return "frombuffer"
    return None


class HandRolledParserRule(Rule):
    code = "COD001"
    name = "hand-rolled-byte-parser"
    description = (
        "struct and np.frombuffer are confined to repro.core.codec "
        "(struct also to repro.service.protocol's stream framing); every "
        "other module reads and writes bytes through codec.Reader/Writer"
    )
    scopes = ("repro",)

    def check(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        if module.module == _CODEC:
            return
        framing = module.module == _STREAM_FRAMING
        for node in ast.walk(module.tree):
            primitive = _parser_primitive(node)
            if primitive is None or (framing and primitive != "frombuffer"):
                continue
            yield self.finding(
                module, node,
                f"{primitive} outside repro.core.codec — use "
                "codec.Reader/Writer, which bounds-check every "
                "length and count",
            )
