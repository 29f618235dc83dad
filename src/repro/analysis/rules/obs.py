"""Clock discipline for the instrumented subsystems.

The observability layer's determinism story (DESIGN.md §10) is that
every duration the service reports flows through an injectable
:class:`~repro.service.clock.Clock` — a test wires a ``ManualClock``
and span timings become exact, the determinism harness replays two
identical runs, and ``MonotonicClock`` keeps production immune to wall
clock steps.  One stray ``time.time()`` in a handler quietly breaks
all three.

``OBS001`` machine-checks that: anywhere in ``repro`` — the
experiments' Fig 5 timings included — no code may *read* a clock
directly; calls to ``time.time``/``time_ns``/``monotonic``/
``monotonic_ns``/``perf_counter``/``perf_counter_ns`` (dotted or
imported bare) are flagged.  ``repro.service.clock`` itself is exempt:
it is the single module whose job is wrapping those primitives.
``time.sleep`` is not a reading and stays legal (the client's backoff
and the CLI use it).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.walker import Finding, ModuleInfo, Project, Rule

#: The stdlib clock readers no module outside the wrapper may call.
_TIME_READERS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
    }
)

#: The one module allowed to touch the primitives it abstracts.
_EXEMPT_MODULES = frozenset({"repro.service.clock"})


def _bare_reader_imports(tree: ast.Module) -> frozenset[str]:
    """Local names bound to time readers via ``from time import ...``."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _TIME_READERS:
                    names.add(alias.asname or alias.name)
    return frozenset(names)


class DirectClockReadRule(Rule):
    code = "OBS001"
    name = "direct-clock-read"
    description = (
        "read time through a repro.service.clock.Clock, never "
        "time.time()/monotonic()/perf_counter() directly "
        "(repro.service.clock is the sole wrapper)"
    )
    scopes = ("repro",)

    def check(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        if module.module in _EXEMPT_MODULES:
            return
        bare_readers = _bare_reader_imports(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            reader: str | None = None
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
                and func.attr in _TIME_READERS
            ):
                reader = f"time.{func.attr}"
            elif isinstance(func, ast.Name) and func.id in bare_readers:
                reader = func.id
            if reader is None:
                continue
            yield self.finding(
                module, node,
                f"direct clock read {reader}() — inject a "
                "repro.service.clock.Clock and call now_ms() instead",
            )
