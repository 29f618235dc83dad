"""Interprocedural lockset dataflow for the concurrency rules.

Built on the call graph (:mod:`repro.analysis.callgraph`), this module
computes, for every function in the concurrency scopes:

* the ordered stack of lock tokens held at every call site, attribute
  access and lock acquisition (lexical ``with`` nesting);
* a *may-hold* entry set — the union over all known call sites of the
  locks held when calling in — used for deadlock and blocking-call
  detection, where over-approximating held locks finds more hazards;
* a per-thread-entry *must-hold* set — the intersection over call
  paths from one spawn target — used for race detection, where only
  locks held on **every** path actually protect an access
  (Eraser-style lockset reasoning).

From those it derives the static lock-order graph (edges "acquired
``dst`` while holding ``src``", with source witnesses), its cycles
(LCK002), blocking calls under a lock (LCK003) and shared-attribute
accesses reachable from two thread entries with disjoint locksets
(RACE001).  The summary is computed once per :class:`Project` and
cached on the project instance, so the three rules share one pass.

Known approximations, chosen to under-report rather than guess:

* lock identity is by canonical *name* (``module.Class.attr``, with
  subscripts collapsed to ``[*]``), not by object — two names for the
  same lock yield missed edges, never false ones;
* ``lock.acquire()``/``release()`` calls are not tracked; the codebase
  acquires exclusively through ``with`` blocks (LCK001 enforces the
  idiom for writes);
* self-edges (re-acquiring a token already held) are ignored — that is
  RLock reentrancy, which the runtime sanitizer checks precisely;
* container mutation through a method (``self._buffers.add(...)``)
  counts as a read of the attribute, not a write.
"""

from __future__ import annotations

import ast
import dataclasses

from repro.analysis.callgraph import (
    CONCURRENCY_SCOPES,
    CONSTRUCTION_METHODS,
    CallGraph,
    FunctionInfo,
)
from repro.analysis.walker import (
    ModuleInfo,
    Project,
    dotted_name,
    is_lock_name,
)

_SUMMARY_ATTR = "_concurrency_summary"

#: Attribute names whose calls block the calling thread (LCK003).
_BLOCKING_ATTRS = frozenset(
    {"recv", "recv_into", "accept", "sendall", "connect"}
)


# ----------------------------------------------------------------------
# Lexical events
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Acquisition:
    """A ``with <lock>`` entry: *token* acquired while holding *held*."""

    token: str
    held: tuple[str, ...]
    node: ast.expr


@dataclasses.dataclass(frozen=True)
class CallEvent:
    node: ast.Call
    held: tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class AccessEvent:
    """A ``self.<attr>`` read or write inside a method."""

    attr: str
    is_write: bool
    held: tuple[str, ...]
    node: ast.AST


@dataclasses.dataclass
class FunctionEvents:
    acquisitions: list[Acquisition] = dataclasses.field(
        default_factory=list
    )
    calls: list[CallEvent] = dataclasses.field(default_factory=list)
    accesses: list[AccessEvent] = dataclasses.field(
        default_factory=list
    )

    def held_at(self, call: ast.Call) -> tuple[str, ...]:
        for event in self.calls:
            if event.node is call:
                return event.held
        return ()


def render_lock_expr(node: ast.AST) -> str | None:
    """Render a lock expression; subscripts collapse to ``[*]``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = render_lock_expr(node.value)
        return None if base is None else f"{base}.{node.attr}"
    if isinstance(node, ast.Subscript):
        base = render_lock_expr(node.value)
        return None if base is None else f"{base}[*]"
    return None


def lock_token(
    node: ast.AST, module: ModuleInfo, cls: ast.ClassDef | None
) -> str | None:
    """Canonical token when *node* looks like a lock, else ``None``.

    ``self.X`` forms canonicalise to ``module.Class.X`` so the same
    lock attribute unifies across every method of the class; anything
    else stays module-qualified (``module:expr``), which keeps distinct
    locals distinct without inventing cross-module identity.
    """
    rendered = render_lock_expr(node)
    if rendered is None or not is_lock_name(rendered):
        return None
    if rendered.startswith("self.") and cls is not None:
        return f"{module.module}.{cls.name}.{rendered[len('self.'):]}"
    return f"{module.module}:{rendered}"


class _LexicalWalker:
    """Collect acquisitions, calls and accesses for one function."""

    def __init__(self, fn: FunctionInfo) -> None:
        self.fn = fn
        self.events = FunctionEvents()
        self._track_accesses = (
            fn.is_method and fn.name not in CONSTRUCTION_METHODS
        )

    def run(self) -> FunctionEvents:
        for stmt in self.fn.node.body:
            self._visit(stmt, ())
        return self.events

    def _visit(self, node: ast.AST, held: tuple[str, ...]) -> None:
        if isinstance(
            node,
            (
                ast.FunctionDef,
                ast.AsyncFunctionDef,
                ast.ClassDef,
                ast.Lambda,
            ),
        ):
            # Separate execution scope: nested defs get their own
            # events, lambda bodies run wherever they are called.
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = list(held)
            for item in node.items:
                self._visit(item.context_expr, tuple(inner))
                token = lock_token(
                    item.context_expr, self.fn.module, self.fn.cls
                )
                if token is not None:
                    self.events.acquisitions.append(
                        Acquisition(
                            token=token,
                            held=tuple(inner),
                            node=item.context_expr,
                        )
                    )
                    inner.append(token)
            for stmt in node.body:
                self._visit(stmt, tuple(inner))
            return
        if isinstance(node, ast.Call):
            self.events.calls.append(CallEvent(node=node, held=held))
        elif isinstance(node, ast.Attribute):
            self._record_attribute(node, held)
        elif isinstance(node, ast.Subscript):
            self._record_subscript_write(node, held)
        for child in ast.iter_child_nodes(node):
            self._visit(child, held)

    def _record_attribute(
        self, node: ast.Attribute, held: tuple[str, ...]
    ) -> None:
        if not self._track_accesses:
            return
        if not (
            isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return
        if is_lock_name(node.attr):
            return  # acquiring a lock is not a data access
        self.events.accesses.append(
            AccessEvent(
                attr=node.attr,
                is_write=isinstance(node.ctx, (ast.Store, ast.Del)),
                held=held,
                node=node,
            )
        )

    def _record_subscript_write(
        self, node: ast.Subscript, held: tuple[str, ...]
    ) -> None:
        """``self.X[k] = v`` writes *through* X: record a write on X."""
        if not self._track_accesses:
            return
        if not isinstance(node.ctx, (ast.Store, ast.Del)):
            return
        target = node.value
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and not is_lock_name(target.attr)
        ):
            self.events.accesses.append(
                AccessEvent(
                    attr=target.attr,
                    is_write=True,
                    held=held,
                    node=node,
                )
            )


# ----------------------------------------------------------------------
# Derived reports
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class LockEdge:
    """Witness: *dst* acquired while *src* was held."""

    src: str
    dst: str
    module: str
    path: str
    node: ast.expr
    via: str  # "" for lexical nesting, else the function called into


@dataclasses.dataclass(frozen=True)
class CycleReport:
    """One lock-order cycle, reported at each witness edge."""

    cycle: tuple[str, ...]
    edge: LockEdge


@dataclasses.dataclass(frozen=True)
class BlockingReport:
    module: str
    path: str
    node: ast.Call
    description: str
    locks: tuple[str, ...]
    function: str


@dataclasses.dataclass(frozen=True)
class RaceReport:
    """A write to ``Class.attr`` racing an access from another entry."""

    module: str
    path: str
    node: ast.AST
    class_name: str
    attr: str
    entry_a: str
    entry_b: str
    other_path: str
    other_line: int


@dataclasses.dataclass
class ConcurrencySummary:
    graph: CallGraph
    events: dict[str, FunctionEvents]
    entry_may: dict[str, frozenset[str]]
    edges: list[LockEdge]
    cycles: list[CycleReport]
    blocking: list[BlockingReport]
    races: list[RaceReport]


def summarize(project: Project) -> ConcurrencySummary:
    """Compute (or fetch the cached) concurrency summary for *project*."""
    cached = getattr(project, _SUMMARY_ATTR, None)
    if cached is not None:
        return cached
    summary = _build_summary(project)
    setattr(project, _SUMMARY_ATTR, summary)
    return summary


def _build_summary(project: Project) -> ConcurrencySummary:
    graph = CallGraph.build(project, CONCURRENCY_SCOPES)
    events = {
        qualname: _LexicalWalker(fn).run()
        for qualname, fn in graph.functions.items()
    }
    entry_may = _may_hold(graph, events)
    edges = _lock_edges(graph, events, entry_may)
    cycles = _find_cycles(edges)
    blocking = _blocking_calls(graph, events, entry_may)
    races = _find_races(graph, events)
    return ConcurrencySummary(
        graph=graph,
        events=events,
        entry_may=entry_may,
        edges=edges,
        cycles=cycles,
        blocking=blocking,
        races=races,
    )


def _site_held(
    events: dict[str, FunctionEvents], caller: str, call: ast.Call
) -> tuple[str, ...]:
    caller_events = events.get(caller)
    if caller_events is None:
        return ()
    return caller_events.held_at(call)


def _may_hold(
    graph: CallGraph, events: dict[str, FunctionEvents]
) -> dict[str, frozenset[str]]:
    """Union-over-call-sites fixpoint of locks held on function entry."""
    may: dict[str, frozenset[str]] = {
        qualname: frozenset() for qualname in graph.functions
    }
    changed = True
    while changed:
        changed = False
        for qualname, sites in graph.callers.items():
            if qualname not in may:
                continue
            incoming: set[str] = set(may[qualname])
            for site in sites:
                incoming |= may.get(site.caller, frozenset())
                incoming |= set(
                    _site_held(events, site.caller, site.node)
                )
            frozen = frozenset(incoming)
            if frozen != may[qualname]:
                may[qualname] = frozen
                changed = True
    return may


def _lock_edges(
    graph: CallGraph,
    events: dict[str, FunctionEvents],
    entry_may: dict[str, frozenset[str]],
) -> list[LockEdge]:
    edges: list[LockEdge] = []
    for qualname, fn_events in events.items():
        fn = graph.functions[qualname]
        inherited = entry_may.get(qualname, frozenset())
        for acq in fn_events.acquisitions:
            holders: dict[str, str] = {}
            for token in inherited:
                holders[token] = qualname  # held by some caller
            for token in acq.held:
                holders[token] = ""  # lexical nesting, same function
            for token, via in sorted(holders.items()):
                if token == acq.token:
                    continue  # RLock reentrancy, not an ordering edge
                edges.append(
                    LockEdge(
                        src=token,
                        dst=acq.token,
                        module=fn.module.module,
                        path=fn.module.path,
                        node=acq.node,
                        via=via,
                    )
                )
    return edges


def _find_cycles(edges: list[LockEdge]) -> list[CycleReport]:
    """Report every lock-order edge that lies on a cycle.

    An edge src -> dst lies on a cycle iff dst reaches src, which is
    exactly what the search for its shortest cycle finds out.  Each
    such edge yields one report (at its first witness) so every
    involved acquisition site is flagged.
    """
    adjacency: dict[str, set[str]] = {}
    for edge in edges:
        adjacency.setdefault(edge.src, set()).add(edge.dst)
    reports: list[CycleReport] = []
    seen_edges: set[tuple[str, str]] = set()
    for edge in sorted(
        edges, key=lambda e: (e.path, e.node.lineno, e.src, e.dst)
    ):
        if (edge.src, edge.dst) in seen_edges:
            continue
        seen_edges.add((edge.src, edge.dst))
        cycle = _shortest_cycle(adjacency, edge.src, edge.dst)
        if cycle is not None:
            reports.append(CycleReport(cycle=cycle, edge=edge))
    return reports


def _shortest_cycle(
    adjacency: dict[str, set[str]], src: str, dst: str
) -> tuple[str, ...] | None:
    """Cycle through edge src->dst: BFS path dst -> src, then close.

    ``None`` when dst does not reach src: the edge lies on no cycle.
    """
    parents: dict[str, str] = {dst: dst}
    queue = [dst]
    while queue:
        current = queue.pop(0)
        if current == src:
            break
        for succ in sorted(adjacency.get(current, ())):
            if succ not in parents:
                parents[succ] = current
                queue.append(succ)
    if src not in parents:
        return None
    path = [src]
    while path[-1] != dst:
        path.append(parents[path[-1]])
    path.reverse()  # dst ... src
    # Close the witnessed edge: src -> dst -> ... -> src.
    return (src, *path)


# ----------------------------------------------------------------------
# Blocking calls (LCK003)
# ----------------------------------------------------------------------

def _call_arg_names(call: ast.Call) -> set[str]:
    return {kw.arg for kw in call.keywords if kw.arg is not None}


def blocking_description(call: ast.Call) -> str | None:
    """Describe *call* if it can block indefinitely, else ``None``."""
    name = dotted_name(call.func)
    if name == "time.sleep":
        return "time.sleep()"
    if name in {"open", "io.open"}:
        return "open() file I/O"
    if name is not None and (
        name == "fsync" or name.endswith(".fsync")
    ):
        return "fsync() file I/O"
    if name is not None and name.endswith("create_connection"):
        return "socket connect"
    if not isinstance(call.func, ast.Attribute):
        return None
    attr = call.func.attr
    if attr in _BLOCKING_ATTRS:
        return f"socket .{attr}()"
    if attr == "get":
        receiver = render_lock_expr(call.func.value) or ""
        if "queue" not in receiver.lower() and receiver != "q":
            return None
        if "timeout" in _call_arg_names(call) or len(call.args) >= 2:
            return None
        return f"{receiver}.get() without timeout"
    if attr == "join":
        if call.args or "timeout" in _call_arg_names(call):
            return None
        receiver = render_lock_expr(call.func.value) or "<expr>"
        return f"{receiver}.join() without timeout"
    return None


def _blocking_calls(
    graph: CallGraph,
    events: dict[str, FunctionEvents],
    entry_may: dict[str, frozenset[str]],
) -> list[BlockingReport]:
    reports: list[BlockingReport] = []
    for qualname, fn_events in events.items():
        fn = graph.functions[qualname]
        inherited = entry_may.get(qualname, frozenset())
        for event in fn_events.calls:
            effective = inherited | set(event.held)
            if not effective:
                continue
            description = blocking_description(event.node)
            if description is None:
                continue
            reports.append(
                BlockingReport(
                    module=fn.module.module,
                    path=fn.module.path,
                    node=event.node,
                    description=description,
                    locks=tuple(sorted(effective)),
                    function=qualname,
                )
            )
    return reports


# ----------------------------------------------------------------------
# Races (RACE001)
# ----------------------------------------------------------------------

def _entry_must_hold(
    graph: CallGraph,
    events: dict[str, FunctionEvents],
    entry: str,
    reachable: set[str],
) -> dict[str, frozenset[str] | None]:
    """Locks held on *every* call path from *entry* to each function.

    ``None`` marks "not yet reached" (the must-analysis top element);
    intersection over incoming paths shrinks monotonically, so the
    fixpoint terminates.
    """
    must: dict[str, frozenset[str] | None] = {
        qualname: None for qualname in reachable
    }
    must[entry] = frozenset()
    changed = True
    while changed:
        changed = False
        for qualname in reachable:
            for site in graph.calls.get(qualname, []):
                if site.callee not in must:
                    continue
                source = must[qualname]
                if source is None:
                    continue
                incoming = source | set(
                    _site_held(events, qualname, site.node)
                )
                current = must[site.callee]
                merged = (
                    frozenset(incoming)
                    if current is None
                    else current & incoming
                )
                if merged != current:
                    must[site.callee] = merged
                    changed = True
    return must


@dataclasses.dataclass(frozen=True)
class _RaceAccess:
    entry: str
    function: str
    access: AccessEvent
    lockset: frozenset[str]
    path: str
    module: str


def _find_races(
    graph: CallGraph, events: dict[str, FunctionEvents]
) -> list[RaceReport]:
    entry_multi: dict[str, bool] = {}
    for entry in graph.entry_points:
        previous = entry_multi.get(entry.qualname)
        entry_multi[entry.qualname] = (
            entry.multi or previous is not None or bool(previous)
        )
    by_attr: dict[tuple[str, str], list[_RaceAccess]] = {}
    for entry_qual in sorted(entry_multi):
        reachable = graph.reachable_from([entry_qual])
        must = _entry_must_hold(graph, events, entry_qual, reachable)
        for qualname in sorted(reachable):
            fn = graph.functions.get(qualname)
            fn_events = events.get(qualname)
            if fn is None or fn_events is None or fn.cls is None:
                continue
            entry_held = must.get(qualname) or frozenset()
            class_key = f"{fn.module.module}.{fn.cls.name}"
            for access in fn_events.accesses:
                by_attr.setdefault(
                    (class_key, access.attr), []
                ).append(
                    _RaceAccess(
                        entry=entry_qual,
                        function=qualname,
                        access=access,
                        lockset=entry_held | set(access.held),
                        path=fn.module.path,
                        module=fn.module.module,
                    )
                )
    reports: list[RaceReport] = []
    reported: set[tuple[str, str, int]] = set()
    for (class_key, attr), accesses in sorted(by_attr.items()):
        for first in accesses:
            if not first.access.is_write:
                continue
            for second in accesses:
                if first is second and not entry_multi.get(
                    first.entry, False
                ):
                    continue
                if (
                    first.entry == second.entry
                    and first is not second
                    and not entry_multi.get(first.entry, False)
                ):
                    continue
                if first.lockset & second.lockset:
                    continue
                key = (class_key, attr, first.access.node.lineno)
                if key in reported:
                    continue
                reported.add(key)
                reports.append(
                    RaceReport(
                        module=first.module,
                        path=first.path,
                        node=first.access.node,
                        class_name=class_key,
                        attr=attr,
                        entry_a=first.entry,
                        entry_b=second.entry,
                        other_path=second.path,
                        other_line=second.access.node.lineno,
                    )
                )
                break
    reports.sort(key=lambda r: (r.path, r.node.lineno, r.attr))
    return reports
