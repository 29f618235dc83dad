"""Lock wrappers, the lock-order monitor, and the patching shim.

Design notes
------------

**Identity.** Edges are recorded between lock *instances* (each wrapper
gets a monotonically-increasing uid from its monitor), not between
static lock names: two shards' ``_lock`` attributes are different
vertices, exactly as in the runtime they are different locks.  The
monitor keeps a strong reference to every wrapper it has registered so
uids are never aliased by id reuse; monitors are per-test objects, so
the leak is bounded and brief.

**Edges.** A thread that successfully acquires lock *B* while already
holding lock *A* witnesses the edge *A → B*.  Reentrant acquires of an
``RLock`` bump a per-thread depth and record nothing (they impose no
ordering).  Only the first witness of an edge captures context (thread
name and caller's ``file:line``) — later hits are counted but cheap,
which is what keeps sanitized runs within the <10% overhead budget.

**Verification.** ``assert_acyclic()`` runs a breadth-first search
over the edge graph at teardown and reports one shortest cycle with
each edge's first witness.  Two hazards are additionally caught
*live*, because waiting for teardown would mean waiting forever: a
non-reentrant lock re-acquired by its holding thread (guaranteed
self-deadlock), and a blocking acquire that would close a cycle with
already-witnessed edges (the sanitizer raises where a real deadlock
*could* park, naming the witnessed path the acquire would close).

**Watchpoints.** ``watch(obj, "attr")`` installs a data descriptor on
``type(obj)`` whose getter/setter run the Eraser lockset algorithm:
the candidate set starts as "all locks" and is intersected with the
accessor's held set on every touch; once it empties with two threads
involved and at least one write, the access is a race.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import LockOrderViolation, RaceViolation

# Captured before any patching so the monitor's own bookkeeping (and
# unwrapped construction sites) always get genuine primitives.
_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock

_SANITIZER_FILE = __file__


def _caller_site() -> str:
    """``file:line`` of the nearest frame outside this module."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_code.co_filename == _SANITIZER_FILE:
        frame = frame.f_back
    if frame is None:  # pragma: no cover - only if called at module top
        return "<unknown>"
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"


@dataclass
class EdgeWitness:
    """First sighting of an acquisition-order edge."""

    thread: str
    site: str
    count: int = 1


@dataclass
class RaceWitness:
    """First access of a watched attribute with an empty lockset."""

    attr: str
    kind: str  # "read" | "write"
    thread: str
    site: str
    other_threads: tuple[str, ...]


@dataclass
class FaultUnderLock:
    """A fault-injection site that fired while locks were held."""

    site: str
    locks: tuple[str, ...]
    thread: str


class SanitizedLock:
    """Drop-in wrapper over a real lock that reports to a monitor."""

    __slots__ = ("_inner", "_monitor", "uid", "label", "reentrant")

    def __init__(self, inner: Any, monitor: "LockMonitor",
                 label: str, reentrant: bool) -> None:
        self._inner = inner
        self._monitor = monitor
        self.label = label
        self.reentrant = reentrant
        self.uid = monitor._register(self)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        if blocking and timeout < 0:
            # This call can park forever, so hazards must be caught
            # *before* we commit to waiting.
            self._monitor._check_blocking_acquire(self)
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            self._monitor._record_acquire(self)
        return ok

    def release(self) -> None:
        self._inner.release()
        self._monitor._record_release(self)

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: Any) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "RLock" if self.reentrant else "Lock"
        return f"<SanitizedLock {kind} #{self.uid} from {self.label}>"


class _WatchState:
    """Eraser lockset state for one (instance, attribute) pair."""

    __slots__ = ("lockset", "threads", "wrote", "witness")

    def __init__(self) -> None:
        self.lockset: set[int] | None = None  # None = "all locks" (top)
        self.threads: set[str] = set()
        self.wrote = False
        self.witness: RaceWitness | None = None


class LockMonitor:
    """Collects acquisition order, watchpoint hits and fault contexts."""

    def __init__(self) -> None:
        self._state_lock = _REAL_LOCK()
        self._locks: dict[int, SanitizedLock] = {}
        self._next_uid = 0
        # edge (a_uid, b_uid) -> first witness; a was held when b was taken.
        self.edges: dict[tuple[int, int], EdgeWitness] = {}
        self._held = threading.local()  # .stack: list[[uid, depth]]
        self.races: list[RaceWitness] = []
        self.faults_under_lock: list[FaultUnderLock] = []
        self._watch_states: dict[tuple[int, str], _WatchState] = {}
        self._watched_classes: set[tuple[type, str]] = set()

    # -- registration / per-thread stacks ---------------------------------

    def _register(self, lock: SanitizedLock) -> int:
        with self._state_lock:
            uid = self._next_uid
            self._next_uid += 1
            self._locks[uid] = lock
            return uid

    def _stack(self) -> list[list[int]]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = self._held.stack = []
        return stack

    def held_uids(self) -> tuple[int, ...]:
        """Uids of locks the *calling thread* currently holds."""
        return tuple(entry[0] for entry in self._stack())

    def held_labels(self) -> tuple[str, ...]:
        return tuple(self._locks[uid].label for uid in self.held_uids())

    # -- acquire / release hooks ------------------------------------------

    def _check_blocking_acquire(self, lock: SanitizedLock) -> None:
        stack = self._stack()
        held = [entry[0] for entry in stack]
        if lock.uid in held:
            if lock.reentrant:
                return
            raise LockOrderViolation(
                f"self-deadlock: thread {threading.current_thread().name!r} "
                f"blocked on non-reentrant lock {lock.label} it already "
                f"holds (at {_caller_site()})"
            )
        path = self._shortest_path(lock.uid, held[-1]) if held else None
        if path is not None:
            raise LockOrderViolation(
                f"lock-order cycle closed at acquire of {lock.label} "
                f"while holding {self._locks[held[-1]].label} "
                f"(at {_caller_site()}): {self._path_description(path)}"
            )

    def _record_acquire(self, lock: SanitizedLock) -> None:
        stack = self._stack()
        for entry in stack:
            if entry[0] == lock.uid:  # reentrant re-acquire
                entry[1] += 1
                return
        if stack:
            held_uid = stack[-1][0]
            key = (held_uid, lock.uid)
            with self._state_lock:
                witness = self.edges.get(key)
                if witness is None:
                    self.edges[key] = EdgeWitness(
                        thread=threading.current_thread().name,
                        site=_caller_site(),
                    )
                else:
                    witness.count += 1
        stack.append([lock.uid, 1])

    def _record_release(self, lock: SanitizedLock) -> None:
        stack = self._stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i][0] == lock.uid:
                stack[i][1] -= 1
                if stack[i][1] == 0:
                    del stack[i]
                return
        # Release of a lock acquired before instrumentation: ignore.

    # -- graph queries -----------------------------------------------------

    def _adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {}
        with self._state_lock:
            keys = list(self.edges)
        for a, b in keys:
            adj.setdefault(a, set()).add(b)
        return adj

    def _shortest_path(self, src: int, dst: int) -> list[int] | None:
        """A shortest witnessed path src -> ... -> dst of at least one
        edge, as a uid list from src to dst, or None.  With src == dst
        it is a shortest cycle through src."""
        adj = self._adjacency()
        parents: dict[int, int] = {}
        frontier = [src]
        while frontier and dst not in parents:
            next_frontier = []
            for node in frontier:
                for nxt in adj.get(node, ()):
                    if nxt not in parents:
                        parents[nxt] = node
                        next_frontier.append(nxt)
            frontier = next_frontier
        if dst not in parents:
            return None
        path = [dst]
        node = parents[dst]
        while node != src:
            path.append(node)
            node = parents[node]
        path.append(src)
        path.reverse()
        return path

    def _shortest_cycle(self) -> list[int] | None:
        """A shortest cycle in the edge graph, as a uid path, or None."""
        best: list[int] | None = None
        for start in self._adjacency():
            path = self._shortest_path(start, start)
            if path is not None and (best is None or len(path) < len(best)):
                best = path
        return None if best is None else best[:-1]

    def _path_description(self, path: list[int]) -> str:
        """Name each witnessed edge along *path* (a uid list)."""
        with self._state_lock:
            witnesses = [self.edges[pair] for pair in zip(path, path[1:])]
        return "; ".join(
            f"{self._locks[x].label} -> {self._locks[y].label} "
            f"[{witness.thread} at {witness.site}]"
            for x, y, witness in zip(path, path[1:], witnesses)
        )

    def assert_acyclic(self) -> None:
        """Raise :exc:`LockOrderViolation` if acquisition order cycles."""
        cycle = self._shortest_cycle()
        if cycle is None:
            return
        lines = ["lock acquisition order contains a cycle:"]
        n = len(cycle)
        for i in range(n):
            a, b = cycle[i], cycle[(i + 1) % n]
            witness = self.edges[(a, b)]
            lines.append(
                f"  {self._locks[a].label} -> {self._locks[b].label}"
                f"  (first: thread {witness.thread!r} at {witness.site}, "
                f"seen {witness.count}x)"
            )
        raise LockOrderViolation("\n".join(lines))

    # -- watchpoints -------------------------------------------------------

    def watch(self, obj: Any, attr: str) -> None:
        """Install an Eraser-style race watchpoint on ``obj.attr``.

        The descriptor is installed on ``type(obj)`` so instances
        created afterwards are watched too; the current value (if any)
        is moved into a shadow slot.
        """
        cls = type(obj)
        if (cls, attr) in self._watched_classes:
            return
        self._watched_classes.add((cls, attr))
        shadow = f"_sanitizer_shadow_{attr}"
        monitor = self

        def getter(inst: Any) -> Any:
            monitor._record_access(inst, attr, "read")
            try:
                return inst.__dict__[shadow]
            except KeyError:
                # Instance predating the watch: its value still sits
                # under the plain name in ``__dict__``.
                try:
                    return inst.__dict__[attr]
                except KeyError:
                    raise AttributeError(attr) from None

        def setter(inst: Any, value: Any) -> None:
            monitor._record_access(inst, attr, "write")
            inst.__dict__[shadow] = value

        if attr in obj.__dict__:
            obj.__dict__[shadow] = obj.__dict__.pop(attr)
        setattr(cls, attr, property(getter, setter))

    def unwatch_all(self) -> None:
        """Remove every installed watchpoint descriptor.

        The ``lock_sanitizer`` fixture calls this in a ``finally`` so
        class objects are never left patched across tests.  Watched
        instances keep their last value in the shadow slot — watch
        throwaway objects, not long-lived ones.
        """
        for cls, attr in self._watched_classes:
            if isinstance(cls.__dict__.get(attr), property):
                delattr(cls, attr)
        self._watched_classes.clear()

    def _record_access(self, inst: Any, attr: str, kind: str) -> None:
        held = set(self.held_uids())
        thread = threading.current_thread().name
        key = (id(inst), attr)
        with self._state_lock:
            state = self._watch_states.get(key)
            if state is None:
                state = self._watch_states[key] = _WatchState()
            if state.lockset is None:
                state.lockset = held
            else:
                state.lockset &= held
            state.threads.add(thread)
            if kind == "write":
                state.wrote = True
            racy = (
                state.witness is None
                and state.wrote
                and len(state.threads) > 1
                and not state.lockset
            )
            if racy:
                others = tuple(sorted(state.threads - {thread}))
                state.witness = RaceWitness(
                    attr=attr, kind=kind, thread=thread,
                    site=_caller_site(), other_threads=others,
                )
                self.races.append(state.witness)

    # -- fault-site auditing ----------------------------------------------

    def wrap_fault(self, injector: Any) -> Any:
        """Record held locks whenever *injector*'s ``check`` raises."""
        original: Callable[..., Any] = injector.check
        monitor = self

        def check(site: str, *args: Any, **kwargs: Any) -> Any:
            try:
                return original(site, *args, **kwargs)
            except BaseException:
                labels = monitor.held_labels()
                if labels:
                    with monitor._state_lock:
                        monitor.faults_under_lock.append(FaultUnderLock(
                            site=site, locks=labels,
                            thread=threading.current_thread().name,
                        ))
                raise

        injector.check = check
        return injector

    # -- teardown ----------------------------------------------------------

    def verify(self) -> None:
        """Teardown gate: acyclic order and no watchpoint races.

        ``faults_under_lock`` is a report, not a failure — holding the
        WAL's log lock across an injected fsync crash is the designed
        behaviour the crash sweep exists to exercise.  Tests that want
        to *forbid* it can assert on the list directly.
        """
        self.assert_acyclic()
        if self.races:
            lines = ["unsynchronized access to watched attribute(s):"]
            for race in self.races:
                lines.append(
                    f"  {race.kind} of {race.attr!r} by thread "
                    f"{race.thread!r} at {race.site} with no lock in "
                    f"common with thread(s) {', '.join(race.other_threads)}"
                )
            raise RaceViolation("\n".join(lines))


class _LockFactory:
    """Replacement for ``threading.Lock``/``RLock`` while instrumented."""

    def __init__(self, monitor: LockMonitor, real: Callable[[], Any],
                 reentrant: bool) -> None:
        self._monitor = monitor
        self._real = real
        self._reentrant = reentrant

    def __call__(self) -> Any:
        inner = self._real()
        caller = sys._getframe(1)
        module = caller.f_globals.get("__name__", "")
        if not module.startswith("repro."):
            # Stdlib plumbing (queue conditions, executor internals,
            # logging) keeps raw primitives: it has its own discipline
            # and wrapping it would swamp the graph with noise.
            return inner
        label = f"{module}:{caller.f_lineno}"
        return SanitizedLock(inner, self._monitor, label, self._reentrant)


class instrumented:
    """Context manager swapping sanitized lock factories into ``threading``.

    Only ``threading.Lock`` and ``threading.RLock`` constructions whose
    calling frame belongs to a ``repro.*`` module yield wrappers;
    everything else receives the genuine primitive.  Locks created
    *before* entry are invisible to the monitor — instrument first,
    then build the system under test.
    """

    def __init__(self, monitor: LockMonitor) -> None:
        self.monitor = monitor

    def __enter__(self) -> LockMonitor:
        self._saved = (threading.Lock, threading.RLock)
        threading.Lock = _LockFactory(self.monitor, _REAL_LOCK, False)
        threading.RLock = _LockFactory(self.monitor, _REAL_RLOCK, True)
        return self.monitor

    def __exit__(self, *exc: Any) -> None:
        threading.Lock, threading.RLock = self._saved
