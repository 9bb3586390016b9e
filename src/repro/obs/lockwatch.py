"""Runtime lock-order race detector: watched locks, cycle detection.

The static side (``tools/analyze``, rule ``lock-discipline``) checks
what a lock protects; this module checks how locks *compose* at
runtime.  The classic silent killer in a 20-module threaded stack is
lock-order inversion: thread 1 acquires A then B, thread 2 acquires B
then A — each order is individually correct, and the process deadlocks
only under exactly the wrong interleaving, usually in production.

The detector is lockdep-shaped:

- Every lock the stack creates through :func:`make_lock` /
  :func:`make_condition` is named after its *lock class* (e.g.
  ``serving.feature_cache``) — all instances of a component share a
  name, because ordering discipline is a property of the code, not of
  one object.
- While watching is enabled, each thread keeps a thread-local stack of
  held lock names.  Acquiring ``B`` while holding ``A`` records the
  directed edge ``A -> B`` in the process-wide :class:`LockGraph`.
- A **cycle** in that graph is a deadlock an unlucky schedule could
  reach, even if this run never did.  ``cycles()`` enumerates them;
  the tier-1 suite and the bench smoke runs assert there are none.
- Per lock class the graph tracks acquisitions, contended
  acquisitions, total/max wait and **max hold time** — a lock held for
  milliseconds is a convoy even when ordering is clean.

Watching off (the default) costs nothing: :func:`make_lock` returns a
plain ``threading.Lock``.  Watching on costs a thread-local list
append/pop per acquisition plus a short critical section on the
graph's internal lock only when edges are recorded (i.e. only while
the thread already holds another watched lock — rare on the hot path).

Reentrant acquisitions of the same lock class (``RLock``, or two
instances of one component) are counted but never recorded as edges:
a self-edge is reentrancy, not an ordering inversion.

The graph is **pid-scoped**: it records the process that created it
(:attr:`LockGraph.owner_pid`) and ignores acquisitions from any other
pid.  A worker or forked child that inherits an enabled graph (the
process serving tier spawns real pids while the tier-1 conftest has
watching on) therefore gets plain locks from :func:`make_lock` and
never feeds edges into the parent's graph — the parent's zero-cycle
assertion keeps describing the parent's locks only.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional, Set

__all__ = [
    "LockGraph",
    "WatchedLock",
    "enable",
    "disable",
    "installed",
    "make_lock",
    "make_condition",
]


class LockGraph:
    """Process-wide acquisition-order graph + per-lock-class stats."""

    def __init__(self) -> None:
        #: The pid this graph describes; other pids are ignored.
        self.owner_pid = os.getpid()
        self._glock = threading.Lock()
        #: name -> set of names acquired while holding it.
        self._edges: Dict[str, Set[str]] = {}
        #: (held, acquired) -> observation count.
        self._edge_counts: Dict[tuple, int] = {}
        #: name -> stats dict (plain floats/ints, mutated under _glock).
        self._locks: Dict[str, Dict[str, float]] = {}
        self._local = threading.local()

    # -- thread-local held stack --------------------------------------
    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _stats_for(self, name: str) -> Dict[str, float]:
        stats = self._locks.get(name)
        if stats is None:
            stats = {
                "acquisitions": 0,
                "contended": 0,
                "reentrant": 0,
                "total_wait_s": 0.0,
                "max_wait_s": 0.0,
                "max_hold_s": 0.0,
            }
            self._locks[name] = stats
        return stats

    # -- recording ----------------------------------------------------
    def on_acquire(self, name: str, wait_s: float, contended: bool) -> None:
        """Record that the calling thread acquired *name* (no-op from
        any process other than the graph's owner)."""
        if os.getpid() != self.owner_pid:
            return
        stack = self._stack()
        held = [h for h in stack if h != name]
        reentrant = len(held) != len(stack)
        with self._glock:
            stats = self._stats_for(name)
            stats["acquisitions"] += 1
            if contended:
                stats["contended"] += 1
            stats["total_wait_s"] += wait_s
            if wait_s > stats["max_wait_s"]:
                stats["max_wait_s"] = wait_s
            if reentrant:
                stats["reentrant"] += 1
            for holder in held:
                self._edges.setdefault(holder, set()).add(name)
                key = (holder, name)
                self._edge_counts[key] = self._edge_counts.get(key, 0) + 1
        stack.append(name)

    def on_release(self, name: str, held_s: float) -> None:
        """Record that the calling thread released *name* (no-op from
        any process other than the graph's owner)."""
        if os.getpid() != self.owner_pid:
            return
        stack = self._stack()
        # Remove the most recent occurrence (RLock release order).
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] == name:
                del stack[index]
                break
        with self._glock:
            stats = self._stats_for(name)
            if held_s > stats["max_hold_s"]:
                stats["max_hold_s"] = held_s

    # -- analysis -----------------------------------------------------
    def cycles(self) -> List[List[str]]:
        """Every elementary cycle in the acquisition graph.

        A nonempty result means a lock-order inversion was *observed*:
        some thread acquired A before B while another (or the same
        thread at another time) acquired B before A.  Each cycle is
        returned as the ordered list of lock names along it, smallest
        first for determinism.
        """
        with self._glock:
            edges = {name: sorted(out) for name, out in self._edges.items()}
        found: List[List[str]] = []
        seen: Set[frozenset] = set()

        # DFS from each start node, descending only into nodes that
        # sort after it — every elementary cycle is then discovered
        # exactly once, anchored at its smallest member.  Graphs here
        # are tiny (tens of lock classes), so simple enumeration is
        # plenty.
        def walk(
            node: str, start: str, path: List[str], on_path: Set[str]
        ) -> None:
            """Extend *path* from *node*, collecting cycles back to *start*."""
            for nxt in edges.get(node, ()):
                if nxt == start:
                    members = frozenset(path)
                    if members not in seen:
                        seen.add(members)
                        found.append(list(path))
                elif nxt > start and nxt not in on_path:
                    path.append(nxt)
                    on_path.add(nxt)
                    walk(nxt, start, path, on_path)
                    path.pop()
                    on_path.discard(nxt)

        for start in sorted(edges):
            walk(start, start, [start], {start})
        return sorted(found)

    def edges(self) -> List[Dict[str, object]]:
        """The observed acquisition-order edges with counts."""
        with self._glock:
            return [
                {"held": held, "acquired": acquired, "count": count}
                for (held, acquired), count in sorted(
                    self._edge_counts.items()
                )
            ]

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-lock-class counters (copy)."""
        with self._glock:
            return {name: dict(s) for name, s in sorted(self._locks.items())}

    def report(self) -> Dict[str, object]:
        """The full JSON-able report: locks, edges, cycles."""
        cycles = self.cycles()
        return {
            "schema_version": 1,
            "locks": self.stats(),
            "edges": self.edges(),
            "cycles": cycles,
            "cycle_count": len(cycles),
        }

    def reset(self) -> None:
        """Drop all recorded edges and stats (held stacks survive)."""
        with self._glock:
            self._edges.clear()
            self._edge_counts.clear()
            self._locks.clear()

    def assert_no_cycles(self) -> None:
        """Raise ``AssertionError`` listing any observed inversions."""
        cycles = self.cycles()
        assert not cycles, (
            "lock-order inversion(s) observed — an unlucky schedule "
            f"can deadlock: {cycles}"
        )


class WatchedLock:
    """A named lock recording acquisition order into a :class:`LockGraph`.

    Wraps ``threading.Lock`` (or ``RLock`` with ``reentrant=True``)
    with the same ``acquire``/``release``/context-manager surface, so
    it drops into every call site — including ``threading.Condition``,
    which only needs ``acquire``/``release`` (and uses our
    ``_is_owned`` for its owner checks).
    """

    __slots__ = ("name", "graph", "_inner", "_acquired_at")

    def __init__(
        self,
        name: str,
        graph: LockGraph,
        reentrant: bool = False,
    ):
        self.name = name
        self.graph = graph
        self._inner = threading.RLock() if reentrant else threading.Lock()
        self._acquired_at = threading.local()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        """Acquire, recording wait time and the ordering edge."""
        start = time.monotonic()
        got = self._inner.acquire(False)
        contended = not got
        if not got:
            if not blocking:
                return False
            got = self._inner.acquire(True, timeout)
            if not got:
                return False
        wait_s = time.monotonic() - start if contended else 0.0
        self.graph.on_acquire(self.name, wait_s, contended)
        self._acquired_at.t = time.monotonic()
        return True

    def release(self) -> None:
        """Release, recording the hold time."""
        acquired = getattr(self._acquired_at, "t", None)
        held_s = time.monotonic() - acquired if acquired is not None else 0.0
        self._inner.release()
        self.graph.on_release(self.name, held_s)

    def locked(self) -> bool:
        """Whether the underlying lock is currently held (by anyone)."""
        inner = self._inner
        if hasattr(inner, "locked"):
            return inner.locked()
        if inner.acquire(False):  # RLock on older pythons
            inner.release()
            return False
        return True

    def _is_owned(self) -> bool:
        """Owner check for ``threading.Condition``."""
        return self.name in self.graph._stack()

    def __enter__(self) -> "WatchedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WatchedLock({self.name!r})"


# ----------------------------------------------------------------------
# process-wide switch
# ----------------------------------------------------------------------
_installed: Optional[LockGraph] = None


def enable(graph: Optional[LockGraph] = None) -> LockGraph:
    """Turn watching on: locks created from now on are instrumented.

    Returns the installed graph (a fresh one unless *graph* is given).
    Locks created *before* enabling stay plain — enable watching
    before constructing the services under test (the tier-1 conftest
    does, for the whole session).
    """
    global _installed
    _installed = graph if graph is not None else LockGraph()
    return _installed


def disable() -> Optional[LockGraph]:
    """Turn watching off; returns the graph that was installed."""
    global _installed
    graph, _installed = _installed, None
    return graph


def installed() -> Optional[LockGraph]:
    """The active :class:`LockGraph`, or None when watching is off."""
    return _installed


def make_lock(name: str, reentrant: bool = False):
    """A lock for lock class *name*: plain when watching is off,
    watched when on.  Every lock the serving stack creates comes
    through here, so enabling lockwatch instruments the whole process
    without touching call sites."""
    graph = _installed
    if graph is None or graph.owner_pid != os.getpid():
        # No watching, or a graph inherited across fork/spawn: a child
        # process must get plain locks so it neither pollutes nor
        # trips over the parent's acquisition graph.
        return threading.RLock() if reentrant else threading.Lock()
    return WatchedLock(name, graph, reentrant=reentrant)


def make_condition(name: str) -> threading.Condition:
    """A condition variable whose underlying mutex is :func:`make_lock`'d."""
    return threading.Condition(make_lock(name))
