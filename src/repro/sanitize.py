"""Opt-in lock-order and blocking-I/O sanitizer (``REPRO_SANITIZE=1``).

The service stack holds a small, fixed set of in-process locks -- the
per-graph analysis-cache ``RLock``, the schedule-cache and journal
locks, the session table, the admission gate, the stats lock -- and
PRs 7-9 each shipped a concurrency bug in their interplay that was only
found late.  This module makes the lock discipline *checkable*: every
named lock site is built through :func:`make_lock` /
:func:`make_rlock` / :func:`make_condition`, which return the plain
:mod:`threading` primitive by default (zero overhead, no wrapper, no
extra frame) and an instrumented wrapper when ``REPRO_SANITIZE=1``.

The instrumented wrappers record, per thread, the stack of held lock
*names* and fold every nested acquisition into a global
acquisition-order graph.  After a run (a test session, a service
smoke), :func:`report` returns:

* **cycles** -- a cycle ``A -> B -> A`` in the order graph means two
  threads can deadlock; the report names the witness call sites.
* **io_findings** -- blocking I/O (``os.fsync``, ``fcntl.flock``,
  socket sends/receives, ``time.sleep``) performed while holding a
  lock that was *not* declared ``io_ok``.  Locks whose entire purpose
  is serializing an I/O discipline (the journal's append lock, the
  per-session write-ahead lock) are declared ``io_ok=True`` at the
  construction site; the declaration list is part of the reviewed
  source, see DESIGN.md section 15 for the false-positive policy.

This module must stay importable from the innermost layers
(``core/graph.py`` builds a lock per graph), so it imports nothing
from :mod:`repro`.
"""

from __future__ import annotations

import os
import threading
import traceback
from typing import Any, Dict, List, Optional, Tuple

try:  # pragma: no cover - platform probe
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - non-POSIX
    _fcntl = None  # type: ignore[assignment]

__all__ = [
    "enabled", "make_lock", "make_rlock", "make_condition",
    "Recorder", "TrackedLock", "TrackedRLock", "TrackedCondition",
    "install_io_hooks", "uninstall_io_hooks", "report", "reset",
    "global_recorder",
]

#: Resolved once at import; tests construct :class:`Recorder` directly
#: instead of toggling the environment.
ENABLED = os.environ.get("REPRO_SANITIZE", "") == "1"


def enabled() -> bool:
    """Whether the process-wide sanitizer is active."""
    return ENABLED


def _witness(limit: int = 8) -> str:
    """A compact ``file:line`` caller chain for finding messages."""
    frames = traceback.extract_stack(limit=limit + 3)[:-3]
    parts = [f"{os.path.basename(f.filename)}:{f.lineno}" for f in frames]
    return " < ".join(reversed(parts[-limit:]))


class Recorder:
    """The acquisition-order graph plus per-thread held-lock stacks.

    Thread-safe; its internal mutex is a raw :class:`threading.Lock`
    (deliberately untracked).  One global instance backs the
    environment-enabled mode; unit tests build private ones.
    """

    def __init__(self) -> None:
        self._mu = threading.Lock()
        self._tls = threading.local()
        # (outer name, inner name) -> first witness call chain
        self.edges: Dict[Tuple[str, str], str] = {}
        self.io_findings: List[Dict[str, str]] = []
        self.acquisitions = 0

    # -- the per-thread stack ------------------------------------------

    def _stack(self) -> List[Tuple[str, bool, int]]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def held(self) -> List[str]:
        """Names of locks the *current thread* holds, outermost first."""
        return [name for name, _io_ok, _ident in self._stack()]

    # -- events fed by the tracked primitives --------------------------

    def on_acquire(self, name: str, io_ok: bool, ident: int) -> None:
        stack = self._stack()
        with self._mu:
            self.acquisitions += 1
            for outer_name, _outer_io, outer_ident in stack:
                if outer_ident == ident:
                    continue  # re-entrant hold of the same instance
                edge = (outer_name, name)
                if edge not in self.edges:
                    self.edges[edge] = _witness()
        stack.append((name, io_ok, ident))

    def on_release(self, name: str, ident: int) -> None:
        stack = self._stack()
        for position in range(len(stack) - 1, -1, -1):
            if stack[position][2] == ident:
                del stack[position]
                return

    def note_io(self, kind: str, detail: str = "") -> None:
        """Blocking I/O is happening on the current thread *now*."""
        offenders = [name for name, io_ok, _ident in self._stack()
                     if not io_ok]
        if not offenders:
            return
        with self._mu:
            self.io_findings.append({
                "kind": kind,
                "detail": detail,
                "locks": ",".join(offenders),
                "witness": _witness(),
            })

    # -- analysis ------------------------------------------------------

    def cycles(self) -> List[List[str]]:
        """Every elementary cycle in the acquisition-order graph."""
        with self._mu:
            adjacency: Dict[str, List[str]] = {}
            for outer, inner in self.edges:
                adjacency.setdefault(outer, []).append(inner)
                adjacency.setdefault(inner, [])
        found: List[List[str]] = []
        seen_keys = set()
        for root in sorted(adjacency):
            path = [root]
            on_path = {root}

            def walk(node: str) -> None:
                for succ in sorted(adjacency[node]):
                    if succ == root:
                        # canonicalize so each cycle reports once
                        pivot = path.index(min(path))
                        cycle = path[pivot:] + path[:pivot]
                        key = tuple(cycle)
                        if key not in seen_keys:
                            seen_keys.add(key)
                            found.append(cycle + [cycle[0]])
                    elif succ not in on_path and succ > root:
                        path.append(succ)
                        on_path.add(succ)
                        walk(succ)
                        on_path.discard(succ)
                        path.pop()

            walk(root)
        return found

    def report(self) -> Dict[str, Any]:
        cycles = self.cycles()
        with self._mu:
            return {
                "enabled": True,
                "acquisitions": self.acquisitions,
                "order_edges": {f"{a} -> {b}": witness
                                for (a, b), witness in
                                sorted(self.edges.items())},
                "cycles": [{"path": " -> ".join(cycle),
                            "witnesses": [self.edges.get(
                                (cycle[i], cycle[i + 1]), "?")
                                for i in range(len(cycle) - 1)]}
                           for cycle in cycles],
                "io_findings": list(self.io_findings),
            }

    def reset(self) -> None:
        with self._mu:
            self.edges.clear()
            self.io_findings.clear()
            self.acquisitions = 0


class TrackedLock:
    """A :class:`threading.Lock` that reports to a :class:`Recorder`."""

    _factory = staticmethod(threading.Lock)

    def __init__(self, recorder: Recorder, name: str, *,
                 io_ok: bool = False) -> None:
        self._inner = self._factory()
        self._recorder = recorder
        self.name = name
        self.io_ok = io_ok

    def acquire(self, blocking: bool = True,
                timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._recorder.on_acquire(self.name, self.io_ok, id(self))
        return got

    def release(self) -> None:
        self._recorder.on_release(self.name, id(self))
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()


class TrackedRLock(TrackedLock):
    """Re-entrant variant; nested holds of one instance add no edge."""

    _factory = staticmethod(threading.RLock)


class TrackedCondition:
    """A :class:`threading.Condition` whose lock is order-tracked.

    ``wait`` releases the underlying lock, so the held-stack entry is
    popped for the duration -- acquisitions made by *other* code on
    this thread while blocked in ``wait`` cannot happen, and the
    re-acquisition on wakeup is recorded like any other.
    """

    def __init__(self, recorder: Recorder, name: str, *,
                 io_ok: bool = False) -> None:
        self._inner = threading.Condition()
        self._recorder = recorder
        self.name = name
        self.io_ok = io_ok

    def acquire(self, *args: Any) -> bool:
        got = self._inner.acquire(*args)
        if got:
            self._recorder.on_acquire(self.name, self.io_ok, id(self))
        return got

    def release(self) -> None:
        self._recorder.on_release(self.name, id(self))
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def wait(self, timeout: Optional[float] = None) -> bool:
        self._recorder.on_release(self.name, id(self))
        try:
            return self._inner.wait(timeout)
        finally:
            self._recorder.on_acquire(self.name, self.io_ok, id(self))

    def wait_for(self, predicate: Any,
                 timeout: Optional[float] = None) -> Any:
        self._recorder.on_release(self.name, id(self))
        try:
            return self._inner.wait_for(predicate, timeout)
        finally:
            self._recorder.on_acquire(self.name, self.io_ok, id(self))

    def notify(self, n: int = 1) -> None:
        self._inner.notify(n)

    def notify_all(self) -> None:
        self._inner.notify_all()


# ----------------------------------------------------------------------
# the global recorder and the factories the lock sites call
# ----------------------------------------------------------------------

_GLOBAL = Recorder()


def global_recorder() -> Recorder:
    return _GLOBAL


def make_lock(name: str, *, io_ok: bool = False) -> Any:
    """A named mutex: plain ``threading.Lock`` unless sanitizing."""
    if not ENABLED:
        return threading.Lock()
    return TrackedLock(_GLOBAL, name, io_ok=io_ok)


def make_rlock(name: str, *, io_ok: bool = False) -> Any:
    if not ENABLED:
        return threading.RLock()
    return TrackedRLock(_GLOBAL, name, io_ok=io_ok)


def make_condition(name: str, *, io_ok: bool = False) -> Any:
    if not ENABLED:
        return threading.Condition()
    return TrackedCondition(_GLOBAL, name, io_ok=io_ok)


def report() -> Dict[str, Any]:
    """The global sanitizer report (``{"enabled": False}`` when off)."""
    if not ENABLED:
        return {"enabled": False}
    return _GLOBAL.report()


def reset() -> None:
    _GLOBAL.reset()


# ----------------------------------------------------------------------
# blocking-I/O hooks
# ----------------------------------------------------------------------

_PATCHED: Dict[str, Any] = {}


def install_io_hooks(recorder: Optional[Recorder] = None) -> None:
    """Patch the blocking syscall wrappers to report held locks.

    Covers ``os.fsync``, ``fcntl.flock``, ``time.sleep`` and the
    socket send/receive/connect paths.  Idempotent; undone by
    :func:`uninstall_io_hooks`.  Only ever active in sanitize mode (or
    explicitly from a unit test) -- never in production.
    """
    if _PATCHED:
        return
    rec = recorder or _GLOBAL

    import socket
    import time as _time

    real_fsync = os.fsync
    real_sleep = _time.sleep

    def fsync(fd: int) -> None:
        rec.note_io("fsync", f"fd={fd}")
        real_fsync(fd)

    def sleep(seconds: float) -> None:
        rec.note_io("sleep", f"seconds={seconds}")
        real_sleep(seconds)

    os.fsync = fsync  # type: ignore[assignment]
    _time.sleep = sleep  # type: ignore[assignment]
    _PATCHED["os.fsync"] = real_fsync
    _PATCHED["time.sleep"] = real_sleep

    if _fcntl is not None:
        real_flock = _fcntl.flock

        def flock(fd: int, operation: int) -> None:
            rec.note_io("flock", f"fd={fd} op={operation}")
            real_flock(fd, operation)

        _fcntl.flock = flock  # type: ignore[assignment]
        _PATCHED["fcntl.flock"] = real_flock

    for method in ("connect", "sendall", "recv"):
        real = getattr(socket.socket, method)

        def wrapped(self: Any, *args: Any,
                    _real: Any = real, _method: str = method) -> Any:
            rec.note_io(f"socket.{_method}")
            return _real(self, *args)

        setattr(socket.socket, method, wrapped)
        _PATCHED[f"socket.{method}"] = real


def uninstall_io_hooks() -> None:
    if not _PATCHED:
        return
    import socket
    import time as _time

    os.fsync = _PATCHED.pop("os.fsync")
    _time.sleep = _PATCHED.pop("time.sleep")
    if "fcntl.flock" in _PATCHED and _fcntl is not None:
        _fcntl.flock = _PATCHED.pop("fcntl.flock")
    for method in ("connect", "sendall", "recv"):
        key = f"socket.{method}"
        if key in _PATCHED:
            setattr(socket.socket, method, _PATCHED.pop(key))


if ENABLED:  # pragma: no cover - exercised by the sanitize-smoke job
    install_io_hooks()
