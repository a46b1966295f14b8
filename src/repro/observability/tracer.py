"""Structured tracing and metrics for the scheduling pipeline.

The pipeline's hot loops (the indexed kernel, the versioned analysis
cache) cannot afford an always-on telemetry layer, so the design splits
into two halves with one shared contract:

* :class:`NullTracer` -- the default.  ``enabled`` is False and every
  method is a no-op.  Instrumented call sites guard on ``enabled``
  before touching any other tracer API, so with the default tracer the
  fast path pays one attribute load and one branch per site and
  performs **zero** additional allocations (a contract the test suite
  enforces with a tracer whose recording methods raise).

* :class:`Tracer` -- the recording implementation.  It collects

  - **spans**: named, nested, wall-clock-timed sections (the Fig. 9
    pipeline phases),
  - **events**: point records with arbitrary fields (per-iteration
    scheduler stats, per-run kernel summaries, well-posedness verdicts),
  - **counters**: monotonically increasing named integers (cache
    hits/misses, relaxations, iterations),
  - **timers**: accumulated durations per name (phase totals across
    repeated runs).

The active tracer is **context-local** (:data:`STATE`), installed with
:func:`use_tracer` / :func:`set_tracer`.  The slot is backed by a
:class:`contextvars.ContextVar` rather than a module-level attribute:
``repro.service`` handles many requests concurrently in one process,
and a process-global slot would splice every request's spans and
counters into whichever tracer was installed last.  With a contextvar,
each thread (threads start from an empty context) and each explicitly
copied ``contextvars.Context`` gets an isolated tracer; code that never
installs one sees the :data:`NULL_TRACER` default.  Reading the slot is
still ``_OBS.tracer`` at each site -- a property over ``ContextVar.get``,
which allocates nothing -- so every public API signature stays untouched
and the disabled path keeps its zero-allocation contract.

Everything here is standard library only: no numpy, no third-party
client, importable before anything else in :mod:`repro.core`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional


class NullTracer:
    """The default no-op tracer: ``enabled`` is False, methods do nothing.

    Instrumented hot paths must branch on :attr:`enabled` and skip every
    other call when it is False; the methods exist only so that cold
    call sites (CLI, flows) may call through unconditionally.
    """

    __slots__ = ()

    enabled = False

    def begin_span(self, name: str) -> None:
        pass

    def end_span(self) -> None:
        pass

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    def event(self, name: str, **fields: Any) -> None:
        pass

    def count(self, name: str, n: int = 1) -> None:
        pass

    def add_time(self, name: str, seconds: float) -> None:
        pass


class Tracer:
    """Recording tracer: spans, events, counters and timers in memory.

    The records are plain dicts/lists so :func:`repro.observability.report.build_report`
    can serialize them to JSON without any conversion layer.  Span
    records carry ``name``, ``start`` (seconds since the tracer was
    created), ``duration_s`` and ``parent`` (index into ``spans`` or
    None); events carry ``name``, ``t``, ``span`` and their fields.
    """

    __slots__ = ("enabled", "spans", "events", "counters", "timers",
                 "_origin", "_stack")

    def __init__(self) -> None:
        self.enabled = True
        self.spans: List[Dict[str, Any]] = []
        self.events: List[Dict[str, Any]] = []
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, Dict[str, float]] = {}
        self._origin = time.perf_counter()
        self._stack: List[int] = []

    # -- spans ---------------------------------------------------------

    def begin_span(self, name: str) -> None:
        """Open a nested span; pair with :meth:`end_span` (try/finally)."""
        record = {
            "name": name,
            "start": time.perf_counter() - self._origin,
            "duration_s": None,
            "parent": self._stack[-1] if self._stack else None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)

    def end_span(self) -> None:
        """Close the innermost open span and accumulate its timer."""
        index = self._stack.pop()
        record = self.spans[index]
        record["duration_s"] = (time.perf_counter() - self._origin
                                - record["start"])
        self.add_time(record["name"], record["duration_s"])

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """``with tracer.span("phase"):`` -- begin/end with unwinding."""
        self.begin_span(name)
        try:
            yield
        finally:
            self.end_span()

    # -- events / counters / timers ------------------------------------

    def event(self, name: str, **fields: Any) -> None:
        """Record a point event, attributed to the innermost open span."""
        record: Dict[str, Any] = {
            "name": name,
            "t": time.perf_counter() - self._origin,
            "span": self._stack[-1] if self._stack else None,
        }
        record.update(fields)
        self.events.append(record)

    def count(self, name: str, n: int = 1) -> None:
        """Increment the named monotone counter by *n*."""
        self.counters[name] = self.counters.get(name, 0) + n

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate *seconds* into the named timer."""
        timer = self.timers.get(name)
        if timer is None:
            timer = self.timers[name] = {"total_s": 0.0, "count": 0}
        timer["total_s"] += seconds
        timer["count"] += 1

    # -- queries -------------------------------------------------------

    def counter(self, name: str, default: int = 0) -> int:
        """The current value of a counter (0 when never incremented)."""
        return self.counters.get(name, default)

    def events_named(self, name: str) -> List[Dict[str, Any]]:
        """All events with the given name, in emission order."""
        return [e for e in self.events if e["name"] == name]


#: The process-wide null tracer singleton (the default).
NULL_TRACER = NullTracer()

#: The context-local active-tracer slot.  Never read this directly from
#: instrumented code -- go through :data:`STATE` / :func:`current_tracer`
#: so the NULL_TRACER default is uniform.
_ACTIVE: ContextVar[Any] = ContextVar("repro.observability.tracer",
                                      default=NULL_TRACER)


class _State:
    """Attribute facade over the context-local tracer slot.

    Instrumented modules import :data:`STATE` once and read
    ``STATE.tracer`` per call; the property delegates to the contextvar
    so concurrent requests (service worker threads, copied contexts)
    each see their own tracer.  ``ContextVar.get`` with a default
    allocates nothing, preserving the disabled path's zero-allocation
    contract.
    """

    __slots__ = ()

    @property
    def tracer(self) -> Any:
        return _ACTIVE.get()

    @tracer.setter
    def tracer(self, value: Any) -> None:
        _ACTIVE.set(value if value is not None else NULL_TRACER)


#: Slot holding the active tracer; instrumented modules import this once
#: and read ``STATE.tracer`` per call (context-local, see :class:`_State`).
STATE = _State()


def current_tracer():
    """The active tracer (the :data:`NULL_TRACER` unless one is installed)."""
    return _ACTIVE.get()


def set_tracer(tracer) -> Any:
    """Install *tracer* as this context's active tracer; returns the
    previous one.  Only affects the calling thread/context -- concurrent
    requests keep their own tracers."""
    previous = _ACTIVE.get()
    _ACTIVE.set(tracer if tracer is not None else NULL_TRACER)
    return previous


@contextmanager
def use_tracer(tracer) -> Iterator[Any]:
    """Scope *tracer* as the active tracer for the duration of the block.

    Token-based restore: unwinding resets the slot to exactly what this
    context saw before, even when the block nests or raises.
    """
    token = _ACTIVE.set(tracer if tracer is not None else NULL_TRACER)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)


@contextmanager
def trace_run(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """Convenience: install a fresh recording tracer for the block.

    ``with trace_run() as tracer: schedule_graph(g)`` followed by
    ``build_report(tracer)`` is the whole user-facing recipe.
    """
    active = tracer if tracer is not None else Tracer()
    with use_tracer(active):
        yield active
