"""The online dynamic executor: live completion streams, no re-solve.

The paper's central result is that a relative schedule stays valid for
*every* anchor-delay profile -- which means a static schedule can be
executed against live completion events without solving anything at
run time.  :class:`OnlineExecutor` does exactly that:

* an operation *issues* the moment every anchor in its static anchor
  set has completed, at ``max(done(a) + sigma_a(v))`` over the
  **static** offsets -- by the minimum schedule's any-profile
  optimality this equals the static schedule's
  ``start_times(observed)[v]``, the **anomaly-freedom** invariant the
  qa oracle pins (no completion may delay another op's start relative
  to the static relative schedule);
* an accepted completion records its cycle and issues what it
  unblocks; no scheduler runs, so the cost of an event is the issue
  scan, not a relaxation;
* the *rebound* schedule -- the minimum relative schedule of the graph
  with every observed anchor delay folded in as a bound -- is computed
  on demand by :attr:`OnlineExecutor.schedule`
  (:func:`repro.core.incremental.reschedule_with_observed`); no issue
  decision reads it;
* late and missing completions route through the watchdog machinery
  of :mod:`repro.core.watchdog` with the same cycle-accurate boundary
  semantics as :func:`repro.sim.control_sim.simulate_control` and the
  WAIT handling of :func:`repro.sim.engine.execute_design`: a
  completion landing at ``start + W(a)`` is in time, the watchdog
  fires one cycle later, RETRY re-arms over
  :meth:`~repro.core.watchdog.WatchdogConfig.rearm_window` windows,
  FALLBACK degrades to the static worst-case schedule, ABORT raises
  the taxonomy error.

The executor is deliberately event-driven, not cycle-driven: between
events no work happens, and ``benchmarks/bench_runtime.py`` pins the
per-event cost against a naive per-event re-solver.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple, Union

if TYPE_CHECKING:
    from repro.core.graph import ConstraintGraph
    from repro.core.resultcache import ScheduleCache

from repro.core.delay import is_unbounded
from repro.core.exceptions import MalformedInputError, WatchdogTimeoutError
from repro.core.incremental import reschedule_with_observed
from repro.core.schedule import RelativeSchedule
from repro.core.watchdog import WatchdogConfig, WatchdogPolicy, WatchdogTimeout
from repro.observability.tracer import STATE as _OBS
from repro.runtime.events import CompletionEvent, ExecutionLog, IssueRecord


class OnlineExecutor:
    """Consume an ordered anchor-completion stream; commit issue cycles.

    Args:
        schedule: the static minimum relative schedule to execute (any
            anchor mode; readiness and issue cycles are mode-invariant
            by Theorem 6).
        watchdog: timeout bounds and degradation policy for late or
            missing completions; defaults to the bounds attached to the
            schedule by ``schedule_graph(..., watchdog=...)`` (ABORT
            policy), like the simulators.
        source_done: the cycle the source's activation handshake
            completed (0 unless the environment says otherwise).

    Raises:
        MalformedInputError: from :meth:`feed`, for events that are not
            well-formed (unknown anchor, negative cycle, out-of-order
            stream).
        WatchdogTimeoutError: from :meth:`feed`/:meth:`close`, when a
            monitored anchor exceeds its allowance under ABORT (or
            RETRY exhausts its re-arm windows).
    """

    def __init__(self, schedule: RelativeSchedule, *,
                 watchdog: Optional[WatchdogConfig] = None,
                 source_done: int = 0) -> None:
        if watchdog is None and schedule.watchdog:
            watchdog = WatchdogConfig(bounds=schedule.watchdog)
        self.static = schedule
        self.watchdog = watchdog
        self.log = ExecutionLog()
        self._source = schedule.graph.source
        self._anchors = set(schedule.graph.anchors)
        self._static_delta = {v.name: v.delay
                              for v in schedule.graph.vertices()}
        self._done: Dict[str, int] = {self._source: source_done}
        self._pending: List[str] = [
            v for v in schedule.graph.forward_topological_order()
            if v != self._source]
        self._deadlines: Dict[str, int] = {}
        self._arm_seq: Dict[str, int] = {}
        self._armed = 0
        self._max_start = max(0, source_done)
        self._stream_clock = 0
        self._closed = False
        self._feed_seconds = 0.0
        self.log.issues[self._source] = 0
        self.log.done[self._source] = source_done
        self.log.cycles = max(0, source_done)
        self._issue_ready(-1)

    # -- state ---------------------------------------------------------

    @property
    def active(self) -> bool:
        """False once the run degraded, aborted or was closed."""
        return not (self._closed or self.log.degraded)

    @property
    def observed(self) -> Dict[str, int]:
        """Anchor -> observed delay (``done - start``) accepted so far."""
        return {a: self.log.done[a] - self.log.issues[a]
                for a in self.log.done
                if a != self._source and a in self._anchors}

    @property
    def schedule(self) -> RelativeSchedule:
        """The rebound schedule: the minimum relative schedule of the
        static graph with every :attr:`observed` delay folded in as a
        bound, computed on each access.  Issuing never reads it (see
        :meth:`_issue_ready`)."""
        return reschedule_with_observed(self.static, self.observed)

    def state_snapshot(self) -> Dict[str, object]:
        """The executor's complete observable state, as plain data.

        Two executors that consumed the same event prefix must produce
        equal snapshots -- the bit-identity contract the crash-recovery
        oracle check and the chaos ``--crash`` mode compare on.  Covers
        the execution log, the issue frontier, every armed watchdog
        (deadline *and* arming order, so re-arm tie-breaks survive a
        restart), and the stream clock.
        """
        return {
            "issues": dict(self.log.issues),
            "done": dict(self.log.done),
            "issue_order": [(r.op, r.cycle) for r in self.log.issue_order],
            "events": self.log.events,
            "reschedules": self.log.reschedules,
            "timeouts": [(t.anchor, t.cycle, t.bound, t.rearm)
                         for t in self.log.timeouts],
            "rearms": dict(self.log.rearms),
            "duplicates": self.log.duplicates,
            "spurious_rejections": self.log.spurious_rejections,
            "degraded": self.log.degraded,
            "cycles": self.log.cycles,
            "pending": list(self._pending),
            "deadlines": dict(self._deadlines),
            "arm_order": sorted(self._deadlines,
                                key=lambda a: self._arm_seq[a]),
            "max_start": self._max_start,
            "stream_clock": self._stream_clock,
            "observed": self.observed,
            "closed": self._closed,
        }

    # -- the event loop ------------------------------------------------

    def feed(self, event: CompletionEvent, *, pulse: bool = False) -> None:
        """Process one completion event (stream must be cycle-ordered).

        A degraded run absorbs further events without effect (the
        static fallback already committed every start); a closed run
        rejects them.

        *pulse* marks a bare edge-detected ``done`` pulse with no
        handshake context (e.g. an injected spurious signal): the done
        latch only arms at the *end* of the start cycle, so a pulse
        landing on the start cycle itself is rejected, exactly as the
        simulator's top-of-cycle injection path does.  A normal
        completion event on the start cycle is a genuine zero-delay
        finish and is accepted.
        """
        if self._closed:
            raise RuntimeError("feed() on a closed executor")
        if self.log.degraded:
            return
        anchor, cycle = event.anchor, event.cycle
        if anchor not in self._anchors or anchor == self._source:
            raise MalformedInputError(
                f"completion event names {anchor!r}, which is not a "
                f"non-source anchor of the scheduled graph")
        if isinstance(cycle, bool) or not isinstance(cycle, int) or cycle < 0:
            raise MalformedInputError(
                f"completion cycle for {anchor!r} must be a non-negative "
                f"int, got {cycle!r}")
        if cycle < self._stream_clock:
            raise MalformedInputError(
                f"event stream is not cycle-ordered: {anchor!r} at cycle "
                f"{cycle} after cycle {self._stream_clock}")
        t0 = time.perf_counter()
        self._stream_clock = cycle
        # Fire every watchdog whose (possibly re-armed) deadline passed
        # strictly before this event; a deadline equal to the event's
        # cycle stays armed -- completions landing on the deadline cycle
        # are in time, matching both simulators.
        self._advance(cycle)
        if self.log.degraded:
            self._feed_seconds += time.perf_counter() - t0
            return
        index = self.log.events
        self.log.events += 1
        tracer = _OBS.tracer
        if tracer.enabled:
            tracer.count("runtime.events")
            tracer.event("runtime.event", anchor=anchor, cycle=cycle)
        if anchor in self.log.done:
            # A pulse after done is electrically invisible (the latch is
            # already set); mirror the simulators and absorb it.
            self.log.duplicates += 1
            self._feed_seconds += time.perf_counter() - t0
            return
        issued = self.log.issues.get(anchor)
        if issued is None or cycle < issued or (pulse and cycle == issued):
            # The done latch is only armed after start: a pulse for an
            # idle anchor is detectably bogus and dropped.
            self.log.spurious_rejections += 1
            self._feed_seconds += time.perf_counter() - t0
            return
        # Accept the completion, then issue what it unblocks.
        self._deadlines.pop(anchor, None)
        self.log.done[anchor] = cycle
        self.log.cycles = max(self.log.cycles, cycle)
        self._done[anchor] = cycle
        self._issue_ready(index)
        self._feed_seconds += time.perf_counter() - t0

    def run(self, events: Iterable[CompletionEvent]) -> ExecutionLog:
        """Feed a whole stream, then :meth:`close`."""
        for event in events:
            if not self.active:
                break
            self.feed(event)
        return self.close()

    def close(self) -> ExecutionLog:
        """End of stream: route missing completions through the
        watchdogs, then seal and return the log.

        Idempotent.  With operations still unissued, every armed
        watchdog fires (re-arming per policy until recovery is
        impossible), so a missing completion ends in an abort, a
        degradation, or -- unmonitored -- a ``stalled`` entry in the log.
        """
        if self._closed:
            return self.log
        if not self.log.degraded and self._pending:
            self._advance(None)
        if not self.log.degraded:
            self.log.stalled = [
                a for a in self.log.issues
                if a in self._anchors and a != self._source
                and a not in self.log.done]
            self.log.unissued = list(self._pending)
        self._closed = True
        tracer = _OBS.tracer
        if tracer.enabled and self.log.events:
            seconds = max(self._feed_seconds, 1e-9)
            tracer.add_time("runtime.feed", self._feed_seconds)
            tracer.event("runtime.throughput", events=self.log.events,
                         events_per_sec=round(self.log.events / seconds, 1))
        return self.log

    # -- internals -----------------------------------------------------

    def _issue_ready(self, event_index: int) -> None:
        """Issue every operation whose anchors have all completed.

        Readiness and issue cycles come from the *static* offsets --
        the paper's runtime rule ``T(v) = max(done(a) + sigma_a(v))``
        over the original anchor sets, exact for every profile.  The
        rebound schedule cannot serve here: binding the last anchor of
        a vertex that has no forward path from the source (legal in a
        well-posed but non-polar graph) leaves it an empty offsets row,
        and the relative representation has no anchor left to carry
        its now-absolute start.
        """
        offsets = self.static.offsets
        done = self._done
        still: List[str] = []
        for vertex in self._pending:
            terms = offsets.get(vertex, {})
            if all(a in done for a in terms):
                start = max((done[a] + sigma for a, sigma in terms.items()),
                            default=0)
                self._commit(vertex, start, event_index)
            else:
                still.append(vertex)
        self._pending = still
        if not self._pending and self._deadlines:
            # Every start is committed.  The per-cycle simulator keeps
            # checking watchdogs up to and including the cycle the last
            # operation starts, then returns -- so deadlines at or
            # before the last start still fire (an ABORT here matches
            # the simulator raising on its final cycle), while deadlines
            # beyond it are disarmed: a late completion cannot
            # retro-fire a watchdog the simulator never checked.
            self._advance(self._max_start + 1)
            if not self.log.degraded:
                self._deadlines.clear()

    def _commit(self, vertex: str, start: int, event_index: int) -> None:
        self.log.issues[vertex] = start
        self.log.issue_order.append(IssueRecord(vertex, start, event_index))
        self.log.cycles = max(self.log.cycles, start)
        self._max_start = max(self._max_start, start)
        delta = self._static_delta[vertex]
        if not is_unbounded(delta):
            self.log.done[vertex] = start + delta
            self.log.cycles = max(self.log.cycles, start + delta)
        elif self.watchdog is not None:
            bound = self.watchdog.bound_for(vertex)
            if bound is not None:
                self._deadlines[vertex] = start + bound
                self._arm_seq[vertex] = self._armed
                self._armed += 1
        tracer = _OBS.tracer
        if tracer.enabled:
            tracer.count("runtime.issues")

    def _advance(self, limit: Optional[int]) -> None:
        """Fire armed watchdogs with deadlines before *limit* (all of
        them when None), earliest deadline first, arming order on ties
        -- the same order the per-cycle simulator check visits them."""
        watchdog = self.watchdog
        while self._deadlines:
            anchor, deadline = min(
                self._deadlines.items(),
                key=lambda item: (item[1], self._arm_seq[item[0]]))
            if limit is not None and deadline >= limit:
                return
            spent = self.log.rearms.get(anchor, 0)
            base = watchdog.bound_for(anchor)
            window = watchdog.rearm_window(base, spent)
            self.log.timeouts.append(
                WatchdogTimeout(anchor, deadline, window, spent))
            self.log.cycles = max(self.log.cycles, deadline)
            tracer = _OBS.tracer
            if tracer.enabled:
                tracer.count("runtime.timeouts")
                tracer.event("runtime.timeout", anchor=anchor,
                             cycle=deadline, rearm=spent)
            if (watchdog.policy is WatchdogPolicy.RETRY
                    and spent < watchdog.max_rearms):
                self.log.rearms[anchor] = spent + 1
                next_window = watchdog.rearm_window(base, spent + 1)
                self._deadlines[anchor] = deadline + max(1, next_window)
                continue
            if watchdog.policy is WatchdogPolicy.FALLBACK:
                self._degrade(deadline)
                return
            self._closed = True
            raise WatchdogTimeoutError(
                f"watchdog timeout: anchor {anchor!r} still running "
                f"{deadline - self.log.issues[anchor]} cycles after start "
                f"(bound W={base}, re-arms spent {spent})",
                anchor=anchor, bound=base, cycle=deadline, rearms=spent)

    def _degrade(self, cycle: int) -> None:
        """FALLBACK: the static worst-case schedule, budgeted at W."""
        from repro.baselines.worst_case import worst_case_schedule

        graph = self.static.graph
        budget = self.watchdog.budget()
        outcome = worst_case_schedule(graph, budget)
        # The simulator's degrade keeps the dynamic stall set (started
        # by the fire cycle, done never seen); completions the executor
        # has not received yet necessarily count as stalled here.
        stalled_pre = [v for v, s in self.log.issues.items()
                       if s <= cycle and v not in self.log.done]
        self.log.issues = dict(outcome.start_times)
        static_done = {}
        for vertex in graph.vertex_names():
            delta = graph.delta(vertex)
            static_delay = budget if is_unbounded(delta) else delta
            static_done[vertex] = outcome.start_times[vertex] + static_delay
        self.log.done = static_done
        self.log.degraded = True
        self.log.stalled = stalled_pre
        self.log.unissued = []
        self.log.cycles = max(self.log.cycles, cycle)
        self._pending = []
        self._deadlines.clear()
        tracer = _OBS.tracer
        if tracer.enabled:
            tracer.event("runtime.degraded", cycle=cycle)

    # -- construction helpers ------------------------------------------

    @classmethod
    def from_graph(cls, graph: "ConstraintGraph", *,
                   cache: "Optional[Union[ScheduleCache, str]]" = None,
                   budget: Any = None,
                   watchdog: Optional[WatchdogConfig] = None,
                   source_done: int = 0) -> "OnlineExecutor":
        """Schedule *graph* and execute it, sharing a result cache.

        With *cache* (a :class:`~repro.core.resultcache.ScheduleCache`
        or a path), the static schedule comes through
        :func:`~repro.core.batch.schedule_many` -- a warm cache skips
        the solve entirely, and the executor flushes the cache's staged
        entries at :meth:`close_cache` time so a crash mid-stream never
        tears the shared file.
        """
        if cache is not None:
            from repro.core.batch import schedule_many

            run = schedule_many([graph], cache=cache, budget=budget)
            schedule = run[0].unpack()
        else:
            from repro.resilience.guard import guarded_schedule

            schedule = guarded_schedule(graph, budget)
        executor = cls(schedule, watchdog=watchdog, source_done=source_done)
        executor._cache = cache
        return executor

    _cache = None

    def close_cache(self) -> ExecutionLog:
        """:meth:`close`, then flush the shared schedule cache (if any)."""
        log = self.close()
        cache = self._cache
        if cache is not None and hasattr(cache, "flush"):
            cache.flush()
        return log


def execute_stream(schedule: RelativeSchedule,
                   events: Iterable[Tuple[str, int]], *,
                   watchdog: Optional[WatchdogConfig] = None,
                   source_done: int = 0) -> ExecutionLog:
    """One-shot convenience: run ``(anchor, cycle)`` pairs to a log."""
    executor = OnlineExecutor(schedule, watchdog=watchdog,
                              source_done=source_done)
    return executor.run(CompletionEvent(anchor, cycle)
                        for anchor, cycle in events)
