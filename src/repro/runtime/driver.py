"""Drive the online executor from delay profiles and fault plans.

The executor consumes completion events; something has to put them on
the wire.  This module closes the loop three ways:

* :func:`events_from_result` -- lift a finished control simulation's
  done times into the event stream a live environment would have
  emitted (the replay path for recorded runs);
* :func:`static_completion_events` -- the fault-free stream an honest
  environment emits for a delay profile: every anchor completes at its
  static start plus its delay;
* :func:`drive` -- synthesize the wire *causally*: each anchor's
  completion pulse is scheduled the moment the executor commits its
  start, at ``start + delay`` perturbed by an optional
  :class:`~repro.resilience.faults.FaultPlan` (late / early / dropped /
  stalled completions, spurious pulses).  This is the honest runtime
  harness -- it needs no oracle simulation to know the pulse times, so
  it also covers runs the simulator would abort or degrade.

:func:`replay_faults` runs both sides -- the cycle-accurate
:func:`~repro.resilience.faults.run_with_faults` simulation and the
event-driven executor -- on the same environment and diffs them field
by field.  The two implementations share nothing but the watchdog
window arithmetic, so agreement is strong evidence both got the
boundary semantics right; the runtime chaos campaign
(:mod:`repro.resilience.chaos`) fails on any mismatch.

Tie-breaking matters: a spurious pulse landing on the same cycle as a
genuine completion is processed *first*, because the simulator injects
pulses at the top of the cycle, before the start fixpoint runs.  The
heap ordering below encodes exactly that.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Set, Tuple

if TYPE_CHECKING:
    from repro.sim.control_sim import ControlSimResult

from repro.core.delay import is_stalled
from repro.core.exceptions import WatchdogTimeoutError
from repro.core.schedule import RelativeSchedule
from repro.core.watchdog import WatchdogConfig
from repro.resilience.faults import FaultPlan, FaultRun, run_with_faults
from repro.runtime.events import CompletionEvent, ExecutionLog
from repro.runtime.executor import OnlineExecutor

#: Heap priority of injected spurious pulses vs genuine completions on
#: the same cycle (the simulator processes injections first).
_SPURIOUS, _GENUINE = 0, 1


def events_from_result(schedule: RelativeSchedule,
                       result: "ControlSimResult") -> List[CompletionEvent]:
    """The completion stream a finished simulation's environment emitted.

    One event per non-source anchor that completed, at its recorded done
    cycle, in cycle order.  Same-cycle ties are broken by forward
    topological position: when an anchor and an operation it gates both
    finish on one cycle, the gating anchor's event must arrive first or
    the dependent's completion would precede its own (not yet committed)
    start and be rejected as spurious.  Only meaningful for non-degraded
    results -- a degraded simulation's done times are the static
    fallback, not observations.
    """
    return [CompletionEvent(anchor, cycle) for anchor, cycle
            in _stream_order(schedule, result.done_times)]


def static_completion_events(schedule: RelativeSchedule,
                             profile: Mapping[str, int]
                             ) -> List[Tuple[str, int]]:
    """The complete stream an environment honouring *profile* emits.

    Every non-source anchor completes at its static start plus its
    delay, ``start_times(profile)[a] + profile[a]`` (a missing delay
    is 0), as ``(anchor, cycle)`` pairs -- the wire shape of journal
    records and session batches -- ordered as in
    :func:`events_from_result`.
    """
    start = schedule.start_times(profile)
    return _stream_order(schedule, {a: start[a] + profile.get(a, 0)
                                    for a in schedule.graph.anchors})


def _stream_order(schedule: RelativeSchedule,
                  done: Mapping[str, int]) -> List[Tuple[str, int]]:
    """``(anchor, cycle)`` for each non-source anchor in *done*, in
    cycle order, same-cycle ties in forward topological order."""
    source = schedule.graph.source
    order = {name: position for position, name
             in enumerate(schedule.graph.forward_topological_order())}
    triples = sorted((done[a], order[a], a) for a in schedule.graph.anchors
                     if a != source and a in done)
    return [(anchor, cycle) for cycle, _, anchor in triples]


def drive(schedule: RelativeSchedule,
          profile: Optional[Mapping[str, int]] = None,
          plan: Optional[FaultPlan] = None, *,
          watchdog: Optional[WatchdogConfig] = None,
          source_done: int = 0) -> ExecutionLog:
    """Execute *schedule* online against a synthesized environment.

    Every anchor's completion pulse is scheduled causally from its
    committed start (``start + profile delay``, perturbed by *plan*),
    so no oracle run is needed.  Raises
    :class:`~repro.core.exceptions.WatchdogTimeoutError` exactly when
    the simulators would (ABORT firings, exhausted RETRY windows).
    """
    profile = dict(profile or {})
    plan = plan or FaultPlan()
    override = plan.completion_override()
    executor = OnlineExecutor(schedule, watchdog=watchdog,
                              source_done=source_done)
    source = schedule.graph.source

    heap: List[Tuple[int, int, int, str]] = []
    seq = 0
    for anchor, cycle in sorted(plan.spurious_pulses().items()):
        heapq.heappush(heap, (cycle, _SPURIOUS, seq, anchor))
        seq += 1

    scheduled: Set[str] = set()

    def schedule_completions() -> None:
        """Put pulses on the wire for freshly issued anchors."""
        nonlocal seq
        for anchor in executor.log.issues:
            if (anchor in scheduled or anchor == source
                    or anchor not in executor._anchors):
                continue
            scheduled.add(anchor)
            start = executor.log.issues[anchor]
            delay = profile.get(anchor, 0)
            nominal = None if is_stalled(delay) else start + delay
            actual = override(anchor, start, nominal) if override else nominal
            if actual is not None:
                heapq.heappush(heap,
                               (max(start, actual), _GENUINE, seq, anchor))
                seq += 1

    schedule_completions()
    while heap and executor.active:
        cycle, kind, _, anchor = heapq.heappop(heap)
        executor.feed(CompletionEvent(anchor, cycle), pulse=kind == _SPURIOUS)
        schedule_completions()
    return executor.close()


@dataclass
class RuntimeReplay:
    """One environment executed by both implementations, diffed.

    Attributes:
        sim: the cycle-accurate simulation's classified outcome.
        log: the executor's log (None only when it aborted).
        error: the taxonomy error that aborted the executor, if any.
        mismatches: field-by-field divergences between the two; an
            equivalent replay has none.
    """

    sim: FaultRun
    log: Optional[ExecutionLog] = None
    error: Optional[WatchdogTimeoutError] = None
    mismatches: List[str] = field(default_factory=list)

    @property
    def equivalent(self) -> bool:
        return not self.mismatches


def replay_faults(schedule: RelativeSchedule,
                  profile: Optional[Mapping[str, int]] = None,
                  plan: Optional[FaultPlan] = None, *,
                  watchdog: Optional[WatchdogConfig] = None,
                  style: str = "counter",
                  max_cycles: int = 100000) -> RuntimeReplay:
    """Run simulator and executor on one environment and diff them.

    The comparison is exact where the semantics promise it:

    * both abort -> same anchor, fire cycle and spent re-arms;
    * both degrade -> same static start/done times and timeout records;
    * both complete -> identical start times, done times, timeout
      records, re-arm counts and spurious-rejection counts.

    The only tolerated asymmetry is a simulator *hang* (a stall with no
    watchdog): the event-driven executor cannot hang -- it closes with
    the stall recorded -- so a hung simulation only requires the
    executor's log to be incomplete.
    """
    sim = run_with_faults(schedule, profile, plan, watchdog=watchdog,
                          style=style, max_cycles=max_cycles)
    replay = RuntimeReplay(sim=sim)
    try:
        replay.log = drive(schedule, profile, plan, watchdog=watchdog)
    except WatchdogTimeoutError as error:
        replay.error = error
    _diff(replay)
    return replay


def _diff(replay: RuntimeReplay) -> None:
    sim, log, error = replay.sim, replay.log, replay.error
    out = replay.mismatches

    if sim.error is not None:
        if error is None:
            out.append(f"simulator aborted ({sim.error.anchor!r} at cycle "
                       f"{sim.error.cycle}) but the executor did not")
        else:
            for attr in ("anchor", "cycle", "rearms"):
                lhs, rhs = getattr(sim.error, attr), getattr(error, attr)
                if lhs != rhs:
                    out.append(f"abort {attr}: sim {lhs!r} != runtime {rhs!r}")
        return
    if error is not None:
        out.append(f"executor aborted ({error.anchor!r} at cycle "
                   f"{error.cycle}) but the simulator did not")
        return
    if sim.result is None:
        # The simulator hung (stall, no watchdog); the executor closed.
        if log.complete and not log.stalled:
            out.append("simulator hung but the executor log is complete")
        return

    result = sim.result
    if result.degraded != log.degraded:
        out.append(f"degraded: sim {result.degraded} != runtime {log.degraded}")
        return
    _diff_times("start", result.start_times, log.issues, out)
    _diff_times("done", result.done_times, log.done, out)
    if result.timeouts != log.timeouts:
        out.append(f"timeouts: sim {result.timeouts} != "
                   f"runtime {log.timeouts}")
    if dict(result.rearms) != dict(log.rearms):
        out.append(f"rearms: sim {result.rearms} != runtime {log.rearms}")
    if result.spurious_rejections != log.spurious_rejections:
        out.append(f"spurious rejections: sim {result.spurious_rejections} "
                   f"!= runtime {log.spurious_rejections}")
    if not result.degraded and sorted(result.stalled) != sorted(log.stalled):
        out.append(f"stalled: sim {sorted(result.stalled)} != "
                   f"runtime {sorted(log.stalled)}")


def _diff_times(what: str, sim_times: Dict[str, int],
                run_times: Dict[str, int], out: List[str]) -> None:
    for vertex in sorted(set(sim_times) | set(run_times)):
        lhs, rhs = sim_times.get(vertex), run_times.get(vertex)
        if lhs != rhs:
            out.append(f"{what}[{vertex!r}]: sim {lhs} != runtime {rhs}")
