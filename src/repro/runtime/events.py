"""Event and log types for the online executor.

A *completion event* is the runtime's unit of input: anchor ``a``'s
``done`` signal observed at an absolute cycle.  The executor consumes an
ordered stream of them and produces an *issue log*: the cycle at which
every operation's start was committed.  Both types are plain data so
they serialize trivially over the service wire (``/execute``) and into
the chaos campaign's reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.watchdog import WatchdogTimeout


@dataclass(frozen=True)
class CompletionEvent:
    """Anchor *anchor*'s ``done`` observed at absolute cycle *cycle*."""

    anchor: str
    cycle: int


@dataclass(frozen=True)
class IssueRecord:
    """One committed operation start.

    Attributes:
        op: the operation issued.
        cycle: the absolute start cycle committed for it.
        event_index: index of the completion event whose processing made
            the operation ready (-1 for operations issuable before any
            event, i.e. gated only by the source).
    """

    op: str
    cycle: int
    event_index: int = -1


@dataclass
class ExecutionLog:
    """Outcome of one executor run (mirrors ``ControlSimResult``).

    Attributes:
        issues: committed start cycle of every issued operation.
        done: completion cycle of every completed operation (anchors
            from their events, bounded operations at start + delay).
        issue_order: every issue in commit order, with the event that
            triggered it -- the per-prefix record the anomaly-freedom
            oracle replays.
        events: completion events consumed (spurious ones included).
        reschedules: always 0 -- the executor issues from the static
            offsets and never reschedules; kept because ``/execute`` and
            ``/sessions`` clients read the key.
        timeouts: watchdog firings, in cycle order.
        degraded: True when a FALLBACK watchdog replaced the relative
            execution with the static worst-case schedule.
        stalled: anchors issued but never completed by stream end.
        unissued: operations never issued (gated by a stalled anchor).
        spurious_rejections: events rejected because their anchor had
            not started (the done latch arms at start).
        duplicates: events for already-completed anchors (absorbed
            silently, like a pulse after ``done`` in the simulators).
        rearms: per-anchor RETRY re-arm windows spent.
        cycles: the largest cycle the run committed (issue, done or
            watchdog firing).
    """

    issues: Dict[str, int] = field(default_factory=dict)
    done: Dict[str, int] = field(default_factory=dict)
    issue_order: List[IssueRecord] = field(default_factory=list)
    events: int = 0
    reschedules: int = 0
    timeouts: List[WatchdogTimeout] = field(default_factory=list)
    degraded: bool = False
    stalled: List[str] = field(default_factory=list)
    unissued: List[str] = field(default_factory=list)
    spurious_rejections: int = 0
    duplicates: int = 0
    rearms: Dict[str, int] = field(default_factory=dict)
    cycles: int = 0

    @property
    def complete(self) -> bool:
        """True when every operation was issued (no stalled gate)."""
        return not self.unissued

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready document (the ``/execute`` response body)."""
        return {
            "issues": dict(self.issues),
            "done": dict(self.done),
            "issue_order": [
                {"op": r.op, "cycle": r.cycle, "event": r.event_index}
                for r in self.issue_order],
            "events": self.events,
            "reschedules": self.reschedules,
            "timeouts": [
                {"anchor": t.anchor, "cycle": t.cycle,
                 "bound": t.bound, "rearm": t.rearm}
                for t in self.timeouts],
            "degraded": self.degraded,
            "stalled": list(self.stalled),
            "unissued": list(self.unissued),
            "spurious_rejections": self.spurious_rejections,
            "duplicates": self.duplicates,
            "rearms": dict(self.rearms),
            "complete": self.complete,
            "cycles": self.cycles,
        }
