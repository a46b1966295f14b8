"""Online dynamic execution of relative schedules.

The paper proves a minimum relative schedule is valid for *every*
anchor-delay profile; this package cashes that in at run time.  An
:class:`~repro.runtime.executor.OnlineExecutor` consumes an ordered
stream of anchor-completion events and solves nothing while doing so:
every operation's start is committed from the static offsets the
moment its anchors have completed, at exactly the cycle the static
schedule's ``start_times`` would give for the observed profile (the
*anomaly-freedom* invariant, pinned by the qa oracle's 13th check).
The rebound schedule, with the observed delays folded into the graph,
is computed only on demand (``OnlineExecutor.schedule``).

Late or missing completions route through the watchdog machinery with
cycle-accurate simulator semantics; :mod:`repro.runtime.driver`
replays fault plans as event streams and diffs the executor against
the control-unit simulation, and :mod:`repro.runtime.chaos` runs that
differential at campaign scale.
"""

from repro.runtime.driver import (
    RuntimeReplay,
    drive,
    events_from_result,
    replay_faults,
)
from repro.runtime.events import CompletionEvent, ExecutionLog, IssueRecord
from repro.runtime.executor import OnlineExecutor, execute_stream
from repro.runtime.journal import (
    BatchOutcome,
    JournalState,
    SessionJournal,
    apply_batch,
    read_journal,
    replay_journal,
    scan_journal_dir,
    validate_batch,
)
from repro.runtime.profiles import PROFILE_FAMILIES, sample_profile

__all__ = [
    "BatchOutcome",
    "CompletionEvent",
    "ExecutionLog",
    "IssueRecord",
    "JournalState",
    "OnlineExecutor",
    "PROFILE_FAMILIES",
    "RuntimeReplay",
    "SessionJournal",
    "apply_batch",
    "drive",
    "events_from_result",
    "execute_stream",
    "read_journal",
    "replay_faults",
    "replay_journal",
    "sample_profile",
    "scan_journal_dir",
    "validate_batch",
]
