"""Per-session write-ahead event journals: durable executor streams.

The paper's runtime rule ``T(v) = max(done(a) + sigma_a(v))`` makes the
executor's entire state a pure function of the ordered completion
prefix -- the property the anomaly-freedom oracle (PR 8) proved and
this module exploits: an :class:`~repro.runtime.executor.OnlineExecutor`
is fully recoverable by replaying its event log through a fresh
executor.  A crash-killed process therefore only needs each session's
*acknowledged prefix* on disk to come back bit-identical.

The journal is append-only JSON Lines, one self-contained record per
line, reusing the :class:`~repro.core.resultcache.ScheduleCache` append
discipline: every record goes out as **one** ``os.write`` on an
``O_APPEND`` descriptor under an exclusive ``fcntl`` lock (where the
platform has one), so concurrent writers -- other threads, other server
processes sharing a journal directory -- append whole lines, never
spliced fragments.  Three record types:

* ``open`` -- the session's full genesis: serialized graph, anchor
  mode, watchdog config, ``source_done`` and well-posing flag.  Replay
  re-schedules the graph (deterministic) rather than persisting
  offsets, the same checkpoint-and-replay discipline feedback-guided
  iterative scheduling assumes for warm ``run_from`` restarts;
* ``events`` -- one acknowledged batch: the client-assigned sequence
  number (contiguous from 1) plus its ``[anchor, cycle]`` pairs.  The
  record is appended -- and, per the fsync policy, made durable --
  **before** the batch is applied and acknowledged, so the write-ahead
  invariant holds: everything acknowledged is on disk;
* ``seal`` -- the session closed cleanly; recovery scans skip it.

Reading follows the PR-4 untrusted-input rules with one twist: a
journal is a *prefix log*, not a key-value bag, so validation stops at
the first bad line rather than dropping it.  A torn tail (power loss
mid-append) degrades to "the last batch was never acknowledged" --
which is exactly true, because acknowledgement follows the append --
and never to corrupt state.  Mid-file garbage, sequence gaps and
duplicate sequence numbers all end the trusted prefix the same way.

The fsync policy is configurable per journal:

* ``"always"`` (default) -- ``os.fsync`` after every append, and of
  the journal directory once after the genesis record: a crash loses
  nothing acknowledged, at ~one disk flush per batch;
* ``"never"`` -- leave durability to the OS page cache: an OS-level
  crash may lose recently acknowledged batches (a *process* crash
  loses nothing), at in-memory append cost.  :meth:`SessionJournal.sync`
  forces a flush regardless -- the graceful-drain path calls it on
  every live journal before exiting.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

if TYPE_CHECKING:
    from repro.runtime.executor import OnlineExecutor

from repro.sanitize import make_lock

try:  # pragma: no cover - platform-dependent
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

#: ``os.O_DIRECTORY`` where the platform has it (the directory sync).
_O_DIRECTORY = getattr(os, "O_DIRECTORY", None)

#: Journal record schema version; bump to orphan all persisted journals.
JOURNAL_FORMAT = 1

#: File suffix for session journals inside a journal directory.
JOURNAL_SUFFIX = ".journal"

#: The fsync policies :class:`SessionJournal` accepts.
FSYNC_POLICIES = ("always", "never")

#: One compact encoder for every record (``json.dumps`` with separators
#: builds a new encoder per call).
_encode = json.JSONEncoder(separators=(",", ":")).encode

#: Hard caps mirroring the untrusted-input limits: a hostile journal
#: must not balloon memory by declaring huge batches.
_MAX_BATCH_EVENTS = 1 << 20
_MAX_CYCLE = 1 << 53  # matches repro.io.MAX_ABS_WEIGHT


class JournalWriteError(OSError):
    """The journal append could not be made durable (full disk,
    revoked permissions).  The batch must NOT be acknowledged."""


@dataclass
class JournalState:
    """Everything a recovery scan learned from one journal file.

    Attributes:
        open_record: the validated ``open`` record, or None when the
            file has no trusted genesis (unrecoverable).
        batches: the acknowledged prefix, in sequence order -- every
            ``(seq, events)`` pair whose record survived validation.
        sealed: True when a ``seal`` record closed the session cleanly.
        torn_tail: True when the final line was damaged (torn append);
            the line is treated as never acknowledged.
        rejected_lines: lines that ended the trusted prefix early
            (mid-file garbage, sequence gaps, duplicates).
        trusted_bytes: byte length of the trusted prefix -- resuming a
            journal truncates here first, so a torn fragment can never
            splice itself into the next acknowledged append.
    """

    open_record: Optional[Dict[str, Any]] = None
    batches: List[Tuple[int, List[Tuple[str, int]]]] = field(
        default_factory=list)
    sealed: bool = False
    torn_tail: bool = False
    rejected_lines: int = 0
    trusted_bytes: int = 0

    @property
    def last_seq(self) -> int:
        """The highest acknowledged sequence number (0 when none)."""
        return self.batches[-1][0] if self.batches else 0

    @property
    def recoverable(self) -> bool:
        """True when the journal can seed a live session again."""
        return self.open_record is not None and not self.sealed


class SessionJournal:
    """The write-ahead journal of one executor session.

    Args:
        path: the backing JSONL file.
        fsync: ``"always"`` or ``"never"`` (see module docs).

    A journal object is thread-safe; the session layer additionally
    serializes batches per session, so appends for one session are
    naturally ordered.
    """

    def __init__(self, path: Union[str, Path], *,
                 fsync: str = "always") -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"unknown fsync policy {fsync!r} "
                             f"(expected one of {FSYNC_POLICIES})")
        self.path = Path(path)
        self.fsync = fsync
        # io_ok: this lock IS the append-ordering discipline; the
        # flock/write/fsync under it is the durability contract (see
        # DESIGN.md section 15 on sanitizer false positives).
        self._lock = make_lock("journal.append", io_ok=True)
        self.appends = 0
        # The O_APPEND descriptor, opened by the first append and held
        # until seal, close, sync or a failed append.
        self._fd: Optional[int] = None
        # Set when a failed append could not be rolled back from the
        # file: every later append is refused (see _append).
        self._poisoned: Optional[str] = None

    def __del__(self) -> None:
        # A journal dropped while it holds its descriptor (a request
        # that raced its session's eviction) still gives it back.
        fd = getattr(self, "_fd", None)
        if fd is not None:
            try:
                os.close(fd)
            except OSError:  # pragma: no cover - already gone
                pass

    # -- the write path ------------------------------------------------

    def append_open(self, session_id: str, graph_dict: Dict[str, Any], *,
                    mode: str, watchdog: Optional[Dict[str, Any]],
                    source_done: int, auto_well_pose: bool) -> None:
        """Write the genesis record (must be the journal's first line)."""
        self._append({
            "type": "open",
            "format": JOURNAL_FORMAT,
            "session": session_id,
            "graph": graph_dict,
            "mode": mode,
            "watchdog": watchdog,
            "source_done": source_done,
            "auto_well_pose": auto_well_pose,
        }, genesis=True)

    def append_events(self, seq: int,
                      events: List[Tuple[str, int]]) -> None:
        """Write one acknowledged batch record (before applying it)."""
        self._append({
            "type": "events",
            "seq": seq,
            "events": [[anchor, cycle] for anchor, cycle in events],
        })

    def append_seal(self, last_seq: int) -> None:
        """Mark the session cleanly closed; always fsynced.  Releases
        the descriptor: a sealed journal takes no further records."""
        self._append({"type": "seal", "last_seq": last_seq}, force_sync=True)
        self.close()

    def sync(self) -> None:
        """Force the journal to disk regardless of the fsync policy and
        release its descriptor (eviction and the graceful drain)."""
        with self._lock:
            fd, self._fd = self._fd, None
            if fd is None:
                try:
                    fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
                except OSError:
                    return
            try:
                os.fsync(fd)
            except OSError:  # pragma: no cover - racy platform failures
                pass
            finally:
                os.close(fd)

    def close(self) -> None:
        """Release the held descriptor (no flush); a later append opens
        a new one."""
        with self._lock:
            fd, self._fd = self._fd, None
            if fd is not None:
                os.close(fd)

    def _append(self, record: Dict[str, Any], *,
                force_sync: bool = False, genesis: bool = False) -> None:
        """One whole-line durable append (the ScheduleCache discipline).

        The first append opens the journal's ``O_APPEND`` descriptor
        and later ones reuse it, so an append costs ``flock, write,
        fsync, unlock``.  Only the *genesis* record creates the
        journal's directory and file; every later record appends to a
        file that already lives there.  A durable genesis also fsyncs
        the directory, once: the file's fsync does not cover the new
        entry that names it, so without it a power loss could lose a
        session whose creation was acknowledged.

        A failed or short write raises :class:`JournalWriteError`: the
        caller must not acknowledge the batch.  Unlike the schedule
        cache -- where persistence is an optimization and failures
        degrade to memory -- the journal IS the durability contract.
        So a failed append also leaves no trace a recovery could read
        as acknowledged: still under the flock, the file is truncated
        back to its size before the write (the size now, less the bytes
        this append wrote), and the descriptor is released.  A failed
        fsync cannot be retried into success (the kernel may already
        have dropped the dirty pages), so it also poisons the journal,
        as does a rollback that itself fails; a poisoned journal
        refuses every later append.
        """
        payload = (_encode(record) + "\n").encode("utf-8")
        with self._lock:
            if self._poisoned is not None:
                raise JournalWriteError(
                    f"journal {self.path} is poisoned by an earlier "
                    f"failed append: {self._poisoned}")
            try:
                fd = self._fd
                if fd is None:
                    if genesis:
                        self.path.parent.mkdir(parents=True, exist_ok=True)
                    fd = self._fd = os.open(
                        self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                        0o644)
                try:
                    if fcntl is not None:
                        fcntl.flock(fd, fcntl.LOCK_EX)
                    try:
                        written = 0
                        stage = "write"
                        try:
                            view = memoryview(payload)
                            while view:  # a short write would tear a line
                                count = os.write(fd, view)
                                written += count
                                view = view[count:]
                            if force_sync or self.fsync == "always":
                                stage = "fsync"
                                os.fsync(fd)
                                if genesis:
                                    _sync_directory(self.path.parent)
                        except OSError as error:
                            self._roll_back(fd, written, stage, error)
                            raise
                    finally:
                        if fcntl is not None:
                            fcntl.flock(fd, fcntl.LOCK_UN)
                except OSError:
                    self._fd = None
                    os.close(fd)
                    raise
            except OSError as error:
                raise JournalWriteError(
                    f"journal append to {self.path} failed: {error}"
                ) from error
            self.appends += 1

    def _roll_back(self, fd: int, written: int, stage: str,
                   error: OSError) -> None:
        """Truncate a failed append's *written* bytes off the file;
        poison the journal when the fsync or the truncation failed."""
        if stage == "fsync":
            self._poisoned = f"fsync failed ({error})"
        try:
            os.ftruncate(fd, os.fstat(fd).st_size - written)
        except OSError as rollback:
            self._poisoned = (f"{stage} failed ({error}), then "
                              f"rollback failed ({rollback})")


def _sync_directory(path: Path) -> None:
    """fsync the directory *path*, making the entries created in it
    durable (POSIX only: elsewhere a directory cannot be opened)."""
    if _O_DIRECTORY is None:  # pragma: no cover - non-POSIX platforms
        return
    fd = os.open(path, os.O_RDONLY | _O_DIRECTORY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# the read / recovery path
# ----------------------------------------------------------------------


def read_journal(path: Union[str, Path]) -> JournalState:
    """Scan one journal file into its trusted prefix.

    Never raises on file content: every failure mode -- torn tail,
    binary garbage, sequence gaps, duplicate sequence numbers, a
    missing genesis -- degrades to a shorter (possibly empty) trusted
    prefix, exactly the "not yet acknowledged" semantics the
    write-ahead ordering guarantees is safe.
    """
    state = JournalState()
    try:
        raw = Path(path).read_bytes()
    except OSError:
        return state
    if not raw:
        return state
    lines = raw.split(b"\n")
    # A file ending exactly at a record boundary splits into lines plus
    # one empty tail.  Anything else in the final slot is a torn append
    # -- even when it happens to parse (the newline is part of the
    # single acknowledged write, so its absence means the write never
    # completed and the record was never acknowledged).
    tail = lines.pop()
    ended_early = False
    for index, line in enumerate(lines):
        record = _validated_record(line)
        if record is None or not _apply_record(state, record):
            # A prefix log: nothing after the first bad line is trusted.
            state.rejected_lines += (len(lines) - index
                                     + (1 if tail else 0))
            ended_early = True
            break
        state.trusted_bytes += len(line) + 1
        if state.sealed:
            # Records after a seal are not ours to trust.
            state.rejected_lines += (len(lines) - index - 1
                                     + (1 if tail else 0))
            ended_early = True
            break
    if tail and not ended_early:
        state.torn_tail = True
    return state


def truncate_to_trusted(path: Union[str, Path],
                        state: JournalState) -> None:
    """Cut a journal back to its trusted prefix before resuming it.

    Required before any post-recovery append: a torn fragment left at
    the tail would otherwise splice itself onto the next record,
    turning one unacknowledged line into a mid-file garbage line that
    ends the trusted prefix *before* later acknowledged batches.
    Dropping the tail is safe by the write-ahead ordering -- nothing
    past ``trusted_bytes`` was ever acknowledged.
    """
    if not (state.torn_tail or state.rejected_lines):
        return
    try:
        fd = os.open(path, os.O_RDWR)
    except OSError:
        return
    try:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        try:
            os.ftruncate(fd, state.trusted_bytes)
            os.fsync(fd)
        finally:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_UN)
    except OSError:  # pragma: no cover - racy platform failures
        pass
    finally:
        os.close(fd)


def _validated_record(line: bytes) -> Optional[Dict[str, Any]]:
    """Parse and shape-check one journal line; None to distrust it."""
    try:
        record = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    if not isinstance(record, dict):
        return None
    kind = record.get("type")
    if kind == "open":
        if record.get("format") != JOURNAL_FORMAT:
            return None
        if not isinstance(record.get("session"), str):
            return None
        if not isinstance(record.get("graph"), dict):
            return None
        if not isinstance(record.get("mode"), str):
            return None
        watchdog = record.get("watchdog")
        if watchdog is not None and not isinstance(watchdog, dict):
            return None
        source_done = record.get("source_done")
        if isinstance(source_done, bool) or not isinstance(source_done, int) \
                or source_done < 0:
            return None
        if not isinstance(record.get("auto_well_pose"), bool):
            return None
        return record
    if kind == "events":
        seq = record.get("seq")
        if isinstance(seq, bool) or not isinstance(seq, int) or seq < 1:
            return None
        events = record.get("events")
        if not isinstance(events, list) or len(events) > _MAX_BATCH_EVENTS:
            return None
        for item in events:
            if not isinstance(item, list) or len(item) != 2:
                return None
            anchor, cycle = item
            if not isinstance(anchor, str):
                return None
            if isinstance(cycle, bool) or not isinstance(cycle, int) \
                    or not 0 <= cycle <= _MAX_CYCLE:
                return None
        return record
    if kind == "seal":
        last_seq = record.get("last_seq")
        if isinstance(last_seq, bool) or not isinstance(last_seq, int) \
                or last_seq < 0:
            return None
        return record
    return None


def _apply_record(state: JournalState, record: Dict[str, Any]) -> bool:
    """Fold one validated record into *state*; False ends the prefix."""
    kind = record["type"]
    if kind == "open":
        if state.open_record is not None:
            return False  # a second genesis is garbage
        state.open_record = record
        return True
    if state.open_record is None:
        return False  # events before the genesis are untrusted
    if kind == "events":
        seq = record["seq"]
        if seq != state.last_seq + 1:
            # Gaps and duplicates both end the trusted prefix: a
            # duplicate means two writers raced, a gap means a record
            # was lost; neither prefix extension is safe to replay.
            return False
        state.batches.append(
            (seq, [(anchor, cycle) for anchor, cycle in record["events"]]))
        return True
    if kind == "seal":
        if record["last_seq"] != state.last_seq:
            return False
        state.sealed = True
        return True
    return False  # pragma: no cover - _validated_record gates kinds


def scan_journal_dir(journal_dir: Union[str, Path]
                     ) -> Dict[str, JournalState]:
    """Read every ``*.journal`` in *journal_dir*, keyed by session id.

    Only file stems that are plausible session ids (alphanumeric with
    dashes) are considered, so a hostile directory entry cannot smuggle
    path tricks into the session table.  Sealed and unrecoverable
    journals are returned too -- the caller decides (the session table
    resumes recoverable ones and answers 410 for sealed ones).
    """
    states: Dict[str, JournalState] = {}
    root = Path(journal_dir)
    try:
        paths = sorted(root.glob(f"*{JOURNAL_SUFFIX}"))
    except OSError:
        return states
    for path in paths:
        stem = path.name[:-len(JOURNAL_SUFFIX)]
        if valid_session_id(stem):
            states[stem] = read_journal(path)
    return states


def valid_session_id(name: str) -> bool:
    """True when *name* is a plausible session id: non-empty, and only
    letters, digits (Unicode ones included) and dashes, so no path
    separator or dot can reach a journal file name."""
    return name.replace("-", "0").isalnum()


def journal_path(journal_dir: Union[str, Path], session_id: str) -> Path:
    return Path(journal_dir) / f"{session_id}{JOURNAL_SUFFIX}"


# ----------------------------------------------------------------------
# deterministic replay
# ----------------------------------------------------------------------


@dataclass
class BatchOutcome:
    """What applying one acknowledged batch did to the executor.

    This is the *response* the service acknowledged the batch with
    (minus transport dressing), kept per sequence number so a re-POSTed
    batch -- an at-least-once client retrying a lost acknowledgement --
    receives the original answer.  Replay recomputes these outcomes
    deterministically, so the idempotency table survives a crash.

    Attributes:
        seq: the batch's sequence number.
        issues: operation starts committed *by this batch* (on a
            FALLBACK degradation, the full static start map).
        done: completion cycles recorded by this batch.
        timeouts: watchdog firings recorded by this batch (wire shape).
        degraded: executor state after the batch.
        complete: True once every operation has issued.
        cycles: the executor's high-water cycle after the batch.
        error: taxonomy error type when the batch aborted the session
            (WatchdogTimeoutError under ABORT / exhausted RETRY).
        error_message: the abort's human-readable message.
    """

    seq: int
    issues: Dict[str, int] = field(default_factory=dict)
    done: Dict[str, int] = field(default_factory=dict)
    timeouts: List[Dict[str, int]] = field(default_factory=list)
    degraded: bool = False
    complete: bool = False
    cycles: int = 0
    error: Optional[str] = None
    error_message: str = ""

    def to_dict(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "seq": self.seq,
            "issues": dict(self.issues),
            "done": dict(self.done),
            "timeouts": [dict(t) for t in self.timeouts],
            "degraded": self.degraded,
            "complete": self.complete,
            "cycles": self.cycles,
        }
        if self.error is not None:
            body["error"] = self.error_message
            body["error_type"] = self.error
        return body


def validate_batch(executor: "OnlineExecutor",
                   events: List[Tuple[str, int]]) -> None:
    """Pre-flight one batch against *executor*'s current stream state.

    Raises :class:`~repro.core.exceptions.MalformedInputError` exactly
    when :meth:`~repro.runtime.executor.OnlineExecutor.feed` would --
    unknown anchor, bad cycle, out-of-order stream -- but *before*
    anything is journaled or applied, so a rejected batch leaves both
    the journal and the executor untouched (no partial application).
    """
    from repro.core.exceptions import MalformedInputError

    clock = executor._stream_clock
    anchors = executor._anchors
    source = executor._source
    for anchor, cycle in events:
        if not isinstance(anchor, str) or anchor not in anchors \
                or anchor == source:
            raise MalformedInputError(
                f"completion event names {anchor!r}, which is not a "
                f"non-source anchor of the scheduled graph")
        if isinstance(cycle, bool) or not isinstance(cycle, int) or cycle < 0:
            raise MalformedInputError(
                f"completion cycle for {anchor!r} must be a non-negative "
                f"int, got {cycle!r}")
        if cycle < clock:
            raise MalformedInputError(
                f"event stream is not cycle-ordered: {anchor!r} at cycle "
                f"{cycle} after cycle {clock}")
        clock = cycle


def apply_batch(executor: "OnlineExecutor", seq: int,
                events: List[Tuple[str, int]]) -> BatchOutcome:
    """Feed one validated batch; return the issue-cycle delta.

    The delta is the entries the executor appended to the log's issue
    and done maps during the batch (both only grow, in commit order),
    so the live acknowledgement path and the recovery replay path
    produce byte-identical outcomes for the same prefix (the
    anomaly-freedom invariant makes the underlying state identical).
    A FALLBACK degradation replaces both maps with the static
    worst-case schedule's; that batch's delta is the fallback diffed
    against the maps' pre-batch prefix.

    A watchdog ABORT inside the batch is caught and recorded as the
    batch's outcome -- deterministically, so replaying the same journal
    reproduces the same abort at the same event.
    """
    from repro.core.exceptions import WatchdogTimeoutError
    from repro.runtime.events import CompletionEvent

    log = executor.log
    issues, done = log.issues, log.done
    issues_before, done_before = len(issues), len(done)
    timeouts_before = len(log.timeouts)
    outcome = BatchOutcome(seq=seq)
    try:
        for anchor, cycle in events:
            executor.feed(CompletionEvent(anchor, cycle))
    except WatchdogTimeoutError as error:
        outcome.error = type(error).__name__
        outcome.error_message = str(error)
    if log.issues is issues:
        outcome.issues = _appended(issues, issues_before)
        outcome.done = _appended(done, done_before)
    else:
        outcome.issues = _changed(log.issues, issues, issues_before)
        outcome.done = _changed(log.done, done, done_before)
    outcome.timeouts = [
        {"anchor": t.anchor, "cycle": t.cycle, "bound": t.bound,
         "rearm": t.rearm}
        for t in log.timeouts[timeouts_before:]]
    outcome.degraded = log.degraded
    outcome.complete = not executor._pending
    outcome.cycles = log.cycles
    return outcome


def _appended(entries: Dict[str, int], before: int) -> Dict[str, int]:
    """The entries an insertion-ordered map gained after its first
    *before*, in insertion order."""
    tail = list(islice(reversed(entries.items()), len(entries) - before))
    tail.reverse()
    return dict(tail)


def _changed(after: Dict[str, int], replaced: Dict[str, int],
             before: int) -> Dict[str, int]:
    """The entries of *after* that differ from the first *before*
    entries of the map it *replaced*."""
    prior = dict(islice(replaced.items(), before))
    return {op: cycle for op, cycle in after.items()
            if prior.get(op) != cycle}


def watchdog_to_dict(config: Any) -> Optional[Dict[str, Any]]:
    """Serialize a :class:`~repro.core.watchdog.WatchdogConfig` into the
    journal's (and the service wire's) plain-dict shape."""
    if config is None:
        return None
    return {
        "bounds": dict(config.bounds),
        "default": config.default,
        "policy": config.policy.value,
        "max_rearms": config.max_rearms,
        "backoff": config.backoff,
        "fallback_budget": config.fallback_budget,
    }


def executor_from_open_record(record: Dict[str, Any],
                              budget: Any = None) -> "OnlineExecutor":
    """Rebuild the genesis executor an ``open`` record describes.

    Re-schedules the serialized graph through the same hardened
    pipeline the create path used -- deterministic, so the recovered
    static schedule (and hence every replayed issue cycle) is
    bit-identical to the original.
    """
    from repro.core.anchors import AnchorMode
    from repro.core.watchdog import WatchdogConfig, WatchdogPolicy
    from repro.resilience.guard import guarded_schedule, untrusted_graph_from_dict
    from repro.runtime.executor import OnlineExecutor

    graph = untrusted_graph_from_dict(record["graph"], budget)
    watchdog = None
    if record.get("watchdog") is not None:
        kwargs = dict(record["watchdog"])
        if kwargs.get("policy") is not None:
            kwargs["policy"] = WatchdogPolicy(kwargs["policy"])
        watchdog = WatchdogConfig(**kwargs)
    schedule = guarded_schedule(
        graph, budget, anchor_mode=AnchorMode(record["mode"]),
        auto_well_pose=record["auto_well_pose"])
    return OnlineExecutor(schedule, watchdog=watchdog,
                          source_done=record["source_done"])


def replay_journal(state: JournalState, budget: Any = None,
                   ) -> Tuple["OnlineExecutor", Dict[int, BatchOutcome]]:
    """Recover a live executor from one journal's trusted prefix.

    Returns ``(executor, outcomes)`` where *outcomes* maps every
    acknowledged sequence number to its recomputed
    :class:`BatchOutcome` -- the idempotency table, rebuilt.  The
    executor resumes accepting events exactly where the acknowledged
    prefix ended (PR-8 anomaly freedom makes the replayed state
    bit-identical to the uninterrupted run's).

    Raises ``ValueError`` when the journal has no trusted genesis.
    """
    if state.open_record is None:
        raise ValueError("journal has no trusted open record")
    executor = executor_from_open_record(state.open_record, budget)
    outcomes: Dict[int, BatchOutcome] = {}
    for seq, events in state.batches:
        outcomes[seq] = apply_batch(executor, seq, events)
    return executor, outcomes
