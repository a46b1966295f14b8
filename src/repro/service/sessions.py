"""The bounded session table: live executor streams behind the service.

A *session* is one :class:`~repro.runtime.executor.OnlineExecutor` kept
alive across requests, fed by incremental ``POST /sessions/{id}/events``
batches instead of one-shot ``/execute`` bodies.  Each session owns:

* its executor (the live stream state),
* its write-ahead :class:`~repro.runtime.journal.SessionJournal`
  (when the service runs with a journal directory),
* its **idempotency table**: the batch each sequence number carried
  and the ``(status, body)`` the service acknowledged it with, so an
  at-least-once client retrying a lost acknowledgement gets the
  original answer byte-for-byte rather than a sequence-gap error, and
  a client reusing a sequence number for another batch gets a
  conflict rather than the first batch's acknowledgement.

The table is bounded two ways -- an LRU cap and a TTL -- because a
service holding streams for millions of users cannot keep every
executor resident.  Eviction syncs the journal, releases its
descriptor and drops the in-memory state only: the next request for an
evicted id *lazily recovers* it by replaying the journal's
acknowledged prefix (bit-identical by the anomaly-freedom invariant),
so eviction is invisible to clients apart from one slower request.
Without a journal directory, sessions live only in memory and eviction
is loss -- the create response says which kind the client got
(``"journaled"``).

A sealed journal (explicit ``DELETE``) is a tombstone: the id answers
410 Gone forever after, which is what makes DELETE safe to retry.
"""

from __future__ import annotations

import time
import uuid
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.sanitize import make_lock
from repro.runtime.journal import (
    BatchOutcome,
    SessionJournal,
    journal_path,
    read_journal,
    replay_journal,
    scan_journal_dir,
    truncate_to_trusted,
    valid_session_id,
)


class SessionSealedError(KeyError):
    """The session was deleted and its journal sealed: 410 Gone."""


def outcome_response(session_id: str,
                     outcome: BatchOutcome) -> Tuple[int, Dict[str, Any]]:
    """The acknowledgement for one applied batch.

    Shared by the live apply path and the recovery replay path so a
    replayed acknowledgement is byte-identical to the one the crashed
    process sent (both are pure functions of the same outcome).
    """
    body = outcome.to_dict()
    body["session"] = session_id
    if outcome.error:
        body["state"] = "aborted"
    elif outcome.degraded:
        body["state"] = "degraded"
    elif outcome.complete:
        body["state"] = "complete"
    else:
        body["state"] = "active"
    return (422 if outcome.error else 200), body


class Session:
    """One live executor stream plus its durability bookkeeping."""

    def __init__(self, session_id: str, executor: Any,
                 journal: Optional[SessionJournal] = None) -> None:
        self.id = session_id
        self.executor = executor
        self.journal = journal
        # io_ok: the write-ahead contract journals *under* the
        # per-session lock (append must be ordered with the executor
        # mutation it precedes); declared, not a sanitizer bug.
        self.lock = make_lock("session", io_ok=True)
        self.responses: Dict[int, Tuple[List[Tuple[str, int]],
                                        Tuple[int, Dict[str, Any]]]] = {}
        self.last_seq = 0
        self.events_total = 0
        self.aborted = False
        self.touched = time.monotonic()

    @property
    def complete(self) -> bool:
        return not self.executor._pending

    @property
    def state(self) -> str:
        if self.aborted:
            return "aborted"
        if self.executor.log.degraded:
            return "degraded"
        if self.complete:
            return "complete"
        return "active"

    def record(self, seq: int, events: List[Tuple[str, int]],
               outcome: BatchOutcome) -> Tuple[int, Dict[str, Any]]:
        """Fold one applied batch into the session's bookkeeping."""
        self.last_seq = seq
        self.events_total += len(events)
        if outcome.error:
            self.aborted = True
        response = outcome_response(self.id, outcome)
        self.responses[seq] = (events, response)
        return response


class SessionTable:
    """LRU + TTL bounded map of live sessions, backed by journals.

    Args:
        journal_dir: where session journals live; None -> in-memory
            sessions only (not recoverable, documented as such).
        cap: most sessions held in memory at once; the least recently
            used beyond it are evicted (journal synced and its
            descriptor released, state dropped).  A resident journaled
            session holds at most one journal descriptor, opened at its
            first append, so the cap bounds those too.
        ttl_s: idle seconds before a session is evicted.
        fsync: journal fsync policy for new and recovered sessions.
        budget: admission budget used when replaying journals (recovery
            has no request tenant; the service passes its default).
    """

    def __init__(self, *, journal_dir: Optional[str] = None,
                 cap: int = 256, ttl_s: float = 3600.0,
                 fsync: str = "always", budget: Any = None) -> None:
        self.journal_dir = journal_dir
        self.cap = max(1, cap)
        self.ttl_s = ttl_s
        self.fsync = fsync
        self.budget = budget
        self._lock = make_lock("sessions.table")
        self._sessions: "OrderedDict[str, Session]" = OrderedDict()
        self.evictions = 0
        self.recoveries = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    # -- lifecycle -----------------------------------------------------

    def create(self, executor: Any, *, graph_dict: Dict[str, Any],
               mode: str, watchdog: Optional[Dict[str, Any]],
               source_done: int, auto_well_pose: bool) -> Session:
        """Admit a new session; journal its genesis before returning.

        Raises :class:`~repro.runtime.journal.JournalWriteError` when
        the open record cannot be made durable -- the session is not
        admitted (a session whose genesis is not on disk could never be
        recovered, so acknowledging it would overpromise).
        """
        session_id = uuid.uuid4().hex
        journal = None
        if self.journal_dir is not None:
            journal = SessionJournal(
                journal_path(self.journal_dir, session_id), fsync=self.fsync)
            journal.append_open(session_id, graph_dict, mode=mode,
                                watchdog=watchdog, source_done=source_done,
                                auto_well_pose=auto_well_pose)
        session = Session(session_id, executor, journal)
        self._admit(session)
        return session

    def get(self, session_id: str) -> Session:
        """The live session, lazily recovered from its journal if
        evicted (or if a previous process crashed holding it).

        Raises:
            KeyError: no such session (never journaled, or in-memory
                only and evicted/lost).
            SessionSealedError: the session was deleted; its sealed
                journal is a tombstone.
        """
        with self._lock:
            session = self._sessions.get(session_id)
            if session is not None:
                session.touched = time.monotonic()
                self._sessions.move_to_end(session_id)
                return session
        if self.journal_dir is None:
            raise KeyError(session_id)
        session = self._recover(session_id)
        self._admit(session)
        self.recoveries += 1
        return session

    def drop(self, session_id: str) -> None:
        """Forget the in-memory state (journal left as-is on disk)."""
        with self._lock:
            self._sessions.pop(session_id, None)

    def ids(self) -> List[str]:
        with self._lock:
            return list(self._sessions)

    # -- recovery ------------------------------------------------------

    def recover_all(self) -> int:
        """Startup scan: resume every recoverable journal in the
        directory.  Returns how many sessions were recovered (beyond
        the LRU cap they are immediately evicted again -- still one
        lazy replay away, but not resident)."""
        if self.journal_dir is None:
            return 0
        recovered = 0
        for session_id, state in scan_journal_dir(self.journal_dir).items():
            if not state.recoverable:
                continue
            try:
                session = self._replay(session_id, state)
            except Exception:
                # A journal that validates line-by-line but replays to
                # an error (hostile genesis, unschedulable graph) is
                # left on disk untouched and skipped -- recovery must
                # never take the service down.
                continue
            self._admit(session)
            recovered += 1
        self.recoveries += recovered
        return recovered

    def _recover(self, session_id: str) -> Session:
        if not valid_session_id(session_id):
            raise KeyError(session_id)
        state = read_journal(journal_path(self.journal_dir, session_id))
        if state.sealed:
            raise SessionSealedError(session_id)
        if not state.recoverable:
            raise KeyError(session_id)
        try:
            return self._replay(session_id, state)
        except Exception:
            raise KeyError(session_id) from None

    def _replay(self, session_id: str, state: Any) -> Session:
        # Cut any torn fragment first: appending after it would splice
        # the fragment onto the next acknowledged record.
        truncate_to_trusted(journal_path(self.journal_dir, session_id),
                            state)
        executor, outcomes = replay_journal(state, self.budget)
        journal = SessionJournal(
            journal_path(self.journal_dir, session_id), fsync=self.fsync)
        session = Session(session_id, executor, journal)
        for seq, outcome in outcomes.items():
            session.record(seq, state.batches[seq - 1][1], outcome)
        return session

    # -- bounds --------------------------------------------------------

    def _admit(self, session: Session) -> None:
        with self._lock:
            self._sessions[session.id] = session
            self._sessions.move_to_end(session.id)
            evicted = self._evict_locked()
        self._sync_evicted(evicted)

    def evict_expired(self) -> None:
        with self._lock:
            evicted = self._evict_locked(expired_only=True)
        self._sync_evicted(evicted)

    def _evict_locked(self, expired_only: bool = False) -> List[Session]:
        """Pop every over-TTL / over-cap session; caller holds the lock.

        Returns the popped sessions so the *caller* can sync their
        journals **after releasing the table lock**: an fsync can take
        milliseconds, and holding the global lock across it would stall
        every concurrent session lookup (a held-lock blocking-I/O
        finding under ``REPRO_SANITIZE=1``).  Dropping the lock first
        is safe -- the popped session is no longer discoverable, and a
        concurrent lazy recovery of the same id replays only the
        journal's acknowledged prefix, which the pending sync can only
        extend, never contradict.
        """
        now = time.monotonic()
        evicted = [self._evict_one(sid)
                   for sid, s in list(self._sessions.items())
                   if now - s.touched > self.ttl_s]
        if expired_only:
            return evicted
        while len(self._sessions) > self.cap:
            evicted.append(self._evict_one(next(iter(self._sessions))))
        return evicted

    def _evict_one(self, session_id: str) -> Optional[Session]:
        session = self._sessions.pop(session_id, None)
        self.evictions += 1
        return session

    @staticmethod
    def _sync_evicted(evicted: List[Optional[Session]]) -> None:
        for session in evicted:
            if session is not None and session.journal is not None:
                session.journal.sync()

    # -- drain ---------------------------------------------------------

    def sync_all(self) -> None:
        """Force every resident journal to disk and release its
        descriptor (the drain path)."""
        for session_id in self.ids():
            with self._lock:
                session = self._sessions.get(session_id)
            if session is not None and session.journal is not None:
                session.journal.sync()
