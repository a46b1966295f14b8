"""Crash-recovery verification: journal a stream, kill it, replay it.

The durability contract of :mod:`repro.runtime.journal` is *bit-identity
at every kill point*: truncate the journal at any acknowledged record
boundary, replay the prefix through a fresh executor, and the recovered
state must equal the uninterrupted run's state at that same boundary --
issues, done cycles, the armed-watchdog set and its arming order, the
stream clock, everything :meth:`~repro.runtime.executor.OnlineExecutor.
state_snapshot` covers.  A kill *inside* a record (a torn tail) must
recover to the boundary before it: the torn record was never
acknowledged, so losing it is not loss.

This module is the shared harness behind that contract's three
consumers: the qa oracle's 14th check (``crash_recovery``), the
``crash`` kind of the chaos campaign, and the journal test suite.  It
writes the journal through the real :class:`~repro.runtime.journal.
SessionJournal` append path (mirroring the service's
journal-then-apply-then-acknowledge ordering, including the
stop-after-abort rule) and recovers through the real
:func:`~repro.runtime.journal.replay_journal` path -- the harness
introduces no parallel implementation that could drift.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.exceptions import MalformedInputError
from repro.runtime.journal import (
    SessionJournal,
    apply_batch,
    executor_from_open_record,
    read_journal,
    replay_journal,
    validate_batch,
)


@dataclass
class CrashReport:
    """Outcome of sweeping kill points over one journaled stream.

    Attributes:
        boundary_checks: clean-kill points verified (truncation at a
            record boundary).
        torn_checks: mid-record kill points verified (torn tails).
        divergences: every bit-identity violation found, as readable
            ``kill@<bytes>: field expected != recovered`` strings.  A
            non-empty list is a durability bug, full stop.
    """

    boundary_checks: int = 0
    torn_checks: int = 0
    divergences: List[str] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return not self.divergences


def compare_snapshots(expected: Dict[str, Any],
                      got: Dict[str, Any]) -> List[str]:
    """Field-by-field diff of two executor state snapshots."""
    mismatches = []
    for key in sorted(set(expected) | set(got)):
        want, have = expected.get(key), got.get(key)
        if want != have:
            mismatches.append(f"{key}: expected {want!r}, recovered {have!r}")
    return mismatches


def record_boundaries(raw: bytes) -> List[int]:
    """Byte offsets of every complete-record boundary in *raw*,
    including 0 (the empty prefix) -- the clean kill points."""
    boundaries = [0]
    offset = 0
    for line in raw.split(b"\n")[:-1]:
        offset += len(line) + 1
        boundaries.append(offset)
    return boundaries


def journal_stream(path: Union[str, Path], graph_dict: Dict[str, Any],
                   events: List[Tuple[str, int]], *,
                   mode: str = "full",
                   watchdog: Optional[Dict[str, Any]] = None,
                   source_done: int = 0,
                   auto_well_pose: bool = True,
                   fsync: str = "never",
                   budget: Any = None) -> List[Dict[str, Any]]:
    """Stream *events* through a journaled executor, one record each.

    Follows the service's exact ordering -- validate, append, apply --
    including the stop-after-abort rule (a batch the service would
    refuse to journal never reaches the journal here either).  Returns
    the uninterrupted run's state snapshot *after every acknowledged
    record* (index 0 = the genesis state, before any event): the
    ground truth :func:`verify_crash_points` compares recoveries to.
    """
    journal = SessionJournal(path, fsync=fsync)
    try:
        journal.append_open("case", graph_dict, mode=mode,
                            watchdog=watchdog, source_done=source_done,
                            auto_well_pose=auto_well_pose)
        genesis = read_journal(path).open_record
        executor = executor_from_open_record(genesis, budget)
        snapshots = [executor.state_snapshot()]
        seq = 0
        for anchor, cycle in events:
            try:
                validate_batch(executor, [(anchor, cycle)])
            except MalformedInputError:
                continue  # the service answers 400 and journals nothing
            seq += 1
            journal.append_events(seq, [(anchor, cycle)])
            outcome = apply_batch(executor, seq, [(anchor, cycle)])
            snapshots.append(executor.state_snapshot())
            if outcome.error:
                break  # the service refuses further events (409)
    finally:
        journal.close()
    return snapshots


def verify_crash_points(path: Union[str, Path],
                        snapshots: List[Dict[str, Any]], *,
                        budget: Any = None,
                        rng: Optional[random.Random] = None,
                        torn_per_record: int = 1) -> CrashReport:
    """Kill the journal at every record boundary (and inside records)
    and demand bit-identical recovery.

    For each boundary ``k`` the journal is truncated there, recovered
    through :func:`~repro.runtime.journal.replay_journal`, and the
    recovered snapshot compared to ``snapshots[k]``.  For torn tails,
    *torn_per_record* byte offsets strictly inside each record (all of
    them when the rng is None) are additionally checked: the recovery
    must ignore the fragment and equal the boundary before it -- "the
    run without that event".
    """
    path = Path(path)
    raw = path.read_bytes()
    boundaries = record_boundaries(raw)
    kill_file = path.with_suffix(path.suffix + ".kill")
    report = CrashReport()

    def recover_and_compare(cut: int, expected_index: int,
                            expect_torn: bool) -> None:
        kill_file.write_bytes(raw[:cut])
        state = read_journal(kill_file)
        if state.torn_tail != expect_torn:
            report.divergences.append(
                f"kill@{cut}: torn_tail {state.torn_tail} "
                f"(expected {expect_torn})")
        if expected_index == 0:
            # Only the genesis record (or less) survived: nothing was
            # acknowledged, so there is nothing to recover -- but the
            # scan must still classify the file as unrecoverable
            # cleanly rather than crash or invent state.
            if state.batches or (cut < boundaries[1] and state.recoverable):
                report.divergences.append(
                    f"kill@{cut}: scan invented acknowledged state "
                    f"from an unacknowledged prefix")
            if not state.recoverable:
                return
        expected = snapshots[expected_index]
        try:
            executor, outcomes = replay_journal(state, budget)
        except Exception as exc:  # noqa: BLE001 - report, never die
            report.divergences.append(
                f"kill@{cut}: recovery crashed: {type(exc).__name__}: {exc}")
            return
        if len(outcomes) != expected_index:
            report.divergences.append(
                f"kill@{cut}: recovered {len(outcomes)} batches, "
                f"expected {expected_index}")
        for line in compare_snapshots(expected, executor.state_snapshot()):
            report.divergences.append(f"kill@{cut}: {line}")

    # Clean kills: every record boundary (boundary k leaves the open
    # record plus k-1 event records; boundary 0 is the empty file).
    for k, cut in enumerate(boundaries):
        recover_and_compare(cut, max(0, k - 1), expect_torn=False)
        report.boundary_checks += 1

    # Torn kills: offsets strictly inside a record.  Killing inside
    # event record k (1-based) must recover the run *without* event k.
    for k in range(1, len(boundaries)):
        lo, hi = boundaries[k - 1], boundaries[k]
        inner = range(lo + 1, hi)
        if not inner:
            continue
        if rng is None or len(inner) <= torn_per_record:
            cuts = list(inner)
        else:
            cuts = rng.sample(list(inner), torn_per_record)
        for cut in cuts:
            recover_and_compare(cut, max(0, k - 2), expect_torn=True)
            report.torn_checks += 1

    kill_file.unlink(missing_ok=True)
    return report
