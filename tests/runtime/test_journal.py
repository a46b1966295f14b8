"""The write-ahead session journal under crashes and hostile bytes.

The journal file sits outside the trust boundary (a crashed process, a
full disk, another writer, an attacker with the journal directory), so
reading follows the PR-4 untrusted-input rules adapted to a *prefix
log*: the first bad line ends the trusted prefix, a torn tail degrades
to "the last batch was never acknowledged", and nothing on disk can
ever crash the scan or corrupt recovered state.
"""

import errno
import json
import os
import random
import subprocess
import sys

import pytest

from repro.core.anchors import AnchorMode
from repro.core.delay import UNBOUNDED
from repro.core.graph import ConstraintGraph
from repro.core.scheduler import schedule_graph
from repro.qa.serialize import graph_to_dict
from repro.resilience.recovery import journal_stream, verify_crash_points
from repro.runtime.journal import (
    JOURNAL_FORMAT,
    JournalWriteError,
    SessionJournal,
    read_journal,
    replay_journal,
    scan_journal_dir,
    truncate_to_trusted,
    valid_session_id,
)


def chain_graph():
    graph = ConstraintGraph()
    for name, delay in [("load", 1), ("io", UNBOUNDED), ("mul", 2),
                        ("store", 1)]:
        graph.add_operation(name, delay)
    graph.add_sequencing_edges([("load", "io"), ("io", "mul"),
                                ("mul", "store")])
    graph.make_polar()
    return graph


def io_start():
    schedule = schedule_graph(chain_graph(), anchor_mode=AnchorMode.FULL)
    return schedule.start_times({})["io"]


def write_journal(path, batches=((1, [("io", 7)]),), seal=False):
    journal = SessionJournal(path, fsync="never")
    journal.append_open("s-1", graph_to_dict(chain_graph()), mode="full",
                        watchdog=None, source_done=0, auto_well_pose=True)
    for seq, events in batches:
        journal.append_events(seq, events)
    if seal:
        journal.append_seal(batches[-1][0] if batches else 0)
    return journal


class TestRoundTrip:
    def test_open_events_seal_read_back(self, tmp_path):
        path = tmp_path / "s-1.journal"
        write_journal(path, batches=[(1, [("io", 7)]), (2, [("io", 9)])],
                      seal=True)
        state = read_journal(path)
        assert state.open_record is not None
        assert state.open_record["format"] == JOURNAL_FORMAT
        assert state.batches == [(1, [("io", 7)]), (2, [("io", 9)])]
        assert state.last_seq == 2
        assert state.sealed and not state.recoverable
        assert not state.torn_tail and state.rejected_lines == 0
        assert state.trusted_bytes == path.stat().st_size

    def test_missing_file_is_empty_state(self, tmp_path):
        state = read_journal(tmp_path / "nope.journal")
        assert state.open_record is None
        assert not state.recoverable
        assert state.trusted_bytes == 0

    def test_replay_reaches_the_journaled_state(self, tmp_path):
        path = tmp_path / "s-1.journal"
        cycle = io_start() + 3
        write_journal(path, batches=[(1, [("io", cycle)])])
        executor, outcomes = replay_journal(read_journal(path))
        assert set(outcomes) == {1}
        # The one anchor completion cascades the statically scheduled
        # tail (mul, store, the sink) into the same batch's delta.
        assert outcomes[1].done["io"] == cycle
        assert {"mul", "store"} <= set(outcomes[1].done)
        assert outcomes[1].complete
        assert not executor._pending

    def test_replay_without_genesis_raises(self, tmp_path):
        path = tmp_path / "s-1.journal"
        path.write_text('{"type":"events","seq":1,"events":[]}\n')
        state = read_journal(path)
        assert not state.recoverable
        with pytest.raises(ValueError):
            replay_journal(state)

    def test_unknown_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SessionJournal(tmp_path / "s.journal", fsync="sometimes")

    def test_failed_append_raises_journal_write_error(self, tmp_path):
        # A directory at the journal path makes the open fail; the
        # batch must NOT be acknowledged (the error propagates).
        path = tmp_path / "s-1.journal"
        path.mkdir()
        journal = SessionJournal(path, fsync="never")
        with pytest.raises(JournalWriteError):
            journal.append_events(1, [("io", 7)])

    @staticmethod
    def failing(code):
        def fail(*args):
            raise OSError(code, os.strerror(code))
        return fail

    def opened(self, path):
        journal = SessionJournal(path, fsync="always")
        journal.append_open("s-1", graph_to_dict(chain_graph()), mode="full",
                            watchdog=None, source_done=0, auto_well_pose=True)
        return journal

    def test_failed_fsync_is_never_acknowledged(self, tmp_path, monkeypatch):
        # The whole line reached the file before fsync failed: it must
        # not come back from recovery as an acknowledged batch.
        path = tmp_path / "s-1.journal"
        journal = self.opened(path)
        monkeypatch.setattr(os, "fsync", self.failing(errno.EIO))
        with pytest.raises(JournalWriteError):
            journal.append_events(1, [("io", 7)])
        state = read_journal(path)
        assert state.open_record is not None
        assert state.batches == [] and not state.torn_tail
        # A failed fsync cannot be retried into success: poisoned.
        monkeypatch.undo()
        with pytest.raises(JournalWriteError, match="poisoned"):
            journal.append_events(1, [("io", 7)])
        assert read_journal(path).batches == []

    def test_failed_write_rolls_back_and_stays_usable(self, tmp_path,
                                                      monkeypatch):
        path = tmp_path / "s-1.journal"
        journal = self.opened(path)
        real_write = os.write
        calls = []

        def short_then_enospc(fd, data):
            calls.append(len(data))
            if len(calls) == 1:
                return real_write(fd, bytes(data[:5]))
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "write", short_then_enospc)
        with pytest.raises(JournalWriteError):
            journal.append_events(1, [("io", 7)])
        monkeypatch.undo()
        state = read_journal(path)
        assert state.batches == [] and not state.torn_tail
        journal.append_events(1, [("io", 7)])  # not poisoned
        assert read_journal(path).batches == [(1, [("io", 7)])]

    def test_failed_rollback_poisons_the_journal(self, tmp_path, monkeypatch):
        path = tmp_path / "s-1.journal"
        journal = self.opened(path)
        monkeypatch.setattr(os, "fsync", self.failing(errno.EIO))
        monkeypatch.setattr(os, "ftruncate", self.failing(errno.EROFS))
        with pytest.raises(JournalWriteError):
            journal.append_events(1, [("io", 7)])
        monkeypatch.undo()
        with pytest.raises(JournalWriteError, match="rollback failed"):
            journal.append_events(2, [("io", 9)])


class TestTornTail:
    """A kill mid-append degrades to "not yet acknowledged" -- at every
    single byte offset of the final record."""

    def test_truncation_at_every_byte_of_the_last_record(self, tmp_path):
        path = tmp_path / "s-1.journal"
        write_journal(path, batches=[(1, [("io", 7)]), (2, [("io", 9)])])
        raw = path.read_bytes()
        last_line_start = raw.rstrip(b"\n").rfind(b"\n") + 1
        for cut in range(last_line_start + 1, len(raw)):
            kill = tmp_path / "kill.journal"
            kill.write_bytes(raw[:cut])
            state = read_journal(kill)
            assert state.torn_tail, f"cut at {cut} not flagged torn"
            assert state.batches == [(1, [("io", 7)])]
            assert state.trusted_bytes == last_line_start

    def test_unterminated_but_parseable_line_is_still_torn(self, tmp_path):
        # The newline is part of the single acknowledged write: a final
        # line that parses as valid JSON but lacks its newline was never
        # acknowledged, so it must not join the trusted prefix (and
        # trusted_bytes must not overshoot the file).
        path = tmp_path / "s-1.journal"
        write_journal(path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])  # strip only the final newline
        state = read_journal(path)
        assert state.torn_tail
        assert state.batches == []
        assert state.trusted_bytes <= path.stat().st_size

    def test_truncate_then_resume_appending(self, tmp_path):
        # Resuming a torn journal must cut the fragment first --
        # otherwise O_APPEND splices it onto the next record, turning
        # one unacknowledged line into mid-file garbage.
        path = tmp_path / "s-1.journal"
        journal = write_journal(path, batches=[(1, [("io", 7)])])
        with open(path, "ab") as handle:
            handle.write(b'{"type":"events","seq":2,"ev')  # torn append
        state = read_journal(path)
        assert state.torn_tail
        truncate_to_trusted(path, state)
        assert path.stat().st_size == state.trusted_bytes
        journal.append_events(2, [("io", 9)])
        resumed = read_journal(path)
        assert resumed.batches == [(1, [("io", 7)]), (2, [("io", 9)])]
        assert not resumed.torn_tail and resumed.rejected_lines == 0

    def test_truncate_is_a_noop_on_clean_journals(self, tmp_path):
        path = tmp_path / "s-1.journal"
        write_journal(path)
        before = path.read_bytes()
        truncate_to_trusted(path, read_journal(path))
        assert path.read_bytes() == before


class TestHostileContent:
    def test_binary_garbage_file(self, tmp_path):
        path = tmp_path / "s-1.journal"
        path.write_bytes(bytes(range(256)) * 16)
        state = read_journal(path)
        assert state.open_record is None
        assert not state.recoverable

    def test_mid_file_garbage_ends_the_prefix(self, tmp_path):
        path = tmp_path / "s-1.journal"
        write_journal(path, batches=[(1, [("io", 7)])])
        with open(path, "ab") as handle:
            handle.write(b"\x00\xffnot json\n")
            handle.write(json.dumps({"type": "events", "seq": 2,
                                     "events": [["io", 9]]}).encode()
                         + b"\n")
        state = read_journal(path)
        # The acknowledged batch after the garbage line is NOT trusted:
        # a prefix log stops at the first bad line.
        assert state.batches == [(1, [("io", 7)])]
        assert state.rejected_lines == 2

    def test_duplicate_seq_ends_the_prefix(self, tmp_path):
        path = tmp_path / "s-1.journal"
        write_journal(path, batches=[(1, [("io", 7)]), (1, [("io", 9)]),
                                     (2, [("io", 11)])])
        state = read_journal(path)
        assert state.batches == [(1, [("io", 7)])]
        assert state.rejected_lines == 2

    def test_sequence_gap_ends_the_prefix(self, tmp_path):
        path = tmp_path / "s-1.journal"
        write_journal(path, batches=[(1, [("io", 7)]), (3, [("io", 9)])])
        state = read_journal(path)
        assert state.batches == [(1, [("io", 7)])]
        assert state.rejected_lines == 1

    def test_second_open_record_ends_the_prefix(self, tmp_path):
        path = tmp_path / "s-1.journal"
        journal = write_journal(path, batches=[(1, [("io", 7)])])
        journal.append_open("s-1", graph_to_dict(chain_graph()),
                            mode="full", watchdog=None, source_done=0,
                            auto_well_pose=True)
        state = read_journal(path)
        assert state.batches == [(1, [("io", 7)])]
        assert state.rejected_lines == 1

    def test_records_after_a_seal_are_ignored(self, tmp_path):
        path = tmp_path / "s-1.journal"
        journal = write_journal(path, batches=[(1, [("io", 7)])], seal=True)
        journal.append_events(2, [("io", 9)])
        state = read_journal(path)
        assert state.sealed
        assert state.batches == [(1, [("io", 7)])]
        assert state.rejected_lines == 1

    def test_mismatched_seal_ends_the_prefix(self, tmp_path):
        path = tmp_path / "s-1.journal"
        journal = write_journal(path, batches=[(1, [("io", 7)])])
        journal.append_seal(5)  # claims batches that never happened
        state = read_journal(path)
        assert not state.sealed
        assert state.recoverable  # an unsealed prefix is resumable
        assert state.rejected_lines == 1

    @pytest.mark.parametrize("record", [
        {"type": "open", "format": JOURNAL_FORMAT + 1, "session": "s",
         "graph": {}, "mode": "full", "watchdog": None, "source_done": 0,
         "auto_well_pose": True},                      # future format
        {"type": "open", "format": JOURNAL_FORMAT, "session": 7,
         "graph": {}, "mode": "full", "watchdog": None, "source_done": 0,
         "auto_well_pose": True},                      # non-string id
        {"type": "events", "seq": 0, "events": []},    # seq below 1
        {"type": "events", "seq": True, "events": []},  # bool masquerade
        {"type": "events", "seq": 1, "events": [["io"]]},  # short pair
        {"type": "events", "seq": 1, "events": [["io", -1]]},  # neg cycle
        {"type": "events", "seq": 1, "events": [["io", 1.5]]},  # float
        {"type": "events", "seq": 1, "events": [[7, 1]]},  # int anchor
        {"type": "seal", "last_seq": -1},
        {"type": "checkpoint"},                        # unknown kind
        [1, 2, 3],                                     # not an object
    ])
    def test_structural_violations_end_the_prefix(self, tmp_path, record):
        path = tmp_path / "s-1.journal"
        path.write_text(json.dumps(record) + "\n")
        state = read_journal(path)
        assert state.open_record is None
        assert state.batches == []
        assert state.rejected_lines == 1


class TestScanJournalDir:
    def test_scan_keys_by_stem_and_skips_hostile_names(self, tmp_path):
        write_journal(tmp_path / "abc-123.journal")
        write_journal(tmp_path / "evil..name.journal")
        (tmp_path / "not-a-journal.txt").write_text("x")
        states = scan_journal_dir(tmp_path)
        assert list(states) == ["abc-123"]
        assert states["abc-123"].recoverable

    def test_scan_missing_dir_is_empty(self, tmp_path):
        assert scan_journal_dir(tmp_path / "nope") == {}


class TestCrashSweep:
    """The full contract on one stream: kill at every record boundary
    AND every interior byte offset; recovery must be bit-identical."""

    def test_every_kill_point_recovers_bit_identical(self, tmp_path):
        # Two data-dependent anchors so the stream spans real
        # reschedules: io2's issue cycle moves when io1 completes.
        graph = ConstraintGraph()
        for name, delay in [("load", 1), ("io1", UNBOUNDED), ("mul", 2),
                            ("io2", UNBOUNDED), ("store", 1)]:
            graph.add_operation(name, delay)
        graph.add_sequencing_edges([("load", "io1"), ("io1", "mul"),
                                    ("mul", "io2"), ("io2", "store")])
        graph.make_polar()
        events = [("io1", 9), ("io2", 21)]
        path = tmp_path / "case.journal"
        snapshots = journal_stream(path, graph_to_dict(graph), events)
        assert len(snapshots) == len(events) + 1
        # rng=None sweeps every interior byte, not a sample.
        report = verify_crash_points(path, snapshots, rng=None)
        assert report.identical, "\n".join(report.divergences)
        assert report.boundary_checks == len(events) + 2
        assert report.torn_checks == path.stat().st_size - len(events) - 1

    def test_watchdog_abort_replays_at_the_same_event(self, tmp_path):
        start = io_start()
        events = [("io", start + 50)]  # way past the bound: abort
        path = tmp_path / "case.journal"
        snapshots = journal_stream(
            path, graph_to_dict(chain_graph()), events,
            watchdog={"bounds": {"io": 2}, "policy": "abort"})
        report = verify_crash_points(path, snapshots, rng=None)
        assert report.identical, "\n".join(report.divergences)
        _, outcomes = replay_journal(read_journal(path))
        assert outcomes[1].error == "WatchdogTimeoutError"


class TestDirectorySync:
    """A session create is acknowledged only once its journal's
    directory entry is durable: the file's fsync, then the directory's,
    then the ack."""

    @staticmethod
    def recording(monkeypatch, fail_directory=False):
        """Patch ``os.open``/``os.fsync`` to log each fsync by path."""
        real_open, real_fsync = os.open, os.fsync
        names, log = {}, []

        def opening(path, flags, *args):
            fd = real_open(path, flags, *args)
            names[fd] = os.fspath(path)
            return fd

        def fsync(fd):
            log.append(("fsync", names.get(fd)))
            if fail_directory and os.path.isdir(names.get(fd, "")):
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            real_fsync(fd)

        monkeypatch.setattr(os, "open", opening)
        monkeypatch.setattr(os, "fsync", fsync)
        return log

    @staticmethod
    def service(journal_dir, fsync="always"):
        from repro.service.app import SchedulingService, ServiceConfig

        return SchedulingService(ServiceConfig(
            journal_dir=str(journal_dir), journal_fsync=fsync))

    def test_file_then_directory_then_ack(self, tmp_path, monkeypatch):
        from repro.runtime.journal import journal_path

        service = self.service(tmp_path / "journals")
        log = self.recording(monkeypatch)
        status, body = service.dispatch(
            "POST", "/sessions", {"graph": graph_to_dict(chain_graph())})
        log.append(("ack", status))
        path = journal_path(str(tmp_path / "journals"), body["session"])
        assert log == [("fsync", str(path)), ("fsync", str(path.parent)),
                       ("ack", 200)]
        # Later appends sync the file alone.
        del log[:]
        status, _ = service.dispatch(
            "POST", f"/sessions/{body['session']}/events",
            {"seq": 1, "events": [["io", io_start() + 1]]})
        assert status == 200 and log == [("fsync", str(path))]

    def test_a_failed_directory_sync_admits_no_session(self, tmp_path,
                                                       monkeypatch):
        journal_dir = tmp_path / "journals"
        service = self.service(journal_dir)
        self.recording(monkeypatch, fail_directory=True)
        status, body = service.dispatch(
            "POST", "/sessions", {"graph": graph_to_dict(chain_graph())})
        monkeypatch.undo()
        assert status == 503 and body["error_type"] == "JournalWriteError"
        assert service.sessions.ids() == []
        # Nothing on disk comes back as a session either.
        assert self.service(journal_dir).recovered_sessions == 0

    def test_no_directory_sync_without_fsync(self, tmp_path, monkeypatch):
        service = self.service(tmp_path / "journals", fsync="never")
        log = self.recording(monkeypatch)
        status, _ = service.dispatch(
            "POST", "/sessions", {"graph": graph_to_dict(chain_graph())})
        assert status == 200 and log == []


class TestConcurrentWriters:
    """The fcntl + single-write append discipline: concurrent appends
    from separate processes must land as whole lines, never spliced
    fragments (the same rigor as the schedule cache's test)."""

    def test_multiprocess_appends_never_tear_lines(self, tmp_path):
        path = tmp_path / "shared.journal"
        script = r"""
import sys
from repro.runtime.journal import SessionJournal

path, worker = sys.argv[1], int(sys.argv[2])
journal = SessionJournal(path, fsync="never")
for i in range(40):
    # Long event payloads so an unlocked interleave would surely tear.
    journal.append_events(worker * 1000 + i,
                          [["anchor-%d-%d" % (worker, i), j]
                           for j in range(20)])
"""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir,
                           os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
            env.get("PYTHONPATH", "")
        procs = [subprocess.Popen(
                    [sys.executable, "-c", script, str(path), str(worker)],
                    env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                 for worker in range(4)]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
        # Interleaved seq-spaces are not a valid *prefix*, but every
        # single line must have survived whole: parse each one.
        raw = path.read_bytes()
        assert raw.endswith(b"\n")
        lines = raw.split(b"\n")[:-1]
        assert len(lines) == 4 * 40
        seen = set()
        for line in lines:
            record = json.loads(line)
            assert record["type"] == "events"
            assert len(record["events"]) == 20
            seen.add(record["seq"])
        assert len(seen) == 4 * 40  # no line lost, none duplicated


class TestHeldDescriptor:
    """Storage faults on the descriptor a journal holds across appends:
    a failure after N good appends must leave exactly those N on disk."""

    GOOD = 5

    def served(self, path, fsync="never"):
        journal = SessionJournal(path, fsync=fsync)
        journal.append_open("s-1", graph_to_dict(chain_graph()), mode="full",
                            watchdog=None, source_done=0, auto_well_pose=True)
        for seq in range(1, self.GOOD + 1):
            journal.append_events(seq, [("io", 7 + seq)])
        assert journal._fd is not None  # one descriptor, still held
        return journal

    @pytest.mark.parametrize("fault", ["short-then-enospc", "eio-at-once"])
    def test_failed_write_rolls_back_to_the_size_before_it(
            self, tmp_path, monkeypatch, fault):
        path = tmp_path / "s-1.journal"
        journal = self.served(path)
        size = path.stat().st_size
        real_write = os.write

        def faulty(fd, data):
            if fault == "short-then-enospc" and len(data) > 8:
                return real_write(fd, bytes(data[:8]))
            code = errno.ENOSPC if fault == "short-then-enospc" else errno.EIO
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(os, "write", faulty)
        with pytest.raises(JournalWriteError):
            journal.append_events(self.GOOD + 1, [("io", 99)])
        monkeypatch.undo()
        assert path.stat().st_size == size
        assert journal._fd is None  # a failed append releases it
        state = read_journal(path)
        assert state.last_seq == self.GOOD and not state.torn_tail
        # Not poisoned: the next append opens a fresh descriptor.
        journal.append_events(self.GOOD + 1, [("io", 99)])
        assert read_journal(path).last_seq == self.GOOD + 1

    def test_short_writes_still_land_whole_lines(self, tmp_path,
                                                 monkeypatch):
        path = tmp_path / "s-1.journal"
        journal = self.served(path)
        real_write = os.write
        monkeypatch.setattr(
            os, "write", lambda fd, data: real_write(fd, bytes(data[:3])))
        journal.append_events(self.GOOD + 1, [("io", 99)])
        monkeypatch.undo()
        state = read_journal(path)
        assert state.last_seq == self.GOOD + 1 and not state.torn_tail

    def test_fsync_failure_poisons_and_closes_the_descriptor(
            self, tmp_path, monkeypatch):
        path = tmp_path / "s-1.journal"
        journal = self.served(path, fsync="always")
        size = path.stat().st_size
        monkeypatch.setattr(os, "fsync", TestRoundTrip.failing(errno.EIO))
        with pytest.raises(JournalWriteError):
            journal.append_events(self.GOOD + 1, [("io", 99)])
        monkeypatch.undo()
        assert journal._fd is None
        assert path.stat().st_size == size
        with pytest.raises(JournalWriteError, match="poisoned"):
            journal.append_events(self.GOOD + 1, [("io", 99)])
        assert journal._fd is None  # a poisoned journal opens nothing
        assert read_journal(path).last_seq == self.GOOD

    def test_service_drops_the_session_then_recovers_the_trusted_prefix(
            self, tmp_path, monkeypatch):
        from repro.runtime.journal import journal_path
        from repro.service.app import SchedulingService, ServiceConfig

        service = SchedulingService(ServiceConfig(
            journal_dir=str(tmp_path), journal_fsync="never"))
        status, body = service.dispatch(
            "POST", "/sessions", {"graph": graph_to_dict(chain_graph())})
        sid = body["session"]
        events = f"/sessions/{sid}/events"
        start = io_start()
        assert start > 0
        for seq in (1, 2, 3):  # before io starts: spurious, no-ops
            status, _ = service.dispatch(
                "POST", events, {"seq": seq, "events": [["io", 0]]})
            assert status == 200
        path = journal_path(str(tmp_path), sid)
        trusted = path.stat().st_size
        # A torn write whose rollback also fails: a fragment stays on
        # disk behind the trusted prefix.
        real_write = os.write
        calls = []

        def torn(fd, data):
            calls.append(fd)
            if len(calls) > 1:
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return real_write(fd, bytes(data[:10]))

        monkeypatch.setattr(os, "write", torn)
        monkeypatch.setattr(os, "ftruncate",
                            TestRoundTrip.failing(errno.EROFS))
        status, body = service.dispatch(
            "POST", events, {"seq": 4, "events": [["io", start + 2]]})
        monkeypatch.undo()
        assert status == 503 and body["error_type"] == "JournalWriteError"
        assert sid not in service.sessions.ids()
        assert path.stat().st_size == trusted + 10
        # The next request recovers: truncate to the trusted prefix,
        # replay it, and take seq 4 as new.
        status, ack = service.dispatch(
            "POST", events, {"seq": 4, "events": [["io", start + 2]]})
        assert status == 200 and ack["complete"] and "replayed" not in ack
        state = read_journal(path)
        assert state.last_seq == 4
        assert not state.torn_tail and state.rejected_lines == 0
        service.close()


def old_session_id_predicate(name):
    return bool(name) and all(c.isalnum() or c == "-" for c in name)


class TestSessionIdPredicate:
    ALPHABET = (list("abcXYZ0189-_./\\: \x00")
                + ["\u00e9", "\u00df", "\u0416", "\u4e2d",  # letters
                   "\u0663", "\u00b2", "\u00bd", "\u216b",  # digits
                   "\uff21", "\u0301", "\u2010", "\u2212",  # A, marks
                   "\U0001f600"])

    @pytest.mark.parametrize("name", [
        "", "-", "---", "abc", "a-b", "ab/cd", "..", "a.b", "a\\b", "/",
        "a b", "\u00e9t\u00e9-2", "\u0663\u00b2", "\u2010", "a\x00"])
    def test_named_cases_match_the_old_predicate(self, name):
        assert valid_session_id(name) is old_session_id_predicate(name)

    def test_seeded_strings_match_the_old_predicate(self):
        rng = random.Random(25)
        accepted = 0
        for _ in range(5000):
            name = "".join(rng.choice(self.ALPHABET)
                           for _ in range(rng.randint(0, 8)))
            want = old_session_id_predicate(name)
            assert valid_session_id(name) is want, repr(name)
            accepted += want
        assert 0 < accepted < 5000

    def test_the_routes_and_the_scan_share_it(self, tmp_path):
        from repro.service.app import _session_label

        assert _session_label("/sessions/\u00e9-1") == (
            "/sessions/{id}", "\u00e9-1")
        assert _session_label("/sessions/a.b/events") == (None, None)
        write_journal(tmp_path / "---.journal")
        write_journal(tmp_path / "a_b.journal")
        assert list(scan_journal_dir(tmp_path)) == ["---"]
