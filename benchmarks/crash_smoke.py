#!/usr/bin/env python
"""CI smoke: SIGKILL a journaled ``repro serve`` mid-stream, restart it,
and demand a bit-identical resume.

The durability contract the in-process tests prove line-by-line is
exercised here at deployment granularity: a real ``python -m repro
serve --journal-dir`` subprocess takes several live sessions, streams
acknowledged event batches into them, and is then killed with SIGKILL
-- no drain, no flush, no goodbye.  A second server process over the
same journal directory must:

* log the recovered session count at startup,
* answer ``GET /sessions/{id}`` byte-identically to the pre-kill state
  for every session,
* replay a re-POSTed acknowledged batch (``"replayed": true``) instead
  of double-applying it,
* accept the *next* sequence number and stream each session to
  completion, matching a local uninterrupted executor,
* exit 0 on SIGTERM (graceful drain), leaving journals that a third
  scan still reads cleanly.

With ``--session-cap N`` below ``--sessions``, both servers run with
``repro serve --session-cap N``: the kill lands while some sessions
hold their journal descriptor and others were evicted, and the restart
evicts again as it recovers, so every later request may be a lazy
recovery.

Usage::

    python benchmarks/crash_smoke.py                  # CI (3 sessions)
    python benchmarks/crash_smoke.py --sessions 8 --session-cap 3
"""

import argparse
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.anchors import AnchorMode  # noqa: E402
from repro.core.delay import UNBOUNDED  # noqa: E402
from repro.core.graph import ConstraintGraph  # noqa: E402
from repro.core.scheduler import schedule_graph  # noqa: E402
from repro.qa.serialize import graph_to_dict  # noqa: E402
from repro.runtime import execute_stream  # noqa: E402
from repro.service import ServiceClient  # noqa: E402

STARTUP_RE = re.compile(
    r"scheduling service on [\d.]+:(\d+) -- (\d+) workers")
RECOVERY_RE = re.compile(r"session journals in .+ -- (\d+) session\(s\)")


def launch_server(journal_dir, fsync="always", session_cap=None):
    """Start a journaled ``repro serve``; returns (process, port,
    recovered-session count from the startup log)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    command = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--workers", "2", "--journal-dir", str(journal_dir),
               "--journal-fsync", fsync]
    if session_cap is not None:
        command += ["--session-cap", str(session_cap)]
    process = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    port = None
    recovered = None
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited early (code {process.poll()})")
        match = STARTUP_RE.search(line)
        if match:
            port = int(match.group(1))
        match = RECOVERY_RE.search(line)
        if match:
            recovered = int(match.group(1))
        if port is not None and recovered is not None:
            return process, port, recovered
    process.kill()
    raise RuntimeError("server did not log startup + recovery in 30 s")


def stream_graph(index):
    """A chain with two data-dependent anchors; each session gets its
    own anchor names so mixed-up recovery cannot pass by accident."""
    graph = ConstraintGraph()
    ops = [(f"load{index}", 1), (f"io{index}a", UNBOUNDED),
           (f"mul{index}", 2), (f"io{index}b", UNBOUNDED),
           (f"store{index}", 1)]
    for name, delay in ops:
        graph.add_operation(name, delay)
    names = [name for name, _ in ops]
    graph.add_sequencing_edges(list(zip(names, names[1:])))
    graph.make_polar()
    return graph, [(f"io{index}a", 9 + index), (f"io{index}b", 25 + index)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, default=3)
    parser.add_argument("--session-cap", type=int, default=None,
                        help="passed to repro serve (default: its own)")
    args = parser.parse_args(argv)

    cases = [stream_graph(i) for i in range(args.sessions)]
    expected_logs = {}
    for index, (graph, events) in enumerate(cases):
        schedule = schedule_graph(graph.copy(), anchor_mode=AnchorMode.FULL)
        expected_logs[index] = execute_stream(schedule, events).to_dict()

    failures = []

    def check(ok, what):
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    with tempfile.TemporaryDirectory() as tmp:
        journal_dir = Path(tmp) / "journals"

        # -- phase 1: live sessions, one acknowledged batch each -------
        process, port, recovered = launch_server(
            journal_dir, session_cap=args.session_cap)
        print(f"server up on port {port} "
              f"({recovered} sessions recovered on a fresh dir)")
        check(recovered == 0, "fresh journal dir recovers 0 sessions")
        session_ids = {}
        pre_kill = {}
        acks = {}
        with ServiceClient(port=port, timeout=30) as client:
            for index, (graph, events) in enumerate(cases):
                status, body = client.create_session(graph_to_dict(graph))
                check(status == 200 and body["journaled"],
                      f"session {index} created journaled")
                session_ids[index] = body["session"]
                # First batch acknowledged -> must survive the kill.
                status, ack = client.post_events(
                    body["session"], 1, [list(events[0])])
                check(status == 200, f"session {index} seq 1 acknowledged")
                acks[index] = ack
                status, pre_kill[index] = client.get_session(
                    body["session"])

        # -- the crash: SIGKILL, mid-stream, no drain ------------------
        process.kill()
        process.wait(timeout=30)
        print(f"SIGKILLed pid {process.pid} mid-stream")

        # -- phase 2: restart over the same journal directory ----------
        process, port, recovered = launch_server(
            journal_dir, session_cap=args.session_cap)
        print(f"server back on port {port}, {recovered} sessions recovered")
        check(recovered == args.sessions,
              f"all {args.sessions} sessions recovered from journals")
        drain = None
        try:
            with ServiceClient(port=port, timeout=30) as client:
                for index, (graph, events) in enumerate(cases):
                    sid = session_ids[index]
                    status, body = client.get_session(sid)
                    check(status == 200 and body == pre_kill[index],
                          f"session {index} state bit-identical after "
                          f"restart")
                    # Retrying the acknowledged batch replays, never
                    # double-applies.
                    status, again = client.post_events(
                        sid, 1, [list(events[0])])
                    check(status == 200
                          and again.pop("replayed", None) is True
                          and again == acks[index],
                          f"session {index} seq 1 replays the original "
                          f"acknowledgement")
                    # The stream resumes exactly where the ack prefix
                    # ended and runs to completion.
                    status, ack2 = client.post_events(
                        sid, 2, [list(events[1])])
                    check(status == 200 and ack2["complete"],
                          f"session {index} resumes at seq 2 and "
                          f"completes")
                    status, final = client.get_session(sid)
                    check(status == 200
                          and final["log"] == expected_logs[index],
                          f"session {index} final log matches the "
                          f"uninterrupted executor")
                # Drain while sessions are resident: admission stops...
                process.send_signal(signal.SIGTERM)
                deadline = time.monotonic() + 30
                drain = None
                while time.monotonic() < deadline and drain is None:
                    if process.poll() is not None:
                        drain = process.returncode
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
        check(drain == 0, f"SIGTERM drain exits 0 (got {drain})")

        # -- phase 3: the drained journals still scan clean ------------
        from repro.runtime.journal import scan_journal_dir

        states = scan_journal_dir(journal_dir)
        check(len(states) == args.sessions,
              f"{args.sessions} journals on disk after drain")
        clean = all(not s.torn_tail and s.rejected_lines == 0
                    and s.last_seq == 2 for s in states.values())
        check(clean, "every drained journal reads back whole (no torn "
                     "tails, no rejected lines, both batches)")

        if failures:
            print(f"crash smoke FAILED: {len(failures)} checks")
            # Dump the journals for the CI artifact before the tempdir
            # evaporates.
            keep = Path("crash_smoke_journals")
            keep.mkdir(exist_ok=True)
            for path in journal_dir.glob("*.journal"):
                (keep / path.name).write_bytes(path.read_bytes())
            print(f"journals preserved in {keep}/")
            return 1

    print("crash smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
