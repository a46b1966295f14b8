#!/usr/bin/env python
"""CI smoke: a real ``repro serve`` process under a mixed workload.

Unlike the in-process integration tests, this harness exercises the
deployment path end to end: it launches ``python -m repro serve`` as a
subprocess, waits for the startup log line (which carries the ephemeral
port and the worker count), fires a 200-request mixed workload at every
endpoint from concurrent client threads -- including requests that must
fail (bad graphs -> 400, over-budget graphs -> 429) -- then asks the
process to shut down with SIGINT and verifies it exits cleanly (code 0)
with its persistent cache flushed to disk.

Every ``/schedule`` response is checked bit-identical to a serial
``schedule_graph(anchor_mode=FULL)`` run computed up front; the cache
it checks on shutdown is filled by the ``/schedule_many`` requests.

Usage::

    python benchmarks/service_smoke.py            # 200 requests (CI)
    python benchmarks/service_smoke.py --requests 1000
"""

import argparse
import random
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.anchors import AnchorMode  # noqa: E402
from repro.core.scheduler import schedule_graph  # noqa: E402
from repro.designs.random_graphs import random_constraint_graph  # noqa: E402
from repro.io import schedule_to_dict  # noqa: E402
from repro.qa.serialize import graph_to_dict  # noqa: E402
from repro.service import ServiceClient  # noqa: E402

STARTUP_RE = re.compile(
    r"scheduling service on [\d.]+:(\d+) -- (\d+) workers")


def launch_server(tmp):
    """Start ``repro serve`` on an ephemeral port; returns
    (process, port, workers)."""
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["PYTHONUNBUFFERED"] = "1"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "--budget",
         "vertices=500,edges=5000", "serve", "--port", "0",
         "--workers", "4",
         "--cache", str(Path(tmp) / "smoke_cache.jsonl")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server exited early (code {process.poll()})")
        match = STARTUP_RE.search(line)
        if match:
            return process, int(match.group(1)), int(match.group(2))
    process.kill()
    raise RuntimeError("server did not log its startup line in 30 s")


def build_workload(n_requests, seed=2026):
    """A deterministic mixed request list: (kind, payload, expect)."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(24):
        graphs.append(random_constraint_graph(
            rng, rng.randint(6, 28),
            edge_probability=rng.uniform(0.1, 0.3),
            unbounded_probability=rng.uniform(0.1, 0.35),
            n_min_constraints=rng.randint(0, 4),
            n_max_constraints=rng.randint(0, 3)))
    payloads = [graph_to_dict(g) for g in graphs]
    expected = [
        schedule_to_dict(schedule_graph(g, anchor_mode=AnchorMode.FULL))
        for g in graphs]

    big = random_constraint_graph(random.Random(1), 600,
                                  edge_probability=0.02)
    big_payload = graph_to_dict(big)

    workload = []
    for _ in range(n_requests):
        roll = rng.random()
        if roll < 0.55:  # the bread and butter: /schedule, verified
            index = rng.randrange(len(payloads))
            workload.append(("schedule", payloads[index], expected[index]))
        elif roll < 0.70:
            indices = [rng.randrange(len(payloads))
                       for _ in range(rng.randint(2, 5))]
            workload.append(("schedule_many",
                             [payloads[i] for i in indices], len(indices)))
        elif roll < 0.80:
            workload.append(("lint", payloads[rng.randrange(len(payloads))],
                             None))
        elif roll < 0.88:
            workload.append(("observe",
                             payloads[rng.randrange(len(payloads))], None))
        elif roll < 0.94:  # malformed -> 400, part of the contract
            workload.append(("bad_graph", {"vertices": "nope"}, 400))
        else:  # over budget -> 429
            workload.append(("over_budget", big_payload, 429))
    return workload


def run_workload(port, workload, n_threads):
    failures = []
    lock = threading.Lock()
    counters = {}

    def note(kind, ok, detail=None):
        with lock:
            counters[kind] = counters.get(kind, 0) + 1
            if not ok:
                failures.append((kind, detail))

    def worker(thread_index):
        with ServiceClient(port=port, timeout=120) as client:
            for kind, payload, expect in workload[thread_index::n_threads]:
                if kind == "schedule":
                    status, body = client.schedule(payload)
                    note(kind, status == 200
                         and body["schedule"] == expect,
                         (status, "schedule mismatch"))
                elif kind == "schedule_many":
                    status, body = client.schedule_many(payload)
                    note(kind, status == 200
                         and len(body["results"]) == expect, status)
                elif kind == "lint":
                    status, body = client.lint(payload)
                    note(kind, status == 200
                         and body["sarif"]["version"] == "2.1.0", status)
                elif kind == "observe":
                    status, body = client.observe(payload)
                    note(kind, status == 200
                         and body["bound_violations"] == [], status)
                else:  # bad_graph / over_budget
                    status, body = client.schedule(payload)
                    note(kind, status == expect, (status, body))

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(n_threads)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    elapsed = time.perf_counter() - t0
    return elapsed, counters, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--threads", type=int, default=8)
    args = parser.parse_args(argv)

    workload = build_workload(args.requests)
    with tempfile.TemporaryDirectory() as tmp:
        process, port, workers = launch_server(tmp)
        print(f"server up on port {port} with {workers} workers")
        try:
            # Drain server stdout in the background so it cannot block
            # on a full pipe while we fire the workload.
            drain = threading.Thread(
                target=lambda: process.stdout.read(), daemon=True)
            drain.start()
            elapsed, counters, failures = run_workload(
                port, workload, args.threads)
            print(f"{args.requests} requests over {args.threads} threads "
                  f"in {elapsed:.2f}s "
                  f"({args.requests / elapsed:.1f} req/s): {counters}")
            for kind, detail in failures[:5]:
                print(f"  FAIL {kind}: {detail}")
        finally:
            process.send_signal(signal.SIGINT)
            code = process.wait(timeout=30)
        cache = Path(tmp) / "smoke_cache.jsonl"
        cache_flushed = cache.exists() and cache.stat().st_size > 0

    print(f"shutdown exit code {code}, cache flushed: {cache_flushed}")
    if failures:
        print(f"service smoke FAILED: {len(failures)} bad responses")
        return 1
    if code != 0:
        print("service smoke FAILED: unclean shutdown")
        return 1
    if not cache_flushed:
        print("service smoke FAILED: cache not flushed on shutdown")
        return 1
    print("service smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
