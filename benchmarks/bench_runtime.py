#!/usr/bin/env python
"""Online executor benchmark: sustained completion events per second.

A minimum relative schedule is valid for every delay profile, so the
:class:`repro.runtime.OnlineExecutor` issues each operation from the
static offsets and solves nothing at run time.  This bench measures
what that buys on live streams:

* **executor** -- the executor as shipped: per-event cost is the issue
  scan over the operations still pending;
* **scratch** -- the naive alternative: rebind the observed delay, then
  a full ``IterativeIncrementalScheduler(...).run()`` per event.

Both paths process identical event streams (static start times
evaluated at a seeded delay profile), so the events/sec ratio is
self-relative and meaningful on any machine; ``perf_guard`` gates it
(``runtime_events_per_sec``: the executor must beat scratch by
``--runtime-floor``).  An untimed traced pass counts the scheduler runs
the executor performs over the whole corpus (``reschedules``, pinned
at 0 by ``perf_guard``'s ``runtime_no_reschedule``).

The second workload prices durability: the same streams through the
service's session path (``POST /sessions`` + one ``/events`` batch per
completion) with no journal, a journal under ``fsync "never"``, and a
journal under ``fsync "always"`` -- the per-event overhead of the
write-ahead append is what ``perf_guard`` gates (``journal_overhead``).

Usage::

    python benchmarks/bench_runtime.py            # writes BENCH_runtime.json
    python benchmarks/bench_runtime.py --quick    # CI smoke sizes
"""

import argparse
import json
import platform
import random
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.anchors import AnchorMode, anchor_sets_for_mode  # noqa: E402
from repro.core.exceptions import ConstraintGraphError  # noqa: E402
from repro.core.scheduler import IterativeIncrementalScheduler  # noqa: E402
from repro.designs.random_graphs import random_constraint_graph  # noqa: E402
from repro.observability import Tracer, use_tracer  # noqa: E402
from repro.resilience.guard import guarded_schedule  # noqa: E402
from repro.runtime import (  # noqa: E402
    CompletionEvent,
    OnlineExecutor,
    static_completion_events,
)

#: Corpus recipe: streaming-sized graphs with enough unbounded anchors
#: that every case produces a meaningful event stream.
FULL = {"n_graphs": 40, "n_lo": 40, "n_hi": 120, "passes": 3}
QUICK = {"n_graphs": 10, "n_lo": 48, "n_hi": 100, "passes": 2}

#: Session-workload recipe: smaller graphs, one dispatched request per
#: completion event, so the journal append is a visible share of it.
SESSION_FULL = {"n_graphs": 12, "n_lo": 24, "n_hi": 64, "passes": 3}
SESSION_QUICK = {"n_graphs": 6, "n_lo": 24, "n_hi": 48, "passes": 2}


def make_stream_corpus(n_graphs, n_lo, n_hi, seed=1990):
    """Schedulable graphs plus per-case (profile, event stream) pairs."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < n_graphs:
        graph = random_constraint_graph(
            rng, rng.randint(n_lo, n_hi),
            edge_probability=rng.uniform(0.08, 0.2),
            unbounded_probability=rng.uniform(0.2, 0.4),
            n_min_constraints=rng.randint(0, 4),
            n_max_constraints=rng.randint(0, 2))
        try:
            schedule = guarded_schedule(graph, anchor_mode=AnchorMode.FULL)
        except ConstraintGraphError:
            continue
        anchors = [a for a in schedule.graph.anchors
                   if a != schedule.graph.source]
        if not anchors:
            continue
        profile = {a: rng.randint(0, 12) for a in anchors}
        cases.append((schedule, static_completion_events(schedule, profile)))
    return cases


def run_executor(schedule, events):
    executor = OnlineExecutor(schedule)
    t0 = time.perf_counter()
    log = executor.run(CompletionEvent(a, c) for a, c in events)
    elapsed = time.perf_counter() - t0
    assert log.complete, "executor left operations unissued"
    return elapsed, log.events


def count_reschedules(cases):
    """Scheduler runs the executor performs over every stream (an
    untimed pass under a recording tracer)."""
    tracer = Tracer()
    with use_tracer(tracer):
        for schedule, events in cases:
            OnlineExecutor(schedule).run(
                CompletionEvent(a, c) for a, c in events)
    return tracer.counter("scheduler.runs")


def run_scratch(schedule, events):
    """The naive comparator: full relaxation from zero per completion."""
    graph = schedule.graph.copy()
    mode = schedule.anchor_mode
    current = schedule
    observed = {}
    count = 0
    t0 = time.perf_counter()
    for anchor, cycle in events:
        count += 1
        # Fold the observed delay into the graph ...
        start = current.start_times(observed)[anchor]
        observed[anchor] = cycle - start
        graph.bind_anchor_delay(anchor, observed[anchor])
        # ... and solve the rebound graph from scratch.
        anchor_sets = anchor_sets_for_mode(graph, mode)
        current = IterativeIncrementalScheduler(
            graph, anchor_mode=mode, anchor_sets=anchor_sets).run()
    elapsed = time.perf_counter() - t0
    return elapsed, count


def bench_runtime(quick=False):
    recipe = QUICK if quick else FULL
    cases = make_stream_corpus(recipe["n_graphs"], recipe["n_lo"],
                               recipe["n_hi"])
    total_events = sum(len(events) for _, events in cases)

    executor_s = 0.0
    executor_events = 0
    for _ in range(recipe["passes"]):
        pass_s = 0.0
        pass_events = 0
        for schedule, events in cases:
            elapsed, n = run_executor(schedule, events)
            pass_s += elapsed
            pass_events += n
        if pass_s < executor_s or executor_s == 0.0:
            executor_s, executor_events = pass_s, pass_events

    scratch_s = 0.0
    scratch_events = 0
    for schedule, events in cases:
        elapsed, n = run_scratch(schedule, events)
        scratch_s += elapsed
        scratch_events += n

    executor_eps = executor_events / max(executor_s, 1e-9)
    scratch_eps = scratch_events / max(scratch_s, 1e-9)
    return {
        "name": "runtime-streams",
        "graphs": len(cases),
        "events_per_pass": total_events,
        "executor": {
            "events": executor_events,
            "seconds": round(executor_s, 4),
            "events_per_sec": round(executor_eps, 1),
            "reschedules": count_reschedules(cases),
        },
        "scratch": {
            "events": scratch_events,
            "seconds": round(scratch_s, 4),
            "events_per_sec": round(scratch_eps, 1),
        },
        "speedup": round(executor_eps / max(scratch_eps, 1e-9), 2),
    }


def run_session_pass(cases, journal_dir, fsync):
    """One pass of every stream through the session endpoints; returns
    (seconds spent posting events, events acknowledged).

    Session creation (scheduling, identical across modes) happens
    outside the timed region: what differs between the modes is the
    per-event path -- validate, journal append (or not), apply, ack.
    """
    from repro.qa.serialize import graph_to_dict
    from repro.service.app import SchedulingService, ServiceConfig

    service = SchedulingService(ServiceConfig(
        journal_dir=journal_dir, journal_fsync=fsync))
    streams = []
    for schedule, events in cases:
        status, body = service.dispatch(
            "POST", "/sessions", {"graph": graph_to_dict(schedule.graph)})
        assert status == 200, body
        streams.append((body["session"], events))

    acknowledged = 0
    elapsed = 0.0
    for sid, events in streams:
        path = f"/sessions/{sid}/events"
        t0 = time.perf_counter()
        for seq, (anchor, cycle) in enumerate(events, start=1):
            status, body = service.dispatch(
                "POST", path, {"seq": seq, "events": [[anchor, cycle]]})
            assert status == 200, body
            acknowledged += 1
        elapsed += time.perf_counter() - t0
    return elapsed, acknowledged


def bench_sessions(quick=False):
    recipe = SESSION_QUICK if quick else SESSION_FULL
    cases = make_stream_corpus(recipe["n_graphs"], recipe["n_lo"],
                               recipe["n_hi"], seed=1991)

    modes = {}
    for mode, fsync in (("memory", None), ("journal_nosync", "never"),
                        ("journal_fsync", "always")):
        best_s, events = 0.0, 0
        for _ in range(recipe["passes"]):
            if fsync is None:
                pass_s, pass_events = run_session_pass(cases, None, "never")
            else:
                with tempfile.TemporaryDirectory() as tmp:
                    pass_s, pass_events = run_session_pass(cases, tmp,
                                                           fsync)
            if pass_s < best_s or best_s == 0.0:
                best_s, events = pass_s, pass_events
        modes[mode] = {
            "events": events,
            "seconds": round(best_s, 4),
            "events_per_sec": round(events / max(best_s, 1e-9), 1),
            "per_event_us": round(best_s / max(events, 1) * 1e6, 2),
        }

    memory_us = max(modes["memory"]["per_event_us"], 1e-9)
    return {
        "name": "journaled-sessions",
        "graphs": len(cases),
        "events_per_pass": sum(len(events) for _, events in cases),
        **modes,
        "nosync_overhead": round(
            modes["journal_nosync"]["per_event_us"] / memory_us, 3),
        "fsync_overhead": round(
            modes["journal_fsync"]["per_event_us"] / memory_us, 3),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small corpus (CI smoke)")
    parser.add_argument("--output", type=Path, default=None,
                        help="report path (default BENCH_runtime.json at "
                             "the repo root)")
    args = parser.parse_args(argv)

    entry = bench_runtime(args.quick)
    sessions = bench_sessions(args.quick)
    report = {
        "meta": {
            "schema": 1,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "quick": args.quick,
        },
        "workloads": [entry, sessions],
    }
    print(f"runtime bench: {entry['graphs']} graphs, "
          f"{entry['events_per_pass']} events/pass")
    print(f"  executor {entry['executor']['events_per_sec']:>10} events/s "
          f"({entry['executor']['seconds']} s, "
          f"{entry['executor']['reschedules']} reschedules)")
    print(f"  scratch  {entry['scratch']['events_per_sec']:>10} events/s "
          f"({entry['scratch']['seconds']} s)")
    print(f"  speedup {entry['speedup']}x")
    print(f"session bench: {sessions['graphs']} sessions, "
          f"{sessions['events_per_pass']} events/pass")
    for mode in ("memory", "journal_nosync", "journal_fsync"):
        stats = sessions[mode]
        print(f"  {mode:<15} {stats['events_per_sec']:>10} events/s "
              f"({stats['per_event_us']} us/event)")
    print(f"  journal overhead: {sessions['nosync_overhead']}x fsync-off, "
          f"{sessions['fsync_overhead']}x fsync-on")

    output = args.output or REPO_ROOT / "BENCH_runtime.json"
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
