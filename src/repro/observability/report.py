"""Run reports: the machine-readable JSON view of a traced run.

:func:`build_report` folds a :class:`~repro.observability.tracer.Tracer`'s
raw spans/events/counters into one JSON-serializable dict with a stable
schema (``schema`` bumps on breaking changes), and
:func:`format_summary` renders the same data for humans.  The report is
what the CLI writes with ``--trace-out``, what CI uploads as an
artifact, and what the fuzzing oracle asserts trace-level invariants
against (e.g. every scheduler run's ``iterations <= bound``).

Report schema (version 2)::

    {
      "schema": 2,
      "counters": {name: int},
      "timers":   {name: {"total_ms": float, "count": int}},
      "spans":    [{"name", "start_ms", "duration_ms", "parent"}],
      "scheduler": {
        "runs": [{"iterations", "bound", "backward_edges", "warm",
                  "kernel", "converged"}],
        "total_iterations": int,
        "total_relaxations": int,
        "iteration_events": [{"round", "violations", "relaxations",
                              "kernel"}],
      },
      "kernel":  {"indexed_runs", "reference_runs", "vectorized_rounds"},
      "cache":   {"hits", "misses", "invalidations", "hit_rate"},
      "wellposed": {"checks", "verdicts": {verdict: count}},
      "events":  [...]               # the raw event stream
    }
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.observability.tracer import Tracer

#: Bumped whenever a consumer-visible report field changes shape.
REPORT_SCHEMA = 2


def build_report(tracer: Tracer) -> Dict[str, Any]:
    """Fold *tracer*'s records into the schema-2 run report dict."""
    counters = dict(tracer.counters)
    runs = [
        {
            "iterations": event.get("iterations"),
            "bound": event.get("bound"),
            "backward_edges": event.get("backward_edges"),
            "warm": event.get("warm", False),
            "kernel": event.get("kernel"),
            "converged": event.get("converged", True),
        }
        for event in tracer.events_named("scheduler.run")
    ]
    iteration_events = [
        {
            "round": event.get("round"),
            "violations": event.get("violations"),
            "relaxations": event.get("relaxations"),
            "kernel": event.get("kernel"),
        }
        for event in tracer.events_named("scheduler.iteration")
    ]
    verdicts: Dict[str, int] = {}
    for event in tracer.events_named("wellposed.verdict"):
        verdict = event.get("status", "unknown")
        verdicts[verdict] = verdicts.get(verdict, 0) + 1

    hits = counters.get("cache.hit", 0)
    misses = counters.get("cache.miss", 0)
    report = {
        "schema": REPORT_SCHEMA,
        "counters": counters,
        "timers": {
            name: {"total_ms": round(timer["total_s"] * 1e3, 3),
                   "count": timer["count"]}
            for name, timer in tracer.timers.items()
        },
        "spans": [
            {
                "name": span["name"],
                "start_ms": round(span["start"] * 1e3, 3),
                "duration_ms": (round(span["duration_s"] * 1e3, 3)
                                if span["duration_s"] is not None else None),
                "parent": span["parent"],
            }
            for span in tracer.spans
        ],
        "scheduler": {
            "runs": runs,
            "total_iterations": counters.get("scheduler.iterations", 0),
            "total_relaxations": counters.get("scheduler.relaxations", 0),
            "iteration_events": iteration_events,
        },
        "kernel": {
            "indexed_runs": counters.get("kernel.indexed_runs", 0),
            "reference_runs": counters.get("kernel.reference_runs", 0),
            "vectorized_rounds": counters.get("kernel.vectorized_rounds", 0),
        },
        "cache": {
            "hits": hits,
            "misses": misses,
            "invalidations": counters.get("cache.invalidation", 0),
            "hit_rate": round(hits / (hits + misses), 4) if hits + misses else None,
        },
        "wellposed": {
            "checks": counters.get("wellposed.checks", 0),
            "verdicts": verdicts,
        },
        "events": list(tracer.events),
    }
    return report


def iteration_bound_violations(report: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The scheduler runs whose iteration count exceeds the Theorem 8
    bound ``|Eb| + 1`` -- empty on a correct scheduler."""
    bad = []
    for run in report["scheduler"]["runs"]:
        iterations, bound = run.get("iterations"), run.get("bound")
        if iterations is not None and bound is not None and iterations > bound:
            bad.append(run)
    return bad


def format_summary(report: Dict[str, Any]) -> str:
    """Human-readable rendering of a run report."""
    lines = ["observability run report"]

    scheduler = report["scheduler"]
    if scheduler["runs"]:
        lines.append(f"  scheduler: {len(scheduler['runs'])} run(s), "
                     f"{scheduler['total_iterations']} iteration(s), "
                     f"{scheduler['total_relaxations']} relaxation(s)")
        for run in scheduler["runs"]:
            kernel = run["kernel"] or "?"
            warm = ", warm start" if run["warm"] else ""
            lines.append(f"    {kernel} kernel: {run['iterations']} "
                         f"iteration(s) (bound |Eb|+1 = {run['bound']}){warm}")
    kernel = report["kernel"]
    lines.append(f"  kernel: {kernel['indexed_runs']} indexed, "
                 f"{kernel['reference_runs']} reference")
    cache = report["cache"]
    rate = f"{cache['hit_rate']:.0%}" if cache["hit_rate"] is not None else "n/a"
    lines.append(f"  analysis cache: {cache['hits']} hit(s), "
                 f"{cache['misses']} miss(es), "
                 f"{cache['invalidations']} invalidation(s), "
                 f"hit rate {rate}")
    wellposed = report["wellposed"]
    if wellposed["checks"]:
        verdicts = ", ".join(f"{v}: {c}"
                             for v, c in sorted(wellposed["verdicts"].items()))
        lines.append(f"  well-posedness: {wellposed['checks']} check(s) "
                     f"({verdicts})")
    top = sorted(report["timers"].items(),
                 key=lambda item: item[1]["total_ms"], reverse=True)[:8]
    if top:
        lines.append("  phase timers:")
        for name, timer in top:
            lines.append(f"    {name:<32} {timer['total_ms']:>9.3f} ms "
                         f"(x{timer['count']})")
    return "\n".join(lines)


def write_report(report: Dict[str, Any], path: str,
                 indent: Optional[int] = 2) -> None:
    """Serialize *report* as JSON to *path*."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=indent, sort_keys=False)
        handle.write("\n")
