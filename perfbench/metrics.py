"""Metric names, units and the small statistics the benchmark reports.

The names here are the benchmark's public vocabulary: ``BENCHMARK.json``
lists exactly these, and a later performance claim names one metric on
one workload.  End-to-end metrics are measured with tracing off; the
per-layer metrics come only from a traced run (``--trace 1``).

End-to-end metrics share one name across workloads; what an "operation"
is depends on the workload:

==================  ==================  ===================  ==============
metric              rpc-schedule        sweep-many           session-events
==================  ==================  ===================  ==============
ops_per_s           requests / s        graphs / s           events / s
latency_p50_ms      request round trip  one 10k-graph call   event ack
latency_p99_ms      request round trip  one 10k-graph call   event ack
==================  ==================  ===================  ==============
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

#: End-to-end metric -> unit (reported with ``--trace 0``).
END_TO_END: Dict[str, str] = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Per-layer metric -> unit (reported with ``--trace 1``).  A layer a
#: workload never reaches reports 0: it adds no time to that workload.
PER_LAYER: Dict[str, str] = {
    # service layers (rpc-schedule and session-events)
    "transport_ms": "ms",
    "service.pool.queue_wait_ms": "ms",
    "service.app.dispatch_ms": "ms",
    "service.app.dispatch_self_ms": "ms",
    # rpc-schedule
    "resilience.guard.untrusted_graph_from_dict_ms": "ms",
    "service.batcher.schedule_ms": "ms",
    "service.batcher.linger_ms": "ms",
    "service.batcher.batch_size_mean": "count",
    "core.batch.schedule_many_ms": "ms",
    "core.batch.fallback_share": "ratio",
    "core.resultcache.hit_share": "ratio",
    "io.schedule_to_dict_ms": "ms",
    # sweep-many
    "core.batch.assemble_ms": "ms",
    "core.batch.classify_ms": "ms",
    "core.batch.sweep_ms": "ms",
    "core.batch.unpack_ms": "ms",
    "core.batch.materialize_ms": "ms",
    "core.batch.scheduled": "count",
    "core.batch.errors": "count",
    "core.batch.fallbacks": "count",
    # session-events
    "service.app.session_create_ms": "ms",
    "resilience.guard.guarded_schedule_ms": "ms",
    "runtime.journal.validate_batch_us": "us",
    "runtime.journal.append_events_ms": "ms",
    "runtime.journal.apply_batch_ms": "ms",
    "core.scheduler.run_from_ms": "ms",
    "runtime.journal.fsyncs_per_event": "count",
    "runtime.executor.reschedules_per_event": "count",
    # every workload
    "failed_share": "ratio",
    "trace.overhead_share": "ratio",
    "trace.reconcile_residual_share": "ratio",
}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of unsorted *values*."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def render(values: Dict[str, float], units: Dict[str, str]
           ) -> Dict[str, Dict[str, object]]:
    """``{name: {"value", "unit"}}`` for every metric in *units*.

    A missing metric is a bug in the workload, never a silent zero.
    """
    missing = sorted(set(units) - set(values))
    if missing:
        raise KeyError(f"workload did not report {missing}")
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()}


def per_layer_defaults() -> Dict[str, float]:
    """Every per-layer metric at 0 (a layer the workload never reaches)."""
    return {name: 0.0 for name in PER_LAYER}


def mean_ms(totals: Dict[str, Dict[str, float]], layer: str,
            scale: float = 1e3) -> float:
    """Mean duration per call of *layer* from timer totals (0: not hit)."""
    entry = totals.get(layer)
    if not entry or not entry["count"]:
        return 0.0
    return entry["total_s"] / entry["count"] * scale


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


#: Per-layer metric -> (layer timer, scale to its unit): mean per call.
LAYER_MEANS = {
    "resilience.guard.untrusted_graph_from_dict_ms":
        ("resilience.guard.untrusted_graph_from_dict", 1e3),
    "service.batcher.schedule_ms": ("service.batcher.schedule", 1e3),
    "core.batch.schedule_many_ms": ("core.batch.schedule_many", 1e3),
    "io.schedule_to_dict_ms": ("io.schedule_to_dict", 1e3),
    "core.batch.assemble_ms": ("core.batch.assemble", 1e3),
    "core.batch.classify_ms": ("core.batch.classify", 1e3),
    "core.batch.sweep_ms": ("core.batch.sweep", 1e3),
    "core.batch.unpack_ms": ("core.batch.unpack", 1e3),
    "core.batch.materialize_ms": ("core.batch.materialize", 1e3),
    "service.app.session_create_ms": ("service.app.session_create", 1e3),
    "resilience.guard.guarded_schedule_ms":
        ("resilience.guard.guarded_schedule", 1e3),
    "runtime.journal.validate_batch_us":
        ("runtime.journal.validate_batch", 1e6),
    "runtime.journal.append_events_ms": ("runtime.journal.append_events", 1e3),
    "runtime.journal.apply_batch_ms": ("runtime.journal.apply_batch", 1e3),
    "core.scheduler.run_from_ms": ("core.scheduler.run_from", 1e3),
}


def layer_values(layers: Dict[str, Dict]) -> Dict[str, float]:
    """Every per-layer metric that timer totals and the summed
    ``BatchRun.stats`` counters give directly (the rest stay 0)."""
    timers, counters = layers["timers"], layers["counters"]
    values = per_layer_defaults()
    for metric, (timer, scale) in LAYER_MEANS.items():
        values[metric] = mean_ms(timers, timer, scale)
    calls = timers.get("core.batch.schedule_many", {}).get("count", 0)
    for key in ("scheduled", "errors", "fallbacks"):
        values[f"core.batch.{key}"] = share(
            counters.get(f"core.batch.{key}", 0), calls)
    values["core.batch.fallback_share"] = share(
        counters.get("core.batch.fallbacks", 0),
        counters.get("core.batch.graphs", 0))
    return values


def summarize_latencies(latencies_s: List[float]) -> Dict[str, float]:
    """p50/p99 in ms (nearest rank) of per-operation latencies."""
    return {"latency_p50_ms": percentile(latencies_s, 0.50) * 1e3,
            "latency_p99_ms": percentile(latencies_s, 0.99) * 1e3}
