"""The ``sweep-many`` workload: ``schedule_many`` over a 10k corpus.

One process, one thread.  Each call gets fresh, never-scheduled copies
of the seeded corpus, made outside the timed region; the timed region
is ``schedule_many`` plus ``unpack()`` of every OK result, as
``repro schedule-many`` does.  No persistent cache.

Checks after every call: each graph's verdict (scheduled or error) must
equal the oracle's verdict for the design it renames, and a seeded
sample of unpacked schedules must equal the oracle's offsets.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import inputs
import metrics
from layers import LayerClock, batch_stats_recorder

#: Fresh interpreters started per run for ``setup_s`` (median reported).
SETUP_SPAWNS = 5
#: Unpacked schedules compared with the oracle after each call.
SAMPLE = 24
#: Graphs of the warm-up call (imports, numpy dispatch caches).
WARMUP_GRAPHS = 500

_SETUP_PROGRAM = """
import sys
from repro.core.batch import schedule_many
from repro.core.graph import ConstraintGraph
graph = ConstraintGraph(source="src", sink="snk", sink_delay=0)
graph.add_operation("a", 2)
graph.add_sequencing_edge("src", "a")
graph.add_sequencing_edge("a", "snk")
schedule_many([graph])[0].unpack()
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


def setup_seconds(root: Path) -> List[float]:
    """Fresh interpreter -> import ``repro.core.batch`` -> first
    ``schedule_many`` on a one-graph batch, timed from the spawn."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    samples = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", _SETUP_PROGRAM],
                              cwd=root, env=env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
        if line != b"ready\n" or child.returncode != 0:
            raise RuntimeError(f"set-up program failed ({child.returncode})")
        samples.append(elapsed)
    return samples


class Sweep:
    """The seeded corpus, its expected verdicts, and the timed calls."""

    def __init__(self, seed: int,
                 recipe: Dict[str, Any] = inputs.SWEEP_RECIPE) -> None:
        from repro.core.batch import schedule_many

        self.schedule_many = schedule_many
        self.template, self.origins, uniques = inputs.sweep_corpus(seed,
                                                                   recipe)
        ok = [inputs.oracle(u) is not None for u in uniques]
        self.expected_ok = [ok[o] for o in self.origins]
        self.sample_rng = random.Random(f"sweep-many/sample:{seed}")
        # The corpus template is the benchmark's, not the program's:
        # keep the collector from rescanning it on every full pass.
        gc.collect()
        gc.freeze()
        warm = [g.copy() for g in self.template[:WARMUP_GRAPHS]]
        for result in self.schedule_many(warm):
            if result.ok:
                result.unpack()

    def call(self, clock: Any = None) -> Tuple[float, float, int]:
        """One timed call -> (schedule_many s, unpack s, failed graphs)."""
        graphs = [g.copy() for g in self.template]
        # Collect the previous call's garbage now, so that every call
        # starts from the same heap instead of paying for its
        # predecessor's collection.
        gc.collect()
        t0 = time.perf_counter()
        run = self.schedule_many(graphs)
        t1 = time.perf_counter()
        for result in run:
            if result.ok:
                result.unpack()
        t2 = time.perf_counter()
        if clock is not None:
            clock.add("core.batch.schedule_many", t1 - t0, t1 - t0)
            clock.add("core.batch.materialize", t2 - t1, t2 - t1)
            batch_stats_recorder(clock)(run)
        return t1 - t0, t2 - t1, self.check(run)

    def check(self, run: Any) -> int:
        """Graphs whose result disagrees with the oracle."""
        wrong = sum(result.ok != ok
                    for result, ok in zip(run, self.expected_ok))
        if run.stats["errors"] != self.expected_ok.count(False):
            wrong = max(wrong, 1)
        candidates = [i for i, ok in enumerate(self.expected_ok) if ok]
        for i in self.sample_rng.sample(candidates,
                                        min(SAMPLE, len(candidates))):
            expected = inputs.oracle(self.template[i])
            result = run[i]
            if (expected is None or not result.ok
                    or result.unpack().offsets != expected.offsets):
                wrong += 1
        return wrong


def _loop(sweep: Sweep, seconds: float, trace: bool
          ) -> Tuple[List[float], int, int, LayerClock]:
    """Calls until *seconds* of timed work; (call seconds, graphs,
    failed, clock)."""
    from repro.observability import Tracer, use_tracer

    clock = LayerClock()
    calls: List[float] = []
    failed = graphs = 0
    while sum(calls) < seconds:
        if trace:
            tracer = Tracer()
            with use_tracer(tracer):
                sm_s, unpack_s, wrong = sweep.call(clock)
            for name, timer in tracer.timers.items():
                if name.startswith("batch."):
                    clock.add(f"core.{name}", timer["total_s"],
                              timer["total_s"])
        else:
            sm_s, unpack_s, wrong = sweep.call()
        calls.append(sm_s + unpack_s)
        failed += wrong
        graphs += len(sweep.template)
    return calls, graphs, failed, clock


def run(root: Path, workdir: Path, seed: int, seconds: float,
        trace: bool) -> Dict[str, Any]:
    setup = [] if trace else setup_seconds(root)
    sweep = Sweep(seed)
    calls, graphs, failed, _ = _loop(sweep, seconds, False)
    result: Dict[str, Any] = {
        "recipe": dict(inputs.SWEEP_RECIPE),
        "phases": {"plain": {"attempted": graphs, "failed": failed,
                             "succeeded": graphs - failed,
                             "call_s": calls}},
    }
    if not trace:
        values = {
            "ops_per_s": graphs / sum(calls),
            "latency_p50_ms": metrics.median(calls) * 1e3,
            "latency_p99_ms": metrics.percentile(calls, 0.99) * 1e3,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": metrics.median(setup),
        }
    else:
        t_calls, t_graphs, t_failed, clock = _loop(sweep, seconds, True)
        result["phases"]["traced"] = {
            "attempted": t_graphs, "failed": t_failed,
            "succeeded": t_graphs - t_failed, "call_s": t_calls}
        graphs += t_graphs
        failed += t_failed
        values = metrics.layer_values(clock.snapshot())
        untraced = result["phases"]["plain"]["attempted"] / sum(calls)
        values["trace.overhead_share"] = 1.0 - (t_graphs / sum(t_calls)
                                                / untraced)
        # The share of schedule_many that its stage spans do not cover.
        stages = sum(values[f"core.batch.{stage}_ms"] for stage
                     in ("assemble", "classify", "sweep", "unpack"))
        values["trace.reconcile_residual_share"] = abs(
            values["core.batch.schedule_many_ms"] - stages) / values[
                "core.batch.schedule_many_ms"]
    result["metrics"] = values
    result["attempted"] = graphs
    result["failed"] = failed
    return result
