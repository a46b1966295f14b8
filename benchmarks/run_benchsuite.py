#!/usr/bin/env python
"""Perf trajectory harness: indexed kernel vs. the retained reference.

Times the pipeline stages (well-posedness check, anchor analysis,
end-to-end ``schedule_graph``) on the eight paper designs and on seeded
random constraint graphs, running both the indexed kernel and the
original dict implementations (:mod:`repro.qa.reference`) in the same
process, and writes ``BENCH_core.json`` at the repository root.

Every repetition runs on a fresh ``graph.copy()`` so the versioned
analysis cache starts cold: the numbers measure the full pipeline
including compilation, not a warm-cache replay.  The reported time per
stage is the minimum over repetitions (the standard low-noise estimator
for CPU-bound code).

``--batch`` switches to the many-graph workload: the seeded 10k-graph
mixed corpus (:func:`repro.qa.generators.batch_corpus`) scheduled as one
:func:`repro.core.batch.schedule_many` call versus the per-graph
``schedule_graph`` loop, and writes ``BENCH_batch.json`` instead.
The loop returns materialized schedules, so the like-for-like batch
figure (``batch_cold_unpacked_ms``, the headline) also unpacks every OK
result; ``batch_cold_ms`` times ``schedule_many`` alone.
Loop and batch repetitions are interleaved (so drift hits both alike),
gc is disabled around the timed region, and every graph's versioned
analysis cache is cleared before each repetition so both contenders
start compilation-cold.

Usage::

    python benchmarks/run_benchsuite.py            # full suite
    python benchmarks/run_benchsuite.py --quick    # CI smoke (small sizes)
    python benchmarks/run_benchsuite.py --batch    # writes BENCH_batch.json
    python benchmarks/run_benchsuite.py --output other.json
"""

import argparse
import gc
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
from repro.qa.reference import (  # noqa: E402
    anchor_sets_for_mode_reference,
    check_well_posed_reference,
    schedule_graph_reference,
)
from repro.core.scheduler import schedule_graph  # noqa: E402
from repro.core.wellposed import check_well_posed  # noqa: E402
from repro.designs.random_graphs import random_constraint_graph  # noqa: E402
from repro.designs.suite import DESIGN_NAMES, build_design  # noqa: E402
from repro.seqgraph.hierarchy import schedule_design  # noqa: E402


def design_root_graph(name):
    """The design's root constraint graph, lowered bottom-up (children
    scheduled first so compound latencies are characterized)."""
    design = build_design(name)
    hierarchical = schedule_design(design)
    return hierarchical.constraint_graphs[design.root]

#: Random workload recipe: average forward degree ~20 and ~15% unbounded
#: operations once n is large enough, comparable to the anchor density
#: of the paper's designs.
RANDOM_SIZES = [100, 400, 1600]
QUICK_RANDOM_SIZES = [100, 400]


def make_random(n_ops: int):
    rng = random.Random(1990 + n_ops)
    return random_constraint_graph(
        rng, n_ops,
        edge_probability=min(0.15, 40 / n_ops),
        unbounded_probability=0.15,
        n_min_constraints=n_ops // 8,
        n_max_constraints=n_ops // 16)


STAGES = [
    ("check_well_posed", check_well_posed, check_well_posed_reference),
    ("anchor_analysis",
     lambda g: anchor_sets_for_mode(g, AnchorMode.IRREDUNDANT),
     lambda g: anchor_sets_for_mode_reference(g, AnchorMode.IRREDUNDANT)),
    ("schedule_graph", schedule_graph, schedule_graph_reference),
]


#: Batch workload recipe: mostly renamed isomorphs of a few hundred
#: 32-64-vertex chain-ladder designs (one sixth of the uniques
#: unfeasible) -- the dedup-heavy shape of a synthesis sweep.
BATCH_FULL = {"seed": 42, "size": 10_000, "n_unique": 360,
              "unfeasible_share": 1 / 6, "n_lo": 32, "n_hi": 64,
              "unbounded_probability": 0.25}
BATCH_QUICK = dict(BATCH_FULL, size=500, n_unique=40)


def _cold(graphs):
    """Drop every versioned analysis cache so the next repetition pays
    for compilation again (``schedule_graph`` memoizes per graph)."""
    for graph in graphs:
        graph._analysis_cache = {}
        graph._cache_version = -1


def bench_batch(quick, reps):
    from repro.core.batch import schedule_many
    from repro.core.exceptions import ConstraintGraphError
    from repro.qa.generators import batch_corpus

    recipe = BATCH_QUICK if quick else BATCH_FULL
    corpus = batch_corpus(**recipe)

    def loop_once():
        errors = 0
        for graph in corpus:
            try:
                schedule_graph(graph)
            except ConstraintGraphError:
                errors += 1
        return errors

    loop_best = batch_best = warm_best = float("inf")
    unpacked_best = unpack_best = float("inf")
    loop_errors = run = warm_run = None
    gc.disable()
    try:
        for _ in range(reps):
            _cold(corpus)
            t0 = time.perf_counter()
            loop_errors = loop_once()
            loop_best = min(loop_best, time.perf_counter() - t0)
            _cold(corpus)
            t0 = time.perf_counter()
            run = schedule_many(corpus)
            batch_best = min(batch_best, time.perf_counter() - t0)
            # The loop hands back materialized schedules; so must the
            # batch, for a like-for-like comparison: unpack every OK
            # result of a fresh call.
            _cold(corpus)
            t0 = time.perf_counter()
            unpacked = schedule_many(corpus)
            t1 = time.perf_counter()
            for result in unpacked:
                if result.ok:
                    result.unpack()
            t2 = time.perf_counter()
            unpacked_best = min(unpacked_best, t2 - t0)
            unpack_best = min(unpack_best, t2 - t1)
            del unpacked
        with tempfile.TemporaryDirectory() as tmp:
            cache = str(Path(tmp) / "schedules.jsonl")
            schedule_many(corpus, cache=cache)  # populate the store
            for _ in range(reps):
                _cold(corpus)
                t0 = time.perf_counter()
                warm_run = schedule_many(corpus, cache=cache)
                warm_best = min(warm_best, time.perf_counter() - t0)
    finally:
        gc.enable()

    # Cheap cross-check: both contenders must reject the same graphs.
    assert run.stats["errors"] == loop_errors, \
        (run.stats["errors"], loop_errors)
    return {
        "name": f"batch-{recipe['size']}",
        "corpus": recipe,
        "loop_ms": round(loop_best * 1e3, 3),
        "batch_cold_ms": round(batch_best * 1e3, 3),
        "batch_cold_unpacked_ms": round(unpacked_best * 1e3, 3),
        "unpack_ms": round(unpack_best * 1e3, 3),
        "batch_warm_ms": round(warm_best * 1e3, 3),
        "speedup_cold": round(loop_best / batch_best, 2),
        "speedup_cold_unpacked": round(loop_best / unpacked_best, 2),
        "speedup_warm": round(loop_best / warm_best, 2),
        "cold_stats": dict(run.stats),
        "warm_stats": dict(warm_run.stats),
    }


def main_batch(args, reps):
    workload = bench_batch(args.quick, reps)
    report = {
        "meta": {
            "schema": 1,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "quick": args.quick,
            "repeats": reps,
            "timer": "min over interleaved loop/batch repetitions, gc "
                     "disabled, analysis caches cleared per repetition",
        },
        "workloads": [workload],
        "headline": {
            "workload": workload["name"],
            "stage": "schedule_many_cold_unpacked",
            "speedup": workload["speedup_cold_unpacked"],
        },
    }
    print(f"{workload['name']}: loop {workload['loop_ms']} ms, "
          f"batch cold {workload['batch_cold_ms']} ms "
          f"({workload['speedup_cold']}x), "
          f"cold + unpack {workload['batch_cold_unpacked_ms']} ms "
          f"({workload['speedup_cold_unpacked']}x, unpack "
          f"{workload['unpack_ms']} ms), "
          f"warm {workload['batch_warm_ms']} ms "
          f"({workload['speedup_warm']}x)")
    print(f"  cold stats: {workload['cold_stats']}")
    print(f"  warm stats: {workload['warm_stats']}")
    output = args.output or REPO_ROOT / "BENCH_batch.json"
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


def time_stage(graph, fn, reps):
    best = float("inf")
    result = None
    for _ in range(reps):
        fresh = graph.copy()
        t0 = time.perf_counter()
        result = fn(fresh)
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_workload(name, graph, reps, extra=None):
    entry = {
        "name": name,
        "n_vertices": len(graph),
        "n_edges": len(graph.edges()),
        "n_backward_edges": len(graph.backward_edges()),
        "n_anchors": len(graph.anchors),
        "stages": {},
    }
    if extra:
        entry.update(extra)
    for stage, indexed_fn, reference_fn in STAGES:
        indexed_s, indexed_out = time_stage(graph, indexed_fn, reps)
        reference_s, reference_out = time_stage(graph, reference_fn,
                                                max(1, reps // 2))
        if stage == "schedule_graph":
            assert indexed_out.offsets == reference_out.offsets, name
            assert indexed_out.iterations == reference_out.iterations, name
        entry["stages"][stage] = {
            "indexed_ms": round(indexed_s * 1e3, 3),
            "reference_ms": round(reference_s * 1e3, 3),
            "speedup": round(reference_s / indexed_s, 2),
        }
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes / few reps (CI smoke)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repetitions per stage (default 5, "
                        "quick 2; batch: 3, quick 2)")
    parser.add_argument("--batch", action="store_true",
                        help="run the many-graph schedule_many workload "
                        "and write BENCH_batch.json")
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.batch:
        return main_batch(args, args.repeats or (2 if args.quick else 3))
    reps = args.repeats or (2 if args.quick else 5)
    sizes = QUICK_RANDOM_SIZES if args.quick else RANDOM_SIZES

    workloads = []
    for design in DESIGN_NAMES:
        graph = design_root_graph(design)
        workloads.append(bench_workload(f"design:{design}", graph, reps))
        print(f"{workloads[-1]['name']:<16} schedule_graph "
              f"{workloads[-1]['stages']['schedule_graph']['speedup']:>6.2f}x")
    for n_ops in sizes:
        graph = make_random(n_ops)
        workloads.append(bench_workload(
            f"random-{n_ops}", graph, reps,
            extra={"generator": {
                "seed": 1990 + n_ops, "n_ops": n_ops,
                "edge_probability": min(0.15, 40 / n_ops),
                "unbounded_probability": 0.15,
                "n_min_constraints": n_ops // 8,
                "n_max_constraints": n_ops // 16,
            }}))
        print(f"{workloads[-1]['name']:<16} schedule_graph "
              f"{workloads[-1]['stages']['schedule_graph']['speedup']:>6.2f}x")

    headline = next((w for w in workloads if w["name"] == "random-400"), None)
    report = {
        "meta": {
            "schema": 1,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "quick": args.quick,
            "repeats": reps,
            "timer": "min over repetitions, cache-cold graph.copy() per rep",
        },
        "workloads": workloads,
    }
    if headline is not None:
        report["headline"] = {
            "workload": "random-400",
            "stage": "schedule_graph",
            "speedup": headline["stages"]["schedule_graph"]["speedup"],
        }
        print(f"\nheadline: random-400 schedule_graph "
              f"{report['headline']['speedup']}x "
              f"(indexed {headline['stages']['schedule_graph']['indexed_ms']} ms, "
              f"reference {headline['stages']['schedule_graph']['reference_ms']} ms)")
    output = args.output or REPO_ROOT / "BENCH_core.json"
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
