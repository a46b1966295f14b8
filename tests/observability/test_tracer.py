"""The tracer contract: the disabled default is free, the recording
tracer reconciles with the scheduler's own accounting."""

import random
import sys

import pytest

from repro.core.anchors import AnchorMode
from repro.core.graph import ConstraintGraph
from repro.core.reference import schedule_graph_reference
from repro.core.scheduler import IterativeIncrementalScheduler, schedule_graph
from repro.designs.random_graphs import random_constraint_graph
from repro.observability import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    current_tracer,
    set_tracer,
    trace_run,
    use_tracer,
)
from repro.observability.tracer import STATE


def _graph(seed=11, n=100):
    """Big enough for the indexed kernel's vectorized fast path."""
    return random_constraint_graph(
        random.Random(seed), n, edge_probability=0.1,
        unbounded_probability=0.2, n_min_constraints=3, n_max_constraints=3)


class SentinelTracer(NullTracer):
    """A disabled tracer whose recording methods all raise.

    Installed during a scheduling run it proves the guarded-call
    contract: with ``enabled`` False no instrumented site may touch any
    other tracer API -- which also means the disabled path performs zero
    tracer-related allocations (no bound methods, no kwargs dicts, no
    span records).
    """

    __slots__ = ()

    def _boom(self, *args, **kwargs):
        raise AssertionError("tracer method called while disabled")

    begin_span = end_span = span = event = count = add_time = _boom


class TestDisabledPathIsFree:
    def test_hot_paths_never_call_a_disabled_tracer(self):
        graph = _graph()
        with use_tracer(SentinelTracer()):
            schedule = schedule_graph(graph)
        assert schedule.iterations >= 1

    def test_reference_kernel_never_calls_a_disabled_tracer(self):
        graph = _graph(seed=12, n=40)
        with use_tracer(SentinelTracer()):
            schedule = schedule_graph_reference(graph)
        assert schedule.iterations >= 1

    def test_flow_paths_never_call_a_disabled_tracer(self):
        from repro.designs import build_design
        from repro.flows import synthesize

        with use_tracer(SentinelTracer()):
            result = synthesize(build_design("gcd"))
        assert result.schedule is not None

    def test_cache_hit_with_null_tracer_allocates_nothing(self):
        graph = _graph(seed=13, n=80)
        graph.forward_topological_order()  # warm the cache entry
        assert current_tracer() is NULL_TRACER
        before = sys.getallocatedblocks()
        for _ in range(200):
            graph.forward_topological_order()
        growth = sys.getallocatedblocks() - before
        assert growth <= 2, f"cache hits allocated {growth} blocks"


class TestRecordingTracerReconciles:
    @pytest.mark.parametrize("kernel, pipeline", [
        ("indexed", schedule_graph), ("reference", schedule_graph_reference)])
    def test_iteration_counter_matches_schedule(self, kernel, pipeline):
        graph = _graph(seed=21)
        with trace_run() as tracer:
            schedule = pipeline(graph)
        assert tracer.counter("scheduler.iterations") == schedule.iterations
        runs = tracer.events_named("scheduler.run")
        assert len(runs) == 1
        assert runs[0]["iterations"] == schedule.iterations
        assert runs[0]["converged"] is True
        assert runs[0]["kernel"] == kernel
        assert runs[0]["bound"] == len(schedule.graph.backward_edges()) + 1
        iteration_events = tracer.events_named("scheduler.iteration")
        assert len(iteration_events) == schedule.iterations
        assert (sum(e["relaxations"] for e in iteration_events)
                == tracer.counter("scheduler.relaxations"))

    def test_kernels_agree_on_iteration_events(self):
        """Per-round violation counts are kernel-independent."""
        graph = _graph(seed=22)
        stats = {}
        for pipeline in (schedule_graph, schedule_graph_reference):
            with trace_run() as tracer:
                pipeline(graph.copy())
            stats[pipeline] = [
                (e["round"], e["violations"])
                for e in tracer.events_named("scheduler.iteration")]
        assert stats[schedule_graph] == stats[schedule_graph_reference]

    def test_warm_restart_records_zero_relaxations(self):
        graph = _graph(seed=23)
        schedule = schedule_graph(graph)
        scheduler = IterativeIncrementalScheduler(
            schedule.graph.copy(), anchor_mode=AnchorMode.IRREDUNDANT,
            anchor_sets=schedule.anchor_sets)
        with trace_run() as tracer:
            rerun = scheduler.run_from(schedule.offsets)
        assert rerun.offsets == schedule.offsets
        assert tracer.counter("scheduler.relaxations") == 0
        assert tracer.counter("scheduler.iterations") == 1

    def test_cache_counters_follow_version_bumps(self):
        graph = _graph(seed=24, n=30)
        with trace_run() as tracer:
            graph.forward_topological_order()   # may hit or miss (cold)
            base_misses = tracer.counter("cache.miss")
            base_hits = tracer.counter("cache.hit")
            graph.forward_topological_order()   # same version: pure hit
            assert tracer.counter("cache.hit") == base_hits + 1
            assert tracer.counter("cache.miss") == base_misses

            version = graph.version
            probe = graph.add_min_constraint(graph.source, graph.sink, 0)
            graph.remove_edge(probe)
            assert graph.version > version      # mutation bumped the counter

            # The first cached access after the bump drops the stale
            # entries (one invalidation per populated-cache bump) and
            # rebuilds: a miss, not a hit.
            invalidations = tracer.counter("cache.invalidation")
            misses = tracer.counter("cache.miss.topo_order")
            hits = tracer.counter("cache.hit.topo_order")
            graph.forward_topological_order()
            assert tracer.counter("cache.invalidation") >= invalidations + 1
            assert tracer.counter("cache.miss.topo_order") == misses + 1
            assert tracer.counter("cache.hit.topo_order") == hits
            graph.forward_topological_order()   # and hits again once warm
            assert tracer.counter("cache.hit.topo_order") == hits + 1

    def test_wellposed_verdict_events(self):
        from repro.core.wellposed import WellPosedness, check_well_posed

        graph = _graph(seed=25, n=20)
        with trace_run() as tracer:
            status = check_well_posed(graph)
        assert tracer.counter("wellposed.checks") == 1
        events = tracer.events_named("wellposed.verdict")
        assert [e["status"] for e in events] == [status.value]
        assert status in WellPosedness


class TestTracerMechanics:
    def test_default_is_the_null_singleton(self):
        assert current_tracer() is NULL_TRACER
        assert NULL_TRACER.enabled is False

    def test_set_tracer_none_restores_null(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            assert current_tracer() is tracer
        finally:
            set_tracer(previous)
        assert set_tracer(None) is NULL_TRACER
        assert current_tracer() is NULL_TRACER

    def test_use_tracer_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with use_tracer(Tracer()):
                raise RuntimeError("boom")
        assert current_tracer() is NULL_TRACER

    def test_spans_nest_and_time(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.event("mark", value=7)
        assert [s["name"] for s in tracer.spans] == ["outer", "inner"]
        inner = tracer.spans[1]
        assert inner["parent"] == 0
        assert inner["duration_s"] is not None
        assert tracer.events[0]["span"] == 1
        assert tracer.timers["outer"]["count"] == 1

    def test_unbalanced_end_span_is_an_error(self):
        tracer = Tracer()
        with pytest.raises(IndexError):
            tracer.end_span()

    def test_state_slot_tracks_set_tracer(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            assert STATE.tracer is tracer
        finally:
            set_tracer(previous)

    def test_state_attribute_assignment_still_works(self):
        """The attribute facade accepts writes (None restores the null)."""
        tracer = Tracer()
        STATE.tracer = tracer
        try:
            assert current_tracer() is tracer
        finally:
            STATE.tracer = None
        assert current_tracer() is NULL_TRACER


class TestContextIsolation:
    """Concurrent requests must never share or clobber tracers."""

    def test_threads_start_with_the_null_default(self):
        import threading

        seen = []
        with use_tracer(Tracer()):
            thread = threading.Thread(
                target=lambda: seen.append(current_tracer()))
            thread.start()
            thread.join()
        assert seen == [NULL_TRACER]

    def test_concurrent_threads_keep_isolated_tracers(self):
        """N threads each trace their own run; no span/counter cross-talk
        and the totals reconcile per thread, not per process."""
        import threading

        n_threads, per_thread = 8, 5
        graph = _graph(seed=31, n=40)
        start = threading.Barrier(n_threads)
        tracers = [Tracer() for _ in range(n_threads)]
        errors = []

        def work(tracer):
            try:
                start.wait(timeout=30)
                with use_tracer(tracer):
                    for _ in range(per_thread):
                        schedule = schedule_graph(graph.copy())
                        assert current_tracer() is tracer
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)
            else:
                tracer.event("done", iterations=schedule.iterations)

        threads = [threading.Thread(target=work, args=(tracer,))
                   for tracer in tracers]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert current_tracer() is NULL_TRACER
        for tracer in tracers:
            runs = tracer.events_named("scheduler.run")
            assert len(runs) == per_thread
            assert (tracer.counter("scheduler.iterations")
                    == sum(e["iterations"] for e in runs))
            assert len(tracer.events_named("done")) == 1

    def test_nested_use_tracer_restores_by_token(self):
        outer, inner = Tracer(), Tracer()
        with use_tracer(outer):
            with use_tracer(inner):
                assert current_tracer() is inner
            assert current_tracer() is outer
        assert current_tracer() is NULL_TRACER
