"""Unit tests for :class:`repro.runtime.OnlineExecutor`.

Every committed issue cycle must equal the static schedule evaluated at
the observed delay profile (anomaly freedom); spurious, duplicate and
malformed events must be classified exactly as the simulators classify
them; watchdog boundaries must match the cycle-accurate semantics.
"""

import random

import pytest

import repro.core.indexed as indexed_module
from repro.core.anchors import AnchorMode
from repro.core.delay import UNBOUNDED
from repro.core.exceptions import MalformedInputError, WatchdogTimeoutError
from repro.core.graph import ConstraintGraph
from repro.core.scheduler import IterativeIncrementalScheduler, schedule_graph
from repro.core.watchdog import WatchdogConfig, WatchdogPolicy
from repro.designs.random_graphs import random_constraint_graph
from repro.resilience.guard import guarded_schedule
from repro.runtime import CompletionEvent, OnlineExecutor, execute_stream


def chain_graph():
    """source -> load(1) -> io(unbounded) -> mul(2) -> store(1) -> sink."""
    graph = ConstraintGraph()
    for name, delay in [("load", 1), ("io", UNBOUNDED), ("mul", 2),
                        ("store", 1)]:
        graph.add_operation(name, delay)
    graph.add_sequencing_edges([("load", "io"), ("io", "mul"),
                                ("mul", "store")])
    graph.make_polar()
    return graph


def chain_schedule(**kwargs):
    return schedule_graph(chain_graph(), anchor_mode=AnchorMode.FULL,
                          **kwargs)


def double_graph():
    """Two chained unbounded anchors: io2 is gated by io1's completion."""
    graph = ConstraintGraph()
    graph.add_operation("io1", UNBOUNDED)
    graph.add_operation("io2", UNBOUNDED)
    graph.add_operation("out", 1)
    graph.add_sequencing_edges([("io1", "io2"), ("io2", "out")])
    graph.make_polar()
    return graph


def stream_for(schedule, profile):
    """The complete, cycle-ordered event stream *profile* would emit.

    Same-cycle ties stream in forward topological order, like a real
    environment: a gating anchor's completion precedes a dependent's
    zero-delay completion on the same cycle.
    """
    done = schedule.start_times(profile)
    order = {name: position for position, name
             in enumerate(schedule.graph.forward_topological_order())}
    source = schedule.graph.source
    triples = sorted((done[a] + profile.get(a, 0), order[a], a)
                     for a in schedule.graph.anchors if a != source)
    return [CompletionEvent(anchor, cycle) for cycle, _, anchor in triples]


class TestAnomalyFreedom:
    @pytest.mark.parametrize("delay", [0, 1, 3, 17])
    def test_issues_equal_static_start_times(self, delay):
        schedule = chain_schedule()
        profile = {"io": delay}
        log = OnlineExecutor(schedule).run(stream_for(schedule, profile))
        assert log.complete
        assert log.issues == schedule.start_times(profile)

    def test_random_graphs_any_profile(self):
        rng = random.Random(42)
        checked = 0
        while checked < 8:
            graph = random_constraint_graph(
                rng, rng.randint(12, 40),
                edge_probability=0.15, unbounded_probability=0.3)
            try:
                schedule = guarded_schedule(graph,
                                            anchor_mode=AnchorMode.FULL)
            except Exception:
                continue
            anchors = [a for a in schedule.graph.anchors
                       if a != schedule.graph.source]
            if not anchors:
                continue
            profile = {a: rng.randint(0, 9) for a in anchors}
            log = OnlineExecutor(schedule).run(stream_for(schedule, profile))
            assert log.complete
            assert log.issues == schedule.start_times(profile)
            checked += 1

    def test_feeding_a_stream_runs_no_scheduler(self, monkeypatch):
        # The static offsets are valid for every profile, so neither
        # feed() nor close() may solve anything.
        rng = random.Random(5)
        graph = random_constraint_graph(
            rng, 40, edge_probability=0.15, unbounded_probability=0.35)
        schedule = guarded_schedule(graph, anchor_mode=AnchorMode.FULL)
        anchors = [a for a in schedule.graph.anchors
                   if a != schedule.graph.source]
        assert len(anchors) >= 2
        profile = {a: rng.randint(0, 9) for a in anchors}
        events = stream_for(schedule, profile)

        def no_solve(*args, **kwargs):
            raise AssertionError("the executor ran a scheduler")

        monkeypatch.setattr(indexed_module, "schedule_offsets", no_solve)
        monkeypatch.setattr(IterativeIncrementalScheduler, "run_from",
                            no_solve)
        executor = OnlineExecutor(schedule)
        for event in events:
            executor.feed(event)
        log = executor.close()
        assert log.complete
        assert log.issues == schedule.start_times(profile)
        assert log.events == len(events)
        assert log.reschedules == 0

    def test_source_done_shifts_everything(self):
        schedule = chain_schedule()
        base = OnlineExecutor(schedule).run(stream_for(schedule, {"io": 2}))
        shifted = OnlineExecutor(schedule, source_done=5)
        log = shifted.run(CompletionEvent(e.anchor, e.cycle + 5)
                          for e in stream_for(schedule, {"io": 2}))
        assert log.complete
        source = schedule.graph.source
        # The source issues at the run origin; everything downstream of
        # its delayed activation handshake shifts with it.
        assert log.done[source] == 5
        assert {v: c for v, c in log.issues.items() if v != source} \
            == {v: c + 5 for v, c in base.issues.items() if v != source}

    def test_observed_property(self):
        schedule = chain_schedule()
        executor = OnlineExecutor(schedule)
        executor.run(stream_for(schedule, {"io": 4}))
        assert executor.observed == {"io": 4}

    def test_orphan_anchor_keeps_its_dependents_anchored(self):
        # Regression: a well-posed but non-polar graph may hold an
        # anchor with no forward path from the source.  Binding it
        # empties its dependents' anchor sets, and the rebound offsets
        # representation has no anchor left to carry their absolute
        # starts -- issuing must therefore follow the *static* offsets,
        # which stay exact for every profile.
        graph = ConstraintGraph()
        graph.add_operation("io", UNBOUNDED)
        graph.add_operation("out", 2)
        graph.add_sequencing_edge("io", "out")  # deliberately not polar
        schedule = schedule_graph(graph, anchor_mode=AnchorMode.FULL)
        assert schedule.offsets["out"] == {"io": 0}
        log = OnlineExecutor(schedule).run([CompletionEvent("io", 7)])
        assert log.complete
        assert log.issues["out"] == 7
        assert log.issues == schedule.start_times({"io": 7})

    def test_execute_stream_convenience(self):
        schedule = chain_schedule()
        pairs = [(e.anchor, e.cycle) for e in stream_for(schedule, {"io": 1})]
        log = execute_stream(schedule, pairs)
        assert log.to_dict() == OnlineExecutor(schedule).run(
            stream_for(schedule, {"io": 1})).to_dict()


class TestEventClassification:
    def test_zero_delay_completion_on_start_cycle_is_genuine(self):
        schedule = chain_schedule()
        start = schedule.start_times({})["io"]
        executor = OnlineExecutor(schedule)
        executor.feed(CompletionEvent("io", start))
        assert executor.log.done["io"] == start
        assert executor.log.spurious_rejections == 0

    def test_pulse_on_start_cycle_is_rejected(self):
        # The done latch arms at the *end* of the start cycle: a bare
        # pulse landing on the start cycle itself is detectably bogus.
        schedule = chain_schedule()
        start = schedule.start_times({})["io"]
        executor = OnlineExecutor(schedule)
        executor.feed(CompletionEvent("io", start), pulse=True)
        assert "io" not in executor.log.done
        assert executor.log.spurious_rejections == 1

    def test_event_before_issue_is_spurious(self):
        schedule = schedule_graph(double_graph(),
                                  anchor_mode=AnchorMode.FULL)
        executor = OnlineExecutor(schedule)
        # io2 is gated by io1, so it has not been issued yet.
        executor.feed(CompletionEvent("io2", 0))
        assert executor.log.spurious_rejections == 1
        assert "io2" not in executor.log.done

    def test_duplicate_completion_is_absorbed(self):
        schedule = chain_schedule()
        start = schedule.start_times({})["io"]
        executor = OnlineExecutor(schedule)
        executor.feed(CompletionEvent("io", start + 1))
        executor.feed(CompletionEvent("io", start + 4))
        assert executor.log.duplicates == 1
        assert executor.log.done["io"] == start + 1

    def test_unknown_anchor_rejected(self):
        executor = OnlineExecutor(chain_schedule())
        with pytest.raises(MalformedInputError):
            executor.feed(CompletionEvent("ghost", 3))

    def test_bounded_operation_is_not_an_anchor(self):
        executor = OnlineExecutor(chain_schedule())
        with pytest.raises(MalformedInputError):
            executor.feed(CompletionEvent("mul", 3))

    @pytest.mark.parametrize("cycle", [-1, True, 2.5, None])
    def test_non_negative_int_cycles_only(self, cycle):
        executor = OnlineExecutor(chain_schedule())
        with pytest.raises(MalformedInputError):
            executor.feed(CompletionEvent("io", cycle))

    def test_out_of_order_stream_rejected(self):
        schedule = schedule_graph(double_graph(),
                                  anchor_mode=AnchorMode.FULL)
        executor = OnlineExecutor(schedule)
        executor.feed(CompletionEvent("io1", 5))
        with pytest.raises(MalformedInputError):
            executor.feed(CompletionEvent("io2", 3))

    def test_feed_after_close_raises(self):
        executor = OnlineExecutor(chain_schedule())
        executor.close()
        with pytest.raises(RuntimeError):
            executor.feed(CompletionEvent("io", 0))

    def test_close_is_idempotent(self):
        executor = OnlineExecutor(chain_schedule())
        assert executor.close() is executor.close()

    def test_missing_completion_without_watchdog_stalls(self):
        schedule = chain_schedule()
        log = OnlineExecutor(schedule).run([])
        assert not log.complete
        assert log.stalled == ["io"]
        assert set(log.unissued) == {"mul", "store",
                                     schedule.graph.sink}


class TestWatchdogBoundaries:
    def wd(self, **kwargs):
        return WatchdogConfig(bounds={"io": kwargs.pop("bound", 3)},
                              **kwargs)

    def test_completion_at_exact_bound_is_in_time(self):
        schedule = chain_schedule()
        start = schedule.start_times({})["io"]
        log = OnlineExecutor(schedule, watchdog=self.wd()).run(
            [CompletionEvent("io", start + 3)])
        assert log.complete
        assert not log.timeouts

    def test_completion_one_past_bound_aborts(self):
        schedule = chain_schedule()
        start = schedule.start_times({})["io"]
        executor = OnlineExecutor(schedule, watchdog=self.wd())
        with pytest.raises(WatchdogTimeoutError) as info:
            executor.feed(CompletionEvent("io", start + 4))
        assert info.value.anchor == "io"
        assert info.value.cycle == start + 3

    def test_missing_completion_aborts_at_close(self):
        executor = OnlineExecutor(chain_schedule(), watchdog=self.wd())
        with pytest.raises(WatchdogTimeoutError):
            executor.run([])

    def test_retry_recovers_inside_rearm_window(self):
        schedule = chain_schedule()
        start = schedule.start_times({})["io"]
        config = self.wd(bound=2, policy=WatchdogPolicy.RETRY,
                         max_rearms=1, backoff=2)
        # First window ends at start+2; the re-arm window spans
        # 2 * 2**1 = 4 more cycles, so start+5 is a recovery.
        log = OnlineExecutor(schedule, watchdog=config).run(
            [CompletionEvent("io", start + 5)])
        assert log.complete
        assert log.rearms == {"io": 1}
        assert [t.rearm for t in log.timeouts] == [0]

    def test_retry_exhaustion_escalates_to_abort(self):
        schedule = chain_schedule()
        start = schedule.start_times({})["io"]
        config = self.wd(bound=2, policy=WatchdogPolicy.RETRY,
                         max_rearms=1, backoff=2)
        executor = OnlineExecutor(schedule, watchdog=config)
        with pytest.raises(WatchdogTimeoutError) as info:
            executor.run([CompletionEvent("io", start + 7)])
        assert info.value.rearms == 1

    def test_fallback_degrades_to_worst_case(self):
        from repro.baselines.worst_case import worst_case_schedule

        schedule = chain_schedule()
        start = schedule.start_times({})["io"]
        config = self.wd(bound=2, policy=WatchdogPolicy.FALLBACK)
        executor = OnlineExecutor(schedule, watchdog=config)
        executor.feed(CompletionEvent("io", start + 9))
        assert executor.log.degraded
        # A degraded (but not yet closed) run absorbs further events
        # without effect: the static fallback already committed.
        executor.feed(CompletionEvent("io", start + 11))
        assert executor.log.duplicates == 0
        log = executor.close()
        outcome = worst_case_schedule(schedule.graph, config.budget())
        assert log.issues == dict(outcome.start_times)

    def test_schedule_attached_bounds_are_the_default_config(self):
        graph = chain_graph()
        schedule = schedule_graph(graph, anchor_mode=AnchorMode.FULL,
                                  watchdog={"io": 3})
        executor = OnlineExecutor(schedule)
        assert executor.watchdog is not None
        assert executor.watchdog.bounds == {"io": 3}
        assert executor.watchdog.policy is WatchdogPolicy.ABORT


class TestReboundSchedule:
    @pytest.mark.parametrize("mode", [AnchorMode.FULL,
                                      AnchorMode.IRREDUNDANT])
    def test_rebound_schedule_matches_scratch_after_every_prefix(self, mode):
        # executor.schedule folds the observed delays into the graph;
        # after every prefix it must equal a from-scratch run on the
        # rebound graph, offsets and anchor sets alike.
        rng = random.Random(9)
        checked = 0
        while checked < 4:
            graph = random_constraint_graph(
                rng, rng.randint(15, 45),
                edge_probability=0.15, unbounded_probability=0.35)
            try:
                schedule = guarded_schedule(graph, anchor_mode=mode)
            except Exception:
                continue
            anchors = [a for a in schedule.graph.anchors
                       if a != schedule.graph.source]
            if len(anchors) < 2:
                continue
            profile = {a: rng.randint(0, 6) for a in anchors}
            executor = OnlineExecutor(schedule)
            for event in stream_for(schedule, profile):
                executor.feed(event)
                rebound = schedule.graph.copy()
                for anchor, delay in executor.observed.items():
                    rebound.bind_anchor_delay(anchor, delay)
                scratch = schedule_graph(rebound, anchor_mode=mode)
                current = executor.schedule
                assert current.offsets == scratch.offsets
                assert current.anchor_sets == scratch.anchor_sets
            assert executor.observed == profile
            # Issue cycles are mode-invariant (Theorem 6).
            assert executor.close().issues == schedule.start_times(profile)
            checked += 1
