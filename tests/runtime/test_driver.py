"""The executor against the cycle-accurate simulators.

:func:`repro.runtime.driver.replay_faults` runs one environment through
both implementations and diffs them field by field; any mismatch is a
silent anomaly.  These tests pin the differential on handcrafted
boundary cases and on a seeded slice of the chaos campaign (CI runs the
full 200-event campaign in the ``runtime-smoke`` job).
"""

import random

from repro.core.anchors import AnchorMode
from repro.core.delay import UNBOUNDED
from repro.core.graph import ConstraintGraph
from repro.core.scheduler import schedule_graph
from repro.core.watchdog import WatchdogConfig, WatchdogPolicy
from repro.resilience.faults import Fault, FaultKind, FaultPlan, run_with_faults
from repro.runtime import OnlineExecutor, drive, events_from_result, replay_faults
from repro.runtime.chaos import run_campaign


def chain_graph():
    graph = ConstraintGraph()
    for name, delay in [("load", 1), ("io", UNBOUNDED), ("mul", 2),
                        ("store", 1)]:
        graph.add_operation(name, delay)
    graph.add_sequencing_edges([("load", "io"), ("io", "mul"),
                                ("mul", "store")])
    graph.make_polar()
    return graph


def tie_graph():
    """Two chained zero-delay-capable anchors whose names sort against
    the dependency order: ``a_second`` is gated by ``z_first``, so a
    name-ordered tie-break would stream the dependent's completion
    before its gate's."""
    graph = ConstraintGraph()
    graph.add_operation("z_first", UNBOUNDED)
    graph.add_operation("a_second", UNBOUNDED)
    graph.add_operation("out", 1)
    graph.add_sequencing_edges([("z_first", "a_second"),
                                ("a_second", "out")])
    graph.make_polar()
    return graph


class TestDrive:
    def test_fault_free_drive_matches_static_schedule(self):
        schedule = schedule_graph(chain_graph(),
                                  anchor_mode=AnchorMode.FULL)
        profile = {"io": 4}
        log = drive(schedule, profile)
        assert log.complete
        assert log.issues == schedule.start_times(profile)

    def test_drive_covers_runs_the_simulator_would_hang_on(self):
        # A stalled anchor with no watchdog hangs the cycle-accurate
        # simulator; the event-driven executor just closes with the
        # stall recorded.
        from repro.core.delay import STALLED

        schedule = schedule_graph(chain_graph(),
                                  anchor_mode=AnchorMode.FULL)
        log = drive(schedule, {"io": STALLED})
        assert not log.complete
        assert log.stalled == ["io"]


class TestEventsFromResult:
    def test_replayed_stream_reproduces_the_simulation(self):
        schedule = schedule_graph(chain_graph(),
                                  anchor_mode=AnchorMode.FULL)
        profile = {"io": 3}
        sim = run_with_faults(schedule, profile, FaultPlan())
        events = events_from_result(schedule, sim.result)
        log = OnlineExecutor(schedule).run(events)
        assert log.complete
        assert log.issues == dict(sim.result.start_times)
        assert log.done == dict(sim.result.done_times)

    def test_same_cycle_ties_stream_in_topological_order(self):
        # Regression: with zero observed delays, gate and dependent
        # complete on the same cycle; a (cycle, name)-sorted stream
        # would emit 'a_second' before its gate 'z_first' and the
        # executor would reject it as spurious, leaving the run
        # incomplete.
        schedule = schedule_graph(tie_graph(), anchor_mode=AnchorMode.FULL)
        sim = run_with_faults(schedule, {}, FaultPlan())
        events = events_from_result(schedule, sim.result)
        done = dict(sim.result.done_times)
        assert done["z_first"] == done["a_second"]  # a genuine tie
        assert [e.anchor for e in events] == ["z_first", "a_second"]
        log = OnlineExecutor(schedule).run(events)
        assert log.complete
        assert log.spurious_rejections == 0
        assert log.issues == dict(sim.result.start_times)


class TestReplayDifferential:
    def make_schedule(self):
        return schedule_graph(chain_graph(), anchor_mode=AnchorMode.FULL)

    def test_clean_run_is_equivalent(self):
        replay = replay_faults(self.make_schedule(), {"io": 2})
        assert replay.equivalent, replay.mismatches

    def test_late_fault_under_abort_aborts_both_sides(self):
        plan = FaultPlan((Fault(FaultKind.LATE, "io", 5),))
        config = WatchdogConfig(bounds={"io": 2})
        replay = replay_faults(self.make_schedule(), {"io": 1}, plan,
                               watchdog=config)
        assert replay.equivalent, replay.mismatches
        assert replay.error is not None
        assert replay.sim.error is not None

    def test_retry_recovery_is_equivalent(self):
        plan = FaultPlan((Fault(FaultKind.LATE, "io", 3),))
        config = WatchdogConfig(bounds={"io": 2},
                                policy=WatchdogPolicy.RETRY,
                                max_rearms=2, backoff=2)
        replay = replay_faults(self.make_schedule(), {"io": 1}, plan,
                               watchdog=config)
        assert replay.equivalent, replay.mismatches
        assert replay.log is not None and replay.log.rearms

    def test_fallback_degradation_is_equivalent(self):
        plan = FaultPlan((Fault(FaultKind.DROP, "io"),))
        config = WatchdogConfig(bounds={"io": 2},
                                policy=WatchdogPolicy.FALLBACK)
        replay = replay_faults(self.make_schedule(), {"io": 1}, plan,
                               watchdog=config)
        assert replay.equivalent, replay.mismatches
        assert replay.log is not None and replay.log.degraded

    def test_spurious_pulse_is_equivalent(self):
        schedule = self.make_schedule()
        start = schedule.start_times({})["io"]
        plan = FaultPlan((Fault(FaultKind.SPURIOUS, "io", start),))
        replay = replay_faults(schedule, {"io": 2}, plan)
        assert replay.equivalent, replay.mismatches
        assert replay.log.spurious_rejections == 1

    def test_seeded_campaign_slice_has_no_silent_anomalies(self):
        # A deterministic slice of what the CI runtime-smoke job runs
        # at 200 events; anomalies list the diverging fields per seed.
        stats = run_campaign(start_seed=1, events=60)
        assert stats.silent == 0, stats.anomalies
        assert stats.events >= 60

    def test_campaign_covers_every_policy_outcome(self):
        rng = random.Random(0)
        seen = set()
        stats = run_campaign(start_seed=rng.randint(0, 10), events=80)
        if stats.completed:
            seen.add("completed")
        if stats.aborted:
            seen.add("aborted")
        if stats.degraded:
            seen.add("degraded")
        assert "completed" in seen
        assert len(seen) >= 2, stats.summary()
