"""The readiness index and the appended-entry batch delta, pinned
against the implementations they replaced.

:class:`RescanExecutor` keeps the executor's former readiness rule:
every accepted completion rescans every pending operation and each of
its anchors.  :func:`rescan_apply_batch` keeps the former batch delta:
copy the log's issue and done maps, feed the batch, diff all of them.

Seeded graphs -- the regression corpus and the qa generators, in all
three anchor modes -- drive both versions through cycle-ordered streams
with same-cycle ties, duplicates, spurious and bare ``pulse=True``
events and missing completions, with no watchdog and under RETRY,
FALLBACK and ABORT.  After every event (or batch of 1-4 events) the two
must agree on ``state_snapshot()`` and on the JSON bytes of the
acknowledgement body.
"""

import json
import random
from collections import Counter
from pathlib import Path

import pytest

from repro.core.anchors import AnchorMode
from repro.core.delay import UNBOUNDED, is_unbounded
from repro.core.exceptions import ConstraintGraphError, WatchdogTimeoutError
from repro.core.graph import ConstraintGraph
from repro.core.scheduler import schedule_graph
from repro.core.watchdog import WatchdogConfig, WatchdogPolicy
from repro.qa.generators import SCENARIOS
from repro.qa.serialize import graph_from_dict, load_repro
from repro.runtime.driver import static_completion_events
from repro.runtime.events import CompletionEvent, ExecutionLog, IssueRecord
from repro.runtime.executor import OnlineExecutor
from repro.runtime.journal import BatchOutcome, apply_batch, validate_batch
from repro.service.sessions import outcome_response

REGRESSIONS = sorted(
    (Path(__file__).parent.parent / "qa" / "regressions").glob("*.json"))
GENERATOR_SEEDS = range(8)
POLICIES = [None, WatchdogPolicy.RETRY, WatchdogPolicy.FALLBACK,
            WatchdogPolicy.ABORT]


class RescanExecutor(OnlineExecutor):
    """The former readiness rule: rescan everything on every event."""

    def __init__(self, schedule, *, watchdog=None, source_done=0):
        if watchdog is None and schedule.watchdog:
            watchdog = WatchdogConfig(bounds=schedule.watchdog)
        self.static = schedule
        self.watchdog = watchdog
        self.log = ExecutionLog()
        self._source = schedule.graph.source
        self._anchors = set(schedule.graph.anchors)
        self._static_delta = {v.name: v.delay
                              for v in schedule.graph.vertices()}
        self._done = {self._source: source_done}
        self._pending = [v for v in schedule.graph.forward_topological_order()
                         if v != self._source]
        self._deadlines = {}
        self._arm_seq = {}
        self._armed = 0
        self._max_start = max(0, source_done)
        self._stream_clock = 0
        self._closed = False
        self._feed_seconds = 0.0
        self.log.issues[self._source] = 0
        self.log.done[self._source] = source_done
        self.log.cycles = max(0, source_done)
        self._rescan(-1)

    def _issue_ready(self, anchor, event_index):
        self._rescan(event_index)

    def _rescan(self, event_index):
        offsets = self.static.offsets
        done = self._done
        still = []
        for vertex in self._pending:
            terms = offsets.get(vertex, {})
            if all(a in done for a in terms):
                start = max((done[a] + sigma for a, sigma in terms.items()),
                            default=0)
                self._commit(vertex, start, event_index)
            else:
                still.append(vertex)
        self._pending = still
        if not self._pending and self._deadlines:
            self._advance(self._max_start + 1)
            if not self.log.degraded:
                self._deadlines.clear()

    def _commit(self, vertex, start, event_index):
        self.log.issues[vertex] = start
        self.log.issue_order.append(IssueRecord(vertex, start, event_index))
        self.log.cycles = max(self.log.cycles, start)
        self._max_start = max(self._max_start, start)
        delta = self._static_delta[vertex]
        if not is_unbounded(delta):
            self.log.done[vertex] = start + delta
            self.log.cycles = max(self.log.cycles, start + delta)
        elif self.watchdog is not None:
            bound = self.watchdog.bound_for(vertex)
            if bound is not None:
                self._deadlines[vertex] = start + bound
                self._arm_seq[vertex] = self._armed
                self._armed += 1


def rescan_apply_batch(executor, seq, events):
    """The former batch delta: diff full copies of the log's maps."""
    log = executor.log
    issues_before = dict(log.issues)
    done_before = dict(log.done)
    timeouts_before = len(log.timeouts)
    outcome = BatchOutcome(seq=seq)
    try:
        for anchor, cycle in events:
            executor.feed(CompletionEvent(anchor, cycle))
    except WatchdogTimeoutError as error:
        outcome.error = type(error).__name__
        outcome.error_message = str(error)
    outcome.issues = {op: cycle for op, cycle in log.issues.items()
                      if issues_before.get(op) != cycle}
    outcome.done = {op: cycle for op, cycle in log.done.items()
                    if done_before.get(op) != cycle}
    outcome.timeouts = [
        {"anchor": t.anchor, "cycle": t.cycle, "bound": t.bound,
         "rearm": t.rearm}
        for t in log.timeouts[timeouts_before:]]
    outcome.degraded = log.degraded
    outcome.complete = not executor._pending
    outcome.cycles = log.cycles
    return outcome


# -- seeded inputs -----------------------------------------------------


def with_dangling_anchors(graph, rng):
    """*graph* plus anchors with no path to the sink, some with a
    bounded successor: every other operation can issue while such an
    anchor still runs, which reaches the executor's end-of-issue
    watchdog handling."""
    graph = graph.copy()
    tails = [v for v in graph.vertex_names() if v != graph.sink]
    for k in range(rng.randint(1, 2)):
        anchor = f"dangling{k}"
        graph.add_operation(anchor, UNBOUNDED)
        graph.add_sequencing_edge(rng.choice(tails), anchor)
        if rng.random() < 0.5:
            graph.add_operation(f"after{k}", rng.randint(0, 3))
            graph.add_sequencing_edge(anchor, f"after{k}")
    return graph


def corpus_graphs():
    graphs = [(path.stem, graph_from_dict(load_repro(path)["graph"]))
              for path in REGRESSIONS]
    for seed in GENERATOR_SEEDS:
        for name, builder in SCENARIOS.items():
            graph = builder(random.Random(seed))
            graphs.append((f"{name}-{seed}", graph))
            graphs.append((f"{name}-{seed}-dangling", with_dangling_anchors(
                graph, random.Random(f"dangling-{seed}"))))
    return graphs


def corpus_schedules():
    """(label, schedule) for every corpus graph that schedules, in
    every anchor mode."""
    schedules = []
    for label, graph in corpus_graphs():
        for mode in AnchorMode:
            try:
                schedule = schedule_graph(graph.copy(), anchor_mode=mode)
            except ConstraintGraphError:
                continue
            if len(schedule.graph.anchors) > 1:
                schedules.append((f"{label}-{mode.value}", schedule))
    return schedules


SCHEDULES = corpus_schedules()


def noisy_stream(schedule, rng):
    """A cycle-ordered ``(anchor, cycle, pulse)`` stream: the completions
    of a sampled profile (one sometimes missing), plus duplicates,
    early (spurious) events and bare pulses on an anchor's start cycle;
    half the streams coarsen cycles into same-cycle ties."""
    source = schedule.graph.source
    anchors = [a for a in schedule.graph.anchors if a != source]
    profile = {a: rng.randint(0, 20) for a in anchors}
    real = static_completion_events(schedule, profile)
    if real and rng.random() < 0.3:
        real.pop(rng.randrange(len(real)))
    start = schedule.start_times(profile)
    events = [(anchor, cycle, False) for anchor, cycle in real]
    for _ in range(rng.randint(0, len(anchors) + 2)):
        anchor = rng.choice(anchors)
        draw = rng.random()
        if draw < 0.35:  # a duplicate, at or after the completion
            events.append((anchor, start[anchor] + profile[anchor]
                           + rng.randint(0, 3), False))
        elif draw < 0.7:  # before the anchor can have started
            events.append((anchor, rng.randint(0, max(0, start[anchor] - 1)),
                           rng.random() < 0.5))
        else:  # a bare pulse on the start cycle
            events.append((anchor, start[anchor], True))
    if rng.random() < 0.5:
        quantum = rng.randint(2, 6)
        events = [(a, c - c % quantum, p) for a, c, p in events]
    events.sort(key=lambda event: event[1])
    return events


def watchdog_for(policy, schedule, rng):
    if policy is None:
        return None
    source = schedule.graph.source
    anchors = sorted(a for a in schedule.graph.anchors if a != source)
    bounds = {a: rng.randint(1, 15)
              for a in rng.sample(anchors, rng.randint(1, len(anchors)))}
    kwargs = {"bounds": bounds, "policy": policy}
    if policy is WatchdogPolicy.RETRY:
        kwargs.update(max_rearms=rng.randint(0, 3),
                      backoff=rng.randint(1, 3))
    if policy is WatchdogPolicy.FALLBACK and rng.random() < 0.5:
        kwargs["fallback_budget"] = rng.randint(0, 20)
    return WatchdogConfig(**kwargs)


def pair(schedule, watchdog, source_done=0):
    """Both executors, or None when both abort while construction
    commits the source-gated operations (with the same message)."""
    built, errors = [], []
    for cls in (OnlineExecutor, RescanExecutor):
        try:
            built.append(cls(schedule, watchdog=watchdog,
                             source_done=source_done))
        except WatchdogTimeoutError as error:
            errors.append(str(error))
    assert len(errors) in (0, 2) and len(set(errors)) <= 1, errors
    return None if errors else tuple(built)


def outcome_of(call, *args, **kwargs):
    try:
        call(*args, **kwargs)
    except (WatchdogTimeoutError, RuntimeError) as error:
        return type(error).__name__, str(error)
    return None


def ack_bytes(outcome):
    status, body = outcome_response("s-1", outcome)
    return status, json.dumps(body)


# -- the differential runs ---------------------------------------------


def feed_both(new, old, events):
    """Feed event by event (pulses included); the two must agree after
    every event and at close."""
    for anchor, cycle, pulse in events:
        event = CompletionEvent(anchor, cycle)
        got = outcome_of(new.feed, event, pulse=pulse)
        want = outcome_of(old.feed, event, pulse=pulse)
        assert got == want
        assert new.state_snapshot() == old.state_snapshot()
        if got is not None:
            return
    assert outcome_of(new.close) == outcome_of(old.close)
    assert new.state_snapshot() == old.state_snapshot()
    assert new.log.to_dict() == old.log.to_dict()


def batch_both(new, old, events, rng, seen):
    """Apply 1-4 event batches the way the session service does; the
    acknowledgement bytes and the snapshots must agree after each."""
    events = [(anchor, cycle) for anchor, cycle, _ in events]
    seq = 0
    while events:
        size = rng.randint(1, 4)
        batch, events = events[:size], events[size:]
        validate_batch(new, batch)
        seq += 1
        degraded, consumed = new.log.degraded, new.log.events
        got = apply_batch(new, seq, batch)
        want = rescan_apply_batch(old, seq, batch)
        assert ack_bytes(got) == ack_bytes(want)
        assert new.state_snapshot() == old.state_snapshot()
        if got.degraded and not degraded \
                and new.log.events - consumed < len(batch) - 1:
            seen["fallback mid-batch"] += 1
        if got.error and got.issues:
            seen["abort after commits"] += 1
        if got.error:
            return


@pytest.mark.parametrize("policy", POLICIES,
                         ids=lambda p: p.value if p else "none")
def test_feed_agrees_event_by_event(policy):
    rng = random.Random(f"feed-{policy}")
    for label, schedule in SCHEDULES:
        for _ in range(2):
            watchdog = watchdog_for(policy, schedule, rng)
            executors = pair(schedule, watchdog,
                             source_done=rng.choice([0, 0, 3]))
            stream = noisy_stream(schedule, rng)
            if executors is not None:
                new, old = executors
                assert new.state_snapshot() == old.state_snapshot(), label
                feed_both(new, old, stream)


@pytest.mark.parametrize("policy", POLICIES,
                         ids=lambda p: p.value if p else "none")
def test_batch_acks_agree_byte_for_byte(policy):
    rng = random.Random(f"batch-{policy}")
    seen = Counter()
    for _, schedule in SCHEDULES:
        for _ in range(2):
            watchdog = watchdog_for(policy, schedule, rng)
            executors = pair(schedule, watchdog)
            stream = noisy_stream(schedule, rng)
            if executors is not None:
                batch_both(*executors, stream, rng, seen)
    if policy is WatchdogPolicy.FALLBACK:
        assert seen["fallback mid-batch"] > 0
    if policy is WatchdogPolicy.ABORT:
        assert seen["abort after commits"] > 0


def test_corpus_covers_every_generator_and_mode():
    labels = {label for label, _ in SCHEDULES}
    assert len(REGRESSIONS) >= 1
    for name in SCENARIOS:
        assert any(label.startswith(f"{name}-") for label in labels), name
    for mode in AnchorMode:
        assert any(label.endswith(f"-{mode.value}") for label in labels)


# -- the two batch shapes the delta must get right ---------------------


def two_anchor_chain():
    graph = ConstraintGraph()
    for name, delay in [("load", 1), ("io1", UNBOUNDED), ("mul", 2),
                        ("io2", UNBOUNDED), ("add", 1), ("store", 1)]:
        graph.add_operation(name, delay)
    graph.add_sequencing_edges([("load", "io1"), ("io1", "mul"),
                                ("mul", "io2"), ("io2", "store"),
                                ("load", "add")])
    graph.make_polar()
    return schedule_graph(graph, anchor_mode=AnchorMode.FULL)


def test_fallback_degradation_in_the_middle_of_a_batch():
    schedule = two_anchor_chain()
    io1 = schedule.start_times({})["io1"]
    watchdog = WatchdogConfig(bounds={"io2": 2},
                              policy=WatchdogPolicy.FALLBACK)
    new, old = pair(schedule, watchdog)
    # io1 completes (issuing mul and io2), io2's watchdog fires before
    # the second event, and the third event lands on a degraded run.
    io2 = io1 + 3 + 2
    batch = [("io1", io1 + 3), ("io2", io2 + 10), ("io2", io2 + 11)]
    got = apply_batch(new, 1, batch)
    want = rescan_apply_batch(old, 1, batch)
    assert got.degraded and got.timeouts
    assert new.log.events == 1  # the later events were absorbed
    assert ack_bytes(got) == ack_bytes(want)
    assert new.state_snapshot() == old.state_snapshot()
    # The run stays degraded: a later batch changes nothing.
    got = apply_batch(new, 2, [("io2", io2 + 12)])
    want = rescan_apply_batch(old, 2, [("io2", io2 + 12)])
    assert got.issues == {} and got.done == {}
    assert ack_bytes(got) == ack_bytes(want)


def test_abort_raised_after_commits():
    schedule = two_anchor_chain()
    io1 = schedule.start_times({})["io1"]
    watchdog = WatchdogConfig(bounds={"io2": 1}, policy=WatchdogPolicy.ABORT)
    new, old = pair(schedule, watchdog)
    io2 = io1 + 2 + 2
    batch = [("io1", io1 + 2), ("io2", io2 + 5)]
    got = apply_batch(new, 1, batch)
    want = rescan_apply_batch(old, 1, batch)
    assert got.error == "WatchdogTimeoutError"
    assert {"mul", "io2"} <= set(got.issues)  # committed before the abort
    assert ack_bytes(got) == ack_bytes(want)
    assert ack_bytes(got)[0] == 422
    assert new.state_snapshot() == old.state_snapshot()
