"""The one schedule certificate (:func:`repro.core.indexed.offset_violation`).

* Witness differential: below, at and above the kernel's numpy gate,
  with numpy present and switched off, ``RelativeSchedule.validate()``
  names the same witness as the dict scan of :mod:`repro.qa.reference`
  for every corrupted offset cell, and passes whenever the scan passes.
* Self-certification: a kernel that ignores every maximum constraint
  cannot hand out a schedule; the certificate inside
  :func:`repro.core.indexed.schedule_offsets` stops it.
* The Fig. 10 trace comes from the indexed kernel in one run.
"""

import dataclasses
import random

import pytest

from repro import (
    AnchorMode,
    ConstraintGraph,
    IterativeIncrementalScheduler,
    UNBOUNDED,
    schedule_graph,
)
from repro.analysis.figures import fig10_matches_paper, fig10_trace
from repro.core import indexed
from repro.core.exceptions import ScheduleViolationError
from repro.core.graph import EdgeKind
from repro.core.incremental import reschedule_with_observed
from repro.designs.random_graphs import random_constraint_graph
from repro.observability import build_report, trace_run
from repro.qa.reference import offset_violation_reference

#: Cells corrupted per schedule (a seeded sample of the positive ones).
CELLS = 12


def random_graph(n_vertices: int) -> ConstraintGraph:
    n_ops = n_vertices - 2  # plus source and sink
    return random_constraint_graph(
        random.Random(1990 + n_vertices), n_ops,
        edge_probability=min(0.15, 40 / n_ops),
        unbounded_probability=0.15,
        n_min_constraints=n_ops // 8,
        n_max_constraints=n_ops // 16)


@pytest.mark.parametrize("use_numpy", [True, False],
                         ids=["numpy", "scalar"])
@pytest.mark.parametrize("mode", [AnchorMode.FULL, AnchorMode.IRREDUNDANT],
                         ids=lambda mode: mode.value)
@pytest.mark.parametrize("n_vertices", [10, 40, 64, 100, 200])
def test_witness_matches_the_reference_scan(n_vertices, mode, use_numpy,
                                            monkeypatch):
    if use_numpy and indexed._np is None:
        pytest.skip("numpy is not installed")
    schedule = schedule_graph(random_graph(n_vertices), anchor_mode=mode)
    graph = schedule.graph
    assert len(graph.vertex_names()) == n_vertices
    if not use_numpy:
        monkeypatch.setattr(indexed, "_np", None)
    schedule.validate()

    rng = random.Random(f"{n_vertices}/{mode.value}")
    cells = [(vertex, anchor) for vertex, entries in schedule.offsets.items()
             for anchor, sigma in entries.items() if sigma > 0]
    caught = 0
    for vertex, anchor in rng.sample(cells, min(CELLS, len(cells))):
        offsets = {v: dict(entries) for v, entries in schedule.offsets.items()}
        offsets[vertex][anchor] -= rng.randint(1, offsets[vertex][anchor])
        corrupted = dataclasses.replace(schedule, offsets=offsets)
        expected = offset_violation_reference(graph, offsets)
        if expected is None:
            # Lowered below an edge no shared anchor constrains.
            corrupted.validate()
            continue
        with pytest.raises(ScheduleViolationError) as raised:
            corrupted.validate()
        assert raised.value.violation == expected
        caught += 1
    assert caught


class TestPacking:
    @pytest.fixture
    def schedule(self, fig2_graph):
        return schedule_graph(fig2_graph, anchor_mode=AnchorMode.FULL)

    def test_unknown_vertex(self, schedule):
        schedule.offsets["zz"] = {"v0": 0}
        with pytest.raises(ValueError, match="unknown vertex 'zz'"):
            schedule.validate()

    def test_non_anchor_tag(self, schedule):
        schedule.offsets["v3"]["v1"] = 0
        with pytest.raises(ValueError, match="'v1' of 'v3' is not an anchor"):
            schedule.validate()

    def test_negative_offset(self, schedule):
        schedule.offsets["v2"]["v0"] = -1
        with pytest.raises(ValueError, match="negative offset -1"):
            schedule.validate()


def readjusting_graph() -> ConstraintGraph:
    """``make_readjusting_graph`` of ``tests/core/test_scheduler.py``:
    the max constraint ``sigma(y) <= sigma(x) + 2`` must drag x to 4."""
    g = ConstraintGraph(source="s", sink="t")
    g.add_operation("x", 1)
    g.add_operation("y", 2)
    g.add_operation("slow", 6)
    g.add_sequencing_edges([("s", "x"), ("x", "y"), ("s", "slow"),
                            ("slow", "y"), ("y", "t")])
    g.add_max_constraint("x", "y", 2)
    return g


def anchored_readjusting_graph() -> ConstraintGraph:
    """The same shape behind an unbounded anchor ``a``: observing a's
    delay lengthens the slow branch, so the rebound schedule must drag
    x again."""
    g = ConstraintGraph(source="s", sink="t")
    g.add_operation("a", UNBOUNDED)
    g.add_operation("x", 1)
    g.add_operation("y", 2)
    g.add_operation("slow", 6)
    g.add_sequencing_edges([("s", "a"), ("a", "x"), ("x", "y"),
                            ("a", "slow"), ("slow", "y"), ("y", "t")])
    g.add_max_constraint("x", "y", 2)
    return g


@pytest.fixture
def ignore_max_constraints(monkeypatch):
    """Plant a kernel bug on call: every compiled graph loses its
    backward edges, so the scheduler never readjusts."""
    real = indexed.get_indexed

    def sabotaged(graph):
        idx = real(graph)
        idx.backward = []
        return idx

    return lambda: monkeypatch.setattr(indexed, "get_indexed", sabotaged)


def assert_names_the_max_constraint(raised):
    violation = raised.value.violation
    assert violation.edge.kind is EdgeKind.MAX_TIME
    assert (violation.edge.tail, violation.edge.head) == ("y", "x")


class TestSelfCertification:
    def test_run_refuses_a_broken_fixpoint(self, ignore_max_constraints):
        ignore_max_constraints()
        scheduler = IterativeIncrementalScheduler(readjusting_graph())
        with pytest.raises(ScheduleViolationError) as raised:
            scheduler.run()
        assert_names_the_max_constraint(raised)
        assert raised.value.violation.head_offset == 0  # x never dragged

    def test_rebound_schedule_refuses_a_broken_fixpoint(
            self, ignore_max_constraints):
        schedule = schedule_graph(anchored_readjusting_graph(),
                                  anchor_mode=AnchorMode.FULL)
        assert schedule.offset("x", "a") == 4
        ignore_max_constraints()
        with pytest.raises(ScheduleViolationError) as raised:
            reschedule_with_observed(schedule, {"a": 3})
        assert_names_the_max_constraint(raised)

    def test_rebound_schedule_is_exact_without_sabotage(self):
        schedule = schedule_graph(anchored_readjusting_graph(),
                                  anchor_mode=AnchorMode.FULL)
        rebound = reschedule_with_observed(schedule, {"a": 3})
        # slow ends at 3 + 6 = 9, so y starts at 9 and x at 9 - 2.
        assert rebound.offset("x", "s") == 7
        assert rebound.offset("y", "s") == 9


class TestTracedRun:
    def test_fig10_trace_is_one_indexed_run(self):
        with trace_run() as tracer:
            trace, schedule = fig10_trace()
        kernel = build_report(tracer)["kernel"]
        assert kernel["indexed_runs"] == 1
        assert kernel["reference_runs"] == 0
        assert trace.iterations == schedule.iterations == 3
        assert fig10_matches_paper()

    def test_trace_names_the_violated_max_constraint(self):
        scheduler = IterativeIncrementalScheduler(readjusting_graph(),
                                                  record_trace=True)
        scheduler.run()
        first = scheduler.trace.records[0]
        assert [(edge.tail, edge.head, anchor)
                for edge, anchor in first.violations] == [("y", "x", "s")]
        assert first.computed["x"] == {"s": 0}
        assert first.readjusted["x"] == {"s": 4}

    def test_validation_span_nests_under_scheduling(self, fig2_graph):
        with trace_run() as tracer:
            schedule_graph(fig2_graph)
        spans = build_report(tracer)["spans"]
        names = [span["name"] for span in spans]
        validation = spans[names.index("pipeline.validation")]
        assert spans[validation["parent"]]["name"] == "pipeline.scheduling"
