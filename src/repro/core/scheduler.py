"""Iterative incremental scheduling (Section IV-E).

The algorithm alternates two phases for at most ``|Eb| + 1`` rounds:

1. **IncrementalOffset** -- relax every forward edge in topological
   order, monotonically raising each per-anchor offset to the longest
   known path length from the anchor (unbounded weights at 0);
2. **ReadjustOffsets** -- for every backward edge ``(t, h)`` with weight
   ``w <= 0`` and every anchor tracked for both endpoints, if
   ``sigma_a(h) < sigma_a(t) + w`` raise ``sigma_a(h)`` by the minimum
   amount to meet the maximum timing constraint.

If a round completes with no violated backward edge the offsets are the
*minimum relative schedule* (Theorem 8 via Lemma 8 and Theorem 3).  If
``|Eb| + 1`` rounds are exhausted the constraints are inconsistent
(Corollary 2) and :class:`InconsistentConstraintsError` is raised.

The scheduler can run with full, relevant, or irredundant anchor sets
(Theorems 4 and 6 make the three equivalent on well-posed graphs).  It
runs on the indexed array kernel of :mod:`repro.core.indexed`, which
certifies its own offsets and records the Fig. 10 trace; the seed's
dict loops in :mod:`repro.qa.reference` are the differential reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import time

from repro.core.anchors import AnchorMode, AnchorSets, anchor_sets_for_mode
from repro.core.exceptions import BudgetExceededError, UnfeasibleConstraintsError
from repro.core.graph import ConstraintGraph, Edge
from repro.core.schedule import RelativeSchedule
from repro.core.wellposed import WellPosedness, check_well_posed, make_well_posed
from repro.observability.tracer import STATE as _OBS

#: Offset state: offsets[vertex][anchor] = sigma_a(vertex).
OffsetState = Dict[str, Dict[str, int]]


@dataclass
class IterationRecord:
    """One scheduler round: the offsets after IncrementalOffset, the
    violated backward edges found, and the offsets after readjustment
    (equal to *computed* when nothing was violated).  This is exactly
    the structure of the paper's Fig. 10 trace."""

    iteration: int
    computed: OffsetState
    violations: List[Tuple[Edge, str]]
    readjusted: OffsetState


@dataclass
class ScheduleTrace:
    """Full per-iteration history of a scheduling run (Fig. 10)."""

    records: List[IterationRecord] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.records)

    def format_fig10(self, vertices: Optional[List[str]] = None,
                     anchors: Optional[List[str]] = None) -> str:
        """Render the trace as the offset table of Fig. 10.

        One row per vertex; per iteration, a "Compute" column with the
        offsets after IncrementalOffset and a "Readjust" column filled
        only for vertices whose offsets were moved.
        """
        if not self.records:
            return "(empty trace)"
        if vertices is None:
            vertices = sorted(self.records[0].computed)
        if anchors is None:
            seen: Dict[str, None] = {}
            for record in self.records:
                for offsets in record.computed.values():
                    for anchor in offsets:
                        seen.setdefault(anchor)
            anchors = list(seen)

        def cell(state: OffsetState, vertex: str) -> str:
            offsets = state.get(vertex, {})
            if not offsets:
                return "-"
            return ",".join(str(offsets[a]) if a in offsets else "-" for a in anchors)

        header = ["vertex"]
        for record in self.records:
            header.append(f"compute{record.iteration}")
            header.append(f"readjust{record.iteration}")
        lines = ["  ".join(f"{h:>12}" for h in header)]
        for vertex in vertices:
            row = [vertex]
            for record in self.records:
                row.append(cell(record.computed, vertex))
                if record.readjusted == record.computed:
                    row.append("")
                else:
                    before = record.computed.get(vertex, {})
                    after = record.readjusted.get(vertex, {})
                    row.append(cell(record.readjusted, vertex) if before != after else "")
            lines.append("  ".join(f"{c:>12}" for c in row))
        return "\n".join(lines)


class IterativeIncrementalScheduler:
    """The paper's ``IncrementalScheduling`` procedure.

    Runs on the indexed array kernel
    (:func:`repro.core.indexed.schedule_offsets`).

    Args:
        graph: a constraint graph with an acyclic forward subgraph.
        anchor_mode: which anchor sets to compute offsets against.
        anchor_sets: pre-computed anchor sets (overrides *anchor_mode*'s
            recomputation; callers doing the full pipeline pass the
            irredundant sets here).  Every tag must be an anchor vertex
            of *graph*.
        record_trace: keep per-iteration snapshots (Fig. 10) in
            :attr:`trace`, recorded by the kernel as dict states.
        deadline: absolute ``time.perf_counter()`` value after which the
            run aborts with :class:`BudgetExceededError`; checked before
            the run starts.
    """

    def __init__(self, graph: ConstraintGraph,
                 anchor_mode: AnchorMode = AnchorMode.FULL,
                 anchor_sets: Optional[AnchorSets] = None,
                 record_trace: bool = False,
                 deadline: Optional[float] = None) -> None:
        self.graph = graph
        self.anchor_mode = anchor_mode
        self.anchor_sets = anchor_sets or anchor_sets_for_mode(graph, anchor_mode)
        self.deadline = deadline
        self.trace: Optional[ScheduleTrace] = ScheduleTrace() if record_trace else None

    # ------------------------------------------------------------------

    def run(self) -> RelativeSchedule:
        """Compute the minimum relative schedule.

        Raises:
            IndexedKernelUnsupported: the anchor sets name a tag that is
                not an anchor vertex of the graph.
            InconsistentConstraintsError: after ``|Eb| + 1`` rounds with
                violations remaining (Corollary 2).
            ScheduleViolationError: the kernel's converged offsets fail
                the schedule certificate (a kernel bug).
        """
        return self._run(None)

    def run_from(self, previous: OffsetState) -> RelativeSchedule:
        """Warm-start: resume relaxation from *previous* offsets.

        The public entry point for incremental rescheduling after a
        constraint *addition*: any under-approximation of the new
        fixpoint is a sound starting state (offsets only ever increase,
        Lemma 8), so the previous schedule's offsets restart the
        relaxation with unaffected regions converging immediately.
        *previous* is read against this scheduler's anchor sets --
        entries the sets do not track are dropped, newly tracked
        entries start at 0, negatives are clamped to 0.

        Raises:
            As for :meth:`run`.
        """
        return self._run(previous)

    def _run(self, initial: Optional[OffsetState]) -> RelativeSchedule:
        """The shared cold/warm driver behind :meth:`run` / :meth:`run_from`."""
        if (self.deadline is not None
                and time.perf_counter() > self.deadline):
            raise BudgetExceededError(
                "wall-clock deadline exceeded before scheduling started")
        from repro.core.indexed import schedule_offsets

        offsets, iterations = schedule_offsets(
            self.graph, self.anchor_sets, initial=initial, trace=self.trace)
        return RelativeSchedule(
            graph=self.graph, anchor_sets=self.anchor_sets,
            offsets=offsets, anchor_mode=self.anchor_mode,
            iterations=iterations)


def schedule_graph(graph: ConstraintGraph,
                   anchor_mode: AnchorMode = AnchorMode.IRREDUNDANT,
                   auto_well_pose: bool = True,
                   watchdog: Optional[Dict[str, int]] = None,
                   deadline: Optional[float] = None) -> RelativeSchedule:
    """Run the paper's full four-step pipeline (Fig. 9) on *graph*.

    1. check well-posedness (Theorem 2);
    2. if ill-posed and *auto_well_pose*, minimally serialize with
       ``make_well_posed`` (Section IV-C);
    3. compute the anchor sets selected by *anchor_mode* (irredundant by
       default, Section IV-D);
    4. iterative incremental scheduling (Section IV-E).

    The full anchor sets are computed once and passed to both the
    well-posedness check and (via *anchor_mode*'s resolution) the
    scheduler; every stage shares the graph's versioned analysis cache,
    so nothing is recomputed unless serialization mutates the graph.

    Returns the minimum relative schedule of the (possibly serialized)
    graph; the scheduled graph is available as ``schedule.graph``.

    Args:
        watchdog: optional per-anchor timeout bounds ``W(a)``; validated
            against the scheduled graph's anchors and attached to the
            returned schedule (``schedule.watchdog``) for the simulators
            and :meth:`RelativeSchedule.bounded_completion`.
        deadline: absolute ``time.perf_counter()`` value; checked
            between pipeline stages.

    Raises:
        UnfeasibleConstraintsError: positive cycle with delays at 0.
        IllPosedError: ill-posed and cannot be (or may not be) serialized.
        InconsistentConstraintsError: scheduling did not converge.
        ScheduleViolationError: the converged offsets fail the schedule
            certificate (a kernel bug).
        GraphStructureError: watchdog bounds naming a non-anchor or
            carrying a negative/non-integer bound.
        BudgetExceededError: the wall-clock deadline expired.
    """
    from repro.core.anchors import find_anchor_sets
    from repro.core.exceptions import IllPosedError

    def check_deadline(stage: str) -> None:
        if deadline is not None and time.perf_counter() > deadline:
            raise BudgetExceededError(
                f"wall-clock deadline exceeded after {stage}")

    tracer = _OBS.tracer
    rec = tracer.enabled
    if rec:
        tracer.begin_span("pipeline.schedule_graph")
    try:
        if rec:
            tracer.begin_span("pipeline.analysis")
        try:
            anchor_sets = find_anchor_sets(graph)
            status = check_well_posed(graph, anchor_sets=anchor_sets)
        finally:
            if rec:
                tracer.end_span()
        check_deadline("well-posedness analysis")
        if status is WellPosedness.UNFEASIBLE:
            raise UnfeasibleConstraintsError("constraint graph has a positive cycle")
        if status is WellPosedness.ILL_POSED:
            if not auto_well_pose:
                raise IllPosedError(
                    "constraint graph is ill-posed; rerun with auto_well_pose=True "
                    "to attempt minimal serialization")
            if rec:
                tracer.begin_span("pipeline.serialization")
            try:
                graph = make_well_posed(graph)
            finally:
                if rec:
                    tracer.end_span()
            check_deadline("serialization")

        if rec:
            tracer.begin_span("pipeline.scheduling")
        try:
            scheduler = IterativeIncrementalScheduler(
                graph, anchor_mode=anchor_mode,
                anchor_sets=anchor_sets_for_mode(graph, anchor_mode),
                deadline=deadline)
            schedule = scheduler.run()
        finally:
            if rec:
                tracer.end_span()
        if watchdog is not None:
            from repro.core.watchdog import validate_watchdog_bounds

            schedule.watchdog = validate_watchdog_bounds(
                watchdog, graph.anchors, graph.source)
        return schedule
    finally:
        if rec:
            tracer.end_span()
