"""Incremental rescheduling after constraint changes.

Lemma 8 shows the scheduler's offsets only ever *increase* toward the
longest-path fixpoint, and any offset state that under-approximates the
final values is a valid starting point for further relaxation.  Two
practical consequences:

* **adding** a timing constraint (or sequencing edge) can reuse the
  existing minimum schedule as the initial offsets -- the relaxation
  resumes instead of restarting from zero, touching only the affected
  region (interactive constraint editing, Hebe's conflict-resolution
  loop);
* **removing** a constraint can only lower offsets, so a from-scratch
  run is required -- :func:`without_constraint` packages that.

The resumed run keeps the ``|Eb| + 1`` iteration bound of Theorem 8
relative to the *new* backward-edge count, and inconsistency is still
detected per Corollary 2.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.anchors import anchor_sets_for_mode
from repro.core.constraints import TimingConstraint
from repro.core.graph import Edge
from repro.core.schedule import RelativeSchedule
from repro.core.scheduler import IterativeIncrementalScheduler
from repro.observability.tracer import STATE as _OBS


def add_constraint_incremental(schedule: RelativeSchedule,
                               constraint: TimingConstraint) -> RelativeSchedule:
    """Add *constraint* to a scheduled graph and reschedule incrementally.

    The graph is copied (the input schedule stays valid for the old
    graph); the new run starts from the existing offsets, so unaffected
    regions converge immediately.

    Args:
        schedule: a minimum relative schedule of the current graph.
        constraint: the min/max timing constraint to add.

    Returns:
        The minimum relative schedule of the extended graph.

    Raises:
        CyclicForwardGraphError: a minimum constraint against the
            partial order.
        UnfeasibleConstraintsError: the extended constraints form a
            positive cycle -- no schedule exists for any delay values.
        IllPosedError: the extended graph is ill-posed; run
            ``make_well_posed`` and reschedule from scratch.
        InconsistentConstraintsError: scheduling did not converge.
    """
    from repro.core.exceptions import IllPosedError, UnfeasibleConstraintsError
    from repro.core.wellposed import WellPosedness, check_well_posed

    graph = schedule.graph.copy()
    constraint.apply(graph)
    graph.forward_topological_order()  # min constraints: cycle check

    # Classify the extended graph exactly like the from-scratch pipeline
    # (schedule_graph with auto_well_pose=False), so the two entry
    # points accept and reject identically.  Fuzzing found three
    # divergences in the old max-only containment check (see
    # tests/qa/regressions/warm_start_*.json): a *minimum* constraint
    # can also break containment (it grows anchor sets downstream), in
    # which case the warm reschedule silently produced offsets for an
    # ill-posed graph; and unfeasible additions surfaced as whichever of
    # InconsistentConstraintsError/IllPosedError tripped first instead
    # of the pipeline's UnfeasibleConstraintsError.
    status = check_well_posed(graph)
    if status is WellPosedness.UNFEASIBLE:
        raise UnfeasibleConstraintsError(
            f"adding {constraint} creates a positive cycle")
    if status is WellPosedness.ILL_POSED:
        raise IllPosedError(
            f"adding {constraint} makes the graph ill-posed; run "
            f"make_well_posed and reschedule from scratch")

    tracer = _OBS.tracer
    if tracer.enabled:
        tracer.count("incremental.warm_reschedules")
        tracer.event("incremental.add_constraint", constraint=str(constraint))
    anchor_sets = anchor_sets_for_mode(graph, schedule.anchor_mode)
    scheduler = IterativeIncrementalScheduler(
        graph, anchor_mode=schedule.anchor_mode, anchor_sets=anchor_sets)
    return scheduler.run_from(schedule.offsets)


def reschedule_with_observed(schedule: RelativeSchedule,
                             observed: Mapping[str, int]) -> RelativeSchedule:
    """Fold observed anchor delays into the graph and warm-reschedule.

    The *rebound* schedule of partial completion state (what
    :attr:`repro.runtime.executor.OnlineExecutor.schedule` returns):
    each ``{anchor: observed delay}`` pair rebinds the anchor to a
    *bounded* vertex via
    :meth:`~repro.core.graph.ConstraintGraph.bind_anchor_delay`, then
    the relaxation resumes from the previous offsets.  Observed delays
    are >= 0 while the static offsets evaluated the unknown delays at
    their minimum (0), so the previous offsets under-approximate the
    rebound fixpoint and the warm start is sound (Lemma 8).

    The result is the minimum relative schedule of the rebound graph:
    its anchors are the source plus the still-unobserved anchors, and an
    operation whose remaining anchor set is ``{source}`` has an absolute
    start time of ``done(source) + sigma_source(v)``.  By the minimum
    relative schedule's any-profile optimality, that start equals the
    original schedule's ``start_times(observed)[v]`` -- the
    anomaly-freedom invariant the qa oracle pins.

    Args:
        schedule: a minimum relative schedule of the current graph.
        observed: anchor name -> observed execution delay (``done -
            start``), for any subset of the non-source anchors.

    Raises:
        GraphStructureError: an entry names the source, a non-anchor,
            or carries a negative/non-int delay.
        InconsistentConstraintsError: scheduling did not converge.
        ScheduleViolationError: the rebound offsets fail the schedule
            certificate (a kernel bug).
    """
    graph = schedule.graph.copy()
    for anchor in sorted(observed):
        graph.bind_anchor_delay(anchor, observed[anchor])

    tracer = _OBS.tracer
    if tracer.enabled:
        tracer.count("incremental.observed_reschedules")
        tracer.event("incremental.bind_observed",
                     anchors=len(observed),
                     remaining=len(graph.anchors) - 1)
    anchor_sets = anchor_sets_for_mode(graph, schedule.anchor_mode)
    scheduler = IterativeIncrementalScheduler(
        graph, anchor_mode=schedule.anchor_mode, anchor_sets=anchor_sets)
    return scheduler.run_from(schedule.offsets)


def without_constraint(schedule: RelativeSchedule, edge: Edge) -> RelativeSchedule:
    """Remove a constraint edge and reschedule (from scratch -- removal
    can only lower offsets, so warm starts are unsound)."""
    from repro.core.scheduler import schedule_graph

    tracer = _OBS.tracer
    if tracer.enabled:
        tracer.count("incremental.cold_reschedules")
        tracer.event("incremental.remove_constraint",
                     tail=edge.tail, head=edge.head)
    graph = schedule.graph.copy()
    graph.remove_edge(edge)
    return schedule_graph(graph, anchor_mode=schedule.anchor_mode,
                          auto_well_pose=False)
