"""The seed's pure-dict implementations, retained as a reference kernel.

The production code paths (``repro.core.paths``, ``repro.core.anchors``,
``repro.core.scheduler``) now run on the indexed compilation of
:mod:`repro.core.indexed` -- dense integer arrays, bitset anchor sets
and worklist relaxation.  This module keeps the original dict-of-dict
algorithms exactly as shipped in the seed so that

* differential/property tests and the qa oracle can assert the two
  kernels agree on offsets, iteration counts, anchor sets and exception
  types (``tests/core/test_indexed_differential.py``),
* the perf trajectory harness (``benchmarks/run_benchsuite.py``) can
  measure the speedup of the indexed kernel against the original
  implementation *in the same run*, and
* ``IterativeIncrementalScheduler(record_trace=True)`` can record the
  per-round dict snapshots of the paper's Fig. 10 trace.

Nothing here consults the versioned analysis cache: every function
recomputes from the raw graph, exactly as the seed did.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.anchors import AnchorMode, AnchorSets
from repro.core.exceptions import (
    InconsistentConstraintsError,
    UnfeasibleConstraintsError,
)
from repro.core.graph import ConstraintGraph, Edge
from repro.core.paths import NO_PATH
from repro.core.schedule import RelativeSchedule
from repro.core.scheduler import IterationRecord, OffsetState, ScheduleTrace
from repro.observability.tracer import STATE as _OBS

# ----------------------------------------------------------------------
# dense Bellman-Ford path machinery (original repro.core.paths)
# ----------------------------------------------------------------------


def has_positive_cycle_reference(graph: ConstraintGraph) -> bool:
    """Theorem 1 check via dense Bellman-Ford (seed implementation)."""
    distance: Dict[str, int] = {name: 0 for name in graph.vertex_names()}
    edges = graph.edges()
    for _ in range(len(distance)):
        changed = False
        for edge in edges:
            candidate = distance[edge.tail] + edge.static_weight
            if candidate > distance[edge.head]:
                distance[edge.head] = candidate
                changed = True
        if not changed:
            return False
    for edge in edges:
        if distance[edge.tail] + edge.static_weight > distance[edge.head]:
            return True
    return False


def longest_paths_from_reference(graph: ConstraintGraph, start: str,
                                 forward_only: bool = False
                                 ) -> Dict[str, Optional[int]]:
    """Longest path lengths from *start* via dense relaxation (seed)."""
    if forward_only:
        return _dag_longest_from_reference(graph, start)
    distance: Dict[str, Optional[int]] = {name: NO_PATH for name in graph.vertex_names()}
    distance[start] = 0
    edges = graph.edges()
    for _ in range(len(distance) - 1):
        changed = False
        for edge in edges:
            base = distance[edge.tail]
            if base is NO_PATH:
                continue
            candidate = base + edge.static_weight
            head_distance = distance[edge.head]
            if head_distance is NO_PATH or candidate > head_distance:
                distance[edge.head] = candidate
                changed = True
        if not changed:
            break
    else:
        for edge in edges:
            base = distance[edge.tail]
            if base is not NO_PATH and base + edge.static_weight > distance[edge.head]:
                raise UnfeasibleConstraintsError(
                    f"positive cycle reachable from {start!r}")
    return distance


def _dag_longest_from_reference(graph: ConstraintGraph,
                                start: str) -> Dict[str, Optional[int]]:
    order = graph.forward_topological_order()
    distance: Dict[str, Optional[int]] = {name: NO_PATH for name in order}
    distance[start] = 0
    for name in order:
        base = distance[name]
        if base is NO_PATH:
            continue
        for edge in graph.out_edges(name, forward_only=True):
            candidate = base + edge.static_weight
            head_distance = distance[edge.head]
            if head_distance is NO_PATH or candidate > head_distance:
                distance[edge.head] = candidate
    return distance


def anchored_longest_paths_reference(graph: ConstraintGraph, anchor: str,
                                     anchor_sets: Mapping[str, "frozenset"]
                                     ) -> Dict[str, Optional[int]]:
    """Longest paths from *anchor* over its anchored region (seed)."""
    allowed = {name for name, tags in anchor_sets.items() if anchor in tags}
    allowed.add(anchor)
    distance: Dict[str, Optional[int]] = {name: NO_PATH for name in graph.vertex_names()}
    distance[anchor] = 0
    edges = [e for e in graph.edges()
             if e.tail in allowed and e.head in allowed]
    for _ in range(len(allowed)):
        changed = False
        for edge in edges:
            base = distance[edge.tail]
            if base is NO_PATH:
                continue
            candidate = base + edge.static_weight
            head_distance = distance[edge.head]
            if head_distance is NO_PATH or candidate > head_distance:
                distance[edge.head] = candidate
                changed = True
        if not changed:
            break
    else:
        for edge in edges:
            base = distance[edge.tail]
            if base is not NO_PATH and base + edge.static_weight > distance[edge.head]:
                raise UnfeasibleConstraintsError(
                    f"positive cycle in the region anchored by {anchor!r}")
    return distance


def bounded_longest_from_reference(graph: ConstraintGraph,
                                   start: str) -> Dict[str, Optional[int]]:
    """Longest bounded-weight-only paths from *start* (seed)."""
    distance: Dict[str, Optional[int]] = {name: NO_PATH for name in graph.vertex_names()}
    distance[start] = 0
    edges = [e for e in graph.edges() if not e.is_unbounded]
    for _ in range(len(distance) - 1):
        changed = False
        for edge in edges:
            base = distance[edge.tail]
            if base is NO_PATH:
                continue
            candidate = base + edge.static_weight
            head_distance = distance[edge.head]
            if head_distance is NO_PATH or candidate > head_distance:
                distance[edge.head] = candidate
                changed = True
        if not changed:
            break
    else:
        for edge in edges:
            base = distance[edge.tail]
            if base is not NO_PATH and base + edge.static_weight > distance[edge.head]:
                raise UnfeasibleConstraintsError(
                    f"positive bounded cycle reachable from {start!r}")
    return distance


# ----------------------------------------------------------------------
# dict/set anchor analyses (original repro.core.anchors)
# ----------------------------------------------------------------------


def find_anchor_sets_reference(graph: ConstraintGraph) -> AnchorSets:
    """``A(v)`` for every vertex via per-vertex Python sets (seed)."""
    order = graph.forward_topological_order()
    anchor_sets: Dict[str, set] = {name: set() for name in graph.vertex_names()}
    for name in order:
        tags = anchor_sets[name]
        for edge in graph.out_edges(name, forward_only=True):
            target = anchor_sets[edge.head]
            target.update(tags)
            if edge.is_unbounded:
                target.add(name)
    return {name: frozenset(tags) for name, tags in anchor_sets.items()}


def relevant_anchors_reference(graph: ConstraintGraph) -> AnchorSets:
    """``R(v)`` for every vertex via per-anchor DFS over dicts (seed)."""
    anchor_sets = find_anchor_sets_reference(graph)
    relevant: Dict[str, set] = {name: set() for name in graph.vertex_names()}
    for anchor in graph.anchors:
        visited = {anchor}
        frontier = []
        for edge in graph.out_edges(anchor):
            if edge.is_unbounded and edge.head not in visited:
                visited.add(edge.head)
                frontier.append(edge.head)
        while frontier:
            current = frontier.pop()
            relevant[current].add(anchor)
            for edge in graph.out_edges(current):
                if edge.is_unbounded or edge.head in visited:
                    continue
                visited.add(edge.head)
                frontier.append(edge.head)
        visited = {anchor}
        frontier = []
        for edge in graph.out_edges(anchor):
            if (not edge.is_unbounded and edge.head not in visited
                    and anchor in anchor_sets[edge.head]):
                visited.add(edge.head)
                frontier.append(edge.head)
        while frontier:
            current = frontier.pop()
            relevant[current].add(anchor)
            for edge in graph.out_edges(current):
                if (edge.is_unbounded or edge.head in visited
                        or anchor not in anchor_sets[edge.head]):
                    continue
                visited.add(edge.head)
                frontier.append(edge.head)
    return {name: frozenset(tags) for name, tags in relevant.items()}


def irredundant_anchors_reference(
    graph: ConstraintGraph,
    anchor_sets: Optional[AnchorSets] = None,
    relevant: Optional[AnchorSets] = None,
    lengths: Optional[Mapping[str, Mapping[str, Optional[int]]]] = None,
) -> AnchorSets:
    """``IR(v)`` via the dict-of-dict redundancy scan (seed)."""
    if anchor_sets is None:
        anchor_sets = find_anchor_sets_reference(graph)
    if relevant is None:
        relevant = relevant_anchors_reference(graph)
    if lengths is None:
        lengths = {anchor: anchored_longest_paths_reference(graph, anchor, anchor_sets)
                   for anchor in graph.anchors}

    irredundant: Dict[str, frozenset] = {}
    for vertex in graph.vertex_names():
        candidates = relevant[vertex]
        redundant = set()
        for r in candidates:
            for x in candidates:
                if x == r or x not in anchor_sets[r]:
                    continue
                through = _sum_lengths(lengths[x].get(r), lengths[r].get(vertex))
                direct = lengths[x].get(vertex)
                if direct is not NO_PATH and through is not NO_PATH and direct <= through:
                    redundant.add(x)
        irredundant[vertex] = frozenset(candidates - redundant)
    return irredundant


def _sum_lengths(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is NO_PATH or b is NO_PATH:
        return NO_PATH
    return a + b


def anchor_sets_for_mode_reference(graph: ConstraintGraph,
                                   mode: AnchorMode) -> AnchorSets:
    """Seed counterpart of :func:`repro.core.anchors.anchor_sets_for_mode`."""
    if mode is AnchorMode.FULL:
        return find_anchor_sets_reference(graph)
    if mode is AnchorMode.RELEVANT:
        return relevant_anchors_reference(graph)
    if mode is AnchorMode.IRREDUNDANT:
        return irredundant_anchors_reference(graph)
    raise ValueError(f"unknown anchor mode {mode!r}")


# ----------------------------------------------------------------------
# dict-of-dict scheduler loops (original repro.core.scheduler)
# ----------------------------------------------------------------------


def schedule_offsets_reference(graph: ConstraintGraph, anchor_sets: AnchorSets,
                               initial: Optional[OffsetState] = None, *,
                               trace: Optional[ScheduleTrace] = None
                               ) -> Tuple[OffsetState, int]:
    """Section IV-E on dict-of-dict offsets (the seed scheduler).

    Same contract as :func:`repro.core.indexed.schedule_offsets`:
    returns ``(offsets, iterations)``, warm-starts from *initial* when
    given (entries the anchor sets do not track are dropped, negatives
    clamped to 0), and produces the same per-round fixpoints and
    violation sets, hence the same iteration count.  With *trace*, each
    round's compute/readjust snapshots are appended to it (Fig. 10).

    Raises:
        InconsistentConstraintsError: no convergence in ``|Eb| + 1``
            rounds (Corollary 2).
    """
    tracer = _OBS.tracer
    rec = tracer.enabled
    previous = initial or {}
    offsets: OffsetState = {}
    for vertex in graph.vertex_names():
        old = previous.get(vertex, {})
        offsets[vertex] = {anchor: max(0, old.get(anchor, 0))
                           for anchor in anchor_sets[vertex]}
    order = graph.forward_topological_order()
    backward = graph.backward_edges()
    max_rounds = len(backward) + 1
    converged = False
    for round_index in range(1, max_rounds + 1):
        before = _snapshot(offsets) if rec else {}
        _incremental_offset(graph, order, offsets)
        if rec:
            relaxed = _count_raises(before, offsets)
        computed = _snapshot(offsets) if trace is not None else {}
        violations = _find_violations(graph, offsets, backward)
        if not violations:
            if trace is not None:
                trace.records.append(IterationRecord(
                    round_index, computed, [], computed))
            if rec:
                tracer.count("scheduler.relaxations", relaxed)
                tracer.event("scheduler.iteration", round=round_index,
                             violations=0, relaxations=relaxed,
                             kernel="reference")
            converged = True
            break
        if rec:
            before = _snapshot(offsets)
        _readjust(graph, offsets, violations)
        if rec:
            relaxed += _count_raises(before, offsets)
            tracer.count("scheduler.relaxations", relaxed)
            tracer.event("scheduler.iteration", round=round_index,
                         violations=len(violations), relaxations=relaxed,
                         kernel="reference")
        if trace is not None:
            trace.records.append(IterationRecord(
                round_index, computed, violations, _snapshot(offsets)))
    if rec:
        tracer.count("kernel.reference_runs")
        tracer.count("scheduler.runs")
        tracer.count("scheduler.iterations", round_index)
        tracer.event("scheduler.run", iterations=round_index,
                     bound=max_rounds, backward_edges=len(backward),
                     warm=initial is not None, kernel="reference",
                     converged=converged)
    if not converged:
        raise InconsistentConstraintsError(
            f"no schedule after {max_rounds} iterations: timing "
            f"constraints are inconsistent (Corollary 2)")
    return offsets, round_index


def _incremental_offset(graph: ConstraintGraph, order: List[str],
                        offsets: OffsetState) -> None:
    """One longest-path sweep over the acyclic forward graph.

    Offsets only ever increase (Lemma 8); each sweep relaxes every
    forward edge once in topological order, so its cost is
    ``O(|A| * |Ef|)``.
    """
    for vertex in order:
        tracked = offsets[vertex]
        for edge in graph.in_edges(vertex, forward_only=True):
            weight = edge.static_weight
            source_offsets = offsets[edge.tail]
            for anchor, sigma in source_offsets.items():
                if anchor not in tracked:
                    continue
                candidate = sigma + weight
                if candidate > tracked[anchor]:
                    tracked[anchor] = candidate
            # When the tail is itself an anchor tracked for this
            # vertex, its own offset is normalized to 0 (Definition 3),
            # so the edge also implies sigma_tail(vertex) >= 0 + weight.
            # This covers both unbounded sequencing edges (weight 0)
            # and bounded minimum constraints leaving an anchor.
            if edge.tail in tracked and weight > tracked[edge.tail]:
                tracked[edge.tail] = weight


def _find_violations(graph: ConstraintGraph, offsets: OffsetState,
                     backward: List[Edge]) -> List[Tuple[Edge, str]]:
    """Backward edges whose inequality fails for some shared anchor."""
    violations: List[Tuple[Edge, str]] = []
    for edge in backward:
        tail_offsets = _with_self(graph, offsets, edge.tail)
        head_offsets = _with_self(graph, offsets, edge.head)
        for anchor, sigma_tail in tail_offsets.items():
            if anchor not in head_offsets:
                continue
            if head_offsets[anchor] < sigma_tail + edge.weight:
                violations.append((edge, anchor))
    return violations


def _with_self(graph: ConstraintGraph, offsets: OffsetState,
               vertex: str) -> Dict[str, int]:
    """The tracked offsets of *vertex*, plus the implicit normalized
    ``sigma_vertex(vertex) = 0`` when the vertex is an anchor."""
    entries = offsets[vertex]
    if graph.is_anchor(vertex) and vertex not in entries:
        entries = dict(entries)
        entries[vertex] = 0
    return entries


def _readjust(graph: ConstraintGraph, offsets: OffsetState,
              violations: List[Tuple[Edge, str]]) -> None:
    """Raise violated offsets by the minimum amount (ReadjustOffsets).

    A violation whose anchor *is* the head vertex cannot be repaired
    -- the head's own offset is pinned at 0 -- so it persists and the
    iteration bound of Corollary 2 converts it into an inconsistency
    report.
    """
    for edge, anchor in violations:
        if anchor == edge.head:
            continue
        sigma_tail = _with_self(graph, offsets, edge.tail)[anchor]
        required = sigma_tail + edge.weight
        if offsets[edge.head].get(anchor, 0) < required:
            offsets[edge.head][anchor] = required


def _snapshot(offsets: OffsetState) -> OffsetState:
    return {vertex: dict(entries) for vertex, entries in offsets.items()}


def _count_raises(before: OffsetState, after: OffsetState) -> int:
    """How many per-anchor offsets moved between two snapshots.

    Offsets only ever increase (Lemma 8), so every difference is a
    relaxation; entries absent from *before* (readjustment can introduce
    them) count as raised from the implicit 0.
    """
    changed = 0
    for vertex, entries in after.items():
        old = before.get(vertex)
        if old is None:
            changed += sum(1 for sigma in entries.values() if sigma != 0)
            continue
        for anchor, sigma in entries.items():
            if old.get(anchor, 0) != sigma:
                changed += 1
    return changed


# ----------------------------------------------------------------------
# full reference pipeline (original schedule_graph)
# ----------------------------------------------------------------------


def check_well_posed_reference(graph: ConstraintGraph):
    """Seed ``checkWellposed``: dense cycle check + dict containment."""
    from repro.core.wellposed import WellPosedness

    graph.forward_topological_order()
    if has_positive_cycle_reference(graph):
        return WellPosedness.UNFEASIBLE
    anchor_sets = find_anchor_sets_reference(graph)
    for edge in graph.backward_edges():
        if set(anchor_sets[edge.tail]) - set(anchor_sets[edge.head]):
            return WellPosedness.ILL_POSED
    return WellPosedness.WELL_POSED


def schedule_graph_reference(graph: ConstraintGraph,
                             anchor_mode: AnchorMode = AnchorMode.IRREDUNDANT,
                             auto_well_pose: bool = True,
                             validate: bool = True):
    """The seed's Fig. 9 pipeline on the retained dict code paths.

    Mirrors :func:`repro.core.scheduler.schedule_graph` but routes every
    stage through this module, scheduler loops included, so the whole
    pipeline exercises the original implementation end to end.
    """
    from repro.core.exceptions import IllPosedError
    from repro.core.wellposed import WellPosedness, make_well_posed

    status = check_well_posed_reference(graph)
    if status is WellPosedness.UNFEASIBLE:
        raise UnfeasibleConstraintsError("constraint graph has a positive cycle")
    if status is WellPosedness.ILL_POSED:
        if not auto_well_pose:
            raise IllPosedError(
                "constraint graph is ill-posed; rerun with auto_well_pose=True "
                "to attempt minimal serialization")
        graph = make_well_posed(graph)

    anchor_sets = anchor_sets_for_mode_reference(graph, anchor_mode)
    offsets, iterations = schedule_offsets_reference(graph, anchor_sets)
    schedule = RelativeSchedule(
        graph=graph, anchor_sets=anchor_sets, offsets=offsets,
        anchor_mode=anchor_mode, iterations=iterations)
    if validate:
        schedule.validate()
    return schedule
