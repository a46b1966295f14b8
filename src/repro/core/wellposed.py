"""Feasibility and well-posedness analysis; the makeWellposed transform.

* **Feasibility** (Definition 6, Theorem 1): the constraints are
  satisfiable with every unbounded delay at 0 iff the graph ``G_0`` has
  no positive cycle.
* **Well-posedness** (Definition 7, Theorem 2): the constraints are
  satisfiable for *every* value of the unbounded delays iff the graph is
  feasible and ``A(tail) subset-of A(head)`` for every edge.
* **makeWellposed** (Section IV-C): an ill-posed graph can sometimes be
  rescued by *serialization* -- adding forward synchronization edges
  from anchors so that the offending maximum constraints no longer race
  against unknown delays.  The transform below adds only edges of the
  form ``(anchor, vertex)`` with weight ``delta(anchor)``, which gives
  the *minimally serialized* well-posed graph when one exists
  (Theorem 7); when none exists (an unbounded-length cycle would be
  closed, Lemma 3) it raises :class:`IllPosedError`.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Set, Tuple

from repro.core.anchors import AnchorSets, find_anchor_sets
from repro.core.exceptions import IllPosedError
from repro.core.graph import ConstraintGraph, Edge, EdgeKind
from repro.core.paths import has_positive_cycle
from repro.observability.tracer import STATE as _OBS


class WellPosedness(enum.Enum):
    """Classification returned by :func:`check_well_posed`."""

    WELL_POSED = "well-posed"
    ILL_POSED = "ill-posed"
    UNFEASIBLE = "unfeasible"


def is_feasible(graph: ConstraintGraph) -> bool:
    """Theorem 1: feasible iff ``G_0`` has no positive cycle."""
    graph.forward_topological_indices()  # precondition: G_f acyclic
    return not has_positive_cycle(graph)


def containment_violations(graph: ConstraintGraph,
                           anchor_sets: Optional[AnchorSets] = None
                           ) -> List[Tuple[Edge, Set[str]]]:
    """Edges failing the Theorem 2 criterion ``A(tail) subset-of A(head)``.

    Returns each offending edge with the anchors present at its tail but
    missing at its head.  Only backward edges can offend: forward edges
    satisfy containment by construction of anchor sets.
    """
    from repro.core.indexed import get_indexed

    if anchor_sets is None:
        anchor_sets = find_anchor_sets(graph)
    idx = get_indexed(graph)
    violations: List[Tuple[Edge, Set[str]]] = []
    for b, (t, h, _) in enumerate(idx.backward):
        missing = (set(anchor_sets[idx.names[t]])
                   - set(anchor_sets[idx.names[h]]))
        if missing:
            violations.append((graph.backward_edges()[b], missing))
    return violations


def check_well_posed(graph: ConstraintGraph,
                     anchor_sets: Optional[AnchorSets] = None) -> WellPosedness:
    """The paper's ``checkWellposed`` (Section IV-B).

    First checks feasibility (positive cycles in ``G_0``), then anchor-
    set containment across every backward edge.  Cost is dominated by
    the cycle check, ``O(|V| * |E|)``; containment costs
    ``O(|Eb| * |A|)``.

    Raises:
        CyclicForwardGraphError: if the forward graph is cyclic (the
            formulation's precondition, checked up front).
    """
    from repro.core.indexed import has_containment_violation

    graph.forward_topological_indices()
    if has_positive_cycle(graph):
        status = WellPosedness.UNFEASIBLE
    elif (containment_violations(graph, anchor_sets) if anchor_sets is not None
          else has_containment_violation(graph)):
        status = WellPosedness.ILL_POSED
    else:
        status = WellPosedness.WELL_POSED
    tracer = _OBS.tracer
    if tracer.enabled:
        tracer.count("wellposed.checks")
        tracer.event("wellposed.verdict", status=status.value)
    return status


def can_be_made_well_posed(graph: ConstraintGraph) -> bool:
    """Lemma 3 existence test: a feasible graph can be made well-posed iff
    it has no unbounded-length cycle.

    A cycle has unbounded length when it traverses an unbounded-weight
    edge; equivalently, some anchor ``a`` has a cycle through one of its
    ``delta(a)`` edges.  Since unbounded edges leave anchors, it suffices
    to test, for every anchor ``a`` and unbounded out-edge ``(a, s)``,
    whether ``a`` is reachable from ``s`` in the full graph.
    """
    if not is_feasible(graph):
        return False
    reach_cache: Dict[str, Set[str]] = {}
    for anchor in graph.anchors:
        for edge in graph.out_edges(anchor):
            if not edge.is_unbounded:
                continue
            if anchor in _full_reachable(graph, edge.head, reach_cache):
                return False
    return True


def _full_reachable(graph: ConstraintGraph, start: str,
                    cache: Dict[str, Set[str]]) -> Set[str]:
    """Vertices reachable from *start* over all edges (memoised per start)."""
    if start in cache:
        return cache[start]
    seen = {start}
    stack = [start]
    while stack:
        current = stack.pop()
        for edge in graph.out_edges(current):
            if edge.head not in seen:
                seen.add(edge.head)
                stack.append(edge.head)
    cache[start] = seen
    return seen


def make_well_posed(graph: ConstraintGraph, in_place: bool = False) -> ConstraintGraph:
    """The paper's ``makeWellposed`` (Section IV-C): minimal serialization.

    For every backward edge ``(t, h)`` and every anchor ``a`` in
    ``A(t) \\ A(h)``, a forward synchronization edge ``(a, h)`` with
    weight ``delta(a)`` is added, and the addition is propagated along
    chains of backward edges leaving ``h`` (procedure ``addEdge``).  The
    pass repeats until a fixed point, because an added edge enlarges the
    anchor sets of downstream vertices and may expose new containment
    violations.  Every added edge is forced by the containment criterion
    and has a maximal defining path of length 0, so the result is a
    *minimum* serial-compatible graph (Theorem 7).

    Args:
        graph: a feasible constraint graph (forward subgraph acyclic).
        in_place: mutate *graph* instead of copying.

    Returns:
        The well-posed (possibly serialized) graph.

    Raises:
        IllPosedError: when serialization would close an unbounded-length
            cycle -- no well-posed serial-compatible graph exists
            (Lemma 3 / Lemma 7).
    """
    from repro.core.indexed import get_indexed

    result = graph if in_place else graph.copy()
    tracer = _OBS.tracer
    rec = tracer.enabled
    if rec:
        initial_serializations = len(serialization_edges(result))
    # Serialization only adds forward edges: the backward edges, and the
    # ones leaving each vertex, stay fixed for the whole pass.
    idx = get_indexed(result)
    backward = [(idx.names[t], idx.names[h]) for t, h, _ in idx.backward]
    backward_out: Dict[str, List[str]] = {}
    for tail, head in backward:
        backward_out.setdefault(tail, []).append(head)
    for _ in range(len(result) * max(1, len(result.anchors))):
        anchor_sets = {name: set(tags) for name, tags
                       in find_anchor_sets(result).items()}
        added = False
        for tail, head in backward:
            missing = sorted(anchor_sets[tail] - anchor_sets[head])
            for anchor in missing:
                added = _add_serialization(result, anchor_sets, backward_out,
                                           anchor, head) or added
        if not added:
            break
    else:  # pragma: no cover - the loop bound is generous
        raise IllPosedError("makeWellposed did not reach a fixed point")
    pruned = _prune_unnecessary_serializations(result)
    if rec:
        kept = len(serialization_edges(result)) - initial_serializations
        tracer.count("wellposed.serialization_edges", kept)
        tracer.count("wellposed.serialization_pruned", pruned)
        tracer.event("wellposed.serialized", edges=kept, pruned=pruned)
    return result


def _prune_unnecessary_serializations(graph: ConstraintGraph) -> int:
    """Drop serialization edges whose removal keeps the graph well-posed.

    The backward-chain propagation of ``addEdge`` can insert an edge
    that a later addition subsumes (its containment requirement becomes
    implied through another serialization).  Each such edge is pure
    over-serialization: removing it cannot violate Theorem 2 (checked
    directly) and only shortens longest paths, so the pruned graph is
    still a minimum serial-compatible graph -- now also *edge-minimal*:
    removing any surviving serialization edge re-breaks well-posedness
    (a property the test suite asserts).  Returns the number of edges
    dropped.
    """
    from repro.core.indexed import has_containment_violation

    removed = 0
    changed = True
    while changed:
        changed = False
        for edge in [e for e in graph.edges()
                     if e.kind is EdgeKind.SERIALIZATION]:
            graph.remove_edge(edge)
            if has_containment_violation(graph):
                graph.add_serialization_edge(edge.tail, edge.head)  # required
            else:
                changed = True
                removed += 1
    return removed


def _add_serialization(graph: ConstraintGraph, anchor_sets: Dict[str, set],
                       backward_out: Dict[str, List[str]],
                       anchor: str, vertex: str) -> bool:
    """The paper's ``addEdge(a, v)``: serialize *vertex* after *anchor*.

    Adds the forward edge, updates the (mutable) anchor-set table, and
    recurses along backward edges leaving *vertex* (*backward_out*
    lists their heads per tail) so that chained maximum constraints
    stay well-posed.  Returns True when any edge was added.

    Raises:
        IllPosedError: if *vertex* already precedes *anchor* in the
            forward graph -- the new edge would close an unbounded-length
            cycle (Lemma 3).
    """
    if anchor in anchor_sets[vertex]:
        return False
    if vertex == anchor or graph.is_forward_reachable(vertex, anchor):
        raise IllPosedError(
            f"cannot serialize {vertex!r} after anchor {anchor!r}: "
            f"{vertex!r} precedes the anchor, an unbounded-length cycle "
            f"would be created (constraints are ill-posed)")
    graph.add_serialization_edge(anchor, vertex)
    anchor_sets[vertex].add(anchor)
    for head in backward_out.get(vertex, ()):
        _add_serialization(graph, anchor_sets, backward_out, anchor, head)
    return True


def serialization_edges(graph: ConstraintGraph) -> List[Edge]:
    """The synchronization edges previously added by ``make_well_posed``."""
    return [e for e in graph.edges() if e.kind is EdgeKind.SERIALIZATION]
