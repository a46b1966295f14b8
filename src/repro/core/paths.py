"""Longest-path machinery for constraint graphs.

All computations follow the paper's convention that unbounded edge
weights evaluate to their minimum value 0 (Section III):
``length(a, b)`` is the length of the longest weighted path from ``a``
to ``b`` in the *full* graph ``G(V, E)`` with unbounded weights at 0.

The full graph may contain cycles (through backward edges), but a
feasible graph contains no *positive* cycle (Theorem 1), so longest
paths are well defined and computable by Bellman-Ford-style relaxation.
The forward graph ``G_f`` is acyclic, so longest paths restricted to it
are computed in a single topological sweep.

The relaxations run on the indexed compilation of the graph
(:mod:`repro.core.indexed`) as deque/heap worklists -- only vertices
whose label changed are revisited, instead of the seed's dense
``|V| * |E|`` rounds.  The original dense implementations are retained
in :mod:`repro.qa.reference` for differential testing.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.core.exceptions import UnfeasibleConstraintsError
from repro.core.graph import ConstraintGraph

#: Marker for "no path" (distances use None rather than -inf floats so
#: every reachable length stays an exact int).
NO_PATH = None


def has_positive_cycle(graph: ConstraintGraph) -> bool:
    """Theorem 1 check: does ``G_0`` contain a positive-length cycle?

    ``G_0`` is the graph with unbounded delays at 0.  Implemented as
    worklist relaxation from a virtual super-source connected to every
    vertex, so cycles in any component are detected.
    """
    from repro.core.indexed import has_positive_cycle_indexed

    return has_positive_cycle_indexed(graph)


def find_positive_cycle(graph: ConstraintGraph) -> Optional[List[str]]:
    """A witness positive cycle in ``G_0``, or None if the graph is feasible.

    Returns the cycle as a vertex list ``[v1, ..., vk]`` with an implied
    edge ``vk -> v1``.
    """
    distance: Dict[str, int] = {name: 0 for name in graph.vertex_names()}
    parent: Dict[str, Optional[str]] = {name: None for name in graph.vertex_names()}
    edges = graph.edges()
    marked: Optional[str] = None
    for _ in range(len(distance)):
        marked = None
        for edge in edges:
            candidate = distance[edge.tail] + edge.static_weight
            if candidate > distance[edge.head]:
                distance[edge.head] = candidate
                parent[edge.head] = edge.tail
                marked = edge.head
        if marked is None:
            return None
    # `marked` is on, or downstream of, a positive cycle.  Walk back |V|
    # steps to land on the cycle, then trace it out.
    current = marked
    for _ in range(len(distance)):
        current = parent[current]
    cycle = [current]
    walker = parent[current]
    while walker != current:
        cycle.append(walker)
        walker = parent[walker]
    cycle.reverse()
    return cycle


def longest_paths_from(graph: ConstraintGraph, start: str,
                       forward_only: bool = False) -> Dict[str, Optional[int]]:
    """Longest static-weight path length from *start* to every vertex.

    Unreachable vertices map to :data:`NO_PATH`.  With
    ``forward_only=True`` only the acyclic forward graph is considered
    and a single topological sweep is used; otherwise worklist
    relaxation over the full indexed graph is used.

    Raises:
        UnfeasibleConstraintsError: if a positive cycle is reachable from
            *start* (full-graph mode only).
    """
    from repro.core.indexed import dag_longest_from, longest_paths_indexed

    if forward_only:
        return dag_longest_from(graph, start)
    return longest_paths_indexed(graph, start)


def length(graph: ConstraintGraph, tail: str, head: str) -> Optional[int]:
    """The paper's ``length(tail, head)``: longest weighted path in the
    full graph with unbounded weights at 0, or :data:`NO_PATH`."""
    return longest_paths_from(graph, tail)[head]


def lengths_from_anchors(graph: ConstraintGraph,
                         anchors: Optional[Iterable[str]] = None
                         ) -> Dict[str, Dict[str, Optional[int]]]:
    """``length(a, v)`` tables for every anchor ``a`` (used by the
    irredundant-anchor computation, Section IV-D)."""
    if anchors is None:
        anchors = graph.anchors
    return {anchor: longest_paths_from(graph, anchor) for anchor in anchors}


def anchored_longest_paths(graph: ConstraintGraph, anchor: str,
                           anchor_sets: Dict[str, "frozenset"]
                           ) -> Dict[str, Optional[int]]:
    """Longest paths from *anchor* over vertices that track it.

    Theorem 3 equates the minimum offsets ``sigma_a^min(v)`` with longest
    path lengths from ``a``; its proof walks paths whose every vertex
    has ``a`` in its anchor set.  A backward edge may leave the region
    where ``a`` is tracked (the constraint it encodes then says nothing
    about ``sigma_a``), so the longest path realising the minimum offset
    is taken over the subgraph induced by ``{x : a in A(x)}`` together
    with ``a`` itself.  On graphs where no backward edge escapes the
    anchored region this equals ``length(a, v)`` on the full graph.
    """
    from repro.core.indexed import get_indexed, worklist_longest_from, _positions

    idx = get_indexed(graph)
    allowed = bytearray(idx.n)
    index = idx.index
    for name, tags in anchor_sets.items():
        if anchor in tags:
            allowed[index[name]] = 1
    allowed[index[anchor]] = 1
    distance = worklist_longest_from(
        idx, idx.out_all, index[anchor], _positions(graph, idx), allowed=allowed,
        cycle_message=f"positive cycle in the region anchored by {anchor!r}")
    names = idx.names
    return {names[v]: distance[v] for v in range(idx.n)}


def maximal_defining_path_length(graph: ConstraintGraph, anchor: str,
                                 vertex: str) -> Optional[int]:
    """Length of the maximal defining path ``rho*(anchor, vertex)``.

    A defining path (Definition 8) runs from *anchor* to *vertex* with
    exactly one unbounded-weight edge -- the first edge, leaving the
    anchor.  Its length excludes that unbounded weight.  The maximal
    defining path (Definition 10) is the longest such path; this
    function returns its length, or :data:`NO_PATH` when no defining
    path exists (the anchor is not *relevant* to the vertex,
    Definition 9).

    The tail of every unbounded edge is an anchor, so after the first
    hop the remaining path must use bounded-weight edges only.
    """
    best: Optional[int] = NO_PATH
    for first in graph.out_edges(anchor):
        if not first.is_unbounded:
            continue
        suffix = _bounded_longest_from(graph, first.head)[vertex]
        if suffix is NO_PATH:
            continue
        if best is NO_PATH or suffix > best:
            best = suffix
    return best


def _bounded_longest_from(graph: ConstraintGraph, start: str) -> Dict[str, Optional[int]]:
    """Longest path using bounded-weight edges only (full graph).

    Bounded-only subgraphs can still contain (non-positive) cycles via
    backward edges, so worklist relaxation is used.
    """
    from repro.core.indexed import bounded_longest_indexed

    return bounded_longest_indexed(graph, start)


def critical_path(graph: ConstraintGraph) -> int:
    """Length of the longest forward path source -> sink with unbounded
    weights at 0: the best-case latency of the graph."""
    result = longest_paths_from(graph, graph.source, forward_only=True)[graph.sink]
    if result is NO_PATH:
        raise UnfeasibleConstraintsError("sink unreachable from source")
    return result
