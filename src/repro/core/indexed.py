"""Indexed scheduling kernel: the constraint graph compiled to arrays.

The paper's Fig. 9 pipeline (well-posedness check, serialization,
anchor analysis, iterative scheduling) is built from a handful of
primitives -- topological sweeps, longest-path relaxation, anchor-set
propagation.  The seed implemented all of them directly on
:class:`~repro.core.graph.ConstraintGraph`'s dict-of-dict adjacency,
paying per-edge attribute lookups, dict hashing and dense
``|V| * |E|`` Bellman-Ford rounds in every stage.

This module compiles a graph's integer store once into an
:class:`IndexedGraph`:

* vertices interned to dense integers (``names[i]`` / ``index[name]``),
  anchors additionally interned to *slots* so an anchor set becomes a
  single int bitmask;
* static edge weights materialized into per-vertex adjacency lists of
  ``(head, weight)`` int pairs, partitioned by direction and
  boundedness;
* the forward in-edge lists the scheduler sweeps, pre-grouped per head.

On top of it the hot loops are rewritten as flat array code:

* :func:`anchor_masks` -- ``findAnchorSet`` as bitset propagation in
  one topological sweep;
* :func:`relevant_masks` / :func:`irredundant_masks` -- the Section
  IV-D anchor analyses on masks and per-slot distance arrays (the
  irredundant scan, the kernel's one numpy stage, runs vectorized on
  large graphs);
* :func:`worklist_longest_from` and friends -- the Bellman-Ford family
  as deque/heap worklist relaxation (only vertices whose label changed
  are revisited) with walk-length positive-cycle detection, replacing
  the dense ``|V|`` rounds over the full edge list;
* :func:`schedule_offsets` -- the iterative incremental scheduler with
  per-vertex offset arrays instead of dict copies, and downstream-only
  propagation after the first sweep;
* :func:`offset_violation` -- the one schedule certificate, over the
  same int rows.

The compilation is memoised on the graph's versioned analysis cache
(:meth:`ConstraintGraph.cached`), so one compilation serves the whole
``check_well_posed -> make_well_posed -> schedule`` pipeline and is
invalidated automatically when the graph mutates.  The original dict
implementations are kept, test-only, in :mod:`repro.qa.reference`;
``tests/core/test_indexed_differential.py`` asserts the two kernels
agree on hundreds of seeded random graphs.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.exceptions import (
    CyclicForwardGraphError,
    InconsistentConstraintsError,
    IndexedKernelUnsupported,
    OffsetViolation,
    ScheduleViolationError,
    UnfeasibleConstraintsError,
)
from repro.core.graph import MAX_TIME_ID, UNBOUNDED_TOKEN, ConstraintGraph
from repro.observability.tracer import STATE as _OBS

if TYPE_CHECKING:  # the scheduler module imports this one at call time
    from repro.core.scheduler import ScheduleTrace

#: An unbounded edge weight in the store's encoding.
_UNBOUNDED_WEIGHT = -UNBOUNDED_TOKEN

try:  # numpy accelerates the irredundant scan on large graphs; the
    import numpy as _np  # scalar scan is its fallback, so numpy's absence
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None  # costs speed, never correctness.


class IndexedGraph:
    """CSR-style compilation of a :class:`ConstraintGraph`.

    Compiled straight from the graph's store (:meth:`ConstraintGraph.packed`),
    without building Vertex or Edge objects.  All vertex references are
    dense ints (positions in ``names``); all weights are pre-evaluated
    static weights (unbounded delays at their minimum 0, per Section
    III).  Instances are immutable snapshots of one graph version --
    obtain them via :func:`get_indexed`, never hold one across a graph
    mutation.
    """

    __slots__ = (
        "n", "names", "index", "source", "sink",
        "anchor_vertices", "anchor_slot", "anchor_names", "n_anchors",
        "out_all", "out_bounded", "out_forward_w",
        "in_forward", "unbounded_out", "backward",
    )

    def __init__(self, graph: ConstraintGraph) -> None:
        names = graph.vertex_names()
        index = {name: i for i, name in enumerate(names)}
        n = len(names)
        self.n = n
        self.names = names
        self.index = index
        self.source = 0  # the store keeps the source first, the sink second
        self.sink = 1

        tokens, _ = graph.packed()
        anchor_vertices = [i for i, token in enumerate(tokens)
                           if token == UNBOUNDED_TOKEN]
        anchor_slot = [-1] * n
        for slot, vid in enumerate(anchor_vertices):
            anchor_slot[vid] = slot
        self.anchor_vertices = anchor_vertices
        self.anchor_slot = anchor_slot
        self.anchor_names = [names[vid] for vid in anchor_vertices]
        self.n_anchors = len(anchor_vertices)

        #: every edge, static weights: out_all[v] = [(head, w), ...]
        out_all: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        #: bounded-weight edges only (defining-path traversals)
        out_bounded: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        #: forward edges, static weights (DAG sweeps, scheduler propagation)
        out_forward_w: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        #: forward in-edges per head (the scheduler's relaxation groups)
        in_forward: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        #: heads of unbounded out-edges (first hops of defining paths)
        unbounded_out: List[List[int]] = [[] for _ in range(n)]
        #: backward edges (t, h, w) in insertion order
        backward: List[Tuple[int, int, int]] = []
        for t, h, w, kind in graph.edge_records():
            if w == _UNBOUNDED_WEIGHT:
                pair = (h, 0)
                unbounded_out[t].append(h)
            else:
                pair = (h, w)
                out_bounded[t].append(pair)
            out_all[t].append(pair)
            if kind == MAX_TIME_ID:
                backward.append((t, h, w))
            else:
                out_forward_w[t].append(pair)
                in_forward[h].append((t, pair[1]))

        # Frozen into tuples: tuples of ints drop out of the garbage
        # collector's view after its first pass, lists stay in it.
        self.out_all = tuple(map(tuple, out_all))
        self.out_bounded = tuple(map(tuple, out_bounded))
        self.out_forward_w = tuple(map(tuple, out_forward_w))
        self.in_forward = tuple(map(tuple, in_forward))
        self.unbounded_out = tuple(map(tuple, unbounded_out))
        self.backward = backward


def get_indexed(graph: ConstraintGraph) -> IndexedGraph:
    """The memoised indexed compilation of *graph* (current version)."""
    return graph.cached("indexed", lambda: IndexedGraph(graph))


#: The irredundant scan, the kernel's one numpy stage, runs vectorized
#: from this vertex count up; below it, building the length matrices
#: costs more than the scalar scan saves (measured tables: DESIGN.md
#: section 6).
_NUMPY_MIN_N = 100


def _use_numpy(idx: IndexedGraph) -> bool:
    """Whether the vectorized irredundant scan pays off for this graph."""
    return _np is not None and idx.n >= _NUMPY_MIN_N and idx.n_anchors > 0


def _positions(graph: ConstraintGraph, idx: IndexedGraph) -> List[int]:
    """Worklist priorities: topological position per vertex when the
    forward graph is acyclic (so DAG regions are each popped once),
    falling back to insertion order on a cyclic forward graph (the
    worklist stays correct for any pop order)."""
    try:
        topo = graph.forward_topological_indices()
    except CyclicForwardGraphError:
        return list(range(idx.n))
    pos = [0] * idx.n
    for p, v in enumerate(topo):
        pos[v] = p
    return pos


# ----------------------------------------------------------------------
# worklist longest-path relaxation
# ----------------------------------------------------------------------


def worklist_longest_from(idx: IndexedGraph,
                          adjacency: Sequence[Sequence[Tuple[int, int]]],
                          start: int,
                          pos: Sequence[int],
                          allowed: Optional[bytearray] = None,
                          cycle_message: str = "positive cycle") -> List[Optional[int]]:
    """Longest path lengths from *start* by label-correcting relaxation.

    Vertices are revisited only when their label improves, popped in
    ascending *pos* priority (topological position when available), so
    acyclic regions relax in a single pass.  A relaxation whose witness
    walk reaches ``|V|`` edges certifies a positive cycle: an improving
    walk can never traverse a non-positive cycle (the label at the
    cycle entry would have had to improve past itself), so a repeated
    vertex implies a positive one.

    Returns a dense distance array with ``None`` for unreachable.

    Raises:
        UnfeasibleConstraintsError: when a positive cycle is reachable
            from *start* (within *allowed*, when given).
    """
    n = idx.n
    dist: List[Optional[int]] = [None] * n
    steps = [0] * n
    dist[start] = 0
    in_queue = bytearray(n)
    in_queue[start] = 1
    heap = [(pos[start], start)]
    while heap:
        _, v = heapq.heappop(heap)
        in_queue[v] = 0
        base = dist[v]
        depth = steps[v] + 1
        for h, w in adjacency[v]:
            if allowed is not None and not allowed[h]:
                continue
            candidate = base + w
            current = dist[h]
            if current is None or candidate > current:
                if depth >= n:
                    raise UnfeasibleConstraintsError(cycle_message)
                dist[h] = candidate
                steps[h] = depth
                if not in_queue[h]:
                    in_queue[h] = 1
                    heapq.heappush(heap, (pos[h], h))
    return dist


def has_positive_cycle_indexed(graph: ConstraintGraph) -> bool:
    """Theorem 1 check: longest-walk relaxation from a virtual
    super-source (every vertex at distance 0).

    When the forward graph is acyclic -- the paper's standing assumption
    and the only case the pipeline reaches -- a positive cycle must
    cross a backward edge, so the check alternates one forward
    topological sweep with one backward-edge relaxation pass: a simple
    improving path crosses each backward edge at most once, so
    improvement past ``|Eb| + 1`` rounds certifies a positive cycle.
    Cyclic forward graphs fall back to heap worklist relaxation.
    """
    idx = get_indexed(graph)
    n = idx.n
    if n == 0:
        return False
    try:
        topo = graph.forward_topological_indices()
    except CyclicForwardGraphError:
        return _has_positive_cycle_worklist(graph, idx)
    dist = [0] * n
    out_forward_w = idx.out_forward_w
    backward = idx.backward
    rounds = 0
    while True:
        for v in topo:
            base = dist[v]
            for h, w in out_forward_w[v]:
                candidate = base + w
                if candidate > dist[h]:
                    dist[h] = candidate
        improved = False
        for t, h, w in backward:
            candidate = dist[t] + w
            if candidate > dist[h]:
                dist[h] = candidate
                improved = True
        if not improved:
            return False
        rounds += 1
        if rounds > len(backward) + 1:
            return True


def _has_positive_cycle_worklist(graph: ConstraintGraph,
                                 idx: IndexedGraph) -> bool:
    """Heap worklist variant of the Theorem 1 check (any graph shape)."""
    n = idx.n
    pos = _positions(graph, idx)
    dist = [0] * n
    steps = [0] * n
    out_all = idx.out_all
    heap = sorted((pos[v], v) for v in range(n))
    in_queue = bytearray([1]) * n
    while heap:
        _, v = heapq.heappop(heap)
        in_queue[v] = 0
        base = dist[v]
        depth = steps[v] + 1
        for h, w in out_all[v]:
            candidate = base + w
            if candidate > dist[h]:
                if depth >= n:
                    return True
                dist[h] = candidate
                steps[h] = depth
                if not in_queue[h]:
                    in_queue[h] = 1
                    heapq.heappush(heap, (pos[h], h))
    return False


def dag_longest_from(graph: ConstraintGraph, start: str) -> Dict[str, Optional[int]]:
    """Longest forward-only path lengths in one indexed topological sweep."""
    idx = get_indexed(graph)
    topo = graph.forward_topological_indices()
    dist: List[Optional[int]] = [None] * idx.n
    dist[idx.index[start]] = 0
    out_forward_w = idx.out_forward_w
    for v in topo:
        base = dist[v]
        if base is None:
            continue
        for h, w in out_forward_w[v]:
            candidate = base + w
            current = dist[h]
            if current is None or candidate > current:
                dist[h] = candidate
    names = idx.names
    return {names[v]: dist[v] for v in range(idx.n)}


def longest_paths_indexed(graph: ConstraintGraph, start: str) -> Dict[str, Optional[int]]:
    """Full-graph ``length(start, v)`` table via worklist relaxation."""
    idx = get_indexed(graph)
    dist = worklist_longest_from(
        idx, idx.out_all, idx.index[start], _positions(graph, idx),
        cycle_message=f"positive cycle reachable from {start!r}")
    names = idx.names
    return {names[v]: dist[v] for v in range(idx.n)}


def bounded_longest_indexed(graph: ConstraintGraph, start: str) -> Dict[str, Optional[int]]:
    """Longest bounded-weight-only path table via worklist relaxation."""
    idx = get_indexed(graph)
    dist = worklist_longest_from(
        idx, idx.out_bounded, idx.index[start], _positions(graph, idx),
        cycle_message=f"positive bounded cycle reachable from {start!r}")
    names = idx.names
    return {names[v]: dist[v] for v in range(idx.n)}


def anchored_lengths_for_slot(graph: ConstraintGraph, idx: IndexedGraph,
                              slot: int, masks: Sequence[int]
                              ) -> List[Optional[int]]:
    """Longest paths from the anchor in *slot* over its anchored region
    ``{x : a in A(x)} + {a}`` (Theorem 3 / ``anchored_longest_paths``).

    One forward topological sweep over the region per round, then the
    region's backward edges; a simple improving path crosses each
    backward edge at most once, so improvement past ``|Eb_region| + 1``
    rounds certifies a positive cycle.
    """
    n = idx.n
    anchor_vertex = idx.anchor_vertices[slot]
    allowed = bytearray(n)
    for v in range(n):
        if (masks[v] >> slot) & 1:
            allowed[v] = 1
    allowed[anchor_vertex] = 1
    topo_cone = [v for v in graph.forward_topological_indices() if allowed[v]]
    back_cone = [(t, h, w) for t, h, w in idx.backward
                 if allowed[t] and allowed[h]]
    out_forward_w = idx.out_forward_w
    dist: List[Optional[int]] = [None] * n
    dist[anchor_vertex] = 0
    rounds = 0
    while True:
        for v in topo_cone:
            base = dist[v]
            if base is None:
                continue
            for h, w in out_forward_w[v]:
                if allowed[h]:
                    candidate = base + w
                    current = dist[h]
                    if current is None or candidate > current:
                        dist[h] = candidate
        improved = False
        for t, h, w in back_cone:
            base = dist[t]
            if base is None:
                continue
            candidate = base + w
            current = dist[h]
            if current is None or candidate > current:
                dist[h] = candidate
                improved = True
        if not improved:
            return dist
        rounds += 1
        if rounds > len(back_cone) + 1:
            raise UnfeasibleConstraintsError(
                "positive cycle in the region anchored by "
                f"{idx.anchor_names[slot]!r}")


# ----------------------------------------------------------------------
# anchor analyses on bitmasks
# ----------------------------------------------------------------------


def anchor_masks(graph: ConstraintGraph) -> List[int]:
    """``A(v)`` for every vertex as anchor-slot bitmasks (memoised).

    One topological sweep; a forward edge ORs the tail's mask into the
    head's, an unbounded edge additionally injects the tail's own bit.
    """
    def build() -> List[int]:
        idx = get_indexed(graph)
        topo = graph.forward_topological_indices()
        masks = [0] * idx.n
        out_forward_w = idx.out_forward_w
        unbounded_out = idx.unbounded_out
        anchor_slot = idx.anchor_slot
        for v in topo:
            mask = masks[v]
            for h, _ in out_forward_w[v]:
                masks[h] |= mask
            slot = anchor_slot[v]
            if slot >= 0 and unbounded_out[v]:
                with_self = mask | (1 << slot)
                for h in unbounded_out[v]:
                    masks[h] |= with_self
        return masks

    return graph.cached("anchor_masks", build)


def has_containment_violation(graph: ConstraintGraph) -> bool:
    """True when some backward edge fails ``A(tail) subset-of A(head)``
    (the Theorem 2 criterion), tested directly on the anchor bitmasks.

    The well-posedness *verdict* only needs existence, so this skips the
    name-keyed frozenset materialization of ``find_anchor_sets`` --
    callers that must report *which* anchors are missing use
    :func:`repro.core.wellposed.containment_violations` instead.
    """
    idx = get_indexed(graph)
    if not idx.backward:
        return False
    masks = anchor_masks(graph)
    for tail, head, _ in idx.backward:
        if masks[tail] & ~masks[head]:
            return True
    return False


def relevant_masks(graph: ConstraintGraph) -> List[int]:
    """``R(v)`` for every vertex as anchor-slot bitmasks (memoised).

    Per anchor: one traversal seeded by its unbounded out-edges and one
    all-bounded traversal confined to its cone, exactly mirroring the
    two phases of :func:`repro.qa.reference.relevant_anchors_reference`.
    """
    def build() -> List[int]:
        idx = get_indexed(graph)
        masks = anchor_masks(graph)
        n = idx.n
        relevant = [0] * n
        out_bounded = idx.out_bounded
        for slot, anchor_vertex in enumerate(idx.anchor_vertices):
            bit = 1 << slot
            # Phase 1: unbounded first hop, then bounded edges anywhere.
            visited = bytearray(n)
            visited[anchor_vertex] = 1
            stack = []
            for h in idx.unbounded_out[anchor_vertex]:
                if not visited[h]:
                    visited[h] = 1
                    stack.append(h)
            while stack:
                current = stack.pop()
                relevant[current] |= bit
                for h, _ in out_bounded[current]:
                    if not visited[h]:
                        visited[h] = 1
                        stack.append(h)
            # Phase 2: all-bounded path, confined to the anchor's cone.
            visited = bytearray(n)
            visited[anchor_vertex] = 1
            stack = []
            for h, _ in out_bounded[anchor_vertex]:
                if not visited[h] and (masks[h] >> slot) & 1:
                    visited[h] = 1
                    stack.append(h)
            while stack:
                current = stack.pop()
                relevant[current] |= bit
                for h, _ in out_bounded[current]:
                    if not visited[h] and (masks[h] >> slot) & 1:
                        visited[h] = 1
                        stack.append(h)
        return relevant

    return graph.cached("relevant_masks", build)


def anchored_length_tables(graph: ConstraintGraph) -> List[List[Optional[int]]]:
    """Per-anchor-slot anchored longest-path arrays (memoised)."""
    def build() -> List[List[Optional[int]]]:
        idx = get_indexed(graph)
        masks = anchor_masks(graph)
        return [anchored_lengths_for_slot(graph, idx, slot, masks)
                for slot in range(idx.n_anchors)]

    return graph.cached("anchored_lengths", build)


def _bit_rows(masks: Sequence[int], n: int, m: int):
    """Per-vertex slot bitmasks as an ``(n, m)`` numpy bool matrix."""
    nbytes = (m + 7) // 8 or 1
    buffer = b"".join(mask.to_bytes(nbytes, "little") for mask in masks)
    packed = _np.frombuffer(buffer, dtype=_np.uint8).reshape(n, nbytes)
    return _np.unpackbits(packed, axis=1, bitorder="little",
                          count=m).astype(bool)


def _level_batches(graph: ConstraintGraph):
    """The forward edges grouped by the topological depth of their tail,
    each level pre-sorted by head for one ``maximum.reduceat`` per level
    (memoised).

    Returns ``(batches, batch_depths, vertex_depth)`` where each batch
    is a ``(tails, weights_column, starts, unique_heads)`` numpy tuple.
    Relaxing the batches in order is exactly one topological relaxation
    sweep: every tail's depth exceeds the depths of all its forward
    predecessors, so its label is final when its batch is processed.
    Parallel edges fold into the same reduce group.  ``batch_depths``
    (ascending) and ``vertex_depth`` let callers restart a sweep at the
    shallowest vertex a backward edge moved.
    """
    def build():
        idx = get_indexed(graph)
        topo = graph.forward_topological_indices()
        n = idx.n
        out_forward_w = idx.out_forward_w
        depth = [0] * n
        tails_l: List[int] = []
        heads_l: List[int] = []
        weights_l: List[int] = []
        for v in topo:
            next_depth = depth[v] + 1
            for h, _ in out_forward_w[v]:
                if depth[h] < next_depth:
                    depth[h] = next_depth
        for v in range(n):
            for h, w in out_forward_w[v]:
                tails_l.append(v)
                heads_l.append(h)
                weights_l.append(w)
        batches: List[Tuple] = []
        batch_depths: List[int] = []
        if not tails_l:
            return batches, batch_depths, depth
        tails = _np.array(tails_l, dtype=_np.intp)
        heads = _np.array(heads_l, dtype=_np.intp)
        weights = _np.array(weights_l, dtype=_np.float64)
        depths = _np.array(depth, dtype=_np.intp)[tails]
        order = _np.lexsort((heads, depths))
        tails, heads, weights, depths = (tails[order], heads[order],
                                         weights[order][:, None],
                                         depths[order])
        level_starts = _np.flatnonzero(
            _np.diff(depths, prepend=depths[0] - 1)).tolist()
        level_starts.append(len(depths))
        for i in range(len(level_starts) - 1):
            lo, hi = level_starts[i], level_starts[i + 1]
            level_heads = heads[lo:hi]
            starts = _np.flatnonzero(
                _np.diff(level_heads, prepend=level_heads[0] - 1))
            batches.append((tails[lo:hi], weights[lo:hi], starts,
                            level_heads[starts]))
            batch_depths.append(int(depths[lo]))
        return batches, batch_depths, depth

    return graph.cached("fwd_level_batches", build)


def _dense_anchored_tables(graph: ConstraintGraph):
    """All anchored longest-path tables as one ``(|V|, |A|)`` float
    matrix ``D[v, slot]`` with ``-inf`` for "no path" (memoised).

    Every anchored region is swept simultaneously: one level-batched
    forward pass relaxes each forward edge over all slots at once
    (region membership as an additive -inf mask), then the backward
    edges; the same ``|Eb| + 1``-round bound as the scalar sweep
    certifies a positive cycle.  Weights are small ints, exact in float64, so the
    values match :func:`anchored_lengths_for_slot` slot by slot.
    """
    def build():
        idx = get_indexed(graph)
        masks = anchor_masks(graph)
        n, m = idx.n, idx.n_anchors
        neg = -_np.inf
        allowed = _bit_rows(masks, n, m)
        D = _np.full((n, m), neg)
        for slot, anchor_vertex in enumerate(idx.anchor_vertices):
            allowed[anchor_vertex, slot] = True
            D[anchor_vertex, slot] = 0.0
        # Region membership as an additive mask: writing through
        # ``+ penalty[head]`` sends out-of-region candidates to -inf, so
        # the plain max-relaxation stays confined to each slot's cone.
        penalty = _np.where(allowed, 0.0, neg)
        batches, batch_depths, vertex_depth = _level_batches(graph)
        backward = idx.backward
        maximum = _np.maximum
        rounds = 0
        begin = 0  # after a backward round, resume at the shallowest move
        while True:
            for bi in range(begin, len(batches)):
                tails, weights, starts, unique_heads = batches[bi]
                reduced = maximum.reduceat(D[tails] + weights, starts, axis=0)
                reduced += penalty[unique_heads]
                sub = D[unique_heads]
                maximum(sub, reduced, out=sub)
                D[unique_heads] = sub
            improved = None
            restart_depth = None
            for t, h, w in backward:
                candidate = D[t] + w + penalty[h]
                better = candidate > D[h]
                if better.any():
                    improved = better if improved is None else improved | better
                    maximum(D[h], candidate, out=D[h])
                    depth_h = vertex_depth[h]
                    if restart_depth is None or depth_h < restart_depth:
                        restart_depth = depth_h
            if improved is None:
                return D
            rounds += 1
            if rounds > len(backward) + 1:
                slot = int(_np.flatnonzero(improved)[0])
                raise UnfeasibleConstraintsError(
                    "positive cycle in the region anchored by "
                    f"{idx.anchor_names[slot]!r}")
            begin = bisect_left(batch_depths, restart_depth)

    return graph.cached("anchored_dense", build)


def _irredundant_numpy(graph: ConstraintGraph, idx: IndexedGraph) -> List[int]:
    """Definition 11 scan vectorized over vertices: for every dominating
    anchor ``r``, one matrix comparison marks every vertex/anchor pair
    it makes redundant."""
    masks = anchor_masks(graph)
    relevant = relevant_masks(graph)
    D = _dense_anchored_tables(graph)
    n, m = idx.n, idx.n_anchors
    finite = D != -_np.inf
    relevant_rows = _bit_rows(relevant, n, m)
    redundant = _np.zeros((n, m), dtype=bool)
    for r in range(m):
        r_vertex = idx.anchor_vertices[r]
        # x must be an anchor of r with a finite path x -> r to cascade
        # over (Definition 11).
        xs = [x for x in _mask_slots(masks[r_vertex])
              if x != r and finite[r_vertex, x]]
        if not xs:
            continue
        xs = _np.array(xs, dtype=_np.intp)
        x_to_r = D[r_vertex, xs]
        cond = D[:, xs] <= x_to_r + D[:, r:r + 1]
        cond &= finite[:, xs]
        cond &= finite[:, r:r + 1]
        cond &= relevant_rows[:, xs]
        cond &= relevant_rows[:, r:r + 1]
        redundant[:, xs] |= cond
    packed = _np.packbits(relevant_rows & ~redundant, axis=1,
                          bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def irredundant_masks(graph: ConstraintGraph) -> List[int]:
    """``IR(v)`` for every vertex as anchor-slot bitmasks (memoised).

    The Definition 11 redundancy scan over relevant candidates, with
    anchor-set membership as bit tests and lengths from the memoised
    per-slot tables.
    """
    def build() -> List[int]:
        idx = get_indexed(graph)
        if _use_numpy(idx):
            return _irredundant_numpy(graph, idx)
        masks = anchor_masks(graph)
        relevant = relevant_masks(graph)
        lengths = anchored_length_tables(graph)
        anchor_vertices = idx.anchor_vertices
        result = [0] * idx.n
        # (x, r) pairs are a function of the candidate mask alone, so
        # hoist the membership tests and anchor-to-anchor lengths out of
        # the per-vertex scan and share them across equal masks.
        pair_cache: Dict[int, List[Tuple[int, List[Optional[int]], int,
                                         List[Optional[int]]]]] = {}
        for v in range(idx.n):
            cand_mask = relevant[v]
            if not cand_mask:
                continue
            pairs = pair_cache.get(cand_mask)
            if pairs is None:
                slots = _mask_slots(cand_mask)
                pairs = []
                for r in slots:
                    r_vertex = anchor_vertices[r]
                    mask_r = masks[r_vertex]
                    lengths_r = lengths[r]
                    for x in slots:
                        # x must be an anchor of r to be dominated
                        # through it, with a path x -> r to cascade over.
                        if x == r or not (mask_r >> x) & 1:
                            continue
                        x_to_r = lengths[x][r_vertex]
                        if x_to_r is None:
                            continue
                        pairs.append((1 << x, lengths[x], x_to_r, lengths_r))
                pair_cache[cand_mask] = pairs
            redundant = 0
            for x_bit, lengths_x, x_to_r, lengths_r in pairs:
                if redundant & x_bit:
                    continue
                direct = lengths_x[v]
                if direct is None:
                    continue
                to_v = lengths_r[v]
                if to_v is None:
                    continue
                if direct <= x_to_r + to_v:
                    redundant |= x_bit
            result[v] = cand_mask & ~redundant
        return result

    return graph.cached("irredundant_masks", build)


def _mask_slots(mask: int) -> List[int]:
    """The set bit positions of *mask*, ascending."""
    slots = []
    while mask:
        bit = mask & -mask
        slots.append(bit.bit_length() - 1)
        mask ^= bit
    return slots


def masks_to_sets(idx: IndexedGraph, masks: Sequence[int]
                  ) -> Dict[str, FrozenSet[str]]:
    """Convert per-vertex anchor bitmasks to the public name-based
    ``AnchorSets`` shape (shared frozensets for shared masks)."""
    anchor_names = idx.anchor_names
    interned: Dict[int, FrozenSet[str]] = {0: frozenset()}
    result: Dict[str, FrozenSet[str]] = {}
    names = idx.names
    for v, mask in enumerate(masks):
        tags = interned.get(mask)
        if tags is None:
            tags = frozenset(anchor_names[s] for s in _mask_slots(mask))
            interned[mask] = tags
        result[names[v]] = tags
    return result


# ----------------------------------------------------------------------
# the iterative incremental scheduler on flat arrays
# ----------------------------------------------------------------------


def schedule_offsets(graph: ConstraintGraph,
                     anchor_sets: Dict[str, FrozenSet[str]],
                     initial: Optional[Dict[str, Dict[str, int]]] = None,
                     trace: Optional[ScheduleTrace] = None
                     ) -> Tuple[Dict[str, Dict[str, int]], int]:
    """Section IV-E scheduling on the indexed compilation.

    Offsets are per-vertex int arrays over anchor slots (-1 for
    untracked); the first round is one full topological sweep, later
    rounds propagate only downstream of the vertices the readjustment
    moved.  Per-round fixpoints, the violated-edge sets and therefore
    the iteration count are identical to the reference dict scheduler
    (:func:`repro.qa.reference.schedule_offsets_reference`).

    With *initial*, relaxation warm-starts from the given offsets
    instead of zero (entries for untracked vertex/anchor pairs are
    dropped, negatives clamped to 0).  Any under-approximation of the
    fixpoint is a sound starting point (Lemma 8), so incremental
    rescheduling after a constraint addition passes the previous
    schedule's offsets here.

    With *trace*, each round's compute and readjust snapshots are
    appended to it (Fig. 10).  The converged rows are certified by
    :func:`offset_violation` before any dict is built.

    Returns ``(offsets, iterations)`` with offsets in the public
    dict-of-dict shape.

    Raises:
        IndexedKernelUnsupported: an anchor set names a tag that is not
            an anchor vertex of the graph, or a vertex the graph lacks.
        InconsistentConstraintsError: no convergence in ``|Eb| + 1``
            rounds (Corollary 2).
        ScheduleViolationError: the converged rows fail the certificate
            (a kernel bug).
    """
    if trace is not None:
        from repro.core.scheduler import IterationRecord
    idx = get_indexed(graph)
    topo = graph.forward_topological_indices()
    n = idx.n
    n_anchors = idx.n_anchors
    anchor_slot = idx.anchor_slot
    index = idx.index

    # Tracked anchor slots per vertex, ascending slot order.
    tracked: List[List[int]] = [[] for _ in range(n)]
    for name, anchors in anchor_sets.items():
        slots = []
        for anchor in anchors:
            vid = index.get(anchor, -1)
            slot = anchor_slot[vid] if vid >= 0 else -1
            if slot < 0:
                raise IndexedKernelUnsupported(
                    f"anchor set tag {anchor!r} is not an anchor vertex")
            slots.append(slot)
        slots.sort()
        vid = index.get(name, -1)
        if vid < 0:
            raise IndexedKernelUnsupported(
                f"anchor sets name unknown vertex {name!r}")
        tracked[vid] = slots

    # Initial rows: 0 at tracked cells (cold), or the warm offsets.
    offsets: List[List[int]] = []
    for v in range(n):
        row = [-1] * n_anchors
        for slot in tracked[v]:
            row[slot] = 0
        offsets.append(row)
    if initial:
        for name, entries in initial.items():
            vid = index.get(name, -1)
            if vid < 0:
                continue
            row = offsets[vid]
            for anchor, sigma in entries.items():
                avid = index.get(anchor, -1)
                slot = anchor_slot[avid] if avid >= 0 else -1
                if slot >= 0 and row[slot] >= 0 and sigma > row[slot]:
                    row[slot] = sigma

    backward = idx.backward
    in_forward = idx.in_forward
    out_forward_w = idx.out_forward_w
    pos = [0] * n
    for p, v in enumerate(topo):
        pos[v] = p

    tracer = _OBS.tracer
    rec = tracer.enabled

    max_rounds = len(backward) + 1
    changed: Optional[List[int]] = None
    for round_index in range(1, max_rounds + 1):
        if rec:
            before = [row[:] for row in offsets]
        # -- IncrementalOffset ------------------------------------------
        if changed is None:
            # Round 1: full relaxation sweep in topological order.
            for v in topo:
                row = tracked[v]
                if not row:
                    continue
                target = offsets[v]
                for t, w in in_forward[v]:
                    source_row = offsets[t]
                    for slot in row:
                        sigma = source_row[slot]
                        if sigma >= 0:
                            candidate = sigma + w
                            if candidate > target[slot]:
                                target[slot] = candidate
                    # Tail-anchor rule: sigma_t(t) = 0 implies
                    # sigma_t(v) >= weight when v tracks t.
                    tail_slot = anchor_slot[t]
                    if tail_slot >= 0:
                        current = target[tail_slot]
                        if 0 <= current < w:
                            target[tail_slot] = w
        else:
            # Later rounds: only the region downstream of readjusted
            # vertices can move (offsets are max-monotone, Lemma 8).
            in_queue = bytearray(n)
            heap = []
            for v in changed:
                if not in_queue[v]:
                    in_queue[v] = 1
                    heap.append((pos[v], v))
            heapq.heapify(heap)
            while heap:
                _, v = heapq.heappop(heap)
                in_queue[v] = 0
                source_row = offsets[v]
                v_slot = anchor_slot[v]
                for h, w in out_forward_w[v]:
                    target = offsets[h]
                    moved = False
                    for slot in tracked[h]:
                        sigma = source_row[slot]
                        if sigma >= 0:
                            candidate = sigma + w
                            if candidate > target[slot]:
                                target[slot] = candidate
                                moved = True
                    if v_slot >= 0:
                        current = target[v_slot]
                        if 0 <= current < w:
                            target[v_slot] = w
                            moved = True
                    if moved and not in_queue[h]:
                        in_queue[h] = 1
                        heapq.heappush(heap, (pos[h], h))

        # -- find violations --------------------------------------------
        violations: List[Tuple[int, int]] = []
        for b, (t, h, w) in enumerate(backward):
            tail_row = offsets[t]
            head_row = offsets[h]
            head_slot = anchor_slot[h]
            for slot in tracked[t]:
                head_value = head_row[slot]
                if head_value < 0:
                    if slot != head_slot:
                        continue
                    head_value = 0  # the head is the anchor itself
                if head_value < tail_row[slot] + w:
                    violations.append((b, slot))
            tail_slot = anchor_slot[t]
            if tail_slot >= 0 and tail_row[tail_slot] < 0:
                # Implicit normalized sigma_t(t) = 0 (Definition 3).
                head_value = head_row[tail_slot]
                if head_value < 0:
                    head_value = 0 if tail_slot == head_slot else None
                if head_value is not None and head_value < w:
                    violations.append((b, tail_slot))
        if rec:
            relaxed = _count_row_raises(before, offsets)
        if trace is not None:
            computed = _offsets_to_dicts(idx, tracked, offsets)
        if not violations:
            if rec:
                tracer.count("scheduler.relaxations", relaxed)
                tracer.event("scheduler.iteration", round=round_index,
                             violations=0, relaxations=relaxed,
                             kernel="indexed")
            if trace is not None:
                trace.records.append(IterationRecord(
                    round_index, computed, [], computed))
            if rec:
                tracer.begin_span("pipeline.validation")
            try:
                violation = offset_violation(graph, offsets, tracked)
            finally:
                if rec:
                    tracer.end_span()
            if violation is not None:
                raise ScheduleViolationError(violation)
            break

        # -- ReadjustOffsets --------------------------------------------
        if rec:
            before = [row[:] for row in offsets]
        changed = []
        for b, slot in violations:
            t, h, w = backward[b]
            if anchor_slot[h] == slot:
                continue  # the head's own offset is pinned at 0
            sigma_tail = offsets[t][slot]
            if sigma_tail < 0:
                sigma_tail = 0  # implicit self offset of the tail anchor
            required = sigma_tail + w
            if offsets[h][slot] < required:
                offsets[h][slot] = required
                changed.append(h)
        if rec:
            relaxed += _count_row_raises(before, offsets)
            tracer.count("scheduler.relaxations", relaxed)
            tracer.event("scheduler.iteration", round=round_index,
                         violations=len(violations), relaxations=relaxed,
                         kernel="indexed")
        if trace is not None:
            trace.records.append(IterationRecord(
                round_index, computed,
                [(graph.backward_edges()[b], idx.anchor_names[slot])
                 for b, slot in violations],
                _offsets_to_dicts(idx, tracked, offsets)))
    converged = not violations
    if rec:
        if converged:
            tracer.count("kernel.indexed_runs")
        tracer.count("scheduler.runs")
        tracer.count("scheduler.iterations", round_index)
        tracer.event("scheduler.run", iterations=round_index,
                     bound=max_rounds, backward_edges=len(backward),
                     warm=initial is not None, kernel="indexed",
                     converged=converged)
    if not converged:
        raise InconsistentConstraintsError(
            f"no schedule after {max_rounds} iterations: timing "
            f"constraints are inconsistent (Corollary 2)")
    return _offsets_to_dicts(idx, tracked, offsets), round_index


def _count_row_raises(before: List[List[int]],
                      after: List[List[int]]) -> int:
    """How many offset cells moved between two row snapshots (offsets
    are max-monotone, so every difference is a relaxation)."""
    changed = 0
    for row_before, row_after in zip(before, after):
        if row_before != row_after:
            changed += sum(1 for a, b in zip(row_before, row_after) if a != b)
    return changed


def offset_rows(graph: ConstraintGraph, offsets: Dict[str, Dict[str, int]]
                ) -> Tuple[List[List[int]], List[List[int]]]:
    """Pack dict-of-dict *offsets* into :func:`offset_violation`'s rows
    and tracked slots.

    Raises:
        ValueError: an entry names a vertex the graph lacks, a tag that
            is not an anchor, or a negative offset.
    """
    idx = get_indexed(graph)
    index = idx.index
    rows = [[-1] * idx.n_anchors for _ in range(idx.n)]
    tracked: List[List[int]] = [[] for _ in range(idx.n)]
    for name, entries in offsets.items():
        if name not in index:
            raise ValueError(f"offsets name unknown vertex {name!r}")
        v = index[name]
        for anchor, sigma in entries.items():
            slot = idx.anchor_slot[index[anchor]] if anchor in index else -1
            if slot < 0:
                raise ValueError(
                    f"offset tag {anchor!r} of {name!r} is not an anchor")
            if sigma < 0:
                raise ValueError(f"negative offset {sigma} for anchor "
                                 f"{anchor!r} at {name!r}")
            rows[v][slot] = sigma
            tracked[v].append(slot)
        tracked[v].sort()
    return rows, tracked


def offset_violation(graph: ConstraintGraph, rows: List[List[int]],
                     tracked: List[List[int]]) -> Optional[OffsetViolation]:
    """The one schedule certificate: the first edge inequality that the
    offset *rows* (per vertex over anchor slots, -1 untracked; *tracked*
    lists each row's slots ascending) break, or None.

    Every edge ``(t, h)`` with static weight ``w`` must satisfy
    ``sigma_a(h) >= sigma_a(t) + w`` for each anchor tracked at both
    ends, a tail anchor at its implicit offset 0 (Definition 3).  One
    scalar pass over the graph's edge records in insertion order; the
    witness is the first violated edge, at its lowest anchor slot.
    """
    idx = get_indexed(graph)
    anchor_slot = idx.anchor_slot
    for e, (t, h, w, _) in enumerate(graph.edge_records()):
        if w == _UNBOUNDED_WEIGHT:
            w = 0
        tail_row, head_row = rows[t], rows[h]
        lowest = -1
        for slot in tracked[t]:
            if 0 <= head_row[slot] < tail_row[slot] + w:
                lowest = slot
                break
        own = anchor_slot[t]  # a tail anchor, at its implicit 0
        if (own >= 0 and tail_row[own] < 0 and 0 <= head_row[own] < w
                and not 0 <= lowest < own):
            lowest = own
        if lowest >= 0:
            edge = graph.edges()[e]
            return OffsetViolation(
                edge=edge, anchor=idx.anchor_names[lowest],
                head_offset=head_row[lowest],
                tail_offset=max(tail_row[lowest], 0),
                weight=edge.static_weight)
    return None


def _offsets_to_dicts(idx: IndexedGraph, tracked: List[List[int]],
                      offsets: List[List[int]]) -> Dict[str, Dict[str, int]]:
    names = idx.names
    anchor_names = idx.anchor_names
    return {
        names[v]: {anchor_names[slot]: offsets[v][slot] for slot in tracked[v]}
        for v in range(idx.n)
    }
