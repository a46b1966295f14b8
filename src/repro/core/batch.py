"""Batched scheduling: ``schedule_many`` over a shared CSR arena.

The paper schedules one small constraint graph at a time; production
workloads schedule *corpora* of them.  At 5-30 vertices per graph the
per-call cost of :func:`repro.core.scheduler.schedule_graph` is
dominated by fixed overhead (dict allocation, per-stage dispatch), so
this module amortizes it: a whole batch is packed into one **arena** --
concatenated vertex and edge arrays with per-graph offsets -- and every
pipeline stage runs as a few vectorized numpy sweeps over the arena
instead of ``len(batch)`` Python pipelines.

Stages, mirroring the per-graph pipeline exactly:

1. **assemble** -- one Python pass packs vertices/edges into arrays and
   computes isomorphism-stable cache keys (the vectorized twin of
   :mod:`repro.core.canonical`; byte-identical keys by construction).
2. **classify** -- level-synchronized Kahn sweeps find forward cycles
   and topological depths; Bellman-Ford rounds bounded per graph by
   ``|Eb_g| + 1`` decide feasibility (Theorem 1); uint64 anchor-bitmask
   propagation plus the backward-edge containment test decides
   well-posedness (Theorem 2).  Each graph gets its own verdict; a bad
   graph never poisons the batch.
3. **sweep** -- all well-posed graphs are relaxed together on one dense
   ``(vertices x max_anchors)`` offset table with per-level
   ``np.maximum.at`` scatters: the iterative incremental algorithm of
   Section IV-E, FULL anchor mode.  (Theorems 4/6 make start times
   identical across anchor modes on well-posed graphs, and FULL sets
   are exactly what the bitmask sweep already computed.)
4. **unpack** -- every distinct schedule is compiled once into a
   :class:`_Template` in canonical coordinates (one vectorized pass
   over the dense table; a cache hit compiles its entry on unpack),
   and each result relabels its template *lazily*, on ``unpack()``,
   through the arena-wide canonical permutation.  Graphs the arena
   cannot represent (ill-posed graphs needing serialization, > 63
   anchors, oversized weights) fall back to ``schedule_graph`` per
   graph, preserving the exact exception taxonomy.

A persistent :class:`~repro.core.resultcache.ScheduleCache` keyed by
the canonical hash turns repeated (even renamed) designs into lookups;
only well-posed schedules are cached (see resultcache docs for why).

Error contract: per-graph failures (cyclic, unfeasible, ill-posed,
inconsistent, per-graph budget caps) are *stored* on the graph's
:class:`BatchResult` and raised from :meth:`BatchResult.unpack`; a
batch-level deadline (``budget.deadline_s``) raises
:class:`BudgetExceededError` for the whole call.
"""

from __future__ import annotations

import hashlib
import time
import weakref
from contextlib import nullcontext
from itertools import compress, repeat
from typing import Any, Dict, Iterable, List, Optional, Union

try:  # pragma: no cover - exercised via the scalar-path tests
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

from repro.core.anchors import AnchorMode
from repro.core.canonical import (
    CERTIFICATE_VERSION,
    MIX_CONSTANTS,
    REFINEMENT_ROUNDS,
    UNBOUNDED_TOKEN,
    canonical_form,
)
from repro.core.exceptions import (
    BudgetExceededError,
    ConstraintGraphError,
    CyclicForwardGraphError,
    InconsistentConstraintsError,
    UnfeasibleConstraintsError,
)
from repro.core.graph import ConstraintGraph
from repro.core.resultcache import ScheduleCache
from repro.core.schedule import RelativeSchedule
from repro.core.scheduler import schedule_graph
from repro.observability.tracer import STATE as _OBS

#: Sentinel for untracked (vertex, anchor) cells of the dense table.
#: Junk writes into untracked cells stay far below zero (offsets are
#: non-negative), and reads always go through the tracked-bit masks.
_NEG = -(1 << 62)

#: Graphs with more anchors than fit one uint64 bitmask fall back to
#: the per-graph pipeline (the arena cannot classify them).
_MAX_MASK_ANCHORS = 63

#: Dense-table column cap: well-posed graphs with more anchors are
#: scheduled per graph rather than widening the whole batch's table.
_MAX_DENSE_ANCHORS = 32

#: Weight-magnitude cap for the dense path: keeps every relaxation sum
#: comfortably inside int64 even through junk-cell chains.
_MAX_DENSE_WEIGHT = 1 << 40

if _np is not None:
    _U1, _U2, _U3, _U4, _U5 = (_np.uint64(m) for m in MIX_CONSTANTS)
    _USH29 = _np.uint64(29)
    _USH32 = _np.uint64(32)
    _UONE = _np.uint64(1)
    _UIN = _np.uint64(1)    # kind-id offset for in-edge mixing
    _UOUT = _np.uint64(101)  # kind-id offset for out-edge mixing


def _mix3v(a, b, c):
    """Vectorized :func:`repro.core.canonical.mix3` on uint64 arrays."""
    x = a * _U1 + b * _U2 + c * _U3 + _U4
    x = x ^ (x >> _USH29)
    x = x * _U5
    x = x ^ (x >> _USH32)
    return x


def _mix_pre(b, c):
    """The round-invariant part of :func:`_mix3v`: ``b*M2 + c*M3 + M4``.

    The WL loop mixes every edge's (weight token, kind) with a fresh
    color each round; hoisting their linear combination out of the loop
    saves two multiplies and two adds per edge per round.
    """
    return b * _U2 + c * _U3 + _U4


def _mix1v(a, base):
    """:func:`_mix3v` with the b/c terms pre-combined by :func:`_mix_pre`."""
    x = a * _U1 + base
    x = x ^ (x >> _USH29)
    x = x * _U5
    x = x ^ (x >> _USH32)
    return x


def _check_deadline(deadline: Optional[float]) -> None:
    if deadline is not None and time.perf_counter() > deadline:
        raise BudgetExceededError("batch deadline expired")


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


class BatchResult:
    """The outcome of one graph in a :func:`schedule_many` call.

    A schedule unpacked from the arena is held weakly: while the caller
    keeps it, every unpack returns that same object; once dropped, the
    next unpack materializes an equal one again.  A run therefore never
    pins the dict-of-dict schedules of every graph it has handed out.

    Attributes:
        index: position of the graph in the input sequence.
        graph: the input graph (never mutated by the batch kernel).
        error: the taxonomy exception for a failed graph, else None.
        cached: True when the schedule came from the persistent cache.
        fallback: True when the per-graph pipeline produced the result.
    """

    __slots__ = ("index", "graph", "error", "cached", "fallback",
                 "_schedule", "_lazy", "_handed")

    def __init__(self, index: int, graph: ConstraintGraph, *,
                 error: Optional[Exception] = None,
                 schedule: Optional[RelativeSchedule] = None,
                 lazy: Optional[tuple] = None,
                 cached: bool = False, fallback: bool = False) -> None:
        self.index = index
        self.graph = graph
        self.error = error
        self.cached = cached
        self.fallback = fallback
        self._schedule = schedule
        self._lazy = lazy
        self._handed: Optional[weakref.ref] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def error_type(self) -> Optional[str]:
        return None if self.error is None else type(self.error).__name__

    @property
    def schedule(self) -> RelativeSchedule:
        """The relative schedule; materialized on first access."""
        if self.error is not None:
            # Drop the previous raise's frames: re-raising the stored
            # instance would otherwise grow its traceback on every call.
            raise self.error.with_traceback(None)
        if self._schedule is not None:  # a fallback's own schedule
            return self._schedule
        schedule = self._handed() if self._handed is not None else None
        if schedule is None:
            # The graph's slice of a canonical permutation: numpy arrays
            # over the whole arena, or (numpy absent) the graph's lists.
            # A cache hit carries its entry and compiles a template of
            # its own; the entry stays the cache's, untouched.
            template, ranks, inv, start = self._lazy
            if isinstance(template, dict):
                template = _Template.of_entry(template)
                self._lazy = (template, ranks, inv, start)
            n = len(self.graph)
            ranks, inv = ranks[start:start + n], inv[start:start + n]
            if not isinstance(ranks, list):
                ranks, inv = ranks.tolist(), inv.tolist()
            schedule = template.schedule(self.graph, ranks, inv)
            self._handed = weakref.ref(schedule)
        return schedule

    def unpack(self) -> RelativeSchedule:
        """The schedule, or the same exception ``schedule_graph`` raises."""
        return self.schedule

    def __repr__(self) -> str:
        state = self.error_type or ("cache" if self.cached else
                                    "fallback" if self.fallback else "ok")
        return f"BatchResult(#{self.index}, {state})"


class BatchRun:
    """An ordered sequence of :class:`BatchResult` plus run statistics."""

    __slots__ = ("results", "stats")

    def __init__(self, results: List[BatchResult],
                 stats: Dict[str, int]) -> None:
        self.results = results
        self.stats = stats

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int) -> BatchResult:
        return self.results[index]

    def __repr__(self) -> str:
        return f"BatchRun({self.stats})"


class _Template:
    """One distinct schedule, compiled once into canonical coordinates;
    every graph it serves relabels it without per-cell work.

    Row ``r`` belongs to the rank-``r`` vertex.  ``patterns`` is a small
    table of the distinct tracked-anchor column sequences (column ``j``
    is the anchor of rank ``anchor_ranks[j]``), ``row_pattern[r]``
    indexes it, and ``row_vals[r]`` holds row ``r``'s offsets in the
    pattern's column order.  All of them are read-only once built.
    """

    __slots__ = ("anchor_ranks", "patterns", "row_pattern", "row_vals",
                 "iterations")

    def __init__(self, anchor_ranks: List[int], patterns: List[Any],
                 row_pattern: List[int], row_vals: List[Any],
                 iterations: int) -> None:
        self.anchor_ranks = anchor_ranks
        self.patterns = patterns
        self.row_pattern = row_pattern
        self.row_vals = row_vals
        self.iterations = iterations

    @classmethod
    def of_entry(cls, entry: Dict[str, Any]) -> "_Template":
        """A fresh template compiled from a cache entry's rows (``-1``
        marks untracked cells)."""
        rows = entry["rows"]
        columns = range(len(entry["anchor_ranks"]))
        ids: Dict[tuple, int] = {}  # column tuple -> pattern id
        row_pattern = [
            ids.setdefault(tuple(compress(columns, map(_TRACKED, row))),
                           len(ids))
            for row in rows]
        row_vals = [tuple(filter(_TRACKED, row)) for row in rows]
        return cls(entry["anchor_ranks"], list(ids), row_pattern, row_vals,
                   entry["iterations"])

    def schedule(self, graph: ConstraintGraph, ranks: List[int],
                 inv: List[int]) -> RelativeSchedule:
        """The schedule of *graph*, where ``ranks[i]`` is the canonical
        rank of its ``i``-th vertex and ``inv[r]`` the insertion index
        of its rank-``r`` vertex.

        Vertices come out in insertion order, as ``schedule_graph``
        returns them; each row lists its anchors in canonical-rank
        order, a name-free order shared by every graph the template
        serves.  Per graph, only the pattern table is relabelled (one
        key tuple and one frozenset per pattern); every per-row step
        runs at C level.  Row dicts are fresh per graph, while the
        per-pattern frozensets are shared between rows, which is safe
        because they are immutable.
        """
        names = graph.vertex_names()
        anchors = list(map(names.__getitem__,
                           map(inv.__getitem__, self.anchor_ranks)))
        keys = list(map(tuple, map(map, repeat(anchors.__getitem__),
                                   self.patterns)))
        sets = list(map(frozenset, keys))
        pats = list(map(self.row_pattern.__getitem__, ranks))
        rows = map(dict, map(zip, map(keys.__getitem__, pats),
                             map(self.row_vals.__getitem__, ranks)))
        return RelativeSchedule(
            graph=graph, anchor_sets=dict(zip(names, map(sets.__getitem__,
                                                         pats))),
            offsets=dict(zip(names, rows)), anchor_mode=AnchorMode.FULL,
            iterations=self.iterations)


#: ``_TRACKED(v)`` is ``-1 < v``: the cache's untracked sentinel is -1.
_TRACKED = (-1).__lt__


# ----------------------------------------------------------------------
# arena assembly
# ----------------------------------------------------------------------


class _Arena:
    """Concatenated vertex/edge arrays of a batch, with per-graph offsets."""

    __slots__ = ("na", "nv", "ne", "vstart", "vcount", "estart", "ecount",
                 "nb", "maxw", "v_graph", "v_delay_tok", "v_flags",
                 "v_aslot", "n_anchors", "src", "snk", "e_graph", "e_tail",
                 "e_head", "e_w", "e_wtok", "e_kid", "e_fwd", "e_unb")


def _assemble(graphs: List[ConstraintGraph]) -> "_Arena":
    # The O(batch) Python loop of the fast path only concatenates each
    # graph's store (graph.packed(): delay tokens plus flat (tail, head,
    # weight, kind-id) edge records with local vertex indices, the
    # source first and the sink second) -- no per-edge walk.  Everything
    # else is derived vectorized.
    np = _np
    arena = _Arena()
    arena.na = len(graphs)
    vparts: List[Any] = []
    eparts: List[Any] = []
    vcount: List[int] = []
    ecount: List[int] = []
    for graph in graphs:
        toks, epack = graph.packed()
        vparts.append(toks)
        eparts.append(epack)
        vcount.append(len(toks))
        ecount.append(len(epack) >> 2)
    v_delay = np.frombuffer(b"".join([memoryview(p) for p in vparts]), np.int64)
    e_flat = np.frombuffer(b"".join([memoryview(p) for p in eparts]), np.int64)

    unb_token = UNBOUNDED_TOKEN
    arena.nv = v_delay.size
    arena.ne = e_flat.size >> 2
    arena.vcount = np.asarray(vcount, np.int64)
    arena.ecount = np.asarray(ecount, np.int64)
    arena.vstart = np.zeros(arena.na, np.int64)
    arena.vstart[1:] = np.cumsum(arena.vcount)[:-1]
    arena.estart = np.zeros(arena.na, np.int64)
    arena.estart[1:] = np.cumsum(arena.ecount)[:-1]
    arena.v_graph = np.repeat(np.arange(arena.na), arena.vcount)
    arena.e_graph = np.repeat(np.arange(arena.na), arena.ecount)
    arena.v_delay_tok = v_delay.view(np.uint64)  # two's-complement wrap
    arena.src = arena.vstart
    arena.snk = arena.vstart + 1
    arena.v_flags = np.zeros(arena.nv, np.uint64)
    arena.v_flags[arena.src] = 1
    arena.v_flags[arena.snk] = 2
    # Anchor slots: running count of unbounded vertices within each graph.
    anchor = arena.v_delay_tok == np.uint64(unb_token)
    running = np.cumsum(anchor) - anchor
    arena.v_aslot = np.where(
        anchor, running - running[arena.vstart[arena.v_graph]], -1)
    arena.n_anchors = np.bincount(
        arena.v_graph[anchor], minlength=arena.na).astype(np.int64)
    records = np.asarray(e_flat, np.int64).reshape(-1, 4)
    ebase = arena.vstart[arena.e_graph]  # local -> arena vertex indices
    arena.e_tail = records[:, 0] + ebase
    arena.e_head = records[:, 1] + ebase
    raw_w = records[:, 2]
    arena.e_unb = raw_w == -unb_token
    arena.e_w = np.where(arena.e_unb, 0, raw_w)
    arena.e_wtok = np.where(arena.e_unb, np.uint64(unb_token),
                            arena.e_w.astype(np.uint64))
    arena.e_kid = records[:, 3]
    arena.e_fwd = arena.e_kid != 2
    if arena.ne:
        arena.nb = np.bincount(arena.e_graph[~arena.e_fwd],
                               minlength=arena.na).astype(np.int64)
        arena.maxw = np.zeros(arena.na, np.int64)
        np.maximum.at(arena.maxw, arena.e_graph, np.abs(arena.e_w))
    else:
        arena.nb = np.zeros(arena.na, np.int64)
        arena.maxw = np.zeros(arena.na, np.int64)
    return arena


def _edge_sort(arena: "_Arena", rtail, rhead):
    """Certificate edge order ``(graph, rank_tail, rank_head, kind,
    weight-token)`` as one permutation.

    Packs the five sort keys into a single int64 when the ranges fit --
    one argsort is ~3x faster than a five-key lexsort on batches of
    small graphs.  The weight key must reproduce uint64 *value* order
    (nonnegative weights < UNBOUNDED_TOKEN < two's-complement-wrapped
    negative weights), done by an order-preserving remap onto a small
    range; oversized batches fall back to the lexsort.
    """
    np = _np
    e_w = arena.e_w
    neg = e_w < 0
    nonneg = ~neg & ~arena.e_unb
    pos_max = int(e_w[nonneg].max()) if nonneg.any() else 0
    neg_min = int(e_w[neg].min()) if neg.any() else 0
    span = pos_max + 2 - neg_min  # wkey values are in [0, span - 1]
    vmax = int(arena.vcount.max()) if arena.na else 1
    if arena.na * vmax * vmax * 4 * span >= 1 << 62:
        return np.lexsort((arena.e_wtok, arena.e_kid, rhead, rtail,
                           arena.e_graph))
    # nonneg weight -> value; UNBOUNDED -> pos_max+1; negative weight
    # w -> pos_max+2+(w-neg_min): exactly the uint64 token order.
    wkey = np.where(arena.e_unb, pos_max + 1,
                    np.where(neg, pos_max + 2 + (e_w - neg_min), e_w))
    comp = (((arena.e_graph * vmax + rtail) * vmax + rhead) * 4
            + arena.e_kid) * span + wkey
    return np.argsort(comp)


def _arena_keys(arena: "_Arena"):
    """Canonical cache keys for every arena graph (vectorized WL).

    Returns ``(keys, rank, inv)``: per-graph SHA-256 hex keys (None for
    graphs whose colors do not refine to discrete -- not cacheable), the
    per-vertex canonical rank within its graph, and its inverse
    (``inv[vstart_g + r]`` is the local index of graph ``g``'s rank-``r``
    vertex).  Byte-identical to
    :func:`repro.core.canonical.canonical_form` by construction.
    """
    np = _np
    nv, ne, na = arena.nv, arena.ne, arena.na
    colors = _mix3v(arena.v_delay_tok, arena.v_flags, np.uint64(0))
    wtok = arena.e_wtok
    kid_u = arena.e_kid.astype(np.uint64)
    base_in = _mix_pre(wtok, kid_u + _UIN)
    base_out = _mix_pre(wtok, kid_u + _UOUT)
    tail = arena.e_tail
    head = arena.e_head
    for _ in range(REFINEMENT_ROUNDS):
        in_sum = np.zeros(nv, np.uint64)
        out_sum = np.zeros(nv, np.uint64)
        if ne:
            np.add.at(in_sum, head, _mix1v(colors[tail], base_in))
            np.add.at(out_sum, tail, _mix1v(colors[head], base_out))
        colors = _mix3v(colors, in_sum, out_sum)

    # Sort by (graph, color): compress colors to dense ranks first so
    # both keys pack into one int64 argsort (~2x faster than lexsort).
    # The color sort need not be stable: equal colors only tie inside
    # ambiguous graphs, which get no key, and the ambiguity test below
    # only needs equal colors of one graph to end up adjacent.
    if nv < 1 << 31:
        corder = np.argsort(colors)
        crank = np.empty(nv, np.int64)
        crank[corder] = np.arange(nv)
        order = np.argsort(arena.v_graph * nv + crank)
    else:  # pragma: no cover - arenas never get this large in practice
        order = np.lexsort((colors, arena.v_graph))
    gsorted = arena.v_graph[order]
    csorted = colors[order]
    pos = np.empty(nv, np.int64)
    pos[order] = np.arange(nv)
    rank = pos - arena.vstart[arena.v_graph]
    inv = order - arena.vstart[gsorted]
    ambiguous = np.zeros(na, bool)
    if nv > 1:
        dup = (csorted[1:] == csorted[:-1]) & (gsorted[1:] == gsorted[:-1])
        ambiguous[gsorted[1:][dup]] = True

    # Certificate streams for the whole arena in one buffer: per graph
    # [version, n, m, rank(source), rank(sink), delays by rank,
    #  (rank_tail, rank_head, kind, weight-token) sorted] -- the exact
    # layout canonical_form() hashes, as little-endian uint64.
    cert_len = 5 + arena.vcount + 4 * arena.ecount
    cstart = np.zeros(na + 1, np.int64)
    cstart[1:] = np.cumsum(cert_len)
    big = np.zeros(int(cstart[-1]), dtype="<u8")
    heads = cstart[:-1]
    big[heads] = CERTIFICATE_VERSION
    big[heads + 1] = arena.vcount
    big[heads + 2] = arena.ecount
    big[heads + 3] = rank[arena.src]
    big[heads + 4] = rank[arena.snk]
    big[cstart[arena.v_graph] + 5 + rank] = arena.v_delay_tok
    if ne:
        rtail = rank[tail]
        rhead = rank[head]
        eorder = _edge_sort(arena, rtail, rhead)
        eg_s = arena.e_graph[eorder]
        epos = np.arange(ne) - arena.estart[eg_s]
        ebase = cstart[eg_s] + 5 + arena.vcount[eg_s] + 4 * epos
        big[ebase] = rtail[eorder]
        big[ebase + 1] = rhead[eorder]
        big[ebase + 2] = arena.e_kid[eorder]
        big[ebase + 3] = wtok[eorder]

    # Batches of repeated designs share certificate bytes verbatim, so
    # hash each distinct certificate once and reuse the digest.
    keys: List[Optional[str]] = []
    seen: Dict[bytes, str] = {}
    starts = cstart.tolist()
    amb = ambiguous.tolist()
    for gi in range(na):
        if amb[gi]:
            keys.append(None)
            continue
        blob = big[starts[gi]:starts[gi + 1]].tobytes()
        key = seen.get(blob)
        if key is None:
            key = hashlib.sha256(blob).hexdigest()
            seen[blob] = key
        keys.append(key)
    return keys, rank, inv


# ----------------------------------------------------------------------
# vectorized classification
# ----------------------------------------------------------------------


def _level_slices(levels) -> List[tuple]:
    """(start, end) runs of equal values in a sorted level array."""
    if levels.size == 0:
        return []
    change = _np.nonzero(_np.diff(levels))[0] + 1
    bounds = [0, *change.tolist(), int(levels.size)]
    return list(zip(bounds[:-1], bounds[1:]))


def _depths(arena: "_Arena", consider):
    """Kahn longest-path depths; vertices left at -1 sit on forward cycles.

    Runs on the compacted vertex set of the considered graphs -- in
    dedup-heavy batches that is a small fraction of the arena, and the
    level loop touches every compact cell once per level.
    """
    np = _np
    sel = np.nonzero(consider[arena.v_graph])[0]
    vmap = np.full(arena.nv, -1, np.int64)
    vmap[sel] = np.arange(sel.size)
    esel = consider[arena.e_graph] & arena.e_fwd
    ftail = vmap[arena.e_tail[esel]]
    fhead = vmap[arena.e_head[esel]]
    indeg = np.zeros(sel.size, np.int64)
    if ftail.size:
        np.add.at(indeg, fhead, 1)
    depth_c = np.full(sel.size, -1, np.int64)
    frontier = indeg == 0
    level = 0
    while frontier.any():
        depth_c[frontier] = level
        indeg[frontier] = -1
        if ftail.size:
            active = frontier[ftail]
            if active.any():
                np.add.at(indeg, fhead[active], -1)
        frontier = indeg == 0
        level += 1
    depth = np.full(arena.nv, -1, np.int64)
    depth[sel] = depth_c
    cyclic = np.zeros(arena.na, bool)
    unresolved = sel[depth_c < 0]
    if unresolved.size:
        cyclic[arena.v_graph[unresolved]] = True
    return depth, cyclic


def _classify_feasible(arena: "_Arena", depth, consider,
                       deadline: Optional[float]):
    """Per-graph Theorem 1 verdicts: True where a positive cycle exists.

    Forward level sweeps alternate with backward relaxation rounds; a
    graph still improving after ``|Eb_g| + 1`` improving rounds has a
    positive cycle (Corollary of the walk-length argument), exactly as
    in ``has_positive_cycle_indexed``.
    """
    np = _np
    fsel = consider[arena.e_graph] & arena.e_fwd
    ftail = arena.e_tail[fsel]
    fhead = arena.e_head[fsel]
    fwght = arena.e_w[fsel]
    fgrph = arena.e_graph[fsel]
    lvl = depth[ftail]
    order = np.argsort(lvl, kind="stable")
    ftail, fhead, fwght, fgrph, lvl = (
        ftail[order], fhead[order], fwght[order], fgrph[order], lvl[order])
    bsel = consider[arena.e_graph] & ~arena.e_fwd
    btail = arena.e_tail[bsel]
    bhead = arena.e_head[bsel]
    bwght = arena.e_w[bsel]
    bgrph = arena.e_graph[bsel]
    bound = arena.nb + 1
    dist = np.zeros(arena.nv, np.int64)
    rounds = np.zeros(arena.na, np.int64)
    unfeasible = np.zeros(arena.na, bool)
    slices = _level_slices(lvl)
    while True:
        _check_deadline(deadline)
        for s, e in slices:
            np.maximum.at(dist, fhead[s:e], dist[ftail[s:e]] + fwght[s:e])
        if btail.size == 0:
            break
        cand = dist[btail] + bwght
        improved = cand > dist[bhead]
        if not improved.any():
            break
        np.maximum.at(dist, bhead[improved], cand[improved])
        improved_g = np.zeros(arena.na, bool)
        improved_g[bgrph[improved]] = True
        rounds[improved_g] += 1
        unfeasible |= improved_g & (rounds > bound)
        # Only graphs that just improved (and are still candidates) need
        # more rounds; everything else has converged.
        keep = improved_g & ~unfeasible
        if not keep.any():
            break
        fkeep = keep[fgrph]
        ftail, fhead, fwght, fgrph, lvl = (
            ftail[fkeep], fhead[fkeep], fwght[fkeep], fgrph[fkeep], lvl[fkeep])
        slices = _level_slices(lvl)
        bkeep = keep[bgrph]
        btail, bhead, bwght, bgrph = (
            btail[bkeep], bhead[bkeep], bwght[bkeep], bgrph[bkeep])
    return unfeasible


def _classify_masks(arena: "_Arena", depth, consider):
    """Anchor bitmasks A(v) and per-graph ill-posedness (Theorem 2)."""
    np = _np
    mask = np.zeros(arena.nv, np.uint64)
    fsel = consider[arena.e_graph] & arena.e_fwd
    ftail = arena.e_tail[fsel]
    fhead = arena.e_head[fsel]
    funb = arena.e_unb[fsel]
    inject = np.zeros(ftail.size, np.uint64)
    unb_idx = np.nonzero(funb)[0]
    if unb_idx.size:
        # Unbounded edges always leave anchors (graph invariant), so the
        # tail slot is valid; the edge injects its tail's own anchor bit.
        slots = arena.v_aslot[ftail[unb_idx]].astype(np.uint64)
        inject[unb_idx] = _UONE << slots
    lvl = depth[ftail]
    order = np.argsort(lvl, kind="stable")
    ftail, fhead, inject, lvl = ftail[order], fhead[order], inject[order], lvl[order]
    for s, e in _level_slices(lvl):
        np.bitwise_or.at(mask, fhead[s:e], mask[ftail[s:e]] | inject[s:e])
    illposed = np.zeros(arena.na, bool)
    bsel = consider[arena.e_graph] & ~arena.e_fwd
    btail = arena.e_tail[bsel]
    bhead = arena.e_head[bsel]
    if btail.size:
        violated = (mask[btail] & ~mask[bhead]) != 0
        illposed[arena.e_graph[bsel][violated]] = True
    return mask, illposed


# ----------------------------------------------------------------------
# dense relaxation sweep (Section IV-E over the whole batch)
# ----------------------------------------------------------------------


def _dense_schedule(arena: "_Arena", depth, mask, fast,
                    deadline: Optional[float]):
    """Iterative incremental scheduling of all *fast* graphs at once.

    Returns ``(sigma, bits, iterations, inconsistent, vmap)``: the dense
    offset table (``_NEG`` in untracked cells), the tracked-cell masks,
    per-graph round counts, the graphs that exhausted their
    ``|Eb_g| + 1`` bound with violations remaining (Corollary 2), and
    the arena-vertex -> dense-row mapping.  The table holds only the
    rows of *fast* graphs (a graph's rows stay contiguous): in
    dedup-heavy batches the fast graphs are a small fraction of the
    arena, and a full-width table would dominate the sweep.
    """
    np = _np
    rows_sel = np.nonzero(fast[arena.v_graph])[0]
    vmap = np.full(arena.nv, -1, np.int64)
    vmap[rows_sel] = np.arange(rows_sel.size)
    ncols = int(arena.n_anchors[fast].max()) if fast.any() else 1
    ncols = max(ncols, 1)
    cols = np.arange(ncols, dtype=np.uint64)
    bits = ((mask[rows_sel][:, None] >> cols[None, :]) & _UONE).astype(bool)
    sigma = np.full((rows_sel.size, ncols), _NEG, np.int64)
    sigma[bits] = 0

    fsel = fast[arena.e_graph] & arena.e_fwd
    ftail_a = arena.e_tail[fsel]
    fhead_a = arena.e_head[fsel]
    fwght = arena.e_w[fsel]
    fgrph = arena.e_graph[fsel]
    lvl = depth[ftail_a]
    order = np.argsort(lvl, kind="stable")
    ftail_a, fhead_a, fwght, fgrph, lvl = (
        ftail_a[order], fhead_a[order], fwght[order], fgrph[order],
        lvl[order])
    ftail = vmap[ftail_a]
    fhead = vmap[fhead_a]
    # Anchor tails contribute their implicit self-offset 0 (Definition
    # 3) -- but only where the tail's own bit is tracked at the head,
    # mirroring the per-graph scheduler's tracked-anchor guard.
    fslot = arena.v_aslot[ftail_a]
    fslot_u = np.where(fslot >= 0, fslot, 0).astype(np.uint64)
    fself = (fslot >= 0) & (((mask[fhead_a] >> fslot_u) & _UONE) != 0)

    bsel = fast[arena.e_graph] & ~arena.e_fwd
    btail_a = arena.e_tail[bsel]
    btail = vmap[btail_a]
    bhead = vmap[arena.e_head[bsel]]
    bwght = arena.e_w[bsel]
    bgrph = arena.e_graph[bsel]
    bslot = arena.v_aslot[btail_a]

    bound = arena.nb + 1
    iterations = np.zeros(arena.na, np.int64)
    rounds_violated = np.zeros(arena.na, np.int64)
    inconsistent = np.zeros(arena.na, bool)
    unfinished = fast.copy()

    aft, afh, afw, afg, alvl, afself, afslot = (
        ftail, fhead, fwght, fgrph, lvl, fself, fslot)
    abt, abh, abw, abg, abslot = btail, bhead, bwght, bgrph, bslot
    slices = _level_slices(alvl)
    round_no = 0
    while unfinished.any():
        round_no += 1
        _check_deadline(deadline)
        for s, e in slices:
            rows = sigma[aft[s:e]]
            self_idx = np.nonzero(afself[s:e])[0]
            if self_idx.size:
                cidx = afslot[s:e][self_idx]
                rows[self_idx, cidx] = np.maximum(rows[self_idx, cidx], 0)
            np.maximum.at(sigma, afh[s:e], rows + afw[s:e, None])
        if abt.size:
            rows = sigma[abt]
            self_idx = np.nonzero(abslot >= 0)[0]
            if self_idx.size:
                cidx = abslot[self_idx]
                rows[self_idx, cidx] = np.maximum(rows[self_idx, cidx], 0)
            cand = rows + abw[:, None]
            head_bits = bits[abh]
            violated = (cand > sigma[abh]) & head_bits
            violated_e = violated.any(axis=1)
        else:
            violated_e = None
        violated_g = np.zeros(arena.na, bool)
        if violated_e is not None and violated_e.any():
            violated_g[abg[violated_e]] = True
        done = unfinished & ~violated_g
        iterations[done] = round_no
        unfinished = unfinished & violated_g
        if not unfinished.any():
            break
        rounds_violated[violated_g] += 1
        exhausted = unfinished & (rounds_violated >= bound)
        if exhausted.any():
            inconsistent |= exhausted
            unfinished = unfinished & ~exhausted
        if violated_e is not None:
            apply = violated & unfinished[abg][:, None]
            if apply.any():
                np.maximum.at(sigma, abh, np.where(apply, cand, _NEG))
        if not unfinished.any():
            break
        fkeep = unfinished[afg]
        aft, afh, afw, afg, alvl, afself, afslot = (
            aft[fkeep], afh[fkeep], afw[fkeep], afg[fkeep],
            alvl[fkeep], afself[fkeep], afslot[fkeep])
        slices = _level_slices(alvl)
        bkeep = unfinished[abg]
        abt, abh, abw, abg, abslot = (
            abt[bkeep], abh[bkeep], abw[bkeep], abg[bkeep], abslot[bkeep])
    return sigma, bits, iterations, inconsistent, vmap


def _certify_dense(arena: "_Arena", sigma, bits, fast, vmap):
    """Re-check every edge inequality of the dense results in one pass.

    Defensive: a graph failing certification is routed to the per-graph
    fallback rather than returned.  Mirrors RelativeSchedule.validate.
    """
    np = _np
    esel = fast[arena.e_graph]
    tail_a = arena.e_tail[esel]
    tail = vmap[tail_a]
    head = vmap[arena.e_head[esel]]
    wght = arena.e_w[esel]
    grph = arena.e_graph[esel]
    failed = np.zeros(arena.na, bool)
    if tail.size == 0:
        return failed
    rows = sigma[tail]
    slot = arena.v_aslot[tail_a]
    self_idx = np.nonzero(slot >= 0)[0]
    if self_idx.size:
        cidx = slot[self_idx]
        rows[self_idx, cidx] = np.maximum(rows[self_idx, cidx], 0)
    bad = ((rows + wght[:, None] > sigma[head]) & bits[head]).any(axis=1)
    if bad.any():
        failed[grph[bad]] = True
    return failed


# ----------------------------------------------------------------------
# templates and cache glue
# ----------------------------------------------------------------------


def _split(flat: List[Any], lengths) -> List[tuple]:
    """*flat* cut into consecutive tuples of the numpy *lengths*.

    Tuples of ints leave the collector's lists after its first pass,
    so the templates cost later collections nothing.
    """
    ends = _np.cumsum(lengths)
    return list(map(tuple, map(flat.__getitem__, map(
        slice, (ends - lengths).tolist(), ends.tolist()))))


# _compile_templates packs each row's tracked columns into a 32-bit mask.
assert _MAX_DENSE_ANCHORS <= 32


def _compile_templates(arena: "_Arena", rank, inv, sigma, bits, fast,
                       vmap, iterations, want_cells: bool):
    """Every fast graph's :class:`_Template` in one vectorized pass.

    Returns ``({arena graph: template}, cells)``.  The dense rows are
    gathered into canonical coordinates (rows by rank, columns by anchor
    rank) for all fast graphs at once; each row's tracked columns become
    a bitmask, and one ``np.unique`` over ``(graph, mask)`` pairs gives
    every template its pattern table.  Values and patterns leave numpy
    as one flat list each and are sliced per row at C level, so no
    numpy scalar is ever read per cell.  With *want_cells*, ``cells``
    maps each fast graph to its ``(n, k)`` canonical block with ``-1``
    in untracked cells -- the cache-entry layout -- else it is None.
    """
    np = _np
    # Restricted to the rows of *fast* graphs: in dedup-heavy batches
    # they are a small fraction of the arena.  ``sigma`` and ``bits``
    # are compact, indexed through *vmap* (which may cover a superset
    # of the current *fast*).
    fg = np.nonzero(fast)[0]
    nf = fg.size
    cvcount = arena.vcount[fg]
    cvstart = np.zeros(nf + 1, np.int64)
    cvstart[1:] = np.cumsum(cvcount)
    gi = np.repeat(np.arange(nf), cvcount)  # fast slot of every row
    # The arena vertex of every canonical row, graph by graph in rank
    # order; the anchors among them come out in canonical order too.
    base = arena.vstart[fg][gi]
    canon = base + inv[base + np.arange(int(cvstart[-1])) - cvstart[gi]]
    anchor_v = canon[arena.v_aslot[canon] >= 0]
    gk = arena.n_anchors[fg]
    astart = np.zeros(nf + 1, np.int64)
    astart[1:] = np.cumsum(gk)
    # colmap[f, j]: the dense column of fast graph f's j-th anchor by
    # canonical rank; past its last anchor, some column that ``valid``
    # masks out.
    ncols = max(int(gk.max()), 1)
    j = np.arange(ncols)
    valid = j < gk[:, None]
    slots = np.append(arena.v_aslot[anchor_v], 0)
    colmap = slots[np.minimum(astart[:-1, None] + j, anchor_v.size)]
    nrows = canon.size
    dense = vmap[canon]
    cell = dense[:, None] * bits.shape[1] + colmap[gi]  # flat dense index
    tracked = bits.ravel()[cell] & valid[gi]
    # Tracked cells in canonical row-major order; only they are read.
    rc, jc = np.nonzero(tracked)
    vals = sigma.ravel()[cell[tracked]]

    # Pattern ids local to each template: unique (graph, mask) pairs
    # come out sorted by graph, so a template's patterns are contiguous.
    mask = np.bincount(rc, weights=np.left_shift(1, jc),
                       minlength=nrows).astype(np.int64)
    pairs, inverse = np.unique((gi << 32) | mask, return_inverse=True)
    pstart = np.searchsorted(pairs >> 32, np.arange(nf + 1))
    local = inverse.reshape(-1) - pstart[gi]
    pbits = ((pairs & 0xFFFFFFFF)[:, None] >> j) & 1 != 0
    patterns = _split(np.nonzero(pbits)[1].tolist(), pbits.sum(axis=1))
    row_vals = _split(vals.tolist(), np.bincount(rc, minlength=nrows))
    row_pattern = local.tolist()
    anchor_ranks = rank[anchor_v].tolist()

    cs, ps, ks = cvstart.tolist(), pstart.tolist(), astart.tolist()
    its = iterations[fg].tolist()
    templates = {}
    for f, ai in enumerate(fg.tolist()):
        templates[ai] = _Template(
            anchor_ranks[ks[f]:ks[f + 1]], patterns[ps[f]:ps[f + 1]],
            row_pattern[cs[f]:cs[f + 1]], row_vals[cs[f]:cs[f + 1]], its[f])
    cells = None
    if want_cells:
        table = np.full((nrows, ncols), -1, np.int64)
        table[rc, jc] = vals
        cells = {ai: table[cs[f]:cs[f + 1], :ks[f + 1] - ks[f]]
                 for f, ai in enumerate(fg.tolist())}
    return templates, cells


def _entry_rows_from_offsets(order: List[str], anchor_ranks: List[int],
                             offsets: Dict[str, Dict[str, int]]):
    anchor_names = [order[r] for r in anchor_ranks]
    rows = []
    for name in order:
        entry = offsets.get(name, {})
        rows.append([entry.get(a, -1) for a in anchor_names])
    return rows


def _store_schedule_entry(cache: ScheduleCache, key: str, order: List[str],
                          rank_of: Dict[str, int],
                          schedule: RelativeSchedule) -> None:
    """Persist a per-graph FULL-mode schedule in canonical coordinates."""
    anchor_ranks = sorted(rank_of[a] for a in schedule.graph.anchors)
    rows = _entry_rows_from_offsets(order, anchor_ranks, schedule.offsets)
    cache.put(key, len(order), anchor_ranks, rows, schedule.iterations)


def _run_fallback(graph: ConstraintGraph, auto_well_pose: bool,
                  deadline: Optional[float]):
    """The per-graph pipeline for graphs the arena cannot represent.

    FULL anchor mode: start times are mode-independent on well-posed
    graphs (Theorems 4/6), FULL skips the irredundant-set computation,
    and FULL offsets are what the cache stores.
    """
    try:
        schedule = schedule_graph(graph, anchor_mode=AnchorMode.FULL,
                                  auto_well_pose=auto_well_pose,
                                  deadline=deadline)
    except BudgetExceededError:
        raise
    except ConstraintGraphError as error:
        return None, error
    return schedule, None


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def schedule_many(graphs: Iterable[ConstraintGraph], *,
                  cache: Optional[Union[ScheduleCache, str, Any]] = None,
                  budget: Optional[Any] = None,
                  auto_well_pose: bool = True) -> BatchRun:
    """Schedule a batch of independent constraint graphs together.

    Args:
        graphs: the batch; each graph is handled independently and
            never mutated.
        cache: a :class:`~repro.core.resultcache.ScheduleCache`, or a
            path to open one; staged entries are flushed before
            returning.  None disables caching.
        budget: an optional :class:`repro.resilience.guard.RunBudget`.
            Size and iteration caps apply *per graph* (an over-budget
            graph gets a ``BudgetExceededError`` result; the rest of
            the batch proceeds); ``deadline_s`` covers the whole call
            and raises ``BudgetExceededError`` from ``schedule_many``
            itself.
        auto_well_pose: serialize ill-posed graphs (via the per-graph
            fallback), as in ``schedule_graph``.

    Returns:
        A :class:`BatchRun` of :class:`BatchResult` in input order.
        ``result.unpack()`` either returns the graph's minimum relative
        schedule (FULL anchor mode) or raises the same exception type
        ``schedule_graph`` raises for that graph.
    """
    graphs = list(graphs)
    if cache is not None and not isinstance(cache, ScheduleCache):
        cache = ScheduleCache(cache)
    deadline = budget.absolute_deadline() if budget is not None else None
    tracer = _OBS.tracer
    results: List[Optional[BatchResult]] = [None] * len(graphs)

    eligible: List[int] = []
    for i, graph in enumerate(graphs):
        if budget is not None:
            try:
                budget.check_size(graph)
                budget.check_iteration_bound(graph)
            except BudgetExceededError as error:
                results[i] = BatchResult(i, graph, error=error)
                continue
        eligible.append(i)

    # A graph whose packs overflowed int64 (plain lists, see
    # graph._pack_extend) cannot join the arena; it goes per graph.
    arena = ([] if _np is None else
             [i for i in eligible if list not in map(type, graphs[i].packed())])
    _schedule_scalar(graphs, sorted(set(eligible) - set(arena)), results,
                     cache, auto_well_pose, deadline)
    if arena:
        _schedule_arena(graphs, arena, results, cache,
                        auto_well_pose, deadline, tracer)

    if cache is not None:
        cache.flush()

    stats = {
        "graphs": len(graphs),
        "scheduled": sum(1 for r in results if r is not None and r.ok
                         and not r.cached and not r.fallback),
        "cache_hits": sum(1 for r in results if r is not None and r.cached),
        "fallbacks": sum(1 for r in results if r is not None and r.fallback),
        "errors": sum(1 for r in results if r is not None and not r.ok),
    }
    if tracer.enabled:
        for name, value in stats.items():
            tracer.count(f"batch.{name}", value)
        tracer.event("batch.run", **stats)
    return BatchRun(results, stats)  # type: ignore[arg-type]


def _span(tracer, name: str):
    """A tracer span under the PR-3 guard (free nullcontext when off)."""
    return tracer.span(name) if tracer.enabled else nullcontext()


def _schedule_arena(graphs, eligible, results, cache, auto_well_pose,
                    deadline, tracer) -> None:
    np = _np
    batch = [graphs[i] for i in eligible]
    with _span(tracer, "batch.assemble"):
        arena = _assemble(batch)
        keys, rank, inv = _arena_keys(arena)
        _check_deadline(deadline)
        hits: Dict[int, dict] = {}
        if cache is not None:
            for ai, key in enumerate(keys):
                if key is None:
                    continue
                entry = cache.get(key)
                if entry is not None and entry["n"] == int(arena.vcount[ai]):
                    hits[ai] = entry

    # Within-batch dedup: isomorphic repeats of a graph already in this
    # batch are classified/scheduled once and relabelled from the
    # representative's canonical rows (exact -- the offsets are a
    # structural fixpoint).  Representatives that end up on the
    # per-graph fallback are not deduped (serialization of ill-posed
    # graphs is name-dependent).
    dup_of: Dict[int, int] = {}
    first_of: Dict[str, int] = {}
    for ai, key in enumerate(keys):
        if key is None or ai in hits:
            continue
        rep = first_of.setdefault(key, ai)
        if rep != ai:
            dup_of[ai] = rep

    with _span(tracer, "batch.classify"):
        consider = np.ones(arena.na, bool)
        for ai in hits:
            consider[ai] = False
        for ai in dup_of:
            consider[ai] = False
        depth, cyclic = _depths(arena, consider)
        _check_deadline(deadline)
        # Graphs whose anchors overflow one uint64 bitmask cannot be
        # classified in the arena at all; route them to the fallback.
        overflow = consider & (arena.n_anchors > _MAX_MASK_ANCHORS)
        consider2 = consider & ~cyclic & ~overflow
        unfeasible = _classify_feasible(arena, depth, consider2, deadline)
        mask, illposed = _classify_masks(arena, depth,
                                         consider2 & ~unfeasible)
        _check_deadline(deadline)

    fast = (consider2 & ~unfeasible & ~illposed
            & (arena.n_anchors <= _MAX_DENSE_ANCHORS)
            & (arena.maxw <= _MAX_DENSE_WEIGHT))
    need_fallback = (consider & ~cyclic & ~unfeasible & ~fast)

    inconsistent = np.zeros(arena.na, bool)
    vmap = None
    if fast.any():
        with _span(tracer, "batch.sweep"):
            sigma, bits, iterations, inconsistent, vmap = _dense_schedule(
                arena, depth, mask, fast, deadline)
            fast = fast & ~inconsistent
            failed = _certify_dense(arena, sigma, bits, fast, vmap)
            if failed.any():
                if tracer.enabled:
                    tracer.count("batch.certify_failures",
                                 int(failed.sum()))
                fast = fast & ~failed
                need_fallback = need_fallback | failed

    with _span(tracer, "batch.unpack"):
        # Results keep the arena-wide canonical permutation (rank, inv)
        # and slice their own graph's part out of it on unpack.
        vstart = arena.vstart.tolist()
        templates: Dict[int, _Template] = {}
        cells: Optional[Dict[int, Any]] = None
        if fast.any():
            templates, cells = _compile_templates(
                arena, rank, inv, sigma, bits, fast, vmap, iterations,
                want_cells=cache is not None)
        for ai, entry in hits.items():
            results[eligible[ai]] = BatchResult(
                eligible[ai], batch[ai], cached=True,
                lazy=(entry, rank, inv, vstart[ai]))

        cyclic_of, unfeasible_of = cyclic.tolist(), unfeasible.tolist()
        stuck_of = (inconsistent & ~need_fallback).tolist()
        for ai in range(arena.na):
            i = eligible[ai]
            if results[i] is not None or ai in dup_of:
                continue
            graph = batch[ai]
            if cyclic_of[ai]:
                results[i] = BatchResult(i, graph, error=CyclicForwardGraphError(
                    "forward constraint graph has a cycle"))
            elif unfeasible_of[ai]:
                results[i] = BatchResult(i, graph, error=UnfeasibleConstraintsError(
                    "constraint graph has a positive cycle"))
            elif stuck_of[ai]:
                results[i] = BatchResult(i, graph, error=InconsistentConstraintsError(
                    f"no convergence within the |Eb|+1 = "
                    f"{int(arena.nb[ai]) + 1} iteration bound"))
            elif ai in templates:
                template = templates[ai]
                results[i] = BatchResult(i, graph, lazy=(
                    template, rank, inv, vstart[ai]))
                if cache is not None and keys[ai] is not None:
                    cache.put(keys[ai], len(graph), template.anchor_ranks,
                              cells[ai].tolist(), template.iterations)
            else:
                _check_deadline(deadline)
                schedule, error = _run_fallback(graph, auto_well_pose,
                                                deadline)
                results[i] = BatchResult(i, graph, error=error,
                                         schedule=schedule, fallback=True)
                if (schedule is not None and cache is not None
                        and keys[ai] is not None
                        and schedule.graph is graph):
                    names = graph.vertex_names()
                    vs = vstart[ai]
                    canonical = list(map(names.__getitem__,
                                         inv[vs:vs + len(names)].tolist()))
                    rank_of = {name: r for r, name in enumerate(canonical)}
                    _store_schedule_entry(cache, keys[ai], canonical,
                                          rank_of, schedule)

        # Resolve within-batch duplicates from their representatives.
        for ai, rep in dup_of.items():
            i = eligible[ai]
            graph = batch[ai]
            rep_result = results[eligible[rep]]
            if rep_result.error is not None and not rep_result.fallback:
                # Structural verdicts (cyclic/unfeasible/inconsistent)
                # are isomorphism-invariant; reuse type and message.
                error = type(rep_result.error)(str(rep_result.error))
                results[i] = BatchResult(i, graph, error=error)
            elif rep in templates:
                results[i] = BatchResult(i, graph, lazy=(
                    templates[rep], rank, inv, vstart[ai]))
            else:
                _check_deadline(deadline)
                schedule, error = _run_fallback(graph, auto_well_pose,
                                                deadline)
                results[i] = BatchResult(i, graph, error=error,
                                         schedule=schedule, fallback=True)


def _schedule_scalar(graphs, eligible, results, cache, auto_well_pose,
                     deadline) -> None:
    """Pure-Python batch path (numpy absent, or packs beyond int64): per
    graph, cache-aware."""
    for i in eligible:
        _check_deadline(deadline)
        graph = graphs[i]
        form = canonical_form(graph) if cache is not None else None
        if form is not None:
            entry = cache.get(form.key)
            if entry is not None and entry["n"] == len(form.order):
                names = graph.vertex_names()
                index = {name: j for j, name in enumerate(names)}
                ranks = list(map(form.rank.__getitem__, names))
                order = list(map(index.__getitem__, form.order))
                results[i] = BatchResult(i, graph, cached=True, lazy=(
                    entry, ranks, order, 0))
                continue
        schedule, error = _run_fallback(graph, auto_well_pose, deadline)
        results[i] = BatchResult(i, graph, error=error, schedule=schedule,
                                 fallback=True)
        if (schedule is not None and form is not None
                and schedule.graph is graph):
            _store_schedule_entry(cache, form.key, form.order,
                                  form.rank, schedule)
