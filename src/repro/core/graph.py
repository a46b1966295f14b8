"""The polar weighted constraint graph ``G(V, E)`` (Section III).

Vertices represent operations; each carries an execution delay that is
either a non-negative integer or :data:`~repro.core.delay.UNBOUNDED`.
Edges carry weights and fall into two classes:

* **forward** edges (positive weights) -- sequencing dependencies
  (weight equal to the execution delay of the tail) and minimum timing
  constraints (weight ``l_ij >= 0``);
* **backward** edges (non-positive weights) -- maximum timing
  constraints ``u_ij``, added as an edge ``(v_j, v_i)`` with weight
  ``-u_ij``.

The graph is *polar*: it has a designated source ``v0`` and sink
``v_n``.  The source is treated as an anchor (its activation is
analogous to the completion of an unbounded-delay operation), so every
outgoing sequencing edge of the source has unbounded weight.

Edge weights that are unbounded always equal the delay of the edge's
*tail* vertex, written ``delta(tail)`` in the paper.  This invariant
holds for sequencing edges out of anchors and for the serialization
edges introduced by ``make_well_posed``; the graph enforces it.

A graph is stored once, as integers (see :meth:`ConstraintGraph.packed`):
vertex names in insertion order, one delay token per vertex, a sparse
tag map and flat ``(tail, head, weight, kind)`` edge records.
:class:`Vertex` and :class:`Edge` objects, the edge partitions and the
adjacency tuples are views built on demand per graph version, for the
callers that walk them.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.delay import (
    UNBOUNDED,
    Delay,
    Unbounded,
    is_unbounded,
    validate_delay,
)
from repro.core.exceptions import GraphStructureError
from repro.sanitize import make_rlock
from repro.observability.tracer import STATE as _OBS

#: An edge weight: a (possibly negative) integer, or UNBOUNDED meaning
#: "the execution delay of the tail vertex".
Weight = Union[int, "UNBOUNDED.__class__"]


class EdgeKind(enum.Enum):
    """Provenance of a constraint-graph edge (Table I)."""

    #: Operation dependency; forward, weight = delta(tail).
    SEQUENCING = "sequencing"
    #: Minimum timing constraint l_ij; forward, weight = l_ij >= 0.
    MIN_TIME = "min_time"
    #: Maximum timing constraint u_ij; backward edge (v_j, v_i), weight -u_ij.
    MAX_TIME = "max_time"
    #: Synchronization edge added by make_well_posed; forward, weight = delta(tail).
    SERIALIZATION = "serialization"

    @property
    def is_forward(self) -> bool:
        return self is not EdgeKind.MAX_TIME

    @property
    def is_backward(self) -> bool:
        return self is EdgeKind.MAX_TIME


#: Stable small integers per edge kind (enum definition order), shared
#: by the graph's store, the canonical certificate
#: (:mod:`repro.core.canonical`) and the batch arena (:mod:`repro.core.batch`).
KIND_IDS: Dict[EdgeKind, int] = {kind: i for i, kind in enumerate(EdgeKind)}

#: Edge kinds by id (the inverse of :data:`KIND_IDS`).
KINDS_BY_ID: Tuple[EdgeKind, ...] = tuple(EdgeKind)

#: The kind id of backward (maximum-constraint) edges.
MAX_TIME_ID = KIND_IDS[EdgeKind.MAX_TIME]

#: Reserved 64-bit token for UNBOUNDED delays and edge weights in packed
#: integer representations (legal magnitudes are capped at 2**53 by the
#: wire format; the graph refuses the two values it would collide with).
UNBOUNDED_TOKEN = 1 << 60


def _pack_extend(pack, values: Sequence[int]):
    """Append ints to an int64 pack, demoting it to a list on overflow.

    Packs are ``array('q')`` so batch assembly can concatenate raw
    bytes; a graph with values beyond int64 (legal programmatically,
    though outside the wire format's 2**53 cap) falls back to a plain
    Python list, which the batch kernel routes per graph instead.  A
    failed ``extend`` keeps the items before the bad one, so they are
    cut off again before the list takes over (or the error propagates).
    """
    size = len(pack)
    try:
        pack.extend(values)
    except OverflowError:
        del pack[size:]
        pack = list(pack)
        pack.extend(values)
    except BaseException:
        del pack[size:]
        raise
    return pack


def _delay_token(delay: Delay) -> int:
    if isinstance(delay, Unbounded):
        return UNBOUNDED_TOKEN
    if delay == UNBOUNDED_TOKEN:
        raise GraphStructureError(
            f"delay {delay} is reserved: it encodes UNBOUNDED in the store")
    return delay


def _weight_token(weight: Union[int, Unbounded]) -> int:
    if isinstance(weight, Unbounded):
        return -UNBOUNDED_TOKEN
    if weight == -UNBOUNDED_TOKEN:
        raise GraphStructureError(
            f"weight {weight} is reserved: it encodes UNBOUNDED in the store")
    return weight


@dataclass(frozen=True)
class Vertex:
    """An operation in the constraint graph.

    Attributes:
        name: unique identifier within the graph.
        delay: execution delay in cycles (int >= 0) or UNBOUNDED.
        tag: optional user annotation (e.g. the HDL tag or the bound
            resource instance) carried through analysis untouched.
    """

    name: str
    delay: Delay
    tag: Optional[str] = None

    def __post_init__(self) -> None:
        validate_delay(self.delay)
        if not isinstance(self.name, str) or not self.name:
            raise GraphStructureError(f"vertex name must be a non-empty str, got {self.name!r}")

    @property
    def is_unbounded(self) -> bool:
        """True when this operation's delay is unknown at compile time."""
        return is_unbounded(self.delay)

    def __repr__(self) -> str:
        return f"Vertex({self.name!r}, delay={self.delay!r})"


@dataclass(frozen=True)
class Edge:
    """A weighted constraint-graph edge from *tail* to *head*.

    The weight is an integer, or UNBOUNDED meaning ``delta(tail)`` -- the
    execution delay of the tail vertex, unknown at compile time.
    """

    tail: str
    head: str
    weight: Weight
    kind: EdgeKind

    @property
    def is_forward(self) -> bool:
        return self.kind.is_forward

    @property
    def is_backward(self) -> bool:
        return self.kind.is_backward

    @property
    def is_unbounded(self) -> bool:
        """True when the weight is the unknown delay of the tail."""
        return is_unbounded(self.weight)

    @property
    def static_weight(self) -> int:
        """The weight with unbounded delays at their minimum value 0.

        This is the evaluation used by feasibility checking, offset
        computation, and ``length(a, b)`` throughout the paper.
        """
        return 0 if self.is_unbounded else self.weight

    def __repr__(self) -> str:
        return f"Edge({self.tail!r} -> {self.head!r}, w={self.weight!r}, {self.kind.value})"


class ConstraintGraph:
    """A polar weighted constraint graph (Section III).

    Construction example, modelling Fig. 2 of the paper::

        g = ConstraintGraph(source="v0", sink="v4")
        g.add_operation("a", UNBOUNDED)
        g.add_operation("v1", 2)
        g.add_operation("v2", 1)
        g.add_operation("v3", 3)
        g.add_sequencing_edges([("v0", "a"), ("v0", "v1"), ("v1", "v2"),
                                ("a", "v3"), ("v2", "v3"), ("v3", "v4")])
        g.add_max_constraint("v1", "v2", u=4)
        g.add_min_constraint("v0", "v3", l=3)

    Parallel edges are allowed (a sequencing dependency and a minimum
    constraint may connect the same pair); all analyses treat them as
    independent inequality constraints.
    """

    def __init__(self, source: str = "v0", sink: str = "vN",
                 sink_delay: Delay = 0) -> None:
        self._adopt([], array("q"), array("q"), {})
        # Guards the analysis cache's check-then-build against
        # concurrent readers sharing this graph (the service schedules
        # shared design graphs from worker threads).  Reentrant because
        # builders call cached() for other keys.
        self._cache_lock = make_rlock("graph.cache")
        self.source = source
        self.sink = sink
        # The source behaves as an unbounded-delay anchor (Definition 2).
        self._add_vertex(Vertex(source, UNBOUNDED))
        self._add_vertex(Vertex(sink, validate_delay(sink_delay)))

    def _adopt(self, names: List[str], delays, records,
               tags: Dict[str, str]) -> None:
        """Install a store and start a fresh version history.

        The store: ``names`` in insertion order (the source first, the
        sink second) with their index, one delay token per vertex, flat
        edge records (see :meth:`packed`) and the sparse tag map.  The
        token packs are int64 arrays unless a value overflowed
        (:func:`_pack_extend`).
        """
        self._names = names
        self._vindex = {name: i for i, name in enumerate(names)}
        self._delays = delays
        self._records = records
        self._tags = tags
        self._version = 0
        self._analysis_cache: Dict[str, Any] = {}
        self._cache_version = -1

    @classmethod
    def from_packed(cls, names: List[str], delay_tokens: Sequence[int],
                    edge_records: Sequence[int],
                    tags: Optional[Dict[str, str]] = None
                    ) -> "ConstraintGraph":
        """A graph that adopts a store given in :meth:`packed`'s encoding.

        ``names[0]`` is the source and ``names[1]`` the sink; *names* is
        taken over, not copied.  Nothing is checked item by item: the
        caller guarantees what the ``add_*`` methods would enforce
        (unique non-empty names, valid delays, endpoints in range,
        unbounded weights only out of anchors, sequencing and
        serialization weights equal to ``delta(tail)``).
        :func:`repro.io.graph_from_dict` validates its input first.
        """
        graph = cls.__new__(cls)
        graph._adopt(names, _pack_extend(array("q"), delay_tokens),
                     _pack_extend(array("q"), edge_records), dict(tags or {}))
        graph._cache_lock = make_rlock("graph.cache")
        graph.source = names[0]
        graph.sink = names[1]
        return graph

    # ------------------------------------------------------------------
    # versioned analysis cache
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Mutation counter: bumped on every vertex or edge change.

        Derived analyses (topological order, edge partitions, anchor
        sets, the indexed compilation) are memoised against this value
        and recomputed lazily after any mutation.
        """
        return self._version

    def cached(self, key: str, builder: Callable[[], Any]) -> Any:
        """Memoise ``builder()`` under *key* until the graph next mutates.

        The cache is shared by every analysis over this graph: the
        well-posedness check, ``make_well_posed`` and the scheduler all
        reuse one topological order, one anchor-set table and one
        indexed compilation per graph version instead of recomputing
        them stage by stage.  Cached values must be treated as
        immutable by callers.

        Thread safety: the whole check-then-build runs under the
        graph's reentrant cache lock, so concurrent readers of a shared
        graph can neither double-build an entry nor observe a
        half-cleared cache after a version bump.  Builders may call
        ``cached`` recursively for other keys (same thread, reentrant);
        a builder that *mutates* the graph is a caller bug, as before.
        """
        tracer = _OBS.tracer
        with self._cache_lock:
            if self._cache_version != self._version:
                if tracer.enabled and self._analysis_cache:
                    tracer.count("cache.invalidation")
                    tracer.event("cache.invalidation", version=self._version,
                                 dropped=len(self._analysis_cache))
                self._analysis_cache.clear()
                self._cache_version = self._version
            try:
                value = self._analysis_cache[key]
            except KeyError:
                if tracer.enabled:
                    tracer.count("cache.miss")
                    tracer.count(f"cache.miss.{key}")
                value = self._analysis_cache[key] = builder()
                return value
            if tracer.enabled:
                tracer.count("cache.hit")
                tracer.count(f"cache.hit.{key}")
            return value

    def packed(self) -> Tuple[Sequence[int], Sequence[int]]:
        """The store's integer packs: ``(delay_tokens, edge_records)``.

        ``delay_tokens[i]`` is the delay of the i-th inserted vertex
        (``UNBOUNDED_TOKEN`` for anchors); vertex 0 is the source and
        vertex 1 the sink.  ``edge_records`` is a flat sequence of
        ``(tail_index, head_index, weight, kind_id)`` quadruples in edge
        insertion order, with unbounded weights encoded as
        ``-UNBOUNDED_TOKEN``.  Both are ``array('q')`` unless a value
        overflowed int64 (then plain lists), so batch assembly
        (:mod:`repro.core.batch`) concatenates graphs without walking
        Python objects.  The returned sequences are the live store --
        callers must not mutate them.
        """
        return self._delays, self._records

    def edge_records(self) -> Iterator[Tuple[int, int, int, int]]:
        """Each edge as a ``(tail_index, head_index, weight, kind_id)``
        tuple of :meth:`packed`'s encoding, in insertion order."""
        it = iter(self._records)
        return zip(it, it, it, it)

    def tags(self) -> Dict[str, str]:
        """The tagged vertices' tags (a sparse copy: untagged vertices
        are absent)."""
        return dict(self._tags)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _add_vertex(self, vertex: Vertex) -> Vertex:
        if vertex.name in self._vindex:
            raise GraphStructureError(f"duplicate vertex {vertex.name!r}")
        self._delays = _pack_extend(self._delays, (_delay_token(vertex.delay),))
        self._vindex[vertex.name] = len(self._names)
        self._names.append(vertex.name)
        if vertex.tag is not None:
            self._tags[vertex.name] = vertex.tag
        self._version += 1
        return vertex

    def add_operation(self, name: str, delay: Delay, tag: Optional[str] = None) -> Vertex:
        """Add an operation vertex with the given execution delay."""
        return self._add_vertex(Vertex(name, delay, tag))

    def _index(self, name: str) -> int:
        try:
            return self._vindex[name]
        except KeyError:
            raise GraphStructureError(f"unknown vertex {name!r}") from None

    def _add_edge(self, edge: Edge) -> Edge:
        t = self._index(edge.tail)
        h = self._index(edge.head)
        if edge.is_unbounded and self._delays[t] != UNBOUNDED_TOKEN:
            raise GraphStructureError(
                f"unbounded edge weight requires an unbounded-delay tail, "
                f"but {edge.tail!r} has delay {self.delta(edge.tail)!r}")
        self._records = _pack_extend(self._records, (
            t, h, _weight_token(edge.weight), KIND_IDS[edge.kind]))
        self._version += 1
        return edge

    def add_sequencing_edge(self, tail: str, head: str) -> Edge:
        """Add a sequencing dependency; its weight is ``delta(tail)``."""
        return self._add_edge(Edge(tail, head, self.delta(tail),
                                   EdgeKind.SEQUENCING))

    def add_sequencing_edges(self, pairs: Iterable[Tuple[str, str]]) -> List[Edge]:
        """Add several sequencing dependencies at once."""
        return [self.add_sequencing_edge(t, h) for t, h in pairs]

    def add_min_constraint(self, from_vertex: str, to_vertex: str, l: int) -> Edge:
        """Add a minimum timing constraint ``sigma(to) >= sigma(from) + l``.

        Translated to a forward edge ``(from, to)`` with weight ``l``
        (Table I).
        """
        if l < 0:
            raise ValueError(f"minimum timing constraint must be >= 0, got {l}")
        return self._add_edge(Edge(from_vertex, to_vertex, l, EdgeKind.MIN_TIME))

    def add_max_constraint(self, from_vertex: str, to_vertex: str, u: int) -> Edge:
        """Add a maximum timing constraint ``sigma(to) <= sigma(from) + u``.

        Translated to a *backward* edge ``(to, from)`` with weight ``-u``
        (Table I).
        """
        if u < 0:
            raise ValueError(f"maximum timing constraint must be >= 0, got {u}")
        return self._add_edge(Edge(to_vertex, from_vertex, -u, EdgeKind.MAX_TIME))

    def add_serialization_edge(self, anchor: str, vertex: str) -> Edge:
        """Add a synchronization edge ``(anchor, vertex)`` with weight
        ``delta(anchor)`` as done by ``make_well_posed`` (Section IV-C)."""
        if not self.is_anchor(anchor):
            raise GraphStructureError(
                f"serialization edges originate at anchors; {anchor!r} is bounded")
        return self._add_edge(Edge(anchor, vertex, UNBOUNDED, EdgeKind.SERIALIZATION))

    def remove_edge(self, edge: Edge) -> None:
        """Remove one edge instance (the first equal one in insertion order).

        Raises:
            GraphStructureError: if the edge is not in the graph.
        """
        target = (self._vindex.get(edge.tail), self._vindex.get(edge.head),
                  -UNBOUNDED_TOKEN if is_unbounded(edge.weight) else edge.weight,
                  KIND_IDS[edge.kind])
        for position, record in enumerate(self.edge_records()):
            if record == target:
                del self._records[4 * position:4 * position + 4]
                self._version += 1
                return
        raise GraphStructureError(f"edge not in graph: {edge!r}")

    def bind_anchor_delay(self, name: str, delay: int) -> None:
        """Replace an anchor's unbounded delay with an observed value.

        The online executor calls this when anchor *name*'s completion
        is observed *delay* cycles after its start.  The vertex becomes
        a bounded operation, and every *forward* out-edge is rewritten
        to ``delay + static_weight``: an anchor's forward out-edges are
        measured from its *completion* (Definition 3 normalizes the
        anchor's own offset to 0 -- this covers unbounded sequencing
        edges, whose weight meant ``delta(name)``, *and* bounded minimum
        constraints leaving the anchor), while a bounded vertex's
        out-edges are measured from its start, so preserving the
        done-relative meaning requires folding the observed delay into
        each weight.  Backward (maximum-constraint) out-edges keep their
        weight: a late completion that breaks a maximum constraint is an
        *observed violation* for the fault classifiers to report, not a
        reason to declare the rebound graph unfeasible mid-run.  The
        unknown delay was previously evaluated at its minimum (0), so
        longest paths can only grow -- existing offsets under-approximate
        the rebound graph's fixpoint and warm starts stay sound
        (Lemma 8).  Binding cannot break well-posedness: the constraint
        topology is unchanged and anchor sets only shrink.

        Raises:
            GraphStructureError: *name* is the source (its activation is
                the schedule's time origin), is not an anchor, or
                *delay* is not a non-negative int.
        """
        v = self._index(name)
        if name == self.source:
            raise GraphStructureError(
                f"cannot bind the source anchor {name!r}: its activation "
                f"is the schedule's time origin")
        if self._delays[v] != UNBOUNDED_TOKEN:
            raise GraphStructureError(
                f"vertex {name!r} is not an anchor (delay {self.delta(name)!r})")
        if isinstance(delay, bool) or not isinstance(delay, int) or delay < 0:
            raise GraphStructureError(
                f"observed delay for {name!r} must be a non-negative int, "
                f"got {delay!r}")
        delays = list(self._delays)
        delays[v] = _delay_token(delay)
        records = list(self._records)
        for i in range(0, len(records), 4):
            if records[i] == v and records[i + 3] != MAX_TIME_ID:
                weight = records[i + 2]
                records[i + 2] = delay + (0 if weight == -UNBOUNDED_TOKEN
                                          else weight)
        self._delays = _pack_extend(array("q"), delays)
        self._records = _pack_extend(array("q"), records)
        self._version += 1

    def make_polar(self) -> None:
        """Connect orphan vertices so the graph is polar.

        Adds a sequencing edge from the source to every vertex with no
        incoming forward edge, and from every vertex with no outgoing
        forward edge to the sink.
        """
        from repro.core.indexed import get_indexed

        names = self._names
        in_forward = get_indexed(self).in_forward
        for v in range(1, len(names)):
            if not in_forward[v]:
                self.add_sequencing_edge(self.source, names[v])
        successors = self._forward_successors()
        for v, name in enumerate(names):
            if v != 1 and not successors[v]:
                self.add_sequencing_edge(name, self.sink)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._vindex

    def __len__(self) -> int:
        return len(self._names)

    def vertex(self, name: str) -> Vertex:
        """The vertex registered under *name* (a view)."""
        return self._vertex_view()[self._index(name)]

    def delta(self, name: str) -> Delay:
        """The execution delay of vertex *name*."""
        token = self._delays[self._index(name)]
        return UNBOUNDED if token == UNBOUNDED_TOKEN else token

    def vertex_names(self) -> List[str]:
        """All vertex names, in insertion order (deterministic)."""
        return list(self._names)

    def vertices(self) -> List[Vertex]:
        """All vertices as :class:`Vertex` views, in insertion order."""
        return list(self._vertex_view())

    def _vertex_view(self) -> Tuple[Vertex, ...]:
        def build() -> Tuple[Vertex, ...]:
            tags = self._tags
            return tuple(
                Vertex(name, UNBOUNDED if token == UNBOUNDED_TOKEN else token,
                       tags.get(name))
                for name, token in zip(self._names, self._delays))
        return self.cached("vertices", build)

    def edges(self) -> List[Edge]:
        """All edges as :class:`Edge` views, in insertion order."""
        return list(self._edge_view())

    def _edge_view(self) -> Tuple[Edge, ...]:
        def build() -> Tuple[Edge, ...]:
            names = self._names
            return tuple(
                Edge(names[t], names[h],
                     UNBOUNDED if weight == -UNBOUNDED_TOKEN else weight,
                     KINDS_BY_ID[kind])
                for t, h, weight, kind in self.edge_records())
        return self.cached("edges", build)

    def edge_count(self, backward_only: bool = False) -> int:
        """``|E|`` (or ``|Eb|`` with *backward_only*), read from the store."""
        if backward_only:
            return self._records[3::4].count(MAX_TIME_ID)
        return len(self._records) >> 2

    def forward_edges(self) -> List[Edge]:
        """The forward edge set ``E_f`` (sequencing, min-time, serialization)."""
        return list(self.cached(
            "forward_edges",
            lambda: tuple(e for e in self._edge_view()
                          if e.kind is not EdgeKind.MAX_TIME)))

    def backward_edges(self) -> List[Edge]:
        """The backward edge set ``E_b`` (maximum timing constraints)."""
        return list(self.cached(
            "backward_edges",
            lambda: tuple(e for e in self._edge_view()
                          if e.kind is EdgeKind.MAX_TIME)))

    def out_edges(self, name: str, forward_only: bool = False) -> Sequence[Edge]:
        """Edges leaving *name*, as an immutable (cached) tuple.

        The tuples are memoised per graph version, so hot loops calling
        this per vertex per sweep do not re-filter or re-copy the
        adjacency lists.  A snapshot taken before a mutation stays
        valid for iteration; the next call re-reads the graph.
        """
        return self._adjacency("tail", forward_only)[self._index(name)]

    def in_edges(self, name: str, forward_only: bool = False) -> Sequence[Edge]:
        """Edges entering *name*, as an immutable (cached) tuple."""
        return self._adjacency("head", forward_only)[self._index(name)]

    def _adjacency(self, end: str, forward_only: bool
                   ) -> List[Tuple[Edge, ...]]:
        """Per-vertex edge tuples grouped by *end* ("tail" or "head")."""
        def build() -> List[Tuple[Edge, ...]]:
            index = self._vindex
            groups: List[List[Edge]] = [[] for _ in self._names]
            for edge in self._edge_view():
                if not forward_only or edge.kind is not EdgeKind.MAX_TIME:
                    groups[index[getattr(edge, end)]].append(edge)
            return [tuple(group) for group in groups]
        key = ("out_" if end == "tail" else "in_") + (
            "fwd" if forward_only else "all")
        return self.cached(key, build)

    def immediate_successors(self, name: str, forward_only: bool = True) -> List[str]:
        """Heads of edges leaving *name* (deduplicated, order-preserving)."""
        seen: Dict[str, None] = {}
        for edge in self.out_edges(name, forward_only=forward_only):
            seen.setdefault(edge.head)
        return list(seen)

    def immediate_predecessors(self, name: str, forward_only: bool = True) -> List[str]:
        """Tails of edges entering *name* (deduplicated, order-preserving)."""
        seen: Dict[str, None] = {}
        for edge in self.in_edges(name, forward_only=forward_only):
            seen.setdefault(edge.tail)
        return list(seen)

    @property
    def anchors(self) -> List[str]:
        """The anchors ``A``: the source plus every unbounded-delay vertex
        (Definition 2), in insertion order."""
        return list(self.cached(
            "anchors",
            lambda: tuple(name for name, token in zip(self._names, self._delays)
                          if token == UNBOUNDED_TOKEN)))

    def is_anchor(self, name: str) -> bool:
        """True when *name* is the source or has unbounded delay."""
        return self._delays[self._index(name)] == UNBOUNDED_TOKEN

    # ------------------------------------------------------------------
    # structure checks and transforms
    # ------------------------------------------------------------------

    def _forward_successors(self) -> Sequence[Sequence[Tuple[int, int]]]:
        """Per vertex index, ``(head, static weight)`` of each forward
        out-edge in insertion order: the adjacency of this version's
        indexed compilation, shared with the scheduling kernel."""
        from repro.core.indexed import get_indexed

        return get_indexed(self).out_forward_w

    def forward_topological_order(self) -> List[str]:
        """Topological order of the forward constraint graph ``G_f``.

        The order is memoised per graph version; callers receive a
        fresh list copy.

        Raises:
            CyclicForwardGraphError: if ``G_f`` has a cycle (the paper
                assumes it acyclic without loss of generality).
        """
        return list(self.cached("topo_order", lambda: tuple(
            map(self._names.__getitem__, self.forward_topological_indices()))))

    def forward_topological_indices(self) -> Tuple[int, ...]:
        """:meth:`forward_topological_order` as vertex indices (positions
        in :meth:`vertex_names`), memoised per graph version.

        Raises:
            CyclicForwardGraphError: as :meth:`forward_topological_order`.
        """
        return self.cached("topo_indices", self._compute_topological_order)

    def _compute_topological_order(self) -> Tuple[int, ...]:
        from repro.core.exceptions import CyclicForwardGraphError

        successors = self._forward_successors()
        indegree = [0] * len(successors)
        for edges in successors:
            for h, _ in edges:
                indegree[h] += 1
        ready = [v for v, d in enumerate(indegree) if d == 0]
        order: List[int] = []
        while ready:
            v = ready.pop()
            order.append(v)
            for h, _ in successors[v]:
                remaining = indegree[h] - 1
                indegree[h] = remaining
                if remaining == 0:
                    ready.append(h)
        if len(order) != len(successors):
            cyclic = sorted(self._names[v] for v, d in enumerate(indegree)
                            if d > 0)
            raise CyclicForwardGraphError(
                f"forward constraint graph has a cycle through {cyclic}")
        return tuple(order)

    def is_forward_reachable(self, tail: str, head: str) -> bool:
        """True when a directed path of *forward* edges runs tail -> head.

        This is the paper's predecessor relation: ``tail in pred(head)``.
        A vertex does not reach itself unless on a (forbidden) cycle.
        """
        start = self._index(tail)
        target = self._index(head)
        successors = self._forward_successors()
        stack = [start]
        seen = {start}
        while stack:
            for h, _ in successors[stack.pop()]:
                if h == target:
                    return True
                if h not in seen:
                    seen.add(h)
                    stack.append(h)
        return False

    def validate(self) -> None:
        """Check the structural invariants the algorithms rely on.

        * the forward graph is acyclic;
        * the graph is polar: every vertex lies on a forward source-to-
          sink path;
        * every unbounded-weight edge leaves an anchor.

        Raises:
            GraphStructureError / CyclicForwardGraphError on violation.
        """
        order = self.forward_topological_indices()
        if order[0] != 0 and any(h == 0 and kind != MAX_TIME_ID
                                 for _, h, _, kind in self.edge_records()):
            raise GraphStructureError("source vertex has incoming forward edges")
        successors = self._forward_successors()
        reachable_from_source = {0}
        for v in order:
            if v in reachable_from_source:
                reachable_from_source.update(h for h, _ in successors[v])
        reaches_sink = {1}
        for v in reversed(order):
            if any(h in reaches_sink for h, _ in successors[v]):
                reaches_sink.add(v)
        for v, name in enumerate(self._names):
            if v not in reachable_from_source:
                raise GraphStructureError(f"vertex {name!r} unreachable from source")
            if v not in reaches_sink:
                raise GraphStructureError(f"vertex {name!r} cannot reach the sink")
        for t, _, weight, _ in self.edge_records():
            if (weight == -UNBOUNDED_TOKEN
                    and self._delays[t] != UNBOUNDED_TOKEN):
                raise GraphStructureError(
                    f"unbounded weight on edge from bounded vertex "
                    f"{self._names[t]!r}")

    def copy(self) -> "ConstraintGraph":
        """An independent copy of the store (no derived views)."""
        clone = ConstraintGraph.__new__(ConstraintGraph)
        clone._adopt(self._names[:], self._delays[:], self._records[:],
                     dict(self._tags))
        clone._cache_lock = make_rlock("graph.cache")
        clone.source = self.source
        clone.sink = self.sink
        return clone

    # ------------------------------------------------------------------
    # interop
    # ------------------------------------------------------------------

    def to_networkx(self):
        """Export as a ``networkx.MultiDiGraph``.

        Vertex attributes: ``delay`` (int or the UNBOUNDED sentinel).
        Edge attributes: ``weight`` (static weight, unbounded as 0),
        ``unbounded`` (bool) and ``kind`` (EdgeKind value string).
        """
        import networkx as nx

        graph = nx.MultiDiGraph(source=self.source, sink=self.sink)
        for vertex in self.vertices():
            graph.add_node(vertex.name, delay=vertex.delay)
        for edge in self.edges():
            graph.add_edge(edge.tail, edge.head, weight=edge.static_weight,
                           unbounded=edge.is_unbounded, kind=edge.kind.value)
        return graph

    def to_dot(self) -> str:
        """A Graphviz dot rendering; backward edges are dashed, anchors
        double-circled, unbounded weights printed as ``d(tail)``."""
        lines = ["digraph constraint_graph {", "  rankdir=TB;"]
        for vertex in self.vertices():
            shape = "doublecircle" if vertex.is_unbounded else "circle"
            delay = "?" if vertex.is_unbounded else str(vertex.delay)
            lines.append(f'  "{vertex.name}" [shape={shape} label="{vertex.name}\\n{delay}"];')
        for edge in self.edges():
            style = "dashed" if edge.is_backward else "solid"
            label = f"d({edge.tail})" if edge.is_unbounded else str(edge.weight)
            lines.append(
                f'  "{edge.tail}" -> "{edge.head}" [style={style} label="{label}"];')
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        backward = self.edge_count(backward_only=True)
        return (f"ConstraintGraph(|V|={len(self)}, |Ef|="
                f"{self.edge_count() - backward}, |Eb|={backward}, "
                f"|A|={len(self.anchors)})")
