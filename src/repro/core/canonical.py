"""Canonical graph forms: an isomorphism-stable key for result caching.

Two constraint graphs that differ only in vertex *naming* (or in vertex
and edge insertion order) describe the same scheduling problem, and the
minimum relative schedule of one is the relabelling of the other's
(offsets are the unique least fixpoint of a purely structural relaxation
system).  The batch kernel's persistent result cache therefore keys
entries on a *canonical form* of the graph rather than on its names.

The canonicalization is a hashed Weisfeiler-Leman refinement:

1. every vertex starts from a name-free 64-bit color mixing its delay
   (``UNBOUNDED`` gets a reserved token), and whether it is the source
   or the sink;
2. for :data:`REFINEMENT_ROUNDS` rounds, each vertex's color is
   re-mixed with two *commutative* digests of its neighborhood -- the
   wrapping uint64 sums of ``mix(neighbor color, weight, kind)`` over
   its in-edges and over its out-edges.  Commutative combination keeps
   the colors independent of edge order; mixing keeps them sensitive to
   weights, kinds, delays, and anchor placement.

When the final colors are all distinct the color order is a *canonical
vertex order*: any renaming (or reordering) of the graph refines to the
same colors and therefore the same order.  The certificate is then the
exact structure -- delays, source/sink positions, and the sorted edge
list -- rewritten in canonical coordinates; its SHA-256 is the cache
key.  Because the certificate encodes the full structure (colors only
pick the order), equal keys mean isomorphic graphs up to SHA-256
collision -- a WL color collision can only cost discreteness (a cache
miss), never a wrong hit.

Graphs whose colors do *not* become discrete (automorphic or
WL-ambiguous vertices) return ``None``: they are simply not cacheable,
which is always safe.  Vertex ``tag`` annotations are ignored -- they
are carried through analysis untouched and do not affect schedules.

:mod:`repro.core.batch` re-implements the same refinement as vectorized
numpy sweeps over a whole batch arena; the two paths must produce
byte-identical keys (differentially tested in
``tests/core/test_canonical.py``), so every constant lives here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional

# UNBOUNDED_TOKEN (like the kind ids) lives next to the graph's store
# (graph.packed()) and is re-exported here: certificate, store, and
# batch arena must agree on both encodings.
from repro.core.graph import UNBOUNDED_TOKEN, ConstraintGraph

#: WL refinement rounds.  Colors see the r-hop neighborhood in both
#: directions after r rounds; small constraint graphs refine to discrete
#: colors within a few rounds, and extra rounds only cost time.
REFINEMENT_ROUNDS = 4

#: Certificate stream version, mixed into every key so a change to the
#: canonicalization invalidates every persisted cache entry at once.
CERTIFICATE_VERSION = 1

_MASK = (1 << 64) - 1
_M1 = 0x9E3779B97F4A7C15
_M2 = 0xC2B2AE3D27D4EB4F
_M3 = 0x165667B19E3779F9
_M4 = 0x27D4EB2F165667C5
_M5 = 0xBF58476D1CE4E5B9

#: The multipliers above, exported for the vectorized twin in
#: :mod:`repro.core.batch`; both paths must mix identically.
MIX_CONSTANTS = (_M1, _M2, _M3, _M4, _M5)


def mix3(a: int, b: int, c: int) -> int:
    """The shared 64-bit mixing function (splitmix-style finalizer).

    All three operands are taken mod 2**64; the vectorized twin in
    :mod:`repro.core.batch` runs the same arithmetic on uint64 arrays.
    """
    x = (a * _M1 + b * _M2 + c * _M3 + _M4) & _MASK
    x ^= x >> 29
    x = (x * _M5) & _MASK
    x ^= x >> 32
    return x


@dataclass(frozen=True)
class CanonicalForm:
    """A discrete canonical labelling of a constraint graph.

    Attributes:
        key: SHA-256 hex digest of the certificate -- the cache key.
        order: vertex names by canonical rank (``order[r]`` has rank r).
        anchors: anchor names in canonical-rank order; cache entries
            store offset columns in exactly this order.
    """

    key: str
    order: List[str]
    anchors: List[str]

    @property
    def rank(self) -> Dict[str, int]:
        return {name: r for r, name in enumerate(self.order)}


def refined_colors(graph: ConstraintGraph,
                   rounds: int = REFINEMENT_ROUNDS) -> Dict[str, int]:
    """The hashed-WL colors after *rounds* refinement rounds."""
    return dict(zip(graph.vertex_names(), _refine(graph, rounds)))


def _refine(graph: ConstraintGraph, rounds: int) -> List[int]:
    """The refined colors per vertex index, read from the graph's store
    (the source is vertex 0, the sink vertex 1)."""
    tokens, _ = graph.packed()
    flags = [1, 2] + [0] * (len(tokens) - 2)
    colors = [mix3(token & _MASK, flag, 0)
              for token, flag in zip(tokens, flags)]
    edges = [(t, h, _weight_token(w), kind)
             for t, h, w, kind in graph.edge_records()]
    for _ in range(rounds):
        in_sum = [0] * len(colors)
        out_sum = [0] * len(colors)
        for tail, head, wtok, kid in edges:
            in_sum[head] = (in_sum[head]
                            + mix3(colors[tail], wtok, kid + 1)) & _MASK
            out_sum[tail] = (out_sum[tail]
                             + mix3(colors[head], wtok, kid + 101)) & _MASK
        colors = list(map(mix3, colors, in_sum, out_sum))
    return colors


def _weight_token(weight: int) -> int:
    """The 64-bit token of a stored edge weight: ``UNBOUNDED_TOKEN`` for
    an unbounded one, the two's-complement value otherwise (delays
    enter as ``token & _MASK``)."""
    return UNBOUNDED_TOKEN if weight == -UNBOUNDED_TOKEN else weight & _MASK


def canonical_form(graph: ConstraintGraph) -> Optional[CanonicalForm]:
    """The canonical form of *graph*, or None when not canonicalizable.

    Returns None when the refined colors are not discrete (two vertices
    share a color), in which case no stable canonical order exists under
    renaming and the graph must not be cached.
    """
    colors = _refine(graph, REFINEMENT_ROUNDS)
    order = sorted(range(len(colors)), key=colors.__getitem__)
    for a, b in zip(order, order[1:]):
        if colors[a] == colors[b]:
            return None
    rank = [0] * len(order)
    for r, v in enumerate(order):
        rank[v] = r
    tokens, records = graph.packed()
    stream: List[int] = [
        CERTIFICATE_VERSION,
        len(order),
        len(records) >> 2,
        rank[0],
        rank[1],
    ]
    stream.extend(tokens[v] & _MASK for v in order)
    for record in sorted((rank[t], rank[h], kind, _weight_token(w))
                         for t, h, w, kind in graph.edge_records()):
        stream.extend(record)
    digest = hashlib.sha256(
        b"".join(value.to_bytes(8, "little") for value in stream))
    names = graph.vertex_names()
    return CanonicalForm(
        key=digest.hexdigest(), order=[names[v] for v in order],
        anchors=[names[v] for v in order if tokens[v] == UNBOUNDED_TOKEN])


def canonical_key(graph: ConstraintGraph) -> Optional[str]:
    """Just the cache key of *graph* (None when not canonicalizable)."""
    form = canonical_form(graph)
    return None if form is None else form.key
