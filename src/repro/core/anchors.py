"""Anchor sets, relevant anchors, and irredundant anchors.

Anchors (Definition 2) are the source vertex plus every unbounded-delay
operation; they are the reference points of a relative schedule.

* The **anchor set** ``A(v)`` (Definition 4) contains every anchor whose
  completion gates the activation of ``v``: anchors with a *forward*
  path to ``v`` containing an unbounded-weight edge ``delta(a)``.
  Computed by :func:`find_anchor_sets` (the paper's ``findAnchorSet``).

* The **relevant anchor set** ``R(v)`` (Definition 9) contains anchors
  with a *defining path* to ``v`` -- a path in the full graph with
  exactly one unbounded edge.  Relevant anchors may directly determine
  the start time ``T(v)`` (Theorem 4).  Computed by
  :func:`relevant_anchors` (the paper's ``relevantAnchor``).

* The **irredundant anchor set** ``IR(v)`` (Definition 11) removes
  anchors dominated through a cascade of later anchors; it is the
  *minimum* set needed to compute ``T(v)`` (Theorem 6).  Computed by
  :func:`irredundant_anchors` (the paper's ``minimumAnchor``).

For well-posed graphs with minimum offsets the paper proves
``IR(v) subset-of R(v) subset-of A(v)`` and the equality of the start
times computed from any of the three sets (Theorems 4-6).
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet

from repro.core.graph import ConstraintGraph

#: Anchor sets map each vertex name to a frozen set of anchor names.
AnchorSets = Dict[str, FrozenSet[str]]


class AnchorMode(enum.Enum):
    """Which anchor-set variant downstream algorithms should use."""

    FULL = "full"
    RELEVANT = "relevant"
    IRREDUNDANT = "irredundant"


def find_anchor_sets(graph: ConstraintGraph) -> AnchorSets:
    """Compute ``A(v)`` for every vertex (the paper's ``findAnchorSet``).

    Anchors propagate along forward edges in topological order: an
    unbounded edge ``(a, v)`` injects ``a`` into ``A(v)``; every forward
    edge ``(u, v)`` propagates ``A(u)`` into ``A(v)``.  The source's
    anchor set is empty; since the graph is polar and every source
    out-edge is unbounded, the source ends up in the anchor set of every
    other vertex.

    Complexity ``O(|Ef| * |A|)``, matching the paper: each forward edge
    is traversed once and each traversal merges at most ``|A|`` tags.
    Runs as bitset propagation on the indexed compilation; the result
    is memoised on the graph's versioned analysis cache, so the
    well-posedness check, ``make_well_posed`` and the scheduler share
    one computation per graph version.
    """
    from repro.core.indexed import anchor_masks, get_indexed, masks_to_sets

    return graph.cached(
        "anchor_sets",
        lambda: masks_to_sets(get_indexed(graph), anchor_masks(graph)))


def relevant_anchors(graph: ConstraintGraph) -> AnchorSets:
    """Compute ``R(v)`` for every vertex (the paper's ``relevantAnchor``).

    Each anchor is propagated outwards over its out-edges and then as
    far as possible along *bounded*-weight edges of the full graph
    (forward and backward alike), stopping at unbounded edges.  Every
    vertex reached acquires the anchor as relevant: the traversal prefix
    is a defining path (Definition 8).

    Deviation from the paper's Definition 8 (documented in DESIGN.md):
    a defining path here contains *at most* one unbounded edge, which --
    when present -- must be the first.  The paper requires exactly one,
    but a *bounded* edge leaving an anchor (a minimum timing constraint
    whose tail is an anchor) constrains the offset ``sigma_a(v)``
    directly, so the anchor can determine ``T(v)`` with no unbounded
    edge on the path; the strict definition would drop it and lose the
    constraint.  Bounded-first-edge propagation is confined to the
    anchor's cone ``{x : a in A(x)}``, where the offsets it constrains
    are actually defined.  On graphs whose anchors have only unbounded
    out-edges (all of the paper's examples) the two definitions
    coincide.

    Complexity ``O(|A| * |E|)``: each edge is examined at most twice per
    anchor.  Runs as per-anchor bitmask traversals on the indexed
    compilation (phase 1: unbounded first hop then bounded edges;
    phase 2: all-bounded paths confined to the anchor's cone), memoised
    per graph version.
    """
    from repro.core.indexed import get_indexed, masks_to_sets, relevant_masks

    return graph.cached(
        "relevant_sets",
        lambda: masks_to_sets(get_indexed(graph), relevant_masks(graph)))


def irredundant_anchors(graph: ConstraintGraph) -> AnchorSets:
    """Compute ``IR(v)`` for every vertex (the paper's ``minimumAnchor``).

    An anchor ``x`` of ``v`` is *redundant* (Definition 11) when some
    anchor ``q`` with ``x in A(q)`` and ``q in A(v)`` satisfies
    ``length(x, v) = length(x, q) + length(q, v)``: the path through
    ``q`` already covers the longest path from ``x``, and ``q``'s later
    completion dominates ``x``'s.  The redundancy scan only needs to
    compare relevant anchors against each other (Theorem 5 shows every
    irrelevant anchor is redundant).

    The ``length`` of Definition 11 is interpreted as the minimum offset
    (the proof of Lemma 6 equates the two via Theorem 3), i.e. the
    longest path restricted to vertices whose anchor set contains the
    anchor -- see :func:`repro.core.paths.anchored_longest_paths`.  On
    graphs where no backward edge escapes an anchored region this equals
    the full-graph ``length(a, b)``.

    Complexity: dominated by the longest-path tables,
    ``O(|A| * |V| * |E|)`` here (the paper quotes ``O(|V| * |E|)`` per
    anchor); the scan itself is ``O(|R|^2)`` per vertex.  The whole
    computation runs on the indexed kernel (bitmask scan over memoised
    per-slot worklist distance arrays) and is cached per graph version;
    :func:`repro.qa.reference.irredundant_anchors_reference` is the
    dict-of-dict scan it is tested against.
    """
    from repro.core.indexed import get_indexed, irredundant_masks, masks_to_sets

    return graph.cached(
        "irredundant_sets",
        lambda: masks_to_sets(get_indexed(graph), irredundant_masks(graph)))


def anchor_sets_for_mode(graph: ConstraintGraph, mode: AnchorMode) -> AnchorSets:
    """The anchor sets requested by *mode* (full / relevant / irredundant)."""
    if mode is AnchorMode.FULL:
        return find_anchor_sets(graph)
    if mode is AnchorMode.RELEVANT:
        return relevant_anchors(graph)
    if mode is AnchorMode.IRREDUNDANT:
        return irredundant_anchors(graph)
    raise ValueError(f"unknown anchor mode {mode!r}")


def anchor_set_statistics(anchor_sets: AnchorSets) -> Dict[str, float]:
    """Summary statistics in the style of Table III.

    Returns ``total`` (sum of |A(v)| over all vertices) and ``average``
    (total / |V|).
    """
    total = sum(len(tags) for tags in anchor_sets.values())
    count = len(anchor_sets)
    return {"total": total, "average": total / count if count else 0.0}
