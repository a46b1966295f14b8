"""Canonical forms: isomorphism-stable cache keys.

The contract (see :mod:`repro.core.canonical`): renamed or reordered
copies of a graph collide on the same key; any structural perturbation
-- a weight, an edge, a delay, an edge kind, an anchor placement --
produces a different key; graphs whose WL colors stay ambiguous return
``None`` (uncacheable, never wrong); and the vectorized arena twin in
:mod:`repro.core.batch` produces byte-identical keys to the scalar
path.
"""

import random

import pytest

from repro import ConstraintGraph, UNBOUNDED
from repro.core.canonical import canonical_form, canonical_key, refined_colors
from repro.qa.generators import (
    batch_corpus,
    chain_ladder_graph,
    renamed_isomorph,
    unfeasible_chain_graph,
)

numpy = pytest.importorskip("numpy")


def small_graph() -> ConstraintGraph:
    g = ConstraintGraph(source="src", sink="snk")
    g.add_operation("a", UNBOUNDED)
    g.add_operation("b", 2)
    g.add_operation("c", 5)
    g.add_sequencing_edges([("src", "a"), ("src", "b"), ("a", "c"),
                            ("b", "c"), ("c", "snk")])
    g.add_min_constraint("b", "c", 3)
    g.add_max_constraint("b", "c", 7)
    return g


class TestIsomorphismCollision:
    def test_renamed_copy_has_same_key(self):
        rng = random.Random(1)
        g = small_graph()
        key = canonical_key(g)
        assert key is not None
        for _ in range(5):
            assert canonical_key(renamed_isomorph(g, rng)) == key

    def test_renamed_corpus_graphs_collide(self):
        rng = random.Random(2)
        for make in (chain_ladder_graph, unfeasible_chain_graph):
            g = make(rng)
            key = canonical_key(g)
            if key is None:  # WL-ambiguous corpus draws are legal
                continue
            assert canonical_key(renamed_isomorph(g, rng)) == key

    def test_insertion_order_is_irrelevant(self):
        # Same structure, vertices and edges inserted in reverse order.
        a = ConstraintGraph(source="s", sink="t")
        a.add_operation("x", 1)
        a.add_operation("y", 4)
        a.add_sequencing_edges([("s", "x"), ("x", "y"), ("y", "t")])
        b = ConstraintGraph(source="s", sink="t")
        b.add_operation("y", 4)
        b.add_operation("x", 1)
        b.add_sequencing_edges([("y", "t"), ("x", "y"), ("s", "x")])
        assert canonical_key(a) == canonical_key(b)
        assert canonical_key(a) is not None

    def test_canonical_order_relabels_offsets(self):
        # The canonical order maps a schedule of one copy onto the other.
        from repro.core.anchors import AnchorMode
        from repro.core.scheduler import schedule_graph

        rng = random.Random(3)
        g = small_graph()
        h = renamed_isomorph(g, rng)
        fg, fh = canonical_form(g), canonical_form(h)
        assert fg is not None and fg.key == fh.key
        sg = schedule_graph(g.copy(), anchor_mode=AnchorMode.FULL)
        sh = schedule_graph(h.copy(), anchor_mode=AnchorMode.FULL)
        to_h = dict(zip(fg.order, fh.order))
        relabelled = {
            to_h[v]: {to_h[a]: w for a, w in row.items()}
            for v, row in sg.offsets.items()}
        assert relabelled == sh.offsets


class TestPerturbationSeparation:
    def test_weight_perturbation_changes_key(self):
        g = small_graph()
        h = small_graph()
        h.remove_edge(next(e for e in h.edges() if e.weight == 3))
        h.add_min_constraint("b", "c", 4)
        assert canonical_key(g) != canonical_key(h)

    def test_extra_edge_changes_key(self):
        g = small_graph()
        h = small_graph()
        h.add_min_constraint("a", "c", 1)
        assert canonical_key(g) != canonical_key(h)

    def test_delay_perturbation_changes_key(self):
        g = small_graph()
        h = ConstraintGraph(source="src", sink="snk")
        h.add_operation("a", UNBOUNDED)
        h.add_operation("b", 2)
        h.add_operation("c", 6)  # was 5
        h.add_sequencing_edges([("src", "a"), ("src", "b"), ("a", "c"),
                                ("b", "c"), ("c", "snk")])
        h.add_min_constraint("b", "c", 3)
        h.add_max_constraint("b", "c", 7)
        assert canonical_key(g) != canonical_key(h)

    def test_anchor_placement_changes_key(self):
        # Same topology; one bounded delay becomes unbounded.
        h = ConstraintGraph(source="src", sink="snk")
        h.add_operation("a", UNBOUNDED)
        h.add_operation("b", UNBOUNDED)  # was 2
        h.add_operation("c", 5)
        h.add_sequencing_edges([("src", "a"), ("src", "b"), ("a", "c"),
                                ("b", "c"), ("c", "snk")])
        h.add_min_constraint("b", "c", 3)
        h.add_max_constraint("b", "c", 7)
        assert canonical_key(small_graph()) != canonical_key(h)

    def test_edge_kind_changes_key(self):
        # A sequencing edge and a min constraint of equal weight differ
        # only in kind; the certificate must separate them.
        def base(kind_min: bool) -> ConstraintGraph:
            g = ConstraintGraph(source="s", sink="t")
            g.add_operation("x", 3)
            g.add_operation("y", 1)
            g.add_sequencing_edges([("s", "x"), ("x", "y"), ("y", "t")])
            if kind_min:
                g.add_min_constraint("x", "y", 3)  # same weight as delta(x)
            else:
                g.add_sequencing_edge("x", "y")
            return g

        assert canonical_key(base(True)) != canonical_key(base(False))


class TestAmbiguity:
    def test_automorphic_graph_is_uncacheable(self):
        # x and y are interchangeable: WL cannot split them, so there is
        # no stable order and the graph must not be cached.
        g = ConstraintGraph(source="s", sink="t")
        g.add_operation("x", 2)
        g.add_operation("y", 2)
        g.add_sequencing_edges([("s", "x"), ("s", "y"), ("x", "t"),
                                ("y", "t")])
        colors = refined_colors(g)
        assert colors["x"] == colors["y"]
        assert canonical_form(g) is None
        assert canonical_key(g) is None

    def test_none_is_stable_under_renaming(self):
        g = ConstraintGraph(source="s", sink="t")
        g.add_operation("x", 2)
        g.add_operation("y", 2)
        g.add_sequencing_edges([("s", "x"), ("s", "y"), ("x", "t"),
                                ("y", "t")])
        rng = random.Random(4)
        assert canonical_key(renamed_isomorph(g, rng)) is None


class TestVectorizedTwin:
    def test_arena_keys_match_scalar_keys(self):
        # The batch kernel's vectorized WL + certificate must be
        # byte-identical to the scalar path, graph by graph.
        from repro.core.batch import _arena_keys, _assemble

        corpus = batch_corpus(97, 120, n_unique=40)
        arena = _assemble(corpus)
        keys, rank, inv = _arena_keys(arena)
        for gi, (graph, key) in enumerate(zip(corpus, keys)):
            assert canonical_key(graph) == key
            # Keyed graphs rank their vertices exactly as the scalar
            # canonical order does, and inv inverts rank.
            vs, n = int(arena.vstart[gi]), len(graph)
            names = graph.vertex_names()
            ranks = rank[vs:vs + n].tolist()
            assert sorted(ranks) == list(range(n))
            assert [ranks[i] for i in inv[vs:vs + n].tolist()] \
                == list(range(n))
            if key is not None:
                form = canonical_form(graph)
                assert ranks == [form.rank[name] for name in names]

    def test_arena_flags_ambiguous_graphs(self):
        from repro.core.batch import _arena_keys, _assemble

        g = ConstraintGraph(source="s", sink="t")
        g.add_operation("x", 2)
        g.add_operation("y", 2)
        g.add_sequencing_edges([("s", "x"), ("s", "y"), ("x", "t"),
                                ("y", "t")])
        arena = _assemble([g, small_graph()])
        keys = _arena_keys(arena)[0]
        assert keys[0] is None
        assert keys[1] == canonical_key(small_graph())
