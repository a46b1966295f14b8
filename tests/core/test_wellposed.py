"""Unit tests for feasibility, well-posedness, and makeWellposed.

Covers Theorems 1-2, Lemmas 1-3 and 7, Theorem 7, and the Fig. 3
examples.
"""

import pytest

from repro import ConstraintGraph, UNBOUNDED, IllPosedError, WellPosedness
from repro.core.anchors import find_anchor_sets
from repro.core.exceptions import CyclicForwardGraphError
from repro.core.graph import EdgeKind
from repro.core.paths import length
from repro.core.wellposed import (
    can_be_made_well_posed,
    check_well_posed,
    containment_violations,
    is_feasible,
    make_well_posed,
    serialization_edges,
)


class TestFeasibility:
    def test_fig2_is_feasible(self, fig2_graph):
        assert is_feasible(fig2_graph)

    def test_positive_cycle_is_unfeasible(self):
        g = ConstraintGraph(source="s", sink="t")
        g.add_operation("x", 4)
        g.add_operation("y", 1)
        g.add_sequencing_edges([("s", "x"), ("x", "y"), ("y", "t")])
        g.add_max_constraint("x", "y", 2)  # bound below delta(x)=4
        assert not is_feasible(g)
        assert check_well_posed(g) is WellPosedness.UNFEASIBLE

    def test_unbounded_delay_at_zero_for_feasibility(self):
        # Definition 6: feasibility sets unbounded delays to 0, so a max
        # constraint across an anchor can still be *feasible* (while
        # being ill-posed).
        g = ConstraintGraph(source="s", sink="t")
        g.add_operation("a", UNBOUNDED)
        g.add_operation("y", 1)
        g.add_sequencing_edges([("s", "a"), ("a", "y"), ("y", "t")])
        g.add_max_constraint("a", "y", 0)
        assert is_feasible(g)
        assert check_well_posed(g) is WellPosedness.ILL_POSED

    def test_forward_cycle_raises(self):
        g = ConstraintGraph()
        g.add_operation("x", 1)
        g.add_operation("y", 1)
        g.add_sequencing_edges([("v0", "x"), ("x", "y"), ("y", "vN")])
        g.add_min_constraint("y", "x", 1)
        with pytest.raises(CyclicForwardGraphError):
            check_well_posed(g)


class TestCheckWellPosed:
    def test_fig2_well_posed(self, fig2_graph):
        assert check_well_posed(fig2_graph) is WellPosedness.WELL_POSED

    def test_fig3a_ill_posed(self, fig3a_graph):
        assert check_well_posed(fig3a_graph) is WellPosedness.ILL_POSED

    def test_fig3b_ill_posed(self, fig3b_graph):
        assert check_well_posed(fig3b_graph) is WellPosedness.ILL_POSED

    def test_fig3c_serialization_fixes_fig3b(self, fig3b_graph):
        # Fig. 3(c): adding the forward edge a2 -> vi makes it well-posed.
        fig3b_graph.add_serialization_edge("a2", "vi")
        assert check_well_posed(fig3b_graph) is WellPosedness.WELL_POSED

    def test_min_constraints_always_well_posed(self):
        # Section III-B: minimum constraints never become ill-posed.
        g = ConstraintGraph(source="s", sink="t")
        g.add_operation("a", UNBOUNDED)
        g.add_operation("y", 1)
        g.add_sequencing_edges([("s", "a"), ("a", "y"), ("y", "t")])
        g.add_min_constraint("s", "y", 10)
        g.add_min_constraint("a", "y", 3)
        assert check_well_posed(g) is WellPosedness.WELL_POSED

    def test_violations_identify_missing_anchors(self, fig3b_graph):
        violations = containment_violations(fig3b_graph)
        assert len(violations) == 1
        edge, missing = violations[0]
        assert edge.tail == "vj" and edge.head == "vi"
        assert missing == {"a2"}

    def test_containment_criterion_matches_lemma1(self, fig3b_graph):
        # Lemma 1: u_ij well-posed iff A(v_j) subset-of A(v_i).
        anchor_sets = find_anchor_sets(fig3b_graph)
        assert not (anchor_sets["vj"] <= anchor_sets["vi"])

    def test_verdict_is_the_same_across_the_numpy_gate(self):
        # One structure replicated at sizes on both sides of the
        # kernel's numpy gate gets one verdict.
        from repro.core.indexed import _NUMPY_MIN_N

        for n_pad in (2, _NUMPY_MIN_N + 8):
            g = ConstraintGraph(source="s", sink="t")
            g.add_operation("a", UNBOUNDED)
            g.add_sequencing_edge("s", "a")
            previous = "a"
            for i in range(n_pad):
                g.add_operation(f"v{i}", 2)
                g.add_sequencing_edge(previous, f"v{i}")
                previous = f"v{i}"
            g.add_sequencing_edge(previous, "t")
            g.add_max_constraint("v0", "v1", 6)
            assert check_well_posed(g.copy()) is WellPosedness.WELL_POSED


class TestCanBeMadeWellPosed:
    def test_fig3a_cannot(self, fig3a_graph):
        # The anchor lies between the constrained operations: the needed
        # serialization closes an unbounded-length cycle (Lemma 3).
        assert not can_be_made_well_posed(fig3a_graph)

    def test_fig3b_can(self, fig3b_graph):
        assert can_be_made_well_posed(fig3b_graph)

    def test_well_posed_graph_trivially_can(self, fig2_graph):
        assert can_be_made_well_posed(fig2_graph)


class TestMakeWellPosed:
    def test_fig3b_gets_fig3c_edge(self, fig3b_graph):
        fixed = make_well_posed(fig3b_graph)
        assert check_well_posed(fixed) is WellPosedness.WELL_POSED
        added = serialization_edges(fixed)
        assert len(added) == 1
        assert (added[0].tail, added[0].head) == ("a2", "vi")
        assert added[0].is_unbounded

    def test_fig3a_raises(self, fig3a_graph):
        with pytest.raises(IllPosedError):
            make_well_posed(fig3a_graph)

    def test_original_graph_untouched_by_default(self, fig3b_graph):
        edge_count = len(fig3b_graph.edges())
        make_well_posed(fig3b_graph)
        assert len(fig3b_graph.edges()) == edge_count

    def test_in_place_mutation(self, fig3b_graph):
        result = make_well_posed(fig3b_graph, in_place=True)
        assert result is fig3b_graph
        assert check_well_posed(fig3b_graph) is WellPosedness.WELL_POSED

    def test_well_posed_graph_is_noop(self, fig2_graph):
        fixed = make_well_posed(fig2_graph)
        assert len(fixed.edges()) == len(fig2_graph.edges())

    def test_serial_compatibility(self, fig3b_graph):
        # Lemma 7: the result keeps every original vertex and edge and
        # only adds forward edges.
        fixed = make_well_posed(fig3b_graph)
        assert set(fixed.vertex_names()) == set(fig3b_graph.vertex_names())
        originals = {(e.tail, e.head, e.kind) for e in fig3b_graph.edges()}
        for tail, head, kind in originals:
            assert any((e.tail, e.head, e.kind) == (tail, head, kind)
                       for e in fixed.edges())
        for edge in serialization_edges(fixed):
            assert edge.is_forward

    def test_minimal_serialization_zero_length_defining_path(self, fig3b_graph):
        # Theorem 7: each added edge realises a maximal defining path of
        # length 0 from the serializing anchor.
        fixed = make_well_posed(fig3b_graph)
        for edge in serialization_edges(fixed):
            assert length(fixed, edge.tail, edge.head) >= 0

    def test_chained_backward_edges_propagate(self):
        """addEdge recurses along backward-edge chains: serializing vi
        after a2 must also serialize the head of a further backward edge
        leaving vi."""
        g = ConstraintGraph(source="v0", sink="vN")
        g.add_operation("a1", UNBOUNDED)
        g.add_operation("a2", UNBOUNDED)
        g.add_operation("vi", 1)
        g.add_operation("vj", 1)
        g.add_operation("vk", 1)
        g.add_sequencing_edges([("v0", "a1"), ("v0", "a2"), ("v0", "vk"),
                                ("a1", "vi"), ("a2", "vj"),
                                ("vi", "vN"), ("vj", "vN"), ("vk", "vN")])
        g.add_max_constraint("vi", "vj", 5)   # backward (vj, vi)
        g.add_max_constraint("vk", "vi", 5)   # backward (vi, vk)
        fixed = make_well_posed(g)
        assert check_well_posed(fixed) is WellPosedness.WELL_POSED
        added = {(e.tail, e.head) for e in serialization_edges(fixed)}
        # a2 must serialize vi (containment on (vj, vi)) and then vk
        # (chained backward edge (vi, vk)); a1 must serialize vk too.
        assert ("a2", "vi") in added
        assert ("a2", "vk") in added
        assert ("a1", "vk") in added

    def test_makewellposed_then_schedule(self, fig3b_graph):
        from repro import schedule_graph

        schedule = schedule_graph(fig3b_graph, auto_well_pose=True)
        # vi now waits for a2 as well: its start depends on both anchors.
        assert "a2" in schedule.graph.to_networkx().nodes
        start = schedule.start_times({"a1": 1, "a2": 10})
        assert start["vi"] >= 10  # serialized after a2's completion
        assert start["vj"] <= start["vi"] + 5  # the max constraint holds


class TestPruneSerializations:
    """Satellite coverage for ``_prune_unnecessary_serializations``."""

    @staticmethod
    def _edge_multiset(graph):
        from collections import Counter
        return Counter((e.tail, e.head, e.weight, e.kind) for e in graph.edges())

    def test_spurious_serialization_edge_is_pruned(self, fig2_graph):
        """On an already well-posed graph every serialization edge is
        removable, so pruning drops a hand-planted spurious one."""
        from repro.core.wellposed import _prune_unnecessary_serializations

        assert check_well_posed(fig2_graph) is WellPosedness.WELL_POSED
        fig2_graph.add_serialization_edge("a", "v4")
        assert len(serialization_edges(fig2_graph)) == 1
        _prune_unnecessary_serializations(fig2_graph)
        assert serialization_edges(fig2_graph) == []
        assert check_well_posed(fig2_graph) is WellPosedness.WELL_POSED

    def test_readded_edge_preserves_weight_and_kind(self, fig3b_graph):
        """A required edge is removed and re-added by the prune scan; the
        re-added edge must carry the original unbounded weight and the
        SERIALIZATION kind (i.e. be equal to the original edge)."""
        from repro.core.wellposed import _prune_unnecessary_serializations

        fixed = make_well_posed(fig3b_graph)
        before = serialization_edges(fixed)
        assert before, "make_well_posed must have serialized fig 3(b)"
        before_multiset = self._edge_multiset(fixed)

        _prune_unnecessary_serializations(fixed)
        after = serialization_edges(fixed)
        assert sorted((e.tail, e.head) for e in after) == \
            sorted((e.tail, e.head) for e in before)
        for edge in after:
            assert edge.is_unbounded, edge
            assert edge.kind is EdgeKind.SERIALIZATION, edge
            assert edge in before  # frozen dataclass equality: all fields
        assert self._edge_multiset(fixed) == before_multiset

    def test_prune_is_fixpoint(self, fig3b_graph):
        """A second prune pass removes nothing: make_well_posed output is
        already edge-minimal."""
        from repro.core.wellposed import _prune_unnecessary_serializations

        fixed = make_well_posed(fig3b_graph)
        first = self._edge_multiset(fixed)
        _prune_unnecessary_serializations(fixed)
        assert self._edge_multiset(fixed) == first
        _prune_unnecessary_serializations(fixed)
        assert self._edge_multiset(fixed) == first
        assert check_well_posed(fixed) is WellPosedness.WELL_POSED

    def test_pruned_graph_is_edge_minimal(self, fig3b_graph):
        """Removing any surviving serialization edge re-breaks
        well-posedness (Theorem 7 minimality, the oracle's invariant)."""
        fixed = make_well_posed(fig3b_graph)
        for edge in serialization_edges(fixed):
            probe = fixed.copy()
            probe.remove_edge(edge)
            assert containment_violations(probe), (
                f"serialization edge {edge!r} is unnecessary")
