"""Property-based tests of the paper's theorems on random graphs.

Each property is checked on seeded random constraint graphs produced by
:mod:`repro.designs.random_graphs`:

* Theorem 1  -- feasibility iff no positive cycle;
* Theorem 2  -- containment criterion matches semantic well-posedness;
* Theorem 3  -- minimum offsets equal longest path lengths;
* Theorems 4/6 -- start times agree across full / relevant / irredundant
  anchor sets, and under every delay profile all timing constraints hold
  (the semantic meaning of well-posedness);
* Lemma 4 / Theorem 5 -- IR(v) subset-of R(v) subset-of A(v);
* Theorem 7 / Lemma 7 -- makeWellposed returns a well-posed
  serial-compatible graph or proves none exists;
* Theorem 8 / Corollary 2 -- the scheduler converges within |Eb| + 1
  iterations or correctly reports inconsistency.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    AnchorMode,
    IllPosedError,
    InconsistentConstraintsError,
    IterativeIncrementalScheduler,
    WellPosedness,
    check_well_posed,
    find_anchor_sets,
    irredundant_anchors,
    make_well_posed,
    relevant_anchors,
    schedule_graph,
)
from repro.core.paths import (
    NO_PATH,
    anchored_longest_paths,
    has_positive_cycle,
)
from repro.designs.random_graphs import random_constraint_graph

COMMON_SETTINGS = settings(max_examples=60, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])

seeds = st.integers(min_value=0, max_value=10**6)
sizes = st.integers(min_value=3, max_value=18)


def make_graph(seed: int, n_ops: int, **kwargs):
    return random_constraint_graph(random.Random(seed), n_ops, **kwargs)


def random_profile(graph, seed: int):
    rng = random.Random(seed ^ 0x5EED)
    return {a: rng.randint(0, 12) for a in graph.anchors}


@COMMON_SETTINGS
@given(seed=seeds, n_ops=sizes)
def test_theorem3_offsets_are_longest_paths(seed, n_ops):
    graph = make_graph(seed, n_ops)
    if check_well_posed(graph) is not WellPosedness.WELL_POSED:
        return
    schedule = schedule_graph(graph, anchor_mode=AnchorMode.FULL)
    anchor_sets = find_anchor_sets(graph)
    for anchor in graph.anchors:
        expected_table = anchored_longest_paths(graph, anchor, anchor_sets)
        for vertex in graph.vertex_names():
            if anchor not in anchor_sets[vertex]:
                continue
            expected = expected_table[vertex]
            assert expected is not NO_PATH
            assert schedule.offset(vertex, anchor) == expected


@COMMON_SETTINGS
@given(seed=seeds, n_ops=sizes)
def test_theorems4_6_anchor_mode_equivalence(seed, n_ops):
    graph = make_graph(seed, n_ops)
    if check_well_posed(graph) is not WellPosedness.WELL_POSED:
        return
    schedules = {mode: schedule_graph(graph, anchor_mode=mode)
                 for mode in AnchorMode}
    for profile_seed in range(3):
        profile = random_profile(graph, seed + profile_seed)
        starts = [s.start_times(profile) for s in schedules.values()]
        assert starts[0] == starts[1] == starts[2]


@COMMON_SETTINGS
@given(seed=seeds, n_ops=sizes)
def test_semantic_well_posedness_all_constraints_hold(seed, n_ops):
    """Definition 7, executed: for a well-posed graph, the evaluated start
    times satisfy every sequencing dependency and timing constraint under
    arbitrary delay profiles."""
    graph = make_graph(seed, n_ops)
    if check_well_posed(graph) is not WellPosedness.WELL_POSED:
        return
    schedule = schedule_graph(graph, anchor_mode=AnchorMode.FULL)
    for profile_seed in range(3):
        profile = random_profile(graph, seed * 7 + profile_seed)
        start = schedule.start_times(profile)
        for edge in graph.edges():
            if edge.is_unbounded:
                weight = profile.get(edge.tail, 0)
            else:
                weight = edge.weight
            assert start[edge.head] >= start[edge.tail] + weight, (
                f"profile {profile} violates {edge!r}: "
                f"{start[edge.head]} < {start[edge.tail]} + {weight}")


@COMMON_SETTINGS
@given(seed=seeds, n_ops=sizes)
def test_anchor_set_inclusions(seed, n_ops):
    graph = make_graph(seed, n_ops)
    if check_well_posed(graph) is not WellPosedness.WELL_POSED:
        return
    full = find_anchor_sets(graph)
    relevant = relevant_anchors(graph)
    irredundant = irredundant_anchors(graph)
    for vertex in graph.vertex_names():
        assert irredundant[vertex] <= relevant[vertex] <= full[vertex]


@COMMON_SETTINGS
@given(seed=seeds, n_ops=sizes)
def test_makewellposed_fixes_or_proves_impossible(seed, n_ops):
    graph = make_graph(seed, n_ops, well_posed_only=False,
                       n_max_constraints=3)
    status = check_well_posed(graph)
    if status is WellPosedness.UNFEASIBLE:
        return
    try:
        fixed = make_well_posed(graph)
    except IllPosedError:
        return
    assert check_well_posed(fixed) is WellPosedness.WELL_POSED
    # Serial compatibility: original vertices and edges preserved.
    assert set(fixed.vertex_names()) == set(graph.vertex_names())
    assert len(fixed.backward_edges()) == len(graph.backward_edges())
    assert len(fixed.forward_edges()) >= len(graph.forward_edges())
    for edge in fixed.edges()[:len(graph.edges())]:
        assert (edge.tail, edge.head, edge.kind) in {
            (e.tail, e.head, e.kind) for e in graph.edges()}


@COMMON_SETTINGS
@given(seed=seeds, n_ops=sizes)
def test_lemma5_relevant_anchors_separate(seed, n_ops):
    """Lemma 5: every irrelevant anchor of a vertex is a forward
    predecessor of at least one of its relevant anchors (the separation
    property Fig. 6 illustrates)."""
    graph = make_graph(seed, n_ops)
    if check_well_posed(graph) is not WellPosedness.WELL_POSED:
        return
    full = find_anchor_sets(graph)
    relevant = relevant_anchors(graph)
    for vertex in graph.vertex_names():
        for irrelevant in full[vertex] - relevant[vertex]:
            assert any(graph.is_forward_reachable(irrelevant, r)
                       for r in relevant[vertex]), (vertex, irrelevant)


@COMMON_SETTINGS
@given(seed=seeds, n_ops=sizes)
def test_makewellposed_edges_are_all_necessary(seed, n_ops):
    """Minimality, edge by edge: dropping any single serialization edge
    makeWellposed added leaves the graph ill-posed again (no edge is
    gratuitous -- a stronger, executable reading of Theorem 7)."""
    from repro.core.graph import EdgeKind

    graph = make_graph(seed, n_ops, well_posed_only=False,
                       n_max_constraints=3)
    if check_well_posed(graph) is not WellPosedness.WELL_POSED:
        try:
            fixed = make_well_posed(graph)
        except IllPosedError:
            return
    else:
        return
    added = [e for e in fixed.edges() if e.kind is EdgeKind.SERIALIZATION]
    for index in range(len(added)):
        pruned = graph.copy()
        for position, edge in enumerate(added):
            if position != index:
                pruned.add_serialization_edge(edge.tail, edge.head)
        assert check_well_posed(pruned) is WellPosedness.ILL_POSED, (
            f"edge {added[index]!r} was unnecessary")


@COMMON_SETTINGS
@given(seed=seeds, n_ops=sizes)
def test_theorem8_iteration_bound(seed, n_ops):
    graph = make_graph(seed, n_ops, n_max_constraints=4)
    if check_well_posed(graph) is not WellPosedness.WELL_POSED:
        return
    scheduler = IterativeIncrementalScheduler(graph)
    schedule = scheduler.run()
    assert schedule.iterations <= len(graph.backward_edges()) + 1


@COMMON_SETTINGS
@given(seed=seeds, n_ops=sizes)
def test_corollary2_unfeasible_graphs_never_schedule(seed, n_ops):
    graph = make_graph(seed, n_ops, feasible_only=False,
                       well_posed_only=False, n_max_constraints=4)
    try:
        graph.forward_topological_order()
    except Exception:
        return
    feasible = not has_positive_cycle(graph)
    scheduler = IterativeIncrementalScheduler(graph)
    if feasible:
        schedule = scheduler.run()  # must converge (Theorem 8)
        schedule.validate()
    else:
        with pytest.raises(InconsistentConstraintsError):
            scheduler.run()


@COMMON_SETTINGS
@given(seed=seeds, n_ops=sizes)
def test_positive_cycle_witness_is_genuine(seed, n_ops):
    """find_positive_cycle's witness really is a cycle of positive total
    static weight (Theorem 1's proof object, verified edge by edge)."""
    from repro.core.paths import find_positive_cycle

    graph = make_graph(seed, n_ops, feasible_only=False,
                       well_posed_only=False, n_max_constraints=4)
    cycle = find_positive_cycle(graph)
    if cycle is None:
        assert not has_positive_cycle(graph)
        return
    total = 0
    for index, tail in enumerate(cycle):
        head = cycle[(index + 1) % len(cycle)]
        weights = [e.static_weight for e in graph.out_edges(tail)
                   if e.head == head]
        assert weights, f"witness edge {tail}->{head} missing"
        total += max(weights)
    assert total > 0


@COMMON_SETTINGS
@given(seed=seeds, n_ops=sizes)
def test_start_times_monotone_in_profile(seed, n_ops):
    """Raising any anchor delay can only push start times later."""
    graph = make_graph(seed, n_ops)
    if check_well_posed(graph) is not WellPosedness.WELL_POSED:
        return
    schedule = schedule_graph(graph)
    base = random_profile(graph, seed)
    start_base = schedule.start_times(base)
    for anchor in graph.anchors:
        bumped = dict(base)
        bumped[anchor] = bumped.get(anchor, 0) + 5
        start_bumped = schedule.start_times(bumped)
        for vertex in graph.vertex_names():
            assert start_bumped[vertex] >= start_base[vertex]


@COMMON_SETTINGS
@given(seed=seeds, n_ops=sizes)
def test_minimum_schedule_dominates_any_valid_schedule(seed, n_ops):
    """Definition 5 minimality: inflating any offset still validates, but
    never produces an earlier start time than the minimum schedule."""
    graph = make_graph(seed, n_ops)
    if check_well_posed(graph) is not WellPosedness.WELL_POSED:
        return
    schedule = schedule_graph(graph, anchor_mode=AnchorMode.FULL)
    rng = random.Random(seed)
    profile = random_profile(graph, seed)
    base_start = schedule.start_times(profile)
    # Globally delaying every offset by the same constant keeps all
    # difference constraints satisfied (except normalization) and can
    # only delay start times.
    inflated = schedule_graph(graph, anchor_mode=AnchorMode.FULL)
    bump = rng.randint(1, 4)
    for vertex, offsets in inflated.offsets.items():
        if vertex == graph.source:
            continue
        for anchor in offsets:
            offsets[anchor] += bump
    delayed_start = inflated.start_times(profile)
    for vertex in graph.vertex_names():
        if vertex == graph.source:
            continue
        assert delayed_start[vertex] >= base_start[vertex]
